//! Core model: an issue-cost sequencer driven by a pluggable [`Scenario`].
//!
//! The paper's cores are ARM Cortex-A15-like OoO machines, but its
//! microbenchmark analysis (§3.1, Table 3) reduces the software side to
//! instruction-issue costs: composing a WQ entry is "roughly a dozen
//! arithmetic instructions plus two stores to the same cache block"; a CQ
//! poll is "four instructions including a load". The core model issues
//! exactly those memory operations through its cache complex with the
//! configured compute gaps, which is the granularity at which software
//! appears in every latency breakdown of the paper.
//!
//! *What* the core issues — read or write, destination node, remote address
//! and size, synchronous or asynchronous — comes from its [`Scenario`]
//! generator, consulted whenever the core is ready for the next operation.
//! The closed [`Workload`] enum survives as the parameter vocabulary of the
//! built-in [`Synthetic`](crate::Synthetic) scenario and of the thin
//! compatibility constructors ([`Chip::new`](crate::Chip::new),
//! [`Rack::new`](crate::Rack::new)).

use ni_coherence::{Access, AccessKind, AccessOrigin, CacheComplex};
use ni_engine::{Cycle, DelayLine, Histogram, RunningMean};
use ni_fabric::RemoteReq;
use ni_mem::{Addr, BlockAddr};
use ni_qp::{QpConfig, QueuePair, RemoteOp};
use ni_rmc::{Stage, TraceEvent};

use crate::scenario::{Op, OpCtx, Scenario};

/// Base of the NUMA-mode transfer-tag space (`tid >> 32` of 256+ marks a
/// core-issued load/store rather than a backend transfer).
pub const NUMA_TID_BASE: u64 = 256 << 32;

/// Remote region targeted by the microbenchmarks (bytes).
pub const REMOTE_BASE: u64 = 1 << 40;

/// What a core runs: the parameter vocabulary of the built-in
/// [`Synthetic`](crate::Synthetic) scenario (the paper's microbenchmarks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Do nothing.
    Idle,
    /// Synchronous remote reads of `size` bytes: issue one, spin on the CQ,
    /// repeat (§5 latency microbenchmark).
    SyncRead {
        /// Transfer size in bytes.
        size: u64,
    },
    /// Asynchronous remote reads of `size` bytes: enqueue while the WQ has
    /// space, polling the CQ occasionally; spin when full (§5 bandwidth
    /// microbenchmark).
    AsyncRead {
        /// Transfer size in bytes.
        size: u64,
        /// Poll the CQ after this many issues even when not full.
        poll_every: u32,
    },
    /// Synchronous remote writes of `size` bytes: the RGP backend loads the
    /// payload from local memory before shipping each block (Fig. 4a's
    /// "Memory Read" stage).
    SyncWrite {
        /// Transfer size in bytes.
        size: u64,
    },
    /// Asynchronous remote writes of `size` bytes.
    AsyncWrite {
        /// Transfer size in bytes.
        size: u64,
        /// Poll the CQ after this many issues even when not full.
        poll_every: u32,
    },
    /// Idealized NUMA: single-block remote loads issued directly from the
    /// core with no QP machinery (Table 1 baseline).
    NumaRead,
}

impl Workload {
    /// The one-sided operation this workload issues through the QP, if any.
    pub fn remote_op(self) -> Option<RemoteOp> {
        match self {
            Workload::SyncRead { .. } | Workload::AsyncRead { .. } => Some(RemoteOp::Read),
            Workload::SyncWrite { .. } | Workload::AsyncWrite { .. } => Some(RemoteOp::Write),
            Workload::Idle | Workload::NumaRead => None,
        }
    }

    /// True for workloads that spin on the CQ after each issue.
    pub fn is_synchronous(self) -> bool {
        matches!(self, Workload::SyncRead { .. } | Workload::SyncWrite { .. })
    }
}

/// Per-core workload statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreStats {
    /// Completed operations — successful *and* failed: every reaped CQ
    /// entry counts, so capped jobs terminate even on a degraded rack.
    pub completed: u64,
    /// Operations that completed with an error CQ status
    /// ([`ni_qp::CqEntry::ok`]` == false`): the NI's ITT watchdog gave up
    /// on the transfer after a link or node death. Always `<= completed`.
    pub failed: u64,
    /// Failed operations that were remote *reads* — the request losses an
    /// availability study reports (replicated writes are covered by the
    /// quorum counters instead). Always `<= failed`.
    pub failed_reads: u64,
    /// Operations that completed ok but only through a recovery path
    /// ([`ni_qp::CqEntry::degraded`]): a WQ replay to an alternate replica
    /// or a write quorum that absorbed a dead leg. Always `<= completed`.
    pub degraded: u64,
    /// Operations issued into the NI (QP enqueues and NUMA loads): the
    /// *offered* side of an offered-vs-achieved load comparison, counted at
    /// issue rather than reap.
    pub issued: u64,
    /// Payload bytes of successfully completed operations — goodput, as
    /// distinct from the transport-level payload counters which also see
    /// retried and failed traffic.
    pub bytes_completed: u64,
    /// End-to-end latency of synchronous operations (cycles).
    pub latency: RunningMean,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Begin the first WQ store (after entry-composition compute).
    Store1,
    /// Begin a CQ poll load (after poll compute).
    Poll,
    /// Issue a NUMA remote load of `block` at node `to`.
    NumaIssue {
        /// Destination node.
        to: u16,
        /// Remote block to load.
        block: BlockAddr,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Idle,
    WaitStore1,
    WaitStore2,
    WaitPoll,
    WaitNuma,
}

/// One core.
#[derive(Debug)]
pub struct Core {
    tile: usize,
    qp_id: u32,
    target_node: u16,
    scenario: Box<dyn Scenario>,
    /// Context template refreshed (issue count, time) before every
    /// [`Scenario::next_op`] call.
    ctx: OpCtx,
    qp_cfg: QpConfig,
    local_buf_base: u64,
    local_buf_bytes: u64,
    phase: Phase,
    events: DelayLine<Ev>,
    seq: u64,
    iter_start: Cycle,
    reaped: u64,
    issued: u64,
    /// QP ops issued but not yet reaped. Unlike `issued` this survives
    /// [`reset_scenario`](Core::reset_scenario), so cadence polls and the
    /// idle drain keep firing for pre-reset completions.
    inflight: u64,
    /// Total ops fetched from the scenario (QP and NUMA alike); exposed to
    /// generators as [`OpCtx::issued`].
    op_seq: u64,
    /// NUMA request ready for the chip to pick up.
    numa_out: Option<RemoteReq>,
    traces: Vec<TraceEvent>,
    /// WQ id currently being timed (sync workloads).
    cur_id: u64,
    /// WQ id of the synchronous op the core is spinning for, if any.
    awaiting_sync: Option<u64>,
    /// Second WQ store waiting to issue one cycle after the first.
    pending_second_store: Option<(Cycle, Access)>,
    /// Issue count at the last opportunistic poll (prevents poll loops).
    last_poll_at_issue: u64,
    /// End of the current declared idle window ([`Op::IdleFor`]); the core
    /// does nothing — not even consult the scenario — while `now` is below
    /// it.
    idle_until: Cycle,
    /// Public statistics.
    pub stats: CoreStats,
    /// Full latency distribution of synchronous operations.
    latency_hist: Histogram,
    /// Issue timestamps of in-flight QP ops (`wq_id`, issue cycle, kind,
    /// size), bounded by the WQ depth. Feeds the per-op read-latency
    /// distribution — which unlike `latency_hist` also covers asynchronous
    /// reads — and the goodput byte count.
    issue_times: Vec<(u64, Cycle, RemoteOp, u64)>,
    /// End-to-end latency of every completed remote read, sync or async
    /// (plus NUMA loads) — the tail-latency view congestion studies need,
    /// since bandwidth-bound workloads issue asynchronously.
    read_latency_hist: Histogram,
    /// End-to-end latency of *degraded* remote reads (completed through a
    /// recovery path), kept out of `read_latency_hist` so failover cost
    /// shows as its own distribution instead of fattening the healthy
    /// tail.
    degraded_read_latency_hist: Histogram,
}

impl Core {
    /// Create the core of `tile` using queue pair `qp_id`, driven by the
    /// per-core generator `scenario` bound to `ctx`.
    pub fn new(
        tile: usize,
        qp_id: u32,
        scenario: Box<dyn Scenario>,
        ctx: OpCtx,
        qp_cfg: QpConfig,
        local_buf_base: u64,
        local_buf_bytes: u64,
    ) -> Core {
        let target_node = scenario.fixed_target().unwrap_or(1);
        Core {
            tile,
            qp_id,
            target_node,
            scenario,
            ctx,
            qp_cfg,
            local_buf_base,
            local_buf_bytes,
            phase: Phase::Idle,
            events: DelayLine::new(),
            seq: 0,
            iter_start: Cycle::ZERO,
            reaped: 0,
            issued: 0,
            inflight: 0,
            op_seq: 0,
            numa_out: None,
            traces: Vec::new(),
            cur_id: 0,
            awaiting_sync: None,
            pending_second_store: None,
            last_poll_at_issue: u64::MAX,
            idle_until: Cycle::ZERO,
            stats: CoreStats::default(),
            latency_hist: Histogram::new(),
            issue_times: Vec::new(),
            read_latency_hist: Histogram::new(),
            degraded_read_latency_hist: Histogram::new(),
        }
    }

    /// The tile this core sits on.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// The scenario generator driving this core.
    pub fn scenario(&self) -> &dyn Scenario {
        self.scenario.as_ref()
    }

    /// Drain accumulated trace events.
    pub fn drain_traces(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.traces)
    }

    /// Take a pending NUMA request, if any.
    pub fn take_numa_request(&mut self) -> Option<RemoteReq> {
        self.numa_out.take()
    }

    /// Rack node this core's remote operations target: the generator's
    /// fixed destination when it has one, else the destination of the most
    /// recently issued op.
    pub fn target(&self) -> u16 {
        self.target_node
    }

    /// Base address and size (bytes) of this core's local DMA buffer.
    pub fn local_buf(&self) -> (u64, u64) {
        (self.local_buf_base, self.local_buf_bytes)
    }

    /// Point subsequent ops at `node`: the pre-scenario retargeting API.
    /// Forwarded to the generator via [`Scenario::retarget`], so fixed-
    /// destination scenarios ([`crate::Synthetic`]) steer their traffic
    /// accordingly; randomized scenarios ignore it and keep choosing
    /// destinations per op.
    pub fn set_target(&mut self, node: u16) {
        self.target_node = node;
        self.scenario.retarget(node);
    }

    /// Switch to a new generator and restart the issue state: clears
    /// pending issue events and rewinds address generation, so multi-phase
    /// experiments (e.g. write a region, then read it back) revisit the
    /// same addresses. Safe between operations; pending completion
    /// counters (`reaped`) survive so CQ tokens stay consistent.
    pub fn reset_scenario(&mut self, scenario: Box<dyn Scenario>) {
        self.scenario = scenario;
        self.phase = Phase::Idle;
        self.events = DelayLine::new();
        self.pending_second_store = None;
        self.awaiting_sync = None;
        self.issued = 0;
        self.op_seq = 0;
        self.last_poll_at_issue = u64::MAX;
        self.idle_until = Cycle::ZERO;
        if let Some(t) = self.scenario.fixed_target() {
            self.target_node = t;
        }
    }

    /// Bind a fresh per-core generator from the prototype `scenario` —
    /// using the same binding context as construction (issue counters
    /// rewound to zero, identity and seed preserved) — and swap it in
    /// *without* disturbing the issue state machine. Unlike
    /// [`reset_scenario`](Core::reset_scenario) this is safe mid-operation:
    /// an op in flight (doorbell stores, CQ polls, a sync spin) keeps its
    /// scheduled events and drains normally; only *new* ops come from the
    /// new generator. This is how phase-changing experiments (diurnal
    /// load, burst arrival) swap the whole rack's workload mid-run.
    pub fn rebind_scenario(&mut self, scenario: &dyn Scenario) {
        let mut ctx = self.ctx;
        ctx.issued = 0;
        ctx.inflight = 0;
        ctx.now = Cycle::ZERO;
        self.scenario = scenario.for_core(&ctx);
        self.issued = 0;
        self.op_seq = 0;
        self.last_poll_at_issue = u64::MAX;
        // A pending IdleFor ends now: the new phase decides its own pacing.
        self.idle_until = Cycle::ZERO;
        if let Some(t) = self.scenario.fixed_target() {
            self.target_node = t;
        }
    }

    /// Switch to a new [`Workload`], keeping the current target node
    /// (compatibility wrapper over [`reset_scenario`](Core::reset_scenario)
    /// with a freshly bound [`Synthetic`](crate::Synthetic) generator).
    pub fn reset_workload(&mut self, workload: Workload) {
        let dest = self.target_node;
        self.reset_scenario(Box::new(
            crate::scenario::Synthetic::from_workload(workload).with_dest(dest),
        ));
    }

    /// A NUMA response reached the core.
    pub fn on_numa_response(&mut self, now: Cycle) {
        debug_assert_eq!(self.phase, Phase::WaitNuma);
        self.stats.completed += 1;
        self.stats.bytes_completed += ni_mem::BLOCK_BYTES;
        let lat = now.saturating_since(self.iter_start);
        self.stats.latency.record(lat);
        self.latency_hist.record(lat);
        self.read_latency_hist.record(lat);
        self.phase = Phase::Idle;
    }

    /// Distribution of synchronous end-to-end latencies (for tail studies).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_hist
    }

    /// Distribution of end-to-end remote-*read* latencies over every
    /// completed read — synchronous, asynchronous (issue to CQ reap), and
    /// NUMA loads alike. [`latency_histogram`](Core::latency_histogram)
    /// only sees synchronous ops, which leaves bandwidth-bound (async)
    /// runs without a tail; this one is what routing/congestion studies
    /// report p99 from.
    pub fn read_latency_histogram(&self) -> &Histogram {
        &self.read_latency_hist
    }

    /// Distribution of end-to-end latencies of *degraded* remote reads —
    /// completions that needed a WQ replay to an alternate replica. Kept
    /// separate from [`read_latency_histogram`](Core::read_latency_histogram)
    /// (which holds first-try completions only) so availability studies can
    /// quote healthy and failover percentiles side by side.
    pub fn degraded_read_latency_histogram(&self) -> &Histogram {
        &self.degraded_read_latency_hist
    }

    /// Earliest cycle (>= `now`) at which ticking this core does anything.
    /// `None` means the core only acts on external input (a cache or NUMA
    /// completion). The answer is exact, never late:
    ///
    /// - undrained traces or a parked NUMA request demand the chip's
    ///   post-tick drains immediately;
    /// - scheduled events and the deferred second WQ store are time-driven;
    /// - an idle core consults its scenario every cycle (the generator draw
    ///   is itself a state change), except inside a declared
    ///   [`Op::IdleFor`] window — the one idle shape the core may sleep
    ///   through — or once the generator promises permanent idleness with
    ///   nothing left in flight.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if !self.traces.is_empty() || self.numa_out.is_some() {
            return Some(now);
        }
        let mut next = self.events.next_ready_at();
        if let Some((at, _)) = self.pending_second_store {
            let at = at.max(now);
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        if self.phase == Phase::Idle && !(self.scenario.is_done() && self.inflight == 0) {
            let at = self.idle_until.max(now);
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        next
    }

    fn tag(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn local_addr(&self, size: u64) -> Addr {
        let span = size.max(64).next_multiple_of(64);
        Addr(self.local_buf_base + (self.issued * span) % self.local_buf_bytes)
    }

    /// Drive one cycle.
    pub fn tick(&mut self, now: Cycle, qp: &mut QueuePair, cx: &mut CacheComplex) {
        if let Some((at, a)) = self.pending_second_store.take() {
            if now >= at {
                cx.submit(now, a).expect("core access accepted");
            } else {
                self.pending_second_store = Some((at, a));
            }
        }
        while let Some(ev) = self.events.pop_ready(now) {
            match ev {
                Ev::Store1 => {
                    let block = self.pending_store_block(qp);
                    let tag = self.tag();
                    self.phase = Phase::WaitStore1;
                    // The entry becomes visible to the polling NI only when
                    // its *last* word lands (Fig. 2a); the first store must
                    // not advance the block token past the previous entry.
                    self.submit(
                        now,
                        cx,
                        AccessKind::Store,
                        block,
                        self.cur_id.saturating_sub(1),
                        tag,
                    );
                }
                Ev::Poll => {
                    let block = qp.cq_head_block();
                    let tag = self.tag();
                    self.phase = Phase::WaitPoll;
                    self.submit(now, cx, AccessKind::Load, block, 0, tag);
                }
                Ev::NumaIssue { to, block } => {
                    self.iter_start = now;
                    self.phase = Phase::WaitNuma;
                    self.numa_out = Some(RemoteReq {
                        tid: NUMA_TID_BASE | self.tile as u64,
                        is_read: true,
                        src_node: 0, // stamped by the fabric at the network router
                        target_node: to,
                        remote_block: block,
                        value: 0,
                        service: 0,
                    });
                }
            }
        }
        if self.phase != Phase::Idle {
            return;
        }
        // Inside a declared idle window the core does nothing at all —
        // identical in both tick modes, which is what lets the event-driven
        // chip skip these cycles without observable divergence.
        if now < self.idle_until {
            return;
        }
        // Asynchronous housekeeping first: poll the CQ when the WQ has no
        // room for another entry, or when completions are outstanding and
        // the scenario's poll cadence is due.
        let poll_every = u64::from(self.scenario.poll_every().max(1));
        let due = self.inflight > 0
            && self.issued > 0
            && self.issued.is_multiple_of(poll_every)
            && self.last_poll_at_issue != self.issued;
        if qp.wq_full() || due {
            // Poll: blocking when full, opportunistic otherwise.
            self.last_poll_at_issue = self.issued;
            self.phase = Phase::WaitPoll;
            self.events
                .push_after(now, self.qp_cfg.cq_read_compute, Ev::Poll);
            return;
        }
        // Ready for the next application operation: ask the scenario.
        self.ctx.issued = self.op_seq;
        self.ctx.inflight = self.inflight;
        self.ctx.now = now;
        let op = self.scenario.next_op(&self.ctx);
        self.op_seq += 1;
        match op {
            Op::Idle => {
                // Drain outstanding async completions while the scenario
                // idles: a finite scenario may stop issuing before its last
                // ops complete, and the cadence-based poll above only fires
                // at issue-count multiples of `poll_every`.
                if self.inflight > 0 {
                    self.phase = Phase::WaitPoll;
                    self.events
                        .push_after(now, self.qp_cfg.cq_read_compute, Ev::Poll);
                }
            }
            Op::IdleFor { cycles } => {
                self.idle_until = now + cycles;
                // Same completion-drain rule as Op::Idle: reap outstanding
                // async completions before going (and while staying) quiet.
                if self.inflight > 0 {
                    self.phase = Phase::WaitPoll;
                    self.events
                        .push_after(now, self.qp_cfg.cq_read_compute, Ev::Poll);
                }
            }
            Op::Remote {
                op,
                to,
                addr,
                size,
                sync,
            } => {
                self.target_node = to;
                self.begin_issue(now, qp, op, to, addr, size, 0, sync);
            }
            Op::Rpc {
                to,
                addr,
                size,
                service,
                sync,
            } => {
                // A two-sided request–response rides the read path — the
                // response payload is what comes back — with the remote
                // compute time carried in the WQ entry.
                self.target_node = to;
                self.begin_issue(now, qp, RemoteOp::Read, to, addr, size, service, sync);
            }
            Op::Numa { to, addr } => {
                self.target_node = to;
                self.phase = Phase::WaitNuma;
                self.stats.issued += 1;
                self.events.push_after(
                    now,
                    1,
                    Ev::NumaIssue {
                        to,
                        block: addr.block(),
                    },
                );
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn begin_issue(
        &mut self,
        now: Cycle,
        qp: &mut QueuePair,
        op: RemoteOp,
        to: u16,
        remote: Addr,
        size: u64,
        service: u64,
        sync: bool,
    ) {
        let local = self.local_addr(size);
        // Record where the entry's stores land *before* enqueueing advances
        // the tail.
        let id = qp
            .enqueue_with_service(op, to, remote, local, size, service)
            .expect("caller checks wq_full");
        self.cur_id = id;
        self.awaiting_sync = sync.then_some(id);
        self.issued += 1;
        self.inflight += 1;
        self.stats.issued += 1;
        self.iter_start = now;
        self.issue_times.push((id, now, op, size));
        self.traces.push(TraceEvent {
            qp: self.qp_id,
            wq_id: id,
            stage: Stage::WqWriteStart,
            at: now,
        });
        self.phase = Phase::WaitStore1;
        self.events
            .push_after(now, self.qp_cfg.wq_write_compute, Ev::Store1);
    }

    fn pending_store_block(&self, qp: &QueuePair) -> ni_mem::BlockAddr {
        // The entry was already enqueued; its slot is tail - 1.
        qp.slot_block_of(self.cur_id)
    }

    fn submit(
        &mut self,
        now: Cycle,
        cx: &mut CacheComplex,
        kind: AccessKind,
        block: ni_mem::BlockAddr,
        value: u64,
        tag: u64,
    ) {
        let a = Access {
            origin: AccessOrigin::Core,
            kind,
            block,
            store_value: value,
            tag,
        };
        // Cores have a single outstanding access here; MSHR pressure from
        // one access cannot reject.
        cx.submit(now, a).expect("core access accepted");
    }

    /// A cache access completed (routed here by the chip).
    pub fn on_cache_completion(&mut self, now: Cycle, _tag: u64, value: u64, qp: &mut QueuePair) {
        match self.phase {
            Phase::WaitStore1 => {
                // Second store of the WQ entry, same block.
                let block = qp.slot_block_of(self.cur_id);
                let tag = self.tag();
                self.phase = Phase::WaitStore2;
                let a = Access {
                    origin: AccessOrigin::Core,
                    kind: AccessKind::Store,
                    block,
                    store_value: self.cur_id,
                    tag,
                };
                // Submit immediately: back-to-back stores.
                // (now + 1 to respect one store issued per cycle.)
                self.pending_second_store = Some((now + 1, a));
            }
            Phase::WaitStore2 => {
                self.traces.push(TraceEvent {
                    qp: self.qp_id,
                    wq_id: self.cur_id,
                    stage: Stage::WqWriteDone,
                    at: now,
                });
                if self.awaiting_sync.is_some() {
                    self.phase = Phase::WaitPoll;
                    self.events
                        .push_after(now, self.qp_cfg.cq_read_compute, Ev::Poll);
                } else {
                    self.phase = Phase::Idle;
                }
            }
            Phase::WaitPoll => {
                if value > self.reaped {
                    // New completions: reap them.
                    let newly = value - self.reaped;
                    for _ in 0..newly {
                        let c = qp.app_reap().expect("token promised a completion");
                        self.stats.completed += 1;
                        if !c.ok {
                            self.stats.failed += 1;
                        }
                        if c.ok && c.degraded {
                            self.stats.degraded += 1;
                        }
                        self.inflight = self.inflight.saturating_sub(1);
                        if let Some(i) = self
                            .issue_times
                            .iter()
                            .position(|&(id, _, _, _)| id == c.wq_id)
                        {
                            let (_, issued_at, op, size) = self.issue_times.swap_remove(i);
                            if !c.ok && op == RemoteOp::Read {
                                self.stats.failed_reads += 1;
                            }
                            if c.ok {
                                self.stats.bytes_completed += size;
                            }
                            // Failed ops would only record the watchdog's
                            // timeout; keep the read-latency distributions a
                            // property of *successful* transfers and report
                            // failures separately. Degraded completions get
                            // their own histogram.
                            if op == RemoteOp::Read && c.ok {
                                let lat = now.saturating_since(issued_at);
                                if c.degraded {
                                    self.degraded_read_latency_hist.record(lat);
                                } else {
                                    self.read_latency_hist.record(lat);
                                }
                            }
                        }
                        self.traces.push(TraceEvent {
                            qp: self.qp_id,
                            wq_id: c.wq_id,
                            stage: Stage::CqReadDone,
                            at: now,
                        });
                        if self.awaiting_sync == Some(c.wq_id) {
                            // Always release the spin — a failed sync op
                            // must not wedge the core — but only successful
                            // ops contribute latency samples.
                            if c.ok {
                                let lat = now.saturating_since(self.iter_start);
                                self.stats.latency.record(lat);
                                self.latency_hist.record(lat);
                            }
                            self.awaiting_sync = None;
                        }
                    }
                    self.reaped = value;
                    if self.awaiting_sync.is_some() {
                        // The awaited synchronous op is still in flight
                        // (earlier async completions drained): keep spinning.
                        self.events
                            .push_after(now, self.qp_cfg.cq_read_compute, Ev::Poll);
                    } else {
                        self.phase = Phase::Idle;
                    }
                } else {
                    // Sync (and full-WQ async): keep spinning.
                    if self.awaiting_sync.is_some() || qp.wq_full() {
                        self.events
                            .push_after(now, self.qp_cfg.cq_read_compute, Ev::Poll);
                    } else {
                        self.phase = Phase::Idle;
                    }
                }
            }
            Phase::Idle | Phase::WaitNuma => {
                panic!("unexpected cache completion in phase {:?}", self.phase)
            }
        }
    }
}
