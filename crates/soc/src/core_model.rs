//! Core model: an issue-cost sequencer driven by a pluggable [`Scenario`].
//!
//! The paper's cores are ARM Cortex-A15-like OoO machines, but its
//! microbenchmark analysis (§3.1, Table 3) reduces the software side to
//! instruction-issue costs: composing a WQ entry is "roughly a dozen
//! arithmetic instructions plus two stores to the same cache block"; a CQ
//! poll is "four instructions including a load". The core model issues
//! exactly those memory operations through its cache complex with fixed
//! compute gaps ([`WQ_WRITE_COMPUTE`], [`CQ_READ_COMPUTE`]), which is the
//! granularity at which software appears in every latency breakdown of the
//! paper.
//!
//! *What* the core issues — read or write, destination node, remote address
//! and size, synchronous or asynchronous — comes from its [`Scenario`]
//! generator, consulted whenever the core is ready for the next operation.
//! The closed [`Workload`] enum survives as the parameter vocabulary of the
//! built-in [`Synthetic`](crate::Synthetic) scenario and of the thin
//! compatibility constructor [`Chip::new`](crate::Chip::new).

use ni_coherence::complex::L1_LATENCY;
use ni_coherence::{Access, AccessKind, AccessOrigin, CacheComplex, HitRun};
use ni_engine::{Cycle, DelayLine, Histogram};
use ni_fabric::RemoteReq;
use ni_mem::{Addr, BlockAddr};
use ni_qp::{QueuePair, RemoteOp};
use ni_rmc::{Stage, TraceEvent};

use crate::scenario::{Op, OpCtx, Scenario};

/// Base of the NUMA-mode transfer-tag space (`tid >> 32` of 256+ marks a
/// core-issued load/store rather than a backend transfer).
pub const NUMA_TID_BASE: u64 = 256 << 32;

/// Remote region targeted by the microbenchmarks (bytes).
pub const REMOTE_BASE: u64 = 1 << 40;

/// Arithmetic cycles the core spends composing a WQ entry before its two
/// stores ("roughly a dozen arithmetic instructions", §3.1).
pub const WQ_WRITE_COMPUTE: u64 = 7;

/// Arithmetic cycles around the CQ polling load ("four instructions
/// including a load").
pub const CQ_READ_COMPUTE: u64 = 3;

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

ni_engine::stats! {
    /// Per-core workload statistics.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
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
    }
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
    /// The CQ poll loop runs virtually ([`Core::park`]); the first parked
    /// poll is the one event scheduled.
    Parked,
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
    /// The last [`Scenario::next_op`] call answered [`Op::Idle`] with ops
    /// in flight, and none was reaped since: by the `Op::Idle` contract
    /// every call answers `Op::Idle` until one is.
    stalled: bool,
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

/// Events of a loop that starts at `first` and repeats every `period`
/// cycles that fall before cycle `end`.
fn spins_before(first: Cycle, period: u64, end: Cycle) -> u64 {
    if end <= first {
        return 0;
    }
    (end.0 - first.0 - 1) / period + 1
}

impl Core {
    /// Create the core of `tile` using queue pair `qp_id`, driven by the
    /// per-core generator `scenario` bound to `ctx`.
    pub fn new(
        tile: usize,
        qp_id: u32,
        scenario: Box<dyn Scenario>,
        ctx: OpCtx,
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
            stalled: false,
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
        debug_assert!(!self.is_parked(), "reset while parked");
        self.scenario = scenario;
        self.phase = Phase::Idle;
        self.events = DelayLine::new();
        self.pending_second_store = None;
        self.awaiting_sync = None;
        self.issued = 0;
        self.op_seq = 0;
        self.last_poll_at_issue = u64::MAX;
        self.stalled = false;
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
        debug_assert!(!self.is_parked(), "rebound while parked");
        let mut ctx = self.ctx;
        ctx.issued = 0;
        ctx.inflight = 0;
        ctx.now = Cycle::ZERO;
        self.scenario = scenario.for_core(&ctx);
        self.issued = 0;
        self.op_seq = 0;
        self.last_poll_at_issue = u64::MAX;
        self.stalled = false;
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
    ///   nothing left in flight;
    /// - a parked core waits for [`Core::settle`].
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.is_parked() {
            return None;
        }
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

    /// A cadence poll is due: ops are in flight and the scenario's
    /// `poll_every` issues went by since the last one.
    fn cadence_poll_due(&self) -> bool {
        let poll_every = u64::from(self.scenario.poll_every().max(1));
        self.inflight > 0
            && self.issued > 0
            && self.issued.is_multiple_of(poll_every)
            && self.last_poll_at_issue != self.issued
    }

    // ---- the parked CQ poll loop -------------------------------------------

    /// True while the CQ poll loop runs virtually.
    pub fn is_parked(&self) -> bool {
        self.phase == Phase::Parked
    }

    /// Whether the core spins on its CQ and polling can change nothing:
    /// it waits for its synchronous op, or its scenario is stalled (the
    /// last `next_op` answered [`Op::Idle`] with ops in flight, the WQ has
    /// room and no cadence poll is due); no second store, trace or NUMA
    /// request is pending; `cx` [waits](CacheComplex::is_waiting) for a
    /// submit or a delivery; and the CQ head block is an L1 hit whose
    /// token shows nothing to reap. Then every coming poll is a hit that
    /// reads the same token, and every `next_op` call answers `Op::Idle`
    /// again, until a coherence message or the tile's NI moves the block.
    /// The NI only ever frees WQ slots, so the WQ keeps room.
    pub fn is_quiet(&self, qp: &QueuePair, cx: &CacheComplex) -> bool {
        let spinning = self.awaiting_sync.is_some()
            || (self.stalled && self.inflight > 0 && !qp.wq_full() && !self.cadence_poll_due());
        spinning
            && self.pending_second_store.is_none()
            && self.traces.is_empty()
            && self.numa_out.is_none()
            && cx.is_waiting()
            && cx.l1_hit_value(qp.cq_head_block()) == Some(self.reaped)
    }

    /// Whether an empty CQ poll that completed at `now` left a loop
    /// [`Core::park`] may park: the core [is quiet](Core::is_quiet), no
    /// [`Op::IdleFor`] window is open, and it is where that poll left it,
    /// idle before its next `next_op` call (stalled) or with only its next
    /// poll scheduled (synchronous).
    pub fn can_park(&self, now: Cycle, qp: &QueuePair, cx: &CacheComplex) -> bool {
        let resumes = if self.awaiting_sync.is_some() {
            self.phase == Phase::WaitPoll
                && self.events.len() == 1
                && self.events.next_ready_at() == Some(now + CQ_READ_COMPUTE)
        } else {
            self.phase == Phase::Idle && self.events.is_empty()
        };
        resumes && self.idle_until <= now && self.is_quiet(qp, cx)
    }

    /// Park at `now`, in the complex subphase after an empty CQ poll
    /// completed, where [`Core::can_park`] allows it. The loop then runs
    /// virtually, each iteration `P` cycles long ([`CQ_READ_COMPUTE`] plus
    /// the L1 latency, plus one on a stall):
    ///
    /// - stalled: `next_op` is called at `s + P*j` (`s = now + 1`) and
    ///   answers [`Op::Idle`], the poll issues 3 cycles later and hits 3
    ///   after that;
    /// - synchronous: the poll issues at `p + P*j` (`p = now + 3`) and
    ///   hits 3 cycles later.
    ///
    /// A parked core must not be ticked, rebound or handed a completion
    /// until [`Core::settle`], and its
    /// [`next_activity`](Core::next_activity) is `None`. It keeps only the
    /// first parked poll, as its one scheduled event; everything else
    /// holds what it held at the park.
    pub fn park(&mut self, now: Cycle) {
        debug_assert!(!self.is_parked(), "parked twice");
        if self.awaiting_sync.is_none() {
            self.events.push_at(now + 1 + CQ_READ_COMPUTE, Ev::Poll);
        }
        self.phase = Phase::Parked;
    }

    /// The first parked poll's cycle, when parked.
    fn first_parked_poll(&self) -> Option<Cycle> {
        self.is_parked()
            .then(|| self.events.next_ready_at().expect("the first parked poll"))
    }

    /// Cycles from one poll of the parked loop to the next.
    fn spin_period(&self) -> u64 {
        CQ_READ_COMPUTE + L1_LATENCY + u64::from(self.awaiting_sync.is_none())
    }

    /// The L1 hits of the polls a parked loop has completed by the start
    /// of cycle `t` ([`HitRun::NONE`] when not parked): what
    /// [`Core::settle`] at `t` leaves for the caller to credit.
    pub fn parked_run(&self, t: Cycle, qp: &QueuePair) -> HitRun {
        let Some(first_poll) = self.first_parked_poll() else {
            return HitRun::NONE;
        };
        let (first_hit, period) = (first_poll + L1_LATENCY, self.spin_period());
        let hits = spins_before(first_hit, period, t);
        let block = [qp.cq_head_block()];
        HitRun::new(AccessOrigin::Core, first_hit, period, hits, &block, 0)
    }

    /// Leave the parked state at the start of cycle `t`, before any core
    /// or complex subphase of `t` runs: apply the `next_op` calls and polls
    /// the loop made since the park, so the core holds what the
    /// poll-every-cycle loop leaves, and restore the iteration in
    /// progress: an idle core, a scheduled poll, or a load in flight,
    /// submitted again into `cx` so its lookup lands on its original
    /// cycle. The completed polls' hits are the caller's to credit first
    /// ([`Core::parked_run`], [`CacheComplex::credit_hits`]), merged with
    /// any other loop parked on `cx`. Does nothing unless parked.
    pub fn settle(&mut self, t: Cycle, qp: &QueuePair, cx: &mut CacheComplex) {
        let Some(first_poll) = self.first_parked_poll() else {
            return;
        };
        self.events.pop_ready(first_poll);
        let period = self.spin_period();
        let polls = spins_before(first_poll, period, t);
        let hits = spins_before(first_poll + L1_LATENCY, period, t);
        self.seq += polls;
        let mut poll_scheduled = self.awaiting_sync.is_some();
        if !poll_scheduled {
            let first_call = Cycle(first_poll.0 - CQ_READ_COMPUTE);
            let calls = spins_before(first_call, period, t);
            if calls > 0 {
                self.ctx.issued = self.op_seq + calls - 1;
                self.ctx.now = first_call + (calls - 1) * period;
                self.op_seq += calls;
            }
            poll_scheduled = calls > polls;
        }
        self.phase = Phase::WaitPoll;
        if polls > hits {
            let issued_at = first_poll + (polls - 1) * period;
            let (block, tag) = (qp.cq_head_block(), self.seq);
            self.submit(issued_at, cx, AccessKind::Load, block, 0, tag);
        } else if poll_scheduled {
            self.events.push_at(first_poll + polls * period, Ev::Poll);
        } else {
            self.phase = Phase::Idle;
        }
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
        debug_assert!(!self.is_parked(), "ticked while parked");
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
        if qp.wq_full() || self.cadence_poll_due() {
            // Poll: blocking when full, opportunistic otherwise.
            self.last_poll_at_issue = self.issued;
            self.phase = Phase::WaitPoll;
            self.events.push_after(now, CQ_READ_COMPUTE, Ev::Poll);
            return;
        }
        // Ready for the next application operation: ask the scenario.
        self.ctx.issued = self.op_seq;
        self.ctx.inflight = self.inflight;
        self.ctx.now = now;
        let op = self.scenario.next_op(&self.ctx);
        self.op_seq += 1;
        self.stalled = op == Op::Idle && self.inflight > 0;
        match op {
            Op::Idle => {
                // Drain outstanding async completions while the scenario
                // idles: a finite scenario may stop issuing before its last
                // ops complete, and the cadence-based poll above only fires
                // at issue-count multiples of `poll_every`.
                if self.inflight > 0 {
                    self.phase = Phase::WaitPoll;
                    self.events.push_after(now, CQ_READ_COMPUTE, Ev::Poll);
                }
            }
            Op::IdleFor { cycles } => {
                self.idle_until = now + cycles;
                // Same completion-drain rule as Op::Idle: reap outstanding
                // async completions before going (and while staying) quiet.
                if self.inflight > 0 {
                    self.phase = Phase::WaitPoll;
                    self.events.push_after(now, CQ_READ_COMPUTE, Ev::Poll);
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
        self.events.push_after(now, WQ_WRITE_COMPUTE, Ev::Store1);
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
        debug_assert!(!self.is_parked(), "cache completion while parked");
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
                    self.events.push_after(now, CQ_READ_COMPUTE, Ev::Poll);
                } else {
                    self.phase = Phase::Idle;
                }
            }
            Phase::WaitPoll => {
                if value > self.reaped {
                    // New completions: reap them.
                    let newly = value - self.reaped;
                    self.stalled = false;
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
                                self.latency_hist.record(lat);
                            }
                            self.awaiting_sync = None;
                        }
                    }
                    self.reaped = value;
                    if self.awaiting_sync.is_some() {
                        // The awaited synchronous op is still in flight
                        // (earlier async completions drained): keep spinning.
                        self.events.push_after(now, CQ_READ_COMPUTE, Ev::Poll);
                    } else {
                        self.phase = Phase::Idle;
                    }
                } else {
                    // Sync (and full-WQ async): keep spinning. Only the
                    // sync spin may park ([`Core::park`]): the full-WQ
                    // spin ends when the NI completes an entry, which
                    // frees a WQ slot in `qp` at once, while on NIedge the
                    // CQ store that would settle this tile is still on its
                    // way.
                    if self.awaiting_sync.is_some() || qp.wq_full() {
                        self.events.push_after(now, CQ_READ_COMPUTE, Ev::Poll);
                    } else {
                        self.phase = Phase::Idle;
                    }
                }
            }
            Phase::Idle | Phase::WaitNuma | Phase::Parked => {
                panic!("unexpected cache completion in phase {:?}", self.phase)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use ni_coherence::{ClientKind, CohMsg, CoherenceConfig};
    use ni_noc::NocNode;

    use super::*;
    use crate::scenario::{ClosedLoop, Synthetic};

    /// Where the stand-in directory sits.
    const HOME: NocNode = NocNode::Llc(0);

    /// Cycles from the NI taking a WQ entry to its completion.
    const SERVICE: u64 = 200;

    fn home(_: BlockAddr, _: u32) -> NocNode {
        HOME
    }

    /// One core and its tile complex, which has no NI cache (as on
    /// NIedge), in the chip's per-cycle order: deliveries, the core's
    /// tick, then the complex's, its completions handed to the core. A
    /// stand-in NI takes each WQ entry once written and completes it
    /// [`SERVICE`] cycles later: it records the completion, raises its CQ
    /// block's token and invalidates the core's copy. A stand-in directory
    /// answers every miss the next cycle with the block's token.
    ///
    /// A rig that `park`s parks the core after any empty poll that leaves
    /// it parkable and steps over the cycles it stays parked, touching
    /// neither the core nor the complex; a delivery settles it first.
    struct Rig {
        core: Core,
        qp: QueuePair,
        cx: CacheComplex,
        now: Cycle,
        mem: BTreeMap<BlockAddr, u64>,
        replies: Vec<(Cycle, CohMsg)>,
        /// NI completions due: (cycle, WQ id).
        completions: Vec<(Cycle, u64)>,
        park: bool,
        /// Cycles at which the core parked.
        parks: Vec<Cycle>,
    }

    impl Rig {
        fn new(scenario: &dyn Scenario) -> Rig {
            let ctx = OpCtx::bind(0, 0, 2, None, 7);
            let core = Core::new(0, 0, scenario.for_core(&ctx), ctx, 1 << 30, 1 << 20);
            let cx = CacheComplex::new(
                CoherenceConfig::default(),
                NocNode::tile(0, 0),
                false,
                home,
                1,
            );
            Rig {
                core,
                qp: QueuePair::new(0, Addr(0x10_0000), Addr(0x10_2000)),
                cx,
                now: Cycle::ZERO,
                mem: BTreeMap::new(),
                replies: Vec::new(),
                completions: Vec::new(),
                park: false,
                parks: Vec::new(),
            }
        }

        /// A closed-loop core at window 1: one op in flight, then a stall.
        fn stalled() -> Rig {
            let inner = Synthetic::from_workload(Workload::AsyncRead {
                size: 64,
                poll_every: 1,
            });
            Rig::new(&ClosedLoop::new(Box::new(inner), 1, 0))
        }

        /// A core spinning on each synchronous read.
        fn sync() -> Rig {
            Rig::new(&Synthetic::from_workload(Workload::SyncRead { size: 64 }))
        }

        /// Settle a parked core at the start of the current cycle.
        fn settle(&mut self) {
            let run = self.core.parked_run(self.now, &self.qp);
            self.cx.credit_hits(&[run]);
            self.core.settle(self.now, &self.qp, &mut self.cx);
        }

        fn deliver(&mut self, msg: CohMsg) {
            self.settle();
            self.cx.deliver(self.now, msg);
        }

        /// One cycle, in the chip's order.
        fn step(&mut self) {
            let now = self.now;
            let (due, later) = std::mem::take(&mut self.replies)
                .into_iter()
                .partition(|&(at, _)| at <= now);
            self.replies = later;
            for (_, msg) in due {
                self.deliver(msg);
            }
            let (done, later) = std::mem::take(&mut self.completions)
                .into_iter()
                .partition(|&(at, _)| at <= now);
            self.completions = later;
            for (_, id) in done {
                let block = self.qp.cq_tail_block();
                self.qp.ni_complete_with(id, true, false);
                self.mem.insert(block, self.qp.completions_written());
                let inv = CohMsg::Inv {
                    block,
                    ack_to: HOME,
                    akind: ClientKind::Directory,
                };
                self.deliver(inv);
            }
            if self.core.is_parked() {
                self.now += 1;
                return;
            }
            self.core.tick(now, &mut self.qp, &mut self.cx);
            self.core.drain_traces();
            self.cx.tick(now);
            while let Some(e) = self.cx.pop_egress() {
                let value = self.mem.get(&e.msg.block()).copied().unwrap_or(0);
                let reply = match e.msg {
                    CohMsg::GetS { block } => CohMsg::DataS { block, value },
                    CohMsg::GetX { block } => CohMsg::DataE {
                        block,
                        value,
                        acks: 0,
                    },
                    CohMsg::InvAck { .. } => continue,
                    other => panic!("unexpected request {other:?}"),
                };
                self.replies.push((now + 1, reply));
            }
            let mut polled = false;
            while let Some(c) = self.cx.pop_completion() {
                self.core
                    .on_cache_completion(c.at, c.tag, c.value, &mut self.qp);
                polled = true;
            }
            while let Some(entry) = self.qp.ni_take() {
                self.completions.push((now + SERVICE, entry.id));
            }
            if self.park && polled && self.core.can_park(now, &self.qp, &self.cx) {
                self.core.park(now);
                self.parks.push(now);
            }
            self.now += 1;
        }

        fn run_to(&mut self, cycle: u64) {
            while self.now.0 < cycle {
                self.step();
            }
        }

        /// Run to cycle `from`, then on to the first completion that
        /// leaves the core parkable, and stop after that cycle.
        fn until_parkable(mut self, from: u64) -> Rig {
            self.run_to(from);
            loop {
                assert!(self.now.0 < 2_000, "the core never became parkable");
                self.step();
                let at = Cycle(self.now.0 - 1);
                if self.core.can_park(at, &self.qp, &self.cx) {
                    return self;
                }
            }
        }

        fn state(&self) -> (String, String) {
            (format!("{:?}", self.core), format!("{:?}", self.cx))
        }
    }

    /// A core parked and settled at the start of cycle `t` holds what one
    /// that polled every cycle holds, compared through the `Debug` form of
    /// the core (phase, events, tags, `next_op` count and context) and of
    /// the complex (statistics, LRU clock and stamps, pending lookups),
    /// and the two go on alike. Both schedules, the stall's 7-cycle one
    /// and the synchronous spin's 6-cycle one, with `t` on both sides of
    /// a scheduled poll, of an in-flight load and of its hit.
    #[test]
    fn a_settled_core_matches_one_that_polled_every_cycle() {
        for name in ["stalled", "sync"] {
            let rig = || {
                if name == "sync" {
                    Rig::sync()
                } else {
                    Rig::stalled()
                }
            };
            let mut probe = rig();
            probe.park = true;
            probe.run_to(SERVICE);
            let parked_at = probe.parks[0].0;
            let stall = u64::from(name == "stalled");
            let period = CQ_READ_COMPUTE + L1_LATENCY + stall;
            let first_poll = parked_at + CQ_READ_COMPUTE + stall;
            let mut settle_at = vec![parked_at + 1];
            for j in [0, 1, 3] {
                let poll = first_poll + j * period;
                settle_at.extend((poll - 2 - stall)..=(poll + L1_LATENCY + 1));
            }
            for t in settle_at {
                let at = format!("{name}: parked at {parked_at}, settled at {t}");
                let mut live = rig();
                live.run_to(t);
                let mut parked = rig();
                parked.park = true;
                parked.run_to(t);
                assert_eq!(parked.parks, [Cycle(parked_at)], "{at}");
                parked.settle();
                assert!(!parked.core.is_parked(), "{at}");
                assert_eq!(parked.state(), live.state(), "{at}");
                parked.park = false;
                let end = t + 3 * period;
                live.run_to(end);
                parked.run_to(end);
                assert_eq!(parked.state(), live.state(), "{at}, then {end}");
            }
        }
    }

    /// A spinning core is parkable at an empty poll; the park is refused
    /// once the L1 holds a token above `reaped` (the next poll reaps),
    /// once the CQ head block left the L1, while a second WQ store is
    /// pending, and, for the stall, once the WQ is full (the full-WQ spin
    /// ends when the NI frees a slot, not when the CQ block moves).
    #[test]
    fn a_park_is_refused_unless_every_coming_poll_is_an_empty_hit() {
        // Past the first op's completion: `reaped` is 1, and so is the
        // token the L1 holds.
        let parkable = |rig: fn() -> Rig| {
            let rig = rig().until_parkable(SERVICE + 50);
            assert_eq!(rig.core.reaped, 1);
            let at = Cycle(rig.now.0 - 1);
            (rig, at)
        };
        for make in [Rig::stalled, Rig::sync] {
            let (rig, at) = parkable(make);
            assert!(rig.core.can_park(at, &rig.qp, &rig.cx), "an empty poll");

            let (mut rig, at) = parkable(make);
            rig.core.reaped -= 1;
            assert!(
                !rig.core.can_park(at, &rig.qp, &rig.cx),
                "token above reaped"
            );

            let (mut rig, at) = parkable(make);
            let cq = rig.qp.cq_head_block();
            let inv = CohMsg::Inv {
                block: cq,
                ack_to: HOME,
                akind: ClientKind::Directory,
            };
            rig.cx.deliver(rig.now, inv);
            assert!(rig.cx.pop_egress().is_some(), "the InvAck");
            assert_eq!(rig.cx.l1_hit_value(cq), None);
            assert!(
                !rig.core.can_park(at, &rig.qp, &rig.cx),
                "CQ block not in the L1"
            );

            let (mut rig, at) = parkable(make);
            let block = rig.qp.wq_head_block();
            let store = Access {
                origin: AccessOrigin::Core,
                kind: AccessKind::Store,
                block,
                store_value: 1,
                tag: 0,
            };
            rig.core.pending_second_store = Some((at + 1, store));
            assert!(
                !rig.core.can_park(at, &rig.qp, &rig.cx),
                "second store pending"
            );
        }
        let (mut rig, at) = parkable(Rig::stalled);
        while !rig.qp.wq_full() {
            let (remote, local) = (Addr(REMOTE_BASE), Addr(1 << 30));
            rig.qp
                .enqueue(RemoteOp::Read, 1, remote, local, 64)
                .unwrap();
        }
        assert!(!rig.core.can_park(at, &rig.qp, &rig.cx), "WQ full");
    }
}
