//! RGP/RCP frontends: QP selection, WQ polling, CQ writes (Fig. 4).
//!
//! A frontend owns the NI side of the QP protocol. It continuously polls
//! the WQ head blocks of its registered QPs through the NI cache (which is
//! what generates the coherence traffic of Fig. 2) and writes CQ entries on
//! completion notifications from its backend.
//!
//! Per-tile frontends (NIper-tile, NIsplit) serve exactly one QP. Edge
//! frontends (NIedge) serve a whole mesh row (NOC-Out: column) of QPs; they
//! overlap polls of *distinct* QPs up to [`RmcConfig::fe_poll_concurrency`],
//! since every such poll is an independent multi-hop coherence transaction
//! — a single outstanding miss would serialize eight cores behind one round
//! trip.
//!
//! A frontend keeps its per-QP state at the QP's position in the list it
//! serves, inline: at most [`GRID`] QPs, so a poll costs no ordered-map
//! operation and no allocation.
//!
//! A quiet poll loop can *park* ([`NiFrontend::park`]): when every coming
//! poll is an NI-cache hit that reads nothing new, the frontend and its
//! cache stop being ticked, and the polls the loop would have made are
//! applied in closed form later: their hits by
//! [`CacheComplex::credit_hits`] from [`NiFrontend::parked_run`], merged
//! with the tile core's parked CQ polls, the rest by
//! [`NiFrontend::settle`]. Only an event-driven chip parks; it settles
//! before anything touches the tile.

use std::collections::VecDeque;

use ni_coherence::{Access, AccessKind, AccessOrigin, CacheComplex, HitRun};
use ni_engine::{Cycle, DelayLine};
use ni_mem::BlockAddr;
use ni_noc::{NocNode, GRID};
use ni_qp::QueuePair;

use crate::config::RmcConfig;
use crate::trace::{Stage, TraceEvent};
use crate::{NiMsg, RmcEgress};

/// RGP frontend processing per WQ entry (QP selection, address
/// computation; Table 3: 4 cycles).
pub const RGP_FE_PROC: u64 = 4;

/// RCP frontend processing per completion before the CQ store (Table 3
/// charges 8 cycles of RCP frontend processing; the store itself is
/// simulated).
pub const RCP_FE_PROC: u64 = 4;

/// Tag-space discriminators for the frontend's cache accesses.
const TAG_POLL: u64 = 1 << 62;
const TAG_CQ: u64 = 2 << 62;
/// The sequence part of a tag.
const TAG_MASK: u64 = (1 << 62) - 1;

/// Most QPs one frontend serves: an NIedge frontend's row or column.
const MAX_QPS: usize = GRID as usize;

/// Parked polls a park must be sure to complete before a known settle.
/// A park and its settle cost about one poll's frontend and cache visits,
/// so a park that saves only one poll saves nothing (on `chip-paper`,
/// a core that spins on its CQ without parking settles its tile's loop
/// every few cycles, and such parks made the run slower).
const MIN_PARKED_POLLS: u64 = 2;

#[derive(Debug)]
enum FeEv {
    /// Emit a WqFwd to the backend (after RGP frontend processing).
    SendWq { qp: u32, wq_id: u64 },
    /// Begin the CQ store (after RCP frontend processing); `ok` is the
    /// completion status the backend reported (false for a transfer its
    /// ITT watchdog abandoned) and `degraded` marks a completion that
    /// needed a recovery path (WQ replay or a quorum that absorbed a dead
    /// leg).
    CqStore {
        qp: u32,
        wq_id: u64,
        ok: bool,
        degraded: bool,
    },
}

/// An RGP/RCP frontend.
#[derive(Debug)]
pub struct NiFrontend {
    node: NocNode,
    cfg: RmcConfig,
    /// QPs serviced by this frontend, `[..n_qps]`. A QP's position here
    /// indexes its state below.
    qp_ids: [u32; MAX_QPS],
    n_qps: u8,
    /// Backend this frontend's entries go to.
    backend: NocNode,
    /// Position of the next QP the round robin considers.
    rr: u8,
    /// Pending completion notifications to turn into CQ entries:
    /// `(qp, wq_id, ok, degraded)`.
    cq_queue: VecDeque<(u32, u64, bool, bool)>,
    /// Outstanding WQ polls, `[..n_polls]` in no particular order: poll
    /// `k` carries access tag `poll_tags[k]` and polls the QP at position
    /// `poll_pos[k]`. At most one per QP (never poll the same QP twice at
    /// once).
    poll_tags: [u64; MAX_QPS],
    poll_pos: [u8; MAX_QPS],
    n_polls: u8,
    /// Outstanding CQ store, if any: (tag, qp, wq_id). CQ stores are
    /// serialized — same-block stores must retire in order.
    storing_cq: Option<(u64, u32, u64)>,
    /// A CQ store event is scheduled or its store is in flight.
    cq_busy: bool,
    events: DelayLine<FeEv>,
    egress: VecDeque<RmcEgress>,
    next_tag: u64,
    /// First cycle the next poll may issue: the last poll's completion
    /// plus `poll_backoff`. A parked frontend keeps it, and its schedule
    /// starts from it.
    poll_ready_at: Cycle,
    /// Parked: the poll loop runs virtually ([`NiFrontend::park`]). The
    /// round-robin cursor, the tag counter and `poll_ready_at` hold what
    /// they held at the park until [`NiFrontend::settle`].
    parked: bool,
    /// A submit was rejected (MSHR full); retry it.
    retry: Option<Access>,
    /// Highest WQ entry id already scheduled for forwarding, per QP
    /// position.
    ///
    /// A poll returning the newest-written id may race with the delayed
    /// `SendWq` events of the previous poll (the entries stay pending until
    /// the forward fires); this watermark keeps each entry forwarded once.
    dispatched: [u64; MAX_QPS],
}

impl NiFrontend {
    /// Create a frontend at `node`, forwarding to `backend`, that serves
    /// the QPs `qp_ids` of the chip's QP table.
    ///
    /// # Panics
    /// If `qp_ids` lists more than [`GRID`] QPs (a frontend serves one
    /// tile's QP, or one row or column of them), or if
    /// [`RmcConfig::fe_poll_concurrency`] is 0.
    pub fn new(node: NocNode, backend: NocNode, qp_ids: &[u32], cfg: RmcConfig) -> NiFrontend {
        assert!(
            qp_ids.len() <= MAX_QPS,
            "qp_ids: a frontend serves at most {MAX_QPS} QPs, got {}",
            qp_ids.len()
        );
        assert!(
            cfg.fe_poll_concurrency >= 1,
            "fe_poll_concurrency must be at least 1, got 0"
        );
        let mut ids = [0; MAX_QPS];
        ids[..qp_ids.len()].copy_from_slice(qp_ids);
        NiFrontend {
            node,
            cfg,
            qp_ids: ids,
            n_qps: qp_ids.len() as u8,
            backend,
            rr: 0,
            cq_queue: VecDeque::new(),
            poll_tags: [0; MAX_QPS],
            poll_pos: [0; MAX_QPS],
            n_polls: 0,
            storing_cq: None,
            cq_busy: false,
            events: DelayLine::new(),
            egress: VecDeque::new(),
            next_tag: 0,
            poll_ready_at: Cycle::ZERO,
            parked: false,
            retry: None,
            dispatched: [0; MAX_QPS],
        }
    }

    /// Where this frontend lives.
    pub fn node(&self) -> NocNode {
        self.node
    }

    /// Its backend's location.
    pub fn backend(&self) -> NocNode {
        self.backend
    }

    /// Deliver a completion notification (from the backend, via latch or
    /// NOC). `ok == false` marks a transfer the backend's ITT watchdog
    /// abandoned; `degraded` marks a completion that needed a recovery
    /// path. The frontend writes the CQ entry either way, with both flags
    /// carried through to the application.
    pub fn on_notify(&mut self, qp: u32, wq_id: u64, ok: bool, degraded: bool) {
        debug_assert!(!self.parked, "notified while parked");
        self.cq_queue.push_back((qp, wq_id, ok, degraded));
    }

    /// Earliest cycle (>= `now`) at which this frontend does anything on
    /// its own: a pending retry, an undrained egress queue, a queued CQ
    /// notification, a due internal event, or the next WQ-poll issue slot.
    /// `None` means only external input (a notification or a cache
    /// completion) wakes it, and always while parked. The poll term may be
    /// conservatively early — a tick that finds every QP already in-poll
    /// only rotates the round-robin cursor by a full lap, which is
    /// invisible mod the QP count — but it is never late: a frontend
    /// holding poll credit is due at `max(now, poll_ready_at)` exactly as
    /// the poll-everything tick would observe.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.parked {
            return None;
        }
        if self.retry.is_some()
            || !self.egress.is_empty()
            || (!self.cq_busy && !self.cq_queue.is_empty())
        {
            return Some(now);
        }
        let mut next = self.events.next_ready_at();
        if self.n_qps > 0 && usize::from(self.n_polls) < self.cfg.fe_poll_concurrency {
            let at = self.poll_ready_at.max(now);
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        next
    }

    /// Drive the frontend one cycle. Needs the shared QP table and the
    /// cache complex hosting the NI cache.
    pub fn tick(&mut self, now: Cycle, qps: &mut [QueuePair], cache: &mut CacheComplex) {
        debug_assert!(!self.parked, "ticked while parked");
        // Retry a rejected submit first.
        if let Some(a) = self.retry.take() {
            if let Err(a) = cache.submit(now, a) {
                self.retry = Some(a);
                return;
            }
        }
        while let Some(ev) = self.events.pop_ready(now) {
            match ev {
                FeEv::SendWq { qp, wq_id } => {
                    let q = &mut qps[qp as usize];
                    let entry = q.ni_take().expect("observed entry still pending");
                    debug_assert_eq!(entry.id, wq_id);
                    self.egress.push_back(RmcEgress::Ni {
                        dst: self.backend,
                        msg: NiMsg::WqFwd {
                            entry,
                            qp,
                            fe: self.node,
                        },
                    });
                }
                FeEv::CqStore {
                    qp,
                    wq_id,
                    ok,
                    degraded,
                } => {
                    let q = &mut qps[qp as usize];
                    let block = q.cq_tail_block();
                    q.ni_complete_with(wq_id, ok, degraded);
                    let token = q.completions_written();
                    let tag = TAG_CQ | self.bump_tag();
                    self.storing_cq = Some((tag, qp, wq_id));
                    let a = Access {
                        origin: AccessOrigin::Ni,
                        kind: AccessKind::Store,
                        block,
                        store_value: token,
                        tag,
                    };
                    if let Err(a) = cache.submit(now, a) {
                        self.retry = Some(a);
                    }
                }
            }
        }
        // CQ writes take priority over new polls.
        if !self.cq_busy {
            if let Some((qp, wq_id, ok, degraded)) = self.cq_queue.pop_front() {
                self.cq_busy = true;
                self.events.push_after(
                    now,
                    RCP_FE_PROC,
                    FeEv::CqStore {
                        qp,
                        wq_id,
                        ok,
                        degraded,
                    },
                );
                return;
            }
        }
        if self.n_qps == 0 || now < self.poll_ready_at || self.retry.is_some() {
            return;
        }
        if usize::from(self.n_polls) >= self.cfg.fe_poll_concurrency {
            return;
        }
        // Poll the next registered QP without a poll already in flight.
        let Some(pos) = self.next_pollable() else {
            return;
        };
        let block = qps[self.qp_ids[usize::from(pos)] as usize].wq_head_block();
        let tag = TAG_POLL | self.bump_tag();
        if let Err(a) = cache.submit(now, self.record_poll(pos, block, tag)) {
            self.retry = Some(a);
        }
    }

    /// Record an outstanding poll of the QP at `pos` and return its load.
    fn record_poll(&mut self, pos: u8, block: BlockAddr, tag: u64) -> Access {
        let k = usize::from(self.n_polls);
        self.poll_tags[k] = tag;
        self.poll_pos[k] = pos;
        self.n_polls += 1;
        Access {
            origin: AccessOrigin::Ni,
            kind: AccessKind::Load,
            block,
            store_value: 0,
            tag,
        }
    }

    /// Round-robin choice among QP positions with no outstanding poll.
    fn next_pollable(&mut self) -> Option<u8> {
        for _ in 0..self.n_qps {
            let pos = self.rr;
            self.rr = (pos + 1) % self.n_qps;
            if !self.poll_pos[..usize::from(self.n_polls)].contains(&pos) {
                return Some(pos);
            }
        }
        None
    }

    /// Handle a completed NI-cache access (routed here by the SoC for
    /// completions with `AccessOrigin::Ni`).
    pub fn on_cache_completion(&mut self, now: Cycle, tag: u64, value: u64, qps: &[QueuePair]) {
        debug_assert!(!self.parked, "cache completion while parked");
        if tag & TAG_CQ != 0 {
            let (stag, qp, wq_id) = self.storing_cq.take().expect("CQ store outstanding");
            debug_assert_eq!(stag, tag);
            self.cq_busy = false;
            self.egress.push_back(RmcEgress::Trace(TraceEvent {
                qp,
                wq_id,
                stage: Stage::CqWritten,
                at: now,
            }));
            return;
        }
        debug_assert!(tag & TAG_POLL != 0, "unexpected frontend tag {tag:#x}");
        let live = usize::from(self.n_polls);
        let k = self.poll_tags[..live]
            .iter()
            .position(|&t| t == tag)
            .expect("poll outstanding");
        let pos = usize::from(self.poll_pos[k]);
        // Move the last record into the freed one, and clear the last:
        // records past `n_polls` stay zero, so equal states compare equal.
        self.n_polls -= 1;
        let last = usize::from(self.n_polls);
        self.poll_tags[k] = self.poll_tags[last];
        self.poll_pos[k] = self.poll_pos[last];
        (self.poll_tags[last], self.poll_pos[last]) = (0, 0);
        let qp = self.qp_ids[pos];
        // The block token is the newest entry id written into that block;
        // take every pending entry the poll made visible. Only peeked so
        // far: record traces and schedule the takes in order.
        let already = self.dispatched[pos];
        let visible = qps[qp as usize]
            .pending_entries()
            .skip_while(|e| e.id <= already)
            .take_while(|e| e.id <= value);
        for (i, e) in visible.enumerate() {
            self.egress.push_back(RmcEgress::Trace(TraceEvent {
                qp,
                wq_id: e.id,
                stage: Stage::FeObserved,
                at: now,
            }));
            let send = FeEv::SendWq { qp, wq_id: e.id };
            self.events.push_after(now, RGP_FE_PROC + i as u64, send);
            self.dispatched[pos] = e.id;
        }
        if self.dispatched[pos] == already {
            self.poll_ready_at = now + self.cfg.poll_backoff;
        }
    }

    /// Next outbound item.
    pub fn pop_egress(&mut self) -> Option<RmcEgress> {
        self.egress.pop_front()
    }

    fn bump_tag(&mut self) -> u64 {
        self.next_tag = (self.next_tag + 1) & TAG_MASK;
        self.next_tag
    }

    // ---- the parked poll loop ---------------------------------------------

    /// True while the poll loop runs virtually.
    pub fn is_parked(&self) -> bool {
        self.parked
    }

    /// Whether polling can change nothing: no retry, egress, event, CQ
    /// work or poll in flight, `cache` idle, and every served QP's WQ head
    /// block an NI-cache hit whose token shows no entry this frontend has
    /// not dispatched yet. Then each coming poll is a hit that reads the
    /// same token, until a core store or a coherence message moves a
    /// block.
    pub fn is_quiet(&self, qps: &[QueuePair], cache: &CacheComplex) -> bool {
        if self.n_qps == 0
            || self.n_polls > 0
            || self.retry.is_some()
            || !self.egress.is_empty()
            || !self.events.is_empty()
            || self.cq_busy
            || !self.cq_queue.is_empty()
            || !cache.is_idle()
        {
            return false;
        }
        let served = &self.qp_ids[..usize::from(self.n_qps)];
        served.iter().zip(&self.dispatched).all(|(&qp, &already)| {
            let q = &qps[qp as usize];
            cache.ni_hit_value(q.wq_head_block()).is_some_and(|token| {
                let mut unseen = q.pending_entries().skip_while(|e| e.id <= already);
                unseen.next().is_none_or(|e| e.id > token)
            })
        })
    }

    /// Park at `now`, in the cache's subphase after an NI-cache
    /// completion, if the loop [is quiet](NiFrontend::is_quiet) and at
    /// most one poll can ever be in flight: the frontend serves one QP, or
    /// `fe_poll_concurrency` is 1. `settle_by` is a cycle by which
    /// something settles the loop anyway (on a per-tile placement, the
    /// tile core's next tick), `Cycle(u64::MAX)` if none is known; a park
    /// settled before its second poll completes would save too little, so
    /// it is refused. Returns whether it parked.
    ///
    /// Parked poll `k` (from 0) issues at `x0 + k * P`, polls the QP at
    /// position `rr + k` (mod the QP count) with tag `next_tag + k + 1`,
    /// and hits one cycle later; `x0` is the first cycle after `now` at
    /// which a poll may issue, `P` is `1 + max(1, poll_backoff)`. A
    /// parked frontend must not be ticked, notified or handed a completion
    /// until [`NiFrontend::settle`], and its
    /// [`next_activity`](NiFrontend::next_activity) is `None`.
    pub fn park(
        &mut self,
        now: Cycle,
        qps: &[QueuePair],
        cache: &CacheComplex,
        settle_by: Cycle,
    ) -> bool {
        let serial = self.n_qps == 1 || self.cfg.fe_poll_concurrency == 1;
        // The schedule restarts from the last poll's completion; a poll
        // that is already due at `now + 1` (a CQ store outlasted the
        // backoff) goes out the usual way.
        let first = self.first_parked_issue();
        let last_hit = first + (MIN_PARKED_POLLS - 1) * self.poll_period() + 1;
        if !serial || first <= now || settle_by <= last_hit || !self.is_quiet(qps, cache) {
            return false;
        }
        self.parked = true;
        true
    }

    /// The NI-cache hits of the polls a parked loop has completed by the
    /// start of cycle `t` ([`HitRun::NONE`] when not parked): what
    /// [`NiFrontend::settle`] at `t` leaves for the caller to credit.
    pub fn parked_run(&self, t: Cycle, qps: &[QueuePair]) -> HitRun {
        if !self.parked {
            return HitRun::NONE;
        }
        let done = self.parked_polls_before(Cycle(t.0.saturating_sub(1)));
        let blocks = self.head_blocks(qps);
        let blocks = &blocks[..usize::from(self.n_qps)];
        let first_hit = self.first_parked_issue() + 1;
        let (period, first) = (self.poll_period(), usize::from(self.rr));
        HitRun::new(AccessOrigin::Ni, first_hit, period, done, blocks, first)
    }

    /// Leave the parked state at the start of cycle `t`, before any
    /// frontend or cache subphase of `t` runs: advance this frontend past
    /// the polls the loop made since the park, so it holds what the
    /// poll-every-cycle loop leaves. A poll issued at `t - 1` is still in
    /// flight, so it is recorded and submitted again, its lookup due at
    /// `t`. The completed polls' hits are the caller's to credit first
    /// ([`NiFrontend::parked_run`], [`CacheComplex::credit_hits`]),
    /// merged with any other loop parked on `cache`. Does nothing unless
    /// parked.
    pub fn settle(&mut self, t: Cycle, qps: &[QueuePair], cache: &mut CacheComplex) {
        if !self.parked {
            return;
        }
        let issued = self.parked_polls_before(t);
        let done = self.parked_polls_before(Cycle(t.0 - 1));
        self.parked = false;
        let n = self.n_qps;
        self.poll_ready_at += done * self.poll_period();
        self.next_tag = (self.next_tag + issued) & TAG_MASK;
        self.rr = ((u64::from(self.rr) + issued) % u64::from(n)) as u8;
        if issued > done {
            let pos = (self.rr + n - 1) % n;
            let block = self.head_blocks(qps)[usize::from(pos)];
            let a = self.record_poll(pos, block, TAG_POLL | self.next_tag);
            cache
                .submit(Cycle(t.0 - 1), a)
                .expect("an idle cache takes the poll");
        }
    }

    /// Cycles from one parked poll's issue to the next: its one-cycle
    /// lookup, then the backoff, or at least the one cycle the frontend's
    /// subphase waits for the cache's.
    fn poll_period(&self) -> u64 {
        1 + self.cfg.poll_backoff.max(1)
    }

    /// Issue cycle of the first parked poll: `poll_ready_at`, or the cycle
    /// after the last completion when the backoff is 0.
    fn first_parked_issue(&self) -> Cycle {
        let backoff = self.cfg.poll_backoff;
        self.poll_ready_at + (backoff.max(1) - backoff)
    }

    /// Parked polls issued before cycle `end`.
    fn parked_polls_before(&self, end: Cycle) -> u64 {
        let first = self.first_parked_issue();
        if end <= first {
            return 0;
        }
        (end.0 - first.0 - 1) / self.poll_period() + 1
    }

    /// The served QPs' WQ head blocks, by position (`[..n_qps]`).
    fn head_blocks(&self, qps: &[QueuePair]) -> [BlockAddr; MAX_QPS] {
        let mut blocks = [BlockAddr(0); MAX_QPS];
        let served = &self.qp_ids[..usize::from(self.n_qps)];
        for (b, &qp) in blocks.iter_mut().zip(served) {
            *b = qps[qp as usize].wq_head_block();
        }
        blocks
    }
}
