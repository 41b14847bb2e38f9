//! RGP/RCP frontends: QP selection, WQ polling, CQ writes (Fig. 4).
//!
//! A frontend owns the NI side of the QP protocol. It continuously polls
//! the WQ head blocks of its registered QPs through the NI cache (which is
//! what generates the coherence traffic of Fig. 2) and writes CQ entries on
//! completion notifications from its backend.
//!
//! Per-tile frontends (NIper-tile, NIsplit) serve exactly one QP. Edge
//! frontends (NIedge) serve a whole mesh row of QPs; they overlap polls of
//! *distinct* QPs up to [`RmcConfig::fe_poll_concurrency`], since every such
//! poll is an independent multi-hop coherence transaction — a single
//! outstanding miss would serialize eight cores behind one round trip.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ni_coherence::{Access, AccessKind, AccessOrigin, CacheComplex};
use ni_engine::{Cycle, DelayLine};
use ni_noc::NocNode;
use ni_qp::QueuePair;

use crate::config::RmcConfig;
use crate::trace::{Stage, TraceEvent};
use crate::{NiMsg, RmcEgress};

/// Tag-space discriminators for the frontend's cache accesses.
const TAG_POLL: u64 = 1 << 62;
const TAG_CQ: u64 = 2 << 62;

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
    /// QPs serviced by this frontend.
    qp_ids: Vec<u32>,
    /// Backend this frontend's entries go to.
    backend: NocNode,
    rr: usize,
    /// Pending completion notifications to turn into CQ entries:
    /// `(qp, wq_id, ok, degraded)`.
    cq_queue: VecDeque<(u32, u64, bool, bool)>,
    /// Outstanding WQ polls: access tag -> polled QP.
    polls: BTreeMap<u64, u32>,
    /// QPs with a poll in flight (never poll the same QP twice at once).
    in_poll: BTreeSet<u32>,
    /// Outstanding CQ store, if any: (tag, qp, wq_id). CQ stores are
    /// serialized — same-block stores must retire in order.
    storing_cq: Option<(u64, u32, u64)>,
    /// A CQ store event is scheduled or its store is in flight.
    cq_busy: bool,
    events: DelayLine<FeEv>,
    egress: VecDeque<RmcEgress>,
    next_tag: u64,
    poll_ready_at: Cycle,
    /// A submit was rejected (MSHR full); retry it.
    retry: Option<Access>,
    /// Highest WQ entry id already scheduled for forwarding, per QP.
    ///
    /// A poll returning the newest-written id may race with the delayed
    /// `SendWq` events of the previous poll (the entries stay pending until
    /// the forward fires); this watermark keeps each entry forwarded once.
    dispatched: BTreeMap<u32, u64>,
}

impl NiFrontend {
    /// Create a frontend at `node`, forwarding to `backend`.
    pub fn new(node: NocNode, backend: NocNode, qp_ids: Vec<u32>, cfg: RmcConfig) -> NiFrontend {
        NiFrontend {
            node,
            cfg,
            qp_ids,
            backend,
            rr: 0,
            cq_queue: VecDeque::new(),
            polls: BTreeMap::new(),
            in_poll: BTreeSet::new(),
            storing_cq: None,
            cq_busy: false,
            events: DelayLine::new(),
            egress: VecDeque::new(),
            next_tag: 0,
            poll_ready_at: Cycle::ZERO,
            retry: None,
            dispatched: BTreeMap::new(),
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
        self.cq_queue.push_back((qp, wq_id, ok, degraded));
    }

    /// Earliest cycle (>= `now`) at which this frontend does anything on
    /// its own: a pending retry, an undrained egress queue, a queued CQ
    /// notification, a due internal event, or the next WQ-poll issue slot.
    /// `None` means only external input (a notification or a cache
    /// completion) wakes it. The poll term may be conservatively early — a
    /// tick that finds every QP already in-poll only rotates the
    /// round-robin cursor by a full lap, which is invisible mod the QP
    /// count — but it is never late: a frontend holding poll credit is due
    /// at `max(now, poll_ready_at)` exactly as the poll-everything tick
    /// would observe.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.retry.is_some()
            || !self.egress.is_empty()
            || (!self.cq_busy && !self.cq_queue.is_empty())
        {
            return Some(now);
        }
        let mut next = self.events.next_ready_at();
        if !self.qp_ids.is_empty() && self.polls.len() < self.cfg.fe_poll_concurrency.max(1) {
            let at = self.poll_ready_at.max(now);
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        next
    }

    /// Drive the frontend one cycle. Needs the shared QP table and the
    /// cache complex hosting the NI cache.
    pub fn tick(&mut self, now: Cycle, qps: &mut [QueuePair], cache: &mut CacheComplex) {
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
                    self.cfg.rcp_fe_proc,
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
        if self.qp_ids.is_empty() || now < self.poll_ready_at || self.retry.is_some() {
            return;
        }
        if self.polls.len() >= self.cfg.fe_poll_concurrency.max(1) {
            return;
        }
        // Poll the next registered QP without a poll already in flight.
        let Some(qp) = self.next_pollable_qp() else {
            return;
        };
        let block = qps[qp as usize].wq_head_block();
        let tag = TAG_POLL | self.bump_tag();
        self.polls.insert(tag, qp);
        self.in_poll.insert(qp);
        let a = Access {
            origin: AccessOrigin::Ni,
            kind: AccessKind::Load,
            block,
            store_value: 0,
            tag,
        };
        if let Err(a) = cache.submit(now, a) {
            self.retry = Some(a);
        }
    }

    /// Round-robin choice among QPs with no outstanding poll.
    fn next_pollable_qp(&mut self) -> Option<u32> {
        let n = self.qp_ids.len();
        for _ in 0..n {
            let qp = self.qp_ids[self.rr % n];
            self.rr = self.rr.wrapping_add(1);
            if !self.in_poll.contains(&qp) {
                return Some(qp);
            }
        }
        None
    }

    /// Handle a completed NI-cache access (routed here by the SoC for
    /// completions with `AccessOrigin::Ni`).
    pub fn on_cache_completion(&mut self, now: Cycle, tag: u64, value: u64, qps: &mut [QueuePair]) {
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
        let qp = self.polls.remove(&tag).expect("poll outstanding");
        self.in_poll.remove(&qp);
        let q = &mut qps[qp as usize];
        // The block token is the newest entry id written into that block;
        // take every pending entry the poll made visible.
        let delay = self.cfg.rgp_fe_proc;
        let already = self.dispatched.get(&qp).copied().unwrap_or(0);
        let ids: Vec<u64> = q
            .pending_entries()
            .skip_while(|e| e.id <= already)
            .take_while(|e| e.id <= value)
            .map(|e| e.id)
            .collect();
        let found = !ids.is_empty();
        if let Some(&max) = ids.last() {
            self.dispatched.insert(qp, max);
        }
        // Only peeked so far: record traces and schedule the takes in order.
        for (i, id) in ids.iter().enumerate() {
            // Re-peek via index: entries are taken inside SendWq in order.
            self.egress.push_back(RmcEgress::Trace(TraceEvent {
                qp,
                wq_id: *id,
                stage: Stage::FeObserved,
                at: now,
            }));
            self.events
                .push_after(now, delay + i as u64, FeEv::SendWq { qp, wq_id: *id });
        }
        if !found {
            self.poll_ready_at = now + self.cfg.poll_backoff;
        }
    }

    /// Next outbound item.
    pub fn pop_egress(&mut self) -> Option<RmcEgress> {
        self.egress.pop_front()
    }

    fn bump_tag(&mut self) -> u64 {
        self.next_tag = (self.next_tag + 1) & ((1 << 62) - 1);
        self.next_tag
    }
}
