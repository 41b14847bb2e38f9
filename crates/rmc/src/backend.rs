//! RGP/RCP backends: the ITT, request unrolling, and response data handling.
//!
//! The backend receives validated WQ entries from its frontends, allocates
//! an Inflight Transfer Table slot, and unrolls the transfer into
//! cache-block-sized network requests at one per cycle (§6.1.3). Responses
//! are matched back to their slot; read payloads are written into local
//! memory through the non-caching LLC path; when the last block lands, the
//! backend notifies the owning frontend so it can write the CQ entry.
//!
//! The ITT doubles as the end-to-end recovery point for a degraded rack:
//! every entry tracks its last progress cycle, and an optional watchdog
//! ([`RmcConfig::itt_timeout`]) re-sends the missing blocks of a stalled
//! transfer up to [`RmcConfig::itt_retries`] times before giving up and
//! completing the operation with an error CQ status — so a dead link or
//! node costs the issuing core a failed completion, never a hang.
//!
//! With a [`ReplicaMap`] installed ([`NiBackend::set_replicas`]) the
//! backend goes one step further and makes recovery *transparent*:
//!
//! * **WQ replay (read failover).** When the watchdog exhausts a
//!   transfer's retries, instead of error-completing it the backend
//!   re-injects the whole operation from its WQ descriptor toward the next
//!   replica of the original destination — up to
//!   [`RmcConfig::replay_budget`] times, under a fresh slot generation so
//!   stragglers from the abandoned destination are recognized as stale.
//! * **Write fan-out with a W-of-K quorum.** A replicated write expands
//!   into one ITT leg per replica; the single CQ notification fires once
//!   [`ReplicaCfg::w`](ni_fabric::ReplicaCfg) legs acknowledged (or, as an
//!   error, once too many legs died for the quorum to ever be met), so one
//!   dead replica costs nothing but a `degraded` completion flag.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use ni_coherence::{ClientKind, CohMsg, Egress};
use ni_engine::{Counter, Cycle, DelayLine};
use ni_fabric::{RemoteReq, RemoteResp, ReplicaMap};
use ni_mem::BlockAddr;
use ni_noc::NocNode;
use ni_qp::{QpConfig, RemoteOp, WqEntry};

use crate::config::RmcConfig;
use crate::trace::{Stage, TraceEvent};
use crate::{NiMsg, RmcEgress};

/// One in-flight transfer.
#[derive(Debug, Clone)]
struct IttEntry {
    qp: u32,
    fe: NocNode,
    wq_id: u64,
    op: RemoteOp,
    remote_node: u16,
    remote_base: BlockAddr,
    local_base: BlockAddr,
    total: u64,
    sent: u64,
    responses: u64,
    /// Slot reuse generation stamped into this transfer's tids, so a
    /// response that limps home after its entry timed out (and the slot
    /// was recycled) is recognized as stale instead of corrupting the new
    /// occupant.
    gen: u16,
    /// Last cycle this transfer made progress (admitted, retried, or
    /// received a response); the ITT watchdog measures staleness from
    /// here, so long unrolls with a live remote end never spuriously time
    /// out.
    last_progress: Cycle,
    /// Re-sends left before the backend gives up and error-completes.
    retries_left: u32,
    /// Per-block acknowledgment bitmap, allocated only when the watchdog
    /// is armed (empty = tracking off, the healthy-run fast path). Retries
    /// make *duplicate* responses possible, and with duplicates a bare
    /// count cannot tell "every block arrived" from "some block arrived
    /// twice while another was lost" — the bitmap is what keeps an
    /// `ok == true` completion meaning all data actually transferred.
    acked: Vec<u64>,
    /// The WQ descriptor's original destination — the anchor whose replica
    /// set a WQ replay rotates `remote_node` through.
    primary: u16,
    /// Index into `replicas(primary)` this transfer currently targets
    /// (0 = the primary itself).
    replica_rank: u32,
    /// WQ replays left: whole-transfer re-injections toward the next
    /// replica after the retry budget toward one destination is spent.
    /// Granted only to non-quorum transfers with somewhere else to go.
    replays_left: u32,
    /// The transfer needed at least one WQ replay — carried into the CQ
    /// entry's `degraded` flag so the application can tell a failover
    /// completion from a first-try one.
    replayed: bool,
    /// One leg of a replicated write fan-out: completion (success or
    /// failure) routes through the quorum table instead of emitting a CQ
    /// notification of its own.
    quorum: bool,
    /// Remote compute cycles the serving RRPP spends on each block before
    /// replying (two-sided request–response ops); stamped into every
    /// network request this transfer unrolls into. Zero for one-sided
    /// remote-memory operations.
    service: u64,
}

impl IttEntry {
    fn is_acked(&self, idx: u64) -> bool {
        self.acked
            .get((idx / 64) as usize)
            .is_some_and(|w| (w >> (idx % 64)) & 1 == 1)
    }

    /// Mark block `idx` answered; `false` means it already was (a
    /// duplicate from a retry) — or always `true` when tracking is off.
    fn mark_acked(&mut self, idx: u64) -> bool {
        let Some(w) = self.acked.get_mut((idx / 64) as usize) else {
            return true;
        };
        let bit = 1u64 << (idx % 64);
        if *w & bit != 0 {
            return false;
        }
        *w |= bit;
        true
    }
}

#[derive(Debug)]
enum BeEv {
    /// Finish RGP backend processing; start unrolling the entry.
    Activate {
        entry: WqEntry,
        qp: u32,
        fe: NocNode,
    },
    /// Finish RCP backend processing of one response.
    RespDone(RemoteResp),
}

/// One unit of work headed for an ITT slot: a WQ entry — possibly one leg
/// of a replicated write fan-out, with `remote_node` already rewritten to
/// the leg's replica — plus its recovery bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Pending {
    entry: WqEntry,
    qp: u32,
    fe: NocNode,
    /// The descriptor's original destination (see [`IttEntry::primary`]).
    primary: u16,
    /// Replica rank this leg starts at (see [`IttEntry::replica_rank`]).
    rank: u32,
    /// Fan-out leg of a quorum write (see [`IttEntry::quorum`]).
    quorum: bool,
}

/// Completion bookkeeping of one replicated write: its single CQ
/// notification fires the moment the outcome is decided — `need` legs
/// acknowledged (ok, degraded if any leg died), or so many legs dead that
/// `need` can never be met (error). The state lives until every leg
/// resolves, so stragglers after the notification account cleanly.
#[derive(Debug)]
struct QuorumState {
    /// Legs that must acknowledge for the write to complete ok (W).
    need: u32,
    /// Legs fanned out (K, clamped to the replica set size).
    total: u32,
    acked: u32,
    failed: u32,
    /// Frontend to notify.
    fe: NocNode,
    /// The CQ notification already went out (a decided outcome); the
    /// remaining legs only settle the table entry.
    notified: bool,
}

/// Backend statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct BackendStats {
    /// Transfers accepted.
    pub transfers: Counter,
    /// Block requests sent.
    pub requests_sent: Counter,
    /// Block responses handled.
    pub responses: Counter,
    /// Bytes of remote-read payload written into local memory.
    pub payload_bytes: Counter,
    /// Entries stalled on a full ITT.
    pub itt_stalls: Counter,
    /// ITT entries that hit the [`RmcConfig::itt_timeout`] watchdog
    /// (counted once per expiry, whether it led to a retry or a failure).
    pub itt_timeouts: Counter,
    /// Timed-out entries re-sent (missing blocks re-injected into the
    /// fabric; bounded by [`RmcConfig::itt_retries`]).
    pub itt_retries: Counter,
    /// Transfers abandoned after the retry budget: completed back to the
    /// core with an error CQ status instead of data.
    pub failed_transfers: Counter,
    /// Responses dropped as stale: their transfer had already timed out
    /// (slot freed or recycled under a newer generation), or the block was
    /// already answered (a duplicate minted by a retry).
    pub stale_responses: Counter,
    /// WQ replays: transfers re-injected from their descriptor toward an
    /// alternate replica after the retry budget toward one destination ran
    /// out (bounded by [`RmcConfig::replay_budget`]).
    pub replays: Counter,
    /// Writes fanned out to a replica quorum (counted once per operation,
    /// not per leg).
    pub quorum_writes: Counter,
    /// Fan-out legs of quorum writes abandoned by the watchdog. The
    /// operation itself still completes ok while `w` live legs remain;
    /// only `failed_transfers` counts operations lost outright.
    pub quorum_leg_failures: Counter,
}

impl BackendStats {
    /// Accumulate another backend's counters into this one (chip- and
    /// rack-level aggregation).
    pub fn merge(&mut self, other: &BackendStats) {
        self.transfers.add(other.transfers.get());
        self.requests_sent.add(other.requests_sent.get());
        self.responses.add(other.responses.get());
        self.payload_bytes.add(other.payload_bytes.get());
        self.itt_stalls.add(other.itt_stalls.get());
        self.itt_timeouts.add(other.itt_timeouts.get());
        self.itt_retries.add(other.itt_retries.get());
        self.failed_transfers.add(other.failed_transfers.get());
        self.stale_responses.add(other.stale_responses.get());
        self.replays.add(other.replays.get());
        self.quorum_writes.add(other.quorum_writes.get());
        self.quorum_leg_failures
            .add(other.quorum_leg_failures.get());
    }
}

/// An RGP/RCP backend.
#[derive(Debug)]
pub struct NiBackend {
    node: NocNode,
    /// Unique id used in the transfer-tag encoding.
    id: u16,
    cfg: RmcConfig,
    qp_cfg: QpConfig,
    home: fn(BlockAddr, u32) -> NocNode,
    n_banks: u32,
    /// When the backend is not at the chip edge (NIper-tile), its network
    /// packets detour via this NI block (§6.2's indirection).
    edge_via: Option<NocNode>,
    /// Live transfers by slot. A `BTreeMap` so the watchdog's slot scan
    /// and the `retain` purges below can never depend on hash order.
    itt: BTreeMap<u32, IttEntry>,
    free_slots: Vec<u32>,
    /// Per-slot reuse generation (see [`IttEntry::gen`]).
    slot_gens: Vec<u16>,
    /// Earliest cycle any live ITT entry could time out — a conservative
    /// lower bound, so the deterministic slot scan only runs when a
    /// timeout may actually be due (and never when the watchdog is off).
    next_deadline: Cycle,
    /// Entries waiting for a free ITT slot.
    waiting: VecDeque<Pending>,
    /// Slots with blocks left to unroll, round-robin.
    active: VecDeque<u32>,
    /// Local reads outstanding for remote-write payloads: block -> slot.
    pending_local_reads: BTreeMap<BlockAddr, Vec<u32>>,
    /// The rack's replica placement, shared read-only across backends.
    /// `None` (the default) keeps every recovery path compiled out of the
    /// hot loop.
    replicas: Option<Arc<ReplicaMap>>,
    /// Outcome tracking for in-flight quorum writes, by `(qp, wq_id)`.
    quorum: BTreeMap<(u32, u64), QuorumState>,
    events: DelayLine<BeEv>,
    egress: VecDeque<RmcEgress>,
    stats: BackendStats,
}

impl NiBackend {
    /// Create backend `id` at `node`. `edge_via` must be set when the
    /// backend is not co-located with the network router.
    pub fn new(
        node: NocNode,
        id: u16,
        cfg: RmcConfig,
        qp_cfg: QpConfig,
        home: fn(BlockAddr, u32) -> NocNode,
        n_banks: u32,
        edge_via: Option<NocNode>,
    ) -> NiBackend {
        assert!(
            cfg.itt_slots <= 1 << 16,
            "ITT slots must fit the 16-bit slot field of the transfer tag"
        );
        NiBackend {
            node,
            id,
            cfg,
            qp_cfg,
            home,
            n_banks,
            edge_via,
            itt: BTreeMap::new(),
            free_slots: (0..cfg.itt_slots as u32).rev().collect(),
            slot_gens: vec![0; cfg.itt_slots],
            next_deadline: Cycle(u64::MAX),
            waiting: VecDeque::new(),
            active: VecDeque::new(),
            pending_local_reads: BTreeMap::new(),
            replicas: None,
            quorum: BTreeMap::new(),
            events: DelayLine::new(),
            egress: VecDeque::new(),
            stats: BackendStats::default(),
        }
    }

    /// Install the rack's replica placement (shared, read-only). Enables
    /// WQ replay for reads ([`RmcConfig::replay_budget`]) and W-of-K write
    /// fan-out for destinations whose replica set holds more than one
    /// node. Chips call this once at construction; `None` (the default)
    /// keeps every recovery path off.
    pub fn set_replicas(&mut self, map: Option<Arc<ReplicaMap>>) {
        self.replicas = map;
    }

    /// Where this backend lives.
    pub fn node(&self) -> NocNode {
        self.node
    }

    /// Statistics.
    pub fn stats(&self) -> &BackendStats {
        &self.stats
    }

    /// True when the backend holds no in-flight work anywhere in its
    /// pipeline: no ITT entries, nothing waiting for a slot, no pending
    /// local reads, and empty event/egress queues. Ticking a quiescent
    /// backend is a no-op.
    pub fn is_quiescent(&self) -> bool {
        self.itt.is_empty()
            && self.waiting.is_empty()
            && self.active.is_empty()
            && self.pending_local_reads.is_empty()
            && self.quorum.is_empty()
            && self.events.is_empty()
            && self.egress.is_empty()
    }

    /// Earliest cycle (>= `now`) at which this backend does anything on its
    /// own: undrained egress, an active transfer still unrolling, waiting
    /// entries with a free ITT slot, a due internal event, or the ITT
    /// watchdog's next deadline. `None` means only external input (a WQ
    /// entry, a network response, or local payload data) wakes it —
    /// in-flight ITT entries with the watchdog disabled wait silently on
    /// their acks. The watchdog term uses the same conservative
    /// `next_deadline` bound the poll-everything tick consults: waking
    /// there at worst recomputes the bound, exactly as an idle
    /// `check_timeouts` call would.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if !self.egress.is_empty()
            || !self.active.is_empty()
            || (!self.waiting.is_empty() && !self.free_slots.is_empty())
        {
            return Some(now);
        }
        let mut next = self.events.next_ready_at();
        if self.cfg.itt_timeout > 0 && !self.itt.is_empty() {
            let at = self.next_deadline.max(now);
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        next
    }

    /// Transfer tag for `(backend, slot generation, slot)`: backend id in
    /// bits 32.., the slot's reuse generation in bits 16..32, the slot in
    /// bits 0..16. The generation is what lets the RCP tell a live
    /// transfer's response from one that outlived its timed-out entry.
    fn tid(&self, slot: u32, gen: u16) -> u64 {
        (u64::from(self.id) << 32) | (u64::from(gen) << 16) | u64::from(slot)
    }

    /// Backend id encoded in a transfer tag.
    pub fn backend_of_tid(tid: u64) -> u16 {
        (tid >> 32) as u16
    }

    /// ITT slot encoded in a transfer tag.
    fn slot_of_tid(tid: u64) -> u32 {
        (tid & 0xffff) as u32
    }

    /// Slot generation encoded in a transfer tag.
    fn gen_of_tid(tid: u64) -> u16 {
        ((tid >> 16) & 0xffff) as u16
    }

    /// Accept a WQ entry from a frontend (latch or NOC delivery).
    pub fn on_wq_entry(&mut self, now: Cycle, entry: WqEntry, qp: u32, fe: NocNode) {
        self.egress.push_back(RmcEgress::Trace(TraceEvent {
            qp,
            wq_id: entry.id,
            stage: Stage::BeReceived,
            at: now,
        }));
        self.events
            .push_after(now, self.cfg.rgp_be_proc, BeEv::Activate { entry, qp, fe });
    }

    /// Accept a response from the network (direct or via NOC `NetIn`).
    pub fn on_response(&mut self, now: Cycle, resp: RemoteResp) {
        self.events
            .push_after(now, self.cfg.rcp_be_proc, BeEv::RespDone(resp));
    }

    /// Accept a non-caching read reply (local data for a remote write).
    pub fn on_nc_data(&mut self, now: Cycle, block: BlockAddr, value: u64) {
        let Some(slots) = self.pending_local_reads.get_mut(&block) else {
            return;
        };
        let slot = slots.remove(0);
        if slots.is_empty() {
            self.pending_local_reads.remove(&block);
        }
        let e = self.itt.get(&slot).expect("slot live while reads pending");
        let idx = block.0 - e.local_base.0;
        let req = RemoteReq {
            tid: self.tid(slot, e.gen),
            is_read: false,
            src_node: 0, // stamped by the fabric at the network router
            target_node: e.remote_node,
            remote_block: e.remote_base.step(idx),
            value,
            service: e.service,
        };
        // Outbound write payload counts as application data moved (the
        // write-direction analog of §6.2's read accounting).
        self.stats.payload_bytes.add(ni_mem::BLOCK_BYTES);
        self.emit_net(now, req);
    }

    /// Acknowledgment of a local NcWrite (response payload landed); no
    /// action needed beyond flow control.
    pub fn on_nc_wack(&mut self, _now: Cycle, _block: BlockAddr) {}

    /// Drive one cycle.
    pub fn tick(&mut self, now: Cycle) {
        self.check_timeouts(now);
        while let Some(ev) = self.events.pop_ready(now) {
            match ev {
                BeEv::Activate { entry, qp, fe } => self.activate(now, entry, qp, fe),
                BeEv::RespDone(resp) => self.finish_response(now, resp),
            }
        }
        // Admit waiting entries into free ITT slots.
        while !self.waiting.is_empty() && !self.free_slots.is_empty() {
            let p = self.waiting.pop_front().expect("checked non-empty");
            self.admit(now, p);
        }
        // Unroll active transfers.
        for _ in 0..self.cfg.unroll_per_cycle {
            let Some(&slot) = self.active.front() else {
                break;
            };
            self.unroll_one(now, slot);
        }
    }

    /// Next outbound item.
    pub fn pop_egress(&mut self) -> Option<RmcEgress> {
        self.egress.pop_front()
    }

    /// In-flight transfer count.
    pub fn inflight(&self) -> usize {
        self.itt.len()
    }

    // ---- internals -------------------------------------------------------

    /// A validated WQ entry finished RGP backend processing. With a
    /// replica map and a multi-node replica set, a write expands here into
    /// one ITT leg per replica plus a quorum-table entry that owns the
    /// operation's single CQ notification; everything else becomes one
    /// plain leg.
    fn activate(&mut self, now: Cycle, entry: WqEntry, qp: u32, fe: NocNode) {
        let primary = entry.remote_node;
        let fan_out = entry.op == RemoteOp::Write
            && self
                .replicas
                .as_ref()
                .is_some_and(|m| m.replicas(primary).len() > 1);
        if fan_out {
            let map = self.replicas.clone().expect("fan_out implies a map");
            let set = map.replicas(primary);
            let need = u32::from(self.cfg.replication.w.max(1)).min(set.len() as u32);
            self.stats.quorum_writes.incr();
            self.quorum.insert(
                (qp, entry.id),
                QuorumState {
                    need,
                    total: set.len() as u32,
                    acked: 0,
                    failed: 0,
                    fe,
                    notified: false,
                },
            );
            for (rank, &dst) in set.iter().enumerate() {
                let mut leg = entry;
                leg.remote_node = dst;
                self.enqueue_leg(
                    now,
                    Pending {
                        entry: leg,
                        qp,
                        fe,
                        primary,
                        rank: rank as u32,
                        quorum: true,
                    },
                );
            }
        } else {
            self.enqueue_leg(
                now,
                Pending {
                    entry,
                    qp,
                    fe,
                    primary,
                    rank: 0,
                    quorum: false,
                },
            );
        }
    }

    fn enqueue_leg(&mut self, now: Cycle, p: Pending) {
        if self.free_slots.is_empty() {
            self.stats.itt_stalls.incr();
            self.waiting.push_back(p);
        } else {
            self.admit(now, p);
        }
    }

    fn admit(&mut self, now: Cycle, p: Pending) {
        let slot = self.free_slots.pop().expect("caller checked free slot");
        self.stats.transfers.incr();
        let gen = self.slot_gens[slot as usize].wrapping_add(1);
        self.slot_gens[slot as usize] = gen;
        let total = p.entry.blocks();
        // Per-block ack tracking only matters once retries can mint
        // duplicate responses; with the watchdog off the empty Vec keeps
        // the healthy path allocation-free.
        let acked = if self.cfg.itt_timeout > 0 {
            vec![0u64; total.div_ceil(64) as usize]
        } else {
            Vec::new()
        };
        // A replay needs an armed watchdog to trigger it, an alternate
        // destination to aim at, and a transfer that is not already a
        // quorum leg (replicated writes recover through the quorum).
        let replays_left = if !p.quorum
            && self.cfg.itt_timeout > 0
            && self
                .replicas
                .as_ref()
                .is_some_and(|m| m.replicas(p.primary).len() > 1)
        {
            self.cfg.replay_budget
        } else {
            0
        };
        self.itt.insert(
            slot,
            IttEntry {
                qp: p.qp,
                fe: p.fe,
                wq_id: p.entry.id,
                op: p.entry.op,
                remote_node: p.entry.remote_node,
                remote_base: p.entry.remote_addr.block(),
                local_base: p.entry.local_addr.block(),
                total,
                sent: 0,
                responses: 0,
                gen,
                last_progress: now,
                retries_left: self.cfg.itt_retries,
                acked,
                primary: p.primary,
                replica_rank: p.rank,
                replays_left,
                replayed: false,
                quorum: p.quorum,
                service: p.entry.service,
            },
        );
        if self.cfg.itt_timeout > 0 {
            self.next_deadline = self.next_deadline.min(now + self.cfg.itt_timeout);
        }
        self.active.push_back(slot);
    }

    /// The ITT watchdog: when armed ([`RmcConfig::itt_timeout`]` > 0`) and
    /// the earliest possible deadline has passed, scan the slots in index
    /// order for entries that made no progress for a full timeout. Each
    /// expiry escalates through up to three rungs: re-send the transfer's
    /// missing blocks (while [`IttEntry::retries_left`] lasts), replay the
    /// whole transfer toward the next replica (while
    /// [`IttEntry::replays_left`] lasts), and finally give up — free the
    /// slot and complete the operation with an error CQ status (or, for a
    /// quorum leg, record the dead leg and let the quorum decide).
    fn check_timeouts(&mut self, now: Cycle) {
        if self.cfg.itt_timeout == 0 || now < self.next_deadline || self.itt.is_empty() {
            return;
        }
        let timeout = self.cfg.itt_timeout;
        let mut next = Cycle(u64::MAX);
        for slot in 0..self.cfg.itt_slots as u32 {
            let mut retried = false;
            let mut replayed = false;
            let mut failed: Option<(u32, u64, NocNode, bool, bool)> = None;
            match self.itt.get_mut(&slot) {
                None => continue,
                Some(e) => {
                    let deadline = e.last_progress + timeout;
                    if now < deadline {
                        next = next.min(deadline);
                    } else if e.retries_left > 0 {
                        e.retries_left -= 1;
                        // Rewind the unroll cursor; `unroll_one` skips the
                        // blocks the ack bitmap already saw answered, so
                        // exactly the missing blocks go out again —
                        // wherever in the transfer they were lost.
                        e.sent = 0;
                        e.last_progress = now;
                        retried = true;
                        next = next.min(now + timeout);
                    } else if e.replays_left > 0 {
                        // WQ replay: re-inject the whole transfer from its
                        // descriptor toward the next replica of the
                        // original destination. Bumping the slot
                        // generation (mirrored in `slot_gens` so admits
                        // keep monotonic) makes every response the
                        // abandoned destination still owes — including
                        // blocks already counted — stale on arrival, which
                        // is what lets the ack bitmap restart from zero
                        // without double-count hazards.
                        let map = self
                            .replicas
                            .as_ref()
                            .expect("replay budget is only granted with a replica map");
                        e.replays_left -= 1;
                        e.replica_rank += 1;
                        e.remote_node = map.alternate(e.primary, e.replica_rank);
                        let gen = self.slot_gens[slot as usize].wrapping_add(1);
                        self.slot_gens[slot as usize] = gen;
                        e.gen = gen;
                        e.sent = 0;
                        e.responses = 0;
                        for w in &mut e.acked {
                            *w = 0;
                        }
                        e.retries_left = self.cfg.itt_retries;
                        e.last_progress = now;
                        e.replayed = true;
                        replayed = true;
                        next = next.min(now + timeout);
                    } else {
                        failed = Some((e.qp, e.wq_id, e.fe, e.quorum, e.replayed));
                    }
                }
            }
            if retried {
                self.stats.itt_timeouts.incr();
                self.stats.itt_retries.incr();
                if !self.active.contains(&slot) {
                    self.active.push_back(slot);
                }
            }
            if replayed {
                self.stats.itt_timeouts.incr();
                self.stats.replays.incr();
                // Reads never hold local payload reads, but replay is
                // op-agnostic: orphan any the old generation left behind.
                self.pending_local_reads.retain(|_, slots| {
                    slots.retain(|&s| s != slot);
                    !slots.is_empty()
                });
                if !self.active.contains(&slot) {
                    self.active.push_back(slot);
                }
            }
            if let Some((qp, wq_id, fe, quorum, was_replayed)) = failed {
                self.stats.itt_timeouts.incr();
                self.itt.remove(&slot);
                self.free_slots.push(slot);
                if let Some(pos) = self.active.iter().position(|&s| s == slot) {
                    self.active.remove(pos);
                }
                // Write transfers may still have local payload reads in
                // flight; orphan them so a late NcData cannot resolve
                // against the freed (or recycled) slot.
                self.pending_local_reads.retain(|_, slots| {
                    slots.retain(|&s| s != slot);
                    !slots.is_empty()
                });
                if quorum {
                    // A dead fan-out leg is not (yet) a failed operation:
                    // the quorum table decides, and counts
                    // `failed_transfers` only if the operation is lost.
                    self.stats.quorum_leg_failures.incr();
                    self.quorum_leg_done(now, qp, wq_id, false);
                } else {
                    self.stats.failed_transfers.incr();
                    self.egress.push_back(RmcEgress::Ni {
                        dst: fe,
                        msg: NiMsg::CqNotify {
                            qp,
                            wq_id,
                            ok: false,
                            degraded: was_replayed,
                        },
                    });
                }
            }
        }
        self.next_deadline = next;
    }

    /// One leg of a replicated write resolved (`ok` = every block
    /// acknowledged by that replica). Updates the quorum and emits the
    /// operation's single CQ notification at the moment the outcome is
    /// decided: `need` acks (ok — degraded if any leg died first), or too
    /// many dead legs for `need` to ever be met (error). The table entry
    /// is dropped once every leg has resolved.
    fn quorum_leg_done(&mut self, now: Cycle, qp: u32, wq_id: u64, ok: bool) {
        let Some(st) = self.quorum.get_mut(&(qp, wq_id)) else {
            debug_assert!(
                false,
                "quorum leg {qp}/{wq_id} resolved with no table entry"
            );
            return;
        };
        if ok {
            st.acked += 1;
        } else {
            st.failed += 1;
        }
        let mut notify = None;
        if !st.notified {
            if st.acked >= st.need {
                notify = Some(true);
            } else if st.failed > st.total - st.need {
                notify = Some(false);
            }
            if notify.is_some() {
                st.notified = true;
            }
        }
        let fe = st.fe;
        let degraded = st.failed > 0;
        if st.acked + st.failed >= st.total {
            self.quorum.remove(&(qp, wq_id));
        }
        let Some(ok) = notify else { return };
        if ok {
            // The operation-level trace marks fire when the quorum is met
            // — the application-visible completion instant.
            self.egress.push_back(RmcEgress::Trace(TraceEvent {
                qp,
                wq_id,
                stage: Stage::NetIn,
                at: now,
            }));
            self.egress.push_back(RmcEgress::Trace(TraceEvent {
                qp,
                wq_id,
                stage: Stage::DataWritten,
                at: now,
            }));
        } else {
            self.stats.failed_transfers.incr();
        }
        self.egress.push_back(RmcEgress::Ni {
            dst: fe,
            msg: NiMsg::CqNotify {
                qp,
                wq_id,
                ok,
                degraded,
            },
        });
    }

    fn unroll_one(&mut self, now: Cycle, slot: u32) {
        let e = self.itt.get_mut(&slot).expect("active slot is live");
        // Skip blocks the ack bitmap already saw answered (no-op before
        // the first retry: the bitmap is all zeroes — or empty — until
        // duplicates are possible). A rewound cursor can land past the
        // last missing block, leaving nothing to send.
        while e.sent < e.total && e.is_acked(e.sent) {
            e.sent += 1;
        }
        if e.sent >= e.total {
            let pos = self
                .active
                .iter()
                .position(|&s| s == slot)
                .expect("slot was active");
            self.active.remove(pos);
            return;
        }
        let idx = e.sent;
        let (qp, wq_id, op, gen, service) = (e.qp, e.wq_id, e.op, e.gen, e.service);
        // Fan-out legs beyond the primary would otherwise mint duplicate
        // per-operation NetOut trace marks.
        let traces_net_out = !e.quorum || e.replica_rank == 0;
        let (remote_block, local_block, tgt) = (
            e.remote_base.step(idx),
            e.local_base.step(idx),
            e.remote_node,
        );
        e.sent += 1;
        let finished_unroll = e.sent >= e.total;
        if finished_unroll {
            let pos = self
                .active
                .iter()
                .position(|&s| s == slot)
                .expect("slot was active");
            self.active.remove(pos);
        } else {
            // Round-robin across active transfers.
            if self.active.len() > 1 {
                let s = self.active.pop_front().expect("non-empty");
                self.active.push_back(s);
            }
        }
        if idx == 0 && traces_net_out {
            self.egress.push_back(RmcEgress::Trace(TraceEvent {
                qp,
                wq_id,
                stage: Stage::NetOut,
                at: now,
            }));
        }
        match op {
            RemoteOp::Read => {
                let req = RemoteReq {
                    tid: self.tid(slot, gen),
                    is_read: true,
                    src_node: 0, // stamped by the fabric at the network router
                    target_node: tgt,
                    remote_block,
                    value: 0,
                    service,
                };
                self.emit_net(now, req);
            }
            RemoteOp::Write => {
                // Load the payload from local memory first (Fig. 4a:
                // "Memory Read" stage), then ship it.
                self.pending_local_reads
                    .entry(local_block)
                    .or_default()
                    .push(slot);
                self.egress.push_back(RmcEgress::Coh(Egress {
                    dst: (self.home)(local_block, self.n_banks),
                    kind: ClientKind::Directory,
                    msg: CohMsg::NcRead { block: local_block },
                }));
            }
        }
    }

    fn emit_net(&mut self, _now: Cycle, req: RemoteReq) {
        self.stats.requests_sent.incr();
        match self.edge_via {
            None => self.egress.push_back(RmcEgress::Net(req)),
            Some(via) => self.egress.push_back(RmcEgress::Ni {
                dst: via,
                msg: NiMsg::NetOut(req),
            }),
        }
    }

    fn finish_response(&mut self, now: Cycle, resp: RemoteResp) {
        let slot = Self::slot_of_tid(resp.tid);
        let gen = Self::gen_of_tid(resp.tid);
        // A response may outlive its transfer: the ITT watchdog can have
        // error-completed the entry (slot vacant) or recycled the slot for
        // a newer transfer (generation mismatch). Either way it is stale —
        // dropping it is the only correct move.
        // A vacant slot or generation mismatch is a *stale* response —
        // legitimate once the watchdog can free entries early, but with
        // the watchdog off nothing ever outlives its entry, so it can only
        // mean tid corruption or a routing bug: keep the old loud failure
        // in debug builds there.
        let Some(e) = self.itt.get_mut(&slot) else {
            debug_assert!(
                self.cfg.itt_timeout > 0,
                "response tid {:#x} matches no live slot with the watchdog off",
                resp.tid
            );
            self.stats.stale_responses.incr();
            return;
        };
        if e.gen != gen {
            debug_assert!(
                self.cfg.itt_timeout > 0,
                "response tid {:#x} generation mismatch with the watchdog off",
                resp.tid
            );
            self.stats.stale_responses.incr();
            return;
        }
        // Locate the answered block within the transfer; with retries in
        // play a response can also be a duplicate of one already counted
        // (the ack bitmap remembers), and duplicates must not advance the
        // completion count — that is what keeps `ok == true` meaning every
        // block actually arrived, not "enough arrivals happened".
        let idx = resp.remote_block.0.wrapping_sub(e.remote_base.0);
        if idx >= e.total {
            // A gen-matched response always names a block of its own
            // transfer; out of range is a bug in any configuration.
            debug_assert!(
                false,
                "response tid {:#x} names block {idx} of a {}-block transfer",
                resp.tid, e.total
            );
            self.stats.stale_responses.incr();
            return;
        }
        if !e.mark_acked(idx) {
            debug_assert!(
                self.cfg.itt_timeout > 0,
                "duplicate response tid {:#x} with the watchdog off",
                resp.tid
            );
            self.stats.stale_responses.incr();
            return;
        }
        self.stats.responses.incr();
        e.responses += 1;
        e.last_progress = now;
        let done = e.responses >= e.total;
        let (qp, wq_id, fe) = (e.qp, e.wq_id, e.fe);
        let (quorum, degraded) = (e.quorum, e.replayed);
        // A replay resets `retries_left`, so check the replay marker too:
        // its rewound slot has the same stale-`active` / orphaned-payload
        // hazards a retry has.
        let needs_purge = e.retries_left < self.cfg.itt_retries || e.replayed;
        if resp.is_read {
            let local = e.local_base.step(idx);
            self.stats.payload_bytes.add(ni_mem::BLOCK_BYTES);
            self.egress.push_back(RmcEgress::Coh(Egress {
                dst: (self.home)(local, self.n_banks),
                kind: ClientKind::Directory,
                msg: CohMsg::NcWrite {
                    block: local,
                    value: resp.value,
                },
            }));
        }
        if done {
            self.itt.remove(&slot);
            self.free_slots.push(slot);
            // A transfer that retried (or replayed) can complete while its
            // rewound slot still sits in `active` (a parked original
            // response arriving after the watchdog re-queued it) or with
            // duplicate local payload reads pending: purge both, or the
            // freed slot's next occupant gets driven by the corpse's
            // leftovers. Never reachable — and never paid for — without a
            // retry or replay.
            if needs_purge {
                if let Some(pos) = self.active.iter().position(|&s| s == slot) {
                    self.active.remove(pos);
                }
                self.pending_local_reads.retain(|_, slots| {
                    slots.retain(|&s| s != slot);
                    !slots.is_empty()
                });
            }
            if quorum {
                // One leg of a write fan-out: the quorum table owns the
                // operation's CQ notification and trace marks.
                self.quorum_leg_done(now, qp, wq_id, true);
            } else {
                self.egress.push_back(RmcEgress::Trace(TraceEvent {
                    qp,
                    wq_id,
                    stage: Stage::NetIn,
                    at: now,
                }));
                self.egress.push_back(RmcEgress::Trace(TraceEvent {
                    qp,
                    wq_id,
                    stage: Stage::DataWritten,
                    at: now,
                }));
                self.egress.push_back(RmcEgress::Ni {
                    dst: fe,
                    msg: NiMsg::CqNotify {
                        qp,
                        wq_id,
                        ok: true,
                        degraded,
                    },
                });
            }
        }
        let _ = self.qp_cfg;
    }
}
