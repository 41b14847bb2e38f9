//! The per-tile cache complex: a core's L1 paired with an optional NI cache.
//!
//! §3.4 of the paper: the NI cache is attached directly to the back side of
//! the L1, at the boundary of the core's IP block. The two structures
//! *collectively appear as a single logical entity* to the LLC's coherence
//! domain while being physically decoupled; blocks migrate between them over
//! an internal path (5 cycles) without touching the directory. The NI cache
//! controller additionally implements an **Owned** state, visible only to
//! itself, so a dirty CQ block can be handed to the polling core as a clean
//! shared copy while the NI retains responsibility for the eventual
//! writeback.
//!
//! The same type also models the NIedge cache (§3.1): constructed without a
//! core, attached to an edge NI block, it participates in coherence as its
//! own tile and every QP block transfer becomes a full 3-hop protocol
//! transaction — the effect Table 3 quantifies.

use std::collections::BTreeMap;

use ni_engine::{Counter, Cycle, DelayLine};
use ni_mem::BlockAddr;
use ni_noc::{NocNode, GRID};

use crate::config::CoherenceConfig;
use crate::msg::{ClientKind, CohMsg, Egress};

/// L1 hit latency in cycles, tag + data (Table 2: 3).
pub const L1_LATENCY: u64 = 3;

/// Latency of the internal L1 back-side <-> NI cache path, cycles (the
/// paper's "WQ/CQ entry transfer": 5).
pub const NI_TRANSFER_LATENCY: u64 = 5;

/// Who issued an access into the complex.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessOrigin {
    /// The core, through the L1.
    Core,
    /// The NI frontend (or edge-NI pipeline), through the NI cache.
    Ni,
}

/// Load or store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Read the block token.
    Load,
    /// Overwrite the block token.
    Store,
}

/// A memory access submitted to the complex.
#[derive(Clone, Copy, Debug)]
pub struct Access {
    /// Issuing side.
    pub origin: AccessOrigin,
    /// Load or store.
    pub kind: AccessKind,
    /// Target block.
    pub block: BlockAddr,
    /// Token written by stores (ignored by loads).
    pub store_value: u64,
    /// Caller tag returned in the completion.
    pub tag: u64,
}

/// A finished access.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Issuing side.
    pub origin: AccessOrigin,
    /// Caller tag.
    pub tag: u64,
    /// Token observed (loads) or written (stores).
    pub value: u64,
    /// Cycle the access completed.
    pub at: Cycle,
}

/// The load hits of one parked poll loop, in closed form: hit `k` of `n`
/// (from 0) lands at cycle `at + k * period` and touches
/// `blocks[(first + k) % blocks.len()]`. A loop polls at most one mesh
/// row of QPs, so it touches at most [`GRID`] blocks. See
/// [`CacheComplex::credit_hits`].
#[derive(Clone, Copy, Debug)]
pub struct HitRun {
    origin: AccessOrigin,
    at: Cycle,
    period: u64,
    n: u64,
    first: usize,
    blocks: [BlockAddr; GRID as usize],
    len: usize,
}

impl HitRun {
    /// No hits.
    pub const NONE: HitRun = HitRun {
        origin: AccessOrigin::Core,
        at: Cycle::ZERO,
        period: 1,
        n: 0,
        first: 0,
        blocks: [BlockAddr(0); GRID as usize],
        len: 1,
    };

    /// `n` hits of loads from `origin`, the first at `at`, one every
    /// `period` cycles, touching `blocks` round robin from `blocks[first]`.
    ///
    /// # Panics
    /// If `blocks` is empty or longer than [`GRID`], or `period` is 0.
    pub fn new(
        origin: AccessOrigin,
        at: Cycle,
        period: u64,
        n: u64,
        blocks: &[BlockAddr],
        first: usize,
    ) -> HitRun {
        assert!(period > 0, "a hit run needs a period of at least 1");
        let mut run = HitRun {
            origin,
            at,
            period,
            n,
            first,
            len: blocks.len(),
            ..HitRun::NONE
        };
        run.blocks[..blocks.len()].copy_from_slice(blocks);
        assert!(run.len > 0, "a hit run touches at least one block");
        run
    }

    /// Hits in the run.
    pub fn hits(&self) -> u64 {
        self.n
    }

    /// Hits landing before cycle `end`.
    fn before(&self, end: Cycle) -> u64 {
        if end <= self.at {
            return 0;
        }
        ((end.0 - self.at.0 - 1) / self.period + 1).min(self.n)
    }

    /// The block hit `k` touches.
    fn block(&self, k: u64) -> BlockAddr {
        self.blocks[((self.first as u64 + k) % self.len as u64) as usize]
    }
}

/// Stable per-holder line state. `Owned` exists only in the NI cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum LineState {
    #[default]
    I,
    S,
    E,
    M,
    /// NI-cache-only: dirty copy retained while the L1 holds a clean S copy.
    O,
}

impl LineState {
    fn present(self) -> bool {
        self != LineState::I
    }
    fn dirty(self) -> bool {
        matches!(self, LineState::M | LineState::O)
    }
    fn writable(self) -> bool {
        matches!(self, LineState::E | LineState::M)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    l1: LineState,
    ni: LineState,
    value: u64,
    lru: u64,
}

impl Line {
    fn present(&self) -> bool {
        self.l1.present() || self.ni.present()
    }
    fn dirty(&self) -> bool {
        self.l1.dirty() || self.ni.dirty()
    }
    fn state_of(&self, o: AccessOrigin) -> LineState {
        match o {
            AccessOrigin::Core => self.l1,
            AccessOrigin::Ni => self.ni,
        }
    }
    fn set_state(&mut self, o: AccessOrigin, s: LineState) {
        match o {
            AccessOrigin::Core => self.l1 = s,
            AccessOrigin::Ni => self.ni = s,
        }
    }
}

/// Outstanding miss bookkeeping.
#[derive(Debug)]
struct Mshr {
    want_exclusive: bool,
    has_data: bool,
    /// Fill grants E/M rights (DataE/DataM) rather than S.
    exclusive_grant: bool,
    value: u64,
    /// InvAcks still expected (may dip negative if acks outrun data).
    pending_acks: i64,
    /// Accesses completing when the fill lands.
    waiters: Vec<Access>,
    /// Forwards buffered while the line is transient.
    deferred: Vec<CohMsg>,
    /// Cache the fill installs into.
    fill_to: AccessOrigin,
    /// An Inv raced the fill: deliver data to waiters but leave the line I.
    invalidated: bool,
}

/// Writeback awaiting `PutAck`.
#[derive(Debug)]
struct Writeback {
    value: u64,
    /// Block was forwarded to a new owner while the PutM was in flight.
    surrendered: bool,
}

/// Internal timed events.
#[derive(Debug)]
enum Ev {
    /// An access reached the L1 (or NI cache) tag array.
    Lookup(Access),
    /// An internal L1 <-> NI transfer finished; complete the access.
    Transfer(Access),
}

ni_engine::stats! {
    /// Statistics exposed by a complex.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct ComplexStats {
        /// L1/NI hits completed locally.
        pub hits: Counter,
        /// Misses sent to the directory.
        pub misses: Counter,
        /// Internal L1 <-> NI cache transfers (no directory traffic).
        pub internal_transfers: Counter,
        /// Times the Owned-state fast path served a core poll of a dirty NI block.
        pub owned_fast_paths: Counter,
        /// Writebacks issued.
        pub writebacks: Counter,
        /// Forwards answered with data.
        pub forwards_served: Counter,
        /// Forwards answered with `FwdMiss`.
        pub forward_misses: Counter,
    }
}

/// The L1 + NI cache pair (or a bare NI-edge cache when `has_core == false`).
#[derive(Debug)]
pub struct CacheComplex {
    cfg: CoherenceConfig,
    /// Our interconnect identity (messages from the directory arrive here).
    me: NocNode,
    /// Home-bank lookup supplied by the chip: block -> directory node.
    home: fn(BlockAddr, u32) -> NocNode,
    /// Parameter forwarded to `home` (bank count).
    n_banks: u32,
    has_ni_cache: bool,
    /// Resident lines. Ordered: `enforce_capacity` scans this map for the
    /// LRU victim and breaks `lru` ties by iteration order — with a
    /// `HashMap` the victim choice (and thus the whole downstream
    /// writeback/invalidation traffic) varied between same-seed runs.
    lines: BTreeMap<BlockAddr, Line>,
    mshrs: BTreeMap<BlockAddr, Mshr>,
    writebacks: BTreeMap<BlockAddr, Writeback>,
    events: DelayLine<Ev>,
    completions: std::collections::VecDeque<Completion>,
    egress: std::collections::VecDeque<Egress>,
    stats: ComplexStats,
    lru_clock: u64,
}

impl CacheComplex {
    /// Create a complex identified as `me`, mapping blocks to home banks via
    /// `home(block, n_banks)`.
    pub fn new(
        cfg: CoherenceConfig,
        me: NocNode,
        has_ni_cache: bool,
        home: fn(BlockAddr, u32) -> NocNode,
        n_banks: u32,
    ) -> CacheComplex {
        CacheComplex {
            cfg,
            me,
            home,
            n_banks,
            has_ni_cache,
            lines: BTreeMap::new(),
            mshrs: BTreeMap::new(),
            writebacks: BTreeMap::new(),
            events: DelayLine::new(),
            completions: std::collections::VecDeque::new(),
            egress: std::collections::VecDeque::new(),
            stats: ComplexStats::default(),
            lru_clock: 0,
        }
    }

    /// Our interconnect identity.
    pub fn node(&self) -> NocNode {
        self.me
    }

    /// Statistics.
    pub fn stats(&self) -> &ComplexStats {
        &self.stats
    }

    /// True when no miss or writeback is outstanding.
    pub fn is_quiescent(&self) -> bool {
        self.mshrs.is_empty() && self.writebacks.is_empty() && self.events.is_empty()
    }

    /// True when nothing is in progress at all: no miss, writeback or timed
    /// event, and no undrained egress or completion. Only a submit or a
    /// delivery changes an idle complex.
    pub fn is_idle(&self) -> bool {
        self.is_waiting() && self.mshrs.is_empty() && self.writebacks.is_empty()
    }

    /// True when the complex does nothing until a submit or a delivery:
    /// no timed event, and no undrained egress or completion. Misses and
    /// writebacks may be outstanding; only the directory's answers move
    /// them.
    pub fn is_waiting(&self) -> bool {
        self.events.is_empty() && self.egress.is_empty() && self.completions.is_empty()
    }

    /// The token a load of `block` from `origin` would read if its lookup
    /// ran now and hit: the block's value when that side's cache holds it,
    /// `None` when the lookup would miss, transfer from the other side or
    /// wait on a miss or writeback.
    pub fn hit_value(&self, origin: AccessOrigin, block: BlockAddr) -> Option<u64> {
        if self.mshrs.contains_key(&block) || self.writebacks.contains_key(&block) {
            return None;
        }
        let line = self.lines.get(&block)?;
        line.state_of(origin).present().then_some(line.value)
    }

    /// [`CacheComplex::hit_value`] of an NI load.
    pub fn ni_hit_value(&self, block: BlockAddr) -> Option<u64> {
        self.hit_value(AccessOrigin::Ni, block)
    }

    /// [`CacheComplex::hit_value`] of a core load.
    pub fn l1_hit_value(&self, block: BlockAddr) -> Option<u64> {
        self.hit_value(AccessOrigin::Core, block)
    }

    /// Apply the load hits of every run in closed form, as if their
    /// lookups had run in cycle order, an earlier run's first on a tie.
    /// `hits` and the LRU clock advance by the total, and each touched
    /// line is stamped with the rank of its last touch in that order, so
    /// eviction order is what the lookups would have left. Every touched
    /// block must be a hit for its run's origin
    /// ([`CacheComplex::hit_value`]).
    pub fn credit_hits(&mut self, runs: &[HitRun]) {
        let base = self.lru_clock;
        for (i, run) in runs.iter().enumerate() {
            // Only the last lap's touches leave a stamp.
            for k in run.n.saturating_sub(run.len as u64)..run.n {
                let at = run.at + k * run.period;
                let others: u64 = runs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(j, r)| r.before(if j < i { at + 1 } else { at }))
                    .sum();
                let block = run.block(k);
                debug_assert!(
                    self.hit_value(run.origin, block).is_some(),
                    "{block:?} is no {:?} hit",
                    run.origin
                );
                if let Some(l) = self.lines.get_mut(&block) {
                    l.lru = l.lru.max(base + k + 1 + others);
                }
            }
        }
        let total: u64 = runs.iter().map(|r| r.n).sum();
        self.lru_clock += total;
        self.stats.hits.add(total);
    }

    /// Earliest cycle (>= `now`) at which this complex does anything on its
    /// own. `None` means it only acts on external input — an outstanding
    /// miss or writeback is parked until the directory answers, so it does
    /// not by itself keep the complex ticking. Undrained egress or
    /// completions force `now`: [`CacheComplex::deliver`] can produce both
    /// without scheduling an internal event.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if !self.egress.is_empty() || !self.completions.is_empty() {
            return Some(now);
        }
        self.events.next_ready_at()
    }

    /// Submit an access.
    ///
    /// # Errors
    /// Returns the access back when all MSHRs are busy (the issuer must
    /// retry next cycle).
    pub fn submit(&mut self, now: Cycle, access: Access) -> Result<(), Access> {
        if self.mshrs.len() >= self.cfg.l1_mshrs && !self.mshrs.contains_key(&access.block) {
            return Err(access);
        }
        debug_assert!(
            self.has_ni_cache || access.origin == AccessOrigin::Core,
            "NI access submitted to a complex without an NI cache"
        );
        let lat = match access.origin {
            AccessOrigin::Core => L1_LATENCY,
            // The NI cache is a small dedicated structure next to the
            // pipeline; its tag lookup is a single cycle.
            AccessOrigin::Ni => 1,
        };
        self.events.push_after(now, lat, Ev::Lookup(access));
        Ok(())
    }

    /// Deliver a protocol message from the interconnect.
    pub fn deliver(&mut self, now: Cycle, msg: CohMsg) {
        match msg {
            CohMsg::FwdGetS { .. } | CohMsg::FwdGetX { .. } => self.handle_fwd(now, msg),
            CohMsg::Inv {
                block,
                ack_to,
                akind,
            } => self.handle_inv(now, block, ack_to, akind),
            CohMsg::DataE { block, value, acks } => {
                self.handle_fill(now, block, value, true, i64::from(acks))
            }
            CohMsg::DataM { block, value } => self.handle_fill(now, block, value, true, 0),
            CohMsg::DataS { block, value } => self.handle_fill(now, block, value, false, 0),
            CohMsg::InvAck { block } => {
                if let Some(m) = self.mshrs.get_mut(&block) {
                    m.pending_acks -= 1;
                    self.try_finish_fill(now, block);
                }
            }
            CohMsg::PutAck { block } => {
                self.writebacks.remove(&block);
            }
            other => panic!("cache complex received unexpected message {other:?}"),
        }
    }

    /// Advance time; drains due internal events.
    pub fn tick(&mut self, now: Cycle) {
        while let Some(ev) = self.events.pop_ready(now) {
            match ev {
                Ev::Lookup(a) => self.lookup(now, a),
                Ev::Transfer(a) => self.finish_transfer(now, a),
            }
        }
    }

    /// Next completed access, if any.
    pub fn pop_completion(&mut self) -> Option<Completion> {
        self.completions.pop_front()
    }

    /// Next outbound protocol message, if any.
    pub fn pop_egress(&mut self) -> Option<Egress> {
        self.egress.pop_front()
    }

    /// Debug/test visibility: `(l1_present, ni_present, dirty)` of a block.
    pub fn probe(&self, block: BlockAddr) -> (bool, bool, bool) {
        match self.lines.get(&block) {
            Some(l) => (l.l1.present(), l.ni.present(), l.dirty()),
            None => (false, false, false),
        }
    }

    /// True when the NI cache holds `block` in the Owned state.
    pub fn ni_holds_owned(&self, block: BlockAddr) -> bool {
        self.lines.get(&block).is_some_and(|l| l.ni == LineState::O)
    }

    // ---- internals -------------------------------------------------------

    fn send(&mut self, dst: NocNode, kind: ClientKind, msg: CohMsg) {
        self.egress.push_back(Egress { dst, kind, msg });
    }

    fn dir_of(&self, block: BlockAddr) -> NocNode {
        (self.home)(block, self.n_banks)
    }

    fn complete(&mut self, now: Cycle, a: Access, value: u64) {
        self.completions.push_back(Completion {
            origin: a.origin,
            tag: a.tag,
            value,
            at: now,
        });
    }

    fn touch(&mut self, block: BlockAddr) {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        if let Some(l) = self.lines.get_mut(&block) {
            l.lru = clock;
        }
    }

    fn lookup(&mut self, now: Cycle, a: Access) {
        // A transient block: join the MSHR (widening to exclusive later if a
        // store arrives is handled by re-issue on fill).
        if let Some(m) = self.mshrs.get_mut(&a.block) {
            if a.kind == AccessKind::Store && !m.want_exclusive {
                // The outstanding GetS will fill as shared; the queued store
                // re-runs after the fill and upgrades then.
            }
            m.waiters.push(a);
            return;
        }
        if self.writebacks.contains_key(&a.block) {
            // Line is leaving; retry after the PutAck by deferring a cycle.
            self.events.push_after(now, 2, Ev::Lookup(a));
            return;
        }
        self.touch(a.block);
        let line = self.lines.get(&a.block).copied().unwrap_or_default();
        let own = line.state_of(a.origin);
        let other_origin = match a.origin {
            AccessOrigin::Core => AccessOrigin::Ni,
            AccessOrigin::Ni => AccessOrigin::Core,
        };
        let other = line.state_of(other_origin);

        match a.kind {
            AccessKind::Load if own.present() => {
                self.stats.hits.incr();
                self.complete(now, a, line.value);
            }
            AccessKind::Store if own.writable() => {
                self.stats.hits.incr();
                let l = self.lines.entry(a.block).or_default();
                l.set_state(a.origin, LineState::M);
                l.value = a.store_value;
                self.complete(now, a, a.store_value);
            }
            // Store with only an O copy in the NI cache (NI re-writing a CQ
            // block it still owns): O is dirty ownership, write in place and
            // the L1's stale S copy is invalidated internally.
            AccessKind::Store if a.origin == AccessOrigin::Ni && own == LineState::O => {
                self.stats.hits.incr();
                let l = self.lines.entry(a.block).or_default();
                l.ni = LineState::M;
                l.l1 = LineState::I;
                l.value = a.store_value;
                self.complete(now, a, a.store_value);
            }
            _ if other.present() => {
                // Back-side snoop hit: the other structure has the block.
                self.stats.internal_transfers.incr();
                self.events
                    .push_after(now, NI_TRANSFER_LATENCY, Ev::Transfer(a));
            }
            _ if own == LineState::S && a.kind == AccessKind::Store => {
                // Upgrade: issue GetX (the directory excludes us from the
                // invalidation list since we are a tracked sharer).
                self.miss(a, true);
            }
            _ => {
                let excl = a.kind == AccessKind::Store;
                self.miss(a, excl);
            }
        }
    }

    /// Finish an internal L1 <-> NI transfer decided [`NI_TRANSFER_LATENCY`]
    /// cycles ago; re-evaluates state so racing invalidations are honored.
    fn finish_transfer(&mut self, now: Cycle, a: Access) {
        let Some(line) = self.lines.get(&a.block).copied() else {
            // Invalidated while the transfer was in flight: fall back to a
            // fresh lookup which will miss and go to the directory.
            self.events.push_after(now, 1, Ev::Lookup(a));
            return;
        };
        let other_origin = match a.origin {
            AccessOrigin::Core => AccessOrigin::Ni,
            AccessOrigin::Ni => AccessOrigin::Core,
        };
        let other = line.state_of(other_origin);
        if !other.present() {
            self.events.push_after(now, 1, Ev::Lookup(a));
            return;
        }
        let l = self.lines.get_mut(&a.block).expect("present above");
        match a.kind {
            AccessKind::Load => {
                match (a.origin, other) {
                    // Core polls a dirty NI block: the paper's Owned-state
                    // fast path (§3.4) — clean copy to the L1, NI keeps the
                    // dirty block as O.
                    (AccessOrigin::Core, LineState::M | LineState::O)
                        if self.cfg.ni_owned_state =>
                    {
                        l.ni = LineState::O;
                        l.l1 = LineState::S;
                        self.stats.owned_fast_paths.incr();
                        let v = l.value;
                        self.complete(now, a, v);
                    }
                    // Owned-state disabled: the NI must write the dirty block
                    // back to the LLC first, then the core re-requests it
                    // through the directory (slow path, ablation A2).
                    (AccessOrigin::Core, LineState::M | LineState::O) => {
                        let value = l.value;
                        l.ni = LineState::I;
                        l.l1 = LineState::I;
                        let dirty_line = *l;
                        if !dirty_line.present() {
                            self.lines.remove(&a.block);
                        }
                        self.stats.writebacks.incr();
                        self.writebacks.insert(
                            a.block,
                            Writeback {
                                value,
                                surrendered: false,
                            },
                        );
                        let dir = self.dir_of(a.block);
                        self.send(
                            dir,
                            ClientKind::Directory,
                            CohMsg::PutM {
                                block: a.block,
                                value,
                            },
                        );
                        // Re-run the access; it will stall on the writeback
                        // then miss to the directory.
                        self.events.push_after(now, 1, Ev::Lookup(a));
                    }
                    // Exclusive clean copies migrate wholesale.
                    (_, LineState::E) => {
                        l.set_state(other_origin, LineState::I);
                        l.set_state(a.origin, LineState::E);
                        let v = l.value;
                        self.complete(now, a, v);
                    }
                    // NI reads a block the core has modified (WQ entry):
                    // ownership migrates across the back side.
                    (AccessOrigin::Ni, LineState::M) => {
                        l.l1 = LineState::I;
                        l.ni = LineState::M;
                        let v = l.value;
                        self.complete(now, a, v);
                    }
                    // Shared copies replicate.
                    (_, LineState::S | LineState::O) => {
                        if other == LineState::O {
                            // Core S copy exists alongside NI's O already.
                        }
                        l.set_state(a.origin, LineState::S);
                        let v = l.value;
                        self.complete(now, a, v);
                    }
                    (_, LineState::I) => unreachable!("checked present"),
                }
            }
            AccessKind::Store => {
                // Ownership (or the right to write) moves to the storer.
                if other.writable() || other == LineState::O {
                    l.set_state(other_origin, LineState::I);
                    l.set_state(a.origin, LineState::M);
                    l.value = a.store_value;
                    self.complete(now, a, a.store_value);
                } else {
                    // Both at most S: need a GetX upgrade.
                    let excl = true;
                    self.miss(a, excl);
                }
            }
        }
    }

    fn miss(&mut self, a: Access, exclusive: bool) {
        self.stats.misses.incr();
        let dir = self.dir_of(a.block);
        let msg = if exclusive {
            CohMsg::GetX { block: a.block }
        } else {
            CohMsg::GetS { block: a.block }
        };
        self.send(dir, ClientKind::Directory, msg);
        self.mshrs.insert(
            a.block,
            Mshr {
                want_exclusive: exclusive,
                has_data: false,
                exclusive_grant: false,
                value: 0,
                pending_acks: 0,
                waiters: vec![a],
                deferred: Vec::new(),
                fill_to: a.origin,
                invalidated: false,
            },
        );
    }

    fn handle_fill(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        value: u64,
        exclusive: bool,
        acks: i64,
    ) {
        let Some(m) = self.mshrs.get_mut(&block) else {
            panic!("fill for block with no MSHR: {block:?}");
        };
        m.has_data = true;
        m.value = value;
        m.exclusive_grant = m.exclusive_grant || exclusive;
        m.pending_acks += acks;
        self.try_finish_fill(now, block);
    }

    fn try_finish_fill(&mut self, now: Cycle, block: BlockAddr) {
        let ready = self
            .mshrs
            .get(&block)
            .is_some_and(|m| m.has_data && m.pending_acks <= 0);
        if !ready {
            return;
        }
        let mut m = self.mshrs.remove(&block).expect("checked above");
        let mut value = m.value;

        // Apply waiting accesses in order; stores update the value.
        let grants_write = m.exclusive_grant;
        let mut wrote = false;
        let mut completions = Vec::new();
        let mut retries = Vec::new();
        for a in m.waiters.drain(..) {
            match a.kind {
                AccessKind::Load => completions.push((a, value)),
                AccessKind::Store if grants_write => {
                    value = a.store_value;
                    wrote = true;
                    completions.push((a, value));
                }
                AccessKind::Store => retries.push(a),
            }
        }

        if !m.invalidated {
            let state = if wrote {
                LineState::M
            } else if m.exclusive_grant {
                LineState::E
            } else {
                LineState::S
            };
            self.lru_clock += 1;
            let line = self.lines.entry(block).or_default();
            line.set_state(m.fill_to, state);
            line.value = value;
            line.lru = self.lru_clock;
        }

        for (a, v) in completions {
            self.complete(now, a, v);
        }
        // Stores that arrived under a shared fill re-issue as upgrades.
        for a in retries {
            self.events.push_after(now, 1, Ev::Lookup(a));
        }
        // Replay forwards that raced the transient window.
        for msg in std::mem::take(&mut m.deferred) {
            self.deliver(now, msg);
        }
        self.enforce_capacity();
    }

    fn handle_inv(&mut self, now: Cycle, block: BlockAddr, ack_to: NocNode, akind: ClientKind) {
        let _ = now;
        if let Some(l) = self.lines.get_mut(&block) {
            l.l1 = LineState::I;
            l.ni = LineState::I;
            self.lines.remove(&block);
        }
        if let Some(m) = self.mshrs.get_mut(&block) {
            if !m.want_exclusive {
                m.invalidated = true;
            }
        }
        // Inexact directory: acknowledge even when we hold nothing.
        self.send(ack_to, akind, CohMsg::InvAck { block });
    }

    fn handle_fwd(&mut self, now: Cycle, msg: CohMsg) {
        let block = msg.block();
        // Transient: buffer until the open transaction resolves.
        if let Some(m) = self.mshrs.get_mut(&block) {
            m.deferred.push(msg);
            return;
        }
        let (requester, rkind, is_getx) = match msg {
            CohMsg::FwdGetS {
                requester, rkind, ..
            } => (requester, rkind, false),
            CohMsg::FwdGetX {
                requester, rkind, ..
            } => (requester, rkind, true),
            _ => unreachable!("handle_fwd only sees forwards"),
        };
        let dir = self.dir_of(block);

        // A writeback is racing this forward: serve from the writeback value.
        if let Some(wb) = self.writebacks.get_mut(&block) {
            let value = wb.value;
            wb.surrendered = true;
            self.stats.forwards_served.incr();
            if is_getx {
                self.send(requester, rkind, CohMsg::DataM { block, value });
                self.send(dir, ClientKind::Directory, CohMsg::AckX { block });
            } else {
                self.send(requester, rkind, CohMsg::DataS { block, value });
                self.send(
                    dir,
                    ClientKind::Directory,
                    CohMsg::OwnerData {
                        block,
                        value,
                        dirty: true,
                    },
                );
            }
            return;
        }

        let Some(line) = self.lines.get(&block).copied() else {
            // Silent clean eviction beat the directory's knowledge.
            self.stats.forward_misses.incr();
            self.send(
                dir,
                ClientKind::Directory,
                CohMsg::FwdMiss {
                    block,
                    was_getx: is_getx,
                    requester,
                },
            );
            return;
        };
        let value = line.value;
        let dirty = line.dirty();
        self.stats.forwards_served.incr();
        if is_getx {
            self.lines.remove(&block);
            self.send(requester, rkind, CohMsg::DataM { block, value });
            self.send(dir, ClientKind::Directory, CohMsg::AckX { block });
        } else {
            // Demote to shared; the dirty copy is surrendered to the LLC.
            let l = self.lines.get_mut(&block).expect("present above");
            if l.l1.present() {
                l.l1 = LineState::S;
            }
            if l.ni.present() {
                l.ni = LineState::S;
            }
            self.send(requester, rkind, CohMsg::DataS { block, value });
            self.send(
                dir,
                ClientKind::Directory,
                CohMsg::OwnerData {
                    block,
                    value,
                    dirty,
                },
            );
        }
        let _ = now;
    }

    /// Evict LRU stable lines when over capacity.
    fn enforce_capacity(&mut self) {
        let cap = self.cfg.l1_blocks
            + if self.has_ni_cache {
                self.cfg.ni_cache_blocks
            } else {
                0
            };
        while self.lines.len() > cap {
            let victim = self
                .lines
                .iter()
                .filter(|(b, _)| !self.mshrs.contains_key(b) && !self.writebacks.contains_key(b))
                .min_by_key(|(_, l)| l.lru)
                .map(|(b, l)| (*b, *l));
            let Some((block, line)) = victim else { return };
            self.lines.remove(&block);
            if line.dirty() {
                self.stats.writebacks.incr();
                self.writebacks.insert(
                    block,
                    Writeback {
                        value: line.value,
                        surrendered: false,
                    },
                );
                let dir = self.dir_of(block);
                self.send(
                    dir,
                    ClientKind::Directory,
                    CohMsg::PutM {
                        block,
                        value: line.value,
                    },
                );
            }
            // Clean lines evict silently (inexact, non-notifying directory).
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn home(_: BlockAddr, _: u32) -> NocNode {
        NocNode::tile(0, 0)
    }

    fn complex() -> CacheComplex {
        CacheComplex::new(
            CoherenceConfig::default(),
            NocNode::tile(1, 1),
            true,
            home,
            64,
        )
    }

    fn load(block: u64, tag: u64, origin: AccessOrigin) -> Access {
        Access {
            origin,
            kind: AccessKind::Load,
            block: BlockAddr(block),
            store_value: 0,
            tag,
        }
    }

    fn store(block: u64, value: u64, tag: u64, origin: AccessOrigin) -> Access {
        Access {
            origin,
            kind: AccessKind::Store,
            block: BlockAddr(block),
            store_value: value,
            tag,
        }
    }

    /// Run `cx` forward until a completion appears or `limit` cycles pass.
    fn run_until_completion(
        cx: &mut CacheComplex,
        mut now: Cycle,
        limit: u64,
    ) -> (Completion, Cycle) {
        let start = now;
        loop {
            cx.tick(now);
            if let Some(c) = cx.pop_completion() {
                return (c, now);
            }
            now += 1;
            assert!(now.0 < start.0 + limit, "no completion within {limit}");
        }
    }

    #[test]
    fn cold_load_issues_gets() {
        let mut cx = complex();
        cx.submit(Cycle(0), load(5, 1, AccessOrigin::Core)).unwrap();
        cx.tick(Cycle(3));
        let e = cx.pop_egress().expect("miss egress");
        assert_eq!(
            e.msg,
            CohMsg::GetS {
                block: BlockAddr(5)
            }
        );
        // Fill with exclusive data; completion carries the value.
        cx.deliver(
            Cycle(20),
            CohMsg::DataE {
                block: BlockAddr(5),
                value: 77,
                acks: 0,
            },
        );
        let (c, _) = run_until_completion(&mut cx, Cycle(20), 10);
        assert_eq!(c.value, 77);
        // Next load hits in 3 cycles.
        cx.submit(Cycle(30), load(5, 2, AccessOrigin::Core))
            .unwrap();
        let (c2, at) = run_until_completion(&mut cx, Cycle(30), 10);
        assert_eq!(c2.value, 77);
        assert_eq!(at, Cycle(33));
        assert_eq!(cx.stats().hits.get(), 1);
    }

    #[test]
    fn store_miss_issues_getx_and_waits_for_acks() {
        let mut cx = complex();
        cx.submit(Cycle(0), store(9, 42, 1, AccessOrigin::Core))
            .unwrap();
        cx.tick(Cycle(3));
        assert_eq!(
            cx.pop_egress().unwrap().msg,
            CohMsg::GetX {
                block: BlockAddr(9)
            }
        );
        // Data arrives expecting 2 acks: not complete yet.
        cx.deliver(
            Cycle(10),
            CohMsg::DataE {
                block: BlockAddr(9),
                value: 0,
                acks: 2,
            },
        );
        cx.tick(Cycle(11));
        assert!(cx.pop_completion().is_none());
        cx.deliver(
            Cycle(12),
            CohMsg::InvAck {
                block: BlockAddr(9),
            },
        );
        cx.tick(Cycle(13));
        assert!(cx.pop_completion().is_none());
        cx.deliver(
            Cycle(14),
            CohMsg::InvAck {
                block: BlockAddr(9),
            },
        );
        let (c, _) = run_until_completion(&mut cx, Cycle(14), 10);
        assert_eq!(c.value, 42);
        let (_, _, dirty) = cx.probe(BlockAddr(9));
        assert!(dirty);
    }

    #[test]
    fn acks_before_data_do_not_complete_early() {
        let mut cx = complex();
        cx.submit(Cycle(0), store(9, 42, 1, AccessOrigin::Core))
            .unwrap();
        cx.tick(Cycle(3));
        cx.pop_egress().unwrap();
        cx.deliver(
            Cycle(5),
            CohMsg::InvAck {
                block: BlockAddr(9),
            },
        );
        cx.tick(Cycle(6));
        assert!(cx.pop_completion().is_none());
        cx.deliver(
            Cycle(8),
            CohMsg::DataE {
                block: BlockAddr(9),
                value: 0,
                acks: 1,
            },
        );
        let (c, _) = run_until_completion(&mut cx, Cycle(8), 10);
        assert_eq!(c.value, 42);
    }

    #[test]
    fn internal_transfer_moves_wq_block_to_ni_without_directory() {
        let mut cx = complex();
        // Core fills and dirties the WQ block.
        cx.submit(Cycle(0), store(3, 100, 1, AccessOrigin::Core))
            .unwrap();
        cx.tick(Cycle(3));
        cx.pop_egress().unwrap();
        cx.deliver(
            Cycle(5),
            CohMsg::DataE {
                block: BlockAddr(3),
                value: 0,
                acks: 0,
            },
        );
        run_until_completion(&mut cx, Cycle(5), 10);
        // NI polls the WQ block: internal transfer, no egress.
        cx.submit(Cycle(20), load(3, 2, AccessOrigin::Ni)).unwrap();
        let (c, at) = run_until_completion(&mut cx, Cycle(20), 20);
        assert_eq!(c.value, 100);
        // 1 (NI tag) + 5 (transfer) cycles.
        assert_eq!(at, Cycle(26));
        assert!(cx.pop_egress().is_none(), "no directory traffic");
        assert_eq!(cx.stats().internal_transfers.get(), 1);
    }

    #[test]
    fn owned_state_serves_core_poll_of_dirty_cq_block() {
        let mut cx = complex();
        // NI fills and dirties the CQ block (writing a completion).
        cx.submit(Cycle(0), store(4, 7, 1, AccessOrigin::Ni))
            .unwrap();
        cx.tick(Cycle(1));
        cx.pop_egress().unwrap();
        cx.deliver(
            Cycle(3),
            CohMsg::DataE {
                block: BlockAddr(4),
                value: 0,
                acks: 0,
            },
        );
        run_until_completion(&mut cx, Cycle(3), 10);
        // Core polls: Owned fast path gives a clean copy, NI keeps O.
        cx.submit(Cycle(10), load(4, 2, AccessOrigin::Core))
            .unwrap();
        let (c, _) = run_until_completion(&mut cx, Cycle(10), 20);
        assert_eq!(c.value, 7);
        assert!(cx.ni_holds_owned(BlockAddr(4)));
        assert!(cx.pop_egress().is_none(), "no writeback with Owned state");
        assert_eq!(cx.stats().owned_fast_paths.get(), 1);
    }

    #[test]
    fn without_owned_state_core_poll_forces_writeback() {
        let cfg = CoherenceConfig {
            ni_owned_state: false,
            ..CoherenceConfig::default()
        };
        let mut cx = CacheComplex::new(cfg, NocNode::tile(1, 1), true, home, 64);
        cx.submit(Cycle(0), store(4, 7, 1, AccessOrigin::Ni))
            .unwrap();
        cx.tick(Cycle(1));
        cx.pop_egress().unwrap();
        cx.deliver(
            Cycle(3),
            CohMsg::DataE {
                block: BlockAddr(4),
                value: 0,
                acks: 0,
            },
        );
        run_until_completion(&mut cx, Cycle(3), 10);
        cx.submit(Cycle(10), load(4, 2, AccessOrigin::Core))
            .unwrap();
        // The poll triggers a PutM instead of completing locally.
        let mut now = Cycle(10);
        let put = loop {
            cx.tick(now);
            if let Some(e) = cx.pop_egress() {
                break e;
            }
            now += 1;
            assert!(now.0 < 50);
        };
        assert!(matches!(put.msg, CohMsg::PutM { value: 7, .. }));
        assert_eq!(cx.stats().writebacks.get(), 1);
    }

    #[test]
    fn fwd_gets_demotes_and_refreshes_llc() {
        let mut cx = complex();
        cx.submit(Cycle(0), store(6, 55, 1, AccessOrigin::Core))
            .unwrap();
        cx.tick(Cycle(3));
        cx.pop_egress().unwrap();
        cx.deliver(
            Cycle(5),
            CohMsg::DataE {
                block: BlockAddr(6),
                value: 0,
                acks: 0,
            },
        );
        run_until_completion(&mut cx, Cycle(5), 10);
        let peer = NocNode::tile(3, 3);
        cx.deliver(
            Cycle(20),
            CohMsg::FwdGetS {
                block: BlockAddr(6),
                requester: peer,
                rkind: ClientKind::Cache,
            },
        );
        cx.tick(Cycle(21));
        let d = cx.pop_egress().unwrap();
        assert_eq!(d.dst, peer);
        assert_eq!(
            d.msg,
            CohMsg::DataS {
                block: BlockAddr(6),
                value: 55
            }
        );
        let od = cx.pop_egress().unwrap();
        assert_eq!(
            od.msg,
            CohMsg::OwnerData {
                block: BlockAddr(6),
                value: 55,
                dirty: true
            }
        );
        let (l1, _, dirty) = cx.probe(BlockAddr(6));
        assert!(l1);
        assert!(!dirty, "demoted to clean shared");
    }

    #[test]
    fn fwd_getx_surrenders_ownership() {
        let mut cx = complex();
        cx.submit(Cycle(0), store(6, 55, 1, AccessOrigin::Core))
            .unwrap();
        cx.tick(Cycle(3));
        cx.pop_egress().unwrap();
        cx.deliver(
            Cycle(5),
            CohMsg::DataE {
                block: BlockAddr(6),
                value: 0,
                acks: 0,
            },
        );
        run_until_completion(&mut cx, Cycle(5), 10);
        let peer = NocNode::tile(3, 3);
        cx.deliver(
            Cycle(20),
            CohMsg::FwdGetX {
                block: BlockAddr(6),
                requester: peer,
                rkind: ClientKind::Cache,
            },
        );
        cx.tick(Cycle(21));
        assert_eq!(
            cx.pop_egress().unwrap().msg,
            CohMsg::DataM {
                block: BlockAddr(6),
                value: 55
            }
        );
        assert_eq!(
            cx.pop_egress().unwrap().msg,
            CohMsg::AckX {
                block: BlockAddr(6)
            }
        );
        let (l1, ni, _) = cx.probe(BlockAddr(6));
        assert!(!l1 && !ni);
    }

    #[test]
    fn fwd_to_absent_block_reports_miss() {
        let mut cx = complex();
        let peer = NocNode::tile(3, 3);
        cx.deliver(
            Cycle(0),
            CohMsg::FwdGetS {
                block: BlockAddr(1),
                requester: peer,
                rkind: ClientKind::Cache,
            },
        );
        cx.tick(Cycle(1));
        let e = cx.pop_egress().unwrap();
        assert_eq!(
            e.msg,
            CohMsg::FwdMiss {
                block: BlockAddr(1),
                was_getx: false,
                requester: peer
            }
        );
        assert_eq!(cx.stats().forward_misses.get(), 1);
    }

    #[test]
    fn inv_acks_even_when_absent_and_poisons_pending_fill() {
        let mut cx = complex();
        let req = NocNode::tile(2, 2);
        cx.deliver(
            Cycle(0),
            CohMsg::Inv {
                block: BlockAddr(8),
                ack_to: req,
                akind: ClientKind::Cache,
            },
        );
        cx.tick(Cycle(1));
        let e = cx.pop_egress().unwrap();
        assert_eq!(e.dst, req);
        assert_eq!(
            e.msg,
            CohMsg::InvAck {
                block: BlockAddr(8)
            }
        );

        // Pending GetS invalidated mid-fill: data satisfies the load but the
        // line is not installed.
        cx.submit(Cycle(10), load(9, 1, AccessOrigin::Core))
            .unwrap();
        cx.tick(Cycle(13));
        cx.pop_egress().unwrap();
        cx.deliver(
            Cycle(15),
            CohMsg::Inv {
                block: BlockAddr(9),
                ack_to: req,
                akind: ClientKind::Cache,
            },
        );
        cx.tick(Cycle(16));
        cx.pop_egress().unwrap(); // the InvAck
        cx.deliver(
            Cycle(18),
            CohMsg::DataS {
                block: BlockAddr(9),
                value: 5,
            },
        );
        let (c, _) = run_until_completion(&mut cx, Cycle(18), 10);
        assert_eq!(c.value, 5);
        let (l1, ni, _) = cx.probe(BlockAddr(9));
        assert!(!l1 && !ni, "line must not be installed after a raced Inv");
    }

    #[test]
    fn forward_during_writeback_serves_from_wb_buffer() {
        let mut cfg = CoherenceConfig {
            l1_blocks: 1,
            ..CoherenceConfig::default()
        };
        cfg.ni_cache_blocks = 0;
        let mut cx = CacheComplex::new(cfg, NocNode::tile(1, 1), false, home, 64);
        // Fill and dirty block 1.
        cx.submit(Cycle(0), store(1, 11, 1, AccessOrigin::Core))
            .unwrap();
        cx.tick(Cycle(3));
        cx.pop_egress().unwrap();
        cx.deliver(
            Cycle(5),
            CohMsg::DataE {
                block: BlockAddr(1),
                value: 0,
                acks: 0,
            },
        );
        run_until_completion(&mut cx, Cycle(5), 10);
        // Fill block 2: evicts block 1 (PutM).
        cx.submit(Cycle(20), store(2, 22, 2, AccessOrigin::Core))
            .unwrap();
        cx.tick(Cycle(23));
        cx.pop_egress().unwrap(); // GetX for block 2
        cx.deliver(
            Cycle(25),
            CohMsg::DataE {
                block: BlockAddr(2),
                value: 0,
                acks: 0,
            },
        );
        run_until_completion(&mut cx, Cycle(25), 10);
        let wb = cx.pop_egress().expect("eviction writeback");
        assert!(matches!(wb.msg, CohMsg::PutM { value: 11, .. }));
        // A FwdGetX races the PutM: served from the writeback buffer.
        let peer = NocNode::tile(4, 4);
        cx.deliver(
            Cycle(30),
            CohMsg::FwdGetX {
                block: BlockAddr(1),
                requester: peer,
                rkind: ClientKind::Cache,
            },
        );
        cx.tick(Cycle(31));
        assert_eq!(
            cx.pop_egress().unwrap().msg,
            CohMsg::DataM {
                block: BlockAddr(1),
                value: 11
            }
        );
        assert_eq!(
            cx.pop_egress().unwrap().msg,
            CohMsg::AckX {
                block: BlockAddr(1)
            }
        );
        // The stale PutAck still clears the writeback entry.
        cx.deliver(
            Cycle(40),
            CohMsg::PutAck {
                block: BlockAddr(1),
            },
        );
        assert!(cx.is_quiescent() || !cx.writebacks.contains_key(&BlockAddr(1)));
    }

    #[test]
    fn forwards_during_transient_are_deferred() {
        let mut cx = complex();
        cx.submit(Cycle(0), store(7, 1, 1, AccessOrigin::Core))
            .unwrap();
        cx.tick(Cycle(3));
        cx.pop_egress().unwrap();
        // Forward arrives before our fill: deferred.
        let peer = NocNode::tile(5, 5);
        cx.deliver(
            Cycle(4),
            CohMsg::FwdGetS {
                block: BlockAddr(7),
                requester: peer,
                rkind: ClientKind::Cache,
            },
        );
        cx.tick(Cycle(5));
        assert!(cx.pop_egress().is_none());
        // Fill lands; deferred forward is then served.
        cx.deliver(
            Cycle(6),
            CohMsg::DataE {
                block: BlockAddr(7),
                value: 0,
                acks: 0,
            },
        );
        run_until_completion(&mut cx, Cycle(6), 10);
        let d = cx.pop_egress().unwrap();
        assert_eq!(
            d.msg,
            CohMsg::DataS {
                block: BlockAddr(7),
                value: 1
            }
        );
    }

    #[test]
    fn mshr_exhaustion_backpressures() {
        let cfg = CoherenceConfig {
            l1_mshrs: 1,
            ..CoherenceConfig::default()
        };
        let mut cx = CacheComplex::new(cfg, NocNode::tile(1, 1), true, home, 64);
        cx.submit(Cycle(0), load(1, 1, AccessOrigin::Core)).unwrap();
        cx.tick(Cycle(3));
        assert!(cx.pop_egress().is_some());
        // Different block: MSHR full.
        assert!(cx.submit(Cycle(4), load(2, 2, AccessOrigin::Core)).is_err());
        // Same block: merges.
        assert!(cx.submit(Cycle(4), load(1, 3, AccessOrigin::Core)).is_ok());
    }

    /// Miss on `block` from `origin` at `now`, fill it shared, and return
    /// the cycle after the completion.
    fn fill(cx: &mut CacheComplex, now: Cycle, origin: AccessOrigin, block: u64) -> Cycle {
        cx.submit(now, load(block, block, origin)).unwrap();
        cx.tick(now + L1_LATENCY);
        assert!(matches!(cx.pop_egress().unwrap().msg, CohMsg::GetS { .. }));
        let at = now + L1_LATENCY + 1;
        let value = 1_000 + block;
        let fill = CohMsg::DataS {
            block: BlockAddr(block),
            value,
        };
        cx.deliver(at, fill);
        let (c, done) = run_until_completion(cx, at, 10);
        assert_eq!(c.value, value);
        done + 1
    }

    /// Resident blocks among `0..64`.
    fn resident(cx: &CacheComplex) -> Vec<u64> {
        (0..64)
            .filter(|&b| cx.probe(BlockAddr(b)) != (false, false, false))
            .collect()
    }

    /// `credit_hits` against the lookups it stands for: two complexes
    /// with the same lines, one running every load through
    /// `submit`/`tick`, the other credited. Their statistics agree, and so
    /// does every eviction once core fills push them past capacity, which
    /// only holds if each credited line carries the rank of its last
    /// touch. The cases cover NI polls of one and of three blocks, and a
    /// core poll merged with an NI poll, among them one whose last touches
    /// tie: the core's load, submitted two cycles earlier, looks up first.
    #[test]
    fn credited_hits_match_the_lookups_they_stand_for() {
        use AccessOrigin::{Core, Ni};
        let cfg = CoherenceConfig {
            l1_blocks: 3,
            ni_cache_blocks: 2,
            ..CoherenceConfig::default()
        };
        // Runs of (origin, blocks, first, first hit, period, hits).
        type Run = (AccessOrigin, &'static [u64], usize, u64, u64, u64);
        let cases: [&[Run]; 7] = [
            &[(Ni, &[10], 0, 101, 2, 5)],
            &[(Ni, &[10, 11, 12], 1, 101, 2, 2)],
            &[(Ni, &[10, 11, 12], 2, 101, 2, 7)],
            &[(Ni, &[10, 11, 12], 1, 101, 2, 3)],
            &[(Core, &[13], 0, 106, 7, 2), (Ni, &[10], 0, 101, 2, 7)],
            &[(Core, &[13], 0, 103, 6, 4), (Ni, &[10], 0, 104, 2, 9)],
            &[(Core, &[13], 0, 106, 7, 3), (Ni, &[10], 0, 101, 2, 0)],
        ];
        let latency = |o: AccessOrigin| if o == Core { L1_LATENCY } else { 1 };
        for runs in cases {
            let warm = || {
                let mut cx = CacheComplex::new(cfg, NocNode::tile(1, 1), true, home, 64);
                let mut now = Cycle(0);
                for &(origin, blocks, ..) in runs {
                    for &b in blocks {
                        now = fill(&mut cx, now, origin, b);
                    }
                }
                // A core line younger than every polled one, until the
                // polls touch them again.
                fill(&mut cx, now, Core, 20);
                cx
            };
            let (mut looked_up, mut credited) = (warm(), warm());
            // Every load by submit cycle; on a tie the core (its subphase
            // runs first) submits first.
            let mut loads: Vec<(u64, bool, AccessOrigin, u64)> = Vec::new();
            for &(origin, blocks, first, at, period, n) in runs {
                for k in 0..n {
                    let b = blocks[(first + k as usize) % blocks.len()];
                    let submit = at + k * period - latency(origin);
                    loads.push((submit, origin == Ni, origin, b));
                }
            }
            loads.sort_by_key(|&(submit, ni, _, b)| (submit, ni, b));
            let (mut hits, mut now) = (0, Cycle(96));
            for c in 96..130 {
                now = Cycle(c);
                for &(_, _, origin, b) in loads.iter().filter(|l| l.0 == c) {
                    assert!(looked_up.hit_value(origin, BlockAddr(b)).is_some());
                    looked_up.submit(now, load(b, c, origin)).unwrap();
                }
                looked_up.tick(now);
                while looked_up.pop_completion().is_some() {
                    hits += 1;
                }
            }
            assert!(looked_up.is_idle());
            let case = format!("{runs:?}");
            assert_eq!(hits, loads.len(), "{case}: every load hit");
            let credit: Vec<HitRun> = runs
                .iter()
                .map(|&(origin, blocks, first, at, period, n)| {
                    let blocks: Vec<BlockAddr> = blocks.iter().map(|&b| BlockAddr(b)).collect();
                    HitRun::new(origin, Cycle(at), period, n, &blocks, first)
                })
                .collect();
            credited.credit_hits(&credit);
            assert_eq!(looked_up.stats(), credited.stats(), "{case}");
            for fresh in 30..36 {
                fill(&mut looked_up, now, Core, fresh);
                fill(&mut credited, now, Core, fresh);
                now += 20;
                let at = format!("{case}, after filling {fresh}");
                assert_eq!(resident(&looked_up), resident(&credited), "{at}");
            }
        }
    }

    #[test]
    fn store_merging_under_shared_fill_upgrades() {
        let mut cx = complex();
        cx.submit(Cycle(0), load(5, 1, AccessOrigin::Core)).unwrap();
        cx.tick(Cycle(3));
        cx.pop_egress().unwrap(); // GetS
                                  // A store joins the outstanding load.
        cx.submit(Cycle(4), store(5, 9, 2, AccessOrigin::Core))
            .unwrap();
        cx.tick(Cycle(7));
        // Shared fill: load completes, store must upgrade via GetX.
        cx.deliver(
            Cycle(8),
            CohMsg::DataS {
                block: BlockAddr(5),
                value: 3,
            },
        );
        let (c, _) = run_until_completion(&mut cx, Cycle(8), 10);
        assert_eq!(c.tag, 1);
        assert_eq!(c.value, 3);
        // The retried store issues a GetX.
        let mut now = Cycle(9);
        let e = loop {
            cx.tick(now);
            if let Some(e) = cx.pop_egress() {
                break e;
            }
            now += 1;
            assert!(now.0 < 30);
        };
        assert_eq!(
            e.msg,
            CohMsg::GetX {
                block: BlockAddr(5)
            }
        );
        cx.deliver(
            now + 1,
            CohMsg::DataE {
                block: BlockAddr(5),
                value: 3,
                acks: 0,
            },
        );
        let (c2, _) = run_until_completion(&mut cx, now + 1, 10);
        assert_eq!(c2.tag, 2);
        assert_eq!(c2.value, 9);
    }
}
