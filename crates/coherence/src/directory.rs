//! Directory + LLC bank controller.
//!
//! One instance per LLC bank: in the mesh organization that is one per tile
//! (Table 2: "1 bank/tile"), in NOC-Out one per LLC tile. Each bank owns the
//! directory slice and data array for the blocks that home to it under
//! static block interleaving, plus a port to its memory controller.
//!
//! The directory is *blocking*: while a transaction is open on a block,
//! later requests for that block queue behind it in arrival order. It is
//! also *inexact and non-notifying* (Table 2): clean copies may be dropped
//! silently by caches, so the sharer/owner bookkeeping over-approximates and
//! the protocol tolerates `InvAck`s from non-holders and `FwdMiss` replies
//! from presumed owners.

use std::collections::{BTreeMap, VecDeque};

use ni_engine::{Counter, Cycle, DelayLine};
use ni_mem::BlockAddr;
use ni_noc::NocNode;

use crate::config::CoherenceConfig;
use crate::llc::LlcArray;
use crate::msg::{ClientKind, CohMsg, Egress};

/// Stable directory state for one block.
#[derive(Clone, Debug, PartialEq, Eq)]
enum DirState {
    /// One or more read-only copies.
    Shared(Vec<NocNode>),
    /// A single writable (or silently-clean) copy.
    Exclusive(NocNode),
}

/// What a memory fill will be used for once it lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FillKind {
    GetS,
    GetX { acks: u32 },
    NcRead,
}

/// Open transaction on a block.
#[derive(Clone, Debug)]
enum Trans {
    /// Waiting for a memory fill.
    MemFill { requester: NocNode, kind: FillKind },
    /// FwdGetS outstanding; waiting for the owner's `OwnerData`.
    AwaitOwnerData {
        owner: NocNode,
        requester: NocNode,
        /// Requester is a non-caching client (RRPP): not added as a sharer.
        nc: bool,
    },
    /// FwdGetX outstanding; waiting for `AckX`.
    AwaitAckX { requester: NocNode },
    /// Non-caching write invalidating sharers; acks return to this bank.
    NcWriteInv {
        requester: NocNode,
        value: u64,
        pending: u32,
    },
    /// Non-caching write displacing an exclusive owner.
    NcWriteOwner {
        requester: NocNode,
        value: u64,
        got_data: bool,
        got_ack: bool,
    },
}

#[derive(Debug)]
struct Busy {
    trans: Trans,
    /// Requests that arrived while the transaction was open.
    queued: VecDeque<(NocNode, CohMsg)>,
}

/// Counters exposed by a bank.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirStats {
    /// Requests processed.
    pub requests: Counter,
    /// Requests that had to queue behind an open transaction.
    pub blocked: Counter,
    /// Fills requested from memory.
    pub mem_fills: Counter,
    /// Dirty LLC victims written back to memory.
    pub llc_writebacks: Counter,
    /// 3-hop forwards issued.
    pub forwards: Counter,
    /// Invalidations issued.
    pub invalidations: Counter,
}

/// One directory + LLC bank.
#[derive(Debug)]
pub struct DirectoryBank {
    cfg: CoherenceConfig,
    /// Our interconnect identity.
    me: NocNode,
    /// Memory controller servicing this bank.
    mc: NocNode,
    /// Per-block protocol state. Keyed access on the protocol paths, but
    /// `BTreeMap` keeps diagnostics and any future sweep deterministic.
    dir: BTreeMap<BlockAddr, DirState>,
    busy: BTreeMap<BlockAddr, Busy>,
    llc: LlcArray,
    inbox: VecDeque<(NocNode, CohMsg)>,
    /// Unblocked requests replayed ahead of new arrivals.
    replay: VecDeque<(NocNode, CohMsg)>,
    outbox: DelayLine<Egress>,
    egress: VecDeque<Egress>,
    stats: DirStats,
}

impl DirectoryBank {
    /// Create a bank identified as `me`, using memory controller `mc`.
    pub fn new(cfg: CoherenceConfig, me: NocNode, mc: NocNode) -> DirectoryBank {
        let llc = LlcArray::new(cfg.llc_sets().next_power_of_two(), cfg.llc_ways);
        DirectoryBank {
            cfg,
            me,
            mc,
            dir: BTreeMap::new(),
            busy: BTreeMap::new(),
            llc,
            inbox: VecDeque::new(),
            replay: VecDeque::new(),
            outbox: DelayLine::new(),
            egress: VecDeque::new(),
            stats: DirStats::default(),
        }
    }

    /// Our interconnect identity.
    pub fn node(&self) -> NocNode {
        self.me
    }

    /// Statistics.
    pub fn stats(&self) -> &DirStats {
        &self.stats
    }

    /// Earliest cycle (>= `now`) at which this bank does anything on its
    /// own. Queued or replayed requests and undrained egress demand a tick
    /// immediately; otherwise the only self-driven work is the delayed
    /// outbox. `None` means the bank is idle until the next
    /// [`DirectoryBank::deliver`] — open `busy` transactions wait on
    /// external messages and do not keep it ticking.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if !self.inbox.is_empty() || !self.replay.is_empty() || !self.egress.is_empty() {
            return Some(now);
        }
        self.outbox.next_ready_at()
    }

    /// Deliver a message from the interconnect.
    pub fn deliver(&mut self, _now: Cycle, from: NocNode, msg: CohMsg) {
        self.inbox.push_back((from, msg));
    }

    /// Advance one cycle: service up to `llc_bank_throughput` messages and
    /// release due outputs.
    pub fn tick(&mut self, now: Cycle) {
        for _ in 0..self.cfg.llc_bank_throughput {
            let next = self.replay.pop_front().or_else(|| self.inbox.pop_front());
            let Some((from, msg)) = next else { break };
            self.process(now, from, msg);
        }
        while let Some(e) = self.outbox.pop_ready(now) {
            self.egress.push_back(e);
        }
    }

    /// Next outbound message, if any.
    pub fn pop_egress(&mut self) -> Option<Egress> {
        self.egress.pop_front()
    }

    /// Test/experiment visibility: the LLC bank's current copy of `block`,
    /// without disturbing LRU state.
    pub fn peek_llc(&self, block: BlockAddr) -> Option<u64> {
        self.llc.peek(block).map(|(value, _)| value)
    }

    /// Overwrite the LLC bank's resident copy of `block` in place (marking
    /// it dirty); `false` when the bank holds no copy. Bypasses timing —
    /// experiment setup only.
    pub fn poke_llc(&mut self, block: BlockAddr, value: u64) -> bool {
        self.llc.update_in_place(block, value)
    }

    /// Test/debug visibility: `(is_shared, is_exclusive, llc_has_data)`.
    pub fn probe(&self, block: BlockAddr) -> (bool, bool, bool) {
        match self.dir.get(&block) {
            Some(DirState::Shared(_)) => (true, false, self.llc.contains(block)),
            Some(DirState::Exclusive(_)) => (false, true, self.llc.contains(block)),
            None => (false, false, self.llc.contains(block)),
        }
    }

    // ---- internals -------------------------------------------------------

    fn send(&mut self, now: Cycle, dst: NocNode, kind: ClientKind, msg: CohMsg) {
        self.outbox
            .push_after(now, self.cfg.llc_latency, Egress { dst, kind, msg });
    }

    /// Install into the LLC, writing back any dirty victim to memory.
    fn llc_install(&mut self, now: Cycle, block: BlockAddr, value: u64, dirty: bool) {
        if let Some(victim) = self.llc.install(block, value, dirty) {
            self.stats.llc_writebacks.incr();
            self.send(
                now,
                self.mc,
                ClientKind::NiData,
                CohMsg::NcWrite {
                    block: victim.block,
                    value: victim.value,
                },
            );
        }
    }

    fn begin(&mut self, block: BlockAddr, trans: Trans) {
        let prev = self.busy.insert(
            block,
            Busy {
                trans,
                queued: VecDeque::new(),
            },
        );
        debug_assert!(prev.is_none(), "transaction already open on {block:?}");
    }

    /// Close the transaction on `block` and schedule queued requests.
    fn finish(&mut self, block: BlockAddr) {
        if let Some(b) = self.busy.remove(&block) {
            for q in b.queued {
                self.replay.push_back(q);
            }
        }
    }

    fn request_fill(&mut self, now: Cycle, block: BlockAddr, requester: NocNode, kind: FillKind) {
        self.stats.mem_fills.incr();
        self.send(now, self.mc, ClientKind::NiData, CohMsg::NcRead { block });
        self.begin(block, Trans::MemFill { requester, kind });
    }

    fn process(&mut self, now: Cycle, from: NocNode, msg: CohMsg) {
        let block = msg.block();
        let is_request = matches!(
            msg,
            CohMsg::GetS { .. }
                | CohMsg::GetX { .. }
                | CohMsg::PutM { .. }
                | CohMsg::NcRead { .. }
                | CohMsg::NcWrite { .. }
        );
        if is_request {
            if let Some(b) = self.busy.get_mut(&block) {
                self.stats.blocked.incr();
                b.queued.push_back((from, msg));
                return;
            }
            self.stats.requests.incr();
        }
        match msg {
            CohMsg::GetS { block } => self.on_gets(now, block, from),
            CohMsg::GetX { block } => self.on_getx(now, block, from),
            CohMsg::PutM { block, value } => self.on_putm(now, block, from, value),
            CohMsg::NcRead { block } => self.on_ncread(now, block, from),
            CohMsg::NcWrite { block, value } => self.on_ncwrite(now, block, from, value),
            CohMsg::OwnerData {
                block,
                value,
                dirty,
            } => self.on_owner_data(now, block, value, dirty),
            CohMsg::AckX { block } => self.on_ackx(now, block),
            CohMsg::FwdMiss {
                block,
                was_getx,
                requester,
            } => self.on_fwd_miss(now, block, was_getx, requester),
            CohMsg::InvAck { block } => self.on_dir_invack(now, block),
            CohMsg::DataM { block, .. } => self.on_dir_datam(now, block),
            CohMsg::NcData { block, value } => self.on_mem_data(now, block, value),
            CohMsg::NcWAck { .. } => { /* memory writeback ack: fire-and-forget */ }
            other => panic!("directory received unexpected message {other:?}"),
        }
    }

    fn on_gets(&mut self, now: Cycle, block: BlockAddr, r: NocNode) {
        match self.dir.get(&block).cloned() {
            None => {
                if let Some((value, _)) = self.llc.get(block) {
                    // MESI: grant Exclusive on a read when no one else holds it.
                    self.dir.insert(block, DirState::Exclusive(r));
                    self.send(
                        now,
                        r,
                        ClientKind::Cache,
                        CohMsg::DataE {
                            block,
                            value,
                            acks: 0,
                        },
                    );
                } else {
                    self.request_fill(now, block, r, FillKind::GetS);
                }
            }
            Some(DirState::Shared(mut set)) => {
                if let Some((value, _)) = self.llc.get(block) {
                    if !set.contains(&r) {
                        set.push(r);
                    }
                    self.dir.insert(block, DirState::Shared(set));
                    self.send(now, r, ClientKind::Cache, CohMsg::DataS { block, value });
                } else {
                    // LLC data evicted under the sharers: refetch.
                    self.request_fill(now, block, r, FillKind::GetS);
                }
            }
            Some(DirState::Exclusive(o)) if o == r => {
                // Owner lost its copy silently (clean) and asks again.
                if let Some((value, _)) = self.llc.get(block) {
                    self.send(
                        now,
                        r,
                        ClientKind::Cache,
                        CohMsg::DataE {
                            block,
                            value,
                            acks: 0,
                        },
                    );
                } else {
                    self.dir.remove(&block);
                    self.request_fill(now, block, r, FillKind::GetS);
                }
            }
            Some(DirState::Exclusive(o)) => {
                self.stats.forwards.incr();
                self.send(
                    now,
                    o,
                    ClientKind::Cache,
                    CohMsg::FwdGetS {
                        block,
                        requester: r,
                        rkind: ClientKind::Cache,
                    },
                );
                self.begin(
                    block,
                    Trans::AwaitOwnerData {
                        owner: o,
                        requester: r,
                        nc: false,
                    },
                );
            }
        }
    }

    fn on_getx(&mut self, now: Cycle, block: BlockAddr, r: NocNode) {
        match self.dir.get(&block).cloned() {
            None => {
                if let Some((value, _)) = self.llc.get(block) {
                    self.dir.insert(block, DirState::Exclusive(r));
                    self.send(
                        now,
                        r,
                        ClientKind::Cache,
                        CohMsg::DataE {
                            block,
                            value,
                            acks: 0,
                        },
                    );
                } else {
                    self.request_fill(now, block, r, FillKind::GetX { acks: 0 });
                }
            }
            Some(DirState::Shared(set)) => {
                let others: Vec<NocNode> = set.into_iter().filter(|n| *n != r).collect();
                let acks = others.len() as u32;
                for s in &others {
                    self.stats.invalidations.incr();
                    self.send(
                        now,
                        *s,
                        ClientKind::Cache,
                        CohMsg::Inv {
                            block,
                            ack_to: r,
                            akind: ClientKind::Cache,
                        },
                    );
                }
                if let Some((value, _)) = self.llc.get(block) {
                    self.dir.insert(block, DirState::Exclusive(r));
                    self.send(
                        now,
                        r,
                        ClientKind::Cache,
                        CohMsg::DataE { block, value, acks },
                    );
                } else {
                    self.request_fill(now, block, r, FillKind::GetX { acks });
                }
            }
            Some(DirState::Exclusive(o)) if o == r => {
                if let Some((value, _)) = self.llc.get(block) {
                    self.send(
                        now,
                        r,
                        ClientKind::Cache,
                        CohMsg::DataE {
                            block,
                            value,
                            acks: 0,
                        },
                    );
                } else {
                    self.dir.remove(&block);
                    self.request_fill(now, block, r, FillKind::GetX { acks: 0 });
                }
            }
            Some(DirState::Exclusive(o)) => {
                self.stats.forwards.incr();
                self.send(
                    now,
                    o,
                    ClientKind::Cache,
                    CohMsg::FwdGetX {
                        block,
                        requester: r,
                        rkind: ClientKind::Cache,
                    },
                );
                self.begin(block, Trans::AwaitAckX { requester: r });
            }
        }
    }

    fn on_putm(&mut self, now: Cycle, block: BlockAddr, from: NocNode, value: u64) {
        let is_owner = matches!(self.dir.get(&block), Some(DirState::Exclusive(o)) if *o == from);
        if is_owner {
            self.dir.remove(&block);
            self.llc_install(now, block, value, true);
        }
        // Stale PutM (ownership already moved): ack without installing.
        self.send(now, from, ClientKind::Cache, CohMsg::PutAck { block });
    }

    fn on_ncread(&mut self, now: Cycle, block: BlockAddr, r: NocNode) {
        match self.dir.get(&block).cloned() {
            Some(DirState::Exclusive(o)) => {
                self.stats.forwards.incr();
                // The owner sends DataS straight to the non-caching client
                // and refreshes the LLC via OwnerData.
                self.send(
                    now,
                    o,
                    ClientKind::Cache,
                    CohMsg::FwdGetS {
                        block,
                        requester: r,
                        rkind: ClientKind::NiData,
                    },
                );
                self.begin(
                    block,
                    Trans::AwaitOwnerData {
                        owner: o,
                        requester: r,
                        nc: true,
                    },
                );
            }
            _ => {
                if let Some((value, _)) = self.llc.get(block) {
                    self.send(now, r, ClientKind::NiData, CohMsg::NcData { block, value });
                } else {
                    self.request_fill(now, block, r, FillKind::NcRead);
                }
            }
        }
    }

    fn on_ncwrite(&mut self, now: Cycle, block: BlockAddr, r: NocNode, value: u64) {
        match self.dir.get(&block).cloned() {
            None => {
                self.llc_install(now, block, value, true);
                self.send(now, r, ClientKind::NiData, CohMsg::NcWAck { block });
            }
            Some(DirState::Shared(set)) => {
                let pending = set.len() as u32;
                for s in &set {
                    self.stats.invalidations.incr();
                    self.send(
                        now,
                        *s,
                        ClientKind::Cache,
                        CohMsg::Inv {
                            block,
                            ack_to: self.me,
                            akind: ClientKind::Directory,
                        },
                    );
                }
                self.dir.remove(&block);
                if pending == 0 {
                    self.llc_install(now, block, value, true);
                    self.send(now, r, ClientKind::NiData, CohMsg::NcWAck { block });
                } else {
                    self.begin(
                        block,
                        Trans::NcWriteInv {
                            requester: r,
                            value,
                            pending,
                        },
                    );
                }
            }
            Some(DirState::Exclusive(o)) => {
                self.stats.forwards.incr();
                self.send(
                    now,
                    o,
                    ClientKind::Cache,
                    CohMsg::FwdGetX {
                        block,
                        requester: self.me,
                        rkind: ClientKind::Directory,
                    },
                );
                self.dir.remove(&block);
                self.begin(
                    block,
                    Trans::NcWriteOwner {
                        requester: r,
                        value,
                        got_data: false,
                        got_ack: false,
                    },
                );
            }
        }
    }

    fn on_owner_data(&mut self, now: Cycle, block: BlockAddr, value: u64, dirty: bool) {
        let Some(b) = self.busy.get(&block) else {
            panic!("OwnerData with no open transaction on {block:?}");
        };
        let Trans::AwaitOwnerData {
            owner,
            requester,
            nc,
        } = b.trans.clone()
        else {
            panic!("OwnerData during {:?}", b.trans);
        };
        self.llc_install(now, block, value, dirty);
        let mut set = vec![owner];
        if !nc && requester != owner {
            set.push(requester);
        }
        self.dir.insert(block, DirState::Shared(set));
        self.finish(block);
    }

    fn on_ackx(&mut self, now: Cycle, block: BlockAddr) {
        let Some(b) = self.busy.get(&block) else {
            panic!("AckX with no open transaction on {block:?}");
        };
        match b.trans.clone() {
            Trans::AwaitAckX { requester } => {
                // Ownership moved owner -> requester; any LLC copy is stale.
                self.llc.invalidate(block);
                self.dir.insert(block, DirState::Exclusive(requester));
                self.finish(block);
            }
            Trans::NcWriteOwner { .. } => {
                self.nc_write_owner_step(now, block, false, true);
            }
            other => panic!("AckX during {other:?}"),
        }
    }

    fn on_dir_datam(&mut self, now: Cycle, block: BlockAddr) {
        match self.busy.get(&block).map(|b| b.trans.clone()) {
            Some(Trans::NcWriteOwner { .. }) => self.nc_write_owner_step(now, block, true, false),
            other => panic!("DataM at directory during {other:?}"),
        }
    }

    fn nc_write_owner_step(&mut self, now: Cycle, block: BlockAddr, data: bool, ack: bool) {
        let b = self.busy.get_mut(&block).expect("open NcWriteOwner");
        let Trans::NcWriteOwner {
            requester,
            value,
            got_data,
            got_ack,
        } = &mut b.trans
        else {
            unreachable!("checked by callers");
        };
        *got_data |= data;
        *got_ack |= ack;
        if *got_data && *got_ack {
            let (r, v) = (*requester, *value);
            self.llc_install(now, block, v, true);
            self.send(now, r, ClientKind::NiData, CohMsg::NcWAck { block });
            self.finish(block);
        }
    }

    fn on_dir_invack(&mut self, now: Cycle, block: BlockAddr) {
        let Some(b) = self.busy.get_mut(&block) else {
            panic!("InvAck at directory with no open transaction on {block:?}");
        };
        let Trans::NcWriteInv {
            requester,
            value,
            pending,
        } = &mut b.trans
        else {
            panic!("InvAck at directory during {:?}", b.trans);
        };
        *pending -= 1;
        if *pending == 0 {
            let (r, v) = (*requester, *value);
            self.llc_install(now, block, v, true);
            self.send(now, r, ClientKind::NiData, CohMsg::NcWAck { block });
            self.finish(block);
        }
    }

    fn on_fwd_miss(&mut self, now: Cycle, block: BlockAddr, _was_getx: bool, requester: NocNode) {
        let Some(b) = self.busy.get(&block) else {
            panic!("FwdMiss with no open transaction on {block:?}");
        };
        let nc_read = matches!(b.trans, Trans::AwaitOwnerData { nc: true, .. });
        let nc_write = matches!(b.trans, Trans::NcWriteOwner { .. });
        // The presumed owner is gone; clear it.
        self.dir.remove(&block);
        if nc_write {
            let Trans::NcWriteOwner {
                requester: r,
                value,
                ..
            } = b.trans.clone()
            else {
                unreachable!();
            };
            self.llc_install(now, block, value, true);
            self.send(now, r, ClientKind::NiData, CohMsg::NcWAck { block });
            self.finish(block);
            return;
        }
        if let Some((value, _)) = self.llc.get(block) {
            if nc_read {
                self.send(
                    now,
                    requester,
                    ClientKind::NiData,
                    CohMsg::NcData { block, value },
                );
            } else {
                self.dir.insert(block, DirState::Exclusive(requester));
                self.send(
                    now,
                    requester,
                    ClientKind::Cache,
                    CohMsg::DataE {
                        block,
                        value,
                        acks: 0,
                    },
                );
            }
            self.finish(block);
        } else {
            // Re-open as a memory fill for the original requester.
            let kind = if nc_read {
                FillKind::NcRead
            } else {
                FillKind::GetS
            };
            self.finish(block);
            self.request_fill(now, block, requester, kind);
        }
    }

    fn on_mem_data(&mut self, now: Cycle, block: BlockAddr, value: u64) {
        let Some(b) = self.busy.get(&block) else {
            panic!("memory data with no open transaction on {block:?}");
        };
        let Trans::MemFill { requester, kind } = b.trans.clone() else {
            panic!("memory data during {:?}", b.trans);
        };
        self.llc_install(now, block, value, false);
        match kind {
            FillKind::GetS | FillKind::GetX { acks: 0 } => {
                self.dir.insert(block, DirState::Exclusive(requester));
                self.send(
                    now,
                    requester,
                    ClientKind::Cache,
                    CohMsg::DataE {
                        block,
                        value,
                        acks: 0,
                    },
                );
            }
            FillKind::GetX { acks } => {
                self.dir.insert(block, DirState::Exclusive(requester));
                self.send(
                    now,
                    requester,
                    ClientKind::Cache,
                    CohMsg::DataE { block, value, acks },
                );
            }
            FillKind::NcRead => {
                self.send(
                    now,
                    requester,
                    ClientKind::NiData,
                    CohMsg::NcData { block, value },
                );
            }
        }
        self.finish(block);
    }
}
