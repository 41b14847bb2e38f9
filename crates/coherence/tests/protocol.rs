//! End-to-end protocol tests: cache complexes + directory banks + memory
//! controller wired over an ideal fixed-latency fabric (no NOC contention).
//!
//! These exercise the exact message sequences of Fig. 2 of the paper and the
//! race-prone corners of the blocking-directory MESI implementation, plus a
//! randomized coherence checker (single-writer/multiple-reader and
//! per-location write-order invariants).

use std::collections::HashMap;

use ni_coherence::{
    Access, AccessKind, AccessOrigin, CacheComplex, CohMsg, CoherenceConfig, Completion,
    DirectoryBank,
};
use ni_engine::{Cycle, DelayLine};
use ni_mem::{BlockAddr, MemConfig, MemRequestKind, MemoryController};
use ni_noc::NocNode;
use proptest::prelude::*;

/// Home mapping used by every test: banks live at row 7, block-interleaved.
fn home(b: BlockAddr, n_banks: u32) -> NocNode {
    NocNode::tile((b.0 % u64::from(n_banks)) as u8, 7)
}

const MC_NODE: NocNode = NocNode::Mc(0);

/// A transcript entry for message-sequence assertions.
#[derive(Debug, Clone)]
struct Sent {
    from: NocNode,
    to: NocNode,
    msg: CohMsg,
}

/// Ideal-fabric world: all messages arrive `fabric_latency` cycles later.
struct World {
    complexes: Vec<CacheComplex>,
    banks: Vec<DirectoryBank>,
    mc: MemoryController,
    fabric: DelayLine<Sent>,
    fabric_latency: u64,
    now: Cycle,
    transcript: Vec<Sent>,
    completions: Vec<(NocNode, Completion)>,
}

impl World {
    fn new(core_nodes: &[NocNode], ni_cache: bool, n_banks: u32, cfg: CoherenceConfig) -> World {
        let complexes = core_nodes
            .iter()
            .map(|&n| CacheComplex::new(cfg, n, ni_cache, home, n_banks))
            .collect();
        let banks = (0..n_banks)
            .map(|i| DirectoryBank::new(NocNode::tile(i as u8, 7), MC_NODE))
            .collect();
        World {
            complexes,
            banks,
            mc: MemoryController::new(MemConfig::default()),
            fabric: DelayLine::new(),
            fabric_latency: 3,
            now: Cycle(0),
            transcript: Vec::new(),
            completions: Vec::new(),
        }
    }

    fn complex_mut(&mut self, node: NocNode) -> &mut CacheComplex {
        self.complexes
            .iter_mut()
            .find(|c| c.node() == node)
            .expect("complex exists")
    }

    fn submit(&mut self, node: NocNode, a: Access) {
        let now = self.now;
        self.complex_mut(node).submit(now, a).expect("mshr free");
    }

    /// Inject a raw protocol message from a phantom client (e.g. an RRPP).
    fn inject(&mut self, from: NocNode, to: NocNode, msg: CohMsg) {
        self.fabric
            .push_after(self.now, self.fabric_latency, Sent { from, to, msg });
    }

    fn step(&mut self) {
        let now = self.now;
        // Deliver due fabric messages.
        while let Some(s) = self.fabric.pop_ready(now) {
            self.transcript.push(s.clone());
            if s.to == MC_NODE {
                // Only directory banks address the MC; the tag names the
                // sending bank.
                let tag = self
                    .banks
                    .iter()
                    .position(|b| b.node() == s.from)
                    .expect("MC request from a directory bank") as u64;
                match s.msg {
                    CohMsg::NcRead { block } => {
                        self.mc.push(now, block, MemRequestKind::Read, 0, tag);
                    }
                    CohMsg::NcWrite { block, value } => {
                        self.mc.push(now, block, MemRequestKind::Write, value, tag);
                    }
                    other => panic!("MC got {other:?}"),
                }
            } else if let Some(b) = self.banks.iter_mut().find(|b| b.node() == s.to) {
                b.deliver(now, s.from, s.msg);
            } else if let Some(c) = self.complexes.iter_mut().find(|c| c.node() == s.to) {
                c.deliver(now, s.msg);
            }
            // Messages to phantom clients (RRPP-style) stay in the
            // transcript only; tests assert on them there.
        }
        // Memory replies.
        while let Some(r) = self.mc.pop_ready(now) {
            let requester = self.banks[r.tag as usize].node();
            let reply = match r.kind {
                MemRequestKind::Read => CohMsg::NcData {
                    block: r.block,
                    value: r.value,
                },
                MemRequestKind::Write => CohMsg::NcWAck { block: r.block },
            };
            self.fabric.push_after(
                now,
                self.fabric_latency,
                Sent {
                    from: MC_NODE,
                    to: requester,
                    msg: reply,
                },
            );
        }
        // Tick everything and collect egress.
        for i in 0..self.complexes.len() {
            self.complexes[i].tick(now);
            let from = self.complexes[i].node();
            while let Some(e) = self.complexes[i].pop_egress() {
                self.fabric.push_after(
                    now,
                    self.fabric_latency,
                    Sent {
                        from,
                        to: e.dst,
                        msg: e.msg,
                    },
                );
            }
            while let Some(c) = self.complexes[i].pop_completion() {
                self.completions.push((from, c));
            }
        }
        for i in 0..self.banks.len() {
            self.banks[i].tick(now);
            let from = self.banks[i].node();
            while let Some(e) = self.banks[i].pop_egress() {
                self.fabric.push_after(
                    now,
                    self.fabric_latency,
                    Sent {
                        from,
                        to: e.dst,
                        msg: e.msg,
                    },
                );
            }
        }
        self.now += 1;
    }

    fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Run until a completion for `node` appears (panics after `limit`).
    fn run_until_completion(&mut self, node: NocNode, limit: u64) -> Completion {
        let start = self.now;
        loop {
            if let Some(i) = self.completions.iter().position(|(n, _)| *n == node) {
                return self.completions.remove(i).1;
            }
            self.step();
            assert!(
                self.now.0 < start.0 + limit,
                "no completion for {node:?} within {limit} cycles"
            );
        }
    }

    /// Count transcript messages matching a predicate.
    fn count_msgs(&self, f: impl Fn(&Sent) -> bool) -> usize {
        self.transcript.iter().filter(|s| f(s)).count()
    }
}

fn load(block: u64, tag: u64) -> Access {
    Access {
        origin: AccessOrigin::Core,
        kind: AccessKind::Load,
        block: BlockAddr(block),
        store_value: 0,
        tag,
    }
}

fn store(block: u64, value: u64, tag: u64) -> Access {
    Access {
        origin: AccessOrigin::Core,
        kind: AccessKind::Store,
        block: BlockAddr(block),
        store_value: value,
        tag,
    }
}

fn ni_load(block: u64, tag: u64) -> Access {
    Access {
        origin: AccessOrigin::Ni,
        kind: AccessKind::Load,
        block: BlockAddr(block),
        store_value: 0,
        tag,
    }
}

const CORE: NocNode = NocNode::Tile(ni_noc::Coord { x: 1, y: 0 });
const NI: NocNode = NocNode::NiBlock(0);
const PEER: NocNode = NocNode::Tile(ni_noc::Coord { x: 2, y: 0 });

#[test]
fn fig2a_wq_write_invalidates_polling_ni() {
    // Fig. 2a: the edge NI holds the WQ block (it polls it); core A's write
    // triggers GetX -> directory -> Inv to the NI -> InvAck to core A.
    let mut w = World::new(&[CORE, NI], true, 1, CoherenceConfig::default());
    // Steady state: the core wrote an earlier WQ entry (M), the NI polled it
    // (both demoted to S via a 3-hop forward).
    w.submit(CORE, store(0, 0xaaa, 1));
    w.run_until_completion(CORE, 500);
    w.submit(NI, ni_load(0, 1));
    w.run_until_completion(NI, 500);
    w.transcript.clear();
    // Core writes the next WQ entry into the shared block.
    w.submit(CORE, store(0, 0xabc, 2));
    let c = w.run_until_completion(CORE, 500);
    assert_eq!(c.value, 0xabc);
    // The critical-path messages of Fig. 2a all happened:
    assert_eq!(
        w.count_msgs(|s| matches!(s.msg, CohMsg::GetX { .. }) && s.from == CORE),
        1,
        "core sends GetX"
    );
    assert_eq!(
        w.count_msgs(|s| matches!(s.msg, CohMsg::Inv { .. }) && s.to == NI),
        1,
        "directory invalidates the NI copy"
    );
    assert_eq!(
        w.count_msgs(|s| matches!(s.msg, CohMsg::InvAck { .. }) && s.from == NI && s.to == CORE),
        1,
        "NI acks straight to the waiting core (MissNotify semantics)"
    );
    // NI copy is gone; core holds it dirty.
    let (_, ni_present, _) = w.complex_mut(NI).probe(BlockAddr(0));
    assert!(!ni_present);
    let (l1, _, dirty) = w.complex_mut(CORE).probe(BlockAddr(0));
    assert!(l1 && dirty);
}

#[test]
fn fig2b_ni_poll_forwards_from_owner() {
    // Fig. 2b: the NI polls a WQ block that core A modified: GetRO ->
    // directory -> ReadFwd to A -> ReadReply to the NI (+ OwnerData to dir).
    let mut w = World::new(&[CORE, NI], true, 1, CoherenceConfig::default());
    w.submit(CORE, store(0, 0x111, 1));
    w.run_until_completion(CORE, 500);
    w.submit(NI, ni_load(0, 2));
    let c = w.run_until_completion(NI, 500);
    assert_eq!(c.value, 0x111, "NI reads the entry the core wrote");
    assert_eq!(
        w.count_msgs(|s| matches!(s.msg, CohMsg::GetS { .. }) && s.from == NI),
        1
    );
    assert_eq!(
        w.count_msgs(|s| matches!(s.msg, CohMsg::FwdGetS { .. }) && s.to == CORE),
        1,
        "directory forwards to the owning core"
    );
    assert_eq!(
        w.count_msgs(|s| matches!(s.msg, CohMsg::DataS { .. }) && s.from == CORE && s.to == NI),
        1,
        "owner replies straight to the NI"
    );
    assert_eq!(
        w.count_msgs(|s| matches!(s.msg, CohMsg::OwnerData { .. }) && s.from == CORE),
        1,
        "owner refreshes the LLC copy"
    );
}

#[test]
fn value_propagates_through_ownership_chain() {
    let mut w = World::new(&[CORE, PEER], false, 1, CoherenceConfig::default());
    w.submit(CORE, store(5, 100, 1));
    w.run_until_completion(CORE, 500);
    // Peer reads: 3-hop forward, sees 100.
    w.submit(PEER, load(5, 2));
    assert_eq!(w.run_until_completion(PEER, 500).value, 100);
    // Peer writes: invalidates core's shared copy.
    w.submit(PEER, store(5, 200, 3));
    assert_eq!(w.run_until_completion(PEER, 500).value, 200);
    // Core re-reads: forwarded from peer, sees 200.
    w.submit(CORE, load(5, 4));
    assert_eq!(w.run_until_completion(CORE, 500).value, 200);
    // SWMR: peer demoted to shared after the final read.
    let (_, _, peer_dirty) = w.complex_mut(PEER).probe(BlockAddr(5));
    assert!(!peer_dirty, "owner demoted to clean shared after FwdGetS");
}

#[test]
fn nc_write_then_read_roundtrip_via_memory() {
    // An RRPP-style phantom client writes then reads through the directory.
    let rrpp = NocNode::NiBlock(3);
    let mut w = World::new(&[CORE], false, 1, CoherenceConfig::default());
    let dir = home(BlockAddr(9), 1);
    w.inject(
        rrpp,
        dir,
        CohMsg::NcWrite {
            block: BlockAddr(9),
            value: 777,
        },
    );
    w.run(60);
    assert_eq!(
        w.count_msgs(|s| matches!(s.msg, CohMsg::NcWAck { .. }) && s.to == rrpp),
        1,
        "NcWrite acknowledged"
    );
    w.inject(
        rrpp,
        dir,
        CohMsg::NcRead {
            block: BlockAddr(9),
        },
    );
    w.run(60);
    assert_eq!(
        w.count_msgs(|s| matches!(s.msg, CohMsg::NcData { value: 777, .. }) && s.to == rrpp),
        1,
        "NcRead returns the written value from the LLC"
    );
}

#[test]
fn nc_read_of_dirty_cached_block_forwards_from_owner() {
    let rrpp = NocNode::NiBlock(3);
    let mut w = World::new(&[CORE], false, 1, CoherenceConfig::default());
    w.submit(CORE, store(4, 0xdead, 1));
    w.run_until_completion(CORE, 500);
    let dir = home(BlockAddr(4), 1);
    w.inject(
        rrpp,
        dir,
        CohMsg::NcRead {
            block: BlockAddr(4),
        },
    );
    w.run(80);
    // Owner forwarded the dirty value directly to the RRPP.
    assert_eq!(
        w.count_msgs(|s| matches!(s.msg, CohMsg::DataS { value: 0xdead, .. }) && s.to == rrpp),
        1
    );
}

#[test]
fn nc_write_invalidates_sharers() {
    let rrpp = NocNode::NiBlock(3);
    let mut w = World::new(&[CORE, PEER], false, 1, CoherenceConfig::default());
    // Both cores share the block.
    w.submit(CORE, store(6, 1, 1));
    w.run_until_completion(CORE, 500);
    w.submit(PEER, load(6, 2));
    w.run_until_completion(PEER, 500);
    w.submit(CORE, load(6, 3));
    w.run_until_completion(CORE, 500);
    // RCP-style write must invalidate both copies before acking.
    let dir = home(BlockAddr(6), 1);
    w.inject(
        rrpp,
        dir,
        CohMsg::NcWrite {
            block: BlockAddr(6),
            value: 9,
        },
    );
    w.run(100);
    assert!(w.count_msgs(|s| matches!(s.msg, CohMsg::Inv { .. })) >= 1);
    assert_eq!(
        w.count_msgs(|s| matches!(s.msg, CohMsg::NcWAck { .. }) && s.to == rrpp),
        1
    );
    let (a, _, _) = w.complex_mut(CORE).probe(BlockAddr(6));
    let (b, _, _) = w.complex_mut(PEER).probe(BlockAddr(6));
    assert!(!a && !b, "all cached copies invalidated");
}

#[test]
fn silent_clean_eviction_resolves_via_fwd_miss() {
    let mut cfg = CoherenceConfig {
        l1_blocks: 2,
        ..CoherenceConfig::default()
    };
    cfg.ni_cache_blocks = 0;
    let mut w = World::new(&[CORE, PEER], false, 1, cfg);
    // Core fills block 1 exclusively (clean).
    w.submit(CORE, load(1, 1));
    w.run_until_completion(CORE, 500);
    // Evict it silently by filling two more blocks.
    w.submit(CORE, load(2, 2));
    w.run_until_completion(CORE, 500);
    w.submit(CORE, load(3, 3));
    w.run_until_completion(CORE, 500);
    // Peer now requests block 1: directory forwards to core, which misses.
    w.submit(PEER, load(1, 4));
    let c = w.run_until_completion(PEER, 1000);
    assert_eq!(c.value, 0, "untouched block reads as zero");
    assert!(
        w.count_msgs(|s| matches!(s.msg, CohMsg::FwdMiss { .. })) >= 1,
        "inexact directory tolerated the silent eviction"
    );
}

#[test]
fn dirty_eviction_writes_back_and_peer_reads_from_llc() {
    let mut cfg = CoherenceConfig {
        l1_blocks: 1,
        ..CoherenceConfig::default()
    };
    cfg.ni_cache_blocks = 0;
    let mut w = World::new(&[CORE, PEER], false, 1, cfg);
    w.submit(CORE, store(1, 0x42, 1));
    w.run_until_completion(CORE, 500);
    // Filling block 2 evicts dirty block 1 (PutM).
    w.submit(CORE, store(2, 0x43, 2));
    w.run_until_completion(CORE, 500);
    w.run(60); // let the PutM/PutAck drain
    assert!(w.count_msgs(|s| matches!(s.msg, CohMsg::PutM { value: 0x42, .. })) >= 1);
    // Peer read is served from the LLC without forwarding to the core.
    let before = w.count_msgs(|s| matches!(s.msg, CohMsg::FwdGetS { .. }));
    w.submit(PEER, load(1, 3));
    assert_eq!(w.run_until_completion(PEER, 500).value, 0x42);
    let after = w.count_msgs(|s| matches!(s.msg, CohMsg::FwdGetS { .. }));
    assert_eq!(before, after, "no forward needed after writeback");
}

#[test]
fn two_writers_alternate_ownership() {
    let mut w = World::new(&[CORE, PEER], false, 2, CoherenceConfig::default());
    for round in 0u64..6 {
        let (writer, tag) = if round % 2 == 0 {
            (CORE, round)
        } else {
            (PEER, round)
        };
        w.submit(writer, store(8, round + 1, tag));
        let c = w.run_until_completion(writer, 1000);
        assert_eq!(c.value, round + 1);
    }
    // Final owner is PEER (round 5); CORE must read 6.
    w.submit(CORE, load(8, 99));
    assert_eq!(w.run_until_completion(CORE, 1000).value, 6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized coherence checker: four cores, two banks, four blocks.
    /// Tokens written per block strictly increase; every reader must observe
    /// a non-decreasing token sequence per block (per-location coherence),
    /// and at most one complex may hold a block dirty at quiescence.
    #[test]
    fn random_ops_preserve_per_location_order(ops in proptest::collection::vec((0usize..4, 0u64..4, proptest::bool::ANY), 1..60)) {
        let nodes = [
            NocNode::tile(0, 0),
            NocNode::tile(1, 0),
            NocNode::tile(2, 0),
            NocNode::tile(3, 0),
        ];
        let mut w = World::new(&nodes, false, 2, CoherenceConfig::default());
        let mut token = [0u64; 4];
        let mut last_seen: HashMap<(NocNode, u64), u64> = HashMap::new();
        for (who, block, is_store) in ops {
            let node = nodes[who];
            let a = if is_store {
                token[block as usize] += 1;
                store(block, token[block as usize], 0)
            } else {
                load(block, 0)
            };
            w.submit(node, a);
            let c = w.run_until_completion(node, 4000);
            if !is_store {
                let seen = last_seen.entry((node, block)).or_insert(0);
                prop_assert!(
                    c.value >= *seen,
                    "per-location order violated: {:?} block {} saw {} after {}",
                    node, block, c.value, *seen
                );
                *seen = c.value;
            } else {
                last_seen.insert((node, block), c.value);
            }
        }
        // Quiesce and check SWMR.
        w.run(500);
        for blk in 0..4u64 {
            let dirty_holders = nodes
                .iter()
                .filter(|&&n| w.complex_mut(n).probe(BlockAddr(blk)).2)
                .count();
            prop_assert!(dirty_holders <= 1, "block {blk} has {dirty_holders} dirty holders");
        }
    }
}
