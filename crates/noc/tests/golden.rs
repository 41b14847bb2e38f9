//! Golden traces for both interconnects: seeded random traffic through
//! `MeshNoc` under every routing policy, and through `NocOutNoc`, with every
//! delivery hashed in the order it leaves the network.
//!
//! The traffic is heavy enough to exercise every backpressure path: sources
//! keep a head-first retry backlog (rejected injects still draw O1Turn's
//! coin, so retries shape the routes), some endpoints periodically stop
//! draining so delivery queues fill, and stretches of cycles go unticked so
//! link arrivals from several cycles are absorbed by a single tick. The
//! expected constants were recorded from the binary-heap link model the
//! ring-slot links replaced; any change to grant, arrival or delivery order
//! moves them.

use std::collections::{BTreeMap, VecDeque};

use ni_engine::{Cycle, RunningMean};
use ni_noc::{
    Interconnect, MeshConfig, MeshNoc, MessageClass, NocNode, NocOutNoc, NocStats, Packet,
    RouterConfig, RoutingPolicy, GRID,
};

/// Cycles during which new traffic is offered.
const OFFER_CYCLES: u64 = 1_500;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn mean(&mut self, m: &RunningMean) {
        self.word(m.count());
        self.word(m.sum() as u64);
        self.word(m.min().unwrap_or(u64::MAX));
        self.word(m.max().unwrap_or(u64::MAX));
    }

    fn stats(&mut self, s: &NocStats) {
        for c in [
            &s.injected_packets,
            &s.delivered_packets,
            &s.delivered_flits,
            &s.flit_hops,
            &s.bisection_flits,
            &s.inject_rejects,
        ] {
            self.word(c.get());
        }
        for (n, m) in s.delivered_by_class.iter().zip(&s.latency_by_class) {
            self.word(n.get());
            self.mean(m);
        }
    }
}

/// splitmix64, local so the traffic never depends on the crate's own PRNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Mesh endpoints in the mesh's dense index order: tiles row-major, then
/// NI blocks, then memory controllers.
fn mesh_nodes(w: u8, h: u8) -> Vec<NocNode> {
    let tiles = (0..h).flat_map(|y| (0..w).map(move |x| NocNode::tile(x, y)));
    tiles
        .chain((0..h).map(NocNode::NiBlock))
        .chain((0..h).map(NocNode::Mc))
        .collect()
}

/// NOC-Out endpoints in index order: tiles, LLC tiles, NI blocks, MCs.
fn nocout_nodes(cols: u8, cpc: u8) -> Vec<NocNode> {
    let tiles = (0..cpc).flat_map(|y| (0..cols).map(move |x| NocNode::tile(x, y)));
    tiles
        .chain((0..cols).map(NocNode::Llc))
        .chain((0..cols).map(NocNode::NiBlock))
        .chain((0..cols).map(NocNode::Mc))
        .collect()
}

/// Drive seeded traffic among `nodes` (listed in endpoint index order)
/// until every packet is delivered; return the hash of every delivery
/// `(cycle, endpoint, payload, injected_at)` followed by the final stats.
fn drive(noc: &mut dyn Interconnect<u64>, nodes: &[NocNode], seed: u64) -> u64 {
    let mut rng = Rng(seed);
    let mut fnv = Fnv::new();
    let mut backlog: BTreeMap<NocNode, VecDeque<Packet<u64>>> = BTreeMap::new();
    let hot = [nodes[0], nodes[nodes.len() - 1], nodes[nodes.len() / 2]];
    let (mut offered, mut delivered) = (0u64, 0u64);
    let mut now = Cycle(0);
    loop {
        // Retry each blocked source head-first; the first rejection ends
        // that source's turn (its injection port serializes).
        backlog.retain(|_, q| {
            while let Some(p) = q.pop_front() {
                if let Err(p) = noc.try_inject(now, p) {
                    q.push_front(p);
                    break;
                }
            }
            !q.is_empty()
        });
        if now.0 < OFFER_CYCLES {
            for _ in 0..rng.below(13) {
                let src = nodes[rng.below(nodes.len() as u64) as usize];
                let dst = if rng.below(4) == 0 {
                    hot[rng.below(3) as usize]
                } else {
                    nodes[rng.below(nodes.len() as u64) as usize]
                };
                if src == dst {
                    continue;
                }
                let class = MessageClass::ALL[rng.below(7) as usize];
                let flits = 1 + rng.below(5) as u8;
                let mut pkt = Packet::new(src, dst, class, flits, offered);
                if rng.below(2) == 0 {
                    pkt = pkt.dir_sourced();
                }
                offered += 1;
                if let Some(q) = backlog.get_mut(&src) {
                    q.push_back(pkt);
                } else if let Err(p) = noc.try_inject(now, pkt) {
                    backlog.entry(src).or_default().push_back(p);
                }
            }
        }
        // Every fourth 64-cycle window ticks only every third cycle, so one
        // tick absorbs arrivals due over several cycles.
        if now.0 / 64 % 4 != 3 || now.0.is_multiple_of(3) {
            noc.tick(now);
        }
        for (e, &node) in nodes.iter().enumerate() {
            // Each endpoint stalls one 16-cycle window in seven while
            // traffic is still being offered.
            if now.0 < OFFER_CYCLES && (now.0 / 16 + e as u64).is_multiple_of(7) {
                continue;
            }
            while let Some(p) = noc.eject(node) {
                for w in [now.0, e as u64, p.payload, p.injected_at.0] {
                    fnv.word(w);
                }
                delivered += 1;
            }
        }
        if now.0 >= OFFER_CYCLES && backlog.is_empty() && noc.is_idle() {
            break;
        }
        now += 1;
        assert!(now.0 < 50_000, "traffic stuck: {delivered}/{offered}");
    }
    assert_eq!(delivered, offered, "every offered packet is delivered once");
    assert!(
        noc.stats().inject_rejects.get() > 0,
        "traffic must backpressure"
    );
    fnv.word(now.0);
    fnv.stats(noc.stats());
    fnv.0
}

fn mesh_golden(policy: RoutingPolicy, hop_latency: u64, seed: u64) -> u64 {
    let cfg = MeshConfig {
        policy,
        router: RouterConfig {
            hop_latency,
            ..RouterConfig::default()
        },
    };
    let mut noc: MeshNoc<u64> = MeshNoc::new(cfg);
    drive(&mut noc, &mesh_nodes(GRID, GRID), seed)
}

#[test]
fn mesh_golden_traces_under_every_policy() {
    let got: Vec<(RoutingPolicy, u64)> = RoutingPolicy::ALL
        .iter()
        .map(|&p| (p, mesh_golden(p, 3, 0x601d)))
        .collect();
    let want = [
        (RoutingPolicy::Xy, 0x0209_9ae3_edc8_8ef6),
        (RoutingPolicy::Yx, 0x0198_0853_0721_4476),
        (RoutingPolicy::O1Turn, 0x940e_49c3_3e50_089a),
        (RoutingPolicy::Cdr, 0x1914_36c5_8d22_0269),
        (RoutingPolicy::CdrNi, 0x9d14_4bea_ae4e_cd07),
    ];
    assert_eq!(got, want);
}

#[test]
fn mesh_golden_traces_at_other_hop_latencies() {
    // One-cycle hops put router arrivals and endpoint deliveries in the
    // same arrival cycle; four-cycle hops widen the unticked gaps' reach.
    let got = [
        mesh_golden(RoutingPolicy::O1Turn, 1, 0xfeed),
        mesh_golden(RoutingPolicy::CdrNi, 4, 0xbeef),
    ];
    assert_eq!(got, [0xb116_1f15_2d20_713f, 0x5895_f9e1_021c_efb7]);
}

#[test]
fn nocout_golden_trace() {
    let mut noc: NocOutNoc<u64> = NocOutNoc::default();
    let got = drive(&mut noc, &nocout_nodes(GRID, GRID), 0x0c07);
    assert_eq!(got, 0x81f5_6a34_3963_7747);
}
