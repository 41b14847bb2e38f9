//! Property tests for the interconnects: arbitrary traffic must be
//! delivered exactly once, intact, to the right endpoint, under every
//! routing policy, and in-network latency must respect the physical floor.

use ni_engine::Cycle;
use ni_noc::{
    Interconnect, MeshConfig, MeshNoc, MessageClass, NocNode, NocOutNoc, Packet, RouterConfig,
    RoutingPolicy,
};
use proptest::prelude::*;

/// Any mesh endpoint: tiles, NI blocks (west edge), MCs (east edge).
fn mesh_node() -> impl Strategy<Value = NocNode> {
    prop_oneof![
        (0u8..8, 0u8..8).prop_map(|(x, y)| NocNode::tile(x, y)),
        (0u8..8).prop_map(NocNode::NiBlock),
        (0u8..8).prop_map(NocNode::Mc),
    ]
}

/// Every endpoint of the default 8x8 mesh in its dense index order: tiles
/// row-major, then NI blocks, then memory controllers.
fn mesh_endpoints() -> Vec<NocNode> {
    let tiles = (0..8).flat_map(|y| (0..8).map(move |x| NocNode::tile(x, y)));
    tiles
        .chain((0..8).map(NocNode::NiBlock))
        .chain((0..8).map(NocNode::Mc))
        .collect()
}

fn message_class() -> impl Strategy<Value = MessageClass> {
    prop_oneof![
        Just(MessageClass::CohReq),
        Just(MessageClass::CohFwd),
        Just(MessageClass::CohResp),
        Just(MessageClass::MemReq),
        Just(MessageClass::MemResp),
        Just(MessageClass::NiCmd),
        Just(MessageClass::NiData),
    ]
}

fn policy() -> impl Strategy<Value = RoutingPolicy> {
    prop_oneof![
        Just(RoutingPolicy::Xy),
        Just(RoutingPolicy::Yx),
        Just(RoutingPolicy::O1Turn),
        Just(RoutingPolicy::Cdr),
        Just(RoutingPolicy::CdrNi),
    ]
}

/// Manhattan distance between the attach *routers* of two endpoints.
/// Attach links themselves (NI/MC blocks to their edge router, and final
/// delivery into an endpoint queue) cost ~1 cycle each, not a full
/// 3-cycle router hop, so they are excluded from the latency floor.
fn min_hops(a: NocNode, b: NocNode, width: u8) -> u64 {
    fn attach(n: NocNode, width: u8) -> (i64, i64) {
        match n {
            NocNode::Tile(c) => (i64::from(c.x), i64::from(c.y)),
            NocNode::NiBlock(r) => (0, i64::from(r)),
            NocNode::Mc(r) => (i64::from(width) - 1, i64::from(r)),
            NocNode::Llc(_) => unreachable!("mesh test uses mesh nodes"),
        }
    }
    let (ax, ay) = attach(a, width);
    let (bx, by) = attach(b, width);
    (ax - bx).unsigned_abs() + (ay - by).unsigned_abs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mesh_delivers_all_packets_exactly_once(
        policy in policy(),
        hop_latency in 1u64..=4,
        specs in prop::collection::vec(
            (mesh_node(), mesh_node(), message_class(), 1u8..6),
            1..40,
        ),
    ) {
        let cfg = MeshConfig {
            policy,
            router: RouterConfig {
                hop_latency,
                ..RouterConfig::default()
            },
        };
        let mut noc: MeshNoc<usize> = MeshNoc::new(cfg);
        // Fed identically, but drained through `eject_next`.
        let mut twin: MeshNoc<usize> = MeshNoc::new(cfg);
        let endpoints = mesh_endpoints();
        let mut now = Cycle(0);
        let mut expect: Vec<Option<(NocNode, MessageClass, u8)>> = Vec::new();
        let mut backlog: Vec<Packet<usize>> = Vec::new();
        for (i, &(src, dst, class, flits)) in specs.iter().enumerate() {
            if src == dst {
                expect.push(None); // same-node traffic bypasses the NOC
                continue;
            }
            expect.push(Some((dst, class, flits)));
            backlog.push(Packet::new(src, dst, class, flits, i));
        }
        let total = backlog.len();
        let mut delivered = 0usize;
        let mut seen = vec![false; specs.len()];
        let mut guard = 0u32;
        while delivered < total {
            // Retry injections head-first.
            let mut still = Vec::new();
            for pkt in backlog.drain(..) {
                let twin_took = twin.try_inject(now, pkt.clone()).is_ok();
                match noc.try_inject(now, pkt) {
                    Ok(()) => prop_assert!(twin_took, "twin rejected an inject"),
                    Err(p) => {
                        prop_assert!(!twin_took, "twin accepted a rejected inject");
                        still.push(p);
                    }
                }
            }
            backlog = still;
            noc.tick(now);
            twin.tick(now);
            let mut polled = Vec::new();
            for &node in &endpoints {
                while let Some(p) = noc.eject(node) {
                    polled.push((p.dst, p.payload));
                    let idx = p.payload;
                    prop_assert!(!seen[idx], "duplicate delivery of packet {idx}");
                    let (edst, eclass, eflits) =
                        expect[idx].expect("delivered packet was expected");
                    prop_assert_eq!(p.dst, edst, "wrong endpoint");
                    prop_assert_eq!(p.class, eclass, "class corrupted");
                    prop_assert_eq!(p.flits, eflits, "length corrupted");
                    // Physical floor: `hop_latency` cycles per hop along a
                    // minimal path.
                    let hops = min_hops(p.src, p.dst, 8);
                    prop_assert!(
                        now.saturating_since(p.injected_at) >= hop_latency * hops,
                        "{:?}->{:?} delivered faster than {} hops allow",
                        p.src, p.dst, hops
                    );
                    seen[idx] = true;
                    delivered += 1;
                }
            }
            let popped: Vec<_> = std::iter::from_fn(|| twin.eject_next())
                .map(|p| (p.dst, p.payload))
                .collect();
            prop_assert_eq!(&popped, &polled, "eject_next order differs from an index-order poll");
            now += 1;
            guard += 1;
            prop_assert!(guard < 20_000, "packets stuck: {delivered}/{total}");
        }
        prop_assert!(noc.is_idle(), "NOC not idle after full delivery");
        prop_assert!(twin.is_idle(), "twin not idle after full delivery");
        prop_assert_eq!(noc.stats().delivered_packets.get(), total as u64);
    }

    #[test]
    fn nocout_delivers_all_packets_exactly_once(
        specs in prop::collection::vec(
            (0u8..64, prop_oneof![
                (0u8..8).prop_map(NocNode::Llc),
                (0u8..8).prop_map(NocNode::Mc),
                (0u8..8).prop_map(NocNode::NiBlock),
                (0u8..8, 0u8..8).prop_map(|(x, y)| NocNode::tile(x, y)),
            ], 1u8..6),
            1..30,
        ),
    ) {
        let mut noc: NocOutNoc<usize> = NocOutNoc::default();
        let mut now = Cycle(0);
        let mut backlog: Vec<Packet<usize>> = Vec::new();
        let mut expect: Vec<Option<NocNode>> = Vec::new();
        for (i, &(srcidx, dst, flits)) in specs.iter().enumerate() {
            let src = NocNode::tile(srcidx % 8, srcidx / 8);
            if src == dst {
                expect.push(None);
                continue;
            }
            expect.push(Some(dst));
            backlog.push(Packet::new(src, dst, MessageClass::NiData, flits, i));
        }
        let total = backlog.len();
        let mut delivered = 0;
        let mut guard = 0u32;
        while delivered < total {
            let mut still = Vec::new();
            for pkt in backlog.drain(..) {
                match noc.try_inject(now, pkt) {
                    Ok(()) => {}
                    Err(p) => still.push(p),
                }
            }
            backlog = still;
            noc.tick(now);
            for spec in &expect {
                let Some(dst) = spec else { continue };
                while let Some(p) = noc.eject(*dst) {
                    prop_assert_eq!(expect[p.payload], Some(p.dst));
                    delivered += 1;
                }
            }
            now += 1;
            guard += 1;
            prop_assert!(guard < 20_000, "packets stuck: {delivered}/{total}");
        }
        prop_assert!(noc.is_idle());
    }

    #[test]
    fn xy_and_yx_latencies_agree_on_straight_lines(
        y in 0u8..8,
        x0 in 0u8..8,
        x1 in 0u8..8,
    ) {
        // A transfer within one row never turns, so XY and YX take the
        // identical physical path and must produce identical latency.
        prop_assume!(x0 != x1);
        let mut lat = Vec::new();
        for policy in [RoutingPolicy::Xy, RoutingPolicy::Yx] {
            let cfg = MeshConfig { policy, ..MeshConfig::default() };
            let mut noc: MeshNoc<u8> = MeshNoc::new(cfg);
            let pkt = Packet::new(
                NocNode::tile(x0, y),
                NocNode::tile(x1, y),
                MessageClass::CohReq,
                1,
                0,
            );
            noc.try_inject(Cycle(0), pkt).expect("empty NOC accepts");
            let mut now = Cycle(0);
            let got = loop {
                noc.tick(now);
                if noc.eject(NocNode::tile(x1, y)).is_some() {
                    break now.0;
                }
                now += 1;
                prop_assert!(now.0 < 1000);
            };
            lat.push(got);
        }
        prop_assert_eq!(lat[0], lat[1]);
    }
}
