//! Property tests for the rack geometry and the rate-matching emulator.

use ni_engine::Cycle;
use ni_fabric::{
    Fabric, FaultAdaptive, LinkView, MinimalAdaptive, RackConfig, RackEmulator, RemoteReq,
    RoutingPolicy, Torus3D,
};
use ni_mem::BlockAddr;
use proptest::prelude::*;

fn torus() -> impl Strategy<Value = Torus3D> {
    (1u16..9, 1u16..9, 1u16..9).prop_map(|(x, y, z)| Torus3D::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// On a fault-free fabric `FaultAdaptive` must be bit-identical to
    /// `MinimalAdaptive` — for every pair of nodes, under arbitrary
    /// serialization backlogs (every link up, full escape budget, as the
    /// fabric builds views on a healthy run). This is the contract that
    /// makes `fault-adaptive` a safe default: it costs nothing until
    /// something actually dies.
    #[test]
    fn fault_adaptive_is_minimal_adaptive_on_a_healthy_fabric(
        t in torus(),
        from in 0u32..10_000,
        dest in 0u32..10_000,
        backlog in prop::collection::vec(0u64..500, 6..7),
    ) {
        let (from, dest) = (from % t.nodes(), dest % t.nodes());
        let mut b = [0u64; 6];
        b.copy_from_slice(&backlog);
        let view = LinkView::new(b);
        let mut fault = FaultAdaptive::default();
        let mut minimal = MinimalAdaptive;
        prop_assert_eq!(
            fault.route(&t, from, dest, &view),
            minimal.route(&t, from, dest, &view),
            "{from}->{dest} on {:?} diverged",
            t.dims()
        );
    }

    #[test]
    fn torus_ids_and_coords_roundtrip(t in torus(), seed in 0u32..10_000) {
        let id = seed % t.nodes();
        prop_assert_eq!(t.id(t.coords(id)), id);
    }

    #[test]
    fn torus_hops_is_a_metric(t in torus(), a in 0u32..10_000, b in 0u32..10_000, c in 0u32..10_000) {
        let (a, b, c) = (a % t.nodes(), b % t.nodes(), c % t.nodes());
        prop_assert_eq!(t.hops(a, a), 0, "identity");
        prop_assert_eq!(t.hops(a, b), t.hops(b, a), "symmetry");
        prop_assert!(t.hops(a, b) <= t.hops(a, c) + t.hops(c, b), "triangle inequality");
        prop_assert!(t.hops(a, b) <= t.max_hops(), "bounded by the diameter");
    }

    #[test]
    fn torus_wraparound_shortens_paths(dim in 2u16..9) {
        // In a ring of n nodes, the farthest node is floor(n/2) away.
        let t = Torus3D::new(dim, 1, 1);
        let far = t.hops(0, u32::from(dim) - 1);
        prop_assert_eq!(far, 1, "last node is adjacent via wraparound");
        prop_assert_eq!(t.max_hops(), u32::from(dim / 2));
    }

    #[test]
    fn torus_average_matches_brute_force(t in (1u16..5, 1u16..5, 1u16..5)
        .prop_map(|(x, y, z)| Torus3D::new(x, y, z)))
    {
        // The paper's "average 6 hops" figure is the mean over all ordered
        // source/destination pairs (2 hops per dimension of an 8-ring, x3);
        // the implementation uses the same definition.
        let n = t.nodes();
        let mut sum = 0u64;
        for a in 0..n {
            for b in 0..n {
                sum += u64::from(t.hops(a, b));
            }
        }
        let brute = sum as f64 / f64::from(n) / f64::from(n);
        prop_assert!((t.average_hops() - brute).abs() < 1e-9);
    }

    #[test]
    fn emulator_response_timing_is_exact(
        hops in 1u32..13,
        sends in prop::collection::vec(0u64..1000, 1..30),
    ) {
        let mut r = RackEmulator::new(RackConfig {
            hops,
            mirror_incoming: false,
            ..RackConfig::default()
        });
        let mut sorted = sends.clone();
        sorted.sort_unstable();
        for (i, &t) in sorted.iter().enumerate() {
            r.send(
                Cycle(t),
                RemoteReq {
                    tid: i as u64,
                    is_read: true,
                    src_node: 0,
                    target_node: 1,
                    remote_block: BlockAddr(i as u64),
                    value: 0,
                    service: 0,
                },
            );
        }
        let rtt = 2 * u64::from(hops) * 70 + 208;
        let mut got = 0;
        for t in 0..(1000 + rtt + 2) {
            while let Some(resp) = r.pop_response(Cycle(t)) {
                let i = resp.tid as usize;
                prop_assert_eq!(t, sorted[i] + rtt, "response {} timing", i);
                prop_assert_eq!(
                    resp.value,
                    RackEmulator::remote_value(BlockAddr(i as u64))
                );
                got += 1;
            }
        }
        prop_assert_eq!(got, sorted.len());
        prop_assert!(r.is_idle());
    }

    #[test]
    fn emulator_mirrors_exactly_one_incoming_per_send(n in 1usize..100) {
        let mut r = RackEmulator::new(RackConfig::default());
        for i in 0..n {
            r.send(
                Cycle(i as u64),
                RemoteReq {
                    tid: i as u64,
                    is_read: true,
                    src_node: 0,
                    target_node: 1,
                    remote_block: BlockAddr(7),
                    value: 0,
                    service: 0,
                },
            );
        }
        let mut incoming = 0;
        for t in 0..(n as u64 + 200) {
            while let Some(req) = r.pop_incoming(Cycle(t)) {
                prop_assert!(req.is_read);
                incoming += 1;
            }
        }
        prop_assert_eq!(incoming, n);
        prop_assert_eq!(r.stats().incoming_generated.get(), n as u64);
    }

    #[test]
    fn rrpp_feedback_moves_the_estimate_toward_samples(target in 100u64..5000) {
        let mut r = RackEmulator::new(RackConfig::default());
        for _ in 0..512 {
            r.record_rrpp_latency(target);
        }
        prop_assert!((r.rrpp_estimate() - target as f64).abs() < target as f64 * 0.05);
    }
}

// ---- TorusFabric: hop-by-hop transport properties --------------------------

use ni_fabric::{RoutingKind, TorusFabric, TorusFabricConfig};

fn torus_fabric(t: Torus3D) -> TorusFabric {
    TorusFabric::new(TorusFabricConfig {
        torus: t,
        ..TorusFabricConfig::default()
    })
}

fn fabric_req(tid: u64, target: u16) -> RemoteReq {
    RemoteReq {
        tid,
        is_read: true,
        src_node: 0,
        target_node: target,
        remote_block: BlockAddr(tid),
        value: 0,
        service: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every packet's route length equals the Lee distance between its
    /// source and destination, for random pairs and torus dimensions — and
    /// the per-directed-link counters account exactly those traversals.
    #[test]
    fn torus_fabric_routes_are_lee_minimal(
        t in torus(),
        pairs in prop::collection::vec((0u32..10_000, 0u32..10_000), 1..20),
    ) {
        let mut f = torus_fabric(t);
        let mut expected_hops = 0u64;
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let (a, b) = (a % t.nodes(), b % t.nodes());
            expected_hops += u64::from(t.hops(a, b));
            f.inject(Cycle(0), a as u16, fabric_req(i as u64, b as u16));
        }
        let mut now = Cycle(0);
        let mut delivered = 0usize;
        while delivered < pairs.len() {
            f.tick(now);
            for n in 0..t.nodes() {
                while f.pop_incoming(now, n as u16).is_some() {
                    delivered += 1;
                }
            }
            now += 1;
            prop_assert!(now.0 < 1_000_000, "fabric never drained: {delivered}/{}", pairs.len());
        }
        prop_assert_eq!(f.hops_traversed(), expected_hops, "route length != Lee distance");
        let link_sum: u64 = f.link_report().iter().map(|l| l.packets).sum();
        prop_assert_eq!(link_sum, expected_hops, "link counters must sum to total hops");
        prop_assert!(f.is_idle());
    }

    /// An unloaded packet can never beat the physical floor of
    /// `hops x hop_cycles` (serialization only adds to it), and arrives
    /// within the floor plus per-hop serialization.
    #[test]
    fn torus_fabric_respects_the_wire_latency_floor(
        t in torus(),
        a in 0u32..10_000,
        b in 0u32..10_000,
    ) {
        let (a, b) = (a % t.nodes(), b % t.nodes());
        prop_assume!(a != b);
        let mut f = torus_fabric(t);
        let cfg = f.config().clone();
        f.inject(Cycle(0), a as u16, fabric_req(1, b as u16));
        let hops = u64::from(t.hops(a, b));
        let mut now = Cycle(0);
        let arrival = loop {
            f.tick(now);
            if f.pop_incoming(now, b as u16).is_some() {
                break now.0;
            }
            now += 1;
            prop_assert!(now.0 < 100_000, "undelivered after bound");
        };
        prop_assert!(arrival >= hops * cfg.hop_cycles, "{arrival} beats the floor");
        // Read requests are 32B; each hop adds its serialization delay.
        let ser = 32u64.div_ceil(cfg.link_bytes_per_cycle);
        prop_assert_eq!(arrival, hops * (cfg.hop_cycles + ser));
    }

    /// Delivery / livelock-freedom of the adaptive policies: because every
    /// built-in [`RoutingPolicy`](ni_fabric::RoutingPolicy) is *minimal*
    /// (each hop strictly reduces Lee distance — the escape bound over the
    /// minimal distance is zero by construction, enforced per hop by the
    /// fabric's productivity assertion), every packet must be delivered in
    /// exactly `hops(src, dest)` traversals, for random torus dimensions
    /// and random batches injected at the same cycle so serialization
    /// backlogs actually build and steer `MinimalAdaptive` off the
    /// dimension-order path.
    #[test]
    fn adaptive_and_random_routing_always_deliver_in_minimal_hops(
        t in torus(),
        pairs in prop::collection::vec((0u32..10_000, 0u32..10_000), 1..40),
        seed in 0u64..1_000,
    ) {
        for routing in [
            RoutingKind::MinimalAdaptive,
            RoutingKind::RandomMinimal { seed },
        ] {
            let mut f = TorusFabric::new(TorusFabricConfig {
                torus: t,
                routing,
                ..TorusFabricConfig::default()
            });
            let mut expected_hops = 0u64;
            for (i, &(a, b)) in pairs.iter().enumerate() {
                let (a, b) = (a % t.nodes(), b % t.nodes());
                expected_hops += u64::from(t.hops(a, b));
                f.inject(Cycle(0), a as u16, fabric_req(i as u64, b as u16));
            }
            let mut now = Cycle(0);
            let mut delivered = 0usize;
            while delivered < pairs.len() {
                f.tick(now);
                for n in 0..t.nodes() {
                    while f.pop_incoming(now, n as u16).is_some() {
                        delivered += 1;
                    }
                }
                now += 1;
                prop_assert!(
                    now.0 < 1_000_000,
                    "{routing:?} never drained: {delivered}/{}",
                    pairs.len()
                );
            }
            prop_assert_eq!(
                f.hops_traversed(),
                expected_hops,
                "{:?}: route length != Lee distance (escape bound is 0)",
                routing
            );
            prop_assert!(f.is_idle());
        }
    }

    /// A seeded `RandomMinimal` fabric is a pure function of its config:
    /// identical injections give bit-identical per-link traffic, and a
    /// different seed is allowed to (and on multi-path batches will)
    /// spread bytes differently.
    #[test]
    fn random_minimal_fabric_is_seed_deterministic(
        t in torus(),
        pairs in prop::collection::vec((0u32..10_000, 0u32..10_000), 1..20),
        seed in 0u64..1_000,
    ) {
        let run = |seed: u64| {
            let mut f = TorusFabric::new(TorusFabricConfig {
                torus: t,
                routing: RoutingKind::RandomMinimal { seed },
                ..TorusFabricConfig::default()
            });
            for (i, &(a, b)) in pairs.iter().enumerate() {
                let (a, b) = (a % t.nodes(), b % t.nodes());
                f.inject(Cycle(0), a as u16, fabric_req(i as u64, b as u16));
            }
            let mut now = Cycle(0);
            while !f.is_idle() {
                f.tick(now);
                for n in 0..t.nodes() {
                    while f.pop_incoming(now, n as u16).is_some() {}
                }
                now += 1;
                if now.0 >= 1_000_000 { break; }
            }
            f.link_report()
                .iter()
                .map(|l| (l.packets, l.bytes))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(seed), run(seed), "same seed must replay identically");
    }

    /// Responses reach exactly the node named in `dst_node`.
    #[test]
    fn torus_fabric_delivers_responses_to_their_requester(
        t in torus(),
        from in 0u32..10_000,
        to in 0u32..10_000,
    ) {
        let (from, to) = (from % t.nodes(), to % t.nodes());
        let mut f = torus_fabric(t);
        f.inject_resp(Cycle(0), from as u16, ni_fabric::RemoteResp {
            tid: 7,
            dst_node: to as u16,
            remote_block: BlockAddr(3),
            value: 99,
            is_read: true,
        });
        let mut now = Cycle(0);
        while !f.is_idle() {
            f.tick(now);
            for n in 0..t.nodes() {
                if let Some(resp) = f.pop_response(now, n as u16) {
                    prop_assert_eq!(n, to, "response surfaced at the wrong node");
                    prop_assert_eq!(resp.value, 99);
                }
            }
            now += 1;
            prop_assert!(now.0 < 100_000);
        }
        prop_assert_eq!(f.hops_traversed(), u64::from(t.hops(from, to)));
    }
}
