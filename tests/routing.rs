//! Torus routing-policy integration tests: the dimension-order fingerprint
//! (the refactor to `ni_fabric::RoutingPolicy` must not move a single bit),
//! the congestion-balancing property of minimal-adaptive routing, seed
//! determinism of the random baseline, and the capped-job completion
//! machinery the routing sweep is built on.

use rackni::experiments::run_routing_point;
use rackni::ni_fabric::{RoutingKind, Torus3D};
use rackni::ni_soc::{
    Capped, ChipConfig, Rack, RackSimConfig, TrafficPattern, Workload, ZipfHotspot,
};

fn canonical_rack(routing: RoutingKind) -> Rack {
    let cfg = RackSimConfig {
        torus: Torus3D::new(3, 3, 3),
        chip: ChipConfig {
            active_cores: 2,
            seed: 0xf00d,
            ..ChipConfig::default()
        },
        routing,
        traffic: TrafficPattern::Uniform,
        threads: 1,
        ..RackSimConfig::default()
    };
    Rack::new(
        cfg,
        Workload::AsyncRead {
            size: 256,
            poll_every: 4,
        },
    )
}

/// `DimensionOrder` through the `RoutingPolicy` trait must be bit-identical
/// to the pre-refactor hard-coded `Torus3D::next_hop` routing. The expected
/// numbers are the *recorded pre-refactor fingerprint* of this exact run
/// (3x3x3 rack, 2 cores/node, seed 0xf00d, uniform async 256B reads, 2000
/// cycles), captured on the commit before the policy trait existed — any
/// drift here means the refactor changed routing behavior.
#[test]
fn dimension_order_matches_the_pre_refactor_fingerprint() {
    let mut rack = canonical_rack(RoutingKind::DimensionOrder);
    rack.run(2_000);
    let fs = rack.fabric_stats();
    assert_eq!(fs.sent.get(), 3_888, "requests injected");
    assert_eq!(fs.responded.get(), 2_916, "responses delivered");
    assert_eq!(fs.incoming_generated.get(), 3_558, "requests delivered");
    assert_eq!(rack.hops_traversed(), 11_541, "link traversals");
    assert_eq!(rack.completed_ops(), 504, "completed ops");
    assert_eq!(rack.app_payload_bytes(), 393_792, "payload bytes");
    let links = rack.link_report();
    assert_eq!(links.iter().map(|l| l.bytes).sum::<u64>(), 702_048);
    assert_eq!(links.iter().map(|l| l.busy_cycles).sum::<u64>(), 43_878);
    assert!((rack.link_byte_skew() - 1.562_149_597).abs() < 1e-6);
}

/// Minimal-adaptive routing must preserve *what* is delivered even as it
/// changes *which links* carry it: the same capped job run to completion
/// gives identical application-level results (ops, payload,
/// request/response counts) and an identical total hop count (every
/// built-in policy is minimal, and capped op streams do not depend on
/// completion timing) — but a different per-link byte distribution than
/// dimension order.
#[test]
fn adaptive_routing_changes_paths_but_not_outcomes() {
    let run = |routing: RoutingKind| {
        let cfg = RackSimConfig {
            torus: Torus3D::new(3, 3, 1),
            chip: ChipConfig {
                active_cores: 2,
                seed: 0xf00d,
                ..ChipConfig::default()
            },
            routing,
            threads: 1,
            ..RackSimConfig::default()
        };
        let inner = rackni::ni_soc::Synthetic::from_workload(Workload::AsyncRead {
            size: 256,
            poll_every: 4,
        })
        .with_pattern(TrafficPattern::Uniform);
        let capped = Capped::new(Box::new(inner), 6);
        let mut rack = Rack::with_scenario(cfg, &capped);
        let expected = 9 * 2 * 6;
        let mut guard = 0;
        while rack.completed_ops() < expected {
            rack.run(200);
            guard += 1;
            assert!(guard < 500, "{routing:?} job never completed");
        }
        rack.run(1_000); // drain every response off the wires
        rack
    };
    let dor = run(RoutingKind::DimensionOrder);
    let ada = run(RoutingKind::MinimalAdaptive);
    assert_eq!(ada.completed_ops(), dor.completed_ops());
    assert_eq!(ada.app_payload_bytes(), dor.app_payload_bytes());
    assert_eq!(ada.fabric_stats().sent.get(), dor.fabric_stats().sent.get());
    assert_eq!(
        ada.hops_traversed(),
        dor.hops_traversed(),
        "minimal policies must spend identical total hops on identical jobs"
    );
    let bytes = |r: &Rack| r.link_report().iter().map(|l| l.bytes).collect::<Vec<_>>();
    assert_ne!(
        bytes(&ada),
        bytes(&dor),
        "adaptive routing under load must actually deviate from DOR"
    );
}

/// The acceptance property of the routing sweep, at tier-1-test size: on
/// Zipf-hotspot traffic, minimal-adaptive routing spreads the hot node's
/// incoming load over more links than dimension order, strictly reducing
/// `link_byte_skew`, while completing the identical capped job. (The
/// full-size 4x4x4 comparison runs in `examples/routing_study.rs`, which
/// asserts the same property at the paper-facing scale.)
#[test]
fn adaptive_routing_reduces_zipf_link_skew() {
    let run = |routing: RoutingKind| {
        run_routing_point(
            (3, 3, 1),
            "zipf",
            Box::<ZipfHotspot>::default(),
            routing,
            8,
            60_000,
        )
    };
    let dor = run(RoutingKind::DimensionOrder);
    let ada = run(RoutingKind::MinimalAdaptive);
    assert_eq!(dor.completed_ops, dor.expected_ops, "DOR job must finish");
    assert_eq!(
        ada.completed_ops, ada.expected_ops,
        "adaptive job must finish"
    );
    assert_eq!(ada.hops, dor.hops, "minimal policies traverse equal hops");
    assert!(
        ada.link_skew < dor.link_skew,
        "adaptive skew {:.2} must undercut DOR skew {:.2} on hotspot traffic",
        ada.link_skew,
        dor.link_skew
    );
    // Reads complete, so the tail metric has real samples on both.
    assert!(dor.p99_read_cycles >= dor.p50_read_cycles);
    assert!(ada.p99_read_cycles >= ada.p50_read_cycles);
    assert!(dor.p50_read_cycles > 0);
}

/// The random-minimal baseline is seeded: same seed, same rack, bit-equal
/// results; the seed is part of the config, so determinism survives the
/// whole chip/rack stack, not just the bare fabric.
#[test]
fn random_minimal_rack_reproduces_from_its_seed() {
    let run = |seed: u64| {
        let mut rack = canonical_rack(RoutingKind::RandomMinimal { seed });
        rack.run(1_200);
        (
            rack.completed_ops(),
            rack.hops_traversed(),
            rack.link_report()
                .iter()
                .map(|l| (l.packets, l.bytes))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(11), run(11), "same routing seed must reproduce");
}

/// `Capped` turns any scenario into a finite job: the rack completes
/// exactly `nodes x cores x cap` operations, then stops issuing (is_done
/// lets finished cores sleep), and per-op read-latency tracking covers the
/// asynchronous ops the sync-only histogram never sees.
#[test]
fn capped_jobs_complete_exactly_and_record_async_read_tails() {
    let cfg = RackSimConfig {
        torus: Torus3D::new(2, 2, 1),
        chip: ChipConfig {
            active_cores: 2,
            ..ChipConfig::default()
        },
        threads: 1,
        ..RackSimConfig::default()
    };
    let inner = rackni::ni_soc::Synthetic::from_workload(Workload::AsyncRead {
        size: 256,
        poll_every: 4,
    });
    let capped = Capped::new(Box::new(inner), 5);
    assert_eq!(capped.ops_per_core(), 5);
    let mut rack = Rack::with_scenario(cfg, &capped);
    let expected = 4 * 2 * 5;
    let mut guard = 0;
    while rack.completed_ops() < expected {
        rack.run(200);
        guard += 1;
        assert!(guard < 500, "capped job never completed");
    }
    // Run on: no further ops may appear past the cap.
    rack.run(2_000);
    assert_eq!(rack.completed_ops(), expected, "cap must be exact");
    let hist = rack.read_latency_histogram();
    assert_eq!(
        hist.stats().count(),
        expected,
        "every async read must land in the read-latency histogram"
    );
    // One hop each way at 70 cycles is the physical floor.
    assert!(hist.stats().min().unwrap_or(0) >= 140);
    assert!(hist.percentile(0.99) >= hist.percentile(0.50));
}
