//! Failure-injection integration tests: the tier-1-sized versions of the
//! claims `examples/failure_study.rs` asserts at paper scale — a mid-run
//! link kill that `fault-adaptive` routes around while dimension-order
//! stalls into the ITT watchdog, a node kill that ends in error CQ entries
//! instead of a hang, and healthy-fabric equivalence between
//! `fault-adaptive` and `minimal-adaptive` through the whole rack stack.

use rackni::experiments::{
    run_job, FailureParams, FaultCase, JobCell, JobPoint, Scale, ScenarioFactory,
};
use rackni::ni_fabric::{FabricStats, FaultPlan, ReplicaCfg, RoutingKind, Torus3D};
use rackni::ni_soc::{Capped, ChipConfig, Rack, RackSimConfig, Synthetic, Workload, ZipfHotspot};
use rackni::report::{read_points, BenchFile};

mod common;
use common::{assert_conserved, assert_same, snapshots};

/// Small-rack sweep parameters: tight enough for debug-profile tier-1
/// runs, loose enough that healthy transfers never trip the watchdog.
fn params() -> FailureParams {
    FailureParams {
        ops_per_core: 6,
        kill_at: 300,
        itt_timeout: 1_500,
        itt_retries: 1,
        horizon: 40_000,
    }
}

fn zipf_point(fault: FaultCase, routing: RoutingKind) -> JobPoint {
    let zipf: ScenarioFactory = || Box::<ZipfHotspot>::default();
    run_job(JobCell::failure(
        (3, 3, 1),
        ("zipf", zipf),
        routing,
        fault,
        params(),
    ))
}

/// The acceptance property at tier-1 size: after a mid-run link kill,
/// `fault-adaptive` completes the capped Zipf job with zero casualties
/// while dimension-order either never finishes or pays >=2x grinding
/// through ITT timeouts.
#[test]
fn fault_adaptive_completes_the_link_kill_job_dor_stalls_on() {
    let ada = zipf_point(FaultCase::LinkKill, RoutingKind::FaultAdaptive);
    let ada_row = ada.failure_row();
    assert!(
        ada.completed_all(),
        "fault-adaptive must finish the job: {ada_row}"
    );
    assert_eq!(
        ada.snapshot.cores.failed, 0,
        "a single dead link is routable-around: {ada_row}"
    );
    let dor = zipf_point(FaultCase::LinkKill, RoutingKind::DimensionOrder);
    let dor_row = dor.failure_row();
    assert!(
        dor.snapshot.faults.dead_link_stalls.get() > 0,
        "DOR must actually hit the dead link: {dor_row}"
    );
    // The structural form of the acceptance property (the strict >=2x
    // completion-time version runs at 4x4x4 scale in
    // `examples/failure_study.rs`, where the margin is wide): health-blind
    // routing stalls into the ITT watchdog and loses ops the detour-capable
    // policy saves, and pays more cycles doing it.
    assert!(
        !dor.completed_all()
            || (dor.snapshot.backends.itt_timeouts.get() > 0
                && dor.snapshot.cores.failed > ada.snapshot.cores.failed
                && dor.completion_cycles > ada.completion_cycles),
        "DOR must stall into the watchdog and pay for it: dor {dor_row} vs ada {ada_row}"
    );
}

/// A node kill cannot be routed around, but it must not hang the rack:
/// every op addressed to the corpse completes with an error CQ status,
/// and the error ops stay out of the (successful-reads) latency tail.
#[test]
fn node_kill_completes_with_error_cq_entries_instead_of_hanging() {
    for routing in [RoutingKind::DimensionOrder, RoutingKind::FaultAdaptive] {
        let p = zipf_point(FaultCase::NodeKill, routing);
        let (s, row, name) = (&p.snapshot, p.failure_row(), routing.name());
        assert!(p.completed_all(), "{name}: rack hung: {row}");
        assert!(
            s.cores.failed > 0,
            "{name}: killing the hot node must cost failures: {row}"
        );
        assert!(
            p.completion_cycles < params().horizon,
            "{name}: completion rode the horizon: {row}"
        );
        assert!(
            s.faults.packets_dropped.get() > 0,
            "{name}: the dead node must erase traffic: {row}"
        );
        assert!(
            s.backends.itt_timeouts.get() >= s.cores.failed,
            "{name}: every failure implies at least one watchdog expiry: {row}"
        );
    }
}

/// Healthy-fabric cells are a control group: with no fault scheduled,
/// both policies finish clean and the watchdog never fires.
#[test]
fn healthy_cells_complete_clean_under_both_policies() {
    for routing in [RoutingKind::DimensionOrder, RoutingKind::FaultAdaptive] {
        let p = zipf_point(FaultCase::None, routing);
        let (s, row) = (&p.snapshot, p.failure_row());
        assert!(p.completed_all() && s.cores.failed == 0, "{row}");
        assert_eq!(
            s.backends.itt_timeouts.get(),
            0,
            "spurious watchdog expiry: {row}"
        );
        assert_eq!(s.faults.escape_hops.get(), 0, "no fault, no escapes: {row}");
    }
}

/// On a healthy fabric `fault-adaptive` must be bit-identical to
/// `minimal-adaptive` through the whole rack stack — same ops, payload,
/// hops, and per-link byte distribution (the route-level property is also
/// proptested in `ni-fabric`; this is the end-to-end version).
#[test]
fn fault_adaptive_is_bit_identical_to_minimal_adaptive_when_healthy() {
    let run = |routing: RoutingKind| {
        let cfg = RackSimConfig {
            torus: Torus3D::new(3, 3, 1),
            chip: ChipConfig {
                active_cores: 2,
                seed: 0xfa17,
                ..ChipConfig::default()
            },
            routing,
            threads: 1,
            ..RackSimConfig::default()
        };
        let capped = Capped::new(
            Box::new(Synthetic::from_workload(Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            })),
            6,
        );
        let mut rack = Rack::with_scenario(cfg, &capped);
        rack.run(20_000);
        let links: Vec<(u64, u64)> = rack
            .link_report()
            .iter()
            .map(|l| (l.packets, l.bytes))
            .collect();
        (snapshots(&rack), links)
    };
    let (ada, ada_links) = run(RoutingKind::MinimalAdaptive);
    let (fa, fa_links) = run(RoutingKind::FaultAdaptive);
    assert!(ada[0].cores.completed > 0, "reference run must do work");
    assert_same(&fa, &ada, "healthy fault-adaptive vs adaptive");
    assert_eq!(fa_links, ada_links, "healthy fault-adaptive per-link load");
}

/// A repaired link comes back for real: a run whose plan kills a link and
/// repairs it later completes everything without a single failure, while
/// still having actually stalled at the dead link in between.
#[test]
fn link_repair_restores_the_job_without_casualties() {
    let torus = Torus3D::new(3, 1, 1);
    let mut chip = ChipConfig {
        active_cores: 1,
        ..ChipConfig::default()
    };
    // Watchdog armed but generous: the repair lands long before expiry.
    chip.rmc.itt_timeout = 20_000;
    chip.rmc.itt_retries = 1;
    let cfg = RackSimConfig {
        torus,
        chip,
        routing: RoutingKind::DimensionOrder,
        faults: FaultPlan::new().link_down(0, 1, 200).link_up(0, 1, 2_000),
        threads: 1,
        ..RackSimConfig::default()
    };
    let capped = Capped::new(
        Box::new(Synthetic::from_workload(Workload::AsyncRead {
            size: 256,
            poll_every: 2,
        })),
        4,
    );
    let mut rack = Rack::with_scenario(cfg, &capped);
    let expected = 3 * 4;
    let mut guard = 0;
    while rack.snapshot().cores.completed < expected {
        rack.run(500);
        guard += 1;
        assert!(guard < 200, "repaired job never completed");
    }
    assert_eq!(
        rack.snapshot().cores.failed,
        0,
        "repair must beat the watchdog"
    );
    assert!(
        rack.fault_stats().dead_link_stalls.get() > 0,
        "the kill window must have actually stalled traffic"
    );
}

/// A recovery-enabled rack: K-way replication + WQ replay armed, node 4
/// killed mid-run, fault-adaptive routing, a capped job so completion is
/// checkable. Shared by the two transparent-recovery property tests below.
fn recovery_rack(workload: Workload, k: u8, w: u8) -> (Rack, u32, u64) {
    let killed = 4u32;
    let mut chip = ChipConfig {
        active_cores: 2,
        seed: 0x4ec1,
        ..ChipConfig::default()
    };
    chip.rmc.itt_timeout = 1_500;
    chip.rmc.itt_retries = 1;
    chip.rmc.replication = ReplicaCfg { k, w, seed: 0x4ec1 };
    chip.rmc.replay_budget = u32::from(k.max(1)) - 1;
    let cfg = RackSimConfig {
        torus: Torus3D::new(3, 3, 1),
        chip,
        routing: RoutingKind::FaultAdaptive,
        faults: FaultPlan::new().node_down(killed, 300),
        threads: 1,
        ..RackSimConfig::default()
    };
    let ops_per_core = 6u64;
    let capped = Capped::new(Box::new(Synthetic::from_workload(workload)), ops_per_core);
    let mut rack = Rack::with_scenario(cfg, &capped);
    // 8 surviving nodes x 2 cores x 6 ops; the corpse's own job is void.
    let survivor_expected = 8 * 2 * ops_per_core;
    let mut guard = 0;
    loop {
        rack.run(2_000);
        let done: u64 = rack
            .chips()
            .iter()
            .enumerate()
            .filter(|&(n, _)| n as u32 != killed)
            .map(|(_, c)| c.completed_ops())
            .sum();
        if done >= survivor_expected {
            break;
        }
        guard += 1;
        assert!(
            guard < 100,
            "survivors never completed the job: {done}/{survivor_expected}"
        );
    }
    // With W=1 a quorum write notifies on the first ack, so the job can
    // finish while legs addressed to the corpse are still in flight. Drain
    // past the watchdog so every straggler leg resolves before we inspect
    // the counters.
    rack.run(8_000);
    (rack, killed, survivor_expected)
}

/// The tentpole acceptance property at tier-1 size: with K=2 replicas and
/// WQ replay armed, a node kill loses ZERO reads on surviving nodes —
/// every read addressed to the corpse replays toward the alternate replica
/// and completes, degraded but successful.
#[test]
fn node_kill_at_k2_loses_zero_reads_on_survivors() {
    let (rack, killed, _) = recovery_rack(
        Workload::AsyncRead {
            size: 256,
            poll_every: 4,
        },
        2,
        1,
    );
    for (n, chip) in rack.chips().iter().enumerate() {
        if n as u32 == killed {
            continue;
        }
        assert_eq!(
            chip.snapshot().cores.failed_reads,
            0,
            "survivor {n} lost reads despite K=2 + replay"
        );
    }
    let s = rack.snapshot();
    assert!(
        s.backends.replays.get() > 0,
        "recovery must actually run through the replay path"
    );
    assert!(
        s.cores.degraded > 0,
        "replayed reads must surface the degraded completion flag"
    );
}

/// Quorum writes survive one dead replica: with K=2/W=1 every write fans
/// out to both replicas and completes on the surviving ack, so survivors
/// see no error completions and the dead legs land in the leg-failure
/// counter instead of `failed_transfers`.
#[test]
fn quorum_writes_survive_one_dead_replica() {
    let (rack, killed, _) = recovery_rack(
        Workload::AsyncWrite {
            size: 256,
            poll_every: 4,
        },
        2,
        1,
    );
    for (n, chip) in rack.chips().iter().enumerate() {
        if n as u32 == killed {
            continue;
        }
        assert_eq!(chip.failed_ops(), 0, "survivor {n} saw an error CQ entry");
    }
    let be = rack.snapshot().backends;
    assert!(
        be.quorum_writes.get() > 0,
        "K=2 writes must fan out through the quorum table"
    );
    assert!(
        be.quorum_leg_failures.get() > 0,
        "the dead replica's legs must be absorbed by the quorum"
    );
}

/// The conservation audit: five capped jobs of 512 B async ops (2 cores
/// per node, 6 ops each, 108 in all) on a 3x3x1 rack, run in 200-cycle
/// slices until every op completed and then 5 000 cycles more. The
/// node-kill jobs kill node 4 at cycle 300 under fault-adaptive routing
/// with the watchdog armed; the k=2 ones replicate with w=1 and one replay.
/// Every node and the rack obey [`assert_conserved`]. Rack-wide only, the
/// fabric's requests are its responses plus its drops (a chip's port sees
/// no drops), and the chips' port counters sum to the torus's.
#[test]
fn drained_jobs_conserve_ops_and_packets() {
    let read = Workload::AsyncRead {
        size: 512,
        poll_every: 4,
    };
    let write = Workload::AsyncWrite {
        size: 512,
        poll_every: 4,
    };
    // (job, workload, node kill, k, failed ops, sent, responded, dropped)
    let jobs = [
        ("healthy reads", read, false, 1, 0, 864, 864, 0),
        ("healthy writes", write, false, 1, 0, 864, 864, 0),
        ("kill reads", read, true, 1, 24, 1_056, 672, 384),
        ("kill reads k=2", read, true, 2, 12, 1_344, 768, 576),
        ("kill writes k=2", write, true, 2, 12, 2_016, 1_440, 576),
    ];
    for (job, workload, kill, k, failed, sent, responded, dropped) in jobs {
        let mut cfg = RackSimConfig {
            torus: Torus3D::new(3, 3, 1),
            chip: ChipConfig {
                active_cores: 2,
                ..ChipConfig::default()
            },
            threads: 1,
            ..RackSimConfig::default()
        };
        if kill {
            cfg.routing = RoutingKind::FaultAdaptive;
            cfg.faults = FaultPlan::new().node_down(4, 300);
            cfg.chip.rmc.itt_timeout = 1_500;
            cfg.chip.rmc.itt_retries = 1;
        }
        if k > 1 {
            cfg.chip.rmc.replication = ReplicaCfg {
                k,
                w: 1,
                ..ReplicaCfg::default()
            };
            cfg.chip.rmc.replay_budget = 1;
        }
        let capped = Capped::new(Box::new(Synthetic::from_workload(workload)), 6);
        let mut rack = Rack::with_scenario(cfg, &capped);
        while rack.snapshot().cores.completed < 108 {
            assert!(rack.now().0 < 100_000, "{job}: the job never completed");
            rack.run(200);
        }
        rack.run(5_000);
        let all = snapshots(&rack);
        let s = &all[0];
        assert_conserved(s, job);
        for (node, chip) in all[1..].iter().enumerate() {
            assert_conserved(chip, &format!("{job}, node {node}"));
        }
        let got = (
            s.fabric.sent.get(),
            s.fabric.responded.get(),
            s.faults.packets_dropped.get(),
        );
        assert_eq!(got.0, got.1 + got.2, "{job}: sent vs responded + dropped");
        assert_eq!(
            got,
            (sent, responded, dropped),
            "{job}: sent, responded, dropped"
        );
        assert_eq!(s.cores.completed, 108, "{job}: completed ops");
        assert_eq!(s.cores.failed, failed, "{job}: failed ops");
        let mut ports = FabricStats::default();
        for chip in &all[1..] {
            ports.merge(&chip.fabric);
        }
        assert_eq!(ports, s.fabric, "{job}: the ports' counters vs the torus's");
    }
}

/// A study's BENCH point reads back as written, with the study's keys in
/// order: one small failure cell's row and one availability cell's row
/// through `BenchFile` and `read_points`.
#[test]
fn study_rows_read_back_with_their_keys_in_order() {
    let reads: ScenarioFactory = || {
        Box::new(Synthetic::from_workload(Workload::AsyncRead {
            size: 256,
            poll_every: 4,
        }))
    };
    let small = FailureParams {
        ops_per_core: 2,
        ..params()
    };
    let failure = JobCell::failure(
        (2, 1, 1),
        ("uniform", reads),
        RoutingKind::FaultAdaptive,
        FaultCase::NodeKill,
        small,
    );
    let availability = JobCell::availability(
        (3, 1, 1),
        ("reads", reads),
        FaultCase::NodeKill,
        (2, 1),
        small,
    );
    let failure_keys = [
        "scenario",
        "fault",
        "routing",
        "torus",
        "kill_at",
        "expected_ops",
        "completed_ops",
        "failed_ops",
        "completed_all",
        "completion_cycles",
        "p50_ok_read",
        "p99_ok_read",
        "link_skew",
        "itt_timeouts",
        "itt_retries",
        "packets_dropped",
        "dead_link_stalls",
        "escape_hops",
    ];
    let availability_keys = [
        "scenario",
        "fault",
        "k",
        "w",
        "torus",
        "kill_at",
        "expected_ops",
        "completed_ops",
        "failed_ops",
        "lost_reads",
        "corpse_failed_reads",
        "degraded_ops",
        "replays",
        "quorum_writes",
        "quorum_leg_failures",
        "completed_all",
        "completion_cycles",
        "recovery_cycles",
        "ops_per_kcycle",
        "p50_ok_read",
        "p99_ok_read",
        "p99_degraded_read",
    ];
    let rows = [
        run_job(failure).failure_row(),
        run_job(availability).availability_row(),
    ];
    let text = BenchFile::new("rackni-bench-test/1", Scale::Quick, rows.to_vec()).to_string();
    let points = read_points(&text).expect("the file reads back");
    assert_eq!(points, rows, "read back as written");
    assert!(points[0].keys().eq(failure_keys), "{}", points[0]);
    assert!(points[1].keys().eq(availability_keys), "{}", points[1]);
    assert_eq!(points[0].get("torus"), Some("2x1x1"));
    assert_eq!(points[1].get("fault"), Some("node-kill"));
}
