//! Workload-model tests: predicates, the NUMA flow, and regressions for
//! the frontend's entry-forwarding watermark.

use ni_qp::RemoteOp;
use ni_rmc::NiPlacement;
use ni_soc::{Chip, ChipConfig, Topology, Workload};

#[test]
fn workload_predicates() {
    assert_eq!(
        Workload::SyncRead { size: 64 }.remote_op(),
        Some(RemoteOp::Read)
    );
    assert_eq!(
        Workload::SyncWrite { size: 64 }.remote_op(),
        Some(RemoteOp::Write)
    );
    assert_eq!(
        Workload::AsyncRead {
            size: 64,
            poll_every: 4
        }
        .remote_op(),
        Some(RemoteOp::Read)
    );
    assert_eq!(
        Workload::AsyncWrite {
            size: 64,
            poll_every: 4
        }
        .remote_op(),
        Some(RemoteOp::Write)
    );
    assert_eq!(Workload::Idle.remote_op(), None);
    assert_eq!(Workload::NumaRead.remote_op(), None);
    assert!(Workload::SyncRead { size: 1 }.is_synchronous());
    assert!(Workload::SyncWrite { size: 1 }.is_synchronous());
    assert!(!Workload::AsyncRead {
        size: 1,
        poll_every: 1
    }
    .is_synchronous());
    assert!(!Workload::NumaRead.is_synchronous());
}

#[test]
fn numa_workload_round_trips_through_the_edge() {
    let cfg = ChipConfig {
        placement: NiPlacement::Numa,
        active_cores: 1,
        ..ChipConfig::default()
    };
    let mut chip = Chip::new(cfg, Workload::NumaRead);
    chip.run(10_000);
    let ops = chip.cores[0].stats.completed;
    assert!(ops > 10, "NUMA loads must stream: {ops}");
    // Latency floor: NOC to edge + 2 hops + remote service.
    let mean = chip.cores[0].latency_histogram().stats().mean();
    assert!(mean > 300.0 && mean < 420.0, "NUMA latency {mean}");
}

/// Regression: consecutive NI polls used to observe the same pending WQ
/// entries and double-forward them (panicking on the second `ni_take`).
/// A long synchronous run with back-to-back entries exercises exactly
/// that window.
#[test]
fn repeated_sync_ops_never_double_forward() {
    for p in NiPlacement::QP_DESIGNS {
        let cfg = ChipConfig {
            placement: p,
            active_cores: 1,
            ..ChipConfig::default()
        };
        let mut chip = Chip::new(cfg, Workload::SyncRead { size: 64 });
        let mut guard = 0u64;
        while chip.completed_ops() < 25 {
            chip.tick();
            guard += 1;
            assert!(guard < 2_000_000, "{p:?} stalled");
        }
        assert_eq!(chip.completed_ops(), 25, "{p:?}");
    }
}

/// Regression: a WQ entry must not be observable by the NI until its
/// second store lands (the first store must not advance the block token).
#[test]
fn entries_invisible_until_fully_written() {
    let cfg = ChipConfig {
        placement: NiPlacement::PerTile,
        active_cores: 1,
        ..ChipConfig::default()
    };
    let mut chip = Chip::new(cfg, Workload::SyncRead { size: 64 });
    let mut guard = 0u64;
    while chip.completed_ops() < 5 {
        chip.tick();
        guard += 1;
        assert!(guard < 2_000_000, "stalled");
    }
    chip.run(16);
    for wq_id in 1..=5u64 {
        let done = chip
            .traces
            .at(0, wq_id, ni_rmc::Stage::WqWriteDone)
            .expect("written");
        let seen = chip
            .traces
            .at(0, wq_id, ni_rmc::Stage::FeObserved)
            .expect("observed");
        assert!(
            seen >= done,
            "op {wq_id}: NI observed a half-written entry ({seen:?} < {done:?})"
        );
    }
}

#[test]
fn async_write_and_read_mix_designs_complete_on_nocout() {
    for wl in [
        Workload::AsyncRead {
            size: 256,
            poll_every: 4,
        },
        Workload::AsyncWrite {
            size: 256,
            poll_every: 4,
        },
    ] {
        let cfg = ChipConfig {
            topology: Topology::NocOut,
            active_cores: 8,
            ..ChipConfig::default()
        };
        let mut chip = Chip::new(cfg, wl);
        chip.run(40_000);
        assert!(
            chip.completed_ops() > 20,
            "{wl:?}: {}",
            chip.completed_ops()
        );
    }
}

#[test]
fn active_core_count_scales_throughput() {
    let mut ops = Vec::new();
    for n in [1usize, 8, 64] {
        let cfg = ChipConfig {
            active_cores: n,
            ..ChipConfig::default()
        };
        let mut chip = Chip::new(
            cfg,
            Workload::AsyncRead {
                size: 512,
                poll_every: 4,
            },
        );
        chip.run(20_000);
        ops.push(chip.completed_ops());
    }
    // Cores 0..8 share one mesh row, i.e. one RGP/RCP backend; scaling is
    // sublinear there. 8 -> 64 engages all eight backends.
    assert!(ops[1] as f64 > ops[0] as f64 * 1.5, "8 cores vs 1: {ops:?}");
    assert!(
        ops[2] as f64 > ops[1] as f64 * 2.0,
        "64 cores vs 8: {ops:?}"
    );
}
