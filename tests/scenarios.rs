//! Scenario-API integration tests: every built-in scenario through the same
//! trait object on both evaluation paths (single chip behind the emulator,
//! 8-node torus rack), seed-determinism of op streams and whole-rack runs,
//! and the hotspot skew the uniform `TrafficPattern` enum could not express.

use rackni::ni_fabric::Torus3D;
use rackni::ni_soc::{
    builtin_scenarios, Chip, ChipConfig, Op, OpCtx, Rack, RackSimConfig, Scenario, Synthetic,
    TrafficPattern, Workload, ZipfHotspot,
};

mod common;
use common::{assert_same, snapshots};

fn rack_cfg(seed: u64, active_cores: usize) -> RackSimConfig {
    RackSimConfig {
        torus: Torus3D::new(2, 2, 2),
        chip: ChipConfig {
            active_cores,
            seed,
            ..ChipConfig::default()
        },
        ..RackSimConfig::default()
    }
}

/// Acceptance: all four built-in scenarios run on the single-chip path
/// (paper's rack emulator) through the `Scenario` trait object.
#[test]
fn every_builtin_scenario_completes_on_the_single_chip_path() {
    for s in builtin_scenarios() {
        let cfg = ChipConfig {
            active_cores: 4,
            ..ChipConfig::default()
        };
        let mut chip = Chip::with_scenario(cfg, s.as_ref());
        chip.run(30_000);
        let (r, name) = (chip.snapshot(), s.name());
        assert!(
            r.cores.completed > 10,
            "{name}: only {} ops on the chip path",
            r.cores.completed
        );
        assert!(r.app_gbps(30_000) > 0.0, "{name}: no payload moved");
    }
}

/// Acceptance: all four built-in scenarios run on an 8-node `TorusFabric`
/// rack through the same `Scenario` trait object, with real cross-node
/// traffic on the fabric.
#[test]
fn every_builtin_scenario_completes_on_an_eight_node_rack() {
    for s in builtin_scenarios() {
        let mut rack = Rack::with_scenario(rack_cfg(7, 2), s.as_ref());
        rack.run(20_000);
        let completed = rack.snapshot().cores.completed;
        assert!(
            completed > 10,
            "{}: only {completed} ops rack-wide",
            rack.scenario_name()
        );
        assert!(
            rack.hops_traversed() > 0,
            "{}: no fabric traffic",
            rack.scenario_name()
        );
        let fs = rack.fabric_stats();
        assert!(
            fs.sent.get() > 0 && fs.responded.get() > 0,
            "{}: requests must round-trip",
            rack.scenario_name()
        );
    }
}

/// Determinism at the generator level: the same `OpCtx` must replay an
/// identical op stream for every built-in scenario.
#[test]
fn generators_replay_identical_op_streams_from_one_seed() {
    let stream = |s: &dyn Scenario, seed: u64| -> Vec<Op> {
        let ctx = OpCtx::bind(2, 3, 8, Some(Torus3D::new(2, 2, 2)), seed);
        let mut g = s.for_core(&ctx);
        let mut c = ctx;
        (0..300)
            .map(|i| {
                c.issued = i;
                g.next_op(&c)
            })
            .collect()
    };
    for s in builtin_scenarios() {
        assert_eq!(
            stream(s.as_ref(), 99),
            stream(s.as_ref(), 99),
            "{}: same seed must replay the same ops",
            s.name()
        );
    }
}

/// Determinism at the rack level: the same `RackSimConfig` seed must
/// reproduce identical `FabricStats` and every other counter, rack-wide
/// and per chip, across two runs, for every built-in scenario.
#[test]
fn rack_runs_reproduce_identical_fabric_stats_per_scenario() {
    for s in builtin_scenarios() {
        let run = || {
            let mut rack = Rack::with_scenario(rack_cfg(1234, 2), s.as_ref());
            rack.run(10_000);
            snapshots(&rack)
        };
        let a = run();
        assert!(a[0].fabric.sent.get() > 0, "{}: no requests sent", s.name());
        assert_same(&run(), &a, &format!("{}: two same-seed runs", s.name()));
    }
}

/// Different seeds must actually change randomized scenarios' traffic.
#[test]
fn rack_runs_decorrelate_across_seeds() {
    let s = ZipfHotspot::default();
    let run = |seed: u64| {
        let mut rack = Rack::with_scenario(rack_cfg(seed, 2), &s);
        rack.run(10_000);
        (rack.hops_traversed(), rack.fabric_stats().sent.get())
    };
    assert_ne!(run(1), run(2), "seed must steer zipf traffic");
}

/// Acceptance: a `ZipfHotspot` run demonstrates measurably skewed per-link
/// load versus `Synthetic` uniform traffic on the same rack.
#[test]
fn zipf_hotspot_skews_per_link_load_beyond_uniform() {
    let cycles = 15_000u64;
    let mut uniform = Rack::with_scenario(
        rack_cfg(42, 4),
        &Synthetic::from_workload(Workload::AsyncRead {
            size: 256,
            poll_every: 4,
        })
        .with_pattern(TrafficPattern::Uniform),
    );
    uniform.run(cycles);
    let mut hot = Rack::with_scenario(rack_cfg(42, 4), &ZipfHotspot::default());
    hot.run(cycles);

    let u_skew = uniform.link_byte_skew();
    let h_skew = hot.link_byte_skew();
    assert!(
        h_skew > u_skew * 1.2,
        "zipf link skew {h_skew:.2}x must clearly exceed uniform {u_skew:.2}x"
    );

    // The hot node's incoming links carry the Zipf head: the busiest link
    // must touch node 0's neighborhood far harder than the rack mean, and
    // peak per-link bandwidth must exceed the uniform run's.
    assert!(
        hot.peak_link_gbps() >= uniform.peak_link_gbps(),
        "hotspot peak {} GBps vs uniform {} GBps",
        hot.peak_link_gbps(),
        uniform.peak_link_gbps()
    );
}

/// The hot node's RRPPs queue visibly harder than the rack average under
/// `ZipfHotspot` — the RRPP-queueing measurement the ROADMAP item asks for.
#[test]
fn zipf_hotspot_queues_the_hot_nodes_rrpps() {
    let mut hot = Rack::with_scenario(rack_cfg(5, 4), &ZipfHotspot::default());
    hot.run(20_000);
    let lats: Vec<f64> = hot.chips().iter().map(Chip::rrpp_mean_latency).collect();
    assert!(lats[0] > 0.0, "hot node serviced nothing: {lats:?}");
    let others: Vec<f64> = lats[1..].iter().copied().filter(|&l| l > 0.0).collect();
    assert!(!others.is_empty());
    let other_mean = others.iter().sum::<f64>() / others.len() as f64;
    assert!(
        lats[0] > other_mean,
        "hot node RRPP latency {:.0} should exceed the other nodes' mean {other_mean:.0}: {lats:?}",
        lats[0]
    );
}

/// A finite custom scenario: issues exactly `ops` async 64B reads, then
/// idles forever.
#[derive(Clone, Copy, Debug)]
struct FiniteReads {
    ops: u64,
}

impl Scenario for FiniteReads {
    fn name(&self) -> &str {
        "finite-reads"
    }
    fn for_core(&self, _ctx: &OpCtx) -> Box<dyn Scenario> {
        Box::new(*self)
    }
    fn next_op(&mut self, ctx: &OpCtx) -> Op {
        use rackni::ni_mem::Addr;
        use rackni::ni_qp::RemoteOp;
        if ctx.issued >= self.ops {
            return Op::Idle;
        }
        Op::Remote {
            op: RemoteOp::Read,
            to: 1,
            addr: Addr(rackni::ni_soc::REMOTE_BASE + ctx.issued * 64),
            size: 64,
            sync: false,
        }
    }
}

/// A finite scenario (N async ops, then `Op::Idle` forever) must still have
/// every completion reaped: the core drains outstanding CQ entries while
/// the scenario idles, even when the final issue count never hits a
/// `poll_every` multiple.
#[test]
fn finite_scenarios_reap_all_outstanding_completions() {
    let cfg = ChipConfig {
        active_cores: 1,
        ..ChipConfig::default()
    };
    // 3 is not a multiple of poll_every (4) and never fills the WQ, so only
    // the idle-drain path can reap these completions.
    let mut chip = Chip::with_scenario(cfg, &FiniteReads { ops: 3 });
    chip.run(20_000);
    assert_eq!(
        chip.snapshot().cores.completed,
        3,
        "all issued ops must be reaped after going idle"
    );
}

/// `reset_scenario` mid-run must not strand completions: in-flight pre-reset
/// ops and a short post-reset op burst are all reaped even though the reset
/// rewinds the issue counter the poll cadence is driven by.
#[test]
fn reset_scenario_keeps_reaping_across_the_reset() {
    use rackni::ni_soc::Chip;
    let cfg = ChipConfig {
        active_cores: 1,
        ..ChipConfig::default()
    };
    let mut chip = Chip::new(
        cfg,
        Workload::AsyncRead {
            size: 256,
            poll_every: 4,
        },
    );
    chip.run(15_000);
    let before = chip.completed_ops();
    assert!(before > 0, "pre-reset stream must make progress");
    chip.core_mut(0)
        .reset_scenario(Box::new(FiniteReads { ops: 2 }));
    chip.run(15_000);
    assert!(
        chip.completed_ops() >= before + 2,
        "post-reset ops (and any in-flight pre-reset ops) must be reaped: \
         {} before, {} after",
        before,
        chip.completed_ops()
    );
}

/// Mutating a core through `Chip::core_mut` wakes the chip: a core asleep
/// in a long `IdleFor` window, reset to a back-to-back synchronous
/// workload, resumes issuing on the next tick under the event tick exactly
/// as under the poll reference. (Mutating `cores[0]` directly would leave
/// its wake slot at the end of the idle window and the event tick would
/// miss the reset.)
#[test]
fn core_mut_wakes_a_core_asleep_in_an_idle_window() {
    use rackni::ni_soc::{Bursty, Chip, TickMode};
    let run = |tick_mode: TickMode| {
        let cfg = ChipConfig {
            active_cores: 1,
            tick_mode,
            ..ChipConfig::default()
        };
        let bursty = Bursty::new(
            Box::new(Synthetic::from_workload(Workload::SyncRead { size: 64 })),
            1,
            50_000,
        );
        let mut chip = Chip::with_scenario(cfg, &bursty);
        chip.run(20_000);
        assert_eq!(chip.completed_ops(), 1, "one burst op, then idle");
        chip.core_mut(0)
            .reset_workload(Workload::SyncRead { size: 64 });
        chip.run(10_000);
        chip.completed_ops()
    };
    let poll = run(TickMode::Poll);
    assert!(poll > 1, "the reset workload must issue: {poll} ops");
    assert_eq!(run(TickMode::Event), poll, "event tick missed the reset");
}

/// `Core::set_target` (the pre-scenario retargeting API) must steer a
/// `Workload`-constructed rack's traffic to the node it names.
#[test]
fn set_target_steers_workload_rack_traffic() {
    let torus = Torus3D::new(2, 2, 2);
    let cfg = RackSimConfig {
        torus,
        chip: ChipConfig {
            active_cores: 1,
            ..ChipConfig::default()
        },
        ..RackSimConfig::default()
    };
    let mut rack = Rack::with_scenario(
        cfg,
        &Synthetic::from_workload(Workload::AsyncRead {
            size: 256,
            poll_every: 4,
        })
        .with_pattern(TrafficPattern::Neighbor),
    );
    // On the neighbor ring only node 0 targets node 1; move that stream to
    // node 4 before anything runs.
    rack.chip_mut(0).cores[0].set_target(4);
    assert_eq!(rack.chips()[0].cores[0].target(), 4);
    rack.run(15_000);
    assert_eq!(
        rack.chips()[1].rrpp_mean_latency(),
        0.0,
        "node 1 must receive nothing after the retarget"
    );
    assert!(
        rack.chips()[4].app_payload_bytes() > 0,
        "node 4 must service the retargeted stream"
    );
}

/// Compatibility: a `Synthetic` scenario with a `TrafficPattern` still
/// produces the pre-scenario `Workload` behavior (fixed per-core targets,
/// pattern-derived destinations).
#[test]
fn workload_constructors_remain_thin_synthetic_wrappers() {
    let torus = Torus3D::new(2, 2, 2);
    let cfg = RackSimConfig {
        torus,
        chip: ChipConfig {
            active_cores: 2,
            ..ChipConfig::default()
        },
        ..RackSimConfig::default()
    };
    let rack = Rack::with_scenario(
        cfg,
        &Synthetic::from_workload(Workload::AsyncRead {
            size: 128,
            poll_every: 4,
        })
        .with_pattern(TrafficPattern::Neighbor),
    );
    assert_eq!(rack.scenario_name(), "synthetic");
    for (node, chip) in rack.chips().iter().enumerate() {
        let expect = TrafficPattern::Neighbor.target(torus, node as u32, 0) as u16;
        assert_eq!(chip.cores[0].target(), expect, "node {node} core 0");
    }
}
