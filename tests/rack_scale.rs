//! Multi-node rack integration tests: cross-node request/response semantics
//! over the real torus fabric, the latency floor of the wires, per-link
//! accounting, and bit-exact reproducibility from the config seed.

use rackni::ni_fabric::Torus3D;
use rackni::ni_mem::Addr;
use rackni::ni_soc::{Chip, ChipConfig, Rack, RackSimConfig, TrafficPattern, Workload};

const REMOTE_BASE: u64 = 1 << 40;

fn rack_cfg(torus: Torus3D, active_cores: usize, traffic: TrafficPattern) -> RackSimConfig {
    RackSimConfig {
        torus,
        chip: ChipConfig {
            active_cores,
            ..ChipConfig::default()
        },
        traffic,
        ..RackSimConfig::default()
    }
}

fn run_until(rack: &mut Rack, limit: u64, mut done: impl FnMut(&Rack) -> bool) {
    let mut guard = 0u64;
    while !done(rack) {
        rack.tick();
        guard += 1;
        assert!(guard < limit, "rack run exceeded {limit} cycles");
    }
}

/// Shared observable fingerprint for every bit-identity test in this file
/// (thread counts, tick modes): everything a reordered, duplicated, or
/// dropped delivery could perturb — aggregate and per-node completion
/// counts, traffic/fault counters, each chip's NOC traffic (which moves if
/// any on-chip message is added or lost), and the RRPP latency means
/// (which change if any packet's *timing* moves).
#[derive(Debug, PartialEq)]
struct TickFingerprint {
    sent: u64,
    responded: u64,
    incoming: u64,
    completed_ops: u64,
    failed_ops: u64,
    payload_bytes: u64,
    hops: u64,
    dropped: u64,
    stalls: u64,
    escapes: u64,
    timeouts: u64,
    retries: u64,
    rrpp_means: Vec<f64>,
    per_node_ops: Vec<u64>,
    /// Per chip: NOC packets injected, delivered, flit-hops, and
    /// injection rejects.
    per_node_noc: Vec<[u64; 4]>,
}

fn tick_fingerprint(rack: &Rack) -> TickFingerprint {
    let fs = rack.fabric_stats();
    let fstats = rack.fault_stats();
    let be = rack.backend_stats();
    TickFingerprint {
        sent: fs.sent.get(),
        responded: fs.responded.get(),
        incoming: fs.incoming_generated.get(),
        completed_ops: rack.completed_ops(),
        failed_ops: rack.failed_ops(),
        payload_bytes: rack.app_payload_bytes(),
        hops: rack.hops_traversed(),
        dropped: fstats.packets_dropped.get(),
        stalls: fstats.dead_link_stalls.get(),
        escapes: fstats.escape_hops.get(),
        timeouts: be.itt_timeouts.get(),
        retries: be.itt_retries.get(),
        rrpp_means: rack.rrpp_mean_latencies(),
        per_node_ops: rack.chips().iter().map(|c| c.completed_ops()).collect(),
        per_node_noc: rack
            .chips()
            .iter()
            .map(|c| {
                let n = c.noc_stats();
                [
                    n.injected_packets.get(),
                    n.delivered_packets.get(),
                    n.flit_hops.get(),
                    n.inject_rejects.get(),
                ]
            })
            .collect(),
    }
}

/// Satellite requirement: node A remote-writes a block homed on node B,
/// then remote-reads it back — the value round-trips through B's actual
/// memory hierarchy, and both operations pay at least the physical network
/// floor of `2 x hops x 70` cycles (35 ns per hop at 2 GHz).
#[test]
fn cross_node_write_then_read_round_trips_through_remote_memory() {
    let torus = Torus3D::new(2, 2, 2);
    // Opposite pattern: node 0 targets its antipode, node 7, 3 hops away.
    let mut rack = Rack::new(
        rack_cfg(torus, 1, TrafficPattern::Opposite),
        Workload::SyncWrite { size: 64 },
    );
    let target = rack.chips()[0].cores[0].target();
    assert_eq!(u32::from(target), 7);
    let hops = u64::from(torus.hops(0, u32::from(target)));
    assert_eq!(hops, 3);

    // Seed the payload in node 0's local buffer; node 7's remote region
    // starts clean so the landing is observable.
    const TOKEN: u64 = 0xfeed_c0de_0123_4567;
    let lbuf = Addr(rack.chips()[0].cores[0].local_buf().0).block();
    let remote = Addr(REMOTE_BASE).block();
    rack.chip_mut(0).poke_block(lbuf, TOKEN);
    assert_eq!(rack.chips()[7].peek_block(remote), 0, "remote starts clean");

    // Phase 1: the write crosses the rack and lands in node 7's memory.
    run_until(&mut rack, 200_000, |r| r.chips()[0].completed_ops() >= 1);
    assert_eq!(
        rack.chips()[7].peek_block(remote),
        TOKEN,
        "write payload must land in the remote node's memory"
    );
    let write_lat = rack.chips()[0].cores[0].stats.latency.mean();
    assert!(
        write_lat >= (2 * hops * 70) as f64,
        "write latency {write_lat} beats the 2 x {hops} x 70 network floor"
    );

    // Phase 2: clear the local buffer and read the block back.
    rack.chip_mut(0).poke_block(lbuf, 0);
    rack.chip_mut(0).cores[0].reset_workload(Workload::SyncRead { size: 64 });
    run_until(&mut rack, 400_000, |r| r.chips()[0].completed_ops() >= 2);
    assert_eq!(
        rack.chips()[0].peek_block(lbuf),
        TOKEN,
        "read must return the value written in phase 1"
    );
    let mean_lat = rack.chips()[0].cores[0].stats.latency.mean();
    assert!(
        mean_lat >= (2 * hops * 70) as f64,
        "mean op latency {mean_lat} beats the network floor"
    );
}

/// An 8-node rack completes real traffic on every node, and the fabric's
/// per-directed-link counters account every hop traversed.
#[test]
fn eight_node_rack_completes_ops_on_every_node() {
    let mut rack = Rack::new(
        rack_cfg(Torus3D::new(2, 2, 2), 2, TrafficPattern::Uniform),
        Workload::SyncRead { size: 64 },
    );
    rack.run(15_000);
    for chip in rack.chips() {
        assert!(
            chip.completed_ops() > 0,
            "node {} completed nothing",
            chip.node_id()
        );
        assert!(
            chip.app_payload_bytes() > 0,
            "node {} moved no payload",
            chip.node_id()
        );
    }
    let link_sum: u64 = rack.link_report().iter().map(|l| l.packets).sum();
    assert_eq!(link_sum, rack.hops_traversed());
    assert!(rack.peak_link_gbps() > 0.0);
    let fs = rack.fabric_stats();
    assert!(fs.sent.get() > 0 && fs.responded.get() > 0);
}

/// NUMA-mode loads (no QP machinery) also cross the real torus and find
/// their way back to the issuing core.
#[test]
fn numa_workload_crosses_the_torus() {
    let mut rack = Rack::new(
        rack_cfg(Torus3D::new(2, 1, 1), 1, TrafficPattern::Neighbor),
        Workload::NumaRead,
    );
    run_until(&mut rack, 100_000, |r| {
        r.chips().iter().all(|c| c.completed_ops() >= 3)
    });
    // One hop each way at 70 cycles plus remote service: well above 140.
    let lat = rack.chips()[0].cores[0].stats.latency.mean();
    assert!(lat >= 140.0, "NUMA latency {lat} beats the wire floor");
}

/// The windowed parallel run is bit-identical to the serial path: the
/// same seeded 3x3x3 scenario run (a) serially via `Rack::tick`, (b) through
/// `Rack::run` pinned to one worker, and (c) through `Rack::run` with four
/// workers must produce equal [`TickFingerprint`]s.
#[test]
fn parallel_rack_is_bit_identical_to_serial_at_any_thread_count() {
    let cycles = 1_500u64;
    let build = |threads: usize| {
        let mut cfg = rack_cfg(Torus3D::new(3, 3, 3), 2, TrafficPattern::Uniform);
        cfg.chip.seed = 0xd15c0;
        cfg.threads = threads;
        Rack::new(
            cfg,
            Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            },
        )
    };

    let mut serial = build(1);
    for _ in 0..cycles {
        serial.tick();
    }
    let want = tick_fingerprint(&serial);
    assert!(want.completed_ops > 0, "reference run must do real work");
    assert!(want.hops > 0, "reference run must cross the fabric");

    for threads in [1usize, 4] {
        let mut rack = build(threads);
        rack.run(cycles);
        assert_eq!(
            tick_fingerprint(&rack),
            want,
            "{threads}-thread run diverged from the serial reference"
        );
    }
}

/// A run with a `FaultPlan` — link kill, node kill, and a repair, with the
/// ITT watchdog armed — is still a pure function of its config: serial
/// ticking, one worker, and four workers must produce equal
/// [`TickFingerprint`]s, fault-path counters and watchdog statistics
/// included. All fault state lives in the driver-side fabric and the
/// per-chip backends, so thread count can never observe it mid-change.
#[test]
fn faulted_rack_runs_are_bit_identical_across_thread_counts() {
    use rackni::ni_fabric::FaultPlan;

    let build = |threads: usize| {
        let mut cfg = rack_cfg(Torus3D::new(3, 3, 1), 2, TrafficPattern::Uniform);
        cfg.chip.seed = 0xfa117;
        cfg.chip.rmc.itt_timeout = 1_200;
        cfg.chip.rmc.itt_retries = 1;
        cfg.threads = threads;
        cfg.routing = rackni::ni_fabric::RoutingKind::FaultAdaptive;
        cfg.faults = FaultPlan::new()
            .link_down(0, 1, 400)
            .node_down(4, 900)
            .link_up(0, 1, 2_200);
        Rack::new(
            cfg,
            Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            },
        )
    };
    let cycles = 6_000u64;
    let mut serial = build(1);
    for _ in 0..cycles {
        serial.tick();
    }
    let want = tick_fingerprint(&serial);
    assert!(want.completed_ops > 0, "reference run must do work");
    assert!(
        want.dropped > 0 && want.timeouts > 0,
        "the fault plan must actually bite: {want:?}"
    );
    for threads in [1usize, 4] {
        let mut rack = build(threads);
        rack.run(cycles);
        assert_eq!(
            tick_fingerprint(&rack),
            want,
            "{threads}-thread faulted run diverged from the serial reference"
        );
    }
}

// ---- Lookahead windows --------------------------------------------------

/// Per-chip full-tick counts: a dormant skip taken or missed in the wrong
/// cycle moves them without touching any fingerprinted counter.
fn full_ticks(rack: &Rack) -> Vec<u64> {
    rack.chips().iter().map(Chip::full_ticks).collect()
}

/// Run `build(threads)` for `cycles` through a `Rack::tick` loop (one
/// thread) and through the windowed `Rack::run` at one, two and four
/// workers: every run must produce the reference's [`TickFingerprint`] and
/// per-chip full-tick counts. Returns the one-worker windowed rack.
fn assert_windows_match_per_cycle_ticks(cycles: u64, build: impl Fn(usize) -> Rack) -> Rack {
    let mut reference = build(1);
    for _ in 0..cycles {
        reference.tick();
    }
    assert_eq!(reference.sync_rounds(), cycles, "one round per tick");
    let want = (tick_fingerprint(&reference), full_ticks(&reference));
    let runs = [1usize, 2, 4].map(|threads| {
        let mut rack = build(threads);
        rack.run(cycles);
        assert_eq!(
            (tick_fingerprint(&rack), full_ticks(&rack)),
            want,
            "windowed run at {threads} threads diverged from per-cycle ticking"
        );
        rack
    });
    let [one_worker, ..] = runs;
    one_worker
}

/// A healthy rack whose writers sit in their destination's replica set:
/// with K=2 on a rack of two nodes every replicated write sends one of its
/// quorum legs to the writer's own node, a packet the fabric delivers one
/// cycle after injection, deep inside a lookahead window.
fn quorum_write_rack(torus: Torus3D, hop_cycles: u64, link_bytes: u64, threads: usize) -> Rack {
    use rackni::ni_fabric::ReplicaCfg;
    use rackni::ni_soc::{Capped, Synthetic};

    let mut cfg = rack_cfg(torus, 2, TrafficPattern::Uniform);
    cfg.hop_cycles = hop_cycles;
    cfg.link_bytes_per_cycle = link_bytes;
    cfg.chip.rmc.replication = ReplicaCfg {
        k: 2,
        w: 1,
        seed: 0x5eed_ab1e,
    };
    cfg.chip.rmc.replay_budget = 1;
    cfg.chip.rmc.itt_timeout = 4_000;
    cfg.threads = threads;
    let job = Capped::new(
        Box::new(Synthetic::from_workload(Workload::AsyncWrite {
            size: 512,
            poll_every: 4,
        })),
        8,
    );
    Rack::with_scenario(cfg, &job)
}

/// Self-addressed quorum legs land inside the window they were sent in: a
/// windowed driver must loop them back inside the port, due one cycle
/// later, or the chip sees them late.
#[test]
fn windowed_run_loops_self_addressed_quorum_legs_back_in_the_port() {
    let rack = assert_windows_match_per_cycle_ticks(12_000, |threads| {
        quorum_write_rack(Torus3D::new(2, 1, 1), 70, 16, threads)
    });
    let fp = tick_fingerprint(&rack);
    assert_eq!(
        fp.per_node_ops,
        [16, 16],
        "every capped write must complete"
    );
    // On two nodes every packet that leaves its node crosses one link:
    // the deliveries beyond the hop count are the self-addressed legs.
    assert!(
        fp.incoming + fp.responded > fp.hops,
        "no self-addressed leg was sent: {fp:?}"
    );
}

/// The window length is derived from the fabric config, hop latency plus
/// the serialization of the smallest packet: hop 1 and 70 at 16 and 64
/// bytes per cycle give windows of 3, 2, 72 and 71 cycles, and a healthy
/// run takes one sync round per window.
#[test]
fn windowed_run_matches_per_cycle_ticks_at_every_derived_window() {
    let cycles = 3_000u64;
    for (hop, link_bytes, window) in [(1, 16, 3), (1, 64, 2), (70, 16, 72), (70, 64, 71)] {
        let rack = assert_windows_match_per_cycle_ticks(cycles, |threads| {
            quorum_write_rack(Torus3D::new(2, 2, 1), hop, link_bytes, threads)
        });
        assert!(rack.completed_ops() > 0, "hop {hop}: no op completed");
        assert_eq!(
            rack.sync_rounds(),
            cycles.div_ceil(window),
            "hop {hop}, {link_bytes} B/cycle: expected {window}-cycle windows"
        );
    }
}

/// Windows are cut wherever a run call ends: `run(100)`, `run(37)` and
/// `run(rest)` reproduce one `run` of the whole horizon.
#[test]
fn split_runs_match_one_run() {
    let cycles = 6_000u64;
    for threads in [1usize, 2] {
        let build = || quorum_write_rack(Torus3D::new(2, 1, 1), 70, 16, threads);
        let mut whole = build();
        whole.run(cycles);
        let mut split = build();
        split.run(100);
        split.run(37);
        split.run(cycles - 137);
        assert_eq!(split.now(), whole.now());
        assert_eq!(
            (tick_fingerprint(&split), full_ticks(&split)),
            (tick_fingerprint(&whole), full_ticks(&whole)),
            "split run diverged at {threads} threads"
        );
    }
}

/// Reproducibility: a rack run is a pure function of its config (seed
/// included), and the emulator path reproduces from `ChipConfig::seed`
/// alone.
#[test]
fn rack_runs_are_reproducible_from_the_config_seed() {
    let run = |seed: u64| {
        let mut cfg = rack_cfg(Torus3D::new(2, 2, 1), 2, TrafficPattern::Uniform);
        cfg.chip.seed = seed;
        let mut rack = Rack::new(
            cfg,
            Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            },
        );
        rack.run(8_000);
        (
            rack.completed_ops(),
            rack.app_payload_bytes(),
            rack.hops_traversed(),
            rack.fabric_stats().responded.get(),
        )
    };
    assert_eq!(run(42), run(42), "same seed must reproduce bit-identically");

    let emulated = |seed: u64| {
        let cfg = ChipConfig {
            seed,
            active_cores: 4,
            ..ChipConfig::default()
        };
        let mut chip = Chip::new(
            cfg,
            Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            },
        );
        chip.run(8_000);
        (
            chip.completed_ops(),
            chip.app_payload_bytes(),
            chip.fabric_stats().incoming_generated.get(),
        )
    };
    assert_eq!(emulated(7), emulated(7));
}

/// The rack-scale experiment sweep produces structurally sound rows.
#[test]
fn rack_scale_experiment_reports_scaling_rows() {
    use rackni::experiments::{rack_scale, Scale};
    let pts = rack_scale(Scale::Quick, TrafficPattern::Uniform);
    assert_eq!(pts.len(), 3);
    for p in &pts {
        assert_eq!(
            p.nodes,
            u32::from(p.dims.0) * u32::from(p.dims.1) * u32::from(p.dims.2)
        );
        assert!(p.completed_ops > 0, "{:?} rack idle", p.dims);
        assert!(p.agg_ni_gbps > 0.0);
        if p.nodes > 1 {
            assert!(p.peak_link_gbps > 0.0);
            assert!(
                p.mean_hops >= 1.0,
                "{:?}: mean hops {}",
                p.dims,
                p.mean_hops
            );
        }
    }
    // More nodes, more aggregate NI throughput (each node adds both
    // requesters and servers).
    assert!(
        pts.last().expect("rows").agg_ni_gbps > pts[0].agg_ni_gbps,
        "aggregate bandwidth should grow with rack size"
    );
}

// ---- Event-driven tick equivalence -----------------------------------------

/// Tentpole acceptance: the event-driven chip tick (wake slots + dormant
/// skip) is bit-identical to the poll-everything reference on a healthy
/// rack — the same seeded 3x3x3 scenario run serially under poll sets the
/// reference, and both tick modes through `Rack::run` at one and four
/// workers must reproduce it exactly. A placement x topology axis repeats
/// the comparison on a 2x2x1 rack for every NI design on the mesh and on
/// NOC-Out, NUMA loads included, and pins each case's event-mode full-tick
/// count: a wake slot that fires early changes that count without moving
/// any fingerprinted statistic.
#[test]
fn event_tick_is_bit_identical_to_poll_on_a_healthy_rack() {
    use rackni::ni_rmc::NiPlacement;
    use rackni::ni_soc::{TickMode, Topology};

    let build = |mode: TickMode, threads: usize| {
        let mut cfg = rack_cfg(Torus3D::new(3, 3, 3), 2, TrafficPattern::Uniform);
        cfg.chip.seed = 0x71c5;
        cfg.chip.tick_mode = mode;
        cfg.threads = threads;
        Rack::new(
            cfg,
            Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            },
        )
    };
    let cycles = 1_500u64;
    let mut reference = build(TickMode::Poll, 1);
    for _ in 0..cycles {
        reference.tick();
    }
    let want = tick_fingerprint(&reference);
    assert!(want.completed_ops > 0, "reference run must do real work");
    assert!(want.hops > 0, "reference run must cross the fabric");

    for mode in [TickMode::Poll, TickMode::Event] {
        for threads in [1usize, 4] {
            let mut rack = build(mode, threads);
            rack.run(cycles);
            assert_eq!(
                tick_fingerprint(&rack),
                want,
                "{mode:?} tick at {threads} threads diverged from the \
                 serial poll reference"
            );
        }
    }

    // (placement, topology, workload, event-mode full ticks summed over
    // the four chips, recorded before cores and memory controllers had
    // wake slots).
    let async_read = Workload::AsyncRead {
        size: 256,
        poll_every: 4,
    };
    let cases = [
        (NiPlacement::Split, Topology::Mesh, async_read, 19_872),
        (NiPlacement::Edge, Topology::Mesh, async_read, 19_688),
        (NiPlacement::PerTile, Topology::Mesh, async_read, 19_872),
        (NiPlacement::Split, Topology::NocOut, async_read, 19_856),
        (NiPlacement::Edge, Topology::NocOut, async_read, 19_020),
        (NiPlacement::Numa, Topology::Mesh, Workload::NumaRead, 6_864),
    ];
    for (placement, topology, workload, full_ticks) in cases {
        let run = |mode: TickMode| {
            let mut cfg = rack_cfg(Torus3D::new(2, 2, 1), 3, TrafficPattern::Uniform);
            cfg.chip.seed = 0x71c5;
            cfg.chip.placement = placement;
            cfg.chip.topology = topology;
            cfg.chip.tick_mode = mode;
            cfg.threads = 1;
            let mut rack = Rack::new(cfg, workload);
            rack.run(5_000);
            rack
        };
        let want = tick_fingerprint(&run(TickMode::Poll));
        assert!(
            want.completed_ops > 0 && want.hops > 0,
            "{placement:?} on {topology:?} must complete ops across the fabric"
        );
        let event = run(TickMode::Event);
        assert_eq!(
            tick_fingerprint(&event),
            want,
            "{placement:?} on {topology:?}: event tick diverged from poll"
        );
        let ticks: u64 = event.chips().iter().map(Chip::full_ticks).sum();
        assert_eq!(
            ticks, full_ticks,
            "{placement:?} on {topology:?}: the dormant skip engaged differently"
        );
    }
}

/// Same contract on a *faulted* fabric: with a link kill, a node kill, a
/// repair, and the ITT watchdog firing, the event tick must still match
/// the poll reference bit-for-bit at every thread count — fault counters,
/// watchdog statistics, and per-node completions included.
#[test]
fn event_tick_is_bit_identical_to_poll_on_a_faulted_rack() {
    use rackni::ni_fabric::FaultPlan;
    use rackni::ni_soc::TickMode;

    let build = |mode: TickMode, threads: usize| {
        let mut cfg = rack_cfg(Torus3D::new(3, 3, 1), 2, TrafficPattern::Uniform);
        cfg.chip.seed = 0xfa117;
        cfg.chip.tick_mode = mode;
        cfg.chip.rmc.itt_timeout = 1_200;
        cfg.chip.rmc.itt_retries = 1;
        cfg.threads = threads;
        cfg.routing = rackni::ni_fabric::RoutingKind::FaultAdaptive;
        cfg.faults = FaultPlan::new()
            .link_down(0, 1, 400)
            .node_down(4, 900)
            .link_up(0, 1, 2_200);
        Rack::new(
            cfg,
            Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            },
        )
    };
    let cycles = 6_000u64;
    let mut reference = build(TickMode::Poll, 1);
    for _ in 0..cycles {
        reference.tick();
    }
    let want = tick_fingerprint(&reference);
    assert!(want.completed_ops > 0, "reference run must do work");
    assert!(
        want.dropped > 0 && want.timeouts > 0,
        "the fault plan must actually bite: {want:?}"
    );

    for mode in [TickMode::Poll, TickMode::Event] {
        for threads in [1usize, 4] {
            let mut rack = build(mode, threads);
            rack.run(cycles);
            assert_eq!(
                tick_fingerprint(&rack),
                want,
                "{mode:?} tick at {threads} threads diverged from the \
                 serial poll reference on the faulted fabric"
            );
        }
    }
}

/// A finished job leaves the poll reference no private shortcut: on a
/// 2x1x1 NIedge rack whose cores each issue four 64B async reads and then
/// idle, the WQ poll loop keeps running at its 512-cycle cadence for the
/// rest of the run, and every one of those polls is NOC traffic. The poll
/// tick must perform exactly the polls the event tick does.
#[test]
fn event_tick_matches_poll_after_a_finite_job_drains() {
    use rackni::ni_rmc::NiPlacement;
    use rackni::ni_soc::{Capped, Synthetic, TickMode};

    let run = |mode: TickMode| {
        let mut cfg = rack_cfg(Torus3D::new(2, 1, 1), 2, TrafficPattern::Uniform);
        cfg.chip.seed = 7;
        cfg.chip.placement = NiPlacement::Edge;
        cfg.chip.rmc.poll_backoff = 512;
        cfg.chip.tick_mode = mode;
        cfg.threads = 1;
        let job = Capped::new(
            Box::new(Synthetic::from_workload(Workload::AsyncRead {
                size: 64,
                poll_every: 2,
            })),
            4,
        );
        let mut rack = Rack::with_scenario(cfg, &job);
        rack.run(30_000);
        tick_fingerprint(&rack)
    };
    let poll = run(TickMode::Poll);
    assert_eq!(poll.per_node_ops, [8, 8], "every capped op must complete");
    assert_eq!(run(TickMode::Event), poll);
}

mod tick_equivalence_props {
    use super::*;
    use proptest::prelude::*;
    use rackni::ni_fabric::RoutingKind;
    use rackni::ni_soc::{builtin_scenarios, Bursty, Scenario, Synthetic, TickMode};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Next-event skipping never reorders or drops a delivery: across
        /// every builtin scenario — plus a `Bursty` duty-cycled one, whose
        /// `IdleFor` windows are exactly what the dormant fast path and
        /// idle-until-X jumps elide — and every routing policy, a seeded
        /// 2x2x2 rack produces identical fingerprints (traffic counters,
        /// per-node completions, RRPP latency means) under the poll and
        /// event ticks.
        #[test]
        fn event_tick_preserves_deliveries_across_scenarios_and_policies(
            scenario_idx in 0usize..5,
            routing_idx in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let routing = [
                RoutingKind::DimensionOrder,
                RoutingKind::MinimalAdaptive,
                RoutingKind::FaultAdaptive,
            ][routing_idx];
            let run = |mode: TickMode| {
                let mut cfg = rack_cfg(Torus3D::new(2, 2, 2), 2, TrafficPattern::Uniform);
                cfg.chip.seed = seed;
                cfg.chip.tick_mode = mode;
                cfg.routing = routing;
                cfg.threads = 1;
                let scenario: Box<dyn Scenario> = if scenario_idx == 4 {
                    Box::new(Bursty::new(
                        Box::new(Synthetic::from_workload(Workload::AsyncRead {
                            size: 64,
                            poll_every: 2,
                        })),
                        2,
                        1_000,
                    ))
                } else {
                    builtin_scenarios().swap_remove(scenario_idx)
                };
                let mut rack = Rack::with_scenario(cfg, &*scenario);
                rack.run(4_000);
                tick_fingerprint(&rack)
            };
            let poll = run(TickMode::Poll);
            let event = run(TickMode::Event);
            prop_assert_eq!(
                &poll,
                &event,
                "scenario {} under {:?} (seed {}) diverged between tick modes",
                scenario_idx,
                routing,
                seed
            );
        }
    }
}

/// A degenerate 1x1x1 "rack" routes self-traffic without touching links
/// and still makes progress against its own RRPPs.
#[test]
fn degenerate_single_node_rack_services_itself() {
    let mut rack = Rack::new(
        rack_cfg(Torus3D::new(1, 1, 1), 1, TrafficPattern::Neighbor),
        Workload::SyncRead { size: 64 },
    );
    run_until(&mut rack, 100_000, |r| r.chips()[0].completed_ops() >= 2);
    assert_eq!(rack.hops_traversed(), 0, "self traffic crosses no links");
}
