//! Multi-node rack integration tests: cross-node request/response semantics
//! over the real torus fabric, the latency floor of the wires, per-link
//! accounting, and bit-exact reproducibility from the config seed.

use rackni::ni_fabric::Torus3D;
use rackni::ni_mem::Addr;
use rackni::ni_soc::{Chip, ChipConfig, Rack, RackSimConfig, Synthetic, TrafficPattern, Workload};

mod common;
use common::{assert_same, outputs, snapshots};

const REMOTE_BASE: u64 = 1 << 40;

fn rack_cfg(torus: Torus3D, active_cores: usize) -> RackSimConfig {
    RackSimConfig {
        torus,
        chip: ChipConfig {
            active_cores,
            ..ChipConfig::default()
        },
        ..RackSimConfig::default()
    }
}

/// A rack whose active cores all run `workload` against the destinations
/// `traffic` assigns.
fn synthetic_rack(cfg: RackSimConfig, traffic: TrafficPattern, workload: Workload) -> Rack {
    Rack::with_scenario(
        cfg,
        &Synthetic::from_workload(workload).with_pattern(traffic),
    )
}

fn run_until(rack: &mut Rack, limit: u64, mut done: impl FnMut(&Rack) -> bool) {
    let mut guard = 0u64;
    while !done(rack) {
        rack.tick();
        guard += 1;
        assert!(guard < limit, "rack run exceeded {limit} cycles");
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
    let mut rack = synthetic_rack(
        rack_cfg(torus, 1),
        TrafficPattern::Opposite,
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
    let write_lat = rack.chips()[0].cores[0].latency_histogram().stats().mean();
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
    let mean_lat = rack.chips()[0].cores[0].latency_histogram().stats().mean();
    assert!(
        mean_lat >= (2 * hops * 70) as f64,
        "mean op latency {mean_lat} beats the network floor"
    );
}

/// An 8-node rack completes real traffic on every node, and the fabric's
/// per-directed-link counters account every hop traversed.
#[test]
fn eight_node_rack_completes_ops_on_every_node() {
    let mut rack = synthetic_rack(
        rack_cfg(Torus3D::new(2, 2, 2), 2),
        TrafficPattern::Uniform,
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
    let mut rack = synthetic_rack(
        rack_cfg(Torus3D::new(2, 1, 1), 1),
        TrafficPattern::Neighbor,
        Workload::NumaRead,
    );
    run_until(&mut rack, 100_000, |r| {
        r.chips().iter().all(|c| c.completed_ops() >= 3)
    });
    // One hop each way at 70 cycles plus remote service: well above 140.
    let lat = rack.chips()[0].cores[0].latency_histogram().stats().mean();
    assert!(lat >= 140.0, "NUMA latency {lat} beats the wire floor");
}

/// The windowed parallel run is bit-identical to the serial path: the
/// same seeded 3x3x3 scenario run (a) serially via `Rack::tick`, (b) through
/// `Rack::run` pinned to one worker, and (c) through `Rack::run` with four
/// workers must produce equal snapshots, rack-wide and per chip.
#[test]
fn parallel_rack_is_bit_identical_to_serial_at_any_thread_count() {
    let cycles = 1_500u64;
    let build = |threads: usize| {
        let mut cfg = rack_cfg(Torus3D::new(3, 3, 3), 2);
        cfg.chip.seed = 0xd15c0;
        cfg.threads = threads;
        synthetic_rack(
            cfg,
            TrafficPattern::Uniform,
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
    let want = snapshots(&serial);
    assert!(
        want[0].cores.completed > 0,
        "reference run must do real work"
    );
    assert!(want[0].hops > 0, "reference run must cross the fabric");

    for threads in [1usize, 4] {
        let mut rack = build(threads);
        rack.run(cycles);
        let context = format!("{threads}-thread run vs the serial reference");
        assert_same(&snapshots(&rack), &want, &context);
    }
}

/// A run with a `FaultPlan` — link kill, node kill, and a repair, with the
/// ITT watchdog armed — is still a pure function of its config: serial
/// ticking, one worker, and four workers must produce equal snapshots,
/// fault-path counters and watchdog statistics included. All fault state lives in the driver-side fabric and the
/// per-chip backends, so thread count can never observe it mid-change.
#[test]
fn faulted_rack_runs_are_bit_identical_across_thread_counts() {
    use rackni::ni_fabric::FaultPlan;

    let build = |threads: usize| {
        let mut cfg = rack_cfg(Torus3D::new(3, 3, 1), 2);
        cfg.chip.seed = 0xfa117;
        cfg.chip.rmc.itt_timeout = 1_200;
        cfg.chip.rmc.itt_retries = 1;
        cfg.threads = threads;
        cfg.routing = rackni::ni_fabric::RoutingKind::FaultAdaptive;
        cfg.faults = FaultPlan::new()
            .link_down(0, 1, 400)
            .node_down(4, 900)
            .link_up(0, 1, 2_200);
        synthetic_rack(
            cfg,
            TrafficPattern::Uniform,
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
    let want = snapshots(&serial);
    assert!(want[0].cores.completed > 0, "reference run must do work");
    assert!(
        want[0].faults.packets_dropped.get() > 0 && want[0].backends.itt_timeouts.get() > 0,
        "the fault plan must actually bite"
    );
    for threads in [1usize, 4] {
        let mut rack = build(threads);
        rack.run(cycles);
        let context = format!("{threads}-thread faulted run vs the serial reference");
        assert_same(&snapshots(&rack), &want, &context);
    }
}

// ---- Lookahead windows --------------------------------------------------

/// Run `build(threads)` for `cycles` through a `Rack::tick` loop (one
/// thread) and through the windowed `Rack::run` at one, two and four
/// workers: every run must produce the reference's snapshots, `work`
/// included, so a dormant skip taken or missed in the wrong cycle fails
/// too. Returns the one-worker windowed rack.
fn assert_windows_match_per_cycle_ticks(cycles: u64, build: impl Fn(usize) -> Rack) -> Rack {
    let mut reference = build(1);
    for _ in 0..cycles {
        reference.tick();
    }
    assert_eq!(reference.sync_rounds(), cycles, "one round per tick");
    let want = snapshots(&reference);
    let runs = [1usize, 2, 4].map(|threads| {
        let mut rack = build(threads);
        rack.run(cycles);
        let context = format!("windowed run at {threads} threads vs per-cycle ticking");
        assert_same(&snapshots(&rack), &want, &context);
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
    use rackni::ni_soc::Capped;

    let mut cfg = rack_cfg(torus, 2);
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
    let ops: Vec<u64> = rack.chips().iter().map(Chip::completed_ops).collect();
    assert_eq!(ops, [16, 16], "every capped write must complete");
    // On two nodes every packet that leaves its node crosses one link:
    // the deliveries beyond the hop count are the self-addressed legs.
    let s = rack.snapshot();
    let delivered = s.fabric.incoming_generated.get() + s.fabric.responded.get();
    assert!(
        delivered > s.hops,
        "no self-addressed leg was sent: {delivered} deliveries, {} hops",
        s.hops
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
        let completed = rack.snapshot().cores.completed;
        assert!(completed > 0, "hop {hop}: no op completed");
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
        let context = format!("split run vs one run at {threads} threads");
        assert_same(&snapshots(&split), &snapshots(&whole), &context);
    }
}

/// Reproducibility: a rack run is a pure function of its config (seed
/// included), and the emulator path reproduces from `ChipConfig::seed`
/// alone.
#[test]
fn rack_runs_are_reproducible_from_the_config_seed() {
    let run = |seed: u64| {
        let mut cfg = rack_cfg(Torus3D::new(2, 2, 1), 2);
        cfg.chip.seed = seed;
        let mut rack = synthetic_rack(
            cfg,
            TrafficPattern::Uniform,
            Workload::AsyncRead {
                size: 256,
                poll_every: 4,
            },
        );
        rack.run(8_000);
        snapshots(&rack)
    };
    let first = run(42);
    assert!(first[0].cores.completed > 0, "the rack must do work");
    assert_same(&run(42), &first, "same seed");

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
        vec![chip.snapshot()]
    };
    assert_same(&emulated(7), &emulated(7), "same seed, emulated chip");
}

/// The rack-scale experiment sweep produces structurally sound rows.
#[test]
fn rack_scale_experiment_reports_scaling_rows() {
    use rackni::experiments::{rack_scale, RackScalePoint, Scale};
    let pts = rack_scale(Scale::Quick, TrafficPattern::Uniform);
    assert_eq!(pts.len(), 3);
    for p in &pts {
        assert_eq!(
            p.nodes,
            u32::from(p.dims.0) * u32::from(p.dims.1) * u32::from(p.dims.2)
        );
        assert!(p.snapshot.cores.completed > 0, "{:?} rack idle", p.dims);
        assert!(p.snapshot.app_gbps(p.cycles) > 0.0);
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
    let agg = |p: &RackScalePoint| p.snapshot.app_gbps(p.cycles);
    assert!(
        agg(pts.last().expect("rows")) > agg(&pts[0]),
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
/// any simulated statistic.
#[test]
fn event_tick_is_bit_identical_to_poll_on_a_healthy_rack() {
    use rackni::ni_rmc::NiPlacement;
    use rackni::ni_soc::{TickMode, Topology};

    let build = |mode: TickMode, threads: usize| {
        let mut cfg = rack_cfg(Torus3D::new(3, 3, 3), 2);
        cfg.chip.seed = 0x71c5;
        cfg.chip.tick_mode = mode;
        cfg.threads = threads;
        synthetic_rack(
            cfg,
            TrafficPattern::Uniform,
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
    let (want, want_outputs) = (snapshots(&reference), outputs(&reference));
    assert!(
        want[0].cores.completed > 0,
        "reference run must do real work"
    );
    assert!(want[0].hops > 0, "reference run must cross the fabric");

    for threads in [1usize, 4] {
        let mut poll = build(TickMode::Poll, threads);
        poll.run(cycles);
        let context = format!("windowed poll tick at {threads} threads vs serial poll");
        assert_same(&snapshots(&poll), &want, &context);
        let mut event = build(TickMode::Event, threads);
        event.run(cycles);
        let context = format!("event tick at {threads} threads vs serial poll");
        assert_same(&outputs(&event), &want_outputs, &context);
    }

    // (placement, topology, workload, event-mode full ticks summed over
    // the four chips).
    let async_read = Workload::AsyncRead {
        size: 256,
        poll_every: 4,
    };
    let cases = [
        (NiPlacement::Split, Topology::Mesh, async_read, 19_853),
        (NiPlacement::Edge, Topology::Mesh, async_read, 19_450),
        (NiPlacement::PerTile, Topology::Mesh, async_read, 19_853),
        (NiPlacement::Split, Topology::NocOut, async_read, 19_594),
        (NiPlacement::Edge, Topology::NocOut, async_read, 18_978),
        (NiPlacement::Numa, Topology::Mesh, Workload::NumaRead, 4_304),
    ];
    for (placement, topology, workload, full_ticks) in cases {
        let run = |mode: TickMode| {
            let mut cfg = rack_cfg(Torus3D::new(2, 2, 1), 3);
            cfg.chip.seed = 0x71c5;
            cfg.chip.placement = placement;
            cfg.chip.topology = topology;
            cfg.chip.tick_mode = mode;
            cfg.threads = 1;
            let mut rack = synthetic_rack(cfg, TrafficPattern::Uniform, workload);
            rack.run(5_000);
            rack
        };
        let want = outputs(&run(TickMode::Poll));
        assert!(
            want[0].cores.completed > 0 && want[0].hops > 0,
            "{placement:?} on {topology:?} must complete ops across the fabric"
        );
        let event = run(TickMode::Event);
        let context = format!("{placement:?} on {topology:?}: event tick vs poll");
        assert_same(&outputs(&event), &want, &context);
        let ticks = event.snapshot().work.full_ticks;
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
        let mut cfg = rack_cfg(Torus3D::new(3, 3, 1), 2);
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
        synthetic_rack(
            cfg,
            TrafficPattern::Uniform,
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
    let (want, want_outputs) = (snapshots(&reference), outputs(&reference));
    assert!(want[0].cores.completed > 0, "reference run must do work");
    assert!(
        want[0].faults.packets_dropped.get() > 0 && want[0].backends.itt_timeouts.get() > 0,
        "the fault plan must actually bite"
    );

    for threads in [1usize, 4] {
        let mut poll = build(TickMode::Poll, threads);
        poll.run(cycles);
        let context = format!("faulted windowed poll tick at {threads} threads vs serial poll");
        assert_same(&snapshots(&poll), &want, &context);
        let mut event = build(TickMode::Event, threads);
        event.run(cycles);
        let context = format!("faulted event tick at {threads} threads vs serial poll");
        assert_same(&outputs(&event), &want_outputs, &context);
    }
}

/// A finished job leaves the poll reference no private shortcut: on a
/// 2x1x1 NIedge rack whose cores each issue four 64B async reads and then
/// idle, the WQ poll loop keeps running at its 512-cycle cadence for the
/// rest of the run. The poll tick performs every one of those polls; the
/// event tick parks each quiet loop and credits its polls in closed form,
/// and must end with the same counts, the NI caches' hits included.
#[test]
fn event_tick_matches_poll_after_a_finite_job_drains() {
    use rackni::ni_rmc::NiPlacement;
    use rackni::ni_soc::{Capped, TickMode};

    let run = |mode: TickMode| {
        let mut cfg = rack_cfg(Torus3D::new(2, 1, 1), 2);
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
        outputs(&rack)
    };
    let poll = run(TickMode::Poll);
    let ops: Vec<u64> = poll[1..].iter().map(|s| s.cores.completed).collect();
    assert_eq!(ops, [8, 8], "every capped op must complete");
    assert_same(
        &run(TickMode::Event),
        &poll,
        "event tick vs poll after the drain",
    );
}

/// The parked poll loop at every boundary. A snapshot credits a parked
/// loop's polls by the phase of the cycle it is taken at, so on a small
/// serving mix (NIsplit, 16 of 64 cores active: closed-loop KV RPCs on 15
/// plus a bulk tenant, the 48 idle tiles' loops parked) the event tick's
/// outputs must equal the poll tick's after every single cycle, rack-wide
/// and per chip. Midway, while loops are parked, both racks take the same
/// outside changes: `Rack::chip_mut`, `Chip::core_mut` starting an idle
/// tile's core, `Chip::reset_scenario` and `Rack::reset_scenario`.
#[test]
fn event_tick_matches_poll_after_every_cycle_of_a_serving_mix() {
    use rackni::ni_soc::{ClosedLoop, GraphShard, KvStore, Scenario, TenantMix, TickMode};

    let mix = |think: u64| -> Box<dyn Scenario> {
        let kv = KvStore::default().with_service(150).with_get_fraction(0.8);
        let bulk = GraphShard::default().with_lists(1024, 2048);
        Box::new(
            TenantMix::new()
                .with_tenant(1, Box::new(ClosedLoop::new(Box::new(kv), 4, think)), 15)
                .with_tenant(2, Box::new(bulk), 1),
        )
    };
    let build = |mode: TickMode| {
        let mut cfg = rack_cfg(Torus3D::new(2, 2, 1), 16);
        cfg.chip.seed = 0x5e7;
        cfg.chip.tick_mode = mode;
        cfg.threads = 1;
        Rack::with_scenario(cfg, &*mix(64))
    };
    let (mut poll, mut event) = (build(TickMode::Poll), build(TickMode::Event));
    let compare_each_cycle = |poll: &mut Rack, event: &mut Rack, cycles: u64| {
        for _ in 0..cycles {
            poll.run(1);
            event.run(1);
            let context = format!("event tick vs poll after cycle {}", poll.now().0 - 1);
            assert_same(&outputs(event), &outputs(poll), &context);
        }
    };
    compare_each_cycle(&mut poll, &mut event, 400);
    let parks = event.snapshot().work.parks;
    assert!(parks > 0, "no poll loop parked");
    for rack in [&mut poll, &mut event] {
        rack.chip_mut(0)
            .core_mut(40)
            .reset_workload(Workload::AsyncRead {
                size: 64,
                poll_every: 2,
            });
        rack.chip_mut(1).reset_scenario(&*mix(16));
    }
    compare_each_cycle(&mut poll, &mut event, 300);
    for rack in [&mut poll, &mut event] {
        rack.reset_scenario(&*mix(0));
    }
    compare_each_cycle(&mut poll, &mut event, 300);
    let s = event.snapshot();
    assert!(s.work.parks > parks, "woken loops never parked again");
    assert!(s.cores.completed > 0, "no op completed");
    assert!(
        poll.chips()[0].cores[40].stats.completed > 0,
        "the started core completed nothing"
    );
}

/// Parked loops beside caches that evict on every fill. With one L1
/// block and one NI-cache block per tile, every block a closed-loop core
/// and its frontend bring in (WQ entries, CQ entries, the advancing head
/// blocks) evicts another, so each fill's victim is chosen among lines
/// whose latest touches were credited by a settle. On a 2x1x1 NIsplit
/// rack the event tick's outputs must equal the poll tick's after every
/// cycle.
#[test]
fn event_tick_matches_poll_after_every_cycle_with_one_block_caches() {
    use rackni::ni_coherence::CoherenceConfig;
    use rackni::ni_soc::{ClosedLoop, TickMode};

    let build = |mode: TickMode| {
        let mut cfg = rack_cfg(Torus3D::new(2, 1, 1), 4);
        cfg.chip.seed = 0xe71c;
        cfg.chip.tick_mode = mode;
        cfg.chip.coherence = CoherenceConfig {
            l1_blocks: 1,
            ni_cache_blocks: 1,
            ..CoherenceConfig::default()
        };
        cfg.threads = 1;
        let reads = Synthetic::from_workload(Workload::AsyncRead {
            size: 64,
            poll_every: 1,
        })
        .with_pattern(TrafficPattern::Neighbor);
        Rack::with_scenario(cfg, &ClosedLoop::new(Box::new(reads), 2, 0))
    };
    let (mut poll, mut event) = (build(TickMode::Poll), build(TickMode::Event));
    for _ in 0..4_000 {
        poll.run(1);
        event.run(1);
        let context = format!("event tick vs poll after cycle {}", poll.now().0 - 1);
        assert_same(&outputs(&event), &outputs(&poll), &context);
    }
    let s = event.snapshot();
    assert!(s.cores.completed > 0, "no op completed");
    assert!(s.work.core_parks > 0 && s.work.parks > 0, "{:?}", s.work);
    assert!(
        s.complexes.writebacks.get() > 0,
        "nothing was evicted dirty"
    );
}

mod tick_equivalence_props {
    use super::*;
    use proptest::prelude::*;
    use rackni::ni_fabric::RoutingKind;
    use rackni::ni_rmc::NiPlacement;
    use rackni::ni_soc::{builtin_scenarios, Bursty, ClosedLoop, Scenario, TickMode};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Next-event skipping never reorders or drops a delivery: across
        /// every builtin scenario — plus a `Bursty` duty-cycled one, whose
        /// `IdleFor` windows are exactly what the dormant fast path and
        /// idle-until-X jumps elide, and synchronous reads, whose cores
        /// spin on the CQ — each open loop or closed at a window of 1 or 4
        /// (where cores stall and spin), every routing policy, every QP
        /// placement and poll backoffs from 0 to 512 (which set when and
        /// how long WQ poll loops park), a seeded 2x2x2 rack produces
        /// identical snapshots, rack-wide and per chip, `work` aside,
        /// under the poll and event ticks.
        #[test]
        fn event_tick_preserves_deliveries_across_scenarios_and_policies(
            scenario_idx in 0usize..6,
            window_idx in 0usize..3,
            routing_idx in 0usize..3,
            placement_idx in 0usize..3,
            backoff_idx in 0usize..4,
            seed in 0u64..1_000_000,
        ) {
            let routing = [
                RoutingKind::DimensionOrder,
                RoutingKind::MinimalAdaptive,
                RoutingKind::FaultAdaptive,
            ][routing_idx];
            let placement = [NiPlacement::Split, NiPlacement::PerTile, NiPlacement::Edge]
                [placement_idx];
            let poll_backoff = [0, 1, 2, 512][backoff_idx];
            let window = [None, Some(1), Some(4)][window_idx];
            let run = |mode: TickMode| {
                let mut cfg = rack_cfg(Torus3D::new(2, 2, 2), 2);
                cfg.chip.seed = seed;
                cfg.chip.tick_mode = mode;
                cfg.chip.placement = placement;
                cfg.chip.rmc.poll_backoff = poll_backoff;
                cfg.routing = routing;
                cfg.threads = 1;
                let mut scenario: Box<dyn Scenario> = match scenario_idx {
                    4 => Box::new(Bursty::new(
                        Box::new(Synthetic::from_workload(Workload::AsyncRead {
                            size: 64,
                            poll_every: 2,
                        })),
                        2,
                        1_000,
                    )),
                    5 => Box::new(Synthetic::from_workload(Workload::SyncRead { size: 64 })),
                    i => builtin_scenarios().swap_remove(i),
                };
                if let Some(w) = window {
                    scenario = Box::new(ClosedLoop::new(scenario, w, 0));
                }
                let mut rack = Rack::with_scenario(cfg, &*scenario);
                rack.run(4_000);
                outputs(&rack)
            };
            let context = format!(
                "scenario {scenario_idx}, window {window:?}, under {routing:?}, {placement:?}, \
                 backoff {poll_backoff} (seed {seed})"
            );
            assert_same(&run(TickMode::Event), &run(TickMode::Poll), &context);
        }
    }
}

/// A degenerate 1x1x1 "rack" routes self-traffic without touching links
/// and still makes progress against its own RRPPs.
#[test]
fn degenerate_single_node_rack_services_itself() {
    let mut rack = synthetic_rack(
        rack_cfg(Torus3D::new(1, 1, 1), 1),
        TrafficPattern::Neighbor,
        Workload::SyncRead { size: 64 },
    );
    run_until(&mut rack, 100_000, |r| r.chips()[0].completed_ops() >= 2);
    assert_eq!(rack.hops_traversed(), 0, "self traffic crosses no links");
}
