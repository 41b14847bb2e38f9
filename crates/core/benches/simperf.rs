//! Simulator performance: simulated cycles per wall-clock second for the
//! configurations the experiment harness runs most, from single chips to
//! racks of 2x2x2 up to the paper's 512-node 8x8x8 torus (§1) and a
//! 4096-node 16x16x16 stretch point, with the poll-everything chip tick and
//! the event-driven tick (activity sets + next-event skip) head-to-head.
//! Not a paper artifact — this guards the reproduction's own usability.
//!
//! A plain deterministic harness (no statistics framework): every point is
//! a seeded build plus a timed run, so the output doubles as a
//! machine-readable trajectory. Four jobs:
//!
//! 1. **Trajectory** — writes `BENCH_simperf.json` (schema
//!    `rackni-bench-simperf/5`) at the workspace root, one row per point.
//!    Every row carries the work from its snapshot (`ni_soc::Work`): full
//!    chip ticks (`full_ticks`), component visits per class (`visits_*`),
//!    parked WQ poll loops (`parks`) and parked CQ poll loops
//!    (`core_parks`), summed over a rack's chips and printed in a second
//!    table. Rack rows add `build_ms`, `hops` and `sync_rounds` (one per
//!    lookahead window).
//!    Every event-mode rack point runs at one worker (`serial_cps`) and at
//!    the default worker count (`cps`; `speedup` is their ratio); on a
//!    one-thread host the serial run fills both. Poll twins run once, at
//!    the default worker count.
//! 2. **Determinism guard** — a point's two runs must agree on the sync
//!    rounds, the rack's `Snapshot` and every chip's, so the worker count
//!    may move no counter on any chip; and every rack point but the quick,
//!    pre-discovery 16x16x16 one must complete operations (a guard over
//!    zero completions compares nothing). Either failure aborts the run.
//! 3. **Speedup gate** (machine-independent) — the event-driven tick must
//!    clear `MIN_SPEEDUP` (3.0) over the poll tick on the idle-heavy 8x8x8
//!    rack. Both runs happen on the same host in the same process, so this
//!    ratio is stable across machines.
//! 4. **Regression gate** (baseline-relative) — if
//!    `BENCH_simperf_baseline.json` exists at the workspace root, every
//!    point it names must be measured and reach `TOLERANCE` (0.25) of its
//!    recorded cycles/sec (`cps`). The committed baseline's `cps` values
//!    are from a slow 1-core container, and the wide tolerance absorbs
//!    host variance while still catching order-of-magnitude regressions.
//!    Work counts are deterministic, so they are gated exactly: every work
//!    column a point measures must equal the baseline's, and a difference
//!    fails naming the point and the counter, however noisy the host. A
//!    change that moves a fast path on purpose re-records those columns.
//!
//! `RACKNI_SCALE=full` adds long-horizon rack points (names ending in
//! `_full`, among them the 512-node rack at 50k cycles) and leaves the
//! quick points as they are.
//!
//! ```sh
//! cargo bench --bench simperf
//! RACKNI_SCALE=full cargo bench --bench simperf
//! ```

use std::path::{Path, PathBuf};
use std::time::Instant;

use rackni::experiments::{build_idle_rack_point, build_rack_point, Scale};
use rackni::ni_engine::parallel::default_threads;
use rackni::ni_engine::Stat;
use rackni::ni_rmc::NiPlacement;
use rackni::ni_soc::{
    Bursty, Chip, ChipConfig, ClosedLoop, Rack, RackSimConfig, Scenario, Snapshot, Synthetic,
    TenantMix, TickMode, TrafficPattern, Work, Workload,
};
use rackni::report::{project, read_points, BenchFile, JsonRow};

/// Least event-over-poll speedup on the idle-heavy 8x8x8 rack.
const MIN_SPEEDUP: f64 = 3.0;

/// Least fraction of its baseline cycles/sec a point may reach.
const TOLERANCE: f64 = 0.25;

/// The BENCH keys the first printed table shows; the second shows each
/// point's work ([`work_readings`]).
const TABLE: [&str; 10] = [
    "name",
    "cycles",
    "build_ms",
    "wall_ms",
    "serial_cps",
    "cps",
    "speedup",
    "completed_ops",
    "hops",
    "sync_rounds",
];

type Dims = (u16, u16, u16);

/// One measured point of the simulator-performance trajectory.
struct Measured {
    name: String,
    cycles: u64,
    wall_ms: f64,
    cps: f64,
    completed_ops: u64,
    /// The chip's or the rack's work.
    work: Work,
    rack: Option<RackRun>,
}

/// What a rack point adds to its row.
struct RackRun {
    build_ms: f64,
    sync_rounds: u64,
    /// The rack's snapshot, then each chip's in node order.
    snapshots: Vec<Snapshot>,
    /// One-worker cycles/sec, for event-mode points.
    serial_cps: Option<f64>,
}

impl RackRun {
    /// The first difference from `other` a rerun must not show.
    fn diff(&self, other: &RackRun) -> Option<String> {
        if self.sync_rounds != other.sync_rounds {
            let (a, b) = (self.sync_rounds, other.sync_rounds);
            return Some(format!("sync rounds: {a} vs {b}"));
        }
        let pairs = self.snapshots.iter().zip(&other.snapshots);
        pairs.enumerate().find_map(|(i, (a, b))| {
            let d = a.diff(b)?;
            Some(if i == 0 {
                format!("rack {d}")
            } else {
                format!("node {} {d}", i - 1)
            })
        })
    }
}

/// Builds a rack point's rack on `threads` workers (0 = the default count).
type Build = fn(Dims, usize, TickMode) -> Rack;

/// The saturated shape `experiments::rack_scale` sweeps: back-to-back async
/// reads, in the default event tick only.
fn uniform_async(dims: Dims, threads: usize, _: TickMode) -> Rack {
    build_rack_point(dims, TrafficPattern::Uniform, threads)
}

fn mode_tag(mode: TickMode) -> &'static str {
    match mode {
        TickMode::Event => "event",
        TickMode::Poll => "poll",
    }
}

fn measure_chip(name: &str, mut chip: Chip, cycles: u64) -> Measured {
    let t = Instant::now();
    chip.run(cycles);
    let wall = t.elapsed().as_secs_f64();
    Measured {
        name: name.to_string(),
        cycles,
        wall_ms: wall * 1e3,
        cps: cycles as f64 / wall.max(1e-9),
        completed_ops: chip.completed_ops(),
        work: chip.snapshot().work,
        rack: None,
    }
}

/// `chip-paper`'s shape: 64 closed-loop cores at window 4 with no think
/// time, half issuing 512 B reads and half 512 B writes, on a default
/// (NIsplit) chip. Cores spend most cycles spinning on a full window.
fn closed_loop_chip() -> Chip {
    let closed = |w: Workload| -> Box<dyn Scenario> {
        Box::new(ClosedLoop::new(Box::new(Synthetic::from_workload(w)), 4, 0))
    };
    let mix = TenantMix::new()
        .with_tenant(
            1,
            closed(Workload::AsyncRead {
                size: 512,
                poll_every: 4,
            }),
            1,
        )
        .with_tenant(
            2,
            closed(Workload::AsyncWrite {
                size: 512,
                poll_every: 4,
            }),
            1,
        );
    Chip::with_scenario(ChipConfig::default(), &mix)
}

/// Build and time one run of a rack point on `threads` workers (0 = the
/// default count). The rack is dropped before returning, so a point's two
/// runs never hold two racks at once.
fn time_rack(
    name: &str,
    build: Build,
    dims: Dims,
    mode: TickMode,
    cycles: u64,
    threads: usize,
) -> Measured {
    let t0 = Instant::now();
    let mut rack = build(dims, threads, mode);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    rack.run(cycles);
    let wall = t1.elapsed().as_secs_f64();
    let mut snapshots = vec![rack.snapshot()];
    snapshots.extend(rack.chips().iter().map(Chip::snapshot));
    Measured {
        name: name.to_string(),
        cycles,
        wall_ms: wall * 1e3,
        cps: cycles as f64 / wall.max(1e-9),
        completed_ops: snapshots[0].cores.completed,
        work: snapshots[0].work,
        rack: Some(RackRun {
            build_ms,
            sync_rounds: rack.sync_rounds(),
            snapshots,
            serial_cps: None,
        }),
    }
}

/// Measure one rack point. An event-mode point is timed at one worker and
/// at the default worker count, and the two runs must agree (see the
/// module docs); a poll twin is timed once, at the default worker count.
/// Unless `pre_discovery`, the point must complete operations.
fn measure_rack(
    shape: &str,
    build: Build,
    dims: Dims,
    mode: TickMode,
    cycles: u64,
    pre_discovery: bool,
) -> Measured {
    let (x, y, z) = dims;
    let name = format!("{shape}_{x}x{y}x{z}_{}", mode_tag(mode));
    let first_threads = if mode == TickMode::Event { 1 } else { 0 };
    let mut m = time_rack(&name, build, dims, mode, cycles, first_threads);
    if mode == TickMode::Event {
        let serial_cps = m.cps;
        if default_threads() > 1 {
            let parallel = time_rack(&name, build, dims, mode, cycles, 0);
            let (a, b) = (parallel.rack.as_ref(), m.rack.as_ref());
            if let Some(d) = a.expect("rack point").diff(b.expect("rack point")) {
                panic!("{name}: the default-worker run diverged from the one-worker run: {d}");
            }
            m = parallel;
        }
        m.rack.as_mut().expect("rack point").serial_cps = Some(serial_cps);
    }
    assert!(
        pre_discovery || m.completed_ops > 0,
        "{name}: no operation completed within {cycles} cycles"
    );
    m
}

/// The *bursty* shape: shorter think-time windows than the idle-heavy rack
/// point (8-op bursts against 100-cycle windows, 32-cycle poll backoff),
/// so full ticks are a much larger fraction of the run — the regime where
/// the event tick's win is modest and its bookkeeping overhead would show.
fn build_bursty_rack(dims: Dims, threads: usize, mode: TickMode) -> Rack {
    use rackni::ni_fabric::Torus3D;
    let mut chip = ChipConfig {
        active_cores: 2,
        placement: NiPlacement::Edge,
        tick_mode: mode,
        ..ChipConfig::default()
    };
    chip.rmc.poll_backoff = 32;
    let cfg = RackSimConfig {
        torus: Torus3D::new(dims.0, dims.1, dims.2),
        chip,
        threads,
        ..RackSimConfig::default()
    };
    let scenario = Bursty::new(
        Box::new(
            Synthetic::from_workload(Workload::AsyncRead {
                size: 512,
                poll_every: 4,
            })
            .with_pattern(TrafficPattern::Uniform),
        ),
        8,
        100,
    );
    Rack::with_scenario(cfg, &scenario)
}

/// A point's work under its BENCH keys: `full_ticks`, then `visits_cores`
/// and the other classes, then the parks.
fn work_readings(work: &Work) -> Vec<(String, u64)> {
    let mut readings = Vec::new();
    work.walk("", &mut |name, n| {
        readings.push((name.replace('.', "_"), n))
    });
    readings
}

/// One point's `BENCH_simperf.json` row, which the printed tables project.
fn row(m: &Measured) -> JsonRow {
    let mut row = JsonRow::default();
    row.str("name", &m.name)
        .num("cycles", m.cycles)
        .float("wall_ms", m.wall_ms, 2)
        .float("cps", m.cps, 1)
        .num("completed_ops", m.completed_ops);
    for (key, n) in work_readings(&m.work) {
        row.num(&key, n);
    }
    if let Some(r) = &m.rack {
        row.float("build_ms", r.build_ms, 1)
            .num("hops", r.snapshots[0].hops)
            .num("sync_rounds", r.sync_rounds);
        if let Some(s) = r.serial_cps {
            row.float("serial_cps", s, 1).float("speedup", m.cps / s, 4);
        }
    }
    row
}

fn workspace_root() -> PathBuf {
    // crates/core -> workspace root; independent of the invoker's cwd
    // (cargo bench runs the binary from the package directory).
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() {
    let scale = Scale::from_env();
    let host_threads = default_threads();
    println!(
        "rackni simperf: simulator cycles/sec, poll vs event-driven chip \
         ticking, one vs default workers (scale {scale:?}, host threads {host_threads})\n"
    );
    let mut results: Vec<Measured> = Vec::new();

    // Single-chip microbenchmarks (event mode — the shipped default).
    results.push(measure_chip(
        "chip_idle",
        Chip::new(ChipConfig::default(), Workload::Idle),
        20_000,
    ));
    results.push(measure_chip(
        "chip_async_split_512B",
        Chip::new(
            ChipConfig::default(),
            Workload::AsyncRead {
                size: 512,
                poll_every: 4,
            },
        ),
        5_000,
    ));
    results.push(measure_chip(
        "chip_closed_loop_split_512B",
        closed_loop_chip(),
        10_000,
    ));

    // Rack points: (shape, dims, cycles, with a poll twin). The idle-heavy
    // racks run one full burst-plus-think period (~11.5k cycles), so the
    // measured event/poll ratio reflects the workload's true duty cycle.
    // The quick 16x16x16 idle-heavy point is pre-discovery only (its
    // frontends take ~5.4k cycles to round-robin onto the one active QP),
    // so it is the one point allowed to complete nothing: it prices the
    // 4096-node build and the dormant path, not traffic. The bursty
    // racks run past their first completions (cycles 800-1 000). The
    // uniform-async horizons let hundreds of round trips complete at every
    // size, the 8x8x8 torus included.
    let idle: Build = build_idle_rack_point;
    let quick: [(&str, Build, Dims, u64, bool); 9] = [
        ("idle_heavy", idle, (2, 2, 2), 11_500, true),
        ("idle_heavy", idle, (4, 4, 4), 11_500, true),
        ("idle_heavy", idle, (8, 8, 8), 11_500, true),
        ("idle_heavy", idle, (16, 16, 16), 600, false),
        ("bursty", build_bursty_rack, (8, 8, 8), 2_400, true),
        ("uniform_async", uniform_async, (2, 2, 2), 6_000, false),
        ("uniform_async", uniform_async, (3, 3, 3), 2_500, false),
        ("uniform_async", uniform_async, (4, 4, 4), 1_200, false),
        ("uniform_async", uniform_async, (8, 8, 8), 1_200, false),
    ];
    for (shape, build, dims, cycles, poll_twin) in quick {
        let pre_discovery = dims == (16, 16, 16);
        results.push(measure_rack(
            shape,
            build,
            dims,
            TickMode::Event,
            cycles,
            pre_discovery,
        ));
        if poll_twin {
            results.push(measure_rack(
                shape,
                build,
                dims,
                TickMode::Poll,
                cycles,
                pre_discovery,
            ));
        }
    }
    // Full scale adds the 512-node rack at a >=50k-cycle horizon (tens of
    // thousands of round trips at ~1.1k cycles each) and the 4096-node rack
    // over one full burst-plus-think period, like the other idle-heavy
    // points: its first reads complete between cycles 10 000 and 10 500.
    if scale == Scale::Full {
        let full: [(&str, Build, Dims, u64); 6] = [
            ("uniform_async", uniform_async, (2, 2, 2), 60_000),
            ("uniform_async", uniform_async, (3, 3, 3), 60_000),
            ("uniform_async", uniform_async, (4, 4, 4), 60_000),
            ("uniform_async", uniform_async, (8, 8, 8), 50_000),
            ("idle_heavy", idle, (8, 8, 8), 50_000),
            ("idle_heavy", idle, (16, 16, 16), 11_500),
        ];
        for (shape, build, dims, cycles) in full {
            let mut m = measure_rack(shape, build, dims, TickMode::Event, cycles, false);
            m.name.push_str("_full");
            results.push(m);
        }
    }

    let rows: Vec<JsonRow> = results.iter().map(row).collect();
    let readings = work_readings(&Work::default());
    let work_table: Vec<&str> = ["name"]
        .into_iter()
        .chain(readings.iter().map(|(key, _)| key.as_str()))
        .collect();
    println!("{}", project(&rows, &TABLE));
    println!("work per point (summed over a rack's chips): full ticks, component visits, parks\n");
    println!("{}", project(&rows, &work_table));
    if host_threads > 1 {
        println!(
            "one-worker and default-worker runs agreed on sync rounds and on the rack's \
             and every chip's snapshot at every event-mode rack point \
             (determinism guard passed)"
        );
    } else {
        println!(
            "single-thread host: each event-mode point ran once, so its default-worker \
             columns repeat the serial run (set RACKNI_THREADS on a bigger box)"
        );
    }

    let cps_of = |name: &str| {
        results
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.cps)
            .expect("measured point")
    };
    for dims in ["2x2x2", "4x4x4", "8x8x8"] {
        let speedup = cps_of(&format!("idle_heavy_{dims}_event"))
            / cps_of(&format!("idle_heavy_{dims}_poll"));
        println!("idle-heavy {dims}: event tick {speedup:.2}x over poll");
    }
    let bursty_speedup = cps_of("bursty_8x8x8_event") / cps_of("bursty_8x8x8_poll");
    println!("bursty 8x8x8: event tick {bursty_speedup:.2}x over poll");

    let out = workspace_root().join("BENCH_simperf.json");
    let mut bench = BenchFile::new("rackni-bench-simperf/5", scale, rows.clone());
    bench.header().num("host_threads", host_threads);
    bench.write(&out).expect("write BENCH_simperf.json");
    println!("\nsimperf trajectory written to {}", out.display());

    let mut failed = false;

    // Gate 1 (machine-independent): the event tick must actually win on
    // the idle-heavy 512-node rack — the headline claim of the
    // event-driven ticking work.
    let speedup = cps_of("idle_heavy_8x8x8_event") / cps_of("idle_heavy_8x8x8_poll");
    if speedup < MIN_SPEEDUP {
        eprintln!(
            "GATE FAIL: event tick is only {speedup:.2}x over poll on the \
             idle-heavy 8x8x8 rack (need >= {MIN_SPEEDUP:.1}x)"
        );
        failed = true;
    } else {
        println!("gate: idle-heavy 8x8x8 event speedup {speedup:.2}x >= {MIN_SPEEDUP:.1}x");
    }

    // Gate 2 (baseline-relative): every baselined point must be measured
    // (a renamed point or a drifted row format would otherwise switch its
    // gate off) and reach the tolerance fraction of its baseline.
    let baseline_path = workspace_root().join("BENCH_simperf_baseline.json");
    match std::fs::read_to_string(&baseline_path) {
        Err(_) => println!(
            "no baseline at {} — regression gate skipped",
            baseline_path.display()
        ),
        Ok(text) => {
            let baseline = read_points(&text).expect("BENCH_simperf_baseline.json parses");
            for point in &baseline {
                let (Some(name), Some(base_cps)) = (
                    point.get("name"),
                    point.get("cps").and_then(|c| c.parse::<f64>().ok()),
                ) else {
                    eprintln!("GATE FAIL: baseline point without a name or cps: {point:?}");
                    failed = true;
                    continue;
                };
                let Some(m) = results.iter().find(|m| m.name == name) else {
                    eprintln!("GATE FAIL: baselined point {name} was not measured");
                    failed = true;
                    continue;
                };
                for (key, n) in work_readings(&m.work) {
                    let recorded = point.get(&key);
                    if recorded != Some(n.to_string().as_str()) {
                        eprintln!(
                            "GATE FAIL: {name} {key} is {n}, baseline {}",
                            recorded.unwrap_or("missing")
                        );
                        failed = true;
                    }
                }
                let floor = base_cps * TOLERANCE;
                if m.cps < floor {
                    eprintln!(
                        "GATE FAIL: {name} at {:.1} cycles/sec, below {floor:.1} \
                         ({TOLERANCE}x of baseline {base_cps:.1})",
                        m.cps
                    );
                    failed = true;
                }
            }
            if !failed {
                println!(
                    "gate: all {} baselined points measured, within {TOLERANCE}x of {} \
                     and at its work counts",
                    baseline.len(),
                    baseline_path.display()
                );
            }
        }
    }

    if failed {
        eprintln!("simperf gates FAILED");
        std::process::exit(1);
    }
}
