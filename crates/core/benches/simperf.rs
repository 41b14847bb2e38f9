//! Simulator performance: simulated cycles per wall-clock second for the
//! configurations the experiment harness runs most, measured head-to-head
//! between the poll-everything chip tick and the event-driven tick
//! (activity sets + next-event skip). Not a paper artifact — this guards
//! the reproduction's own usability.
//!
//! A plain deterministic harness (no statistics framework): every point is
//! one seeded build plus one timed run, so the output doubles as a
//! machine-readable trajectory. Three jobs:
//!
//! 1. **Trajectory** — writes `BENCH_simperf.json` (schema
//!    `rackni-bench-simperf/1`) at the workspace root, one row per point:
//!    single-chip microbenchmarks plus idle-heavy and bursty racks at
//!    2x2x2 / 4x4x4 / 8x8x8, each in both tick modes.
//! 2. **Speedup gate** (machine-independent) — the event-driven tick must
//!    clear `MIN_SPEEDUP` (3.0) over the poll tick on the idle-heavy 8x8x8
//!    rack. Both runs happen on the same host in the same process, so this
//!    ratio is stable across machines.
//! 3. **Regression gate** (baseline-relative) — if
//!    `BENCH_simperf_baseline.json` exists at the workspace root, every
//!    measured point must reach `TOLERANCE` (0.25) of its recorded
//!    cycles/sec. The committed baseline is from a slow 1-core container,
//!    and the wide tolerance absorbs host variance while still catching
//!    order-of-magnitude regressions.
//!
//! `RACKNI_SIMPERF_GATE=off` disables both gates (measurement-only runs on
//! exotic hosts).
//!
//! ```sh
//! cargo bench --bench simperf
//! RACKNI_SIMPERF_GATE=off cargo bench --bench simperf
//! ```

use std::path::{Path, PathBuf};
use std::time::Instant;

use rackni::experiments::{build_idle_rack_point, build_rack_point};
use rackni::ni_rmc::NiPlacement;
use rackni::ni_soc::{
    Bursty, Chip, ChipConfig, Rack, RackSimConfig, Synthetic, TickMode, TrafficPattern, Workload,
};
use rackni::parallel::default_threads;
use rackni::report::{f1, Table};

/// Least event-over-poll speedup on the idle-heavy 8x8x8 rack.
const MIN_SPEEDUP: f64 = 3.0;

/// Least fraction of its baseline cycles/sec a point may reach.
const TOLERANCE: f64 = 0.25;

/// One measured point of the simulator-performance trajectory.
struct Measured {
    name: String,
    cycles: u64,
    wall_ms: f64,
    cps: f64,
    completed_ops: u64,
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
    }
}

fn measure_rack(name: &str, mut rack: Rack, cycles: u64) -> Measured {
    let t = Instant::now();
    rack.run(cycles);
    let wall = t.elapsed().as_secs_f64();
    Measured {
        name: name.to_string(),
        cycles,
        wall_ms: wall * 1e3,
        cps: cycles as f64 / wall.max(1e-9),
        completed_ops: rack.completed_ops(),
    }
}

/// The *bursty* shape: shorter think-time windows than the idle-heavy rack
/// point (8-op bursts against 100-cycle windows, 32-cycle poll backoff),
/// so full ticks are a much larger fraction of the run — the regime where
/// the event tick's win is modest and its bookkeeping overhead would show.
fn build_bursty_rack(dims: (u16, u16, u16), mode: TickMode) -> Rack {
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
        traffic: TrafficPattern::Uniform,
        threads: 0,
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

fn workspace_root() -> PathBuf {
    // crates/core -> workspace root; independent of the invoker's cwd
    // (cargo bench runs the binary from the package directory).
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Extract `"key": <number>` from a single JSON row (the files this bench
/// writes put one point per line, so line-wise scanning is exact).
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// Baseline cycles/sec per point name, read from a previous run's JSON.
fn read_baseline(path: &Path) -> Option<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(
        text.lines()
            .filter_map(|l| {
                let name = json_str(l, "name")?;
                let cps = json_num(l, "cps")?;
                Some((name.to_string(), cps))
            })
            .collect(),
    )
}

fn main() {
    println!(
        "rackni simperf: simulator cycles/sec, poll vs event-driven chip \
         ticking (host threads {})\n",
        default_threads()
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

    // Rack sweeps: idle-heavy (the event tick's home regime) and bursty
    // (short windows; checks the bookkeeping doesn't cost more than it
    // saves), each size in both tick modes on identical seeded workloads.
    // One full burst-plus-think period (~11.5k cycles) per point, so the
    // measured ratio reflects the workload's true duty cycle rather than
    // over- or under-weighting the burst tail.
    let idle_sizes: [((u16, u16, u16), u64); 3] = [
        ((2, 2, 2), 11_500),
        ((4, 4, 4), 11_500),
        ((8, 8, 8), 11_500),
    ];
    for (dims, cycles) in idle_sizes {
        for mode in [TickMode::Event, TickMode::Poll] {
            let name = format!(
                "idle_heavy_{}x{}x{}_{}",
                dims.0,
                dims.1,
                dims.2,
                mode_tag(mode)
            );
            let rack = build_idle_rack_point(dims, 0, mode);
            results.push(measure_rack(&name, rack, cycles));
        }
    }
    for mode in [TickMode::Event, TickMode::Poll] {
        let name = format!("bursty_8x8x8_{}", mode_tag(mode));
        results.push(measure_rack(&name, build_bursty_rack((8, 8, 8), mode), 800));
    }
    // The saturated uniform-async rack point (BENCH_rack.json's workhorse),
    // for continuity with the rack trajectory.
    results.push(measure_rack(
        "uniform_async_4x4x4_event",
        build_rack_point((4, 4, 4), TrafficPattern::Uniform, 0),
        1_200,
    ));

    let mut table = Table::new(&["point", "cycles", "wall (ms)", "cycles/sec", "ops"]);
    for m in &results {
        table.row_owned(vec![
            m.name.clone(),
            m.cycles.to_string(),
            f1(m.wall_ms),
            f1(m.cps),
            m.completed_ops.to_string(),
        ]);
    }
    println!("{}", table.render());

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

    // Trajectory file, one point per line (the baseline reader depends on
    // the line-wise layout).
    let rows: Vec<String> = results
        .iter()
        .map(|m| {
            format!(
                r#"    {{"name": "{}", "cycles": {}, "wall_ms": {:.2}, "cps": {:.1}, "completed_ops": {}}}"#,
                m.name, m.cycles, m.wall_ms, m.cps, m.completed_ops
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"rackni-bench-simperf/1\",\n  \"host_threads\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
        default_threads(),
        rows.join(",\n")
    );
    let out = workspace_root().join("BENCH_simperf.json");
    std::fs::write(&out, &json).expect("write BENCH_simperf.json");
    println!("\nsimperf trajectory written to {}", out.display());

    if std::env::var("RACKNI_SIMPERF_GATE").as_deref() == Ok("off") {
        println!("gates disabled (RACKNI_SIMPERF_GATE=off)");
        return;
    }

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

    // Gate 2 (baseline-relative): no point may collapse below the
    // tolerance fraction of its committed baseline cycles/sec.
    let baseline_path = workspace_root().join("BENCH_simperf_baseline.json");
    match read_baseline(&baseline_path) {
        None => println!(
            "no baseline at {} — regression gate skipped",
            baseline_path.display()
        ),
        Some(baseline) => {
            let mut checked = 0;
            for (name, base_cps) in &baseline {
                let Some(m) = results.iter().find(|m| &m.name == name) else {
                    // A renamed/retired point is a baseline-refresh job,
                    // not a perf regression.
                    continue;
                };
                checked += 1;
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
                    "gate: all {checked} baselined points within {TOLERANCE}x of \
                     {}",
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
