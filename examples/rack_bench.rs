//! Parallel-rack scaling benchmark: the paper's rack sizes (2x2x2 up to the
//! 512-node 8x8x8 torus of §1, plus a 4096-node 16x16x16 stretch point)
//! driven through the lookahead-windowed parallel `Rack::run` loop, with
//! simulator throughput (simulated cycles per wall-clock second) measured
//! serially and in parallel at every size.
//!
//! Three jobs in one binary:
//!
//! 1. **Throughput trajectory** — writes `BENCH_rack.json` (schema
//!    `rackni-bench-rack/3`) so CI can archive cycles/sec per rack size and
//!    scenario, and future PRs can track simulator-performance regressions.
//!    Each point also records `sync_rounds`, the rack's compute/exchange
//!    rounds (`Rack::sync_rounds`): a deterministic work counter, one per
//!    lookahead window, so at most one per 72 simulated cycles at the
//!    default fabric config.
//! 2. **Speedup check** — on multi-core hosts the same seeded run is timed
//!    once pinned to one worker and once across all workers; the ratio is
//!    the parallel-tick speedup (reported per size).
//! 3. **Determinism guard** — the serial and parallel runs of each point
//!    must produce identical fabric counters, completed ops, hop counts and
//!    sync rounds, and every `uniform-async` point must complete
//!    operations (a guard over zero completions compares nothing); any
//!    divergence aborts the benchmark.
//!
//! Two traffic shapes run per sweep:
//!
//! * `uniform-async` — every active core issues back-to-back 512B async
//!   reads (the saturation regime; see `experiments::build_rack_point`).
//! * `idle-heavy` — a stencil-like nearest-neighbour exchange: 2-op bursts
//!   against 10k-cycle declared think windows with frontend poll backoff
//!   (see `experiments::build_idle_rack_point`): the regime the
//!   event-driven chip tick is built for, and the only shape the 4096-node
//!   point runs (a saturated 4096-node rack is a full-scale job, not a CI
//!   smoke).
//!
//! ```sh
//! cargo run --release --example rack_bench                 # quick (CI)
//! RACKNI_SCALE=full cargo run --release --example rack_bench
//! RACKNI_THREADS=8 cargo run --release --example rack_bench
//! ```
//!
//! Chips use the paper's NIedge placement (see `experiments::rack_scale`):
//! the design the paper scales to the full rack, and the config that keeps
//! a fully simulated 512-node rack inside CI budgets.

use std::fmt::Write as _;
use std::time::Instant;

use rackni::experiments::{build_idle_rack_point, build_rack_point, Scale};
use rackni::ni_soc::{TickMode, TrafficPattern};
use rackni::parallel::default_threads;
use rackni::report::{f1, Table};

/// Traffic shape of one benchmark point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// Saturating back-to-back async reads.
    UniformAsync,
    /// Bursty duty-cycled reads with declared idle windows.
    IdleHeavy,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::UniformAsync => "uniform-async",
            Shape::IdleHeavy => "idle-heavy",
        }
    }
}

/// Observable outcome of one run — serial and parallel runs of the same
/// seeded config must match exactly.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    sent: u64,
    incoming: u64,
    responded: u64,
    completed_ops: u64,
    hops: u64,
    sync_rounds: u64,
}

struct RunResult {
    build_ms: f64,
    wall_ms: f64,
    cps: f64,
    fp: Fingerprint,
}

fn run_point(shape: Shape, dims: (u16, u16, u16), cycles: u64, threads: usize) -> RunResult {
    // One source of truth per shape: the same builders the
    // `experiments::rack_scale` sweep and the simperf gate use, so the
    // BENCH_rack.json trajectory and the sweep tables can never drift
    // apart. Both shapes run the default event-driven tick — the
    // trajectory tracks the simulator as shipped (simperf covers the
    // event-vs-poll comparison).
    let t0 = Instant::now();
    let mut rack = match shape {
        Shape::UniformAsync => build_rack_point(dims, TrafficPattern::Uniform, threads),
        Shape::IdleHeavy => build_idle_rack_point(dims, threads, TickMode::Event),
    };
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    rack.run(cycles);
    let wall = t1.elapsed().as_secs_f64();
    let fs = rack.fabric_stats();
    RunResult {
        build_ms,
        wall_ms: wall * 1e3,
        cps: cycles as f64 / wall.max(1e-9),
        fp: Fingerprint {
            sent: fs.sent.get(),
            incoming: fs.incoming_generated.get(),
            responded: fs.responded.get(),
            completed_ops: rack.completed_ops(),
            hops: rack.hops_traversed(),
            sync_rounds: rack.sync_rounds(),
        },
    }
}

fn main() {
    let scale = Scale::from_env();
    let host_threads = default_threads();
    // (shape, dims, horizon): quick keeps CI smoke runs inside seconds per
    // point; full pins the paper's 512-node rack at a >=50k-cycle horizon
    // (enough for tens of thousands of completed round trips at ~1.1k
    // cycles each). The 16x16x16 4096-node stretch point runs idle-heavy
    // only, at a short horizon — its job is to prove the rack scales 8x
    // past the paper and to put a cycles/sec number on it.
    let points: Vec<(Shape, (u16, u16, u16), u64)> = match scale {
        Scale::Quick => vec![
            (Shape::UniformAsync, (2, 2, 2), 6_000),
            (Shape::UniformAsync, (3, 3, 3), 2_500),
            (Shape::UniformAsync, (4, 4, 4), 1_200),
            // No round trip across the 8x8x8 torus completes within 400
            // cycles; by 1.2k hundreds have.
            (Shape::UniformAsync, (8, 8, 8), 1_200),
            (Shape::IdleHeavy, (4, 4, 4), 11_500),
            // Pre-discovery window only (the idle-heavy shape's frontends
            // take ~5.4k cycles to round-robin onto the one active QP):
            // this point's job is proving the 4096-node build and pricing
            // the dormant path, not moving traffic — the full sweep does
            // that with a post-discovery horizon.
            (Shape::IdleHeavy, (16, 16, 16), 600),
        ],
        Scale::Full => vec![
            (Shape::UniformAsync, (2, 2, 2), 60_000),
            (Shape::UniformAsync, (3, 3, 3), 60_000),
            (Shape::UniformAsync, (4, 4, 4), 60_000),
            (Shape::UniformAsync, (8, 8, 8), 50_000),
            (Shape::IdleHeavy, (8, 8, 8), 50_000),
            // Past the ~5.4k-cycle WQ-discovery latency, so the burst
            // crosses the 4096-node fabric within the horizon.
            (Shape::IdleHeavy, (16, 16, 16), 8_000),
        ],
    };
    println!(
        "rackni rack_bench: lookahead-windowed parallel rack ticking, scale {scale:?}, \
         host threads {host_threads}\n"
    );

    let mut table = Table::new(&[
        "scenario",
        "torus",
        "nodes",
        "cycles",
        "build (ms)",
        "serial cyc/s",
        "parallel cyc/s",
        "threads",
        "speedup",
        "ops",
        "hops",
        "sync rounds",
    ]);
    let mut rows = Vec::new();
    for &(shape, dims, cycles) in &points {
        let nodes = u32::from(dims.0) * u32::from(dims.1) * u32::from(dims.2);
        // Rack::run clamps its pool to the chip count; report the workers
        // the parallel run actually gets, not the raw host count.
        let eff_threads = host_threads.min(nodes as usize).max(1);
        let serial = run_point(shape, dims, cycles, 1);
        assert!(
            shape != Shape::UniformAsync || serial.fp.completed_ops > 0,
            "{dims:?}/{}: no operation completed within {cycles} cycles",
            shape.name()
        );
        // On a single-core host the parallel run would measure the same
        // configuration twice; reuse the serial numbers.
        let parallel = if host_threads > 1 {
            let p = run_point(shape, dims, cycles, 0);
            assert_eq!(
                p.fp,
                serial.fp,
                "{dims:?}/{}: parallel run diverged from the serial reference",
                shape.name()
            );
            Some(p)
        } else {
            None
        };
        let (pcps, pwall) = parallel
            .as_ref()
            .map_or((serial.cps, serial.wall_ms), |p| (p.cps, p.wall_ms));
        let speedup = pcps / serial.cps;
        table.row_owned(vec![
            shape.name().to_string(),
            format!("{}x{}x{}", dims.0, dims.1, dims.2),
            nodes.to_string(),
            cycles.to_string(),
            f1(serial.build_ms),
            f1(serial.cps),
            f1(pcps),
            eff_threads.to_string(),
            format!("{speedup:.2}x"),
            serial.fp.completed_ops.to_string(),
            serial.fp.hops.to_string(),
            serial.fp.sync_rounds.to_string(),
        ]);
        rows.push(format!(
            r#"    {{"scenario": "{scen}", "torus": "{x}x{y}x{z}", "nodes": {nodes}, "cycles": {cycles}, "serial_cps": {scps:.1}, "parallel_cps": {pcps:.1}, "threads": {eff_threads}, "speedup": {speedup:.4}, "wall_ms_serial": {swall:.1}, "wall_ms_parallel": {pwall:.1}, "build_ms": {bms:.1}, "completed_ops": {ops}, "hops": {hops}, "sync_rounds": {rounds}}}"#,
            scen = shape.name(),
            x = dims.0,
            y = dims.1,
            z = dims.2,
            scps = serial.cps,
            swall = serial.wall_ms,
            bms = serial.build_ms,
            ops = serial.fp.completed_ops,
            hops = serial.fp.hops,
            rounds = serial.fp.sync_rounds,
        ));
    }
    println!("{}", table.render());
    if host_threads > 1 {
        println!(
            "serial and parallel runs produced identical fabric counters, ops, \
             hop counts and sync rounds at every size (determinism guard passed)"
        );
    } else {
        println!(
            "single-core host: parallel columns mirror the serial run \
             (speedup needs >1 host thread; set RACKNI_THREADS on a bigger box)"
        );
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, r#"  "schema": "rackni-bench-rack/3","#);
    let _ = writeln!(
        json,
        r#"  "scale": "{}","#,
        format!("{scale:?}").to_lowercase()
    );
    let _ = writeln!(json, r#"  "host_threads": {host_threads},"#);
    let _ = writeln!(json, r#"  "points": ["#);
    let _ = writeln!(json, "{}", rows.join(",\n"));
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    let path = "BENCH_rack.json";
    std::fs::write(path, &json).expect("write BENCH_rack.json");
    println!("\nthroughput trajectory written to {path}");
}
