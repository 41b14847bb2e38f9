//! Failure study: kill a link or a node of the torus mid-run and measure
//! the blast radius.
//!
//! The grid is `experiments::failure_sweep` — a 4x4x4 64-node rack running
//! capped `{uniform, zipf}` jobs under `{none, link-kill, node-kill}` ×
//! `{dor, fault-adaptive}`:
//!
//! * **link-kill** severs the link between the Zipf hot node and its `+x`
//!   neighbor. Health-blind dimension-order routing parks every flow that
//!   crossed it — those ops only finish through the ITT watchdog's
//!   timeout/retry/error path — while `fault-adaptive` detours over the
//!   surviving minimal paths and completes the job cleanly.
//! * **node-kill** erases the hot node outright. No routing policy can
//!   save ops addressed to the corpse; the measured claim is that the rack
//!   *finishes* — every such op completes with an error CQ status instead
//!   of hanging a core.
//!
//! The assertions below are the acceptance criteria CI enforces; the cell
//! table lands in `BENCH_failure.json` (schema `rackni-bench-failure/1`)
//! next to `BENCH_simperf.json`.
//!
//! ```sh
//! cargo run --release --example failure_study                 # quick (CI)
//! RACKNI_SCALE=full cargo run --release --example failure_study
//! ```

use rackni::experiments::{failure_sweep, FailureParams, FaultCase, JobPoint, Scale};
use rackni::ni_fabric::RoutingKind;
use rackni::report::{project, BenchFile, JsonRow};

/// The BENCH keys the printed table shows.
const TABLE: [&str; 15] = [
    "scenario",
    "fault",
    "routing",
    "completed_ops",
    "expected_ops",
    "failed_ops",
    "completed_all",
    "completion_cycles",
    "p50_ok_read",
    "p99_ok_read",
    "itt_timeouts",
    "itt_retries",
    "packets_dropped",
    "dead_link_stalls",
    "escape_hops",
];

fn main() {
    let scale = Scale::from_env();
    let params = FailureParams::at(scale);
    println!(
        "failure_study: 4x4x4 rack, mid-run fault at cycle {}, ITT watchdog {} cycles x{} retries \
         [scale: {scale:?}]\n",
        params.kill_at, params.itt_timeout, params.itt_retries
    );

    let pts = failure_sweep(scale);
    let rows: Vec<JsonRow> = pts.iter().map(JobPoint::failure_row).collect();
    println!("{}", project(&rows, &TABLE));
    println!(
        "faults fire at cycle {}; 'ops' counts error completions too, so a",
        params.kill_at
    );
    println!("cell can complete its job with casualties — 'failed' is the blast radius.");

    let find = |scenario: &str, fault: FaultCase, routing: RoutingKind| -> &JobPoint {
        pts.iter()
            .find(|p| {
                let c = &p.cell;
                c.scenario == scenario && c.fault == fault && c.cfg.routing == routing
            })
            .expect("sweep covers the full grid")
    };

    // Healthy cells are the control group: everything completes, nothing
    // fails, the watchdog never fires.
    for p in pts.iter().filter(|p| p.cell.fault == FaultCase::None) {
        let s = &p.snapshot;
        assert!(
            p.completed_all() && s.cores.failed == 0 && s.backends.itt_timeouts.get() == 0,
            "healthy {}/{} cell degraded: {}",
            p.cell.scenario,
            p.cell.cfg.routing.name(),
            p.failure_row()
        );
    }

    // Headline 1 (link kill): fault-adaptive routes around the dead link
    // and completes the capped Zipf job with zero casualties, while
    // dimension-order either never finishes inside the horizon or pays at
    // least 2x the completion time grinding through ITT timeouts.
    let ada = find("zipf", FaultCase::LinkKill, RoutingKind::FaultAdaptive);
    let (ada_s, ada_faults) = (&ada.snapshot, &ada.snapshot.faults);
    assert!(
        ada.completed_all() && ada_s.cores.failed == 0,
        "fault-adaptive must complete the link-kill Zipf job cleanly: {}",
        ada.failure_row()
    );
    assert!(
        ada_faults.escape_hops.get() > 0 || ada_faults.dead_link_stalls.get() == 0,
        "the detour should show up as escape hops, not stalls: {}",
        ada.failure_row()
    );
    let dor = find("zipf", FaultCase::LinkKill, RoutingKind::DimensionOrder);
    assert!(
        !dor.completed_all() || dor.completion_cycles >= 2 * ada.completion_cycles,
        "DOR must stall (or finish >=2x slower) on the dead link: dor {} vs ada {} cycles",
        dor.completion_cycles,
        ada.completion_cycles
    );
    println!(
        "\nlink-kill zipf: fault-adaptive completed {}/{} ops in {} cycles with {} failures \
         ({} escape hops); DOR {} in {}{} cycles with {} failures",
        ada_s.cores.completed,
        ada.expected_ops,
        ada.completion_cycles,
        ada_s.cores.failed,
        ada_faults.escape_hops,
        if dor.completed_all() {
            "completed"
        } else {
            "DID NOT complete"
        },
        if dor.completed_all() { "" } else { ">" },
        dor.completion_cycles,
        dor.snapshot.cores.failed,
    );

    // Headline 2 (node kill): no policy can reach a corpse, but the rack
    // must *finish* — every op addressed to it completes with an error CQ
    // status well inside the horizon instead of wedging its core.
    for routing in [RoutingKind::DimensionOrder, RoutingKind::FaultAdaptive] {
        for scenario in ["uniform", "zipf"] {
            let p = find(scenario, FaultCase::NodeKill, routing);
            let row = p.failure_row();
            let name = routing.name();
            assert!(
                p.completed_all(),
                "{scenario}/{name}: node kill hung the rack: {row}"
            );
            assert!(
                p.snapshot.cores.failed > 0,
                "{scenario}/{name}: a dead hot node must cost error completions: {row}"
            );
            assert!(
                p.completion_cycles < params.horizon,
                "{scenario}/{name}: completion rode the horizon: {row}"
            );
        }
    }
    // Blast-radius containment: fault-adaptive loses only the unavoidable
    // ops (those addressed to the corpse); health-blind DOR additionally
    // wedges flows that merely *relayed* through it, so its casualty count
    // must never be lower.
    let nk_ada = &find("zipf", FaultCase::NodeKill, RoutingKind::FaultAdaptive).snapshot;
    let nk_dor = &find("zipf", FaultCase::NodeKill, RoutingKind::DimensionOrder).snapshot;
    assert!(
        nk_ada.cores.failed <= nk_dor.cores.failed,
        "fault-adaptive must not widen the node-kill blast radius: ada {} vs dor {}",
        nk_ada.cores.failed,
        nk_dor.cores.failed
    );
    println!(
        "node-kill zipf: every op completed; blast radius {} failed ops (fault-adaptive) vs {} \
         (DOR), {} packets erased by the dead node",
        nk_ada.cores.failed, nk_dor.cores.failed, nk_ada.faults.packets_dropped
    );

    // Machine-readable trajectory for CI artifacts.
    let mut bench = BenchFile::new("rackni-bench-failure/1", scale, rows);
    bench
        .header()
        .num("kill_at", params.kill_at)
        .num("itt_timeout", params.itt_timeout)
        .num("itt_retries", params.itt_retries);
    let path = "BENCH_failure.json";
    bench.write(path).expect("write BENCH_failure.json");
    println!("\nblast-radius table written to {path}");
}
