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

use rackni::experiments::{
    failure_points_render, failure_sweep, FailureParams, FailurePoint, FaultCase, Scale,
};
use rackni::ni_fabric::RoutingKind;
use rackni::report::BenchFile;

fn main() {
    let scale = Scale::from_env();
    let params = FailureParams::at(scale);
    println!(
        "failure_study: 4x4x4 rack, mid-run fault at cycle {}, ITT watchdog {} cycles x{} retries \
         [scale: {scale:?}]\n",
        params.kill_at, params.itt_timeout, params.itt_retries
    );

    let pts = failure_sweep(scale);
    println!("{}", failure_points_render(&pts));
    println!(
        "faults fire at cycle {}; 'ops' counts error completions too, so a",
        params.kill_at
    );
    println!("cell can complete its job with casualties — 'failed' is the blast radius.");

    let find = |scenario: &str, fault: FaultCase, routing: RoutingKind| -> &FailurePoint {
        pts.iter()
            .find(|p| p.scenario == scenario && p.fault == fault && p.routing == routing)
            .expect("sweep covers the full grid")
    };

    // Healthy cells are the control group: everything completes, nothing
    // fails, the watchdog never fires.
    for p in pts.iter().filter(|p| p.fault == FaultCase::None) {
        assert!(
            p.completed_all && p.failed_ops == 0 && p.itt_timeouts == 0,
            "healthy {}/{} cell degraded: {p:?}",
            p.scenario,
            p.routing.name()
        );
    }

    // Headline 1 (link kill): fault-adaptive routes around the dead link
    // and completes the capped Zipf job with zero casualties, while
    // dimension-order either never finishes inside the horizon or pays at
    // least 2x the completion time grinding through ITT timeouts.
    let ada = find("zipf", FaultCase::LinkKill, RoutingKind::FaultAdaptive);
    assert!(
        ada.completed_all && ada.failed_ops == 0,
        "fault-adaptive must complete the link-kill Zipf job cleanly: {ada:?}"
    );
    assert!(
        ada.escape_hops > 0 || ada.dead_link_stalls == 0,
        "the detour should show up as escape hops, not stalls: {ada:?}"
    );
    let dor = find("zipf", FaultCase::LinkKill, RoutingKind::DimensionOrder);
    assert!(
        !dor.completed_all || dor.completion_cycles >= 2 * ada.completion_cycles,
        "DOR must stall (or finish >=2x slower) on the dead link: dor {} vs ada {} cycles",
        dor.completion_cycles,
        ada.completion_cycles
    );
    println!(
        "\nlink-kill zipf: fault-adaptive completed {}/{} ops in {} cycles with {} failures \
         ({} escape hops); DOR {} in {}{} cycles with {} failures",
        ada.completed_ops,
        ada.expected_ops,
        ada.completion_cycles,
        ada.failed_ops,
        ada.escape_hops,
        if dor.completed_all {
            "completed"
        } else {
            "DID NOT complete"
        },
        if dor.completed_all { "" } else { ">" },
        dor.completion_cycles,
        dor.failed_ops,
    );

    // Headline 2 (node kill): no policy can reach a corpse, but the rack
    // must *finish* — every op addressed to it completes with an error CQ
    // status well inside the horizon instead of wedging its core.
    for routing in [RoutingKind::DimensionOrder, RoutingKind::FaultAdaptive] {
        for scenario in ["uniform", "zipf"] {
            let p = find(scenario, FaultCase::NodeKill, routing);
            assert!(
                p.completed_all,
                "{scenario}/{}: node kill hung the rack: {p:?}",
                routing.name()
            );
            assert!(
                p.failed_ops > 0,
                "{scenario}/{}: a dead hot node must cost error completions: {p:?}",
                routing.name()
            );
            assert!(
                p.completion_cycles < params.horizon,
                "{scenario}/{}: completion rode the horizon: {p:?}",
                routing.name()
            );
        }
    }
    // Blast-radius containment: fault-adaptive loses only the unavoidable
    // ops (those addressed to the corpse); health-blind DOR additionally
    // wedges flows that merely *relayed* through it, so its casualty count
    // must never be lower.
    let nk_ada = find("zipf", FaultCase::NodeKill, RoutingKind::FaultAdaptive);
    let nk_dor = find("zipf", FaultCase::NodeKill, RoutingKind::DimensionOrder);
    assert!(
        nk_ada.failed_ops <= nk_dor.failed_ops,
        "fault-adaptive must not widen the node-kill blast radius: ada {} vs dor {}",
        nk_ada.failed_ops,
        nk_dor.failed_ops
    );
    println!(
        "node-kill zipf: every op completed; blast radius {} failed ops (fault-adaptive) vs {} \
         (DOR), {} packets erased by the dead node",
        nk_ada.failed_ops, nk_dor.failed_ops, nk_ada.packets_dropped
    );

    // Machine-readable trajectory for CI artifacts.
    let mut bench = BenchFile::new("rackni-bench-failure/1", scale);
    bench
        .header()
        .num("kill_at", params.kill_at)
        .num("itt_timeout", params.itt_timeout)
        .num("itt_retries", params.itt_retries);
    for p in &pts {
        bench
            .point()
            .str("scenario", p.scenario)
            .str("fault", p.fault.label())
            .str("routing", p.routing.name())
            .str("torus", format!("{}x{}x{}", p.dims.0, p.dims.1, p.dims.2))
            .num("kill_at", p.kill_at)
            .num("expected_ops", p.expected_ops)
            .num("completed_ops", p.completed_ops)
            .num("failed_ops", p.failed_ops)
            .num("completed_all", p.completed_all)
            .num("completion_cycles", p.completion_cycles)
            .num("p50_ok_read", p.p50_read_cycles)
            .num("p99_ok_read", p.p99_read_cycles)
            .float("link_skew", p.link_skew, 4)
            .num("itt_timeouts", p.itt_timeouts)
            .num("itt_retries", p.itt_retries)
            .num("packets_dropped", p.packets_dropped)
            .num("dead_link_stalls", p.dead_link_stalls)
            .num("escape_hops", p.escape_hops);
    }
    let path = "BENCH_failure.json";
    bench.write(path).expect("write BENCH_failure.json");
    println!("\nblast-radius table written to {path}");
}
