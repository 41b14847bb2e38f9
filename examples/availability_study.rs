//! Availability study: how much of a rack's work survives node failures
//! as a function of replication degree and write quorum.
//!
//! The grid is `experiments::availability_sweep` — a 4x4x4 64-node rack
//! running capped read-only and write-only jobs under
//! `{k=1, k=2/w=1, k=3/w=2}` × `{none, node-kill, storm}`, fault-adaptive
//! routing, ITT watchdog armed, WQ replay budget `k - 1`:
//!
//! * **k = 1** is the blast-radius baseline: a node kill error-completes
//!   every op addressed to the corpse.
//! * **k >= 2, reads** — the headline claim: surviving nodes lose *zero*
//!   reads. Every timed-out read replays from its WQ descriptor toward an
//!   alternate replica and completes (degraded, measurably slower, but
//!   complete). A dead node's own in-flight client work is excluded — a
//!   corpse's issue queue is not user traffic.
//! * **k >= 2, writes** — writes fan out to all `k` replicas and complete
//!   once `w` acknowledge, so a dead replica costs a degraded flag, not an
//!   error.
//!
//! The assertions below are the acceptance criteria CI enforces; the cell
//! table lands in `BENCH_availability.json` (schema
//! `rackni-bench-availability/1`) next to `BENCH_failure.json`.
//!
//! ```sh
//! cargo run --release --example availability_study            # quick (CI)
//! RACKNI_SCALE=full cargo run --release --example availability_study
//! ```

use rackni::experiments::{
    availability_points_render, availability_sweep, AvailFault, AvailabilityPoint, FailureParams,
    Scale, AVAIL_KW,
};
use rackni::report::BenchFile;

fn main() {
    let scale = Scale::from_env();
    let params = FailureParams::at(scale);
    println!(
        "availability_study: 4x4x4 rack, first fault at cycle {}, ITT watchdog {} cycles x{} \
         retries, replay budget k-1 [scale: {scale:?}]\n",
        params.kill_at, params.itt_timeout, params.itt_retries,
    );

    let pts = availability_sweep(scale);
    println!("{}", availability_points_render(&pts));
    println!("'lost reads' counts error-completed reads on *surviving* nodes only;");
    println!("a dead node's own in-flight client work is reported as corpse losses.");

    let find = |scenario: &str, k: u8, fault: AvailFault| -> &AvailabilityPoint {
        pts.iter()
            .find(|p| p.scenario == scenario && p.k == k && p.fault == fault)
            .expect("sweep covers the full grid")
    };

    // Control group: healthy cells complete everything with no losses, no
    // degraded completions, no replays — at every replication degree.
    for p in pts.iter().filter(|p| p.fault == AvailFault::None) {
        assert!(
            p.completed_all && p.failed_ops == 0 && p.degraded_ops == 0 && p.replays == 0,
            "healthy {}/k={} cell degraded: {p:?}",
            p.scenario,
            p.k
        );
    }

    // Baseline: without replication a node kill must cost read losses —
    // this is the blast radius the recovery machinery is judged against.
    let base = find("reads", 1, AvailFault::NodeKill);
    assert!(
        base.lost_reads > 0,
        "k=1 node kill must lose reads or the cell is not stressing anything: {base:?}"
    );

    // Headline: at k >= 2 with replay, a node kill loses ZERO reads on
    // surviving nodes — every read addressed to the corpse fails over.
    for (k, _) in AVAIL_KW.iter().copied().filter(|&(k, _)| k >= 2) {
        for fault in [AvailFault::NodeKill, AvailFault::Storm] {
            let p = find("reads", k, fault);
            assert!(
                p.completed_all,
                "reads/k={k}/{}: job did not complete: {p:?}",
                fault.label()
            );
            assert!(
                p.lost_reads == 0,
                "reads/k={k}/{}: {} reads lost on surviving nodes (expected 0): {p:?}",
                fault.label(),
                p.lost_reads
            );
        }
        let p = find("reads", k, AvailFault::NodeKill);
        assert!(
            p.degraded_ops > 0 && p.replays > 0,
            "reads/k={k}/node-kill: recovery should be visible as replays: {p:?}"
        );
    }

    // Writes: the quorum absorbs the dead replica — no errors on surviving
    // nodes, and the absorbed legs show up in the quorum counters.
    for (k, w) in AVAIL_KW.iter().copied().filter(|&(k, _)| k >= 2) {
        let p = find("writes", k, AvailFault::NodeKill);
        assert!(
            p.completed_all && p.lost_reads == 0,
            "writes/k={k}/w={w}/node-kill: losses on surviving nodes: {p:?}"
        );
        assert!(
            p.quorum_writes > 0,
            "writes/k={k}: no write ever fanned out — replication not engaged: {p:?}"
        );
    }

    let nk2 = find("reads", 2, AvailFault::NodeKill);
    println!(
        "\nnode-kill reads: k=1 lost {} reads; k=2 lost {} (of {} ops, {} degraded via {} \
         replays, recovery {} cycles, p99 ok {} vs degraded {})",
        base.lost_reads,
        nk2.lost_reads,
        nk2.expected_ops,
        nk2.degraded_ops,
        nk2.replays,
        nk2.recovery_cycles,
        nk2.p99_read_cycles,
        nk2.p99_degraded_read_cycles,
    );

    // Machine-readable table for CI artifacts.
    let mut bench = BenchFile::new("rackni-bench-availability/1", scale);
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
            .num("k", p.k)
            .num("w", p.w)
            .str("torus", format!("{}x{}x{}", p.dims.0, p.dims.1, p.dims.2))
            .num("kill_at", p.kill_at)
            .num("expected_ops", p.expected_ops)
            .num("completed_ops", p.completed_ops)
            .num("failed_ops", p.failed_ops)
            .num("lost_reads", p.lost_reads)
            .num("corpse_failed_reads", p.corpse_failed_reads)
            .num("degraded_ops", p.degraded_ops)
            .num("replays", p.replays)
            .num("quorum_writes", p.quorum_writes)
            .num("quorum_leg_failures", p.quorum_leg_failures)
            .num("completed_all", p.completed_all)
            .num("completion_cycles", p.completion_cycles)
            .num("recovery_cycles", p.recovery_cycles)
            .float("ops_per_kcycle", p.ops_per_kcycle, 4)
            .num("p50_ok_read", p.p50_read_cycles)
            .num("p99_ok_read", p.p99_read_cycles)
            .num("p99_degraded_read", p.p99_degraded_read_cycles);
    }
    let path = "BENCH_availability.json";
    bench.write(path).expect("write BENCH_availability.json");
    println!("\navailability table written to {path}");
}
