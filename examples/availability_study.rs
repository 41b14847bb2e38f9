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
    availability_sweep, FailureParams, FaultCase, JobPoint, Scale, AVAIL_KW,
};
use rackni::report::{project, BenchFile, JsonRow};

/// The BENCH keys the printed table shows.
const TABLE: [&str; 14] = [
    "scenario",
    "k",
    "w",
    "fault",
    "completed_ops",
    "expected_ops",
    "lost_reads",
    "degraded_ops",
    "replays",
    "quorum_leg_failures",
    "recovery_cycles",
    "ops_per_kcycle",
    "p99_ok_read",
    "p99_degraded_read",
];

fn main() {
    let scale = Scale::from_env();
    let params = FailureParams::at(scale);
    println!(
        "availability_study: 4x4x4 rack, first fault at cycle {}, ITT watchdog {} cycles x{} \
         retries, replay budget k-1 [scale: {scale:?}]\n",
        params.kill_at, params.itt_timeout, params.itt_retries,
    );

    let pts = availability_sweep(scale);
    let rows: Vec<JsonRow> = pts.iter().map(JobPoint::availability_row).collect();
    println!("{}", project(&rows, &TABLE));
    println!("'lost reads' counts error-completed reads on *surviving* nodes only;");
    println!("a dead node's own in-flight client work is reported as corpse losses.");

    let find = |scenario: &str, k: u8, fault: FaultCase| -> &JobPoint {
        pts.iter()
            .find(|p| {
                let c = &p.cell;
                c.scenario == scenario && c.cfg.chip.rmc.replication.k == k && c.fault == fault
            })
            .expect("sweep covers the full grid")
    };

    // Control group: healthy cells complete everything with no losses, no
    // degraded completions, no replays — at every replication degree.
    for p in pts.iter().filter(|p| p.cell.fault == FaultCase::None) {
        let s = &p.snapshot;
        assert!(
            p.completed_all()
                && s.cores.failed == 0
                && s.cores.degraded == 0
                && s.backends.replays.get() == 0,
            "healthy {}/k={} cell degraded: {}",
            p.cell.scenario,
            p.cell.cfg.chip.rmc.replication.k,
            p.availability_row()
        );
    }

    // Baseline: without replication a node kill must cost read losses —
    // this is the blast radius the recovery machinery is judged against.
    let base = find("reads", 1, FaultCase::NodeKill);
    assert!(
        base.lost_reads > 0,
        "k=1 node kill must lose reads or the cell is not stressing anything: {}",
        base.availability_row()
    );

    // Headline: at k >= 2 with replay, a node kill loses ZERO reads on
    // surviving nodes — every read addressed to the corpse fails over.
    for (k, _) in AVAIL_KW.iter().copied().filter(|&(k, _)| k >= 2) {
        for fault in [FaultCase::NodeKill, FaultCase::Storm] {
            let p = find("reads", k, fault);
            assert!(
                p.completed_all(),
                "reads/k={k}/{}: job did not complete: {}",
                fault.label(),
                p.availability_row()
            );
            assert!(
                p.lost_reads == 0,
                "reads/k={k}/{}: {} reads lost on surviving nodes (expected 0): {}",
                fault.label(),
                p.lost_reads,
                p.availability_row()
            );
        }
        let p = find("reads", k, FaultCase::NodeKill);
        assert!(
            p.snapshot.cores.degraded > 0 && p.snapshot.backends.replays.get() > 0,
            "reads/k={k}/node-kill: recovery should be visible as replays: {}",
            p.availability_row()
        );
    }

    // Writes: the quorum absorbs the dead replica — no errors on surviving
    // nodes, and the absorbed legs show up in the quorum counters.
    for (k, w) in AVAIL_KW.iter().copied().filter(|&(k, _)| k >= 2) {
        let p = find("writes", k, FaultCase::NodeKill);
        assert!(
            p.completed_all() && p.lost_reads == 0,
            "writes/k={k}/w={w}/node-kill: losses on surviving nodes: {}",
            p.availability_row()
        );
        assert!(
            p.snapshot.backends.quorum_writes.get() > 0,
            "writes/k={k}: no write ever fanned out — replication not engaged: {}",
            p.availability_row()
        );
    }

    let nk2 = find("reads", 2, FaultCase::NodeKill);
    let s = &nk2.snapshot;
    println!(
        "\nnode-kill reads: k=1 lost {} reads; k=2 lost {} (of {} ops, {} degraded via {} \
         replays, recovery {} cycles, p99 ok {} vs degraded {})",
        base.lost_reads,
        nk2.lost_reads,
        nk2.expected_ops,
        s.cores.degraded,
        s.backends.replays,
        nk2.recovery_cycles,
        s.reads.percentile(0.99),
        s.degraded_reads.percentile(0.99),
    );

    // Machine-readable table for CI artifacts.
    let mut bench = BenchFile::new("rackni-bench-availability/1", scale, rows);
    bench
        .header()
        .num("kill_at", params.kill_at)
        .num("itt_timeout", params.itt_timeout)
        .num("itt_retries", params.itt_retries);
    let path = "BENCH_availability.json";
    bench.write(path).expect("write BENCH_availability.json");
    println!("\navailability table written to {path}");
}
