//! The snapshot comparisons every bit-identity test makes, and the
//! conservation laws a drained run must satisfy.

#![allow(dead_code, reason = "each test crate uses its own subset")]

use rackni::ni_soc::{Chip, Rack, Snapshot, Work};

/// The rack's snapshot, then each chip's in node order.
pub fn snapshots(rack: &Rack) -> Vec<Snapshot> {
    let mut all = vec![rack.snapshot()];
    all.extend(rack.chips().iter().map(Chip::snapshot));
    all
}

/// [`snapshots`] without `work`: the poll and event ticks must agree on
/// everything they simulate, but not on how many visits and full ticks it
/// took.
pub fn outputs(rack: &Rack) -> Vec<Snapshot> {
    let mut all = snapshots(rack);
    for s in &mut all {
        s.work = Work::default();
    }
    all
}

/// Panic naming the first counter that differs, and whether it is the
/// rack's or which node's.
pub fn assert_same(got: &[Snapshot], want: &[Snapshot], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: node counts differ");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if let Some(d) = g.diff(w) {
            let at = i
                .checked_sub(1)
                .map_or("rack".into(), |n| format!("node {n}"));
            panic!("{context}: {at} {d}");
        }
    }
}

/// The laws a drained run obeys on every node and rack-wide, `what` naming
/// the snapshot: every issued op completed, every completion was written
/// to a CQ and none is left in flight, every failed op is a transfer its
/// backend abandoned, and every block request and response the backends
/// counted crossed the fabric endpoint.
pub fn assert_conserved(s: &Snapshot, what: &str) {
    let (cores, be, fabric) = (&s.cores, &s.backends, &s.fabric);
    assert_eq!(cores.issued, cores.completed, "{what}: issued vs completed");
    assert_eq!(
        cores.completed, s.qps.completions_written,
        "{what}: completed vs CQ entries written"
    );
    assert_eq!(s.qps.inflight, 0, "{what}: ops left in flight");
    assert_eq!(
        cores.failed,
        be.failed_transfers.get(),
        "{what}: failed ops vs abandoned transfers"
    );
    assert_eq!(
        be.requests_sent.get(),
        fabric.sent.get(),
        "{what}: block requests vs fabric sends"
    );
    assert_eq!(
        be.responses.get(),
        fabric.responded.get(),
        "{what}: block responses vs fabric responses"
    );
}
