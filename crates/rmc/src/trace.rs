//! Latency tomography: per-request stage timestamps.
//!
//! Every pipeline stamps the requests it touches; the SoC layer collects
//! the events into a [`TraceTable`] from which the Table 1/3 breakdowns and
//! the Fig. 5 projections are computed.

use ni_engine::{Cycle, RunningMean};

/// Lifecycle stages of one remote operation (a WQ entry).
///
/// Declaration order is lifecycle order, and a stage's discriminant is its
/// index into a [`TraceTable`] row.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Stage {
    /// Core begins composing the WQ entry.
    WqWriteStart,
    /// Core's final WQ store completed.
    WqWriteDone,
    /// RGP frontend's poll observed the entry.
    FeObserved,
    /// RGP backend received the entry (latch or NOC).
    BeReceived,
    /// First unrolled packet left for the network router.
    NetOut,
    /// Final response packet arrived from the network router.
    NetIn,
    /// RCP backend finished writing data into local memory (issue time).
    DataWritten,
    /// RCP frontend's CQ store completed.
    CqWritten,
    /// Core's poll observed the completion.
    CqReadDone,
}

impl Stage {
    /// All stages in lifecycle order.
    pub const ALL: [Stage; 9] = [
        Stage::WqWriteStart,
        Stage::WqWriteDone,
        Stage::FeObserved,
        Stage::BeReceived,
        Stage::NetOut,
        Stage::NetIn,
        Stage::DataWritten,
        Stage::CqWritten,
        Stage::CqReadDone,
    ];
}

/// One timestamped stage of one request.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Queue pair the request belongs to.
    pub qp: u32,
    /// WQ entry id.
    pub wq_id: u64,
    /// Stage reached.
    pub stage: Stage,
    /// When.
    pub at: Cycle,
}

/// A stage's stamp before the request reaches it.
const UNSTAMPED: Cycle = Cycle(u64::MAX);

/// One request's stage stamps, indexed by [`Stage`].
type Row = [Cycle; Stage::ALL.len()];

/// Collected request traces.
///
/// Each queue pair owns one row per WQ entry at index `wq_id - 1` (a queue
/// pair numbers its entries from 1, without gaps), allocated at the pair's
/// first stamp. Rows are visited in index order, queue pair first:
/// [`TraceTable::mean_between`] folds per-request durations into a float
/// mean, and float summation is not associative — hash-order iteration
/// here once made the reported breakdowns differ between same-seed runs.
#[derive(Debug, Default)]
pub struct TraceTable {
    rows: Vec<Vec<Row>>,
}

impl TraceTable {
    /// Empty table.
    pub fn new() -> TraceTable {
        TraceTable::default()
    }

    /// Record one event (first stamp per stage wins; re-polls re-observe).
    ///
    /// # Panics
    /// On WQ id 0, which no queue pair assigns.
    pub fn record(&mut self, e: TraceEvent) {
        let qp = e.qp as usize;
        if self.rows.len() <= qp {
            self.rows.resize_with(qp + 1, Vec::new);
        }
        let rows = &mut self.rows[qp];
        let i = row_of(e.wq_id).expect("WQ ids start at 1");
        if rows.len() <= i {
            rows.resize(i + 1, [UNSTAMPED; Stage::ALL.len()]);
        }
        let stamp = &mut rows[i][e.stage as usize];
        if *stamp == UNSTAMPED {
            *stamp = e.at;
        }
    }

    /// Timestamp of `stage` for request `(qp, wq_id)`.
    pub fn at(&self, qp: u32, wq_id: u64, stage: Stage) -> Option<Cycle> {
        let t = self.rows.get(qp as usize)?.get(row_of(wq_id)?)?[stage as usize];
        (t != UNSTAMPED).then_some(t)
    }

    /// Number of traced requests.
    pub fn len(&self) -> usize {
        self.traced().count()
    }

    /// True when nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.traced().next().is_none()
    }

    /// Rows with at least one stamp (ids recorded out of order can leave
    /// an unstamped row below them for a while).
    fn traced(&self) -> impl Iterator<Item = &Row> {
        self.rows
            .iter()
            .flatten()
            .filter(|row| row.iter().any(|&t| t != UNSTAMPED))
    }

    /// Mean duration between two stages across all fully-stamped requests.
    pub fn mean_between(&self, a: Stage, b: Stage) -> Option<f64> {
        let mut m = RunningMean::new();
        for row in self.rows.iter().flatten() {
            let (ta, tb) = (row[a as usize], row[b as usize]);
            if ta != UNSTAMPED && tb != UNSTAMPED && tb >= ta {
                m.record(tb - ta);
            }
        }
        (m.count() > 0).then(|| m.mean())
    }

    /// Mean end-to-end latency (WqWriteStart to CqReadDone).
    pub fn mean_end_to_end(&self) -> Option<f64> {
        self.mean_between(Stage::WqWriteStart, Stage::CqReadDone)
    }
}

/// Row index of WQ id `wq_id`; `None` for id 0.
fn row_of(wq_id: u64) -> Option<usize> {
    usize::try_from(wq_id.checked_sub(1)?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_measure() {
        let mut t = TraceTable::new();
        for (stage, at) in [
            (Stage::WqWriteStart, 0),
            (Stage::WqWriteDone, 13),
            (Stage::NetOut, 50),
            (Stage::CqReadDone, 447),
        ] {
            t.record(TraceEvent {
                qp: 0,
                wq_id: 1,
                stage,
                at: Cycle(at),
            });
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.mean_end_to_end(), Some(447.0));
        assert_eq!(
            t.mean_between(Stage::WqWriteStart, Stage::WqWriteDone),
            Some(13.0)
        );
        assert_eq!(t.mean_between(Stage::NetOut, Stage::NetIn), None);
    }

    #[test]
    fn first_stamp_wins() {
        let mut t = TraceTable::new();
        t.record(TraceEvent {
            qp: 0,
            wq_id: 1,
            stage: Stage::FeObserved,
            at: Cycle(10),
        });
        t.record(TraceEvent {
            qp: 0,
            wq_id: 1,
            stage: Stage::FeObserved,
            at: Cycle(20),
        });
        assert_eq!(t.at(0, 1, Stage::FeObserved), Some(Cycle(10)));
    }

    #[test]
    fn averages_across_requests() {
        let mut t = TraceTable::new();
        let stamp = |t: &mut TraceTable, qp: u32, wq_id: u64, stage: Stage, at: u64| {
            t.record(TraceEvent {
                qp,
                wq_id,
                stage,
                at: Cycle(at),
            });
        };
        // QP 3's requests are stamped interleaved with QP 0's, its second
        // request before its first.
        stamp(&mut t, 3, 2, Stage::WqWriteStart, 10);
        for (id, dt) in [(1u64, 100u64), (2, 200)] {
            stamp(&mut t, 0, id, Stage::WqWriteStart, 0);
            stamp(&mut t, 0, id, Stage::CqReadDone, dt);
        }
        stamp(&mut t, 3, 1, Stage::WqWriteStart, 0);
        stamp(&mut t, 3, 2, Stage::CqReadDone, 410);
        stamp(&mut t, 3, 1, Stage::CqReadDone, 300);
        assert_eq!(t.len(), 4);
        assert_eq!(t.at(3, 2, Stage::WqWriteStart), Some(Cycle(10)));
        assert_eq!(t.at(1, 1, Stage::WqWriteStart), None);
        // (100 + 200 + 300 + 400) / 4
        assert_eq!(t.mean_end_to_end(), Some(250.0));
    }
}
