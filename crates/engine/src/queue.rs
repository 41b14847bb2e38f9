//! Fixed-latency delay lines.
//!
//! [`DelayLine`] models fixed-latency resources that complete out-of-band of
//! the NOC — DRAM accesses (50ns) and intra-rack hops (35ns) — as a min-heap
//! of (ready-at, item) pairs popped once the clock reaches them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::clock::Cycle;

/// Heap entry ordering ready-at timestamps for [`DelayLine`].
///
/// Ties are broken by insertion sequence so equal-time completions drain in
/// FIFO order — this keeps the simulator deterministic.
struct Pending<T> {
    ready_at: Cycle,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ready_at == other.ready_at && self.seq == other.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ready_at, self.seq).cmp(&(other.ready_at, other.seq))
    }
}

/// A fixed-latency completion queue: items pushed with a ready-at time pop in
/// timestamp order once the simulation clock reaches them.
///
/// ```
/// use ni_engine::{Cycle, DelayLine};
/// let mut d = DelayLine::new();
/// d.push_at(Cycle(20), "b");
/// d.push_at(Cycle(10), "a");
/// assert_eq!(d.pop_ready(Cycle(15)), Some("a"));
/// assert_eq!(d.pop_ready(Cycle(15)), None);
/// assert_eq!(d.pop_ready(Cycle(25)), Some("b"));
/// ```
pub struct DelayLine<T> {
    heap: BinaryHeap<Reverse<Pending<T>>>,
    next_seq: u64,
}

impl<T> DelayLine<T> {
    /// Create an empty delay line.
    pub fn new() -> Self {
        DelayLine {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `item` to become available at `ready_at`.
    pub fn push_at(&mut self, ready_at: Cycle, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Pending {
            ready_at,
            seq,
            item,
        }));
    }

    /// Schedule `item` to become available `delay` cycles after `now`.
    pub fn push_after(&mut self, now: Cycle, delay: u64, item: T) {
        self.push_at(now + delay, item);
    }

    /// Pop the earliest item whose ready time is `<= now`, if any.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.heap.peek().is_some_and(|p| p.0.ready_at <= now) {
            Some(self.heap.pop().expect("peeked entry").0.item)
        } else {
            None
        }
    }

    /// Ready time of the earliest scheduled item.
    pub fn next_ready_at(&self) -> Option<Cycle> {
        self.heap.peek().map(|p| p.0.ready_at)
    }

    /// Number of in-flight items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The pending items in pop order, each with its ready time. Sequence
/// numbers are left out: they only order items ready at the same cycle,
/// and the pop order shows that order.
impl<T: fmt::Debug> fmt::Debug for DelayLine<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut pending: Vec<&Pending<T>> = self.heap.iter().map(|p| &p.0).collect();
        pending.sort_unstable();
        let items = pending.iter().map(|p| (p.ready_at, &p.item));
        f.debug_list().entries(items).finish()
    }
}

impl<T> Default for DelayLine<T> {
    fn default() -> Self {
        DelayLine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_line_orders_by_time_then_fifo() {
        let mut d = DelayLine::new();
        d.push_at(Cycle(10), 'x');
        d.push_at(Cycle(10), 'y');
        d.push_at(Cycle(5), 'z');
        assert_eq!(d.next_ready_at(), Some(Cycle(5)));
        assert_eq!(d.pop_ready(Cycle(10)), Some('z'));
        // Same ready time: FIFO by insertion.
        assert_eq!(d.pop_ready(Cycle(10)), Some('x'));
        assert_eq!(d.pop_ready(Cycle(10)), Some('y'));
        assert!(d.is_empty());
    }

    #[test]
    fn delay_line_debug_shows_the_pop_order_without_sequence_numbers() {
        let mut a = DelayLine::new();
        a.push_at(Cycle(9), 'p');
        a.push_at(Cycle(9), 'q');
        a.push_at(Cycle(4), 'r');
        // The same pending items after a different history.
        let mut b = DelayLine::new();
        b.push_at(Cycle(1), 'x');
        assert_eq!(b.pop_ready(Cycle(1)), Some('x'));
        b.push_at(Cycle(4), 'r');
        b.push_at(Cycle(9), 'p');
        b.push_at(Cycle(9), 'q');
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(format!("{a:?}"), "[(c4, 'r'), (c9, 'p'), (c9, 'q')]");
    }

    #[test]
    fn delay_line_push_after_offsets_from_now() {
        let mut d = DelayLine::new();
        d.push_after(Cycle(100), 100, "dram");
        assert_eq!(d.pop_ready(Cycle(199)), None);
        assert_eq!(d.pop_ready(Cycle(200)), Some("dram"));
    }
}
