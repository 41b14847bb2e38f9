//! Online statistics used by the latency and bandwidth experiments.
//!
//! The paper (§5) monitors metrics in 500K-cycle windows and stops once the
//! delta between consecutive windows is below 1%. [`ConvergenceMonitor`]
//! implements exactly that protocol; [`RunningMean`], [`Histogram`] and
//! [`Counter`] collect the per-request samples feeding it.

use std::fmt;

use crate::clock::{Cycle, Frequency};

/// Monotonic event counter.
///
/// ```
/// use ni_engine::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A statistic a [`stats!`](crate::stats!) struct can hold.
pub trait Stat {
    /// Fold `other` into `self` (components into a chip, chips into a rack).
    fn merge(&mut self, other: &Self);

    /// Call `f` with each reading under `name`, in a fixed order; nested
    /// readings get dotted names (`noc.delivered_by_class.2`, `reads.p99`).
    fn walk(&self, name: &str, f: &mut dyn FnMut(&str, u64));
}

/// `items` merged in order into an empty `T`.
pub fn sum<'a, T: Stat + Default + 'a>(items: impl IntoIterator<Item = &'a T>) -> T {
    let mut total = T::default();
    for item in items {
        total.merge(item);
    }
    total
}

/// `name.field`, or `field` at the root.
#[doc(hidden)]
pub fn path(name: &str, field: impl fmt::Display) -> String {
    if name.is_empty() {
        field.to_string()
    } else {
        format!("{name}.{field}")
    }
}

impl Stat for u64 {
    fn merge(&mut self, other: &Self) {
        *self += other;
    }

    fn walk(&self, name: &str, f: &mut dyn FnMut(&str, u64)) {
        f(name, *self);
    }
}

impl Stat for Counter {
    fn merge(&mut self, other: &Self) {
        self.0 += other.0;
    }

    fn walk(&self, name: &str, f: &mut dyn FnMut(&str, u64)) {
        f(name, self.0);
    }
}

/// Element-wise, readings named by index.
impl<T: Stat, const N: usize> Stat for [T; N] {
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.iter_mut().zip(other) {
            a.merge(b);
        }
    }

    fn walk(&self, name: &str, f: &mut dyn FnMut(&str, u64)) {
        for (i, s) in self.iter().enumerate() {
            s.walk(&path(name, i), f);
        }
    }
}

/// Key-wise (a key missing on one side counts as empty), readings named
/// by key in key order.
impl<K: Ord + Copy + fmt::Display, V: Stat + Default> Stat for std::collections::BTreeMap<K, V> {
    fn merge(&mut self, other: &Self) {
        for (k, v) in other {
            self.entry(*k).or_default().merge(v);
        }
    }

    fn walk(&self, name: &str, f: &mut dyn FnMut(&str, u64)) {
        for (k, v) in self {
            v.walk(&path(name, k), f);
        }
    }
}

/// Declare statistics structs once, each as it would be written by hand:
/// the macro adds an inherent field-by-field `merge(&mut self, &Self)` and
/// a [`Stat`] impl walking the fields in declaration order. Every field
/// must be a [`Stat`].
#[macro_export]
macro_rules! stats {
    ($(
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
        }
    )*) => {$(
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),*
        }

        impl $name {
            /// Add `other`'s statistics to these, field by field.
            pub fn merge(&mut self, other: &Self) {
                $($crate::Stat::merge(&mut self.$field, &other.$field);)*
            }
        }

        impl $crate::Stat for $name {
            fn merge(&mut self, other: &Self) {
                Self::merge(self, other);
            }

            fn walk(&self, name: &str, f: &mut dyn FnMut(&str, u64)) {
                $($crate::Stat::walk(&self.$field, &$crate::stats::path(name, stringify!($field)), f);)*
            }
        }
    )*};
}

/// Streaming mean/min/max over `u64` samples (latencies in cycles).
///
/// ```
/// use ni_engine::RunningMean;
/// let mut m = RunningMean::new();
/// m.record(10);
/// m.record(20);
/// assert_eq!(m.mean(), 15.0);
/// assert_eq!(m.min(), Some(10));
/// assert_eq!(m.max(), Some(20));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunningMean {
    count: u64,
    sum: u128,
    min: Option<u64>,
    max: Option<u64>,
}

impl RunningMean {
    /// New, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, sample: u64) {
        self.count += 1;
        self.sum += u128::from(sample);
        self.min = Some(self.min.map_or(sample, |m| m.min(sample)));
        self.max = Some(self.max.map_or(sample, |m| m.max(sample)));
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0.0 when no samples have been recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &RunningMean) {
        self.count += other.count;
        self.sum += other.sum;
        if let Some(m) = other.min {
            self.min = Some(self.min.map_or(m, |s| s.min(m)));
        }
        if let Some(m) = other.max {
            self.max = Some(self.max.map_or(m, |s| s.max(m)));
        }
    }
}

/// Readings `count`, `sum` (saturated to `u64`), `min` and `max` (0 while
/// empty).
impl Stat for RunningMean {
    fn merge(&mut self, other: &Self) {
        RunningMean::merge(self, other);
    }

    fn walk(&self, name: &str, f: &mut dyn FnMut(&str, u64)) {
        let sum = u64::try_from(self.sum).unwrap_or(u64::MAX);
        f(&path(name, "count"), self.count);
        f(&path(name, "sum"), sum);
        f(&path(name, "min"), self.min.unwrap_or(0));
        f(&path(name, "max"), self.max.unwrap_or(0));
    }
}

/// Power-of-two-bucketed histogram for latency distributions.
///
/// Bucket `i` covers `[2^i, 2^(i+1))`; bucket 0 covers `[0, 2)`. The
/// buckets are allocated by the first `record` (or a `merge` from a
/// histogram that has them), so a histogram that never sees a sample
/// costs no heap.
///
/// ```
/// use ni_engine::Histogram;
/// let mut h = Histogram::new();
/// h.record(700);
/// assert_eq!(h.percentile(0.5), 700);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// `BUCKETS` counts once a sample arrived, empty before.
    buckets: Vec<u64>,
    stats: RunningMean,
    /// Exact samples kept while small, for precise percentiles in tests.
    exact: Vec<u64>,
}

impl Histogram {
    const BUCKETS: usize = 64;

    /// Exact samples kept before percentiles degrade to the buckets.
    const EXACT_CAP: usize = 65_536;

    /// New histogram keeping up to 64K exact samples before degrading to
    /// bucketed percentiles. Allocates nothing; equal to `default()`.
    pub fn new() -> Self {
        Self::default()
    }

    fn buckets_mut(&mut self) -> &mut [u64] {
        if self.buckets.is_empty() {
            self.buckets = vec![0; Self::BUCKETS];
        }
        &mut self.buckets
    }

    /// Record one sample.
    pub fn record(&mut self, sample: u64) {
        let idx = (64 - sample.leading_zeros()).min(63) as usize;
        self.buckets_mut()[idx] += 1;
        self.stats.record(sample);
        if self.exact.len() < Self::EXACT_CAP {
            self.exact.push(sample);
        }
    }

    /// Underlying mean/min/max statistics.
    pub fn stats(&self) -> &RunningMean {
        &self.stats
    }

    /// Merge another histogram into this one (chip-wide tails from per-core
    /// histograms). Exact samples are kept up to the cap; past it the
    /// percentiles degrade to the bucketed approximation, as with `record`.
    pub fn merge(&mut self, other: &Histogram) {
        if !other.buckets.is_empty() {
            for (a, b) in self.buckets_mut().iter_mut().zip(&other.buckets) {
                *a += b;
            }
        }
        self.stats.merge(&other.stats);
        for &s in &other.exact {
            if self.exact.len() >= Self::EXACT_CAP {
                break;
            }
            self.exact.push(s);
        }
    }

    /// `q`-quantile (0.0..=1.0). Exact while few samples, bucket-midpoint
    /// approximation afterwards. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let q = q.clamp(0.0, 1.0);
        if self.stats.count() == 0 {
            return 0;
        }
        if self.exact.len() as u64 == self.stats.count() {
            let mut v = self.exact.clone();
            v.sort_unstable();
            // Nearest-rank definition: the ceil(q*n)-th smallest sample.
            let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
            return v[rank - 1];
        }
        let target = (self.stats.count() as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                // Midpoint of bucket [2^(i-1), 2^i) — approximate.
                return if i == 0 {
                    1
                } else {
                    ((1u64 << (i - 1)) + (1u64 << i)) >> 1
                };
            }
        }
        self.stats.max().unwrap_or(0)
    }
}

/// The [`RunningMean`] readings, then `p50` and `p99`.
impl Stat for Histogram {
    fn merge(&mut self, other: &Self) {
        Histogram::merge(self, other);
    }

    fn walk(&self, name: &str, f: &mut dyn FnMut(&str, u64)) {
        self.stats.walk(name, f);
        f(&path(name, "p50"), self.percentile(0.5));
        f(&path(name, "p99"), self.percentile(0.99));
    }
}

/// Occupancy and bandwidth accounting for one directed link.
///
/// Tracks totals (bytes, packets, busy cycles) plus a windowed byte count
/// whose maximum gives the link's *peak* bandwidth — the quantity rack-scale
/// congestion studies care about, since a link can be near-idle on average
/// yet saturated in bursts.
///
/// ```
/// use ni_engine::{Cycle, Frequency, LinkLoad};
/// let mut l = LinkLoad::new(100);
/// l.record(Cycle(10), 64, 4);
/// l.record(Cycle(150), 32, 2);
/// assert_eq!(l.total_bytes(), 96);
/// assert_eq!(l.packets(), 2);
/// assert_eq!(l.busy_cycles(), 6);
/// assert_eq!(l.peak_window_bytes(), 64);
/// let peak = l.peak_gbps(Frequency::GHZ2);
/// assert!((peak - 64.0 / 100.0 * 2.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct LinkLoad {
    window: u64,
    window_start: u64,
    window_bytes: u64,
    peak_window_bytes: u64,
    total_bytes: u64,
    busy_cycles: u64,
    packets: u64,
}

impl LinkLoad {
    /// New accumulator using `window`-cycle windows for peak tracking.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: u64) -> LinkLoad {
        assert!(window > 0, "window must be non-zero");
        LinkLoad {
            window,
            window_start: 0,
            window_bytes: 0,
            peak_window_bytes: 0,
            total_bytes: 0,
            busy_cycles: 0,
            packets: 0,
        }
    }

    /// Record one packet of `bytes` crossing the link at `now`, occupying it
    /// for `busy` cycles. `now` must be non-decreasing across calls.
    pub fn record(&mut self, now: Cycle, bytes: u64, busy: u64) {
        if now.0 >= self.window_start + self.window {
            self.peak_window_bytes = self.peak_window_bytes.max(self.window_bytes);
            self.window_bytes = 0;
            // Jump straight to the window containing `now` (links are often
            // idle for long stretches; no need to roll through empty windows).
            self.window_start = now.0 - now.0 % self.window;
        }
        self.window_bytes += bytes;
        self.total_bytes += bytes;
        self.busy_cycles += busy;
        self.packets += 1;
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total packets moved.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Cycles the link spent serializing flits.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Bytes in the busiest window seen so far (including the open one).
    pub fn peak_window_bytes(&self) -> u64 {
        self.peak_window_bytes.max(self.window_bytes)
    }

    /// Peak bandwidth over any window, in GB/s at `freq`.
    pub fn peak_gbps(&self, freq: Frequency) -> f64 {
        freq.gbps_from_bytes_per_cycle(self.peak_window_bytes() as f64 / self.window as f64)
    }

    /// Fraction of `elapsed` cycles the link was busy.
    pub fn utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        self.busy_cycles as f64 / elapsed as f64
    }
}

/// Result of feeding one monitoring window to a [`ConvergenceMonitor`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WindowStatus {
    /// Not enough windows yet, or delta still above tolerance.
    Open {
        /// Windows observed so far.
        windows: u32,
        /// Relative delta between the two most recent windows, if two exist.
        last_delta: Option<f64>,
    },
    /// Metric stabilized: consecutive windows within tolerance.
    Converged {
        /// The stabilized metric value (last window's sample).
        value: f64,
        /// Windows observed when convergence was declared.
        windows: u32,
    },
}

/// Windowed convergence detector replicating the paper's §5 protocol:
/// sample a metric every `window` cycles and declare convergence when the
/// relative delta between consecutive windows drops below `tolerance`.
///
/// ```
/// use ni_engine::{ConvergenceMonitor, Cycle, WindowStatus};
/// let mut mon = ConvergenceMonitor::new(1000, 0.01, 2);
/// assert!(mon.observe(Cycle(1000), 100.0).is_some());
/// mon.observe(Cycle(2000), 100.4);
/// if let Some(WindowStatus::Converged { value, .. }) = mon.observe(Cycle(3000), 100.5) {
///     assert!(value > 100.0);
/// } else {
///     panic!("expected convergence");
/// }
/// ```
#[derive(Clone, Debug)]
pub struct ConvergenceMonitor {
    window: u64,
    tolerance: f64,
    /// Number of consecutive in-tolerance deltas required.
    required_stable: u32,
    next_boundary: Cycle,
    last_value: Option<f64>,
    stable_run: u32,
    windows_seen: u32,
}

impl ConvergenceMonitor {
    /// Create a monitor with the given window length (cycles), relative
    /// tolerance (e.g. `0.01` = 1%) and required consecutive stable windows.
    ///
    /// # Panics
    /// Panics if `window` is zero or `tolerance` is negative.
    pub fn new(window: u64, tolerance: f64, required_stable: u32) -> Self {
        assert!(window > 0, "window must be non-zero");
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        ConvergenceMonitor {
            window,
            tolerance,
            required_stable: required_stable.max(1),
            next_boundary: Cycle(window),
            last_value: None,
            stable_run: 0,
            windows_seen: 0,
        }
    }

    /// The paper's configuration: 500K-cycle windows, 1% tolerance.
    pub fn paper_default() -> Self {
        ConvergenceMonitor::new(500_000, 0.01, 1)
    }

    /// Window length in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Feed the current metric value; returns a status when `now` crosses a
    /// window boundary, `None` inside a window.
    pub fn observe(&mut self, now: Cycle, value: f64) -> Option<WindowStatus> {
        if now < self.next_boundary {
            return None;
        }
        self.next_boundary += self.window;
        self.windows_seen += 1;
        let status = match self.last_value {
            None => WindowStatus::Open {
                windows: self.windows_seen,
                last_delta: None,
            },
            Some(prev) => {
                let denom = prev.abs().max(f64::EPSILON);
                let delta = (value - prev).abs() / denom;
                if delta <= self.tolerance {
                    self.stable_run += 1;
                } else {
                    self.stable_run = 0;
                }
                if self.stable_run >= self.required_stable {
                    WindowStatus::Converged {
                        value,
                        windows: self.windows_seen,
                    }
                } else {
                    WindowStatus::Open {
                        windows: self.windows_seen,
                        last_delta: Some(delta),
                    }
                }
            }
        };
        self.last_value = Some(value);
        Some(status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }

    crate::stats! {
        /// One field of every [`Stat`] kind.
        #[derive(Clone, Debug, Default, PartialEq)]
        struct Probe {
            ops: u64,
            hits: Counter,
            lat: RunningMean,
            tail: Histogram,
            lanes: [Counter; 2],
            tenants: std::collections::BTreeMap<u8, u64>,
        }
    }

    #[test]
    fn declared_stats_merge_field_by_field_and_walk_in_declaration_order() {
        let mut a = Probe {
            ops: 2,
            ..Probe::default()
        };
        a.hits.add(3);
        a.lat.record(10);
        a.tail.record(100);
        a.lanes[0].incr();
        a.tenants.insert(1, 5);
        let mut b = a.clone();
        b.lat.record(30);
        b.tail.record(300);
        b.lanes[1].add(7);
        b.tenants.insert(2, 1);
        a.merge(&b);
        assert_eq!((a.ops, a.hits.get()), (4, 6));
        assert_eq!((a.lat.count(), a.lat.sum(), a.lat.max()), (3, 50, Some(30)));
        assert_eq!(a.tail.stats().count(), 3);
        assert_eq!(a.lanes.map(|c| c.get()), [2, 7]);
        assert_eq!(a.tenants, [(1, 10), (2, 1)].into());
        let mut seen = Vec::new();
        Stat::walk(&a, "p", &mut |n, v| seen.push(format!("{n}={v}")));
        let want = [
            "p.ops=4",
            "p.hits=6",
            "p.lat.count=3",
            "p.lat.sum=50",
            "p.lat.min=10",
            "p.lat.max=30",
            "p.tail.count=3",
            "p.tail.sum=500",
            "p.tail.min=100",
            "p.tail.max=300",
            "p.tail.p50=100",
            "p.tail.p99=300",
            "p.lanes.0=2",
            "p.lanes.1=7",
            "p.tenants.1=10",
            "p.tenants.2=1",
        ];
        assert_eq!(seen, want);
    }

    #[test]
    fn running_mean_tracks_extremes() {
        let mut m = RunningMean::new();
        assert_eq!(m.mean(), 0.0);
        for s in [5, 1, 9] {
            m.record(s);
        }
        assert_eq!(m.count(), 3);
        assert_eq!(m.mean(), 5.0);
        assert_eq!(m.min(), Some(1));
        assert_eq!(m.max(), Some(9));
    }

    #[test]
    fn running_mean_merges() {
        let mut a = RunningMean::new();
        a.record(10);
        let mut b = RunningMean::new();
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 20.0);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(30));
    }

    #[test]
    fn histogram_merge_combines_distributions() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=50u64 {
            a.record(v);
        }
        for v in 51..=100u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.stats().count(), 100);
        assert_eq!(a.percentile(0.5), 50);
        assert_eq!(a.percentile(1.0), 100);
    }

    #[test]
    fn histogram_percentiles_exact_when_small() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(0.5), 50);
        assert_eq!(h.percentile(1.0), 100);
        assert_eq!(h.stats().count(), 100);
    }

    #[test]
    fn default_histogram_records_like_new() {
        let (mut d, mut n) = (Histogram::default(), Histogram::new());
        for v in [5, 700, 3, 41, 41, 9_000] {
            d.record(v);
            n.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(d.percentile(q), n.percentile(q), "q {q}");
        }
        assert_eq!((d.buckets, d.exact), (n.buckets, n.exact));
    }

    #[test]
    fn merging_with_a_never_recorded_histogram_keeps_the_recorded_one() {
        let mut recorded = Histogram::new();
        for v in 1..=200u64 {
            recorded.record(v * 3);
        }
        let same = |h: &Histogram| {
            assert_eq!(h.buckets, recorded.buckets);
            assert_eq!(h.exact, recorded.exact);
            let (a, b) = (h.stats(), recorded.stats());
            assert_eq!(
                (a.count(), a.sum(), a.min(), a.max()),
                (b.count(), b.sum(), b.min(), b.max())
            );
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(h.percentile(q), recorded.percentile(q), "q {q}");
            }
        };
        let mut into_empty = Histogram::new();
        into_empty.merge(&recorded);
        same(&into_empty);
        let mut from_empty = recorded.clone();
        from_empty.merge(&Histogram::new());
        same(&from_empty);
        // Two never-recorded histograms merge without allocating buckets.
        let mut empty = Histogram::default();
        empty.merge(&Histogram::new());
        assert!(empty.buckets.is_empty());
        assert_eq!(empty.percentile(0.5), 0);
    }

    #[test]
    fn monitor_requires_consecutive_stability() {
        let mut mon = ConvergenceMonitor::new(100, 0.01, 2);
        assert!(matches!(
            mon.observe(Cycle(100), 10.0),
            Some(WindowStatus::Open { .. })
        ));
        // 50% jump resets stability.
        assert!(matches!(
            mon.observe(Cycle(200), 15.0),
            Some(WindowStatus::Open { .. })
        ));
        assert!(matches!(
            mon.observe(Cycle(300), 15.05),
            Some(WindowStatus::Open { .. })
        ));
        assert!(matches!(
            mon.observe(Cycle(400), 15.1),
            Some(WindowStatus::Converged { .. })
        ));
    }

    #[test]
    fn monitor_silent_inside_window() {
        let mut mon = ConvergenceMonitor::new(1000, 0.01, 1);
        assert_eq!(mon.observe(Cycle(1), 1.0), None);
        assert_eq!(mon.observe(Cycle(999), 1.0), None);
        assert!(mon.observe(Cycle(1000), 1.0).is_some());
    }

    #[test]
    fn paper_default_uses_500k_windows() {
        assert_eq!(ConvergenceMonitor::paper_default().window(), 500_000);
    }
}
