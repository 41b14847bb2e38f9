//! Per-tenant SLO metrics: the workload-level observables a serving tier
//! is judged by, kept separate from the transport-level counters the NI
//! crates report.
//!
//! The simulator's transport statistics (requests sent, payload bytes,
//! link utilization) describe what the *hardware* did; an operator of a
//! multi-tenant rack asks a different question — what service did each
//! tenant get? This crate holds the aggregation types for that question:
//!
//! * [`TenantAccum`] — a mergeable per-tenant accumulator (issued /
//!   completed / failed counts, goodput bytes, and the full request
//!   latency distribution), filled from per-core statistics grouped by
//!   `Scenario::tenant` tags (an `ni_soc` trait method; the dependency
//!   points the other way) and merged core → chip → rack.
//! * [`SloSummary`] — the derived per-tenant report over a measured
//!   window: offered vs achieved load, goodput, and the p50/p99/p999
//!   latency tail.
//! * [`interference_index`] — the shared-run/solo-run p99 ratio that
//!   quantifies cross-tenant interference on a shared fabric.
//!
//! Determinism contract: this crate is pure aggregation over values the
//! simulation produced — no clocks, no hash-ordered iteration, no entropy.
//! Keyed tenant collections are `BTreeMap` so report ordering is stable.

#![warn(missing_docs)]

use std::collections::BTreeMap;

use ni_engine::Histogram;

ni_engine::stats! {
    /// Mergeable per-tenant accumulator of SLO observables.
    ///
    /// One accumulator aggregates every core a tenant owns; chip- and
    /// rack-level views are built with [`merge`](TenantAccum::merge). All
    /// counts are application-level (operations and payload bytes as the
    /// tenant sees them), not transport-level (block requests, retries).
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct TenantAccum {
        /// Operations issued into the NI (offered load side).
        pub issued: u64,
        /// Operations completed — reaped from a CQ, successful or not.
        pub completed: u64,
        /// Operations that completed with an error status.
        pub failed: u64,
        /// Operations that completed ok but through a recovery path.
        pub degraded: u64,
        /// Payload bytes of successful completions (goodput numerator).
        pub bytes: u64,
        /// End-to-end request latency distribution (read/response ops),
        /// successful first-try completions.
        pub latency: Histogram,
    }
}

impl TenantAccum {
    /// A fresh, empty accumulator.
    pub fn new() -> TenantAccum {
        TenantAccum::default()
    }
}

/// Per-tenant accumulators keyed by tenant tag, in stable tag order.
pub type TenantStats = BTreeMap<u8, TenantAccum>;

/// Merge a chip's (or node's) per-tenant stats into a rack-level map.
pub fn merge_tenant_stats(into: &mut TenantStats, from: &TenantStats) {
    ni_engine::Stat::merge(into, from);
}

/// The derived per-tenant SLO report over a measured window.
///
/// Rates are per *kilocycle* — the natural magnitude for a rack where a
/// core issues an op every few hundred cycles — so a 2 GHz part maps one
/// op/kcycle to two million ops per second.
#[derive(Clone, Copy, Debug)]
pub struct SloSummary {
    /// Operations issued per kilocycle (offered load).
    pub offered_per_kcycle: f64,
    /// Operations completed per kilocycle (achieved load).
    pub achieved_per_kcycle: f64,
    /// Successful payload bytes per kilocycle (goodput).
    pub goodput_bytes_per_kcycle: f64,
    /// Fraction of completions that failed.
    pub failure_rate: f64,
    /// Median request latency, cycles.
    pub p50: u64,
    /// 99th-percentile request latency, cycles.
    pub p99: u64,
    /// 99.9th-percentile request latency, cycles.
    pub p999: u64,
    /// Requests in the latency distribution.
    pub samples: u64,
}

impl SloSummary {
    /// Summarize `accum` over a window of `window_cycles` simulated cycles.
    pub fn over(accum: &TenantAccum, window_cycles: u64) -> SloSummary {
        let kcycles = (window_cycles.max(1) as f64) / 1_000.0;
        SloSummary {
            offered_per_kcycle: accum.issued as f64 / kcycles,
            achieved_per_kcycle: accum.completed as f64 / kcycles,
            goodput_bytes_per_kcycle: accum.bytes as f64 / kcycles,
            failure_rate: if accum.completed == 0 {
                0.0
            } else {
                accum.failed as f64 / accum.completed as f64
            },
            p50: accum.latency.percentile(0.50),
            p99: accum.latency.percentile(0.99),
            p999: accum.latency.percentile(0.999),
            samples: accum.latency.stats().count(),
        }
    }
}

/// The interference index: a tenant's shared-fabric p99 over its solo-run
/// p99. 1.0 means perfect isolation; 2.0 means co-located tenants double
/// the tail. Returns `f64::NAN` when the solo baseline is empty.
pub fn interference_index(shared_p99: u64, solo_p99: u64) -> f64 {
    if solo_p99 == 0 {
        return f64::NAN;
    }
    shared_p99 as f64 / solo_p99 as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accum(lat: &[u64]) -> TenantAccum {
        let mut a = TenantAccum::new();
        for &l in lat {
            a.latency.record(l);
            a.issued += 1;
            a.completed += 1;
            a.bytes += 64;
        }
        a
    }

    #[test]
    fn merge_is_additive_in_counts_and_samples() {
        let mut a = accum(&[100, 200]);
        a.failed = 1;
        let mut b = accum(&[300]);
        b.degraded = 2;
        a.merge(&b);
        assert_eq!(a.issued, 3);
        assert_eq!(a.completed, 3);
        assert_eq!(a.failed, 1);
        assert_eq!(a.degraded, 2);
        assert_eq!(a.bytes, 192);
        assert_eq!(a.latency.stats().count(), 3);
    }

    #[test]
    fn tenant_maps_merge_by_tag() {
        let mut rack = TenantStats::new();
        let mut chip0 = TenantStats::new();
        chip0.insert(1, accum(&[100]));
        chip0.insert(2, accum(&[500, 600]));
        let mut chip1 = TenantStats::new();
        chip1.insert(1, accum(&[150]));
        merge_tenant_stats(&mut rack, &chip0);
        merge_tenant_stats(&mut rack, &chip1);
        assert_eq!(rack.len(), 2);
        assert_eq!(rack[&1].completed, 2);
        assert_eq!(rack[&2].completed, 2);
    }

    #[test]
    fn summary_rates_scale_with_the_window() {
        let a = accum(&[100; 10]);
        let s = SloSummary::over(&a, 5_000);
        assert!((s.offered_per_kcycle - 2.0).abs() < 1e-9);
        assert!((s.achieved_per_kcycle - 2.0).abs() < 1e-9);
        assert!((s.goodput_bytes_per_kcycle - 128.0).abs() < 1e-9);
        assert_eq!(s.samples, 10);
        assert_eq!(s.p50, 100);
    }

    #[test]
    fn percentiles_order_and_failure_rate() {
        let mut a = TenantAccum::new();
        for l in 1..=1000u64 {
            a.latency.record(l);
        }
        a.completed = 1000;
        a.failed = 10;
        let s = SloSummary::over(&a, 1_000);
        assert!(s.p50 <= s.p99 && s.p99 <= s.p999);
        assert!((s.failure_rate - 0.01).abs() < 1e-9);
    }

    #[test]
    fn interference_index_ratios_and_guards() {
        assert!((interference_index(200, 100) - 2.0).abs() < 1e-9);
        assert!((interference_index(100, 100) - 1.0).abs() < 1e-9);
        assert!(interference_index(100, 0).is_nan());
    }
}
