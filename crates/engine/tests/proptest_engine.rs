//! Property tests for the simulation kernel: delay-line ordering and
//! statistics against naive references.

use ni_engine::{ConvergenceMonitor, Cycle, DelayLine, RunningMean, WindowStatus};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn delay_line_pops_in_time_then_fifo_order(
        items in prop::collection::vec((0u64..500, 0u32..1000), 1..100),
    ) {
        let mut d = DelayLine::new();
        for (i, &(t, v)) in items.iter().enumerate() {
            d.push_at(Cycle(t), (t, i, v));
        }
        // Expected order: by (ready time, insertion sequence).
        let mut expected: Vec<(u64, usize, u32)> = items
            .iter()
            .enumerate()
            .map(|(i, &(t, v))| (t, i, v))
            .collect();
        expected.sort_by_key(|&(t, i, _)| (t, i));
        let mut got = Vec::new();
        let mut now = 0u64;
        while got.len() < items.len() {
            while let Some(x) = d.pop_ready(Cycle(now)) {
                prop_assert!(x.0 <= now, "popped before ready");
                got.push(x);
            }
            now += 1;
            prop_assert!(now < 2000, "runaway drain loop");
        }
        prop_assert_eq!(got, expected);
        prop_assert!(d.is_empty());
    }

    #[test]
    fn delay_line_never_pops_early(t in 1u64..10_000, delta in 1u64..1000) {
        let mut d = DelayLine::new();
        d.push_at(Cycle(t), ());
        prop_assert_eq!(d.pop_ready(Cycle(t - 1)), None);
        prop_assert_eq!(d.pop_ready(Cycle(t + delta)), Some(()));
    }

    #[test]
    fn running_mean_matches_naive(values in prop::collection::vec(0u64..1_000_000, 1..300)) {
        let mut m = RunningMean::new();
        for &v in &values {
            m.record(v);
        }
        let naive = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((m.mean() - naive).abs() < 1e-6 * naive.max(1.0));
        prop_assert_eq!(m.count(), values.len() as u64);
        prop_assert_eq!(m.min(), values.iter().min().copied());
        prop_assert_eq!(m.max(), values.iter().max().copied());
    }

    #[test]
    fn running_mean_merge_equals_concat(
        a in prop::collection::vec(0u64..1_000_000, 0..100),
        b in prop::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let mut ma = RunningMean::new();
        let mut mb = RunningMean::new();
        let mut all = RunningMean::new();
        for &v in &a {
            ma.record(v);
            all.record(v);
        }
        for &v in &b {
            mb.record(v);
            all.record(v);
        }
        ma.merge(&mb);
        prop_assert_eq!(ma.count(), all.count());
        if all.count() > 0 {
            prop_assert!((ma.mean() - all.mean()).abs() < 1e-9 * all.mean().max(1.0));
            prop_assert_eq!(ma.min(), all.min());
            prop_assert_eq!(ma.max(), all.max());
        }
    }

    #[test]
    fn convergence_monitor_accepts_flat_series(level in 1.0f64..1e6) {
        let mut m = ConvergenceMonitor::new(100, 0.01, 2);
        let mut converged_at = None;
        for w in 1..10u64 {
            if let Some(WindowStatus::Converged { .. }) = m.observe(Cycle(w * 100), level) {
                converged_at = Some(w);
                break;
            }
        }
        // A perfectly flat series converges as soon as the window quorum
        // allows (needs at least 1 + required consecutive deltas).
        prop_assert_eq!(converged_at, Some(3));
    }

    #[test]
    fn convergence_monitor_rejects_oscillation(level in 1.0f64..1e6) {
        let mut m = ConvergenceMonitor::new(100, 0.01, 2);
        for w in 1..20u64 {
            let v = if w % 2 == 0 { level } else { level * 1.5 };
            let s = m.observe(Cycle(w * 100), v);
            prop_assert!(
                !matches!(s, Some(WindowStatus::Converged { .. })),
                "50% oscillation must not satisfy a 1% criterion"
            );
        }
    }
}
