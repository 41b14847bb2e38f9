//! Bounded parallel execution of independent simulations.
//!
//! Experiment sweeps run many *independent* chip simulations (one per design
//! point, transfer size, or routing policy), and the multi-node rack driver
//! builds hundreds of independent chips at once. Each unit of work is
//! single-threaded and deterministic; these helpers farm the units out
//! across the host's cores with plain scoped threads, so no concurrency
//! crate is needed and per-item results are bit-identical to a sequential
//! run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker-thread count: the `RACKNI_THREADS` environment variable
/// when set to a positive integer, else
/// [`std::thread::available_parallelism`].
///
/// # Panics
/// Panics when `RACKNI_THREADS` is set to anything but an integer.
pub fn default_threads() -> usize {
    let value = std::env::var_os("RACKNI_THREADS").map(|v| v.to_string_lossy().into_owned());
    match parse_threads(value.as_deref()) {
        0 => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        n => n,
    }
}

/// The worker count a `RACKNI_THREADS` value asks for; unset and `0` both
/// mean the host's parallelism and read as 0.
fn parse_threads(value: Option<&str>) -> usize {
    value.map_or(0, |v| {
        v.trim()
            .parse()
            .unwrap_or_else(|_| panic!("RACKNI_THREADS={v:?}: expected a worker count"))
    })
}

/// Map `f` over `items` using up to [`default_threads`] worker threads,
/// preserving order.
///
/// Results are identical to `items.into_iter().map(f).collect()`; only
/// wall-clock time changes. Used by every multi-point experiment sweep.
///
/// # Panics
/// Propagates the first panic raised inside `f`.
///
/// ```
/// let doubled = ni_engine::parallel::par_map(vec![1, 2, 3], |x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = default_threads();
    par_map_threads(items, workers, f)
}

/// As [`par_map`] with an explicit worker-thread cap (`threads == 1` runs
/// inline on the calling thread). Determinism knob for the rack driver's
/// serial-vs-parallel equivalence tests.
///
/// # Panics
/// Propagates the first panic raised inside `f`.
pub fn par_map_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        // Mirror the threaded path's panic surface so callers observe the
        // same failure regardless of host parallelism.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            items.into_iter().map(&f).collect::<Vec<R>>()
        }));
        return out.unwrap_or_else(|_| panic!("a scoped thread panicked"));
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("no poisoned slot")
                    .take()
                    .expect("each index claimed once");
                let r = f(item);
                *results[i].lock().expect("no poisoned result") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no poisoned result")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map((0..100).collect::<Vec<u32>>(), |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<u32>>());
    }

    #[test]
    fn explicit_thread_counts_agree_with_inline() {
        let items: Vec<u32> = (0..37).collect();
        let inline = par_map_threads(items.clone(), 1, |x| x.wrapping_mul(31) ^ 5);
        for threads in [2, 4, 16] {
            let out = par_map_threads(items.clone(), threads, |x| x.wrapping_mul(31) ^ 5);
            assert_eq!(out, inline, "{threads} threads diverged from inline");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = par_map(Vec::<u8>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(par_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn rackni_threads_reads_unset_and_zero_as_the_host_and_integers_as_counts() {
        assert_eq!(parse_threads(None), 0);
        assert_eq!(parse_threads(Some("0")), 0);
        assert_eq!(parse_threads(Some("3")), 3);
        assert_eq!(parse_threads(Some(" 12 ")), 12);
    }

    #[test]
    #[should_panic(expected = "RACKNI_THREADS=\"four\"")]
    fn rackni_threads_rejects_a_non_integer() {
        parse_threads(Some("four"));
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panic_propagates() {
        let _ = par_map(vec![1, 2, 3, 4], |x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }
}
