#![warn(missing_docs)]
//! Deterministic std-only parallel executor.
//!
//! A scoped worker pool with a chunked work queue: every [`map`] /
//! [`try_map`] call spawns up to [`threads`] scoped workers that pull
//! fixed-size index chunks from an atomic cursor, compute results into
//! per-chunk buffers, and merge them **in chunk order**. Because the chunk
//! layout depends only on the input length — never on the worker count or
//! on scheduling — the output is bit-identical for any `QOR_THREADS`
//! setting, including the sequential `QOR_THREADS=1` path, which runs the
//! very same chunk loop inline without spawning.
//!
//! That ordering guarantee is the workspace's determinism contract: dataset
//! labels, DSE Pareto fronts and training losses must not change when the
//! worker count does (see the `parallel_matches_sequential` differential
//! test at the workspace root).
//!
//! Worker count resolution, in priority order:
//!
//! 1. a process-wide override installed with [`set_threads`] (used by tests
//!    and benchmarks to compare thread counts inside one process),
//! 2. the `QOR_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Each labeled parallel region records two `obs` gauges:
//! `par/<label>/workers` (spawned workers) and `par/<label>/utilization`
//! (aggregate busy time over `workers x wall-clock`, in `0..=1`).
//!
//! # Example
//!
//! ```
//! let squares = par::map("example", &[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Process-wide worker-count override; 0 means "no override".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Work-queue chunks handed to each worker per queue pop. Chunk geometry is
/// part of the determinism contract only through *result ordering*; the
/// constant merely balances scheduling granularity against queue traffic.
const CHUNKS_PER_WORKER: usize = 4;

/// Installs (or clears) a process-wide worker-count override.
///
/// `Some(1)` forces the exact sequential path; `None` restores the
/// `QOR_THREADS` / `available_parallelism` resolution. Intended for tests
/// and benchmarks that compare thread counts within one process without
/// racing on environment variables.
pub fn set_threads(n: Option<usize>) {
    OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// Resolved worker count: override, then `QOR_THREADS`, then
/// [`std::thread::available_parallelism`] (minimum 1).
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("QOR_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Chunk length for `n` items on `workers` workers (never zero).
fn chunk_len(n: usize, workers: usize) -> usize {
    n.div_ceil(workers.max(1) * CHUNKS_PER_WORKER).max(1)
}

/// Applies `f` to every item, returning results in input order.
///
/// `f` receives `(index, &item)` and must be a pure function of them for
/// the determinism contract to hold. With one worker (or one item) the
/// chunk loop runs inline on the caller thread — no threads are spawned.
///
/// # Panics
///
/// A panic inside `f` on any worker is propagated to the caller after all
/// workers have stopped (the scoped pool never detaches a worker).
pub fn map<T, R, F>(label: &str, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads().min(n.max(1));
    if workers <= 1 {
        // exact sequential path: same chunk traversal, caller thread only
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let sp = obs::span("par_map");
    sp.attr("label", label);
    sp.attr("items", n);
    sp.attr("workers", workers);

    let chunk = chunk_len(n, workers);
    let cursor = AtomicUsize::new(0);
    let busy_ns = AtomicU64::new(0);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());

    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let begin = Instant::now();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        let mut out = Vec::with_capacity(end - start);
                        for (i, item) in items[start..end].iter().enumerate() {
                            out.push(f(start + i, item));
                        }
                        done.lock().unwrap().push((start, out));
                    }
                    busy_ns.fetch_add(begin.elapsed().as_nanos() as u64, Ordering::Relaxed);
                })
            })
            .collect();
        // Join every worker explicitly: `scope` alone returns once the
        // closures finish, which can be before the OS threads have exited.
        // A thread hands its malloc arena back only on exit, so without the
        // join the next call's workers may find no free arena and create
        // fresh ones, and the peak RSS of a long run of calls (one training
        // fit spawns workers per mini-batch) then depends on scheduling.
        let mut panic = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });
    let wall_ns = t0.elapsed().as_nanos().max(1) as u64;

    obs::metrics::gauge_set(&format!("par/{label}/workers"), workers as f64);
    obs::metrics::gauge_set(
        &format!("par/{label}/utilization"),
        busy_ns.load(Ordering::Relaxed) as f64 / (wall_ns as f64 * workers as f64),
    );

    // ordered merge: chunk start offsets induce the original item order
    let mut chunks = done.into_inner().unwrap();
    chunks.sort_unstable_by_key(|(start, _)| *start);
    let mut merged = Vec::with_capacity(n);
    for (_, part) in chunks {
        merged.extend(part);
    }
    merged
}

/// Fallible [`map`]: applies `f` to every item and returns either all
/// results in input order or the error of the **lowest-indexed** failing
/// item (temporal completion order never leaks into the outcome).
///
/// # Errors
///
/// Returns the error produced for the smallest input index that failed.
pub fn try_map<T, R, E, F>(label: &str, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for r in map(label, items, f) {
        out.push(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that install a thread-count override.
    static LOCK: Mutex<()> = Mutex::new(());

    /// Takes [`LOCK`] even when a test panicked while holding it (the
    /// panic-propagation test does so on purpose), so that test's poison
    /// never fails another test.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = lock();
        set_threads(Some(n));
        let out = f();
        set_threads(None);
        out
    }

    #[test]
    fn map_preserves_input_order() {
        for workers in [1usize, 2, 4, 7] {
            let items: Vec<usize> = (0..257).collect();
            let got = with_threads(workers, || map("test_order", &items, |i, &x| (i, x * 3)));
            let want: Vec<(usize, usize)> = items.iter().map(|&x| (x, x * 3)).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(map("test_empty", &empty, |_, &x| x).is_empty());
        assert_eq!(map("test_single", &[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        // float summation inside each item is identical regardless of the
        // worker count because chunk geometry ignores it
        let items: Vec<f64> = (0..100).map(|i| 0.1 * i as f64).collect();
        let seq = with_threads(1, || {
            map("test_bits", &items, |i, &x| (x * 1.7 + i as f64).to_bits())
        });
        let par = with_threads(4, || {
            map("test_bits", &items, |i, &x| (x * 1.7 + i as f64).to_bits())
        });
        assert_eq!(seq, par);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            with_threads(3, || {
                map("test_panic", &[1u32, 2, 3, 4, 5, 6, 7, 8], |_, &x| {
                    assert!(x != 5, "worker dies on item 5");
                    x
                })
            })
        });
        assert!(
            result.is_err(),
            "panic inside a worker must reach the caller"
        );
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        for workers in [1usize, 4] {
            let items: Vec<u32> = (0..64).collect();
            let got: Result<Vec<u32>, u32> = with_threads(workers, || {
                try_map(
                    "test_err",
                    &items,
                    |_, &x| {
                        if x % 10 == 7 {
                            Err(x)
                        } else {
                            Ok(x)
                        }
                    },
                )
            });
            assert_eq!(got, Err(7), "workers={workers}");
        }
    }

    #[test]
    fn override_beats_env() {
        let _guard = lock();
        set_threads(Some(3));
        assert_eq!(threads(), 3);
        set_threads(None);
        assert!(threads() >= 1);
    }

    #[test]
    fn chunk_len_never_zero() {
        assert_eq!(chunk_len(0, 4), 1);
        assert_eq!(chunk_len(1, 1), 1);
        assert!(chunk_len(1000, 4) >= 1);
    }
}
