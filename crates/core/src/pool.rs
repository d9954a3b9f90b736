//! A fixed-size fan-out worker pool for query execution.
//!
//! [`run_on_pool`] runs `n` independent tasks on at most `threads` OS
//! threads and returns the results in task order. It is the execution
//! primitive behind [`crate::TransectIndex::query_all`]: scoped threads
//! pull task indices from a shared atomic dispenser (the same
//! bounded-worker shape as the HTTP server's accept queue), so an uneven
//! workload — one slow sensor among many — keeps every thread busy
//! instead of stalling a static partition.
//!
//! Tasks must be independent: the pool provides no ordering between
//! them, only that every task runs exactly once and results come back
//! indexed. Determinism is therefore the caller's property — a task's
//! output may not depend on thread count or schedule — and the
//! integration tests assert exactly that across `--threads 1` and
//! `--threads 8`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker threads the hardware can actually run at once. Spawning more
/// than this buys no parallelism and costs a thread spawn per worker,
/// so [`run_on_pool`] caps its pool here: on a single-core host the
/// fan-out degrades to the plain sequential loop (same results — task
/// outputs never depend on schedule) instead of paying for threads that
/// would only time-slice.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs tasks `0..n` through `f` on a pool of at most `threads` scoped
/// worker threads (further capped at [`hardware_threads`]); returns the
/// outputs in task-index order.
///
/// An effective pool of one thread (or `n <= 1`) runs inline on the
/// caller's thread with no pool at all, so single-threaded execution is
/// exactly the plain sequential loop. A panicking task propagates to
/// the caller once the scope joins, like the sequential loop would.
pub fn run_on_pool<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_on_pool_uncapped(threads.min(hardware_threads()), n, f)
}

/// [`run_on_pool`] without the hardware cap — the tests call this
/// directly so the threaded path is exercised even on a one-core CI
/// runner, where the public entry point would always run inline.
fn run_on_pool_uncapped<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    obs::global().counter("parallel.jobs").inc();
    obs::global().counter("parallel.tasks").add(n as u64);
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // The caller's trace id follows the fan-out onto the worker threads,
    // so spans recorded inside tasks still carry the request's id.
    let trace_id = obs::current_trace_id().unwrap_or(0);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| {
                let _scope = obs::TraceIdScope::enter(trace_id);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(i);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .filter_map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_keep_task_order() {
        for threads in [1, 2, 8] {
            let out = run_on_pool_uncapped(threads, 100, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(out, want, "threads={threads}");
        }
        // The public entry agrees with the uncapped pool.
        let out = run_on_pool(8, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = AtomicU64::new(0);
        let out = run_on_pool_uncapped(4, 1000, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(ran.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn zero_tasks_and_oversized_pool() {
        let out: Vec<u32> = run_on_pool_uncapped(8, 0, |_| 1);
        assert!(out.is_empty());
        let out = run_on_pool_uncapped(64, 3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
        assert!(hardware_threads() >= 1);
    }

    #[test]
    fn task_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            run_on_pool_uncapped(4, 16, |i| {
                assert!(i != 7, "boom");
                i
            })
        });
        assert!(r.is_err(), "panic in a task must reach the caller");
    }
}
