//! # hetgrid-par
//!
//! Data parallelism for the workspace's CPU hot paths (exact-solver
//! arrangement fan-out, metaheuristic restarts, the `report` sweeps,
//! GEMM row panels): [`parallel_map`] on `std::thread::scope`, as wide
//! as [`threads`] says. There is no persistent pool: the workers live
//! for one call, so the items may borrow from the caller's stack, and a
//! map nested inside a worker runs inline instead of multiplying
//! threads.

#![warn(missing_docs)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Set on a [`parallel_map`] worker for its whole (short) life.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// How many workers a [`parallel_map`] called from this thread may use:
/// `HETGRID_THREADS` when set (and >= 1), otherwise
/// [`std::thread::available_parallelism`], read once; always 1 on a
/// worker thread.
pub fn threads() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    if IN_WORKER.get() {
        return 1;
    }
    *WIDTH.get_or_init(|| {
        std::env::var("HETGRID_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Maps every item of `items` through `f` on `threads().min(items)`
/// scoped workers pulling from one shared iterator, preserving order. A
/// panic in `f` is re-raised here once every worker has stopped; the
/// other items still run.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    map_on(threads(), items, f)
}

/// [`parallel_map`] at an explicit width; one worker runs inline on the
/// calling thread.
fn map_on<T, R, F>(width: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let (width, tasks) = (width.min(items.len()), items.len() as u64);
    hetgrid_obs::metrics().counter("par.tasks").add(tasks);
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let (mut done, mut panic) = (Vec::new(), None);
        loop {
            // A `let`, so the guard is released before `f` runs.
            let next = queue.lock().unwrap_or_else(|p| p.into_inner()).next();
            let Some((i, item)) = next else {
                return (done, panic);
            };
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => done.push((i, r)),
                Err(p) => panic = panic.or(Some(p)),
            }
        }
    };
    let worker = || {
        IN_WORKER.set(true);
        work()
    };
    let runs = if width <= 1 {
        vec![work()]
    } else {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..width).map(|_| s.spawn(worker)).collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|p| resume_unwind(p)))
                .collect()
        })
    };
    let mut out = Vec::new();
    for (done, panic) in runs {
        if let Some(p) = panic {
            resume_unwind(p);
        }
        out.extend(done);
    }
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn parallel_map_preserves_order() {
        let out = map_on(4, (0..100).collect(), |x: u64| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn map_over_borrowed_mut_slices() {
        let mut data: Vec<u64> = (0..64).collect();
        let chunks: Vec<&mut [u64]> = data.chunks_mut(7).collect();
        let sums = map_on(3, chunks, |chunk| {
            chunk.iter_mut().for_each(|x| *x *= 2);
            chunk.iter().sum::<u64>()
        });
        assert_eq!(sums.iter().sum::<u64>(), 64 * 63);
        assert_eq!(data, (0..64).map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn nested_maps_run_inline() {
        let out = map_on(3, vec![1u64, 2, 3], |x| {
            assert_eq!(threads(), 1, "a worker must not fan out again");
            parallel_map(vec![x, x + 10], |y| y * 2).iter().sum::<u64>()
        });
        assert_eq!(out, vec![2 + 22, 4 + 24, 6 + 26]);
    }

    #[test]
    fn panic_propagates_after_every_item_ran() {
        for width in [1, 2] {
            let ran = AtomicU64::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                map_on(width, (0..8).collect(), |i: u32| {
                    if i == 3 {
                        panic!("boom");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            }));
            assert!(result.is_err(), "panic must propagate (width {width})");
            assert_eq!(ran.load(Ordering::Relaxed), 7, "other items still ran");
        }
    }

    #[test]
    fn map_counts_its_items_as_par_tasks() {
        let tasks = || hetgrid_obs::metrics().snapshot().counter("par.tasks");
        let before = tasks();
        assert_eq!(map_on(2, (0..64).collect(), |x: u64| x + 1).len(), 64);
        // Other tests map concurrently, so the counter may have moved more.
        assert!(tasks() - before >= 64);
    }

    #[test]
    fn empty_map_is_fine() {
        let out: Vec<u32> = map_on(2, Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
        assert!(threads() >= 1);
    }
}
