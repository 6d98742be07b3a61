//! A fixed-size, dependency-free worker pool.
//!
//! The registry is unreachable in this workspace, so there is no rayon;
//! this module provides the one parallel shape the plan builder and the
//! rank runtime's workers need on top of
//! `std::thread::scope` alone: [`WorkerPool::map`] — bounded data
//! parallelism: `items` independent jobs pulled off an atomic index by at
//! most [`threads`](WorkerPool::threads) scoped workers, results returned
//! **in index order** regardless of completion order. This is what the
//! per-half matchmaking scoring and the per-rank descriptor lowering run
//! on, and the index-ordered merge is what keeps parallel-built plans
//! byte-identical to serial ones.
//!
//! A pool of one thread ([`WorkerPool::serial`]) runs every job inline
//! on the caller's thread — the degenerate case the byte-identity
//! property tests compare against.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A fixed-size worker pool (see module docs). Cheap to copy: the pool
/// holds no threads between calls — workers are scoped to each `map`
/// invocation, so borrowed job data needs no `'static` bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::serial()
    }
}

impl WorkerPool {
    /// A pool of `threads` workers; 0 is clamped to 1.
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// The single-threaded pool: every job runs inline on the caller.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// A pool sized to the host's available parallelism (1 if the host
    /// does not report it).
    pub fn auto() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0..items)` with bounded parallelism and returns the
    /// results in index order. With one thread (or at most one item) the
    /// jobs run inline, in order, on the caller's thread.
    ///
    /// # Panics
    /// Propagates a panic from any job.
    pub fn map<T: Send>(&self, items: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        if self.threads == 1 || items <= 1 {
            return (0..items).map(f).collect();
        }
        let workers = self.threads.min(items);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    let next = &next;
                    let f = &f;
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items || tx.send((i, f(i))).is_err() {
                            break;
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(items).collect();
            for (i, v) in rx {
                out[i] = Some(v);
            }
            // Re-raise a worker's own panic payload (a bare scope exit
            // would replace it with "a scoped thread panicked").
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            // INVARIANT: with no panic, the counter handed out every index
            // once and its worker sent it (`rx` outlives every sender)
            out.into_iter().flatten().collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_index_order() {
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let out = pool.map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn map_handles_edge_sizes() {
        let pool = WorkerPool::new(4);
        assert!(pool.map(0, |i| i).is_empty());
        assert_eq!(pool.map(1, |i| i + 7), vec![7]);
        // fewer items than workers
        assert_eq!(pool.map(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_jobs_can_borrow_caller_data() {
        let data: Vec<usize> = (0..64).collect();
        let pool = WorkerPool::new(4);
        let out = pool.map(data.len(), |i| data[i] * 2);
        assert_eq!(out[63], 126);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn map_propagates_worker_panics() {
        let pool = WorkerPool::new(2);
        let _ = pool.map(8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn auto_pool_has_at_least_one_thread() {
        assert!(WorkerPool::auto().threads() >= 1);
        assert_eq!(WorkerPool::default(), WorkerPool::serial());
    }
}
