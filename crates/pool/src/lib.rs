//! Minimal work-stealing task pool, used by the `rap-dse` sweep driver to
//! evaluate independent design candidates on its workers:
//!
//! * **Per-worker deques** ([`StealQueues`]) — tasks are dealt round-robin
//!   into one `Mutex<VecDeque>` per worker; a worker pops its *own* deque
//!   from the front and, when that runs dry, steals from the *back* of the
//!   others. There is no global queue lock on the hot path, and stragglers
//!   (big tasks dealt early) end up shared across workers.
//! * **Scoped workers** ([`run_workers`]) — spawns `threads` scoped worker
//!   threads and collects their results *in worker order*, so the caller
//!   sees a deterministic result layout regardless of the schedule. One
//!   thread runs inline (no spawn), which keeps single-threaded runs on the
//!   exact same code path and makes them trivially deterministic.
//!
//! The pool deliberately stays dependency-free and dumb: no task priorities,
//! no blocking park/unpark (workers exit when every deque is empty), no
//! dynamic task injection after [`StealQueues::deal`]. The DSE driver deals
//! one frozen batch of tasks per sweep, and that shape keeps the
//! correctness argument (and its tests) small.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// A worker failure surfaced by [`run_workers`].
///
/// Panic payloads don't implement `Send + Debug` in general, so the
/// payload is flattened to its message (`&str` / `String` payloads — the
/// ones `panic!` produces; anything else becomes a placeholder). The
/// worker index pins *which* result slot was poisoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The worker panicked; its result slot carries this error while every
    /// other worker's slot holds its normal result — a panic poisons one
    /// slot, never the batch.
    WorkerPanicked {
        /// Index of the worker that panicked.
        worker: usize,
        /// The panic payload's message.
        message: String,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::WorkerPanicked { worker, message } => {
                write!(f, "pool worker {worker} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Extracts the human-readable message of a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-worker work-stealing deques over tasks of type `T`.
///
/// All methods take `&self`; the queues are safe to share across the scoped
/// workers of [`run_workers`].
#[derive(Debug)]
pub struct StealQueues<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
}

impl<T> StealQueues<T> {
    /// Creates empty deques for `workers` workers (at least one).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        StealQueues {
            shards: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
        }
    }

    /// Number of worker deques.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Deals `tasks` round-robin across the worker deques, in order: task
    /// `i` lands at the back of deque `i % workers`.
    pub fn deal(&self, tasks: impl IntoIterator<Item = T>) {
        for (task, shard) in tasks.into_iter().zip((0..self.shards.len()).cycle()) {
            self.shards[shard]
                .lock()
                .expect("pool shard")
                .push_back(task);
        }
    }

    /// Pushes a single task onto the back of `worker`'s own deque.
    pub fn push(&self, worker: usize, task: T) {
        self.shards[worker]
            .lock()
            .expect("pool shard")
            .push_back(task);
    }

    /// The next task for worker `me`: its own deque front, else a steal from
    /// the back of another worker's deque, else `None` (all deques empty).
    ///
    /// `None` is a termination signal only under the frozen-batch discipline
    /// (no tasks pushed after dealing); with dynamic pushes a worker could
    /// observe a transient empty state.
    pub fn next(&self, me: usize) -> Option<T> {
        if let Some(t) = self.shards[me].lock().expect("pool shard").pop_front() {
            return Some(t);
        }
        let n = self.shards.len();
        for off in 1..n {
            if let Some(t) = self.shards[(me + off) % n]
                .lock()
                .expect("pool shard")
                .pop_back()
            {
                return Some(t);
            }
        }
        None
    }
}

/// Runs `worker(0..threads)` on scoped threads and returns the results in
/// worker order. With `threads <= 1` the single worker runs inline on the
/// calling thread — same code path, no spawn.
///
/// **Panic isolation:** a panicking worker poisons only its own slot —
/// its entry is [`PoolError::WorkerPanicked`] (carrying the payload
/// message) while the remaining workers run to completion and deliver
/// their results. Under the work-stealing discipline the dead worker's
/// undrained tasks are stolen by the survivors, so a single panicking
/// *task* costs its own result, not the batch. Callers for whom a worker
/// death is unrecoverable escalate the `Err` themselves.
pub fn run_workers<R, F>(threads: usize, worker: F) -> Vec<Result<R, PoolError>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let capture = |me: usize| {
        catch_unwind(AssertUnwindSafe(|| worker(me))).map_err(|payload| PoolError::WorkerPanicked {
            worker: me,
            message: panic_message(payload),
        })
    };
    if threads <= 1 {
        return vec![capture(0)];
    }
    let mut out = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|me| {
                let capture = &capture;
                scope.spawn(move || capture(me))
            })
            .collect();
        for (me, h) in handles.into_iter().enumerate() {
            // the closure already caught the panic; join() can only fail
            // for a panic *outside* catch_unwind (e.g. in drop glue) —
            // still isolated to this worker's slot
            out.push(h.join().unwrap_or_else(|payload| {
                Err(PoolError::WorkerPanicked {
                    worker: me,
                    message: panic_message(payload),
                })
            }));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn deal_and_drain_covers_every_task_once() {
        for workers in [1usize, 2, 5] {
            let q = StealQueues::new(workers);
            q.deal(0..100usize);
            let seen = AtomicUsize::new(0);
            let counts = run_workers(workers, |me| {
                let mut n = 0usize;
                while let Some(_t) = q.next(me) {
                    n += 1;
                    seen.fetch_add(1, Ordering::Relaxed);
                }
                n
            });
            assert_eq!(seen.load(Ordering::Relaxed), 100);
            let total: usize = counts.iter().map(|c| c.as_ref().unwrap()).sum();
            assert_eq!(total, 100);
        }
    }

    #[test]
    fn single_worker_preserves_deal_order() {
        let q = StealQueues::new(1);
        q.deal(0..10usize);
        let mut got = Vec::new();
        while let Some(t) = q.next(0) {
            got.push(t);
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn stealing_reaches_tasks_of_idle_deques() {
        // deal everything to worker 0's deque, drain from worker 1 only
        let q = StealQueues::new(3);
        for i in 0..7 {
            q.push(0, i);
        }
        let mut got = Vec::new();
        while let Some(t) = q.next(1) {
            got.push(t);
        }
        got.sort_unstable();
        assert_eq!(got, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn run_workers_results_are_in_worker_order() {
        let r = run_workers(4, |me| me * 10);
        assert_eq!(r, vec![Ok(0), Ok(10), Ok(20), Ok(30)]);
    }

    #[test]
    fn panicking_worker_poisons_only_its_own_slot() {
        // worker 2 panics immediately; the others must drain its tasks and
        // deliver their results — N−1 tasks processed in total (worker 2's
        // in-hand task, if any, dies with it; here it panics before taking
        // one, so all 40 tasks survive)
        let q = StealQueues::new(4);
        q.deal(0..40usize);
        let results = run_workers(4, |me| {
            if me == 2 {
                panic!("injected evaluation panic");
            }
            let mut n = 0usize;
            while let Some(_t) = q.next(me) {
                n += 1;
            }
            n
        });
        assert_eq!(results.len(), 4);
        match &results[2] {
            Err(PoolError::WorkerPanicked { worker, message }) => {
                assert_eq!(*worker, 2);
                assert_eq!(message, "injected evaluation panic");
            }
            other => panic!("expected WorkerPanicked in slot 2, got {other:?}"),
        }
        let survivors: usize = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .copied()
            .sum();
        assert_eq!(survivors, 40, "survivors drained every task");
        assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 3);
    }

    #[test]
    fn inline_single_worker_panic_is_captured_too() {
        let results = run_workers(1, |_| -> usize { panic!("inline panic") });
        assert_eq!(
            results,
            vec![Err(PoolError::WorkerPanicked {
                worker: 0,
                message: "inline panic".to_string(),
            })]
        );
    }

    #[test]
    fn string_panic_payloads_are_preserved() {
        let results = run_workers(2, |me| {
            if me == 1 {
                panic!("formatted {}", 42);
            }
            me
        });
        assert_eq!(results[0], Ok(0));
        assert_eq!(
            results[1],
            Err(PoolError::WorkerPanicked {
                worker: 1,
                message: "formatted 42".to_string(),
            })
        );
    }
}
