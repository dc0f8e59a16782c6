//! Scoped worker threads with per-worker panic isolation, used by the
//! `rap-dse` sweep driver to evaluate independent design candidates.
//!
//! [`run_workers`] spawns `threads` scoped worker threads and collects
//! their results *in worker order*, so the caller sees a deterministic
//! result layout regardless of the schedule. One thread runs inline (no
//! spawn), which keeps single-threaded runs on the exact same code path
//! and makes them trivially deterministic. A panicking worker poisons only
//! its own result slot.
//!
//! The pool deliberately stays dependency-free and dumb: it hands out no
//! tasks. The DSE driver deals one frozen batch per sweep from a shared
//! atomic cursor that its workers advance themselves.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// Runs `worker(0..threads)` on scoped threads and returns the results in
/// worker order. With `threads <= 1` the single worker runs inline on the
/// calling thread — same code path, no spawn.
///
/// **Panic isolation:** a panicking worker poisons only its own slot —
/// its entry is [`PoolError::WorkerPanicked`] (carrying the payload
/// message) while the remaining workers run to completion and deliver
/// their results. When the workers draw their tasks from one shared
/// cursor, the survivors drain the tasks the dead worker never took, so a
/// single panicking *task* costs its own result, not the batch. Callers
/// for whom a worker death is unrecoverable escalate the `Err` themselves.
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
    fn run_workers_results_are_in_worker_order() {
        let r = run_workers(4, |me| me * 10);
        assert_eq!(r, vec![Ok(0), Ok(10), Ok(20), Ok(30)]);
    }

    #[test]
    fn panicking_worker_poisons_only_its_own_slot() {
        // worker 2 panics immediately; the others must drain the shared
        // cursor and deliver their results (worker 2's in-hand task, if
        // any, dies with it; here it panics before taking one, so all 40
        // tasks survive)
        let next = AtomicUsize::new(0);
        let results = run_workers(4, |me| {
            if me == 2 {
                panic!("injected evaluation panic");
            }
            let mut n = 0usize;
            while next.fetch_add(1, Ordering::Relaxed) < 40 {
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
