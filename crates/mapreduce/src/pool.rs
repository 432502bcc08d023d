//! A bounded worker pool for running numbered tasks.
//!
//! Models the task-slot scheduling of a Hadoop NodeManager: a fixed number
//! of worker threads pull task indices from a shared queue until all tasks
//! of a phase are done. Panics inside a task are captured and surfaced as
//! errors instead of tearing down the process (a crashed task fails the
//! job, it does not hang it).

use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A description of a task failure (captured panic payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the failed task within its phase.
    pub task_index: usize,
    /// Human-readable panic message.
    pub message: String,
}

/// Runs `num_tasks` closures on at most `workers` threads, the calling
/// thread being one of them: it spawns `workers - 1` scoped threads (none
/// for `workers == 1`) and claims tasks alongside them.
///
/// Results are returned in task-index order regardless of which worker ran
/// which task or in what order tasks completed — this is what makes jobs
/// deterministic under any worker count. The first captured panic is
/// reported; remaining queued tasks still run (mirroring Hadoop, where one
/// failed task does not cancel already-queued attempts of others).
pub fn run_tasks<T, F>(workers: usize, num_tasks: usize, f: F) -> Result<Vec<T>, TaskPanic>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(workers > 0, "worker pool needs at least one worker");
    let mut slots: Vec<Option<Result<T, TaskPanic>>> = Vec::with_capacity(num_tasks);
    slots.resize_with(num_tasks, || None);
    let results = Mutex::new(slots);
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= num_tasks {
            break;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "task panicked with non-string payload".to_owned());
            TaskPanic {
                task_index: i,
                message,
            }
        });
        results.lock()[i] = Some(outcome);
    };

    let worker_count = workers.min(num_tasks.max(1));
    std::thread::scope(|scope| {
        for _ in 1..worker_count {
            scope.spawn(work);
        }
        work();
    });

    results
        .into_inner()
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                Err(TaskPanic {
                    task_index: i,
                    message: "task never reported a result".to_owned(),
                })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::time::{Duration, Instant};

    #[test]
    fn results_in_task_order() {
        let got = run_tasks(4, 100, |i| i * 2).unwrap();
        assert_eq!(got, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_many_workers() {
        let a = run_tasks(1, 37, |i| i * i).unwrap();
        let b = run_tasks(16, 37, |i| i * i).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_tasks_is_fine() {
        let got: Vec<u8> = run_tasks(4, 0, |_| 0u8).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits = AtomicU64::new(0);
        run_tasks(8, 1000, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn panic_is_captured_with_index_and_message() {
        let err = run_tasks(4, 10, |i| {
            if i == 7 {
                panic!("boom at {i}");
            }
            i
        })
        .unwrap_err();
        assert_eq!(err.task_index, 7);
        assert!(err.message.contains("boom"), "got: {}", err.message);
    }

    #[test]
    fn static_str_panics_are_captured() {
        let err = run_tasks(2, 3, |i| {
            if i == 1 {
                panic!("static boom");
            }
            i
        })
        .unwrap_err();
        assert_eq!(err.message, "static boom");
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        let _ = run_tasks(0, 1, |i| i);
    }

    #[test]
    fn one_worker_runs_every_task_on_the_caller() {
        let caller = std::thread::current().id();
        let threads = run_tasks(1, 16, |_| std::thread::current().id()).unwrap();
        assert!(threads.iter().all(|&t| t == caller));
    }

    /// Runs `f` on the workers of a `workers`-wide pool, holding each
    /// spawned worker inside its first task until the caller has claimed
    /// one, so the caller cannot find the queue already drained.
    fn with_caller_claiming<T: Send>(
        workers: usize,
        num_tasks: usize,
        f: impl Fn(usize, bool) -> T + Sync,
    ) -> Result<Vec<T>, TaskPanic> {
        let caller = std::thread::current().id();
        let caller_claimed = AtomicBool::new(false);
        let deadline = Instant::now() + Duration::from_secs(10);
        run_tasks(workers, num_tasks, |i| {
            let on_caller = std::thread::current().id() == caller;
            if on_caller {
                caller_claimed.store(true, Ordering::SeqCst);
            } else {
                while !caller_claimed.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            f(i, on_caller)
        })
    }

    #[test]
    fn the_caller_is_one_of_n_workers() {
        let caller = std::thread::current().id();
        for workers in [2, 3, 4] {
            let got =
                with_caller_claiming(workers, 32, |i, _| (i, std::thread::current().id())).unwrap();
            assert!(got.iter().enumerate().all(|(i, &(task, _))| task == i));
            let threads: HashSet<_> = got.iter().map(|&(_, t)| t).collect();
            assert!(threads.len() <= workers, "workers={workers}");
            assert!(threads.contains(&caller), "workers={workers}");
        }
    }

    #[test]
    fn panic_on_the_caller_is_captured_with_its_index() {
        let caller = std::thread::current().id();
        let err = run_tasks(1, 5, |i| {
            assert_eq!(std::thread::current().id(), caller);
            if i == 3 {
                panic!("caller boom");
            }
            i
        })
        .unwrap_err();
        assert_eq!((err.task_index, err.message.as_str()), (3, "caller boom"));

        let panicked = Mutex::new(None);
        let err = with_caller_claiming(2, 8, |i, on_caller| {
            let mut first = panicked.lock();
            if on_caller && first.is_none() {
                *first = Some(i);
                drop(first);
                panic!("caller boom at {i}");
            }
            i
        })
        .unwrap_err();
        assert_eq!(Some(err.task_index), *panicked.lock());
        assert!(
            err.message.starts_with("caller boom"),
            "got: {}",
            err.message
        );
    }

    #[test]
    fn more_workers_than_tasks() {
        let got = run_tasks(64, 3, |i| i + 1).unwrap();
        assert_eq!(got, vec![1, 2, 3]);
    }
}
