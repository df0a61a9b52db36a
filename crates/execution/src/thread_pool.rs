//! The persistent worker pool every parallel engine runs on.
//!
//! Spawning threads per block would put thread start-up into every per-block wall
//! measurement. [`WorkerPool`] keeps the workers alive across blocks: jobs are
//! `'static` closures pushed over a channel, and [`WorkerPool::run_tasks`] runs
//! one job of each batch on the calling thread and blocks until the rest
//! drains.

use blockconc_types::{Error, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// A unit of work submitted to a [`WorkerPool`].
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counts outstanding jobs of one `run_tasks` batch; `wait` blocks until all are done.
#[derive(Clone)]
struct WaitGroup {
    inner: Arc<(Mutex<usize>, Condvar)>,
}

impl WaitGroup {
    fn new(count: usize) -> Self {
        WaitGroup {
            inner: Arc::new((Mutex::new(count), Condvar::new())),
        }
    }

    fn done(&self) {
        let (lock, cvar) = &*self.inner;
        let mut remaining = lock.lock().expect("wait-group lock");
        *remaining -= 1;
        if *remaining == 0 {
            cvar.notify_all();
        }
    }

    fn wait(&self) {
        let (lock, cvar) = &*self.inner;
        let mut remaining = lock.lock().expect("wait-group lock");
        while *remaining > 0 {
            remaining = cvar.wait(remaining).expect("wait-group condvar");
        }
    }
}

/// A persistent pool of worker threads.
///
/// A pool of `n` participants is the calling thread plus `n − 1` spawned
/// workers: [`run_tasks`](WorkerPool::run_tasks) runs one job of each batch on
/// the caller instead of parking it until the batch drains, so a batch of one
/// job wakes no thread at all. Workers are spawned once (at engine
/// construction) and reused for every block, so the measured execution wall
/// time contains no thread-startup cost. Jobs are
/// `'static` closures: callers that need to share non-`'static` data (like the
/// engine's `WorldState`) temporarily move it into an [`Arc`] and recover it with
/// [`Arc::try_unwrap`] after [`WorkerPool::run_tasks`] returns, which is
/// guaranteed to succeed because every job (and the data it captured) has been
/// consumed by then. The engines do this in one place, `lend_state` in `occ.rs`.
///
/// Dropping the pool closes the job channel and joins all workers.
///
/// # Examples
///
/// ```
/// use blockconc_execution::WorkerPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let pool = WorkerPool::new(4);
/// let sum = Arc::new(AtomicU64::new(0));
/// let tasks = (1..=10u64)
///     .map(|i| {
///         let sum = Arc::clone(&sum);
///         Box::new(move || {
///             sum.fetch_add(i, Ordering::Relaxed);
///         }) as Box<dyn FnOnce() + Send>
///     })
///     .collect();
/// pool.run_tasks(tasks).unwrap();
/// assert_eq!(sum.load(Ordering::Relaxed), 55);
/// ```
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    handles: Vec<thread::JoinHandle<()>>,
    size: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size)
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `size` participants: the thread that calls
    /// [`run_tasks`](WorkerPool::run_tasks) and `size − 1` worker threads,
    /// spawned here.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "thread count must be positive");
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (1..size)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                thread::Builder::new()
                    .name(format!("blockconc-worker-{i}"))
                    .spawn(move || worker_loop(&receiver))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            handles,
            size,
        }
    }

    /// The number of participants: the calling thread plus the spawned
    /// workers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs `tasks` and blocks until every one has finished: the first on the
    /// calling thread, the rest on the workers. A pool with no worker thread
    /// (`size` 1) runs the whole batch on the caller, in order.
    ///
    /// Panics inside a task are caught where it runs (a worker survives for the
    /// next block) and surface here as an `Err` after the whole batch has drained —
    /// matching the engine trait's contract that worker failures are engine-level
    /// errors. By the time this returns, every task closure has been dropped, so
    /// `Arc`s captured by the tasks are no longer referenced by the pool.
    ///
    /// # Errors
    ///
    /// Returns an error if any task panicked.
    pub fn run_tasks(&self, tasks: Vec<Job>) -> Result<()> {
        let mut tasks = tasks.into_iter();
        let Some(first) = tasks.next() else {
            return Ok(());
        };
        if self.handles.is_empty() {
            // `&` rather than `&&`: every task runs, panicked or not.
            let ok = std::iter::once(first).chain(tasks).fold(true, |ok, task| {
                ok & catch_unwind(AssertUnwindSafe(task)).is_ok()
            });
            return if ok { Ok(()) } else { Err(panicked_error()) };
        }
        let wg = WaitGroup::new(tasks.len());
        let panicked = Arc::new(AtomicBool::new(false));
        let sender = self.sender.as_ref().expect("pool is alive");
        for task in tasks {
            let wg = wg.clone();
            let panicked = Arc::clone(&panicked);
            let job: Job = Box::new(move || {
                // `task` is moved into (and consumed by) the catch_unwind closure, so
                // its captures are dropped before `done()` runs — the caller may rely
                // on `Arc::try_unwrap` succeeding right after `wait()` returns.
                if catch_unwind(AssertUnwindSafe(task)).is_err() {
                    panicked.store(true, Ordering::SeqCst);
                }
                wg.done();
            });
            sender.send(job).expect("worker threads alive");
        }
        // The caller's share, consumed (captures and all) before the wait.
        let first_ok = catch_unwind(AssertUnwindSafe(first)).is_ok();
        wg.wait();
        if first_ok && !panicked.load(Ordering::SeqCst) {
            Ok(())
        } else {
            Err(panicked_error())
        }
    }
}

/// What [`WorkerPool::run_tasks`] reports for a batch in which a task panicked.
fn panicked_error() -> Error {
    Error::execution("worker thread panicked")
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.sender.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(receiver: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let guard = receiver.lock().expect("pool receiver lock");
            guard.recv()
        };
        match job {
            Ok(job) => job(),
            Err(_) => break, // channel closed: pool dropped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_runs_every_task_and_is_reusable() {
        let pool = WorkerPool::new(3);
        for round in 1..=3usize {
            let counter = Arc::new(AtomicUsize::new(0));
            let tasks: Vec<Job> = (0..20)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Job
                })
                .collect();
            pool.run_tasks(tasks).unwrap();
            assert_eq!(counter.load(Ordering::Relaxed), 20, "round {round}");
        }
    }

    #[test]
    fn pool_releases_task_captures_before_returning() {
        let pool = WorkerPool::new(2);
        let shared = Arc::new(vec![1u8, 2, 3]);
        let tasks: Vec<Job> = (0..8)
            .map(|_| {
                let shared = Arc::clone(&shared);
                Box::new(move || {
                    std::hint::black_box(shared.len());
                }) as Job
            })
            .collect();
        pool.run_tasks(tasks).unwrap();
        // Every task clone has been dropped: the caller's Arc is unique again.
        assert!(Arc::try_unwrap(shared).is_ok());
    }

    #[test]
    fn panicking_task_reports_error_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let mut tasks: Vec<Job> = vec![Box::new(|| panic!("boom"))];
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let ran = Arc::clone(&ran);
            tasks.push(Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }));
        }
        assert!(pool.run_tasks(tasks).is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 4, "batch drains despite panic");
        // The pool is still usable afterwards.
        let ok = Arc::new(AtomicUsize::new(0));
        let ok2 = Arc::clone(&ok);
        pool.run_tasks(vec![Box::new(move || {
            ok2.fetch_add(1, Ordering::Relaxed);
        }) as Job])
            .unwrap();
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    /// `new(n)` is n participants: the caller plus n − 1 spawned threads,
    /// and the caller runs one job of every batch — every job of a batch on a
    /// one-participant pool.
    #[test]
    fn the_caller_runs_one_job_and_the_workers_the_rest() {
        for size in 1..=3 {
            let pool = WorkerPool::new(size);
            assert_eq!(pool.size(), size);
            assert_eq!(pool.handles.len(), size - 1);
            let caller = thread::current().id();
            let on_caller = Arc::new(AtomicUsize::new(0));
            let tasks: Vec<Job> = (0..size)
                .map(|_| {
                    let on_caller = Arc::clone(&on_caller);
                    Box::new(move || {
                        if thread::current().id() == caller {
                            on_caller.fetch_add(1, Ordering::Relaxed);
                        }
                    }) as Job
                })
                .collect();
            pool.run_tasks(tasks).unwrap();
            assert_eq!(on_caller.load(Ordering::Relaxed), 1, "size {size}");
        }
    }

    /// A panic in the job the caller runs surfaces as the same `Err` as one
    /// on a worker, after the batch has drained; with no worker thread the
    /// rest of the batch still runs.
    #[test]
    fn an_inline_panic_reports_error_and_the_batch_drains() {
        for size in [1, 2] {
            let pool = WorkerPool::new(size);
            let ran = Arc::new(AtomicUsize::new(0));
            let mut tasks: Vec<Job> = vec![Box::new(|| panic!("inline boom"))];
            for _ in 0..3 {
                let ran = Arc::clone(&ran);
                tasks.push(Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                }));
            }
            let err = pool.run_tasks(tasks).unwrap_err();
            assert_eq!(err.to_string(), panicked_error().to_string());
            assert_eq!(ran.load(Ordering::Relaxed), 3, "size {size}");
            assert!(Arc::try_unwrap(ran).is_ok(), "every capture dropped");
        }
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_size_pool_panics() {
        let _ = WorkerPool::new(0);
    }
}
