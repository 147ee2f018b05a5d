//! A long-lived worker pool for resident processes.
//!
//! [`JobPool`](crate::pool::JobPool) is built for batches: scoped threads
//! that live exactly as long as one `run` call. A resident process — the
//! `swserve` HTTP service — needs the opposite shape: workers that outlive
//! any individual submission, jobs that arrive one at a time from
//! concurrent connections, and per-job handles a caller can poll later.
//! [`ResidentPool`] provides that: a fixed set of detached worker threads
//! over a shared queue, [`JobHandle`]s that report `queued → running →
//! done`, the same per-job panic isolation as the batch pool, and a
//! [`ResidentPool::close`] that drains every queued job before returning
//! (the graceful-shutdown half of the server's drain).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use swjson::Json;

use crate::pool::panic_message;

type Job = Box<dyn FnOnce() -> Result<Json, String> + Send + 'static>;

/// Where a submitted job currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStage {
    /// Waiting in the queue.
    Queued,
    /// Executing on a worker thread.
    Running,
    /// Finished (successfully or not); the result is available.
    Done,
}

impl JobStage {
    /// The stage as its wire string (`"queued"`, `"running"`, `"done"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            JobStage::Queued => "queued",
            JobStage::Running => "running",
            JobStage::Done => "done",
        }
    }
}

#[derive(Debug)]
struct HandleState {
    stage: JobStage,
    result: Option<Result<Json, String>>,
    wall: Option<Duration>,
}

#[derive(Debug)]
struct HandleInner {
    state: Mutex<HandleState>,
    done: Condvar,
}

/// A caller's view of one submitted job. Cheap to clone; all clones
/// observe the same job.
#[derive(Debug, Clone)]
pub struct JobHandle {
    inner: Arc<HandleInner>,
}

impl JobHandle {
    fn new() -> JobHandle {
        JobHandle {
            inner: Arc::new(HandleInner {
                state: Mutex::new(HandleState {
                    stage: JobStage::Queued,
                    result: None,
                    wall: None,
                }),
                done: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HandleState> {
        self.inner.state.lock().expect("job handle poisoned")
    }

    /// The job's current stage.
    pub fn stage(&self) -> JobStage {
        self.lock().stage
    }

    /// The job's result, if it has finished.
    pub fn result(&self) -> Option<Result<Json, String>> {
        self.lock().result.clone()
    }

    /// How long the job ran on its worker, once finished.
    pub fn wall(&self) -> Option<Duration> {
        self.lock().wall
    }

    /// Whether the job failed, once finished (`None` while unfinished).
    /// Cheaper than [`result`](JobHandle::result) for counting outcomes —
    /// it does not clone the result JSON.
    pub fn failed(&self) -> Option<bool> {
        self.lock().result.as_ref().map(Result::is_err)
    }

    /// Blocks until the job finishes and returns its result. A panic in
    /// the job surfaces as `Err` with the panic message, not a poisoned
    /// lock.
    pub fn wait(&self) -> Result<Json, String> {
        let mut state = self.lock();
        while state.stage != JobStage::Done {
            state = self.inner.done.wait(state).expect("job handle poisoned");
        }
        state.result.clone().expect("done job has a result")
    }

    fn finish(&self, result: Result<Json, String>, wall: Duration) {
        let mut state = self.lock();
        state.stage = JobStage::Done;
        state.result = Some(result);
        state.wall = Some(wall);
        drop(state);
        self.inner.done.notify_all();
    }
}

/// Submitting to a pool that has been closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClosed;

impl std::fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the resident pool is closed")
    }
}

impl std::error::Error for PoolClosed {}

#[derive(Default)]
struct PoolState {
    queue: VecDeque<(JobHandle, Job)>,
    /// Jobs accepted but not yet finished (queued + running).
    in_flight: usize,
    closed: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers that the queue changed (new job or close).
    work: Condvar,
    /// Signals `close` that a job finished.
    settled: Condvar,
}

/// A fixed set of long-lived worker threads consuming a shared queue of
/// JSON-producing jobs.
pub struct ResidentPool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ResidentPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidentPool")
            .field("workers", &self.workers.len())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl ResidentPool {
    /// Starts a pool with `workers` threads (clamped to at least 1).
    pub fn start(workers: usize) -> ResidentPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            work: Condvar::new(),
            settled: Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("swrun-resident-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn resident worker")
            })
            .collect();
        ResidentPool { shared, workers }
    }

    /// The worker thread count.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs accepted but not yet finished (queued + running). This is
    /// the quantity a server's admission control bounds.
    pub fn in_flight(&self) -> usize {
        self.shared.state.lock().expect("pool poisoned").in_flight
    }

    /// Enqueues `job` and returns its handle.
    ///
    /// # Errors
    ///
    /// [`PoolClosed`] once [`close`](ResidentPool::close) has begun.
    pub fn submit<F>(&self, job: F) -> Result<JobHandle, PoolClosed>
    where
        F: FnOnce() -> Result<Json, String> + Send + 'static,
    {
        let handle = JobHandle::new();
        {
            let mut state = self.shared.state.lock().expect("pool poisoned");
            if state.closed {
                return Err(PoolClosed);
            }
            state.queue.push_back((handle.clone(), Box::new(job)));
            state.in_flight += 1;
        }
        self.shared.work.notify_one();
        Ok(handle)
    }

    /// Blocks until every accepted job has finished, without closing the
    /// pool. This is the drain half of a graceful shutdown for callers
    /// that hold the pool behind an `Arc` and cannot consume it for
    /// [`close`](ResidentPool::close).
    pub fn drain(&self) {
        let mut state = self.shared.state.lock().expect("pool poisoned");
        while state.in_flight > 0 {
            state = self.shared.settled.wait(state).expect("pool poisoned");
        }
    }

    /// Closes the pool gracefully: stops accepting submissions, lets
    /// every already-accepted job run to completion, then joins the
    /// workers. Queued jobs are *finished*, not dropped — callers
    /// holding handles still get results.
    pub fn close(self) {
        {
            let mut state = self.shared.state.lock().expect("pool poisoned");
            state.closed = true;
            while state.in_flight > 0 {
                state = self.shared.settled.wait(state).expect("pool poisoned");
            }
        }
        self.shared.work.notify_all();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let (handle, job) = {
            let mut state = shared.state.lock().expect("pool poisoned");
            loop {
                if let Some(next) = state.queue.pop_front() {
                    break next;
                }
                if state.closed {
                    return;
                }
                state = shared.work.wait(state).expect("pool poisoned");
            }
        };
        {
            let mut job_state = handle.lock();
            job_state.stage = JobStage::Running;
        }
        let start = Instant::now();
        let result = match catch_unwind(AssertUnwindSafe(job)) {
            Ok(result) => result,
            Err(payload) => Err(format!("job panicked: {}", panic_message(payload.as_ref()))),
        };
        handle.finish(result, start.elapsed());
        {
            let mut state = shared.state.lock().expect("pool poisoned");
            state.in_flight -= 1;
        }
        shared.settled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_complete_and_handles_observe_them() {
        let pool = ResidentPool::start(2);
        let handles: Vec<JobHandle> = (0..8)
            .map(|i| {
                pool.submit(move || Ok(Json::Num(f64::from(i) * 2.0)))
                    .unwrap()
            })
            .collect();
        for (i, handle) in handles.iter().enumerate() {
            assert_eq!(handle.wait(), Ok(Json::Num(i as f64 * 2.0)));
            assert_eq!(handle.stage(), JobStage::Done);
            assert!(handle.wall().is_some());
        }
        pool.close();
    }

    #[test]
    fn a_panicking_job_reports_failure_without_killing_workers() {
        let pool = ResidentPool::start(1);
        let bad = pool.submit(|| panic!("meltdown")).unwrap();
        let good = pool.submit(|| Ok(Json::Bool(true))).unwrap();
        let err = bad.wait().unwrap_err();
        assert!(err.contains("meltdown"), "{err}");
        // The same (sole) worker still serves the next job.
        assert_eq!(good.wait(), Ok(Json::Bool(true)));
        pool.close();
    }

    #[test]
    fn close_drains_queued_jobs_then_rejects_new_ones() {
        let pool = ResidentPool::start(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let handles: Vec<JobHandle> = (0..4)
            .map(|_| {
                let ran = Arc::clone(&ran);
                pool.submit(move || {
                    thread::sleep(Duration::from_millis(10));
                    ran.fetch_add(1, Ordering::SeqCst);
                    Ok(Json::Null)
                })
                .unwrap()
            })
            .collect();
        pool.close();
        // Every accepted job ran to completion before close returned.
        assert_eq!(ran.load(Ordering::SeqCst), 4);
        for handle in handles {
            assert_eq!(handle.stage(), JobStage::Done);
        }
    }

    #[test]
    fn submit_after_close_fails() {
        let pool = ResidentPool::start(1);
        let shared = Arc::clone(&pool.shared);
        pool.close();
        // The pool value is consumed by close; simulate a late submitter
        // racing shutdown via the shared state directly.
        assert!(shared.state.lock().unwrap().closed);
    }

    #[test]
    fn in_flight_tracks_queued_plus_running() {
        let pool = ResidentPool::start(1);
        assert_eq!(pool.in_flight(), 0);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let blocker = {
            let gate = Arc::clone(&gate);
            pool.submit(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(Json::Null)
            })
            .unwrap()
        };
        let queued = pool.submit(|| Ok(Json::Null)).unwrap();
        // One running (or about to), one queued behind it.
        assert_eq!(pool.in_flight(), 2);
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        blocker.wait().unwrap();
        queued.wait().unwrap();
        // The in-flight gauge drops just after the result is published;
        // give the worker a moment to get there.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.in_flight() > 0 && Instant::now() < deadline {
            thread::yield_now();
        }
        assert_eq!(pool.in_flight(), 0);
        pool.close();
    }

    #[test]
    fn stage_strings_are_stable() {
        assert_eq!(JobStage::Queued.as_str(), "queued");
        assert_eq!(JobStage::Running.as_str(), "running");
        assert_eq!(JobStage::Done.as_str(), "done");
    }
}
