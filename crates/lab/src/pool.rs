//! The multithreaded job scheduler: a persistent worker pool with
//! per-task timeouts and panic isolation.
//!
//! Every task runs inline on a worker thread under `catch_unwind`, so
//! one panicking task cannot take down the pool. A timeout, when set,
//! is enforced by one **watchdog** thread per pool, not by a thread per
//! task:
//!
//! * a deadline counts from pickup, and every task gets the same
//!   timeout, so a later pickup has a later deadline. The watchdog
//!   sleeps until the earliest deadline of a running task (one timeout
//!   when none runs); submissions and pickups never wake it;
//! * at a deadline the watchdog delivers [`Outcome::TimedOut`] and
//!   starts a replacement worker, so the slot is reclaimed at once. The
//!   task itself cannot be killed safely: it keeps running on its old
//!   worker, which throws the late result away and exits when the task
//!   ends. [`TaskPool::runaway`] counts such tasks.
//!
//! One shared slot per task holds its completion callback; whichever of
//! the worker and the watchdog takes it first delivers, so every
//! accepted task's outcome is delivered exactly once.
//!
//! Two consumption shapes run on the same pool:
//!
//! * [`TaskPool`] — **service**: a persistent pool behind a *bounded*
//!   submission queue with explicit [`SubmitError::Busy`] backpressure
//!   and graceful drain-on-shutdown (the `mmlp-serve` request path).
//! * [`run_pool`] — **batch**: a fixed item list, drained to completion
//!   (campaigns). Results stream back to the caller's sink on the
//!   calling thread, in completion order, so the campaign layer can
//!   append each record to the log the moment it exists — which is what
//!   makes a killed run resumable.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(test)]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::{Duration, Instant};

/// Scheduler configuration.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Worker-thread count (clamped to ≥ 1).
    pub workers: usize,
    /// Per-job timeout, counted from pickup; `None` sets no deadline.
    pub timeout: Option<Duration>,
}

/// How one job terminated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome<T> {
    /// The job returned a value.
    Done(T),
    /// The job panicked (payload rendered when it was a string).
    Panicked(String),
    /// The job exceeded the configured timeout.
    TimedOut,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` over every item on a worker pool; `sink(index, outcome)` is
/// called on the **calling thread** once per item, in completion order.
///
/// The batch runs on a [`TaskPool`] whose queue holds every item, and a
/// channel carries each outcome back to the caller. Item and closure
/// bounds are `'static` because a timed-out job keeps running on its
/// retired worker after the call returns.
pub fn run_pool<I, T, F, S>(items: Vec<I>, cfg: &PoolConfig, f: F, mut sink: S)
where
    I: Send + 'static,
    T: Send + 'static,
    F: Fn(I) -> T + Send + Sync + 'static,
    S: FnMut(usize, Outcome<T>),
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let pool = TaskPool::new(TaskPoolConfig {
        workers: cfg.workers.min(n),
        queue_cap: n,
        timeout: cfg.timeout,
    });
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel();
    let jobs: Vec<Job> = items
        .into_iter()
        .enumerate()
        .map(|(idx, item)| {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            Job::new(
                move || f(item),
                move |outcome| {
                    let _ = tx.send((idx, outcome));
                },
            )
        })
        .collect();
    drop(tx);
    // One push and one wake-up for the whole batch: submitting item by
    // item would contend with the workers for the lock on every item.
    pool.shared.lock().queue.extend(jobs);
    pool.shared.work_ready.notify_all();
    for (idx, outcome) in rx {
        sink(idx, outcome);
    }
}

// ---------------------------------------------------------------------------
// TaskPool: a persistent bounded-queue worker pool for request serving.
// ---------------------------------------------------------------------------

/// Configuration for a [`TaskPool`].
#[derive(Clone, Copy, Debug)]
pub struct TaskPoolConfig {
    /// Worker-thread count (clamped to ≥ 1).
    pub workers: usize,
    /// Maximum number of *queued* (not yet running) tasks before
    /// [`TaskPool::submit`] reports [`SubmitError::Busy`] (clamped to
    /// ≥ 1). This is the backpressure bound: the pool never buffers
    /// more than `queue_cap` tasks, so a traffic spike surfaces as
    /// explicit `Busy` replies instead of unbounded memory growth.
    pub queue_cap: usize,
    /// Per-task timeout, counted from pickup; `None` starts no
    /// watchdog and sets no deadline.
    pub timeout: Option<Duration>,
}

/// Why a submission was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry later.
    Busy,
    /// The pool is shutting down and accepts no new work.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy => write!(f, "queue full"),
            SubmitError::Closed => write!(f, "pool closed"),
        }
    }
}

/// One task's completion callback, shared by the worker that runs the
/// task and the watchdog: whichever takes it first delivers.
struct Slot<T, C> {
    complete: Mutex<Option<C>>,
    _outcome: PhantomData<fn(Outcome<T>)>,
}

impl<T, C> Slot<T, C> {
    fn take(&self) -> Option<C> {
        self.complete.lock().expect("task slot").take()
    }
}

/// The watchdog's view of a [`Slot`], with the outcome type erased.
trait Expire: Send + Sync {
    /// Takes the callback unless the worker has, bound to
    /// [`Outcome::TimedOut`].
    fn expire(&self) -> Option<Box<dyn FnOnce() + Send>>;
}

impl<T: 'static, C: FnOnce(Outcome<T>) + Send + 'static> Expire for Slot<T, C> {
    fn expire(&self) -> Option<Box<dyn FnOnce() + Send>> {
        let complete = self.take()?;
        Some(Box::new(move || complete(Outcome::TimedOut)))
    }
}

/// An accepted task.
struct Job {
    /// Runs the task and delivers its outcome, unless the watchdog has
    /// delivered first; returns whether it delivered.
    run: Box<dyn FnOnce() -> bool + Send>,
    slot: Arc<dyn Expire>,
}

impl Job {
    fn new<T, F, C>(f: F, complete: C) -> Job
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        C: FnOnce(Outcome<T>) + Send + 'static,
    {
        let slot = Arc::new(Slot {
            complete: Mutex::new(Some(complete)),
            _outcome: PhantomData,
        });
        Job {
            slot: Arc::clone(&slot) as Arc<dyn Expire>,
            run: Box::new(move || {
                let outcome = match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(v) => Outcome::Done(v),
                    Err(payload) => Outcome::Panicked(panic_message(payload)),
                };
                let Some(complete) = slot.take() else {
                    return false; // timed out: the late result is dropped
                };
                let _ = catch_unwind(AssertUnwindSafe(move || complete(outcome)));
                true
            }),
        }
    }
}

/// A task running under a deadline.
struct Running {
    worker: ThreadId,
    deadline: Instant,
    slot: Arc<dyn Expire>,
}

struct PoolState {
    queue: VecDeque<Job>,
    open: bool,
    in_flight: usize,
    /// Timed-out tasks still running on their retired workers.
    runaway: usize,
    /// Workers neither retired by a timeout nor exited.
    live: Vec<ThreadId>,
    /// The handles of every worker not retired by a timeout; a retired
    /// worker's handle is dropped, which detaches its runaway task.
    handles: Vec<JoinHandle<()>>,
    /// Tasks under a deadline, earliest first: pickups happen in order
    /// under the lock, and every deadline is pickup + the one timeout.
    running: VecDeque<Running>,
    watchdog: Option<JoinHandle<()>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Wakes idle workers: work was queued, or the pool closed.
    work_ready: Condvar,
    /// Wakes the watchdog and a waiting shutdown: the pool closed, or a
    /// live worker exited.
    changed: Condvar,
    timeout: Option<Duration>,
    queue_cap: usize,
    /// Makes every worker spawn fail, to test a pool that runs short.
    #[cfg(test)]
    fail_spawns: AtomicBool,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().expect("pool lock")
    }
}

/// Starts one worker thread and adds it to `st`, which the caller has
/// locked, so the worker is live before it can look at the state.
fn spawn_worker(shared: &Arc<PoolShared>, st: &mut PoolState) -> std::io::Result<()> {
    #[cfg(test)]
    if shared.fail_spawns.load(Ordering::Relaxed) {
        return Err(std::io::Error::other("spawn failure injected by a test"));
    }
    let worker = Arc::clone(shared);
    let handle = thread::Builder::new()
        .name("pool-worker".into())
        .spawn(move || work(&worker))?;
    st.live.push(handle.thread().id());
    st.handles.push(handle);
    Ok(())
}

/// A worker: runs queued tasks inline until the pool closes and its
/// queue is empty, or until one of its tasks times out.
fn work(shared: &PoolShared) {
    let me = thread::current().id();
    let mut st = shared.lock();
    loop {
        let Some(job) = st.queue.pop_front() else {
            if !st.open {
                st.live.retain(|&w| w != me);
                shared.changed.notify_all();
                return;
            }
            st = shared.work_ready.wait(st).expect("pool lock");
            continue;
        };
        st.in_flight += 1;
        // A timeout too large for an `Instant` sets no deadline.
        if let Some(deadline) = shared.timeout.and_then(|d| Instant::now().checked_add(d)) {
            st.running.push_back(Running {
                worker: me,
                deadline,
                slot: job.slot,
            });
        }
        drop(st);
        let delivered = (job.run)();
        st = shared.lock();
        if !delivered {
            // Timed out: the watchdog delivered, settled `in_flight`
            // and started this worker's replacement.
            st.runaway -= 1;
            return;
        }
        st.in_flight -= 1;
        if let Some(at) = st.running.iter().position(|r| r.worker == me) {
            st.running.remove(at);
        }
    }
}

/// The watchdog: times out running tasks at their deadlines until the
/// pool is closed and has no live worker left.
fn watch(shared: &Arc<PoolShared>, timeout: Duration) {
    let mut st = shared.lock();
    loop {
        if !st.open && st.live.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut expired = Vec::new();
        while st.running.front().is_some_and(|r| r.deadline <= now) {
            let r = st.running.pop_front().expect("front checked");
            // `None`: the worker took the callback first, and settles
            // its own accounting.
            if let Some(deliver) = r.slot.expire() {
                st.in_flight -= 1;
                st.runaway += 1;
                st.live.retain(|&w| w != r.worker);
                st.handles.retain(|h| h.thread().id() != r.worker);
                // On failure the pool runs one worker short.
                let _ = spawn_worker(shared, &mut st);
                expired.push(deliver);
            }
        }
        if !expired.is_empty() {
            // A shutdown waits on `live`, which just changed.
            shared.changed.notify_all();
            drop(st);
            for deliver in expired {
                let _ = catch_unwind(AssertUnwindSafe(deliver));
            }
            st = shared.lock();
            continue;
        }
        let sleep = st.running.front().map_or(timeout, |r| r.deadline - now);
        st = shared.changed.wait_timeout(st, sleep).expect("pool lock").0;
    }
}

/// A persistent worker pool with a bounded submission queue.
///
/// Tasks are arbitrary closures; each runs inline on a worker with
/// panic isolation and the pool's optional timeout (see the module
/// docs), and delivers its [`Outcome`] through the [`TaskTicket`]
/// returned at submission. Dropping the pool — or calling
/// [`TaskPool::shutdown`] — closes the queue and waits until the live
/// workers have *drained* every already-accepted task, so accepted work
/// is never silently discarded. It never waits for a timed-out task,
/// nor for the thread it runs on: a task may own the last handle to its
/// pool. A pool whose replacement workers failed to spawn runs short;
/// with none left, its queued tasks never run.
pub struct TaskPool {
    shared: Arc<PoolShared>,
}

/// The caller's handle to one submitted task.
pub struct TaskTicket<T> {
    rx: mpsc::Receiver<Outcome<T>>,
}

impl<T> TaskTicket<T> {
    /// Blocks until the task's outcome is available.
    pub fn wait(self) -> Outcome<T> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Outcome::Panicked("task dropped by pool".into()))
    }
}

impl TaskPool {
    /// Spawns the worker threads (and the watchdog, with a timeout) and
    /// returns the pool.
    pub fn new(cfg: TaskPoolConfig) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                open: true,
                in_flight: 0,
                runaway: 0,
                live: Vec::new(),
                handles: Vec::new(),
                running: VecDeque::new(),
                watchdog: None,
            }),
            work_ready: Condvar::new(),
            changed: Condvar::new(),
            timeout: cfg.timeout,
            queue_cap: cfg.queue_cap.max(1),
            #[cfg(test)]
            fail_spawns: AtomicBool::new(false),
        });
        {
            let mut st = shared.lock();
            for _ in 0..cfg.workers.max(1) {
                spawn_worker(&shared, &mut st).expect("spawn pool worker");
            }
            if let Some(d) = cfg.timeout {
                let watchdog = Arc::clone(&shared);
                let handle = thread::Builder::new()
                    .name("pool-watchdog".into())
                    .spawn(move || watch(&watchdog, d))
                    .expect("spawn pool watchdog");
                st.watchdog = Some(handle);
            }
        }
        TaskPool { shared }
    }

    /// Submits one task. Returns a ticket to wait on, or an error when
    /// the queue is full ([`SubmitError::Busy`]) or the pool is closed.
    pub fn submit<T, F>(&self, f: F) -> Result<TaskTicket<T>, SubmitError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        self.submit_with(f, move |outcome| {
            let _ = tx.send(outcome);
        })?;
        Ok(TaskTicket { rx })
    }

    /// Submits one task with a completion callback instead of a ticket.
    ///
    /// `complete` runs exactly once per accepted task, including during
    /// shutdown drain, so a nonblocking caller — e.g. an event loop —
    /// can hand off work and be notified without parking a thread on a
    /// ticket. It runs on the worker thread with `Done` or `Panicked`,
    /// and on the pool's watchdog thread with `TimedOut`; a callback
    /// that blocks would hold up the other deadlines, so keep it to a
    /// hand-off (an inbox push and a wake-up). Panics in the callback
    /// are caught so they cannot take down the thread running it.
    /// Backpressure is identical to [`TaskPool::submit`].
    pub fn submit_with<T, F, C>(&self, f: F, complete: C) -> Result<(), SubmitError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        C: FnOnce(Outcome<T>) + Send + 'static,
    {
        let job = Job::new(f, complete);
        let mut st = self.shared.lock();
        if !st.open {
            return Err(SubmitError::Closed);
        }
        if st.queue.len() >= self.shared.queue_cap {
            return Err(SubmitError::Busy);
        }
        st.queue.push_back(job);
        drop(st);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Number of tasks accepted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Number of tasks currently executing on a worker, not counting
    /// timed-out ones.
    pub fn in_flight(&self) -> usize {
        self.shared.lock().in_flight
    }

    /// Number of timed-out tasks still running in the background.
    pub fn runaway(&self) -> usize {
        self.shared.lock().runaway
    }

    /// Closes the queue and waits until the live workers have drained
    /// every accepted task. Equivalent to dropping the pool, but
    /// explicit.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        let me = thread::current().id();
        let mut st = self.shared.lock();
        st.open = false;
        self.shared.work_ready.notify_all();
        self.shared.changed.notify_all();
        // The watchdog may drop the last handle from a `TimedOut`
        // callback; it must keep timing out the drain, so it does not
        // wait for it.
        if st.watchdog.as_ref().is_some_and(|h| h.thread().id() == me) {
            return;
        }
        while st.live.iter().any(|&w| w != me) {
            st = self.shared.changed.wait(st).expect("pool lock");
        }
        // The other workers are exiting. The watchdog exits once no live
        // worker is left, which on a live worker is not yet.
        let watchdog = if st.live.contains(&me) {
            None
        } else {
            st.watchdog.take()
        };
        let handles = std::mem::take(&mut st.handles);
        drop(st);
        for h in handles.into_iter().chain(watchdog) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn collect<T>(
        items: Vec<u64>,
        cfg: &PoolConfig,
        f: impl Fn(u64) -> T + Send + Sync + 'static,
    ) -> Vec<(usize, Outcome<T>)>
    where
        T: Send + 'static,
    {
        let mut out = Vec::new();
        run_pool(items, cfg, f, |i, o| out.push((i, o)));
        out
    }

    #[test]
    fn all_items_complete_once() {
        let cfg = PoolConfig {
            workers: 4,
            timeout: None,
        };
        let out = collect((0..100).collect(), &cfg, |x| x * 2);
        assert_eq!(out.len(), 100);
        let indices: HashSet<usize> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices.len(), 100);
        for (i, o) in &out {
            assert_eq!(*o, Outcome::Done((*i as u64) * 2));
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let cfg = PoolConfig {
            workers: 32,
            timeout: None,
        };
        assert_eq!(collect(vec![7], &cfg, |x| x).len(), 1);
        run_pool(
            Vec::<u64>::new(),
            &cfg,
            |x: u64| x,
            |_, _| panic!("sink must not run on empty input"),
        );
    }

    #[test]
    fn panics_are_isolated_inline() {
        let cfg = PoolConfig {
            workers: 3,
            timeout: None,
        };
        let out = collect((0..10).collect(), &cfg, |x| {
            if x == 4 {
                panic!("job {x} exploded");
            }
            x
        });
        assert_eq!(out.len(), 10);
        let panicked: Vec<_> = out
            .iter()
            .filter(|(_, o)| matches!(o, Outcome::Panicked(_)))
            .collect();
        assert_eq!(panicked.len(), 1);
        assert_eq!(panicked[0].0, 4);
        if let Outcome::Panicked(msg) = &panicked[0].1 {
            assert!(msg.contains("exploded"), "{msg}");
        }
    }

    #[test]
    fn panics_are_isolated_on_the_timeout_path() {
        let cfg = PoolConfig {
            workers: 2,
            timeout: Some(Duration::from_secs(5)),
        };
        let out = collect((0..6).collect(), &cfg, |x| {
            if x % 3 == 0 {
                panic!("boom");
            }
            x
        });
        let panicked = out
            .iter()
            .filter(|(_, o)| matches!(o, Outcome::Panicked(_)))
            .count();
        assert_eq!(panicked, 2);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn slow_jobs_time_out_and_the_rest_finish() {
        let cfg = PoolConfig {
            workers: 2,
            timeout: Some(Duration::from_millis(30)),
        };
        let out = collect((0..8).collect(), &cfg, |x| {
            if x == 1 {
                std::thread::sleep(Duration::from_secs(10));
            }
            x
        });
        assert_eq!(out.len(), 8);
        let timed_out: Vec<_> = out
            .iter()
            .filter(|(_, o)| matches!(o, Outcome::TimedOut))
            .map(|(i, _)| *i)
            .collect();
        assert_eq!(timed_out, vec![1]);
    }

    #[test]
    fn single_worker_preserves_item_order() {
        let cfg = PoolConfig {
            workers: 1,
            timeout: None,
        };
        let out = collect((0..20).collect(), &cfg, |x| x);
        let order: Vec<usize> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    // -- TaskPool ----------------------------------------------------------

    #[test]
    fn task_pool_runs_submitted_tasks() {
        let pool = TaskPool::new(TaskPoolConfig {
            workers: 4,
            queue_cap: 64,
            timeout: None,
        });
        let tickets: Vec<_> = (0..32u64)
            .map(|x| pool.submit(move || x * 3).unwrap())
            .collect();
        for (x, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait(), Outcome::Done(x as u64 * 3));
        }
        pool.shutdown();
    }

    #[test]
    fn task_pool_reports_busy_at_queue_capacity() {
        let pool = TaskPool::new(TaskPoolConfig {
            workers: 1,
            queue_cap: 1,
            timeout: None,
        });
        // Occupy the single worker, deterministically.
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let running = pool
            .submit(move || {
                block_rx.recv().ok();
                1u32
            })
            .unwrap();
        while pool.in_flight() == 0 {
            std::thread::yield_now();
        }
        // One task fits in the queue; the next must bounce.
        let queued = pool.submit(|| 2u32).unwrap();
        let bounced = pool.submit(|| 3u32);
        assert!(matches!(bounced, Err(SubmitError::Busy)));
        assert_eq!(pool.queue_depth(), 1);

        block_tx.send(()).unwrap();
        assert_eq!(running.wait(), Outcome::Done(1));
        assert_eq!(queued.wait(), Outcome::Done(2));
        pool.shutdown();
    }

    #[test]
    fn task_pool_shutdown_drains_accepted_work() {
        let pool = TaskPool::new(TaskPoolConfig {
            workers: 2,
            queue_cap: 64,
            timeout: None,
        });
        let tickets: Vec<_> = (0..16u64)
            .map(|x| {
                pool.submit(move || {
                    std::thread::sleep(Duration::from_millis(5));
                    x
                })
                .unwrap()
            })
            .collect();
        pool.shutdown(); // must block until every accepted task ran
        for (x, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait(), Outcome::Done(x as u64));
        }
    }

    #[test]
    fn task_pool_submit_with_delivers_outcomes_via_callback() {
        let pool = TaskPool::new(TaskPoolConfig {
            workers: 2,
            queue_cap: 16,
            timeout: Some(Duration::from_millis(40)),
        });
        let (tx, rx) = mpsc::channel();
        for x in 0..4u64 {
            let tx = tx.clone();
            pool.submit_with(
                move || {
                    if x == 2 {
                        panic!("cb boom");
                    }
                    x * 10
                },
                move |o| {
                    tx.send((x, o)).unwrap();
                },
            )
            .unwrap();
        }
        let mut got: Vec<_> = (0..4).map(|_| rx.recv().unwrap()).collect();
        got.sort_by_key(|(x, _)| *x);
        assert_eq!(got[0].1, Outcome::Done(0));
        assert_eq!(got[1].1, Outcome::Done(10));
        assert!(matches!(got[2].1, Outcome::Panicked(_)));
        assert_eq!(got[3].1, Outcome::Done(30));
        pool.shutdown();
    }

    #[test]
    fn task_pool_submit_with_callback_panic_does_not_kill_worker() {
        let pool = TaskPool::new(TaskPoolConfig {
            workers: 1,
            queue_cap: 8,
            timeout: None,
        });
        pool.submit_with(|| 1u32, |_| panic!("callback exploded"))
            .unwrap();
        // The single worker must survive to run the next task.
        let ticket = pool.submit(|| 2u32).unwrap();
        assert_eq!(ticket.wait(), Outcome::Done(2));
        pool.shutdown();
    }

    #[test]
    fn task_pool_isolates_panics_and_timeouts() {
        let pool = TaskPool::new(TaskPoolConfig {
            workers: 2,
            queue_cap: 8,
            timeout: Some(Duration::from_millis(40)),
        });
        let boom = pool.submit(|| -> u32 { panic!("kaboom") }).unwrap();
        let slow = pool
            .submit(|| {
                std::thread::sleep(Duration::from_secs(10));
                7u32
            })
            .unwrap();
        let fine = pool.submit(|| 9u32).unwrap();
        match boom.wait() {
            Outcome::Panicked(msg) => assert!(msg.contains("kaboom"), "{msg}"),
            other => panic!("expected panic outcome, got {other:?}"),
        }
        assert_eq!(slow.wait(), Outcome::TimedOut);
        assert_eq!(fine.wait(), Outcome::Done(9));
        pool.shutdown();
    }

    /// Polls `cond` every millisecond for up to 5 s.
    fn eventually(mut cond: impl FnMut() -> bool) -> bool {
        let until = Instant::now() + Duration::from_secs(5);
        while Instant::now() < until {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        cond()
    }

    #[test]
    fn task_pool_runs_tasks_on_its_own_threads_under_a_timeout() {
        let pool = TaskPool::new(TaskPoolConfig {
            workers: 4,
            queue_cap: 256,
            timeout: Some(Duration::from_secs(30)),
        });
        let tickets: Vec<_> = (0..200)
            .map(|_| pool.submit(|| std::thread::current().id()).unwrap())
            .collect();
        let ids: HashSet<_> = tickets
            .into_iter()
            .map(|t| match t.wait() {
                Outcome::Done(id) => id,
                other => panic!("expected Done, got {other:?}"),
            })
            .collect();
        assert!(ids.len() <= 4, "{} distinct task threads", ids.len());
        pool.shutdown();
    }

    #[test]
    fn task_pool_delivers_each_outcome_exactly_once_around_the_deadline() {
        let timeout = Duration::from_millis(20);
        let pool = TaskPool::new(TaskPoolConfig {
            workers: 4,
            queue_cap: 64,
            timeout: Some(timeout),
        });
        let n = 40u32;
        let calls: Arc<Vec<AtomicUsize>> = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let (tx, rx) = mpsc::channel();
        for i in 0..n {
            // Durations from 0 to 2× the timeout, straddling it.
            let nap = timeout * 2 * i / (n - 1);
            let calls = Arc::clone(&calls);
            let tx = tx.clone();
            pool.submit_with(
                move || std::thread::sleep(nap),
                move |o| {
                    calls[i as usize].fetch_add(1, Ordering::SeqCst);
                    tx.send(o).unwrap();
                },
            )
            .unwrap();
        }
        for _ in 0..n {
            let o = rx.recv_timeout(Duration::from_secs(5)).expect("an outcome");
            assert!(matches!(o, Outcome::Done(()) | Outcome::TimedOut), "{o:?}");
        }
        // Every late task has ended: a second delivery would be in.
        assert!(eventually(|| pool.runaway() == 0 && pool.in_flight() == 0));
        for (i, c) in calls.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "task {i}");
        }
        pool.shutdown();
    }

    #[test]
    fn task_pool_reclaims_a_timed_out_slot() {
        let pool = TaskPool::new(TaskPoolConfig {
            workers: 1,
            queue_cap: 8,
            timeout: Some(Duration::from_millis(30)),
        });
        let started = Instant::now();
        let sleeper = pool
            .submit(|| std::thread::sleep(Duration::from_secs(10)))
            .unwrap();
        let next = pool.submit(|| 5u32).unwrap();
        assert_eq!(sleeper.wait(), Outcome::TimedOut);
        assert_eq!(next.wait(), Outcome::Done(5));
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(pool.runaway(), 1, "the sleeper still runs");
        assert!(eventually(|| pool.in_flight() == 0));
    }

    #[test]
    fn task_pool_shutdown_does_not_wait_for_a_runaway() {
        let pool = TaskPool::new(TaskPoolConfig {
            workers: 1,
            queue_cap: 8,
            timeout: Some(Duration::from_millis(30)),
        });
        let sleeper = pool
            .submit(|| std::thread::sleep(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(sleeper.wait(), Outcome::TimedOut);
        let started = Instant::now();
        pool.shutdown();
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn task_pool_dropped_on_its_own_worker_does_not_deadlock() {
        for timeout in [None, Some(Duration::from_secs(30))] {
            let pool = Arc::new(TaskPool::new(TaskPoolConfig {
                workers: 2,
                queue_cap: 8,
                timeout,
            }));
            let (go_tx, go_rx) = mpsc::channel::<()>();
            let (dropped_tx, dropped_rx) = mpsc::channel();
            let last = Arc::clone(&pool);
            pool.submit(move || {
                go_rx.recv().unwrap();
                drop(last); // the last handle: the pool drops on this worker
                dropped_tx.send(()).unwrap();
            })
            .unwrap();
            drop(pool);
            go_tx.send(()).unwrap();
            assert!(
                dropped_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
                "drop on the pool's own worker hung (timeout {timeout:?})"
            );
        }
    }

    #[test]
    fn task_pool_dropped_from_a_timed_out_callback_keeps_timing_out() {
        let pool = Arc::new(TaskPool::new(TaskPoolConfig {
            workers: 1,
            queue_cap: 8,
            timeout: Some(Duration::from_millis(50)),
        }));
        let (tx, rx) = mpsc::channel();
        let last = Arc::clone(&pool);
        pool.submit_with(
            || std::thread::sleep(Duration::from_secs(10)),
            move |_| drop(last), // the last handle: the pool drops on the watchdog
        )
        .unwrap();
        // Picked up by the replacement worker while the pool drops.
        pool.submit_with(
            || std::thread::sleep(Duration::from_secs(10)),
            move |o| tx.send(o).unwrap(),
        )
        .unwrap();
        drop(pool);
        let second = rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(second, Ok(Outcome::TimedOut));
    }

    #[test]
    fn task_pool_runs_short_when_a_replacement_fails_to_spawn() {
        let pool = TaskPool::new(TaskPoolConfig {
            workers: 2,
            queue_cap: 64,
            timeout: Some(Duration::from_millis(30)),
        });
        pool.shared.fail_spawns.store(true, Ordering::SeqCst);
        let sleeper = pool
            .submit(|| std::thread::sleep(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(sleeper.wait(), Outcome::TimedOut);
        // One worker is left, and it runs everything.
        let tickets: Vec<_> = (0..20)
            .map(|_| pool.submit(|| std::thread::current().id()).unwrap())
            .collect();
        let ids: HashSet<_> = tickets
            .into_iter()
            .map(|t| match t.wait() {
                Outcome::Done(id) => id,
                other => panic!("expected Done, got {other:?}"),
            })
            .collect();
        assert_eq!(ids.len(), 1);
        // The watchdog survived the failed spawn: it still times out.
        let second = pool
            .submit(|| std::thread::sleep(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(second.wait(), Outcome::TimedOut);
        assert_eq!(pool.runaway(), 2);
        pool.shutdown();
    }
}
