//! One process-wide pool of parked helper threads for morsel-driven
//! parallelism.
//!
//! A stage hands [`Pool::run`] a worker loop (typically: claim morsels
//! from a [`crate::MorselQueue`] until it is empty) and the number of
//! copies of it that may run at once. The submitting thread always runs
//! one copy itself; parked helpers pick up the others. When the caller's
//! copy returns, the queue is drained, so every copy no helper has
//! started yet is *withdrawn*, and the caller waits only for the copies
//! already running. A stage therefore never waits on a helper that
//! another statement keeps busy, and a fan-out from inside a running copy
//! cannot deadlock: its submitter runs the work itself.
//!
//! Helpers start lazily, the first time a stage asks for more than one
//! copy, and the pool grows to the largest count asked for (at most
//! [`MAX_THREADS`] threads, the caller included). A helper catches the
//! unwind of a panicking copy, reports it to the submitter and parks
//! again.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most threads one stage can run on, the submitting thread included.
pub const MAX_THREADS: usize = 256;

/// The process-wide pool every stage submits to.
pub fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::new)
}

/// A set of parked helper threads (see the module docs). Dropping a pool
/// stops and joins its helpers; the process-wide [`pool`] lives as long
/// as the process.
pub struct Pool {
    inner: Arc<Inner>,
}

struct Inner {
    state: Mutex<State>,
    /// `state.jobs.len()`, readable without the lock: a helper that just
    /// finished a copy polls it for [`SPIN`] before it parks. Only a
    /// hint (every claim happens under `state`), so `Relaxed` suffices.
    queued: AtomicUsize,
    /// Helpers park here until a job is queued or the pool shuts down.
    wake: Condvar,
}

/// How long a helper that finished a copy keeps polling for the next job
/// before it parks. A statement's stages follow each other within
/// microseconds, so a polling helper joins the next stage at once, where
/// a parked one may wake too late to take any of its morsels.
const SPIN: Duration = Duration::from_micros(200);

#[derive(Default)]
struct State {
    /// Jobs with copies no helper has started, oldest first.
    jobs: VecDeque<Arc<Job>>,
    helpers: Vec<JoinHandle<()>>,
    shutdown: bool,
}

/// One submitted stage. It is owned by an `Arc`, never borrowed from the
/// submitter's stack, so a helper can still signal it after the
/// submitter has woken and returned.
struct Job {
    copies: Mutex<Copies>,
    /// Signalled when the last running copy returns.
    done: Condvar,
}

struct Copies {
    /// The worker loop, with its lifetime erased; `None` once the
    /// submitter has returned (see [`Pool::run`] for why a `Some` is
    /// always alive).
    body: Option<&'static (dyn Fn() + Sync)>,
    /// Copies no helper has started yet.
    unclaimed: usize,
    /// Copies helpers are running now.
    running: usize,
    /// Copies that panicked on a helper.
    panics: usize,
}

/// What one [`Pool::run`] did.
#[derive(Debug)]
pub struct Ran<R> {
    /// What each copy that ran to completion returned, in finishing
    /// order. Withdrawn copies never ran and return nothing.
    pub outputs: Vec<R>,
    /// Copies that panicked, the caller's included.
    pub panics: usize,
    /// Helper threads this call started (the pool grew).
    pub started: usize,
}

impl<R> Ran<R> {
    /// Copies that ran: the caller's and every helper's that joined.
    pub fn workers(&self) -> usize {
        self.outputs.len() + self.panics
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Nothing panics while holding a pool lock (copies run unlocked), so
    // a poisoned lock still guards consistent state.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

impl Pool {
    /// A pool with no helpers yet.
    pub fn new() -> Self {
        let inner =
            Inner { state: Mutex::default(), queued: AtomicUsize::new(0), wake: Condvar::new() };
        Pool { inner: Arc::new(inner) }
    }

    /// Helper threads started so far.
    #[cfg(test)]
    fn helpers(&self) -> usize {
        lock(&self.inner.state).helpers.len()
    }

    /// Run up to `copies` copies of `body` at once, one on the calling
    /// thread and the rest on helpers, and return once every copy that
    /// started has returned. `body` must find its own work (say, from a
    /// shared queue) and return when there is none left: the caller's
    /// copy returning withdraws the copies no helper has started.
    ///
    /// With `copies <= 1` the caller runs one copy and no helper is
    /// involved. A panicking copy is counted in [`Ran::panics`] and does
    /// not unwind into the caller.
    pub fn run<R: Send>(&self, copies: usize, body: impl Fn() -> R + Sync) -> Ran<R> {
        let copies = copies.clamp(1, MAX_THREADS);
        let outputs = Mutex::new(Vec::with_capacity(copies));
        let body = || {
            let out = body();
            lock(&outputs).push(out);
        };
        if copies == 1 {
            let panics = usize::from(catch_unwind(AssertUnwindSafe(body)).is_err());
            return Ran {
                outputs: outputs.into_inner().unwrap_or_else(PoisonError::into_inner),
                panics,
                started: 0,
            };
        }
        let body: &(dyn Fn() + Sync) = &body;
        let job = Arc::new(Job {
            copies: Mutex::new(Copies {
                body: Some(erase(body)),
                unclaimed: copies - 1,
                running: 0,
                panics: 0,
            }),
            done: Condvar::new(),
        });
        let started = {
            let mut state = lock(&self.inner.state);
            let started = self.grow(&mut state, copies - 1);
            state.jobs.push_back(Arc::clone(&job));
            self.inner.queued.store(state.jobs.len(), Ordering::Relaxed);
            started
        };
        for _ in 1..copies {
            self.inner.wake.notify_one();
        }
        let caller_panicked = catch_unwind(AssertUnwindSafe(body)).is_err();
        // Withdraw the copies no helper has started, then wait for the
        // running ones.
        let mut state = lock(&self.inner.state);
        state.jobs.retain(|j| !Arc::ptr_eq(j, &job));
        self.inner.queued.store(state.jobs.len(), Ordering::Relaxed);
        let mut c = lock(&job.copies);
        drop(state);
        c.unclaimed = 0;
        while c.running > 0 {
            c = job.done.wait(c).unwrap_or_else(PoisonError::into_inner);
        }
        // SAFETY (of the erasure in `erase`): every helper copies `body`
        // out of `Copies` only while claiming a copy, under this lock,
        // with `unclaimed > 0`, and is done with it before it decrements
        // `running` under the same lock (a panic is caught first). Here
        // `unclaimed` is 0 and `running` is 0 under the lock, so no helper
        // holds or can take the reference any more, and it is cleared
        // before the borrow it came from ends. This function neither
        // returns nor unwinds before this point: the caller's copy runs
        // under `catch_unwind`.
        c.body = None;
        let panics = c.panics + usize::from(caller_panicked);
        drop(c);
        Ran {
            outputs: outputs.into_inner().unwrap_or_else(PoisonError::into_inner),
            panics,
            started,
        }
    }

    /// Start helpers until there are `want` (at most `MAX_THREADS - 1`);
    /// returns how many started. A helper that fails to spawn is not
    /// retried now: the caller runs the work itself.
    fn grow(&self, state: &mut State, want: usize) -> usize {
        let mut started = 0;
        while state.helpers.len() < want.min(MAX_THREADS - 1) {
            let inner = Arc::clone(&self.inner);
            let spawned = std::thread::Builder::new()
                .name(format!("mduck-pool-{}", state.helpers.len()))
                .spawn(move || helper(&inner));
            match spawned {
                Ok(handle) => state.helpers.push(handle),
                Err(_) => break,
            }
            started += 1;
        }
        started
    }
}

/// Erase the lifetime of a borrowed worker loop so a persistent helper
/// thread can hold it. [`Pool::run`] guarantees the borrow outlives
/// every use; its `SAFETY` comment gives the argument.
#[allow(unsafe_code)]
fn erase<'a>(body: &'a (dyn Fn() + Sync + 'a)) -> &'static (dyn Fn() + Sync + 'static) {
    // SAFETY: only the lifetime changes (same fat-pointer layout). The
    // reference lives in `Copies::body` until `Pool::run` clears it after
    // the last helper use and before `body`'s borrow ends.
    unsafe { std::mem::transmute::<&'a (dyn Fn() + Sync + 'a), &'static (dyn Fn() + Sync)>(body) }
}

/// A helper's life: poll, then park, until a job has an unclaimed copy;
/// run it, report, repeat; exit when the pool is dropped.
fn helper(inner: &Inner) {
    loop {
        let polled = Instant::now();
        while inner.queued.load(Ordering::Relaxed) == 0 && polled.elapsed() < SPIN {
            std::hint::spin_loop();
        }
        let (job, body) = {
            let mut state = lock(&inner.state);
            loop {
                if let Some(job) = state.jobs.front().map(Arc::clone) {
                    let mut c = lock(&job.copies);
                    // A queued job always has an unclaimed copy: the
                    // submitter dequeues it before withdrawing the rest.
                    c.unclaimed = c.unclaimed.saturating_sub(1);
                    c.running += 1;
                    let (body, last) = (c.body, c.unclaimed == 0);
                    drop(c);
                    if last {
                        state.jobs.pop_front();
                        inner.queued.store(state.jobs.len(), Ordering::Relaxed);
                    }
                    break (job, body);
                }
                if state.shutdown {
                    return;
                }
                state = inner.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let panicked = body.is_some_and(|body| catch_unwind(AssertUnwindSafe(body)).is_err());
        let mut c = lock(&job.copies);
        c.running -= 1;
        c.panics += usize::from(panicked);
        if c.running == 0 {
            job.done.notify_all();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let helpers = {
            let mut state = lock(&self.inner.state);
            state.shutdown = true;
            std::mem::take(&mut state.helpers)
        };
        self.inner.wake.notify_all();
        for h in helpers {
            // Helpers catch every copy's panic, so a join error cannot
            // carry one; there is nothing to report.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MorselQueue;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::thread::current;

    /// Copies of a worker loop that claim every morsel of `queue`; each
    /// returns how many it claimed.
    fn drain(queue: &MorselQueue) -> usize {
        std::iter::from_fn(|| queue.claim()).count()
    }

    #[test]
    fn a_single_copy_runs_on_the_caller_and_starts_no_helper() {
        let pool = Pool::new();
        let caller = current().id();
        let queue = MorselQueue::new(1);
        let ran = pool.run(1, || {
            assert_eq!(current().id(), caller);
            drain(&queue)
        });
        assert_eq!((ran.outputs, ran.panics, ran.started), (vec![1], 0, 0));
        assert_eq!(pool.helpers(), 0);
    }

    #[test]
    fn a_stage_withdraws_the_copies_a_busy_helper_never_started() {
        let pool = Pool::new();
        let (meet, release) = (Barrier::new(2), Barrier::new(2));
        let (entered, held) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Stage A: both copies meet, so the only helper joins it,
                // then the helper's copy waits to be released.
                let submitter = current().id();
                let ran = pool.run(2, || {
                    meet.wait();
                    if current().id() != submitter {
                        entered.send(()).expect("the test thread is listening");
                        release.wait();
                    }
                });
                assert_eq!(ran.workers(), 2);
            });
            held.recv().expect("stage A's helper copy starts");
            // Stage B: its caller drains the queue alone and withdraws
            // the copy the held helper never started.
            let queue = MorselQueue::new(100);
            let ran = pool.run(2, || drain(&queue));
            assert_eq!((ran.outputs, ran.panics, ran.started), (vec![100], 0, 0));
            assert_eq!(pool.helpers(), 1);
            release.wait();
        });
    }

    #[test]
    fn a_fan_out_from_a_running_copy_does_not_deadlock() {
        let pool = Pool::new();
        let meet = Barrier::new(2);
        let claimed = AtomicUsize::new(0);
        let ran = pool.run(2, || {
            // Both outer copies run (one on the helper), and each fans out
            // again while the only helper is busy.
            meet.wait();
            let queue = MorselQueue::new(50);
            let inner = pool.run(2, || drain(&queue));
            claimed.fetch_add(inner.outputs.iter().sum(), Ordering::Relaxed);
        });
        assert_eq!(ran.workers(), 2);
        assert_eq!(claimed.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn a_helper_survives_a_panicking_copy() {
        let pool = Pool::new();
        let meet = Barrier::new(2);
        let submitter = current().id();
        let ran = pool.run(2, || {
            meet.wait();
            if current().id() != submitter {
                panic!("a bug in a worker");
            }
        });
        assert_eq!((ran.outputs.len(), ran.panics), (1, 1));
        // The same helper serves the next stage: both copies meet again.
        let ran = pool.run(2, || meet.wait());
        assert_eq!((ran.workers(), ran.panics, ran.started), (2, 0, 0));
        assert_eq!(pool.helpers(), 1);
    }

    /// Four submitters run thousands of stages over two helpers; every
    /// morsel of every stage is claimed exactly once.
    #[test]
    fn stress_every_morsel_is_claimed_once() {
        let pool = Pool::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = &pool;
                s.spawn(move || {
                    for stage in 0..3000 {
                        let n = 1 + (stage * 7 + t) % 40;
                        let queue = MorselQueue::new(n);
                        let seen: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                        let ran = pool.run(3, || {
                            std::iter::from_fn(|| queue.claim())
                                .inspect(|&i| {
                                    seen[i].fetch_add(1, Ordering::Relaxed);
                                })
                                .count()
                        });
                        assert_eq!(ran.panics, 0);
                        assert_eq!(ran.outputs.iter().sum::<usize>(), n);
                        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
                    }
                });
            }
        });
        assert_eq!(pool.helpers(), 2);
    }
}
