//! Std-backed locks with a `parking_lot`-shaped API.
//!
//! Replaces the external `parking_lot` dependency so the workspace builds
//! fully offline. Unlike raw `std::sync` locks, `read()`/`write()`/`lock()`
//! here never return a `Result`: a poisoned lock is *recovered* instead of
//! propagated. That choice is deliberate and part of the engine's no-panic
//! contract — with the `catch_unwind` backstop in `mduck_sql::session`, a
//! panicking query must not permanently wedge the registry locks of an
//! embedded database shared by other threads.

#![deny(unsafe_code)]

pub mod pool;

pub use pool::{pool, Pool, Ran, MAX_THREADS};

use std::sync::PoisonError;

/// A reader-writer lock that recovers from poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A mutex that recovers from poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A lock-free work queue for morsel-driven parallelism: `n` units of
/// work (morsel indexes `0..n`), claimed one at a time by any number of
/// worker threads via an atomic cursor. Once a worker hits an error it
/// calls [`MorselQueue::stop`] so the rest of the fleet drains quickly
/// instead of finishing the whole input.
#[derive(Debug)]
pub struct MorselQueue {
    next: std::sync::atomic::AtomicUsize,
    stop: std::sync::atomic::AtomicBool,
    n: usize,
}

impl MorselQueue {
    pub fn new(n: usize) -> Self {
        MorselQueue {
            next: std::sync::atomic::AtomicUsize::new(0),
            stop: std::sync::atomic::AtomicBool::new(false),
            n,
        }
    }

    /// Claim the next unclaimed morsel index, or `None` when the queue is
    /// exhausted or stopped. Each index is handed out exactly once.
    pub fn claim(&self) -> Option<usize> {
        if self.stopped() {
            return None;
        }
        let i = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (i < self.n).then_some(i)
    }

    /// Ask all workers to stop claiming (used on first error / guard trip).
    pub fn stop(&self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn stopped(&self) -> bool {
        self.stop.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total number of morsels this queue was created with.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(1);
        assert_eq!(*l.read(), 1);
        *l.write() += 1;
        assert_eq!(*l.read(), 2);
    }

    #[test]
    fn poisoned_lock_recovers() {
        use std::sync::Arc;
        let l = Arc::new(RwLock::new(5));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison it");
        })
        .join();
        // A std lock would now return Err(Poisoned); ours recovers.
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(vec![1]);
        m.lock().push(2);
        assert_eq!(*m.lock(), vec![1, 2]);
    }

    #[test]
    fn morsel_queue_hands_out_each_index_once() {
        let q = MorselQueue::new(1000);
        let claimed = Mutex::new(vec![false; 1000]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(i) = q.claim() {
                        let mut c = claimed.lock();
                        assert!(!c[i], "morsel {i} claimed twice");
                        c[i] = true;
                    }
                });
            }
        });
        assert!(claimed.lock().iter().all(|b| *b), "some morsel never claimed");
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn morsel_queue_stop_drains() {
        let q = MorselQueue::new(10);
        assert_eq!(q.claim(), Some(0));
        q.stop();
        assert_eq!(q.claim(), None);
        assert!(q.stopped());
        assert_eq!(MorselQueue::new(0).claim(), None);
        assert!(MorselQueue::new(0).is_empty());
        assert_eq!(q.len(), 10);
    }
}
