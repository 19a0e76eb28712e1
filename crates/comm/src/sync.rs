//! Poison-free synchronization primitives over `std::sync`.
//!
//! The runtime originally used `parking_lot`; to keep the workspace
//! hermetic (no registry access at build time) this module provides the
//! same ergonomic surface — `lock()`/`read()`/`write()` without poison
//! `Result`s, and a [`Condvar`] that re-waits through a `&mut` guard —
//! on top of the standard library. Poisoning is deliberately ignored: a
//! rank thread that panics aborts the whole world through the abort
//! flag, so a poisoned mailbox lock is never observed by a healthy rank
//! except while the world is already tearing down.

use std::ops::{Deref, DerefMut};
use std::time::{Duration, Instant};

/// Mutual exclusion without lock poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Take the lock if nobody holds it right now; never waits.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        use std::sync::TryLockError;
        let inner = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { inner: Some(inner) })
    }
}

/// RAII guard for [`Mutex`]; released on drop.
pub struct MutexGuard<'a, T> {
    // `Option` so `Condvar` can move the std guard out and back while
    // the caller keeps holding this wrapper by `&mut`.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// Condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

/// Result of a timed wait.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically release the lock and wait for a notification.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard present");
        guard.inner = Some(self.inner.wait(g).unwrap_or_else(|e| e.into_inner()));
    }

    /// Wait with a timeout measured from now.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard present");
        let (g, res) = self
            .inner
            .wait_timeout(g, timeout)
            .unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(g);
        WaitTimeoutResult {
            timed_out: res.timed_out(),
        }
    }

    /// Wait until an absolute deadline.
    pub fn wait_until<T>(&self, guard: &mut MutexGuard<'_, T>, deadline: Instant) -> WaitTimeoutResult {
        let now = Instant::now();
        if now >= deadline {
            return WaitTimeoutResult { timed_out: true };
        }
        self.wait_for(guard, deadline - now)
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Reader-writer lock without poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// A new lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Acquire shared read access.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_and_rwlock_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        {
            let _held = m.lock();
            assert!(m.try_lock().is_none());
        }
        assert_eq!(m.try_lock().map(|g| *g), Some(2));
        let rw = RwLock::new(5);
        assert_eq!(*rw.read(), 5);
        *rw.write() = 6;
        assert_eq!(*rw.read(), 6);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, c) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                c.wait(&mut ready);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn timed_waits_report_timeout() {
        let m = Mutex::new(());
        let c = Condvar::new();
        let mut g = m.lock();
        assert!(c.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        let past = Instant::now() - Duration::from_millis(1);
        assert!(c.wait_until(&mut g, past).timed_out());
    }

    #[test]
    fn poisoned_locks_recover() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
