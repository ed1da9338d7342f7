//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the subset of the `parking_lot 0.12` API its members use: [`Mutex`],
//! [`MutexGuard`], [`RwLock`] and its guards, with `parking_lot`'s
//! non-poisoning semantics. A panicking critical section simply releases
//! the lock, which matches what the concurrent-token implementations in
//! `tokensync-core` assume.
//!
//! Both locks are thin layers over their `std::sync` counterparts that
//! swallow poison ([`PoisonError::into_inner`]). A served object takes
//! one uncontended lock per operation on the one thread that applies
//! its ops, where `std`'s futex mutex is one compare-exchange to lock
//! and one swap to unlock.

#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, TryLockError};

/// A mutual-exclusion lock with `parking_lot`'s non-poisoning `lock()`.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex guarding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex and return the guarded value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire the lock if it is free, without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { inner })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// RAII guard returned by [`Mutex::lock`]: the lock is released on drop,
/// unwinds included.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A reader-writer lock with `parking_lot`'s non-poisoning accessors.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a new lock guarding `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock and return the guarded value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(guard) => f.debug_struct("RwLock").field("data", &*guard).finish(),
            Err(_) => f.write_str("RwLock { <locked> }"),
        }
    }
}

/// RAII guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// RAII guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_mutual_exclusion_under_threads() {
        let counter = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    *counter.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 40_000);
    }

    #[test]
    fn mutex_released_on_panic() {
        let lock = Arc::new(Mutex::new(5));
        let inner = Arc::clone(&lock);
        let _ = std::thread::spawn(move || {
            let _guard = inner.lock();
            panic!("poisoning should not stick");
        })
        .join();
        // parking_lot semantics: the lock is free again, value intact.
        assert_eq!(*lock.lock(), 5);
    }

    #[test]
    fn try_lock_reports_contention() {
        let lock = Mutex::new(1);
        let guard = lock.lock();
        assert!(lock.try_lock().is_none());
        // The failed attempt must not have released the held lock.
        assert!(lock.try_lock().is_none());
        drop(guard);
        assert_eq!(*lock.try_lock().unwrap(), 1);
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut lock = Mutex::new(7);
        *lock.get_mut() += 1;
        assert_eq!(lock.into_inner(), 8);
    }

    #[test]
    fn rwlock_roundtrip() {
        let lock = RwLock::new(3);
        {
            let r1 = lock.read();
            let r2 = lock.read(); // concurrent readers allowed
            assert_eq!(*r1 + *r2, 6);
        }
        *lock.write() += 1;
        assert_eq!(*lock.read(), 4);
        let mut second = RwLock::new(1);
        *second.get_mut() += 1;
        assert_eq!(second.into_inner(), 2);
    }
}
