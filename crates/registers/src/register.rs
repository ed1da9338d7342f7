//! The register trait and its two basic implementations.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

/// A multi-reader multi-writer atomic register.
///
/// Both operations are wait-free and linearizable. This is the `read`/`write`
/// object of Section 3.1 of the paper; by the FLP-derived result recalled
/// there, registers alone have consensus number 1.
pub trait Register<T: Clone>: Send + Sync {
    /// Reads the current value.
    fn read(&self) -> T;

    /// Writes `value` into the register.
    fn write(&self, value: T);
}

/// A general-purpose MRMW atomic register holding any `Clone` value.
///
/// Internally a [`parking_lot::RwLock`]; every operation is one bounded
/// critical section, so the implementation is effectively wait-free (no
/// operation can be blocked indefinitely by a crashed process *holding* the
/// lock, because the lock is never held across external code and the process
/// model for real threads is crash = whole-program stop; the deterministic
/// model checker uses explicit-state registers instead).
///
/// # Example
///
/// ```
/// use tokensync_registers::{AtomicRegister, Register};
///
/// let reg: AtomicRegister<Option<&str>> = AtomicRegister::new(None);
/// reg.write(Some("proposal"));
/// assert_eq!(reg.read(), Some("proposal"));
/// ```
pub struct AtomicRegister<T> {
    cell: RwLock<T>,
}

impl<T: Clone + Send + Sync> AtomicRegister<T> {
    /// Creates a register holding `initial`.
    pub fn new(initial: T) -> Self {
        Self {
            cell: RwLock::new(initial),
        }
    }

    /// Consumes the register and returns its final value.
    pub fn into_inner(self) -> T {
        self.cell.into_inner()
    }
}

impl<T: Clone + Send + Sync + Default> Default for AtomicRegister<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: Clone + Send + Sync> Register<T> for AtomicRegister<T> {
    fn read(&self) -> T {
        self.cell.read().clone()
    }

    fn write(&self, value: T) {
        *self.cell.write() = value;
    }
}

impl<T: Clone + Send + Sync + fmt::Debug> fmt::Debug for AtomicRegister<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AtomicRegister").field(&self.read()).finish()
    }
}

/// A lock-free MRMW atomic register specialized to `u64`.
///
/// Used on hot paths (allowance mirrors, stamps) where the generality of
/// [`AtomicRegister`] is unnecessary.
#[derive(Debug, Default)]
pub struct U64Register {
    cell: AtomicU64,
}

impl U64Register {
    /// Creates a register holding `initial`.
    pub fn new(initial: u64) -> Self {
        Self {
            cell: AtomicU64::new(initial),
        }
    }
}

impl Register<u64> for U64Register {
    fn read(&self) -> u64 {
        self.cell.load(Ordering::SeqCst)
    }

    fn write(&self, value: u64) {
        self.cell.store(value, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn atomic_register_reads_last_write() {
        let r = AtomicRegister::new(1u8);
        assert_eq!(r.read(), 1);
        r.write(9);
        assert_eq!(r.read(), 9);
    }

    #[test]
    fn u64_register_reads_last_write() {
        let r = U64Register::new(0);
        r.write(42);
        assert_eq!(r.read(), 42);
    }

    #[test]
    fn registers_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AtomicRegister<Vec<u64>>>();
        assert_send_sync::<U64Register>();
    }

    #[test]
    fn into_inner_returns_final_value() {
        let r = AtomicRegister::new(vec![1, 2]);
        r.write(vec![3]);
        assert_eq!(r.into_inner(), vec![3]);
    }

    #[test]
    fn concurrent_writes_leave_one_of_the_written_values() {
        let r = Arc::new(U64Register::new(0));
        std::thread::scope(|s| {
            for v in 1..=8u64 {
                let r = Arc::clone(&r);
                s.spawn(move || r.write(v));
            }
        });
        let final_value = r.read();
        assert!((1..=8).contains(&final_value));
    }
}
