//! Registers whose values carry monotonically increasing write stamps.

use parking_lot::RwLock;

/// A value paired with the stamp of the write that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Stamped<T> {
    /// Number of writes applied to the register before and including the one
    /// that produced this value (the initial value has stamp 0).
    pub stamp: u64,
    /// The stored value.
    pub value: T,
}

/// An atomic register that stamps every write with a strictly increasing
/// sequence number.
///
/// Stamps let readers detect intervening writes, which is what the
/// double-collect [`scan`](crate::scan) relies on.
///
/// # Example
///
/// ```
/// use tokensync_registers::StampedRegister;
///
/// let reg = StampedRegister::new(0u32);
/// assert_eq!(reg.read().stamp, 0);
/// reg.write(5);
/// let s = reg.read();
/// assert_eq!((s.stamp, s.value), (1, 5));
/// ```
#[derive(Debug)]
pub struct StampedRegister<T> {
    cell: RwLock<Stamped<T>>,
}

impl<T: Clone + Send + Sync> StampedRegister<T> {
    /// Creates a register holding `initial` with stamp 0.
    pub fn new(initial: T) -> Self {
        Self {
            cell: RwLock::new(Stamped {
                stamp: 0,
                value: initial,
            }),
        }
    }

    /// Reads the current stamped value.
    pub fn read(&self) -> Stamped<T> {
        self.cell.read().clone()
    }

    /// Writes `value`, incrementing the stamp.
    pub fn write(&self, value: T) {
        let mut guard = self.cell.write();
        guard.stamp += 1;
        guard.value = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_increase_per_write() {
        let r = StampedRegister::new('a');
        r.write('b');
        r.write('c');
        let s = r.read();
        assert_eq!(s.stamp, 2);
        assert_eq!(s.value, 'c');
    }

    #[test]
    fn concurrent_writes_produce_distinct_stamps() {
        use std::sync::Arc;
        let r = Arc::new(StampedRegister::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for v in 0..16 {
                        r.write(v);
                    }
                });
            }
        });
        assert_eq!(r.read().stamp, 64);
    }
}
