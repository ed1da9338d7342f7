//! Double-collect scans over families of stamped registers.

use crate::stamped::{Stamped, StampedRegister};

/// Returns a consistent view of `regs`: a vector of values that all
/// coexisted at some single point during the call.
///
/// Implementation: the classic *double collect* — repeatedly read all
/// registers twice and return the first collect whose stamps are unchanged
/// by the second. Two identical collects pin a linearization point between
/// them.
///
/// This scan is **lock-free but not wait-free**: a scanner can in principle
/// be outpaced forever by concurrent writers. The constructions of the paper
/// never need an atomic scan (Algorithm 1 reads allowances one by one and
/// relies on monotonicity instead), so we provide the simple primitive and
/// use it only in tests, examples and diagnostics, never inside wait-free
/// algorithms. A fully wait-free atomic snapshot (Afek et al.) is
/// deliberately out of scope; see `docs/paper-map.md`, "The model
/// (§2–§3)".
///
/// # Example
///
/// ```
/// use tokensync_registers::{scan, StampedRegister};
///
/// let regs: Vec<StampedRegister<u32>> =
///     (0..3).map(StampedRegister::new).collect();
/// assert_eq!(scan(&regs), vec![0, 1, 2]);
/// ```
pub fn scan<T: Clone + Send + Sync>(regs: &[StampedRegister<T>]) -> Vec<T> {
    loop {
        let first: Vec<Stamped<T>> = regs.iter().map(StampedRegister::read).collect();
        let second: Vec<Stamped<T>> = regs.iter().map(StampedRegister::read).collect();
        if first
            .iter()
            .zip(second.iter())
            .all(|(a, b)| a.stamp == b.stamp)
        {
            return first.into_iter().map(|s| s.value).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn scan_of_quiescent_registers_returns_values() {
        let regs: Vec<StampedRegister<u64>> = (0..5).map(StampedRegister::new).collect();
        assert_eq!(scan(&regs), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn scan_under_contention_returns_consistent_pairs() {
        // Writers keep the invariant regs[0] == regs[1]; a consistent scan
        // must observe equal values.
        let regs: Arc<Vec<StampedRegister<u64>>> =
            Arc::new((0..2).map(|_| StampedRegister::new(0)).collect());
        let stop = Arc::new(AtomicBool::new(false));

        std::thread::scope(|s| {
            {
                let regs = Arc::clone(&regs);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut v = 0;
                    while !stop.load(Ordering::Relaxed) {
                        v += 1;
                        // Writes are not atomic together; only the double
                        // collect makes the pair appear consistent.
                        regs[0].write(v);
                        regs[1].write(v);
                    }
                });
            }
            for _ in 0..100 {
                let view = scan(&regs);
                assert!(
                    view[0] == view[1] || view[0] == view[1] + 1 || view[1] == view[0] + 1,
                    "scan returned an impossible pair {view:?}"
                );
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
