//! Wait-free consensus from compare-and-swap.

use std::sync::atomic::{AtomicUsize, Ordering};

use tokensync_registers::{Register, RegisterArray};
use tokensync_spec::ProcessId;

use crate::interface::Consensus;

/// Wait-free `n`-process consensus built from one compare-and-swap word and
/// `n` atomic registers.
///
/// Compare-and-swap has infinite consensus number (Herlihy 1991), so this
/// object decides among arbitrarily many processes. The protocol is the
/// textbook one: each process publishes its proposal in its register, then
/// races to CAS the winner word from "undecided" to its own index; the value
/// read from the winner's register is the decision.
///
/// # Example
///
/// ```
/// use tokensync_consensus::{CasConsensus, Consensus};
/// use tokensync_spec::ProcessId;
///
/// let c: CasConsensus<u32> = CasConsensus::new(3);
/// assert_eq!(c.peek(), None);
/// let d = c.propose(ProcessId::new(2), 99);
/// assert_eq!(d, 99);
/// assert_eq!(c.peek(), Some(99));
/// ```
pub struct CasConsensus<T> {
    /// 0 = undecided; `i + 1` = process `i` won.
    winner: AtomicUsize,
    proposals: RegisterArray<Option<T>>,
}

impl<T: Clone + Send + Sync + std::fmt::Debug> std::fmt::Debug for CasConsensus<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CasConsensus")
            .field("decided", &self.peek())
            .finish()
    }
}

impl<T: Clone + Send + Sync> CasConsensus<T> {
    /// Creates a consensus object for processes `p0 .. p(n-1)`.
    pub fn new(n: usize) -> Self {
        Self {
            winner: AtomicUsize::new(0),
            proposals: RegisterArray::new(n, None),
        }
    }

    fn decided_value(&self, winner: usize) -> T {
        self.proposals
            .at(winner - 1)
            .read()
            .expect("winner published its proposal before racing")
    }
}

impl<T: Clone + Send + Sync> Consensus<T> for CasConsensus<T> {
    /// # Panics
    ///
    /// Panics if `process.index()` is out of range for this object.
    fn propose(&self, process: ProcessId, value: T) -> T {
        let i = process.index();
        assert!(
            i < self.proposals.len(),
            "process {process} out of range for {}-process consensus",
            self.proposals.len()
        );
        self.proposals.at(i).write(Some(value));
        // Race: only the first CAS succeeds; everyone then agrees on the
        // winner index and reads the winner's (already published) proposal.
        let _ = self
            .winner
            .compare_exchange(0, i + 1, Ordering::SeqCst, Ordering::SeqCst);
        let w = self.winner.load(Ordering::SeqCst);
        self.decided_value(w)
    }

    fn peek(&self) -> Option<T> {
        match self.winner.load(Ordering::SeqCst) {
            0 => None,
            w => Some(self.decided_value(w)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn validity_single_proposer() {
        let c = CasConsensus::new(1);
        assert_eq!(c.propose(ProcessId::new(0), 7), 7);
    }

    #[test]
    fn agreement_under_contention() {
        for _ in 0..50 {
            let n = 8;
            let c: Arc<CasConsensus<usize>> = Arc::new(CasConsensus::new(n));
            let mut decisions = Vec::new();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|i| {
                        let c = Arc::clone(&c);
                        s.spawn(move || c.propose(ProcessId::new(i), i))
                    })
                    .collect();
                for h in handles {
                    decisions.push(h.join().unwrap());
                }
            });
            let distinct: HashSet<_> = decisions.iter().collect();
            assert_eq!(distinct.len(), 1, "disagreement: {decisions:?}");
            // Validity: the decision is one of the proposals 0..n.
            assert!(decisions[0] < n);
        }
    }

    #[test]
    fn repropose_returns_existing_decision() {
        let c = CasConsensus::new(2);
        assert_eq!(c.propose(ProcessId::new(0), 1), 1);
        assert_eq!(c.propose(ProcessId::new(1), 2), 1);
        assert_eq!(c.propose(ProcessId::new(1), 3), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_process_panics() {
        let c: CasConsensus<u8> = CasConsensus::new(1);
        c.propose(ProcessId::new(1), 0);
    }
}
