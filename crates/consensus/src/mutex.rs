//! Lock-based consensus baseline.

use parking_lot::Mutex;
use tokensync_spec::ProcessId;

use crate::interface::Consensus;

/// A trivially correct lock-based consensus object.
///
/// The first proposal to acquire the lock wins. Used as a differential
/// baseline in tests and benches; unlike [`CasConsensus`](crate::CasConsensus)
/// it is *not* wait-free in the abstract crash model (a process that crashes
/// inside the critical section would block everyone), so it never appears
/// inside the paper's constructions.
#[derive(Debug, Default)]
pub struct MutexConsensus<T> {
    decided: Mutex<Option<T>>,
}

impl<T: Clone + Send> MutexConsensus<T> {
    /// Creates an undecided consensus object.
    pub fn new() -> Self {
        Self {
            decided: Mutex::new(None),
        }
    }
}

impl<T: Clone + Send> Consensus<T> for MutexConsensus<T> {
    fn propose(&self, _process: ProcessId, value: T) -> T {
        let mut slot = self.decided.lock();
        slot.get_or_insert(value).clone()
    }

    fn peek(&self) -> Option<T> {
        self.decided.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_proposal_wins() {
        let c = MutexConsensus::new();
        assert_eq!(c.propose(ProcessId::new(0), "a"), "a");
        assert_eq!(c.propose(ProcessId::new(1), "b"), "a");
        assert_eq!(c.peek(), Some("a"));
    }

    #[test]
    fn agreement_across_threads() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let c: Arc<MutexConsensus<usize>> = Arc::new(MutexConsensus::new());
        let mut decisions = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let c = Arc::clone(&c);
                    s.spawn(move || c.propose(ProcessId::new(i), i))
                })
                .collect();
            for h in handles {
                decisions.push(h.join().unwrap());
            }
        });
        assert_eq!(decisions.iter().collect::<HashSet<_>>().len(), 1);
    }
}
