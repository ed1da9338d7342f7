//! Herlihy's wait-free universal construction.
//!
//! Any object with a sequential specification can be wait-free implemented
//! from consensus objects and registers (Theorem of Herlihy 1991, recalled
//! in Section 3.1 of the paper). This module provides that construction:
//! operations are appended to a shared log, one consensus instance deciding
//! the operation at each log position, with an announce array providing the
//! *helping* needed for wait-freedom.
//!
//! In the paper's framing this is the "blockchain status quo": run *every*
//! method of the smart contract through consensus. The whole point of the
//! paper is that tokens usually need far less; [`Universal`] is therefore
//! the baseline our benches compare against.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use tokensync_registers::{Register, RegisterArray};
use tokensync_spec::{ObjectType, ProcessId};

use crate::cas::CasConsensus;
use crate::interface::Consensus;

/// One log entry: process `process` performs `op` as its `seq`-th operation.
#[derive(Clone, Debug, PartialEq)]
struct Entry<Op> {
    process: ProcessId,
    seq: u64,
    op: Op,
}

impl<Op> Entry<Op> {
    fn key(&self) -> (ProcessId, u64) {
        (self.process, self.seq)
    }
}

/// Decided log prefix together with the replayed object state.
#[derive(Debug)]
struct LogState<T: ObjectType> {
    entries: Vec<Entry<T::Op>>,
    responses: Vec<T::Resp>,
    state: T::State,
}

/// A wait-free linearizable shared object built from consensus objects and
/// registers around any sequential specification.
///
/// # Example
///
/// ```
/// use tokensync_consensus::Universal;
/// use tokensync_spec::{ObjectType, ProcessId};
///
/// struct Counter;
/// impl ObjectType for Counter {
///     type State = u64;
///     type Op = ();
///     type Resp = u64;
///     fn initial_state(&self) -> u64 { 0 }
///     fn apply(&self, s: &mut u64, _p: ProcessId, _op: &()) -> u64 {
///         let old = *s; *s += 1; old
///     }
/// }
///
/// let obj = Universal::new(Counter, 2);
/// assert_eq!(obj.perform(ProcessId::new(0), ()), 0);
/// assert_eq!(obj.perform(ProcessId::new(1), ()), 1);
/// ```
pub struct Universal<T: ObjectType> {
    object: T,
    n: usize,
    /// Pending operation of each process, published for helpers.
    announce: RegisterArray<Option<Entry<T::Op>>>,
    /// Per-process operation counters (distinguish re-invocations).
    seqs: Vec<AtomicU64>,
    /// One consensus instance per log position, created on demand.
    slots: Mutex<Vec<std::sync::Arc<CasConsensus<Entry<T::Op>>>>>,
    /// Cache of the decided prefix and replayed state. The cache is *not*
    /// the synchronization mechanism (the consensus instances are); it only
    /// avoids replaying the log from scratch on every operation.
    log: Mutex<LogState<T>>,
}

impl<T: ObjectType> Universal<T>
where
    T::Op: Send + Sync,
    T::Resp: Send + Sync,
    T::State: Send + Sync,
{
    /// Wraps `object` for `n` processes, starting from its initial state.
    pub fn new(object: T, n: usize) -> Self {
        let state = object.initial_state();
        Self {
            object,
            n,
            announce: RegisterArray::new(n, None),
            seqs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            slots: Mutex::new(Vec::new()),
            log: Mutex::new(LogState {
                entries: Vec::new(),
                responses: Vec::new(),
                state,
            }),
        }
    }

    fn slot(&self, index: usize) -> std::sync::Arc<CasConsensus<Entry<T::Op>>> {
        let mut slots = self.slots.lock();
        while slots.len() <= index {
            slots.push(std::sync::Arc::new(CasConsensus::new(self.n)));
        }
        std::sync::Arc::clone(&slots[index])
    }

    /// Records `decided` as the entry at position `index` (idempotent) and
    /// returns the response it produced.
    fn integrate(&self, index: usize, decided: Entry<T::Op>) -> T::Resp {
        let mut log = self.log.lock();
        if log.entries.len() == index {
            let resp = self
                .object
                .apply(&mut log.state, decided.process, &decided.op);
            log.entries.push(decided);
            log.responses.push(resp);
        }
        debug_assert!(log.entries.len() > index);
        log.responses[index].clone()
    }

    fn already_applied(&self, key: (ProcessId, u64)) -> Option<usize> {
        let log = self.log.lock();
        log.entries.iter().position(|e| e.key() == key)
    }

    /// Performs `op` on behalf of `process`, returning its response in the
    /// linearization order decided by the consensus log.
    ///
    /// Wait-free: after at most `n + 1` log positions the helping rule
    /// guarantees this process's announced operation is decided (when a
    /// position `i` with `i mod n == process.index()` comes up, every
    /// contender proposes this operation).
    ///
    /// # Panics
    ///
    /// Panics if `process.index() >= n`.
    pub fn perform(&self, process: ProcessId, op: T::Op) -> T::Resp {
        let i = process.index();
        assert!(
            i < self.n,
            "process {process} out of range for n = {}",
            self.n
        );
        let seq = self.seqs[i].fetch_add(1, Ordering::SeqCst) + 1;
        let mine = Entry { process, seq, op };
        let my_key = mine.key();
        self.announce.at(i).write(Some(mine.clone()));

        loop {
            if let Some(pos) = self.already_applied(my_key) {
                self.announce.at(i).write(None);
                return self.integrate(pos, mine);
            }
            let index = self.log.lock().entries.len();
            // Helping rule: give priority to the process whose turn this
            // position is, if it has a pending announced operation.
            let preferred = self.announce.at(index % self.n).read();
            let candidate = match preferred {
                Some(entry) if self.already_applied(entry.key()).is_none() => entry,
                _ => mine.clone(),
            };
            let decided = self.slot(index).propose(process, candidate);
            let is_mine = decided.key() == my_key;
            let resp = self.integrate(index, decided);
            if is_mine {
                self.announce.at(i).write(None);
                return resp;
            }
        }
    }

    /// Returns a clone of the current replayed state (diagnostic; the value
    /// is immediately stale under concurrency).
    pub fn snapshot(&self) -> T::State {
        self.log.lock().state.clone()
    }

    /// Number of operations decided so far.
    pub fn log_len(&self) -> usize {
        self.log.lock().entries.len()
    }

    /// A reference to the wrapped sequential object.
    pub fn object(&self) -> &T {
        &self.object
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    struct Counter;
    impl ObjectType for Counter {
        type State = u64;
        type Op = ();
        type Resp = u64;
        fn initial_state(&self) -> u64 {
            0
        }
        fn apply(&self, s: &mut u64, _p: ProcessId, _op: &()) -> u64 {
            let old = *s;
            *s += 1;
            old
        }
    }

    #[test]
    fn sequential_semantics_preserved() {
        let u = Universal::new(Counter, 2);
        for expect in 0..10 {
            assert_eq!(u.perform(ProcessId::new(0), ()), expect);
        }
        assert_eq!(u.snapshot(), 10);
        assert_eq!(u.log_len(), 10);
    }

    #[test]
    fn concurrent_increments_return_distinct_values() {
        let n = 4;
        let per = 64;
        let u: Arc<Universal<Counter>> = Arc::new(Universal::new(Counter, n));
        let mut all: Vec<u64> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let u = Arc::clone(&u);
                    s.spawn(move || {
                        (0..per)
                            .map(|_| u.perform(ProcessId::new(i), ()))
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            for h in handles {
                all.extend(h.join().unwrap());
            }
        });
        all.sort_unstable();
        let expect: Vec<u64> = (0..(n * per) as u64).collect();
        assert_eq!(
            all, expect,
            "each log position must be returned exactly once"
        );
        assert_eq!(u.snapshot(), (n * per) as u64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_process_panics() {
        let u = Universal::new(Counter, 1);
        u.perform(ProcessId::new(1), ());
    }
}
