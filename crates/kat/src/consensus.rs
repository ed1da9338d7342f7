//! Wait-free consensus among the owners of a `k`-shared account.
//!
//! Guerraoui et al. (PODC 2019) show `CN(k-AT) = k`; the lower-bound
//! construction has the `k` owners of a shared account race to drain its
//! balance — exactly one `transfer` succeeds, and every process can
//! determine the winner by reading the (monotone) destination balances.
//! The paper's Algorithm 1 for ERC20 tokens generalizes this race, so this
//! object doubles as a pedagogical stepping stone and as the consensus
//! engine inside Algorithm 2 round-trips. The race is [`Drain`], run on
//! threads by [`Proposals`].

use tokensync_registers::{Register, RegisterArray};
use tokensync_spec::race::{self, Race, RaceEnv, Scan};
use tokensync_spec::{AccountId, Amount, ProcessId};

use crate::owner_map::OwnerMap;
use crate::shared::SharedAt;
use crate::spec::{AtOp, AtResp};

/// The decisive part of the drain race, for the step machine of
/// [`tokensync_spec::race`]: `a_0` holds `B`, mover `i` fires
/// `transfer(a_0, a_{i+1}, B)`, exactly one lands, and the scan reads
/// `a_1, a_2, …` until one holds `B`. ERC777's Section 6 race is this
/// drain too, with operators in place of owners.
#[derive(Clone, Debug)]
pub struct Drain {
    k: usize,
    balance: Amount,
}

impl Drain {
    /// The race for movers `p_0 .. p_{k-1}` over balance `B = balance`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `balance == 0`.
    pub fn new(k: usize, balance: Amount) -> Self {
        assert!(k > 0, "consensus requires at least one process");
        assert!(balance > 0, "the drained account needs a positive balance");
        Self { k, balance }
    }

    /// `B` on `a_0`, nothing on `a_1 .. a_k`.
    pub fn balances(&self) -> Vec<Amount> {
        let mut balances = vec![0; self.k + 1];
        balances[0] = self.balance;
        balances
    }

    /// Every mover owns `a_0`; mover `i` alone owns `a_{i+1}`.
    pub fn owners(&self) -> OwnerMap {
        let mut owners = OwnerMap::new(self.k + 1);
        for i in 0..self.k {
            owners.add_owner(AccountId::new(0), ProcessId::new(i));
            owners.add_owner(AccountId::new(i + 1), ProcessId::new(i));
        }
        owners
    }
}

impl Race for Drain {
    type Op = AtOp;
    type Resp = AtResp;

    fn movers(&self) -> usize {
        self.k
    }

    fn fire(&self, i: usize) -> AtOp {
        AtOp::Transfer {
            from: AccountId::new(0),
            to: AccountId::new(i + 1),
            value: self.balance,
        }
    }

    fn scan(&self, j: usize) -> Scan<AtOp> {
        if j < self.k {
            Scan::Read(AtOp::BalanceOf {
                account: AccountId::new(j + 1),
            })
        } else {
            Scan::End
        }
    }

    fn judge(&self, j: usize, resp: &AtResp) -> Option<usize> {
        (*resp == AtResp::Amount(self.balance)).then_some(j)
    }
}

/// The registers `R[0..k)` of a race fought by threads, and the driver
/// that runs the [`race`] machine over them and a live token.
pub struct Proposals<V> {
    registers: RegisterArray<Option<V>>,
}

impl<V: Clone + Send + Sync> Proposals<V> {
    /// `k` unwritten registers.
    pub fn new(k: usize) -> Self {
        Self {
            registers: RegisterArray::new(k, None),
        }
    }

    /// Runs `process`'s race on the token behind `apply`; `None` is `⊥`.
    ///
    /// # Panics
    ///
    /// Panics if `process` is not one of the race's movers.
    pub fn propose<R: Race>(
        &self,
        race: &R,
        apply: impl FnMut(ProcessId, &R::Op) -> R::Resp,
        process: ProcessId,
        value: V,
    ) -> Option<V> {
        let i = (0..race.movers())
            .find(|&i| race.process(i) == process)
            .unwrap_or_else(|| panic!("{process} is not a participant of this race"));
        race::propose(race, &mut self.env(apply), i, value)
    }

    /// The decided value, or `None` before any fire has taken effect.
    pub fn peek<R: Race>(
        &self,
        race: &R,
        apply: impl FnMut(ProcessId, &R::Op) -> R::Resp,
    ) -> Option<V> {
        race::peek(race, &mut self.env(apply))
    }

    fn env<A>(&self, apply: A) -> Live<'_, A, V> {
        Live {
            apply,
            registers: &self.registers,
        }
    }
}

/// A live token reached through `apply`, beside the proposal registers.
struct Live<'a, A, V> {
    apply: A,
    registers: &'a RegisterArray<Option<V>>,
}

impl<Op, Resp, A, V> RaceEnv<Op, Resp> for Live<'_, A, V>
where
    A: FnMut(ProcessId, &Op) -> Resp,
    V: Clone + Send + Sync,
{
    type Value = V;

    fn apply(&mut self, process: ProcessId, op: &Op) -> Resp {
        (self.apply)(process, op)
    }

    fn write(&mut self, i: usize, value: V) {
        self.registers.at(i).write(Some(value));
    }

    fn read(&mut self, i: usize) -> Option<V> {
        self.registers.at(i).read()
    }
}

/// Wait-free `k`-process consensus built from one `k`-shared asset transfer
/// object and `k` atomic registers: the [`Drain`] race on a [`SharedAt`].
/// All steps are bounded (one transfer, `k` balance reads, register
/// accesses), so `propose` is wait-free.
///
/// # Example
///
/// ```
/// use tokensync_kat::AtConsensus;
/// use tokensync_spec::ProcessId;
///
/// let c: AtConsensus<&str> = AtConsensus::new(3);
/// assert_eq!(c.propose(ProcessId::new(1), "mid"), "mid");
/// assert_eq!(c.propose(ProcessId::new(0), "first"), "mid");
/// ```
pub struct AtConsensus<T> {
    race: Drain,
    at: SharedAt,
    proposals: Proposals<T>,
}

impl<T: Clone + Send + Sync> AtConsensus<T> {
    /// Creates a consensus object for the `k` processes `p0 .. p(k-1)`,
    /// racing over a shared balance of 1.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        let race = Drain::new(k, 1);
        Self {
            at: SharedAt::new(race.owners(), race.balances()),
            proposals: Proposals::new(k),
            race,
        }
    }

    /// Number of participating processes (`k`).
    pub fn k(&self) -> usize {
        self.race.movers()
    }

    /// Proposes `value` on behalf of `process`; returns the decided value.
    ///
    /// # Panics
    ///
    /// Panics if `process.index() >= k`.
    pub fn propose(&self, process: ProcessId, value: T) -> T {
        assert!(
            process.index() < self.k(),
            "process {process} out of range for k = {}",
            self.k()
        );
        self.proposals
            .propose(&self.race, |p, op| self.at.apply(p, op), process, value)
            .expect("after any transfer attempt a winner is visible")
    }

    /// The decided value, or `None` if nobody has proposed yet.
    pub fn peek(&self) -> Option<T> {
        self.proposals
            .peek(&self.race, |p, op| self.at.apply(p, op))
    }
}

impl<T: Clone + Send + Sync + std::fmt::Debug> std::fmt::Debug for AtConsensus<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtConsensus")
            .field("k", &self.k())
            .field("decided", &self.peek())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn single_process_decides_its_own_value() {
        let c: AtConsensus<u32> = AtConsensus::new(1);
        assert_eq!(c.propose(ProcessId::new(0), 9), 9);
    }

    #[test]
    fn sequential_proposals_agree_on_first() {
        let c: AtConsensus<&str> = AtConsensus::new(3);
        assert_eq!(c.peek(), None);
        assert_eq!(c.propose(ProcessId::new(2), "two"), "two");
        assert_eq!(c.propose(ProcessId::new(0), "zero"), "two");
        assert_eq!(c.propose(ProcessId::new(1), "one"), "two");
        assert_eq!(c.peek(), Some("two"));
    }

    #[test]
    fn agreement_and_validity_under_contention() {
        for k in [2usize, 3, 5, 8] {
            for _ in 0..30 {
                let c: AtConsensus<usize> = AtConsensus::new(k);
                let decisions: Vec<usize> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..k)
                        .map(|i| {
                            let c = &c;
                            s.spawn(move || c.propose(ProcessId::new(i), i))
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                let distinct: HashSet<_> = decisions.iter().copied().collect();
                assert_eq!(distinct.len(), 1, "k={k} disagreement: {decisions:?}");
                assert!(decisions[0] < k, "k={k} invalid decision");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_process_panics() {
        let c: AtConsensus<u8> = AtConsensus::new(2);
        c.propose(ProcessId::new(2), 0);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_rejected() {
        let _c: AtConsensus<u8> = AtConsensus::new(0);
    }
}
