//! **Algorithm 1**: wait-free consensus from an ERC20 token in a
//! synchronization state (Theorem 2, `CN(T_{S_k}) ≥ k`).
//!
//! The construction: the `k` enabled spenders of an account `a_1` (state in
//! `S_k`) publish proposals in registers `R[1..k]`, then race to withdraw
//! from `a_1` — the owner by `transfer`ring the full balance `B`, each
//! spender `p_i` by `transferFrom`ing against its allowance `A_i`. The
//! predicate `U` guarantees a unique winner; losers identify it by reading
//! allowances and adopt its published proposal.
//!
//! Two race modes are provided:
//!
//! * [`RaceMode::Verbatim`] — the paper's Algorithm 1 exactly: spender `p_i`
//!   transfers its *full* allowance `A_i` and winners are detected by
//!   `allowance = 0`. Correct under `U` **plus** the proof's prose premise
//!   that allowances are "sufficient" (`A_i ≤ B`); see
//!   [`algorithm1_ready`](crate::analysis::algorithm1_ready()). The model
//!   checker exhibits a validity violation when `A_i > B`
//!   (`tokensync-mc`).
//! * [`RaceMode::Generalized`] (default) — spender `p_i` transfers
//!   `min(A_i, B)` and winners are detected by *allowance decrease*. This
//!   realizes Theorem 2 for every literal `S_k` state: pairwise
//!   `A_i + A_j > B` still forces a unique winner because
//!   `min(A_i,B) + min(A_j,B) > B`.
//!
//! Wait-freedom is immediate: one register write, one token operation and a
//! bounded scan of `k − 1` allowances.
//!
//! The race is [`Algorithm1`], run on threads by [`TokenConsensus`] and
//! on explicit states by the model checker (`tokensync-mc`).

use tokensync_consensus::Consensus;
use tokensync_kat::Proposals;
use tokensync_spec::race::{Race, Scan};
use tokensync_spec::{AccountId, ProcessId};

use crate::analysis::{algorithm1_ready, SyncWitness};
use crate::erc20::{Erc20Op, Erc20Resp};
use crate::shared::ConcurrentToken;

/// How spenders race and how winners are detected; see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RaceMode {
    /// Transfer `min(A_i, B)`, detect winners by allowance decrease.
    #[default]
    Generalized,
    /// The paper's Algorithm 1 verbatim: transfer `A_i`, detect zero
    /// allowance. Requires `algorithm1_ready`.
    Verbatim,
}

/// The decisive part of Algorithm 1, for the step machine of
/// [`tokensync_spec::race`]: mover `i` is the witness's `participants[i]`,
/// the owner fires `transfer(destination, B)` and spender `i`
/// `transferFrom(account, destination, ·)`. Scan position `j` reads
/// spender `j + 1`'s allowance (lines 11–13); after the last, the owner
/// won (line 14). The model checker also races witnesses that are not
/// synchronization states (the Theorem 3 counterexamples).
#[derive(Clone, Debug)]
pub struct Algorithm1 {
    /// The racing account, its balance, and the participants with their
    /// allowances.
    pub witness: SyncWitness,
    /// Where the winning withdrawal goes.
    pub destination: AccountId,
    /// How spenders withdraw and how winners are detected.
    pub mode: RaceMode,
}

impl Race for Algorithm1 {
    type Op = Erc20Op;
    type Resp = Erc20Resp;

    fn movers(&self) -> usize {
        self.witness.k()
    }

    fn process(&self, i: usize) -> ProcessId {
        self.witness.participants[i]
    }

    fn fire(&self, i: usize) -> Erc20Op {
        let (to, balance) = (self.destination, self.witness.balance);
        if i == 0 {
            return Erc20Op::Transfer { to, value: balance };
        }
        let granted = self.witness.allowances[i - 1];
        let value = match self.mode {
            RaceMode::Verbatim => granted,
            RaceMode::Generalized => granted.min(balance),
        };
        Erc20Op::TransferFrom {
            from: self.witness.account,
            to,
            value,
        }
    }

    fn scan(&self, j: usize) -> Scan<Erc20Op> {
        let account = self.witness.account;
        if let Some(&spender) = self.witness.participants.get(j + 1) {
            Scan::Read(Erc20Op::Allowance { account, spender })
        } else if j + 1 == self.movers() {
            Scan::Inferred {
                winner: 0,
                check: Erc20Op::BalanceOf { account },
            }
        } else {
            Scan::End
        }
    }

    fn judge(&self, j: usize, resp: &Erc20Resp) -> Option<usize> {
        let Erc20Resp::Amount(current) = *resp else {
            return None;
        };
        let Some(&initial) = self.witness.allowances.get(j) else {
            // The owner's check: the balance moved.
            return (current < self.witness.balance).then_some(0);
        };
        let won = match self.mode {
            RaceMode::Verbatim => current == 0,
            RaceMode::Generalized => current < initial,
        };
        won.then_some(j + 1)
    }
}

/// A wait-free consensus object for the `k` enabled spenders of one token
/// account (Algorithm 1 of the paper).
///
/// The object takes ownership of its token instance conceptually: during the
/// race no other party may operate on the witness account (the consensus
/// protocol *consumes* the synchronization state, as the paper notes —
/// synchronization states are spent, not reusable).
///
/// # Example
///
/// ```
/// use tokensync_core::analysis::SyncWitness;
/// use tokensync_core::erc20::Erc20State;
/// use tokensync_core::shared::SharedErc20;
/// use tokensync_core::token_consensus::TokenConsensus;
/// use tokensync_spec::{AccountId, ProcessId};
///
/// // A state in S_3: balance 10, two spenders with allowances 6 and 7.
/// let mut q = Erc20State::from_balances(vec![10, 0, 0]);
/// q.set_allowance(AccountId::new(0), ProcessId::new(1), 6);
/// q.set_allowance(AccountId::new(0), ProcessId::new(2), 7);
/// let witness = SyncWitness::for_account(&q, AccountId::new(0)).unwrap();
///
/// let consensus = TokenConsensus::new(
///     SharedErc20::from_state(q),
///     witness,
///     AccountId::new(1),
/// );
/// let d = consensus.propose(ProcessId::new(2), "charlie");
/// assert_eq!(d, "charlie");
/// assert_eq!(consensus.propose(ProcessId::new(0), "alice"), "charlie");
/// ```
pub struct TokenConsensus<T, V> {
    token: T,
    race: Algorithm1,
    proposals: Proposals<V>,
}

impl<T: ConcurrentToken, V: Clone + Send + Sync> TokenConsensus<T, V> {
    /// Creates the consensus object in [`RaceMode::Generalized`].
    ///
    /// # Panics
    ///
    /// Panics if the witness does not describe the token's current state
    /// (balance or allowances differ), or if `destination` equals the
    /// witness account (the race must move tokens *out*) or is not an
    /// account of the token.
    pub fn new(token: T, witness: SyncWitness, destination: AccountId) -> Self {
        Self::with_mode(token, witness, destination, RaceMode::Generalized)
    }

    /// Creates the consensus object with an explicit [`RaceMode`].
    ///
    /// # Panics
    ///
    /// As [`TokenConsensus::new`]; additionally panics in
    /// [`RaceMode::Verbatim`] if the state is not
    /// [`algorithm1_ready`](crate::analysis::algorithm1_ready()) (some
    /// allowance exceeds the balance), since the verbatim race would not be
    /// a correct consensus object there.
    pub fn with_mode(
        token: T,
        witness: SyncWitness,
        destination: AccountId,
        mode: RaceMode,
    ) -> Self {
        assert_ne!(
            destination, witness.account,
            "destination must differ from the race account"
        );
        assert!(
            destination.index() < token.accounts(),
            "destination {destination} out of range for a token of {} accounts",
            token.accounts()
        );
        assert_eq!(
            token.balance_of(witness.account),
            witness.balance,
            "witness balance out of date"
        );
        for (i, p) in witness.participants.iter().enumerate().skip(1) {
            assert_eq!(
                token.allowance(witness.account, *p),
                witness.allowances[i - 1],
                "witness allowance for {p} out of date"
            );
        }
        if mode == RaceMode::Verbatim {
            assert!(
                algorithm1_ready(&token.snapshot(), witness.account),
                "verbatim Algorithm 1 requires allowances ≤ balance (see analysis::algorithm1_ready)"
            );
        }
        Self {
            token,
            proposals: Proposals::new(witness.k()),
            race: Algorithm1 {
                witness,
                destination,
                mode,
            },
        }
    }

    /// The synchronization level `k` of this object.
    pub fn k(&self) -> usize {
        self.race.movers()
    }

    /// Proposes `value` on behalf of `process` (Algorithm 1's `propose`).
    ///
    /// # Panics
    ///
    /// Panics if `process` is not one of the `k` participants.
    pub fn propose(&self, process: ProcessId, value: V) -> V {
        self.proposals
            .propose(&self.race, |p, op| self.token.apply(p, op), process, value)
            .expect("a completed race always exposes a winner")
    }

    /// Reads the decided value without racing, or `None` if no `propose`
    /// has completed yet (diagnostic, like
    /// [`peek`](tokensync_consensus::Consensus::peek)).
    pub fn read_decision(&self) -> Option<V> {
        self.proposals
            .peek(&self.race, |p, op| self.token.apply(p, op))
    }

    /// Shared access to the underlying token (diagnostics/tests).
    pub fn token(&self) -> &T {
        &self.token
    }
}

impl<T: ConcurrentToken, V: Clone + Send + Sync> Consensus<V> for TokenConsensus<T, V> {
    fn propose(&self, process: ProcessId, value: V) -> V {
        TokenConsensus::propose(self, process, value)
    }

    fn peek(&self) -> Option<V> {
        self.read_decision()
    }
}

impl<T: ConcurrentToken, V: Clone + Send + Sync + std::fmt::Debug> std::fmt::Debug
    for TokenConsensus<T, V>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenConsensus")
            .field("k", &self.k())
            .field("account", &self.race.witness.account)
            .field("mode", &self.race.mode)
            .field("decided", &self.read_decision())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erc20::Erc20State;
    use crate::shared::SharedErc20;
    use std::collections::HashSet;

    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }
    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Balance `b` on a0, spenders p1..p(k-1) with pairwise-exceeding
    /// allowances b/2 + 1.
    fn sk_state(k: usize, n: usize, b: u64) -> (Erc20State, SyncWitness) {
        let mut balances = vec![0; n];
        balances[0] = b;
        let mut q = Erc20State::from_balances(balances);
        for i in 1..k {
            q.set_allowance(a(0), p(i), b / 2 + 1);
        }
        let w = SyncWitness::for_account(&q, a(0)).unwrap();
        assert_eq!(w.k(), k);
        (q, w)
    }

    /// Participants `p0 .. p(k-1)` propose their own index on `k` scoped
    /// threads; returns the decisions.
    fn propose_concurrently(c: &TokenConsensus<SharedErc20, usize>, k: usize) -> Vec<usize> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..k)
                .map(|i| s.spawn(move || c.propose(p(i), i)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn k1_owner_decides_alone() {
        let (q, w) = sk_state(1, 2, 5);
        let c = TokenConsensus::new(SharedErc20::from_state(q), w, a(1));
        assert_eq!(c.read_decision(), None);
        assert_eq!(c.propose(p(0), 42), 42);
        assert_eq!(c.read_decision(), Some(42));
    }

    #[test]
    fn sequential_first_proposer_wins_each_rank() {
        for first in 0..3 {
            let (q, w) = sk_state(3, 4, 10);
            let c = TokenConsensus::new(SharedErc20::from_state(q), w, a(3));
            let order: Vec<usize> = (0..3).map(|i| (first + i) % 3).collect();
            let mut decisions = Vec::new();
            for i in &order {
                decisions.push(c.propose(p(*i), *i));
            }
            assert!(
                decisions.iter().all(|d| *d == first),
                "first={first}: {decisions:?}"
            );
        }
    }

    #[test]
    fn agreement_validity_under_threaded_contention() {
        for k in [2usize, 3, 5, 8] {
            for round in 0..20 {
                let (q, w) = sk_state(k, k + 1, 64);
                let c: TokenConsensus<SharedErc20, usize> =
                    TokenConsensus::new(SharedErc20::from_state(q), w, a(k));
                let decisions = propose_concurrently(&c, k);
                let distinct: HashSet<_> = decisions.iter().copied().collect();
                assert_eq!(distinct.len(), 1, "k={k} round={round}: {decisions:?}");
                assert!(decisions[0] < k);
            }
        }
    }

    #[test]
    fn generalized_mode_handles_oversized_allowances() {
        // A literal S_2 state where the spender's allowance exceeds the
        // balance: the verbatim algorithm is unsafe here, the generalized
        // mode must still be a correct consensus object.
        let mut q = Erc20State::from_balances(vec![5, 0, 0]);
        q.set_allowance(a(0), p(1), 12);
        let w = SyncWitness::for_account(&q, a(0)).unwrap();
        // Spender proposes first: its min(12, 5) withdrawal wins.
        let c = TokenConsensus::new(SharedErc20::from_state(q), w, a(2));
        assert_eq!(c.propose(p(1), "spender"), "spender");
        assert_eq!(c.propose(p(0), "owner"), "spender");
    }

    #[test]
    #[should_panic(expected = "algorithm1_ready")]
    fn verbatim_mode_rejects_oversized_allowances() {
        let mut q = Erc20State::from_balances(vec![5, 0, 0]);
        q.set_allowance(a(0), p(1), 12);
        let w = SyncWitness::for_account(&q, a(0)).unwrap();
        let _c: TokenConsensus<_, u8> =
            TokenConsensus::with_mode(SharedErc20::from_state(q), w, a(2), RaceMode::Verbatim);
    }

    #[test]
    fn verbatim_mode_agrees_under_contention() {
        for _ in 0..30 {
            let (q, w) = sk_state(4, 5, 10);
            let c: TokenConsensus<SharedErc20, usize> =
                TokenConsensus::with_mode(SharedErc20::from_state(q), w, a(4), RaceMode::Verbatim);
            let decisions = propose_concurrently(&c, 4);
            assert_eq!(decisions.iter().collect::<HashSet<_>>().len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "not a participant")]
    fn non_participant_cannot_propose() {
        let (q, w) = sk_state(2, 4, 10);
        let c = TokenConsensus::new(SharedErc20::from_state(q), w, a(3));
        c.propose(p(3), 0);
    }

    #[test]
    #[should_panic(expected = "destination must differ")]
    fn destination_must_not_be_race_account() {
        let (q, w) = sk_state(2, 4, 10);
        let _c: TokenConsensus<_, u8> = TokenConsensus::new(SharedErc20::from_state(q), w, a(0));
    }

    #[test]
    #[should_panic(expected = "destination a99 out of range")]
    fn destination_must_be_a_token_account() {
        let (q, w) = sk_state(3, 3, 10);
        let _c: TokenConsensus<_, u8> = TokenConsensus::new(SharedErc20::from_state(q), w, a(99));
    }

    #[test]
    #[should_panic(expected = "out of date")]
    fn stale_witness_rejected() {
        let (q, mut w) = sk_state(2, 4, 10);
        w.balance = 99;
        let _c: TokenConsensus<_, u8> = TokenConsensus::new(SharedErc20::from_state(q), w, a(1));
    }
}
