//! The ERC777 token standard: operators instead of allowances.
//!
//! ERC777 replaces ERC20's metered allowances with *operators*: a holder
//! authorizes a process to move **all** of its tokens. In the paper's terms
//! the enabled-spender set of an account is `{owner} ∪ operators(a)` when
//! the balance is positive, and — because an operator's withdrawal is
//! unconstrained — the unique-winner condition needed by the consensus race
//! is arranged by having every racer withdraw the full balance.

use std::collections::BTreeSet;

use parking_lot::Mutex;
use tokensync_kat::{AtOp, AtResp, Drain, Proposals};
use tokensync_spec::race::Race;
use tokensync_spec::{AccountId, Amount, ObjectType, ProcessId};

use crate::error::TokenError;

/// A sequential ERC777 token: balances plus per-holder operator sets.
///
/// # Example
///
/// ```
/// use tokensync_core::standards::erc777::Erc777Token;
/// use tokensync_spec::{AccountId, ProcessId};
///
/// let mut token = Erc777Token::deploy(3, ProcessId::new(0), 10);
/// token.authorize_operator(ProcessId::new(0), ProcessId::new(2))?;
/// token.operator_send(ProcessId::new(2), AccountId::new(0), AccountId::new(1), 4)?;
/// assert_eq!(token.balance_of(AccountId::new(1)), 4);
/// # Ok::<(), tokensync_core::TokenError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Erc777Token {
    balances: Vec<Amount>,
    operators: Vec<BTreeSet<ProcessId>>,
}

impl Erc777Token {
    /// Deploys with `n` accounts; the deployer holds the whole supply.
    ///
    /// # Panics
    ///
    /// Panics if `deployer.index() >= n`.
    pub fn deploy(n: usize, deployer: ProcessId, total_supply: Amount) -> Self {
        let mut balances = vec![0; n];
        balances[deployer.index()] = total_supply;
        Self {
            balances,
            operators: vec![BTreeSet::new(); n],
        }
    }

    /// Builds from explicit balances (no operators).
    pub fn from_balances(balances: Vec<Amount>) -> Self {
        let n = balances.len();
        Self {
            balances,
            operators: vec![BTreeSet::new(); n],
        }
    }

    /// Number of accounts.
    pub fn accounts(&self) -> usize {
        self.balances.len()
    }

    /// `balanceOf(account)`.
    pub fn balance_of(&self, account: AccountId) -> Amount {
        self.balances.get(account.index()).copied().unwrap_or(0)
    }

    /// Total supply (invariant).
    pub fn total_supply(&self) -> Amount {
        self.balances.iter().sum()
    }

    fn check(&self, id: usize) -> Result<(), TokenError> {
        if id < self.balances.len() {
            Ok(())
        } else {
            Err(TokenError::UnknownProcess {
                process: ProcessId::new(id),
            })
        }
    }

    /// `authorizedOperators` check: a holder is always its own operator
    /// (per the ERC777 specification).
    pub fn is_operator_for(&self, operator: ProcessId, holder: AccountId) -> bool {
        operator == holder.owner()
            || self
                .operators
                .get(holder.index())
                .is_some_and(|s| s.contains(&operator))
    }

    /// `authorizeOperator(operator)` by `caller`.
    ///
    /// # Errors
    ///
    /// Unknown-id errors only.
    pub fn authorize_operator(
        &mut self,
        caller: ProcessId,
        operator: ProcessId,
    ) -> Result<(), TokenError> {
        self.check(caller.index())?;
        self.check(operator.index())?;
        if operator != caller {
            self.operators[caller.index()].insert(operator);
        }
        Ok(())
    }

    /// `revokeOperator(operator)` by `caller`.
    ///
    /// # Errors
    ///
    /// Unknown-id errors only.
    pub fn revoke_operator(
        &mut self,
        caller: ProcessId,
        operator: ProcessId,
    ) -> Result<(), TokenError> {
        self.check(caller.index())?;
        self.check(operator.index())?;
        self.operators[caller.index()].remove(&operator);
        Ok(())
    }

    /// `send(to, value)` by `caller` — like ERC20 `transfer`.
    ///
    /// # Errors
    ///
    /// [`TokenError::InsufficientBalance`] or unknown ids.
    pub fn send(
        &mut self,
        caller: ProcessId,
        to: AccountId,
        value: Amount,
    ) -> Result<(), TokenError> {
        self.operator_send(caller, caller.own_account(), to, value)
    }

    /// `operatorSend(from, to, value)` by `caller`: the caller must be an
    /// operator for `from` (or its owner). Unlike ERC20 there is no metered
    /// allowance — an operator may move any amount up to the balance.
    ///
    /// # Errors
    ///
    /// [`TokenError::InsufficientAllowance`] (reported with the full
    /// requested amount) if the caller is not an operator;
    /// [`TokenError::InsufficientBalance`]; unknown ids.
    pub fn operator_send(
        &mut self,
        caller: ProcessId,
        from: AccountId,
        to: AccountId,
        value: Amount,
    ) -> Result<(), TokenError> {
        self.check(caller.index())?;
        self.check(from.index())?;
        self.check(to.index())?;
        if !self.is_operator_for(caller, from) {
            return Err(TokenError::InsufficientAllowance {
                account: from,
                spender: caller,
                allowance: 0,
                required: value,
            });
        }
        let balance = self.balances[from.index()];
        if balance < value {
            return Err(TokenError::InsufficientBalance {
                account: from,
                balance,
                required: value,
            });
        }
        self.balances[from.index()] -= value;
        self.balances[to.index()] += value;
        Ok(())
    }

    /// Applies `operatorSend` or `balanceOf`, written in the asset transfer
    /// alphabet: an operator withdrawal has the signature of `k`-AT's
    /// `transfer(from, to, value)`, with operators in place of owners.
    pub fn apply(&mut self, caller: ProcessId, op: &AtOp) -> AtResp {
        match *op {
            AtOp::Transfer { from, to, value } => {
                AtResp::Bool(self.operator_send(caller, from, to, value).is_ok())
            }
            AtOp::BalanceOf { account } => AtResp::Amount(self.balance_of(account)),
        }
    }

    /// The movers of `account`: `{owner} ∪ operators(account)` when the
    /// balance is positive, `{owner}` otherwise — the ERC777 analogue of
    /// `σ_q(a)` (equation (10)).
    pub fn enabled_movers(&self, account: AccountId) -> BTreeSet<ProcessId> {
        let mut set = BTreeSet::new();
        set.insert(account.owner());
        if self.balance_of(account) > 0 {
            if let Some(ops) = self.operators.get(account.index()) {
                set.extend(ops.iter().copied());
            }
        }
        set
    }

    /// The ERC777 partition index: `max_a |movers(a)|`. Because operator
    /// withdrawals are all-or-nothing, every state with a positive-balance
    /// multi-operator account is simultaneously a synchronization state —
    /// the `U` predicate is vacuous here.
    pub fn sync_level(&self) -> usize {
        (0..self.accounts())
            .map(|i| self.enabled_movers(AccountId::new(i)).len())
            .max()
            .unwrap_or(1)
            .max(1)
    }
}

/// ERC777 as an [`ObjectType`] over the asset transfer alphabet (see
/// [`Erc777Token::apply`]), for the model checker.
#[derive(Clone, Debug)]
pub struct Erc777Spec {
    initial: Erc777Token,
}

impl Erc777Spec {
    /// Object type starting from `initial`.
    pub fn new(initial: Erc777Token) -> Self {
        Self { initial }
    }
}

impl ObjectType for Erc777Spec {
    type State = Erc777Token;
    type Op = AtOp;
    type Resp = AtResp;

    fn initial_state(&self) -> Erc777Token {
        self.initial.clone()
    }

    fn apply(&self, token: &mut Erc777Token, caller: ProcessId, op: &AtOp) -> AtResp {
        token.apply(caller, op)
    }
}

/// A coarse-grained linearizable ERC777 token for threaded use.
#[derive(Debug)]
pub struct SharedErc777 {
    inner: Mutex<Erc777Token>,
}

impl SharedErc777 {
    /// Wraps a sequential token.
    pub fn new(token: Erc777Token) -> Self {
        Self {
            inner: Mutex::new(token),
        }
    }

    /// [`Erc777Token::apply`], atomically.
    pub fn apply(&self, caller: ProcessId, op: &AtOp) -> AtResp {
        self.inner.lock().apply(caller, op)
    }
}

/// The starting token of the Section 6 ERC777 [`Drain`] race: its
/// balances, every mover an operator of the drained account `a_0`.
pub fn race_token(race: &Drain) -> Erc777Token {
    let mut token = Erc777Token::from_balances(race.balances());
    for i in 0..race.movers() {
        token
            .authorize_operator(ProcessId::new(0), ProcessId::new(i))
            .expect("ids in range");
    }
    token
}

/// Wait-free consensus among the `k` movers of an ERC777 account — the
/// Section 6 adaptation of Algorithm 1: the [`Drain`] race on
/// [`race_token`], fired as full-balance `operatorSend`s.
pub struct Erc777Consensus<V> {
    race: Drain,
    token: SharedErc777,
    proposals: Proposals<V>,
}

impl<V: Clone + Send + Sync> Erc777Consensus<V> {
    /// Creates a fresh consensus instance for movers `p_0 .. p_{k-1}` on
    /// a dedicated [`race_token`] with `B = balance`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `balance == 0`.
    pub fn new(k: usize, balance: Amount) -> Self {
        let race = Drain::new(k, balance);
        Self {
            token: SharedErc777::new(race_token(&race)),
            proposals: Proposals::new(k),
            race,
        }
    }

    /// Proposes `value` on behalf of `process`.
    ///
    /// # Panics
    ///
    /// Panics if `process` is not a mover.
    pub fn propose(&self, process: ProcessId, value: V) -> V {
        self.proposals
            .propose(&self.race, |p, op| self.token.apply(p, op), process, value)
            .expect("after any fire the race exposes a winner")
    }

    /// The decided value, if any mover's full-balance send has landed.
    pub fn peek(&self) -> Option<V> {
        self.proposals
            .peek(&self.race, |p, op| self.token.apply(p, op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }
    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn operators_move_any_amount() {
        let mut t = Erc777Token::deploy(3, p(0), 10);
        t.authorize_operator(p(0), p(1)).unwrap();
        t.operator_send(p(1), a(0), a(2), 9).unwrap();
        assert_eq!(t.balance_of(a(2)), 9);
        assert_eq!(t.total_supply(), 10);
    }

    #[test]
    fn non_operator_rejected() {
        let mut t = Erc777Token::deploy(2, p(0), 5);
        let err = t.operator_send(p(1), a(0), a(1), 1).unwrap_err();
        assert!(matches!(err, TokenError::InsufficientAllowance { .. }));
    }

    #[test]
    fn revocation_removes_mover() {
        let mut t = Erc777Token::deploy(2, p(0), 5);
        t.authorize_operator(p(0), p(1)).unwrap();
        assert_eq!(t.enabled_movers(a(0)).len(), 2);
        t.revoke_operator(p(0), p(1)).unwrap();
        assert_eq!(t.enabled_movers(a(0)).len(), 1);
    }

    #[test]
    fn sync_level_counts_operators_only_with_balance() {
        let mut t = Erc777Token::deploy(3, p(0), 5);
        t.authorize_operator(p(1), p(0)).unwrap(); // a1 has balance 0
        assert_eq!(t.sync_level(), 1);
        t.authorize_operator(p(0), p(1)).unwrap();
        t.authorize_operator(p(0), p(2)).unwrap();
        assert_eq!(t.sync_level(), 3);
    }

    #[test]
    fn holder_is_own_operator() {
        let t = Erc777Token::deploy(2, p(0), 5);
        assert!(t.is_operator_for(p(0), a(0)));
        assert!(!t.is_operator_for(p(1), a(0)));
    }

    #[test]
    fn consensus_sequential_first_wins() {
        let c: Erc777Consensus<&str> = Erc777Consensus::new(3, 10);
        assert_eq!(c.peek(), None);
        assert_eq!(c.propose(p(1), "one"), "one");
        assert_eq!(c.propose(p(0), "zero"), "one");
        assert_eq!(c.propose(p(2), "two"), "one");
    }

    #[test]
    #[should_panic(expected = "p7 is not a participant")]
    fn non_mover_rejected() {
        Erc777Consensus::new(2, 5).propose(p(7), "x");
    }

    #[test]
    fn consensus_agreement_under_contention() {
        for k in [2usize, 4, 6] {
            for _ in 0..25 {
                let c: Erc777Consensus<usize> = Erc777Consensus::new(k, 5);
                let decisions: Vec<usize> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..k)
                        .map(|i| {
                            let c = &c;
                            s.spawn(move || c.propose(p(i), i))
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                let distinct: HashSet<_> = decisions.iter().copied().collect();
                assert_eq!(distinct.len(), 1, "k={k}: {decisions:?}");
                assert!(decisions[0] < k);
            }
        }
    }
}
