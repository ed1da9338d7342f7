//! **Algorithm 2**: the restricted token `T|Q_k` implemented from
//! `k`-shared asset transfer objects and atomic registers (Theorem 4,
//! `CN(T|Q_k) ≤ CN(k-AT) = k`).
//!
//! The reduction keeps balances inside a `k`-AT object and mirrors
//! allowances in registers `R_a[j]`. `approve` is *gated*: it refuses any
//! transition that would give an account more than `k` spenders, so every
//! reachable state stays within `Q_k` — which is what makes the `k`-AT
//! substrate sufficient. Whenever an account's spender set changes, the
//! paper creates a fresh `k`-AT instance with the same balances and the
//! updated (static) owner map; [`SharedAt::set_account_owners`] models the
//! instance swap and counts instances.
//!
//! ## Fidelity notes
//!
//! Two deviations from the paper's pseudocode — the `approve` gate
//! admits revocations and same-spender updates at `k` spenders, and the
//! allowance register is decremented only after the `k`-AT transfer
//! succeeds — are stated with their reasons in `docs/paper-map.md`,
//! "Section 5 — the state-dependent analysis".
//!
//! The pseudocode's read-modify-write on allowance registers is also not
//! atomic under concurrent `approve`; we serialize the per-account
//! critical sections with a short internal lock. This is an engineering
//! convenience for linearizability of the *implementation*, not part of
//! the reduction: the consensus-power argument only needs the object to
//! exist, and the lock sections are bounded (no waiting on other
//! processes).
//!
//! The gate is *conservative* with respect to `σ` (it counts positive
//! allowances even on zero-balance accounts, where `σ` would not), which
//! keeps all reachable states in `Q_k` even as balances move — see
//! `restricted_stays_in_qk` in the tests.

use std::collections::BTreeSet;

use parking_lot::Mutex;
use tokensync_kat::{AtError, OwnerMap, SharedAt};
use tokensync_registers::{Register, U64Register};
use tokensync_spec::{AccountId, Amount, ObjectType, ProcessId};

use crate::analysis::enabled_spenders;
use crate::erc20::{Erc20Op, Erc20Resp, Erc20State};
use crate::error::TokenError;
use crate::shared::{apply_erc20, ConcurrentObject, ConcurrentToken};

/// Sequential specification of the object [`RestrictedToken`] implements:
/// the ERC20 transition function with the growth-gated `approve` (the
/// `FALSE`-totalization of `T|Q_k`).
///
/// Used as the differential-testing oracle for the emulation.
#[derive(Clone, Debug)]
pub struct RestrictedErc20Spec {
    k: usize,
    initial: Erc20State,
}

impl RestrictedErc20Spec {
    /// Creates the spec for restriction level `k` starting from `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or some account already has more than `k`
    /// potential spenders (owner + positive allowances) in `initial`.
    pub fn new(k: usize, initial: Erc20State) -> Self {
        assert!(k >= 1, "restriction level must be at least 1");
        for i in 0..initial.accounts() {
            let a = AccountId::new(i);
            assert!(
                spender_count(&initial, a) <= k,
                "initial state already exceeds the Q_{k} restriction at {a}"
            );
        }
        Self { k, initial }
    }

    /// The restriction level `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Counts `|{ω(a)} ∪ {p : α(a,p) > 0}|` — the gate's (balance-agnostic)
/// spender census of Algorithm 2, line 17.
fn spender_count(state: &Erc20State, account: AccountId) -> usize {
    let owner = account.owner();
    let mut set: BTreeSet<ProcessId> = BTreeSet::new();
    set.insert(owner);
    for j in 0..state.accounts() {
        let p = ProcessId::new(j);
        if state.allowance(account, p) > 0 {
            set.insert(p);
        }
    }
    set.len()
}

/// Whether `approve(spender, value)` by `caller` is allowed at restriction
/// level `k` in `state`: refused only if it would add a *new* non-owner
/// spender to an account already at `k` census entries.
fn approve_allowed(
    state: &Erc20State,
    k: usize,
    caller: ProcessId,
    spender: ProcessId,
    value: Amount,
) -> bool {
    let account = caller.own_account();
    let is_new = value > 0 && spender != caller && state.allowance(account, spender) == 0;
    !(is_new && spender_count(state, account) >= k)
}

impl ObjectType for RestrictedErc20Spec {
    type State = Erc20State;
    type Op = Erc20Op;
    type Resp = Erc20Resp;

    fn initial_state(&self) -> Erc20State {
        self.initial.clone()
    }

    fn apply(&self, state: &mut Erc20State, process: ProcessId, op: &Erc20Op) -> Erc20Resp {
        if let Erc20Op::Approve { spender, value } = *op {
            if process.index() < state.accounts()
                && spender.index() < state.accounts()
                && !approve_allowed(state, self.k, process, spender, value)
            {
                return Erc20Resp::FALSE;
            }
        }
        crate::erc20::Erc20Spec::new(Erc20State::new(0)).apply(state, process, op)
    }
}

/// The wait-free implementation of `T|Q_k` from a `k`-AT object and
/// registers (Algorithm 2 of the paper).
///
/// # Example
///
/// ```
/// use tokensync_core::emulation::RestrictedToken;
/// use tokensync_core::erc20::Erc20State;
/// use tokensync_core::shared::ConcurrentToken;
/// use tokensync_spec::{AccountId, ProcessId};
///
/// let token = RestrictedToken::new(2, Erc20State::with_deployer(3, ProcessId::new(0), 10));
/// // One extra spender is fine at k = 2 ...
/// token.approve(ProcessId::new(0), ProcessId::new(1), 5)?;
/// // ... but a second would leave Q_2: refused.
/// assert!(token.approve(ProcessId::new(0), ProcessId::new(2), 5).is_err());
/// # Ok::<(), tokensync_core::TokenError>(())
/// ```
pub struct RestrictedToken {
    k: usize,
    at: SharedAt,
    /// `allowances[a][j]` mirrors `R_a[j]`.
    allowances: Vec<Vec<U64Register>>,
    /// Per-account critical sections for allowance read-modify-writes and
    /// owner-map swaps (the per-account lock of the module docs' fidelity
    /// notes).
    sections: Vec<Mutex<()>>,
    supply: Amount,
}

impl RestrictedToken {
    /// Builds the emulation at restriction level `k` from `initial`.
    ///
    /// Initializes the `k`-AT balances from `β`, the registers from `α`,
    /// and the owner map from the enabled spenders of each account
    /// (Algorithm 2, lines 2–6).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `initial` already exceeds the restriction.
    pub fn new(k: usize, initial: Erc20State) -> Self {
        assert!(k >= 1, "restriction level must be at least 1");
        let n = initial.accounts();
        let mut owners = OwnerMap::new(n);
        for i in 0..n {
            let account = AccountId::new(i);
            assert!(
                spender_count(&initial, account) <= k,
                "initial state already exceeds the Q_{k} restriction at {account}"
            );
            owners.add_owner(account, account.owner());
            for j in 0..n {
                let p = ProcessId::new(j);
                if initial.allowance(account, p) > 0 {
                    owners.add_owner(account, p);
                }
            }
        }
        let balances: Vec<Amount> = (0..n).map(|i| initial.balance(AccountId::new(i))).collect();
        let supply = balances.iter().sum();
        let allowances = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        U64Register::new(initial.allowance(AccountId::new(i), ProcessId::new(j)))
                    })
                    .collect()
            })
            .collect();
        Self {
            k,
            at: SharedAt::new(owners, balances),
            allowances,
            sections: (0..n).map(|_| Mutex::new(())).collect(),
            supply,
        }
    }

    /// The restriction level `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of logical `k`-AT instances consumed so far (each spender-set
    /// change re-instantiates the substrate, per the Theorem 4 proof).
    pub fn kat_instances(&self) -> u64 {
        self.at.instances()
    }

    fn check_process(&self, process: ProcessId) -> Result<(), TokenError> {
        if process.index() < self.allowances.len() {
            Ok(())
        } else {
            Err(TokenError::UnknownProcess { process })
        }
    }

    fn check_account(&self, account: AccountId) -> Result<(), TokenError> {
        if account.index() < self.allowances.len() {
            Ok(())
        } else {
            Err(TokenError::UnknownAccount { account })
        }
    }

    fn map_at_error(
        err: AtError,
        account: AccountId,
        value: Amount,
        balance: Amount,
    ) -> TokenError {
        match err {
            AtError::InsufficientBalance => TokenError::InsufficientBalance {
                account,
                balance,
                required: value,
            },
            AtError::UnknownAccount => TokenError::UnknownAccount { account },
            // The owner map always contains every positive-allowance
            // spender and the owner, so NotOwner can only mean a stale
            // caller id.
            AtError::NotOwner => TokenError::UnknownAccount { account },
        }
    }

    /// Census of account `a` from the registers: `{owner} ∪ {j : R_a[j]>0}`.
    fn census(&self, account: AccountId) -> BTreeSet<ProcessId> {
        let mut set = BTreeSet::new();
        set.insert(account.owner());
        for (j, reg) in self.allowances[account.index()].iter().enumerate() {
            if reg.read() > 0 {
                set.insert(ProcessId::new(j));
            }
        }
        set
    }
}

impl ConcurrentObject for RestrictedToken {
    type Op = Erc20Op;
    type Resp = Erc20Resp;
    type State = Erc20State;

    fn apply(&self, process: ProcessId, op: &Erc20Op) -> Erc20Resp {
        apply_erc20(self, process, op)
    }

    fn snapshot(&self) -> Erc20State {
        // Quiesce allowance sections, then read balances. Diagnostic: exact
        // at quiescent points, which is how the tests use it.
        let _guards: Vec<_> = self.sections.iter().map(Mutex::lock).collect();
        let mut state = Erc20State::from_balances(self.at.balances_snapshot());
        for (i, row) in self.allowances.iter().enumerate() {
            for (j, reg) in row.iter().enumerate() {
                state.set_allowance(AccountId::new(i), ProcessId::new(j), reg.read());
            }
        }
        state
    }
}

impl ConcurrentToken for RestrictedToken {
    fn accounts(&self) -> usize {
        self.allowances.len()
    }

    /// Algorithm 2, lines 12–13: delegate to the `k`-AT object.
    fn transfer(&self, caller: ProcessId, to: AccountId, value: Amount) -> Result<(), TokenError> {
        self.check_process(caller)?;
        self.check_account(to)?;
        let from = caller.own_account();
        self.at
            .transfer(caller, from, to, value)
            .map_err(|e| Self::map_at_error(e, from, value, self.at.balance_of(from)))
    }

    /// Algorithm 2, lines 7–11 (with the success-ordered decrement of
    /// fidelity note 2 in `docs/paper-map.md`).
    fn transfer_from(
        &self,
        caller: ProcessId,
        from: AccountId,
        to: AccountId,
        value: Amount,
    ) -> Result<(), TokenError> {
        self.check_process(caller)?;
        self.check_account(from)?;
        self.check_account(to)?;
        let _section = self.sections[from.index()].lock();
        let reg = &self.allowances[from.index()][caller.index()];
        let allowance = reg.read();
        if allowance < value {
            return Err(TokenError::InsufficientAllowance {
                account: from,
                spender: caller,
                allowance,
                required: value,
            });
        }
        if value == 0 {
            // ERC20 permits a zero-value transferFrom from anyone (0 ≥ 0 on
            // both checks); the k-AT owner map would reject callers with no
            // allowance, so short-circuit the no-op here.
            return Ok(());
        }
        self.at
            .transfer(caller, from, to, value)
            .map_err(|e| Self::map_at_error(e, from, value, self.at.balance_of(from)))?;
        reg.write(allowance - value);
        Ok(())
    }

    /// Algorithm 2, lines 16–24: gate, register write, owner-map swap.
    fn approve(
        &self,
        caller: ProcessId,
        spender: ProcessId,
        value: Amount,
    ) -> Result<(), TokenError> {
        self.check_process(caller)?;
        self.check_process(spender)?;
        let account = caller.own_account();
        let _section = self.sections[account.index()].lock();
        let reg = &self.allowances[account.index()][spender.index()];
        let old = reg.read();
        let is_new = value > 0 && spender != caller && old == 0;
        if is_new && self.census(account).len() >= self.k {
            return Err(TokenError::WouldExceedRestriction { k: self.k });
        }
        reg.write(value);
        // Spender-set change ⇒ new k-AT instance with the updated owner map
        // for this account (lines 21–23, restricted to the touched account;
        // see fidelity discussion in the module docs).
        if (old == 0) != (value == 0) {
            let mut owners = self.census(account);
            owners.insert(account.owner());
            self.at.set_account_owners(account, owners);
        }
        Ok(())
    }

    fn balance_of(&self, account: AccountId) -> Amount {
        self.at.balance_of(account)
    }

    fn allowance(&self, account: AccountId, spender: ProcessId) -> Amount {
        self.allowances
            .get(account.index())
            .and_then(|row| row.get(spender.index()))
            .map(Register::read)
            .unwrap_or(0)
    }

    /// Constant under every operation, so trivially linearizable.
    fn total_supply(&self) -> Amount {
        self.supply
    }
}

impl std::fmt::Debug for RestrictedToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RestrictedToken")
            .field("k", &self.k)
            .field("kat_instances", &self.kat_instances())
            .finish()
    }
}

/// Asserts the defining invariant of the restricted object on a state: no
/// account exceeds `k` in the register census, hence
/// `partition_index(q) ≤ k` (every reachable state is in `Q_1 ∪ … ∪ Q_k`).
pub fn within_restriction(state: &Erc20State, k: usize) -> bool {
    (0..state.accounts()).all(|i| {
        let a = AccountId::new(i);
        spender_count(state, a) <= k && enabled_spenders(state, a).len() <= k
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::partition_index;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }
    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn basic_erc20_flows_still_work() {
        let t = RestrictedToken::new(2, Erc20State::with_deployer(3, p(0), 10));
        t.transfer(p(0), a(1), 3).unwrap();
        t.approve(p(1), p(2), 5).unwrap();
        assert!(t.transfer_from(p(2), a(1), a(2), 5).is_err());
        t.transfer_from(p(2), a(1), a(0), 1).unwrap();
        assert_eq!(t.balance_of(a(0)), 8);
        assert_eq!(t.allowance(a(1), p(2)), 4);
        assert_eq!(t.total_supply(), 10);
    }

    #[test]
    fn approve_gate_blocks_growth_beyond_k() {
        let t = RestrictedToken::new(2, Erc20State::with_deployer(4, p(0), 10));
        t.approve(p(0), p(1), 5).unwrap();
        assert_eq!(
            t.approve(p(0), p(2), 5),
            Err(TokenError::WouldExceedRestriction { k: 2 })
        );
        // Updating the existing spender and revoking are always allowed.
        t.approve(p(0), p(1), 9).unwrap();
        t.approve(p(0), p(1), 0).unwrap();
        // After the revocation a different spender fits again.
        t.approve(p(0), p(2), 5).unwrap();
    }

    #[test]
    fn consumed_allowance_frees_a_slot() {
        let t = RestrictedToken::new(2, Erc20State::with_deployer(3, p(0), 10));
        t.approve(p(0), p(1), 4).unwrap();
        t.transfer_from(p(1), a(0), a(1), 4).unwrap();
        // p1's allowance is spent to zero: the census shrinks and p2 fits.
        t.approve(p(0), p(2), 5).unwrap();
        assert_eq!(t.allowance(a(0), p(2)), 5);
    }

    #[test]
    fn kat_instances_track_spender_set_changes() {
        let t = RestrictedToken::new(3, Erc20State::with_deployer(3, p(0), 10));
        let base = t.kat_instances();
        t.approve(p(0), p(1), 4).unwrap(); // 0 → positive: new instance
        t.approve(p(0), p(1), 6).unwrap(); // positive → positive: same
        t.approve(p(0), p(1), 0).unwrap(); // positive → 0: new instance
        assert_eq!(t.kat_instances(), base + 2);
    }

    #[test]
    fn differential_against_restricted_spec() {
        let initial = Erc20State::with_deployer(4, p(0), 12);
        let spec = RestrictedErc20Spec::new(2, initial.clone());
        let t = RestrictedToken::new(2, initial);
        let mut oracle = spec.initial_state();
        let mut rng = StdRng::seed_from_u64(11);
        for step in 0..600 {
            let caller = p(rng.gen_range(0..4));
            let op = match rng.gen_range(0..5) {
                0 => Erc20Op::Transfer {
                    to: a(rng.gen_range(0..4)),
                    value: rng.gen_range(0..4),
                },
                1 => Erc20Op::TransferFrom {
                    from: a(rng.gen_range(0..4)),
                    to: a(rng.gen_range(0..4)),
                    value: rng.gen_range(0..4),
                },
                2 => Erc20Op::Approve {
                    spender: p(rng.gen_range(0..4)),
                    value: rng.gen_range(0..4),
                },
                3 => Erc20Op::BalanceOf {
                    account: a(rng.gen_range(0..4)),
                },
                _ => Erc20Op::Allowance {
                    account: a(rng.gen_range(0..4)),
                    spender: p(rng.gen_range(0..4)),
                },
            };
            let expected = spec.apply(&mut oracle, caller, &op);
            let got = t.apply(caller, &op);
            assert_eq!(got, expected, "step {step}: divergence on {op:?}");
        }
        assert_eq!(t.snapshot(), oracle);
    }

    #[test]
    fn restricted_stays_in_qk() {
        // Theorem 4's enabling invariant: every reachable state lies in
        // Q_1 ∪ … ∪ Q_k, even as balances move onto accounts with dormant
        // positive allowances.
        let initial = Erc20State::with_deployer(5, p(0), 20);
        let spec = RestrictedErc20Spec::new(3, initial.clone());
        let mut oracle = spec.initial_state();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let caller = p(rng.gen_range(0..5));
            let op = match rng.gen_range(0..3) {
                0 => Erc20Op::Transfer {
                    to: a(rng.gen_range(0..5)),
                    value: rng.gen_range(0..5),
                },
                1 => Erc20Op::TransferFrom {
                    from: a(rng.gen_range(0..5)),
                    to: a(rng.gen_range(0..5)),
                    value: rng.gen_range(0..5),
                },
                _ => Erc20Op::Approve {
                    spender: p(rng.gen_range(0..5)),
                    value: rng.gen_range(0..3),
                },
            };
            spec.apply(&mut oracle, caller, &op);
            assert!(within_restriction(&oracle, 3));
            assert!(partition_index(&oracle) <= 3);
        }
    }

    #[test]
    fn concurrent_use_preserves_supply_and_restriction() {
        use std::sync::Arc;
        let t = Arc::new(RestrictedToken::new(
            2,
            Erc20State::from_balances(vec![50, 50, 50, 50]),
        ));
        std::thread::scope(|s| {
            for i in 0..4 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(i as u64 + 99);
                    for _ in 0..300 {
                        match rng.gen_range(0..3) {
                            0 => {
                                let _ =
                                    t.transfer(p(i), a(rng.gen_range(0..4)), rng.gen_range(0..4));
                            }
                            1 => {
                                let _ =
                                    t.approve(p(i), p(rng.gen_range(0..4)), rng.gen_range(0..4));
                            }
                            _ => {
                                let _ = t.transfer_from(
                                    p(i),
                                    a(rng.gen_range(0..4)),
                                    a(rng.gen_range(0..4)),
                                    rng.gen_range(0..4),
                                );
                            }
                        }
                    }
                });
            }
        });
        let final_state = t.snapshot();
        assert_eq!(final_state.total_supply(), 200);
        assert!(within_restriction(&final_state, 2));
    }

    #[test]
    #[should_panic(expected = "already exceeds")]
    fn oversubscribed_initial_state_rejected() {
        let mut q = Erc20State::from_balances(vec![5, 0, 0]);
        q.set_allowance(a(0), p(1), 1);
        q.set_allowance(a(0), p(2), 1);
        let _t = RestrictedToken::new(2, q);
    }
}
