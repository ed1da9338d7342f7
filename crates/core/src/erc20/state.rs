//! The ERC20 state `q = (β, α)` and its transition logic.

use std::fmt;

use tokensync_spec::{AccountId, Amount, ProcessId};

use crate::error::TokenError;

use super::sparse::SpenderMap;

/// The state of an ERC20 token object: the balance map
/// `β : A → ℕ` and the allowance map `α : A × Π → ℕ` (Definition 3,
/// equation (2) of the paper).
///
/// With `n` accounts and one process per account (the paper's owner map `ω`
/// is a bijection), `balances[a]` is `β(a)` dense, while each allowance row
/// `α(a, ·)` is a sparse [`SpenderMap`] holding only the positive entries —
/// memory is `O(n + E)` where `E` is the number of outstanding approvals,
/// instead of the `O(n²)` of a dense matrix. A million-account token with a
/// few approvals per account fits in tens of megabytes; the dense matrix
/// would need eight terabytes.
///
/// Which rows are non-empty is kept beside them as one bit per account
/// (`n / 8` bytes: 125 KB at a million accounts), so enumerating the
/// approval-bearing accounts reads `n / 64` words instead of `n` rows,
/// and decoding or cloning it is one allocation whatever the number of
/// approvals.
///
/// The total supply `Σ_a β(a)` is cached and maintained incrementally by
/// the mutators (it is invariant under every object operation), so
/// [`Erc20State::total_supply`] is `O(1)`.
///
/// All mutators take the *calling process* explicitly and enforce the
/// preconditions of `Δ`; a returned [`TokenError`] corresponds exactly to a
/// `FALSE` response (state unchanged).
///
/// # Example
///
/// ```
/// use tokensync_core::erc20::Erc20State;
/// use tokensync_spec::{AccountId, ProcessId};
///
/// let mut q = Erc20State::with_deployer(3, ProcessId::new(0), 10);
/// q.transfer(ProcessId::new(0), AccountId::new(1), 3)?;
/// q.approve(ProcessId::new(1), ProcessId::new(2), 5)?;
/// assert_eq!(q.balance(AccountId::new(1)), 3);
/// assert_eq!(q.allowance(AccountId::new(1), ProcessId::new(2)), 5);
/// # Ok::<(), tokensync_core::TokenError>(())
/// ```
///
/// `Default` is the zero-account state, `Erc20State::new(0)`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Erc20State {
    balances: Vec<Amount>,
    /// `allowances[a]` is the sparse row `α(a, ·)`.
    allowances: Vec<SpenderMap>,
    /// The accounts whose row is non-empty — the support of `α` by
    /// account, flipped on every emptiness transition so the analysis
    /// layer can enumerate approval-bearing accounts without reading all
    /// `n` rows. Derived data, but canonical (a function of
    /// `allowances`), so the derived `Eq`/`Hash` stay exact.
    with_approvals: AccountBits,
    /// Cached `Σ_a β(a)`; maintained by every mutator.
    supply: Amount,
}

impl Erc20State {
    /// The all-zero state over `n` accounts.
    pub fn new(n: usize) -> Self {
        Self {
            balances: vec![0; n],
            allowances: vec![SpenderMap::new(); n],
            with_approvals: AccountBits::new(n),
            supply: 0,
        }
    }

    /// The canonical initial state `q0` of the ERC20 standard: the deployer
    /// `d` holds the whole supply, all allowances are zero (Algorithm 3,
    /// lines 7–8).
    ///
    /// # Panics
    ///
    /// Panics if `deployer.index() >= n`.
    pub fn with_deployer(n: usize, deployer: ProcessId, total_supply: Amount) -> Self {
        let mut state = Self::new(n);
        state.balances[deployer.index()] = total_supply;
        state.supply = total_supply;
        state
    }

    /// Builds a state from explicit balances (all allowances zero).
    pub fn from_balances(balances: Vec<Amount>) -> Self {
        let n = balances.len();
        let supply = balances.iter().sum();
        Self {
            balances,
            allowances: vec![SpenderMap::new(); n],
            with_approvals: AccountBits::new(n),
            supply,
        }
    }

    /// Assembles a state from rows that are already canonical: `supply`
    /// is `Σ balances`, every row of `allowances` is a valid
    /// [`SpenderMap`], and `with_approvals` over `balances.len()`
    /// accounts holds exactly the non-empty rows — so the support is set
    /// bit by bit as a decoder reads the rows instead of found by a scan.
    /// Decoders that have checked all of this use it.
    pub(crate) fn from_rows(
        balances: Vec<Amount>,
        allowances: Vec<SpenderMap>,
        with_approvals: AccountBits,
        supply: Amount,
    ) -> Self {
        debug_assert_eq!(balances.len(), allowances.len());
        let non_empty = allowances
            .iter()
            .enumerate()
            .filter(|(_, row)| !row.is_empty());
        debug_assert!(with_approvals.iter().eq(non_empty.map(|(a, _)| a)));
        Self {
            balances,
            allowances,
            with_approvals,
            supply,
        }
    }

    /// Number of accounts `n = |A| = |Π|`.
    pub fn accounts(&self) -> usize {
        self.balances.len()
    }

    /// `β(account)`; out-of-range accounts read as 0.
    pub fn balance(&self, account: AccountId) -> Amount {
        self.balances.get(account.index()).copied().unwrap_or(0)
    }

    /// `α(account, spender)`; out-of-range pairs read as 0.
    pub fn allowance(&self, account: AccountId, spender: ProcessId) -> Amount {
        self.allowances
            .get(account.index())
            .map(|row| row.get(spender.index()))
            .unwrap_or(0)
    }

    /// The outstanding approvals of `account`: every `(p, α(account, p))`
    /// with `α(account, p) > 0`, in increasing spender order. Out-of-range
    /// accounts yield nothing.
    ///
    /// This is the support of the row `α(account, ·)` — the quantity the
    /// Section 5 analysis is really about (`σ_q` is the owner plus this
    /// set), exposed so the analysis runs in `O(e)` per account rather
    /// than scanning all `n` processes.
    pub fn approvals(&self, account: AccountId) -> impl Iterator<Item = (ProcessId, Amount)> + '_ {
        self.allowances
            .get(account.index())
            .into_iter()
            .flat_map(SpenderMap::iter)
    }

    /// Number of outstanding (positive) approvals on `account`.
    pub fn approval_count(&self, account: AccountId) -> usize {
        self.allowances
            .get(account.index())
            .map(SpenderMap::len)
            .unwrap_or(0)
    }

    /// The sparse row `α(account, ·)` itself (an empty row for
    /// out-of-range accounts) — lets the concurrent implementations clone
    /// per-account state in `O(e)` without re-inserting entry by entry.
    pub fn approval_row(&self, account: AccountId) -> &SpenderMap {
        static EMPTY: SpenderMap = SpenderMap::new();
        self.allowances.get(account.index()).unwrap_or(&EMPTY)
    }

    /// The accounts with at least one outstanding approval, in increasing
    /// order — the only accounts whose enabled-spender set can exceed
    /// `{ω(a)}`. Iterating these instead of all of `A` is what makes the
    /// partition/sync-level analysis `O(n / 64 + outstanding approvals)`:
    /// the walk reads the support bitmap a word of 64 accounts at a time
    /// and touches only the rows it names.
    pub fn accounts_with_approvals(&self) -> impl Iterator<Item = AccountId> + '_ {
        self.with_approvals.iter().map(AccountId::new)
    }

    /// Total number of outstanding approvals `E = |{(a, p) : α(a, p) > 0}|`
    /// across all accounts.
    pub fn outstanding_approvals(&self) -> usize {
        self.with_approvals
            .iter()
            .map(|a| self.allowances[a].len())
            .sum()
    }

    /// `totalSupply = Σ_a β(a)`; invariant under every operation. `O(1)`
    /// via the maintained cache (debug builds assert it against the scan).
    pub fn total_supply(&self) -> Amount {
        debug_assert_eq!(
            self.supply,
            self.balances.iter().sum::<Amount>(),
            "total-supply cache diverged from the balance scan"
        );
        self.supply
    }

    /// Directly sets `β(account)` — test-fixture constructor aid; not an
    /// object operation. Adjusts the cached supply.
    ///
    /// # Panics
    ///
    /// Panics if `account` is out of range.
    pub fn set_balance(&mut self, account: AccountId, value: Amount) {
        let slot = &mut self.balances[account.index()];
        self.supply -= *slot;
        self.supply += value;
        *slot = value;
    }

    /// Directly sets `α(account, spender)` — test-fixture constructor aid;
    /// not an object operation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set_allowance(&mut self, account: AccountId, spender: ProcessId, value: Amount) {
        assert!(
            spender.index() < self.balances.len(),
            "spender {spender} out of range"
        );
        self.set_row_entry(account.index(), spender.index(), value);
    }

    /// `α(account, spender) := value`, keeping the support exact.
    fn set_row_entry(&mut self, account: usize, spender: usize, value: Amount) {
        let row = &mut self.allowances[account];
        row.set(spender, value);
        self.with_approvals.set(account, !row.is_empty());
    }

    fn check_account(&self, account: AccountId) -> Result<(), TokenError> {
        if account.index() < self.balances.len() {
            Ok(())
        } else {
            Err(TokenError::UnknownAccount { account })
        }
    }

    fn check_process(&self, process: ProcessId) -> Result<(), TokenError> {
        if process.index() < self.balances.len() {
            Ok(())
        } else {
            Err(TokenError::UnknownProcess { process })
        }
    }

    /// `transfer(a_d, v)` invoked by `caller`: moves `v` tokens from the
    /// caller's own account to `to`.
    ///
    /// # Errors
    ///
    /// [`TokenError::UnknownProcess`] / [`TokenError::UnknownAccount`] for
    /// out-of-range ids, [`TokenError::InsufficientBalance`] if
    /// `β(a_caller) < v`. The state is unchanged on error.
    pub fn transfer(
        &mut self,
        caller: ProcessId,
        to: AccountId,
        value: Amount,
    ) -> Result<(), TokenError> {
        self.check_process(caller)?;
        self.check_account(to)?;
        let from = caller.own_account();
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

    /// `transferFrom(a_s, a_d, v)` invoked by `caller`: moves `v` tokens
    /// from `from` to `to`, consuming `v` of the caller's allowance on
    /// `from`.
    ///
    /// Follows Algorithm 3's check order: allowance first, then balance.
    ///
    /// # Errors
    ///
    /// [`TokenError::InsufficientAllowance`] if `α(from, caller) < v`,
    /// [`TokenError::InsufficientBalance`] if `β(from) < v`, unknown-id
    /// errors as for [`Erc20State::transfer`]. The state is unchanged on
    /// error.
    pub fn transfer_from(
        &mut self,
        caller: ProcessId,
        from: AccountId,
        to: AccountId,
        value: Amount,
    ) -> Result<(), TokenError> {
        self.check_process(caller)?;
        self.check_account(from)?;
        self.check_account(to)?;
        let allowance = self.allowances[from.index()].get(caller.index());
        if allowance < value {
            return Err(TokenError::InsufficientAllowance {
                account: from,
                spender: caller,
                allowance,
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
        let row = &mut self.allowances[from.index()];
        row.debit(caller.index(), value);
        if row.is_empty() {
            self.with_approvals.set(from.index(), false);
        }
        self.balances[from.index()] -= value;
        self.balances[to.index()] += value;
        Ok(())
    }

    /// `approve(p̄, v)` invoked by `caller`: sets the allowance of `spender`
    /// on the caller's own account to exactly `v` (overwriting, not
    /// adding — the ERC20 semantics).
    ///
    /// # Errors
    ///
    /// Unknown-id errors only; an in-range `approve` always succeeds.
    pub fn approve(
        &mut self,
        caller: ProcessId,
        spender: ProcessId,
        value: Amount,
    ) -> Result<(), TokenError> {
        self.check_process(caller)?;
        self.check_process(spender)?;
        self.set_row_entry(caller.index(), spender.index(), value);
        Ok(())
    }

    /// Overwrites one account's full row — balance plus allowance row —
    /// with current values (the delta-snapshot apply path). Keeps the
    /// supply cache and the approval support exact.
    fn replace_account_row(&mut self, account: usize, balance: Amount, row: SpenderMap) {
        self.supply = self.supply - self.balances[account] + balance;
        self.balances[account] = balance;
        self.with_approvals.set(account, !row.is_empty());
        self.allowances[account] = row;
    }
}

/// A set of accounts `0..n` as one bit per account, `n.div_ceil(64)`
/// words. Bits at or past `n` stay clear, so the words are a function of
/// the set and its bound and the derived `Eq`/`Hash` are exact.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub(crate) struct AccountBits {
    words: Vec<u64>,
}

impl AccountBits {
    /// The empty set over accounts `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Puts `account` in the set or takes it out.
    #[inline]
    pub(crate) fn set(&mut self, account: usize, member: bool) {
        let (word, bit) = (&mut self.words[account >> 6], 1 << (account & 63));
        if member {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w << 6 | bit
                })
            })
        })
    }
}

/// Prints the members, as the ordered set it stands for.
impl fmt::Debug for AccountBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// An incremental copy-on-write snapshot of an ERC20 object: the full
/// current `(balance, allowance row)` of every account touched since the
/// previous snapshot watermark, drained from the live served object by
/// [`ShardedErc20::drain_delta`](crate::shared::ShardedErc20::drain_delta)
/// and folded back onto a base [`Erc20State`] at recovery time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Erc20Delta {
    /// `(account, balance, allowance row)` — current values, one row per
    /// touched account, in increasing account order.
    pub rows: Vec<(u32, Amount, SpenderMap)>,
}

impl Erc20Delta {
    /// Whether the delta carries no rows (nothing was touched).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Folds the delta onto `state`, overwriting every carried row with
    /// its current value. Returns `false` (state only partially
    /// meaningful — the caller must discard it) if any row is out of the
    /// state's account range; a valid producer never emits such a row,
    /// so `false` means a corrupt or foreign delta file.
    pub fn apply_to(&self, state: &mut Erc20State) -> bool {
        let n = state.accounts();
        if self.rows.iter().any(|&(a, _, _)| a as usize >= n) {
            return false;
        }
        for (a, balance, row) in &self.rows {
            state.replace_account_row(*a as usize, *balance, row.clone());
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }
    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn deployer_holds_supply() {
        let q = Erc20State::with_deployer(3, p(1), 100);
        assert_eq!(q.balance(a(1)), 100);
        assert_eq!(q.balance(a(0)), 0);
        assert_eq!(q.total_supply(), 100);
    }

    #[test]
    fn transfer_moves_and_conserves() {
        let mut q = Erc20State::with_deployer(2, p(0), 10);
        q.transfer(p(0), a(1), 4).unwrap();
        assert_eq!((q.balance(a(0)), q.balance(a(1))), (6, 4));
        assert_eq!(q.total_supply(), 10);
    }

    #[test]
    fn transfer_insufficient_balance_keeps_state() {
        let mut q = Erc20State::with_deployer(2, p(0), 3);
        let before = q.clone();
        let err = q.transfer(p(0), a(1), 4).unwrap_err();
        assert_eq!(
            err,
            TokenError::InsufficientBalance {
                account: a(0),
                balance: 3,
                required: 4
            }
        );
        assert_eq!(q, before);
    }

    #[test]
    fn transfer_to_self_is_noop_success() {
        let mut q = Erc20State::with_deployer(2, p(0), 3);
        let before = q.clone();
        q.transfer(p(0), a(0), 2).unwrap();
        assert_eq!(q, before);
    }

    #[test]
    fn approve_overwrites_allowance() {
        let mut q = Erc20State::with_deployer(2, p(0), 3);
        q.approve(p(0), p(1), 7).unwrap();
        assert_eq!(q.allowance(a(0), p(1)), 7);
        q.approve(p(0), p(1), 2).unwrap();
        assert_eq!(q.allowance(a(0), p(1)), 2);
        // Revocation: reset to zero.
        q.approve(p(0), p(1), 0).unwrap();
        assert_eq!(q.allowance(a(0), p(1)), 0);
    }

    #[test]
    fn transfer_from_consumes_allowance() {
        let mut q = Erc20State::with_deployer(3, p(0), 10);
        q.approve(p(0), p(2), 6).unwrap();
        q.transfer_from(p(2), a(0), a(1), 4).unwrap();
        assert_eq!(q.balance(a(0)), 6);
        assert_eq!(q.balance(a(1)), 4);
        assert_eq!(q.allowance(a(0), p(2)), 2);
    }

    #[test]
    fn transfer_from_checks_allowance_before_balance() {
        let mut q = Erc20State::with_deployer(2, p(0), 1);
        // allowance 0 < 5 and balance 1 < 5: Algorithm 3 reports allowance.
        let err = q.transfer_from(p(1), a(0), a(1), 5).unwrap_err();
        assert!(matches!(err, TokenError::InsufficientAllowance { .. }));
    }

    #[test]
    fn example_1_insufficient_balance_case() {
        // The Example 1 step where Charlie's allowance permits 5 but Bob's
        // balance is only 3: FALSE, state unchanged.
        let mut q = Erc20State::with_deployer(3, p(0), 10);
        q.transfer(p(0), a(1), 3).unwrap();
        q.approve(p(1), p(2), 5).unwrap();
        let before = q.clone();
        let err = q.transfer_from(p(2), a(1), a(2), 5).unwrap_err();
        assert!(matches!(err, TokenError::InsufficientBalance { .. }));
        assert_eq!(q, before);
    }

    #[test]
    fn transfer_from_to_source_account_still_burns_allowance() {
        let mut q = Erc20State::with_deployer(2, p(0), 5);
        q.approve(p(0), p(1), 3).unwrap();
        q.transfer_from(p(1), a(0), a(0), 2).unwrap();
        assert_eq!(q.balance(a(0)), 5);
        assert_eq!(q.allowance(a(0), p(1)), 1);
    }

    #[test]
    fn unknown_ids_rejected() {
        let mut q = Erc20State::with_deployer(2, p(0), 5);
        assert!(matches!(
            q.transfer(p(0), a(9), 1),
            Err(TokenError::UnknownAccount { .. })
        ));
        assert!(matches!(
            q.transfer(p(9), a(0), 1),
            Err(TokenError::UnknownProcess { .. })
        ));
        assert!(matches!(
            q.approve(p(0), p(9), 1),
            Err(TokenError::UnknownProcess { .. })
        ));
        assert!(matches!(
            q.transfer_from(p(0), a(0), a(9), 1),
            Err(TokenError::UnknownAccount { .. })
        ));
    }

    #[test]
    fn zero_value_operations_succeed() {
        let mut q = Erc20State::with_deployer(2, p(0), 0);
        q.transfer(p(0), a(1), 0).unwrap();
        q.approve(p(1), p(0), 0).unwrap();
        q.transfer_from(p(0), a(1), a(0), 0).unwrap();
        assert_eq!(q.total_supply(), 0);
    }

    #[test]
    fn revoked_state_equals_untouched_state() {
        // Canonical sparse encoding: approve-then-revoke leaves no trace,
        // so derived equality/hashing match mathematical state equality.
        let mut q = Erc20State::with_deployer(3, p(0), 5);
        q.approve(p(0), p(1), 4).unwrap();
        q.approve(p(0), p(1), 0).unwrap();
        assert_eq!(q, Erc20State::with_deployer(3, p(0), 5));
    }

    #[test]
    fn approvals_iterator_yields_only_positive_entries() {
        let mut q = Erc20State::with_deployer(4, p(0), 9);
        q.approve(p(0), p(3), 2).unwrap();
        q.approve(p(0), p(1), 7).unwrap();
        q.approve(p(0), p(2), 1).unwrap();
        q.approve(p(0), p(2), 0).unwrap(); // revoked
        let got: Vec<(usize, Amount)> = q.approvals(a(0)).map(|(p, v)| (p.index(), v)).collect();
        assert_eq!(got, vec![(1, 7), (3, 2)]);
        assert_eq!(q.approval_count(a(0)), 2);
        assert_eq!(q.approvals(a(9)).count(), 0); // out of range: empty
    }

    #[test]
    fn accounts_with_approvals_tracks_support() {
        let mut q = Erc20State::with_deployer(4, p(0), 9);
        assert_eq!(q.accounts_with_approvals().count(), 0);
        q.approve(p(2), p(0), 3).unwrap();
        q.approve(p(0), p(1), 1).unwrap();
        let with: Vec<usize> = q.accounts_with_approvals().map(|a| a.index()).collect();
        assert_eq!(with, vec![0, 2]);
        assert_eq!(q.outstanding_approvals(), 2);
        q.approve(p(0), p(1), 0).unwrap();
        assert_eq!(
            q.accounts_with_approvals()
                .map(|a| a.index())
                .collect::<Vec<_>>(),
            vec![2]
        );
    }

    #[test]
    fn supply_cache_survives_mutation_mix() {
        let mut q = Erc20State::from_balances(vec![7, 2, 0]);
        assert_eq!(q.total_supply(), 9);
        q.transfer(p(0), a(2), 3).unwrap();
        q.approve(p(2), p(1), 2).unwrap();
        q.transfer_from(p(1), a(2), a(1), 2).unwrap();
        assert_eq!(q.total_supply(), 9); // debug build re-verifies by scan
        q.set_balance(a(1), 10);
        assert_eq!(q.total_supply(), 9 - 4 + 10);
    }
}
