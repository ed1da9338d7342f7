//! The ERC1155 multi-token standard.
//!
//! One contract manages many token *types*; per-account operators may move
//! any of the holder's types, and batch methods transfer several types
//! atomically. The paper observes that ERC1155 plausibly inherits ERC20's
//! synchronization requirements but that exact bounds "would need an
//! in-depth analysis, based on combinations of accounts" — we implement the
//! object, its operator census (an upper-bound analogue of `σ`), and leave
//! the exact characterization as future work (the §6 rows of
//! `docs/paper-map.md`; `e8_standards` prints the census).
//!
//! The `object` submodule provides the standard as a *servable*
//! concurrent object: the footprinted [`Erc1155Op`]/[`Erc1155Resp`]
//! alphabet (batch ops union their `(type, account)` cells), the
//! [`Erc1155Spec`] oracle, and the lock-striped [`ShardedErc1155`] the
//! generic pipeline executes.

use std::collections::BTreeSet;
use std::fmt;

use tokensync_spec::{AccountId, Amount, ProcessId};

mod object;

pub use object::{Erc1155Delta, Erc1155Op, Erc1155Resp, Erc1155Spec, Erc1155State, ShardedErc1155};

/// Identifier of a token *type* within an ERC1155 contract.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct TypeId(usize);

impl TypeId {
    /// Creates a type id.
    pub const fn new(index: usize) -> Self {
        Self(index)
    }

    /// Zero-based index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type{}", self.0)
    }
}

/// Errors of the ERC1155 object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Erc1155Error {
    /// Caller is neither the holder nor an approved operator.
    NotAuthorized {
        /// The refused caller.
        caller: ProcessId,
        /// The source account.
        from: AccountId,
    },
    /// A balance was insufficient (for batches: no partial effects).
    InsufficientBalance {
        /// The token type that failed.
        type_id: TypeId,
        /// Balance available.
        balance: Amount,
        /// Amount required.
        required: Amount,
    },
    /// An id was out of range.
    BadId,
    /// Batch arrays had different lengths.
    LengthMismatch,
}

impl fmt::Display for Erc1155Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Erc1155Error::NotAuthorized { caller, from } => {
                write!(f, "{caller} is not an operator for {from}")
            }
            Erc1155Error::InsufficientBalance {
                type_id,
                balance,
                required,
            } => write!(
                f,
                "balance of {type_id} is {balance}, operation requires {required}"
            ),
            Erc1155Error::BadId => write!(f, "account, process, or type id out of range"),
            Erc1155Error::LengthMismatch => write!(f, "ids and amounts arrays differ in length"),
        }
    }
}

impl std::error::Error for Erc1155Error {}

/// A sequential ERC1155 multi-token contract.
///
/// # Example
///
/// ```
/// use tokensync_core::standards::erc1155::{Erc1155Token, TypeId};
/// use tokensync_spec::{AccountId, ProcessId};
///
/// // 2 token types, 3 accounts; deployer holds 10 of each type.
/// let mut multi = Erc1155Token::deploy(3, ProcessId::new(0), &[10, 10]);
/// multi.safe_batch_transfer_from(
///     ProcessId::new(0),
///     AccountId::new(0),
///     AccountId::new(1),
///     &[TypeId::new(0), TypeId::new(1)],
///     &[3, 4],
/// )?;
/// assert_eq!(multi.balance_of(AccountId::new(1), TypeId::new(1)), 4);
/// # Ok::<(), tokensync_core::standards::erc1155::Erc1155Error>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Erc1155Token {
    /// `balances[type][account]`.
    balances: Vec<Vec<Amount>>,
    /// `operators[account]`: processes approved for all of the account's
    /// types.
    operators: Vec<BTreeSet<ProcessId>>,
}

impl Erc1155Token {
    /// Deploys with `n` accounts and one token type per entry of
    /// `supplies`, all initially held by `deployer`.
    ///
    /// # Panics
    ///
    /// Panics if `deployer.index() >= n`.
    pub fn deploy(n: usize, deployer: ProcessId, supplies: &[Amount]) -> Self {
        assert!(deployer.index() < n, "deployer out of range");
        let balances = supplies
            .iter()
            .map(|s| {
                let mut row = vec![0; n];
                row[deployer.index()] = *s;
                row
            })
            .collect();
        Self {
            balances,
            operators: vec![BTreeSet::new(); n],
        }
    }

    /// Number of accounts.
    pub fn accounts(&self) -> usize {
        self.operators.len()
    }

    /// Number of token types.
    pub fn types(&self) -> usize {
        self.balances.len()
    }

    /// `balanceOf(account, id)`.
    pub fn balance_of(&self, account: AccountId, type_id: TypeId) -> Amount {
        self.balances
            .get(type_id.index())
            .and_then(|row| row.get(account.index()))
            .copied()
            .unwrap_or(0)
    }

    /// `balanceOfBatch`: one `(account, id)` query per pair.
    pub fn balance_of_batch(&self, accounts: &[AccountId], ids: &[TypeId]) -> Vec<Amount> {
        accounts
            .iter()
            .zip(ids)
            .map(|(a, t)| self.balance_of(*a, *t))
            .collect()
    }

    /// Total supply of one token type (invariant under transfers).
    pub fn total_supply(&self, type_id: TypeId) -> Amount {
        self.balances
            .get(type_id.index())
            .map(|row| row.iter().sum())
            .unwrap_or(0)
    }

    /// `setApprovalForAll(operator, approved)` by `caller`.
    ///
    /// # Errors
    ///
    /// [`Erc1155Error::BadId`] for out-of-range ids.
    pub fn set_approval_for_all(
        &mut self,
        caller: ProcessId,
        operator: ProcessId,
        approved: bool,
    ) -> Result<(), Erc1155Error> {
        if caller.index() >= self.accounts() || operator.index() >= self.accounts() {
            return Err(Erc1155Error::BadId);
        }
        if approved {
            if operator != caller {
                self.operators[caller.index()].insert(operator);
            }
        } else {
            self.operators[caller.index()].remove(&operator);
        }
        Ok(())
    }

    /// `isApprovedForAll(account, operator)` — holders operate for
    /// themselves.
    pub fn is_approved_for_all(&self, account: AccountId, operator: ProcessId) -> bool {
        operator == account.owner()
            || self
                .operators
                .get(account.index())
                .is_some_and(|s| s.contains(&operator))
    }

    /// `safeTransferFrom(from, to, id, amount)` by `caller`.
    ///
    /// # Errors
    ///
    /// [`Erc1155Error::NotAuthorized`], [`Erc1155Error::InsufficientBalance`],
    /// or [`Erc1155Error::BadId`]. The state is unchanged on error.
    pub fn safe_transfer_from(
        &mut self,
        caller: ProcessId,
        from: AccountId,
        to: AccountId,
        type_id: TypeId,
        amount: Amount,
    ) -> Result<(), Erc1155Error> {
        self.safe_batch_transfer_from(caller, from, to, &[type_id], &[amount])
    }

    /// `safeBatchTransferFrom(from, to, ids, amounts)` by `caller` —
    /// **atomic**: either every row moves or none does.
    ///
    /// # Errors
    ///
    /// [`Erc1155Error::LengthMismatch`], plus those of
    /// [`Erc1155Token::safe_transfer_from`]. The state is unchanged on
    /// error (all balances are validated before any is moved).
    pub fn safe_batch_transfer_from(
        &mut self,
        caller: ProcessId,
        from: AccountId,
        to: AccountId,
        ids: &[TypeId],
        amounts: &[Amount],
    ) -> Result<(), Erc1155Error> {
        if ids.len() != amounts.len() {
            return Err(Erc1155Error::LengthMismatch);
        }
        if from.index() >= self.accounts() || to.index() >= self.accounts() {
            return Err(Erc1155Error::BadId);
        }
        if !self.is_approved_for_all(from, caller) {
            return Err(Erc1155Error::NotAuthorized { caller, from });
        }
        // Validate everything first: batch semantics are all-or-nothing.
        // Aggregate per type id so duplicated ids in one batch cannot
        // overdraw.
        let mut required: std::collections::BTreeMap<TypeId, Amount> = Default::default();
        for (t, v) in ids.iter().zip(amounts) {
            if t.index() >= self.types() {
                return Err(Erc1155Error::BadId);
            }
            *required.entry(*t).or_insert(0) += v;
        }
        for (t, v) in &required {
            let balance = self.balance_of(from, *t);
            if balance < *v {
                return Err(Erc1155Error::InsufficientBalance {
                    type_id: *t,
                    balance,
                    required: *v,
                });
            }
        }
        for (t, v) in &required {
            self.balances[t.index()][from.index()] -= v;
            self.balances[t.index()][to.index()] += v;
        }
        Ok(())
    }

    /// The operator census of `account`: `{owner} ∪ operators(account)` if
    /// the account holds any tokens of any type, `{owner}` otherwise — the
    /// conservative ERC1155 analogue of `σ_q(a)`, upper-bounding the
    /// contract's synchronization needs per account.
    pub fn enabled_movers(&self, account: AccountId) -> BTreeSet<ProcessId> {
        let mut set = BTreeSet::new();
        set.insert(account.owner());
        let holds_any = (0..self.types()).any(|t| self.balance_of(account, TypeId::new(t)) > 0);
        if holds_any {
            if let Some(ops) = self.operators.get(account.index()) {
                set.extend(ops.iter().copied());
            }
        }
        set
    }

    /// `max_a |movers(a)|` — the upper-bound synchronization level.
    pub fn sync_level(&self) -> usize {
        (0..self.accounts())
            .map(|i| self.enabled_movers(AccountId::new(i)).len())
            .max()
            .unwrap_or(1)
            .max(1)
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
    fn t(i: usize) -> TypeId {
        TypeId::new(i)
    }

    #[test]
    fn deploy_and_single_transfer() {
        let mut m = Erc1155Token::deploy(3, p(0), &[10, 5]);
        m.safe_transfer_from(p(0), a(0), a(1), t(0), 4).unwrap();
        assert_eq!(m.balance_of(a(1), t(0)), 4);
        assert_eq!(m.total_supply(t(0)), 10);
        assert_eq!(m.total_supply(t(1)), 5);
    }

    #[test]
    fn batch_is_atomic_on_failure() {
        let mut m = Erc1155Token::deploy(2, p(0), &[10, 2]);
        let before = m.clone();
        // Second row overdraws: nothing must move.
        let err = m
            .safe_batch_transfer_from(p(0), a(0), a(1), &[t(0), t(1)], &[3, 5])
            .unwrap_err();
        assert!(matches!(err, Erc1155Error::InsufficientBalance { .. }));
        assert_eq!(m, before);
    }

    #[test]
    fn batch_with_duplicate_ids_cannot_overdraw() {
        let mut m = Erc1155Token::deploy(2, p(0), &[10]);
        // 6 + 6 = 12 > 10 even though each row alone fits.
        let err = m
            .safe_batch_transfer_from(p(0), a(0), a(1), &[t(0), t(0)], &[6, 6])
            .unwrap_err();
        assert!(matches!(err, Erc1155Error::InsufficientBalance { .. }));
        // 6 + 4 = 10 is fine.
        m.safe_batch_transfer_from(p(0), a(0), a(1), &[t(0), t(0)], &[6, 4])
            .unwrap();
        assert_eq!(m.balance_of(a(1), t(0)), 10);
    }

    #[test]
    fn operators_span_all_types() {
        let mut m = Erc1155Token::deploy(3, p(0), &[5, 5]);
        m.set_approval_for_all(p(0), p(2), true).unwrap();
        m.safe_transfer_from(p(2), a(0), a(2), t(0), 1).unwrap();
        m.safe_transfer_from(p(2), a(0), a(2), t(1), 1).unwrap();
        assert_eq!(m.balance_of(a(2), t(1)), 1);
        m.set_approval_for_all(p(0), p(2), false).unwrap();
        assert!(m.safe_transfer_from(p(2), a(0), a(2), t(0), 1).is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut m = Erc1155Token::deploy(2, p(0), &[5]);
        assert_eq!(
            m.safe_batch_transfer_from(p(0), a(0), a(1), &[t(0)], &[1, 2]),
            Err(Erc1155Error::LengthMismatch)
        );
    }

    #[test]
    fn census_follows_operators_and_holdings() {
        let mut m = Erc1155Token::deploy(3, p(0), &[5]);
        m.set_approval_for_all(p(0), p(1), true).unwrap();
        m.set_approval_for_all(p(0), p(2), true).unwrap();
        assert_eq!(m.sync_level(), 3);
        // Drain the account: operators become dormant.
        m.safe_transfer_from(p(0), a(0), a(1), t(0), 5).unwrap();
        assert_eq!(m.enabled_movers(a(0)).len(), 1);
        assert_eq!(m.sync_level(), 1);
    }

    #[test]
    fn balance_of_batch_pairs_queries() {
        let m = Erc1155Token::deploy(2, p(0), &[7, 9]);
        assert_eq!(
            m.balance_of_batch(&[a(0), a(0), a(1)], &[t(0), t(1), t(0)]),
            vec![7, 9, 0]
        );
    }
}
