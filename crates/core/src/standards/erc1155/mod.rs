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
//! The standard has one representation, the dense sequential state
//! [`Erc1155State`]: an `accounts × types` balance matrix. Its typed
//! transitions (`safe_transfer_from`, `safe_batch_transfer_from`,
//! `set_approval_for_all`) and `balance_of_batch` return
//! [`Erc1155Error`], and its `enabled_movers`/`sync_level` give the
//! census. The `object` submodule also makes the standard a *servable*
//! concurrent object: the footprinted [`Erc1155Op`]/[`Erc1155Resp`]
//! alphabet (batch ops union their `(type, account)` cells), the
//! [`Erc1155Spec`] oracle (the typed transitions, `Ok` as `TRUE`), and
//! the one-lock [`ShardedErc1155`] the generic pipeline executes — the
//! same state behind a lock, plus its dirty tracking.

use std::fmt;

use tokensync_spec::{AccountId, Amount, ProcessId};

mod object;

pub use object::{
    per_type_sums_fit, Erc1155Delta, Erc1155Op, Erc1155Resp, Erc1155Spec, Erc1155State,
    Erc1155Tracked, ShardedErc1155,
};

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
        /// Amount required, saturating at `u64::MAX`.
        required: Amount,
    },
    /// An id was out of range.
    BadId,
    /// Batch arrays had different lengths.
    LengthMismatch,
    /// `setApprovalForAll` naming the caller as its own operator.
    SelfApproval,
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
            Erc1155Error::LengthMismatch => write!(f, "batch arrays differ in length"),
            Erc1155Error::SelfApproval => write!(f, "a holder cannot be its own operator"),
        }
    }
}

impl std::error::Error for Erc1155Error {}

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
        let mut m = Erc1155State::deploy(3, p(0), &[10, 5]);
        m.safe_transfer_from(p(0), a(0), a(1), t(0), 4).unwrap();
        assert_eq!(m.balance_of(a(1), t(0)), 4);
        assert_eq!(m.total_supply(t(0)), 10);
        assert_eq!(m.total_supply(t(1)), 5);
    }

    #[test]
    fn batch_is_atomic_on_failure() {
        let mut m = Erc1155State::deploy(2, p(0), &[10, 2]);
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
        let mut m = Erc1155State::deploy(2, p(0), &[10]);
        // 6 + 6 = 12 > 10 even though each row alone fits.
        let err = m
            .safe_batch_transfer_from(p(0), a(0), a(1), &[t(0), t(0)], &[6, 6])
            .unwrap_err();
        assert!(matches!(err, Erc1155Error::InsufficientBalance { .. }));
        // 6 + 4 = 10 is fine.
        m.safe_batch_transfer_from(p(0), a(0), a(1), &[t(0), t(0)], &[6, 4])
            .unwrap();
        assert_eq!(m.balance_of(a(1), t(0)), 10);
        // Amounts summing past u64::MAX are an overdraft too, not a wrap.
        assert_eq!(
            m.safe_batch_transfer_from(p(1), a(1), a(0), &[t(0), t(0)], &[u64::MAX, 1]),
            Err(Erc1155Error::InsufficientBalance {
                type_id: t(0),
                balance: 10,
                required: u64::MAX,
            })
        );
    }

    #[test]
    fn operators_span_all_types() {
        let mut m = Erc1155State::deploy(3, p(0), &[5, 5]);
        m.set_approval_for_all(p(0), p(2), true).unwrap();
        m.safe_transfer_from(p(2), a(0), a(2), t(0), 1).unwrap();
        m.safe_transfer_from(p(2), a(0), a(2), t(1), 1).unwrap();
        assert_eq!(m.balance_of(a(2), t(1)), 1);
        m.set_approval_for_all(p(0), p(2), false).unwrap();
        assert!(m.safe_transfer_from(p(2), a(0), a(2), t(0), 1).is_err());
        assert_eq!(
            m.set_approval_for_all(p(0), p(0), true),
            Err(Erc1155Error::SelfApproval)
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut m = Erc1155State::deploy(2, p(0), &[5]);
        assert_eq!(
            m.safe_batch_transfer_from(p(0), a(0), a(1), &[t(0)], &[1, 2]),
            Err(Erc1155Error::LengthMismatch)
        );
    }

    #[test]
    fn census_follows_operators_and_holdings() {
        let mut m = Erc1155State::deploy(3, p(0), &[5]);
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
        let m = Erc1155State::deploy(2, p(0), &[7, 9]);
        assert_eq!(
            m.balance_of_batch(&[a(0), a(0), a(1)], &[t(0), t(1), t(0)]),
            Ok(vec![7, 9, 0])
        );
        // Unequal lengths are refused, not truncated to the shorter one.
        assert_eq!(
            m.balance_of_batch(&[a(0), a(1)], &[t(0)]),
            Err(Erc1155Error::LengthMismatch)
        );
    }
}
