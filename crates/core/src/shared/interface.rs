//! The interfaces shared by all concurrent token implementations.
//!
//! Two layers:
//!
//! * [`ConcurrentObject`] — the *standard-generic* contract the batched
//!   pipeline serves: a linearizable shared object whose operations carry
//!   state footprints ([`FootprintedOp`]) and whose state can be
//!   snapshotted into a sequential oracle type. ERC20, ERC721 and
//!   ERC1155 objects all implement it, the served ones through the one
//!   generic [`Served`](super::Served).
//! * [`ConcurrentToken`] — the ERC20-specific convenience subtrait with
//!   the named methods (`transfer`, `approve`, …) the paper's
//!   constructions call directly. Every `ConcurrentToken` is a
//!   `ConcurrentObject` over the [`Erc20Op`]/[`Erc20Resp`]/[`Erc20State`]
//!   alphabet.

use std::fmt::Debug;

use tokensync_spec::{AccountId, Amount, ProcessId};

use crate::analysis::FootprintedOp;
use crate::erc20::{Erc20Op, Erc20Resp, Erc20State};
use crate::error::TokenError;

/// A linearizable, concurrently accessible token object of any standard.
///
/// Every operation must appear to take effect atomically at some point
/// between invocation and response (the assumption under which all of the
/// paper's constructions operate). The associated types tie the object to
/// its formal alphabet, so the generic pipeline can schedule
/// ([`FootprintedOp`]), execute ([`ConcurrentObject::apply`]) and audit
/// ([`ConcurrentObject::snapshot`] against an
/// [`ObjectType`](tokensync_spec::ObjectType) oracle) without knowing
/// which standard it is serving.
pub trait ConcurrentObject: Send + Sync {
    /// The operation alphabet `O`, carrying its own conflict footprints.
    type Op: FootprintedOp + Clone + Debug + Send + Sync + 'static;
    /// The response alphabet `R`. `Sync` so a slice of committed
    /// entries can be shared across threads.
    type Resp: Clone + PartialEq + Debug + Send + Sync + 'static;
    /// The sequential oracle state `Q` — an atomic snapshot type
    /// comparable against a sequential replay (diagnostic / test oracle).
    /// `Send` so a durability layer can encode a snapshot on a
    /// background thread.
    type State: Clone + PartialEq + Debug + Send + 'static;

    /// Applies a formal operation, returning the formal response.
    fn apply(&self, process: ProcessId, op: &Self::Op) -> Self::Resp;

    /// Applies `ops` in order and returns their responses in order, as
    /// one [`apply`](Self::apply) per op would. The default is that
    /// loop; a [`Served`](super::Served) object takes its lock once for
    /// the whole batch.
    fn apply_batch(&self, ops: &[(ProcessId, Self::Op)]) -> Vec<Self::Resp> {
        ops.iter().map(|(c, op)| self.apply(*c, op)).collect()
    }

    /// An atomic snapshot of the full state.
    fn snapshot(&self) -> Self::State;
}

impl<T: ConcurrentObject + ?Sized> ConcurrentObject for std::sync::Arc<T> {
    type Op = T::Op;
    type Resp = T::Resp;
    type State = T::State;

    fn apply(&self, process: ProcessId, op: &Self::Op) -> Self::Resp {
        (**self).apply(process, op)
    }
    fn apply_batch(&self, ops: &[(ProcessId, Self::Op)]) -> Vec<Self::Resp> {
        (**self).apply_batch(ops)
    }
    fn snapshot(&self) -> Self::State {
        (**self).snapshot()
    }
}

/// Dispatches a formal [`Erc20Op`] to the named [`ConcurrentToken`]
/// methods — the shared body of every ERC20 object's
/// [`ConcurrentObject::apply`].
pub fn apply_erc20<T: ConcurrentToken + ?Sized>(
    token: &T,
    process: ProcessId,
    op: &Erc20Op,
) -> Erc20Resp {
    match *op {
        Erc20Op::Transfer { to, value } => {
            Erc20Resp::Bool(token.transfer(process, to, value).is_ok())
        }
        Erc20Op::TransferFrom { from, to, value } => {
            Erc20Resp::Bool(token.transfer_from(process, from, to, value).is_ok())
        }
        Erc20Op::Approve { spender, value } => {
            Erc20Resp::Bool(token.approve(process, spender, value).is_ok())
        }
        Erc20Op::BalanceOf { account } => Erc20Resp::Amount(token.balance_of(account)),
        Erc20Op::Allowance { account, spender } => {
            Erc20Resp::Amount(token.allowance(account, spender))
        }
        Erc20Op::TotalSupply => Erc20Resp::Amount(token.total_supply()),
    }
}

/// A linearizable, concurrently accessible ERC20 token object.
///
/// Mirrors [`Erc20State`]'s transitions and reads with `&self` methods.
/// The formal alphabet is fixed by the supertrait: a `ConcurrentToken`
/// *is* a [`ConcurrentObject`] over
/// [`Erc20Op`]/[`Erc20Resp`]/[`Erc20State`], which is what lets the
/// generic pipeline and the ERC20-specific constructions share one
/// object.
pub trait ConcurrentToken:
    ConcurrentObject<Op = Erc20Op, Resp = Erc20Resp, State = Erc20State>
{
    /// Number of accounts `n`.
    fn accounts(&self) -> usize;

    /// `transfer(to, value)` as `caller`.
    ///
    /// # Errors
    ///
    /// As [`Erc20State::transfer`](crate::erc20::Erc20State::transfer).
    fn transfer(&self, caller: ProcessId, to: AccountId, value: Amount) -> Result<(), TokenError>;

    /// `transferFrom(from, to, value)` as `caller`.
    ///
    /// # Errors
    ///
    /// As [`Erc20State::transfer_from`](crate::erc20::Erc20State::transfer_from).
    fn transfer_from(
        &self,
        caller: ProcessId,
        from: AccountId,
        to: AccountId,
        value: Amount,
    ) -> Result<(), TokenError>;

    /// `approve(spender, value)` as `caller`.
    ///
    /// # Errors
    ///
    /// As [`Erc20State::approve`](crate::erc20::Erc20State::approve).
    fn approve(
        &self,
        caller: ProcessId,
        spender: ProcessId,
        value: Amount,
    ) -> Result<(), TokenError>;

    /// `balanceOf(account)`.
    fn balance_of(&self, account: AccountId) -> Amount;

    /// `allowance(account, spender)`.
    fn allowance(&self, account: AccountId, spender: ProcessId) -> Amount;

    /// `totalSupply()` — atomic with respect to transfers.
    fn total_supply(&self) -> Amount;
}
