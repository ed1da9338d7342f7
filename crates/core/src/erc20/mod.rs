//! The ERC20 token object of Definition 3 / Algorithm 3.
//!
//! The object's state is a pair `(β, α)` of a balance map and an allowance
//! map; its operations are `transfer`, `transferFrom`, `approve` and the
//! read-only `balanceOf`, `allowance`, `totalSupply`. The module provides:
//!
//! * [`Erc20State`] — the state `q = (β, α)` with the transition logic of
//!   `Δ` as typed-error methods. Allowance rows are sparse
//!   ([`SpenderMap`]): memory is `O(n + outstanding approvals)`, so the
//!   object scales to millions of accounts.
//! * [`Erc20Op`] / [`Erc20Resp`] — the operation and response alphabets
//!   `O` and `R`.
//! * [`Erc20Spec`] — the full object type, pluggable into the
//!   linearizability checker and the model checker.

mod ops;
mod sparse;
mod spec;
mod state;

pub use ops::{Erc20Op, Erc20Resp};
pub use sparse::SpenderMap;
pub use spec::Erc20Spec;
pub(crate) use state::AccountBits;
pub use state::{Erc20Delta, Erc20State};
