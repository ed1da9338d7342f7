//! The *k-shared asset transfer* object (`k`-AT) of Guerraoui et al.
//! (PODC 2019), as recalled in Definition 1 of the paper.
//!
//! An asset transfer object is the shared-memory distillation of a
//! cryptocurrency: accounts hold balances, and any owner of a source account
//! may transfer funds, provided the balance suffices. When the owner map `µ`
//! allows up to `k` owners per account the object is a `k`-AT and its
//! consensus number is exactly `k` — the starting point the paper contrasts
//! ERC20 tokens against.
//!
//! This crate provides:
//!
//! * [`OwnerMap`] — the static map `µ : A → 2^Π`.
//! * [`AtSpec`] — Definition 1 as a sequential
//!   [`ObjectType`](tokensync_spec::ObjectType).
//! * [`SharedAt`] — a linearizable, wait-free concurrent implementation.
//! * [`AtConsensus`] — wait-free consensus among the `k` owners of a shared
//!   account (the `CN(k-AT) ≥ k` direction of Guerraoui et al.), mirroring
//!   the race in the paper's Algorithm 1.
//! * [`Drain`] — that race's decisive part for the step machine of
//!   [`tokensync_spec::race`], and [`Proposals`] — the registers and
//!   driver that run any such race on threads.
//!
//! # Example
//!
//! ```
//! use tokensync_kat::{OwnerMap, SharedAt};
//! use tokensync_spec::{AccountId, ProcessId};
//!
//! // Two accounts: a0 shared by p0 and p1, a1 owned by p1.
//! let mut owners = OwnerMap::new(2);
//! owners.add_owner(AccountId::new(0), ProcessId::new(0));
//! owners.add_owner(AccountId::new(0), ProcessId::new(1));
//! owners.add_owner(AccountId::new(1), ProcessId::new(1));
//! assert_eq!(owners.k(), 2);
//!
//! let at = SharedAt::new(owners, vec![10, 0]);
//! at.transfer(ProcessId::new(1), AccountId::new(0), AccountId::new(1), 4).unwrap();
//! assert_eq!(at.balance_of(AccountId::new(1)), 4);
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

mod consensus;
mod owner_map;
mod shared;
mod spec;

pub use consensus::{AtConsensus, Drain, Proposals};
pub use owner_map::OwnerMap;
pub use shared::{AtError, SharedAt};
pub use spec::{AtOp, AtResp, AtSpec, AtState};
