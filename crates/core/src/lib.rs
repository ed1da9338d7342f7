//! ERC20 tokens as shared objects — the primary contribution of
//! *On the Synchronization Power of Token Smart Contracts* (Alpos, Cachin,
//! Marson, Zanolini — ICDCS 2021), reproduced as a Rust library.
//!
//! The paper models an ERC20 token contract as a sequential shared-memory
//! object `T = (Q, q0, O, R, Δ)` (Definition 3) and shows that its
//! *consensus number is a function of its state*: the object is exactly as
//! powerful as consensus among the largest set of *enabled spenders*
//! `σ_q(a)` of any single account — a level that changes as `approve`
//! operations execute. This crate implements the whole story:
//!
//! * [`erc20`] — the token object: sequential specification
//!   ([`Erc20Spec`]) over the state [`Erc20State`], whose transitions
//!   are Algorithm 3 of the paper with typed errors.
//! * [`shared`] — linearizable concurrent implementations
//!   ([`SharedErc20`], [`ShardedErc20`]) behind the
//!   ERC20 [`ConcurrentToken`] interface, itself an instance of the
//!   standard-generic [`ConcurrentObject`] trait (footprinted ops +
//!   oracle snapshots) the batched pipeline serves.
//! * [`analysis`] — the Section 5 machinery: enabled spenders `σ_q`,
//!   the partition `{Q_k}`, the unique-winner predicate `U`,
//!   synchronization states `S_k`, and per-state consensus-number bounds
//!   ([`CnBounds`]); plus a [`SyncMonitor`] tracking the *dynamic*
//!   consensus number of a live token.
//! * [`token_consensus`] — **Algorithm 1**: wait-free consensus for `k`
//!   processes from a token in a `k`-synchronization state plus `k` atomic
//!   registers (Theorem 2).
//! * [`emulation`] — **Algorithm 2**: the restricted object `T|Q_k`
//!   implemented from `k`-shared asset transfer and registers (Theorem 4).
//! * [`setup`] — driving a token from `q0` into a chosen synchronization
//!   state (the inherently non-wait-free preparation discussed after
//!   Theorem 3).
//! * [`codec`] — the binary wire codec (ops, responses, versioned
//!   states) the durable store persists through.
//! * [`standards`] — Section 6 extensions: ERC777 operators, ERC721
//!   non-fungible tokens, ERC1155 multi-tokens, with their consensus
//!   constructions (decisive parts of the [`tokensync_spec::race`] step
//!   machine) and the footprinted serving objects, each behind one lock
//!   ([`standards::erc721::ShardedErc721`],
//!   [`standards::erc1155::ShardedErc1155`]) the generic pipeline
//!   executes. All three served objects, `ShardedErc20` included, are
//!   one generic type, [`shared::Served`].
//!
//! # Quickstart
//!
//! ```
//! use tokensync_core::analysis::{consensus_number_bounds, enabled_spenders};
//! use tokensync_core::erc20::Erc20State;
//! use tokensync_spec::{AccountId, ProcessId};
//!
//! // Alice deploys a token with supply 10 (Example 1 of the paper).
//! let alice = ProcessId::new(0);
//! let bob = ProcessId::new(1);
//! let charlie = ProcessId::new(2);
//! let mut token = Erc20State::with_deployer(3, alice, 10);
//!
//! token.transfer(alice, AccountId::new(1), 3)?;   // Alice pays Bob 3
//! token.approve(bob, charlie, 5)?;                 // Bob approves Charlie for 5
//!
//! // Bob's account now has two enabled spenders: consensus number ≥ 2.
//! let sigma = enabled_spenders(&token, AccountId::new(1));
//! assert_eq!(sigma.len(), 2);
//! let bounds = consensus_number_bounds(&token);
//! assert_eq!((bounds.lower, bounds.upper), (2, 2));
//! # Ok::<(), tokensync_core::TokenError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod analysis;
pub mod codec;
pub mod emulation;
pub mod erc20;
mod error;
pub mod setup;
pub mod shared;
pub mod standards;
pub mod token_consensus;

pub use analysis::{consensus_number_bounds, enabled_spenders, CnBounds, SyncMonitor};
pub use emulation::RestrictedToken;
pub use erc20::{Erc20Op, Erc20Resp, Erc20Spec, Erc20State};
pub use error::TokenError;
pub use setup::prepare_sync_state;
pub use shared::{ConcurrentObject, ConcurrentToken, ShardedErc20, SharedErc20};
pub use token_consensus::TokenConsensus;
