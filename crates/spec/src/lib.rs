//! Shared-object formalism underlying the tokensync reproduction of
//! *On the Synchronization Power of Token Smart Contracts* (Alpos, Cachin,
//! Marson, Zanolini — ICDCS 2021).
//!
//! The paper models smart-contract tokens as *sequential objects*
//! `T = (Q, q0, O, R, Δ)` accessed by asynchronous crash-prone processes.
//! This crate provides that formalism as reusable Rust abstractions:
//!
//! * [`ProcessId`], [`AccountId`] and [`Amount`] — the basic identifiers of
//!   the model (processes `p ∈ Π`, accounts `a ∈ A`, token amounts `v ∈ ℕ`).
//! * [`ObjectType`] — an object type with a deterministic, total sequential
//!   specification `Δ ⊆ Q × Π × O × Q × R`.
//! * [`History`] — invocation/response traces of concurrent executions.
//! * [`linearizability`] — a Wing–Gong–Lowe linearizability checker used to
//!   validate every concurrent object implementation in the workspace
//!   against its sequential specification.
//! * [`Recorder`] — a thread-safe trace recorder producing [`History`]
//!   values from real multi-threaded runs.
//! * [`race`] — the publish → fire → scan consensus race of Algorithm 1
//!   and its adaptations, as one step machine over any environment.
//!
//! # Example
//!
//! ```
//! use tokensync_spec::{ObjectType, ProcessId};
//!
//! /// A one-shot test-and-set bit as a sequential object.
//! struct TestAndSet;
//!
//! impl ObjectType for TestAndSet {
//!     type State = bool;
//!     type Op = ();
//!     type Resp = bool;
//!     fn initial_state(&self) -> bool { false }
//!     fn apply(&self, state: &mut bool, _p: ProcessId, _op: &()) -> bool {
//!         std::mem::replace(state, true)
//!     }
//! }
//!
//! let tas = TestAndSet;
//! let mut q = tas.initial_state();
//! assert!(!tas.apply(&mut q, ProcessId::new(0), &())); // first wins
//! assert!(tas.apply(&mut q, ProcessId::new(1), &())); // later callers lose
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

mod history;
mod ids;
pub mod linearizability;
mod object;
pub mod race;
mod recorder;

pub use history::{Event, History, OpId, OperationRecord};
pub use ids::{AccountId, Amount, ProcessId};
pub use linearizability::{check_linearizable, NotLinearizable};
pub use object::ObjectType;
pub use recorder::Recorder;
