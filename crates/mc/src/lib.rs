//! An explicit-state model checker for wait-free protocols over token
//! objects.
//!
//! The paper's theorems are pencil-and-paper arguments about *all*
//! interleavings of asynchronous processes. This crate makes those
//! arguments executable on concrete instances:
//!
//! * [`Protocol`] — protocols as step machines over explicit shared/local
//!   state.
//! * [`Explorer`] — exhaustive DFS over every interleaving (crashes
//!   included: a crashed process simply stops being scheduled), checking
//!   the three consensus properties — **agreement**, **validity**, and
//!   **wait-freedom** (solo termination from every reachable
//!   configuration). Produces counterexample schedules on violation.
//! * [`valence`] — valency analysis: classifies reachable configurations
//!   as univalent/bivalent and locates **critical configurations**,
//!   mechanizing the Theorem 3 / Figure 1 argument.
//! * [`commute`] — exhaustive commutativity / read-only classification of
//!   ERC20 operation pairs over enumerated states: the case analysis at
//!   the heart of the Theorem 3 proof, checked state by state.
//! * [`enumerate`] — small-universe state-space census of the partition
//!   `{Q_k}` and the synchronization states `S_k`.
//! * [`protocols`] — Algorithm 1 (both race modes), its *overreach*
//!   variants (more processes than the state supports — the Theorem 3
//!   counterexamples), consensus from `k`-AT and the Section 6 races,
//!   each the one `tokensync_spec::race` step machine the threaded
//!   consensus objects run; and a doomed register-only protocol.
//!
//! # Example: exhaustively verifying Algorithm 1 for k = 3
//!
//! ```
//! use tokensync_mc::protocols::TokenRace;
//! use tokensync_mc::{Explorer, Outcome};
//!
//! let protocol = TokenRace::in_sync_state(3);
//! let report = Explorer::new(&protocol).run();
//! assert!(matches!(report.outcome, Outcome::Verified));
//! assert!(report.stats.configs > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod commute;
pub mod enumerate;
mod explorer;
mod protocol;
pub mod protocols;
pub mod valence;

pub use explorer::{Explorer, Outcome, Report, Stats, Violation};
pub use protocol::{Config, Protocol, Step};
