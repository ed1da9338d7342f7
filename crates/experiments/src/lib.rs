//! Support library for the experiment binaries (`src/bin/e*.rs`).
//!
//! Each binary regenerates one table or figure of the paper (the
//! experiment ↔ claim table is in `docs/paper-map.md`); this crate
//! provides the shared plain-text table formatter and workload helpers
//! so the binaries stay small and uniform.

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod table;
pub mod workload;

pub use table::Table;
