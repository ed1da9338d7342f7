//! Shared helpers for the paper-facing bench targets.
//!
//! Each target under `benches/` answers one question (B1–B7, stated in
//! its header). This crate hosts the workload generators and the thread
//! harness they share, so numbers across targets are comparable. The
//! serving stack's benchmark is the `stack` bin beside this library
//! (`src/bin/stack/`, with its own README).

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod harness;
pub mod workloads;
