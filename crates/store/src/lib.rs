//! Durable serving for the token pipeline: a segmented write-ahead
//! commit log, versioned state snapshots, and crash recovery — the
//! layer that turns the volatile engine into a restartable store.
//!
//! The paper's consensus-number analysis determines *which* operations
//! must serialize; the pipeline (`tokensync-pipeline`) exploits that to
//! schedule commuting operations into waves and commits a
//! replayable linearization log. But a linearization that lives only in
//! memory dies with the process. This crate persists it, treating the
//! token exactly as the concurrent-objects literature suggests: a
//! long-lived shared object whose **operation history is the ground
//! truth**, reconstructible anywhere by replaying a verified log
//! (cf. SmartSync's log-replay state reconstruction and Sergey &
//! Hobor's concurrent-object reading of contracts; see PAPERS.md).
//!
//! Durability runs **off the hot path**: each store owns a background
//! durability thread. Batch seals *post* their fsync and return
//! (pipelined group commit) — the thread coalesces a backlog into one
//! `sync_data` and advances the explicit
//! [`Store::durable_seq`] watermark (acknowledge-at-commit,
//! durable-at-fsync; [`Store::wait_durable`]/[`Store::flush`] close the
//! window). Periodic snapshots drain only the **rows touched** since
//! the last drain ([`Restorable::drain_delta`] — a walk of the object's
//! dirty bitmap at the batch seal, no full-state encode) and the
//! thread publishes them as a chained
//! `snap-<mark>.delta` series; every `compact_every`-th trigger instead
//! posts a full snapshot cut from the live object at that seal.
//! Recovery replays the surviving log suffix on one core through the
//! sequential oracle, one record's entries at a time as the log scan
//! decodes them, checking every recorded response, and
//! then moves the replayed state into the live object. On a
//! million-entry log that replay ran about five times faster than a
//! footprint-parallel one (docs/persistence.md has the phase costs).
//!
//! Three pieces, all generic over the served standard through the
//! [`Codec`](tokensync_core::codec::Codec) /
//! [`StateCodec`](tokensync_core::codec::StateCodec) bounds — one store
//! serves [`ShardedErc20`](tokensync_core::shared::ShardedErc20),
//! [`ShardedErc721`](tokensync_core::standards::erc721::ShardedErc721)
//! and
//! [`ShardedErc1155`](tokensync_core::standards::erc1155::ShardedErc1155),
//! the three instantiations of
//! [`Served`](tokensync_core::shared::Served), through one generic
//! [`Restorable`] impl:
//!
//! * [`wal`] — segment files of length-prefixed, CRC32-framed records;
//!   one record per committed batch; torn tails truncated on open.
//! * snapshots ([`Store::publish_snapshot`]) — versioned,
//!   standard-tagged encodings of the full oracle state, published by
//!   atomic rename; log segments below the snapshot watermark are
//!   garbage-collected.
//! * [`recover`] — newest valid snapshot + verified replay of the log
//!   suffix through the standard's sequential oracle (every recorded
//!   response is checked) → a live sharded object.
//!
//! Each on-disk format has exactly one reader and one writer: one
//! segment-header type, one record-head parser and one frame check
//! (length · CRC · head, then sequence continuity) shared by the open-time
//! scan, [`Wal::append_frames`](wal::Wal::append_frames) and the
//! tailing [`WalCursor`]; one envelope for full and delta snapshots;
//! one lister of numbered files. Every verified replay — [`recover`]
//! and [`CommitLog::replay`](tokensync_pipeline::CommitLog::replay) — is
//! [`replay_verified`](tokensync_pipeline::commit::replay_verified).
//!
//! Durability is a sink, not a rewrite: [`Store`] implements the
//! pipeline's [`CommitSink`](tokensync_pipeline::CommitSink), so the
//! same engine runs volatile (the unit sink `()`) or durable, riding
//! the batch cuts the ingest stage already makes.
//!
//! The crash-safety contract — for *any* kill point, recovery yields
//! the state of a **prefix** of the committed history, cut at a batch
//! boundary at or above [`Store::durable_seq`] — is property-tested in
//! `tests/crash_recovery.rs` by truncating WAL bytes at random offsets
//! and replaying the prefix oracle; docs/persistence.md walks the
//! formats and invariants.
//!
//! Durability cost is observable: attach a [`StoreObs`] recorder
//! ([`Store::set_obs`]) to count fsyncs/bytes/segments/snapshots and
//! time appends, fsyncs, and snapshot publishes (see [`obs`] and
//! docs/observability.md).

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

mod crc;
pub mod cursor;
mod durability;
mod error;
pub mod obs;
mod recovery;
mod snapshot;
mod store;
pub mod wal;

pub use crc::crc32;
pub use cursor::{WalCursor, WalRecord};
pub use error::StoreError;
pub use obs::StoreObs;
pub use recovery::{recover, recover_sequential, Recovered, Restorable};
pub use snapshot::install_snapshot;
pub use store::{Store, StoreConfig};
pub use wal::{decode_commits, ScanStop};
