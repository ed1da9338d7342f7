//! `tokensync-server` — the TCP front end over the tokensync pipeline.
//!
//! Layer 4 of the stack: everything below it (`core` objects, the
//! `pipeline` engine, the `store` WAL) already agrees on what a commit
//! means; this crate puts a socket in front of it without inventing a
//! second source of truth.
//!
//! - **Wire protocol** ([`wire`]): length-prefixed, CRC-framed binary
//!   frames whose payloads are the `core::codec` encodings used
//!   everywhere else — the bytes a client sends are the bytes the WAL
//!   stores. Framing violations fail closed; semantic violations answer
//!   [`Status::BadRequest`] and keep the session.
//! - **Admission control**: the pipeline's bounded sharded intake *is*
//!   the admission policy. A full shard answers [`Status::Busy`]
//!   immediately; each connection is pinned to a shard round-robin so
//!   one saturating client cannot starve the rest.
//! - **Ack semantics**: responses resolve at **wave commit** through the
//!   [`RouterSink`] — an `Ok` ack is a pipeline commit. Flip
//!   [`ServerConfig::durable_acks`] and acks additionally wait for the
//!   store's fsync watermark ([`tokensync_pipeline::CommitSink::durable_seq`]):
//!   the acks wait, held per batch, while the engine goes on committing.
//! - **Slow-client firewall**: bounded per-connection write queues and a
//!   slowloris read deadline; a client that stops reading (or never
//!   finishes a frame) is disconnected, never buffered without bound.
//!
//! See `docs/server.md` for the wire-format table and the full
//! session-lifecycle contract.
//!
//! ```no_run
//! use std::sync::Arc;
//! use tokensync_core::shared::ShardedErc20;
//! use tokensync_obs::Registry;
//! use tokensync_server::{Client, Reply, Server, ServerConfig};
//!
//! use tokensync_core::erc20::{Erc20Op, Erc20State};
//! use tokensync_spec::{AccountId, ProcessId};
//!
//! let registry = Registry::new();
//! let token = Arc::new(ShardedErc20::from_state(Erc20State::from_balances(vec![100; 16])));
//! let handle = Server::spawn(token, (), ServerConfig::default(), &registry).unwrap();
//!
//! let mut client = Client::<ShardedErc20>::connect(handle.addr()).unwrap();
//! let op = Erc20Op::Transfer { to: AccountId::new(2), value: 10 };
//! match client.call(ProcessId::new(7), &op).unwrap() {
//!     Reply::Ok(resp) => println!("committed: {resp:?}"),
//!     other => println!("rejected: {other:?}"),
//! }
//!
//! let (run, ()) = handle.finish();
//! assert_eq!(run.log.len(), 1);
//! ```

#![forbid(unsafe_code)]

mod client;
mod obs;
mod router;
mod server;
pub mod wire;

pub use client::Client;
pub use obs::ServerObs;
pub use router::RouterSink;
pub use server::{Server, ServerConfig, ServerHandle};
pub use wire::{Reply, Status, WireStandard};
