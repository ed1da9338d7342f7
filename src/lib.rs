//! # tokensync
//!
//! A Rust reproduction of **“On the Synchronization Power of Token Smart
//! Contracts”** (Alpos, Cachin, Marson, Zanolini — ICDCS 2021): ERC20
//! tokens modelled as shared objects, their *state-dependent* consensus
//! number, the constructions that realize it (Algorithms 1 and 2), an
//! exhaustive model checker for the theorems, and message-passing
//! protocols that exploit the result.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`spec`] | `tokensync-spec` | object formalism, histories, linearizability checker |
//! | [`registers`] | `tokensync-registers` | atomic MRMW registers |
//! | [`consensus`] | `tokensync-consensus` | consensus objects, universal construction |
//! | [`kat`] | `tokensync-kat` | k-shared asset transfer (Definition 1) |
//! | [`core`] | `tokensync-core` | ERC20 object, Section 5 analysis, Algorithms 1 & 2, token standards |
//! | [`mc`] | `tokensync-mc` | explorer, valency analysis, commutativity sweep, census |
//! | [`net`] | `tokensync-net` | simulator, reliable broadcast, payment + dynamic token protocols |
//! | [`pipeline`] | `tokensync-pipeline` | standard-generic commutativity-aware batched execution engine (ERC20/721/1155) |
//! | [`store`] | `tokensync-store` | durable serving: write-ahead commit log, snapshots, crash recovery |
//! | [`replica`] | `tokensync-replica` | replicated serving: WAL shipping, fault injection, quorum acks, failover |
//! | [`obs`] | `tokensync-obs` | observability: counters/gauges, latency histograms, span ring, metrics exposition |
//! | [`server`] | `tokensync-server` | TCP serving: CRC-framed wire protocol, bounded admission, commit-resolved acks |
//!
//! ## Quickstart
//!
//! ```
//! use tokensync::core::analysis::consensus_number_bounds;
//! use tokensync::core::erc20::Erc20Token;
//! use tokensync::spec::{AccountId, ProcessId};
//!
//! let alice = ProcessId::new(0);
//! let mut token = Erc20Token::deploy(3, alice, 10);
//!
//! // Freshly deployed: consensus number 1, like a plain cryptocurrency.
//! assert_eq!(consensus_number_bounds(token.state()).exact(), Some(1));
//!
//! // One approve later the object is strictly stronger:
//! token.approve(alice, ProcessId::new(1), 6)?;
//! assert_eq!(consensus_number_bounds(token.state()).exact(), Some(2));
//! # Ok::<(), tokensync::core::TokenError>(())
//! ```
//!
//! ## Serving examples
//!
//! The pipeline executes commuting operations in parallel waves
//! (walkthrough: docs/pipeline.md in the repository):
//!
//! ```
//! use tokensync::core::erc20::{Erc20Op, Erc20Spec, Erc20State};
//! use tokensync::core::shared::{ConcurrentObject, ShardedErc20};
//! use tokensync::pipeline::{run_script, PipelineConfig};
//! use tokensync::spec::{AccountId, ProcessId};
//!
//! let initial = Erc20State::from_balances(vec![10; 16]);
//! let token = ShardedErc20::from_state(initial.clone());
//! // 8 owner-disjoint transfers: fully commuting, one wide wave.
//! let script: Vec<(ProcessId, Erc20Op)> = (0..8)
//!     .map(|i| (ProcessId::new(i), Erc20Op::Transfer {
//!         to: AccountId::new(8 + i),
//!         value: 1,
//!     }))
//!     .collect();
//! let run = run_script(&token, &script, &PipelineConfig::default());
//! assert!(run.stats.wave_parallelism() > 1.0);
//! // The commit log is a verified linearization: replaying it against
//! // the sequential oracle rebuilds exactly the served state.
//! assert_eq!(run.log.replay(&Erc20Spec::new(initial)).unwrap(), token.snapshot());
//! ```
//!
//! The identical engine serves ERC721 — the standard is a type
//! parameter, not a fork:
//!
//! ```
//! use tokensync::core::shared::ConcurrentObject;
//! use tokensync::core::standards::erc721::{Erc721Op, Erc721State, ShardedErc721, TokenId};
//! use tokensync::pipeline::{run_script, PipelineConfig};
//! use tokensync::spec::ProcessId;
//!
//! let nft = ShardedErc721::from_state(Erc721State::minted_round_robin(8, 1000, 8));
//! let script: Vec<(ProcessId, Erc721Op)> = (0..8)
//!     .map(|i| (ProcessId::new(i), Erc721Op::TransferFrom {
//!         from: ProcessId::new(i),
//!         to: ProcessId::new((i + 1) % 8),
//!         token: TokenId::new(i),
//!     }))
//!     .collect();
//! let run = run_script(&nft, &script, &PipelineConfig::default());
//! assert!(run.stats.wave_parallelism() > 1.0);
//! assert_eq!(nft.snapshot().owner_of(TokenId::new(0)), Some(ProcessId::new(1)));
//! ```
//!
//! ERC1155 batch transfers are atomic and footprint the union of their
//! rows:
//!
//! ```
//! use tokensync::core::shared::ConcurrentObject;
//! use tokensync::core::standards::erc1155::{Erc1155Op, Erc1155Resp, Erc1155State, ShardedErc1155, TypeId};
//! use tokensync::spec::{AccountId, ProcessId};
//!
//! let multi = ShardedErc1155::from_state(Erc1155State::deploy(4, ProcessId::new(0), &[10, 5]));
//! let resp = multi.apply(ProcessId::new(0), &Erc1155Op::BatchTransfer {
//!     from: AccountId::new(0),
//!     to: AccountId::new(1),
//!     entries: vec![(TypeId::new(0), 3), (TypeId::new(1), 4)],
//! });
//! assert_eq!(resp, Erc1155Resp::TRUE);
//! assert_eq!(multi.snapshot().balance_of(AccountId::new(1), TypeId::new(1)), 4);
//! assert_eq!(multi.total_supply(TypeId::new(0)), 10); // lock-free: supply is Δ-invariant
//! ```
//!
//! The conflict relation the scheduler uses is the paper's
//! commutativity analysis, reified as per-op cell footprints:
//!
//! ```
//! use tokensync::core::analysis::footprints_conflict;
//! use tokensync::core::erc20::Erc20Op;
//! use tokensync::spec::{AccountId, ProcessId};
//!
//! let w1 = (ProcessId::new(1), Erc20Op::TransferFrom {
//!     from: AccountId::new(0), to: AccountId::new(1), value: 1,
//! });
//! let w2 = (ProcessId::new(2), Erc20Op::TransferFrom {
//!     from: AccountId::new(0), to: AccountId::new(2), value: 1,
//! });
//! // Two withdrawals racing one source account must serialize…
//! assert!(footprints_conflict((w1.0, &w1.1), (w2.0, &w2.1)));
//! // …but a supply read commutes with everything (supply is invariant).
//! let read = (ProcessId::new(3), Erc20Op::TotalSupply);
//! assert!(!footprints_conflict((w1.0, &w1.1), (read.0, &read.1)));
//! ```
//!
//! Correctness is always arbitrated by the linearizability checker:
//!
//! ```
//! use tokensync::core::erc20::{Erc20Op, Erc20Resp, Erc20Spec, Erc20State};
//! use tokensync::spec::{check_linearizable, History, AccountId, ObjectType, ProcessId};
//!
//! let spec = Erc20Spec::new(Erc20State::with_deployer(2, ProcessId::new(0), 5));
//! let history = History::from_sequential(vec![
//!     (ProcessId::new(0), Erc20Op::Transfer { to: AccountId::new(1), value: 3 }, Erc20Resp::TRUE),
//!     (ProcessId::new(1), Erc20Op::BalanceOf { account: AccountId::new(1) }, Erc20Resp::Amount(3)),
//! ]);
//! check_linearizable(&spec, &spec.initial_state(), &history).expect("linearizes");
//! ```
//!
//! The stack is durable: the commit stream write-ahead-logs
//! through a [`store::Store`] sink, and [`store::recover`] rebuilds a
//! live object from disk alone (formats in docs/persistence.md):
//!
//! ```
//! use tokensync::core::erc20::{Erc20Op, Erc20State};
//! use tokensync::core::shared::{ConcurrentObject, ShardedErc20};
//! use tokensync::pipeline::{run_script_with_sink, PipelineConfig};
//! use tokensync::spec::{AccountId, ProcessId};
//! use tokensync::store::{recover, Store, StoreConfig};
//!
//! let dir = std::env::temp_dir().join(format!("tokensync-facade-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let genesis = Erc20State::from_balances(vec![10; 4]);
//! let token = ShardedErc20::from_state(genesis.clone());
//! let mut store: Store<ShardedErc20> =
//!     Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
//! let script = vec![(ProcessId::new(0), Erc20Op::Transfer {
//!     to: AccountId::new(1),
//!     value: 4,
//! })];
//! run_script_with_sink(&token, &script, &PipelineConfig::default(), &mut store);
//! store.close().unwrap();
//! // Crash. Recover from disk: snapshot + verified log replay.
//! let recovered = recover::<ShardedErc20>(&dir).unwrap();
//! assert_eq!(recovered.object.snapshot(), token.snapshot());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! The persistence layer rides a canonical binary codec — encode →
//! decode is the identity and re-encoding is byte-identical:
//!
//! ```
//! use tokensync::core::codec::Codec;
//! use tokensync::core::erc20::Erc20State;
//! use tokensync::spec::ProcessId;
//!
//! let mut q = Erc20State::with_deployer(4, ProcessId::new(0), 100);
//! q.approve(ProcessId::new(0), ProcessId::new(2), 7).unwrap();
//! let bytes = q.encode();
//! let mut input = bytes.as_slice();
//! assert_eq!(Erc20State::decode(&mut input).unwrap(), q);
//! assert!(input.is_empty());
//! ```
//!
//! Sparse state is canonical — a revoked approval leaves no trace, so
//! derived equality is mathematical equality of `α` (the checker, the
//! model checker and the codec all rely on this):
//!
//! ```
//! use tokensync::core::erc20::SpenderMap;
//!
//! let mut row = SpenderMap::new();
//! row.set(3, 10);
//! row.set(3, 0); // revocation removes the entry entirely
//! assert_eq!(row, SpenderMap::new());
//! assert_eq!(row.get(3), 0); // absent reads as zero
//! ```
//!
//! And the consensus number is dynamic — revocation hands power back:
//!
//! ```
//! use tokensync::core::analysis::consensus_number_bounds;
//! use tokensync::core::erc20::Erc20Token;
//! use tokensync::spec::ProcessId;
//!
//! let alice = ProcessId::new(0);
//! let mut token = Erc20Token::deploy(3, alice, 10);
//! token.approve(alice, ProcessId::new(1), 6)?;
//! assert_eq!(consensus_number_bounds(token.state()).exact(), Some(2));
//! token.approve(alice, ProcessId::new(1), 0)?; // revoke
//! assert_eq!(consensus_number_bounds(token.state()).exact(), Some(1));
//! # Ok::<(), tokensync::core::TokenError>(())
//! ```
//!
//! ## Where to look
//!
//! * Consensus **from** a token: [`core::token_consensus::TokenConsensus`]
//!   (Algorithm 1 / Theorem 2).
//! * The restricted token **from** k-AT:
//!   [`core::emulation::RestrictedToken`] (Algorithm 2 / Theorem 4).
//! * Machine-checked impossibility boundaries: [`mc`] (Theorem 3).
//! * Consensus-free payments and the Section 7 dynamic protocol: [`net`].
//! * The analysis *exploited* as a serving path — batched, wave-parallel
//!   execution with a replayable commit log, one engine for every
//!   footprinted standard (ERC20, ERC721, ERC1155): [`pipeline`].
//! * The serving path made *restartable* — CRC-framed write-ahead
//!   logging of the commit stream, versioned snapshots, and verified
//!   crash recovery back to a live sharded object: [`store`] (see
//!   docs/persistence.md).
//! * The serving path made *replicated* — the WAL shipped
//!   byte-identically to followers over a fault-injecting simulated
//!   network, with epoch fencing, quorum acknowledgement and
//!   deterministic failover: [`replica`] (see docs/replication.md).
//! * The serving path put *on the network* — a TCP front end speaking a
//!   CRC-framed binary protocol over the same codec the WAL persists,
//!   with bounded admission and acks resolved at wave commit:
//!   [`server`] (see docs/server.md).
//! * Every table/figure of the evaluation: `cargo run -p
//!   tokensync-experiments --bin e1_lower_bound` … `e8_standards`, the
//!   paper-facing `cargo bench -p tokensync-bench`, and the serving
//!   stack's benchmark `cargo run --release -p tokensync-bench --bin
//!   stack`; see README.md and ARCHITECTURE.md.

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub use tokensync_consensus as consensus;
pub use tokensync_core as core;
pub use tokensync_kat as kat;
pub use tokensync_mc as mc;
pub use tokensync_net as net;
pub use tokensync_obs as obs;
pub use tokensync_pipeline as pipeline;
pub use tokensync_registers as registers;
pub use tokensync_replica as replica;
pub use tokensync_server as server;
pub use tokensync_spec as spec;
pub use tokensync_store as store;
