//! Commutativity-aware batched transaction execution for token operation
//! streams of **any standard** — turning the paper's analysis into a
//! serving path.
//!
//! The paper's central insight is that most token operations need no
//! consensus: transfers by distinct owners commute, and only states whose
//! allowance rows carry several enabled spenders (the partition classes
//! `Q_k`, Section 5) demand synchronization. Section 6 transfers the
//! same analysis to ERC721, ERC777 and ERC1155. The rest of this
//! workspace *proves* that — the σ_q analysis
//! (`tokensync-core::analysis`), the mechanized conflict catalog
//! (`tokensync-mc::commute`), the §7 dynamic protocol
//! (`tokensync-net::dynamic`). This crate *serves* it: a five-stage
//! engine, generic over the
//! [`ConcurrentObject`](tokensync_core::shared::ConcurrentObject) /
//! [`FootprintedOp`](tokensync_core::analysis::FootprintedOp) trait
//! pair. One thread applies every op of an object, as the contract's one
//! sequential owner (the thread model is stated once, in [`exec`]), so
//! each batch is applied and committed in submission order, which is
//! trivially a linearization. The footprint analysis runs beside it as
//! a conflict monitor: it measures how much of each batch commuted and
//! reorders nothing. The engine scales out by objects, not threads.
//! One engine serves ERC20, ERC721 and ERC1155 — the standard is a type
//! parameter, not a fork of the pipeline.
//!
//! ```text
//!  ingest ──▶ analyze ──▶ monitor ──▶ execute ──▶ commit
//!  (batch)   (footprints) (waves +    (engine     (replayable
//!   bounded   per op       serial      thread, in  linearization
//!   queue,    [`Footprint`]) lane:     submission  log)
//!                          counted)    order)
//! ```
//!
//! * [`batch`] — bounded sharded intake with burst submits; a batch is
//!   cut at `max_ops` or as soon as the intake runs dry (no timer).
//!   Generic over the op alphabet.
//! * [`schedule`] — greedy graph coloring of the batch's conflict graph
//!   into pairwise-commuting **waves**, with heavily contended ops
//!   funneled through a deterministic **serial lane**; the engine reads
//!   the plan as its conflict monitor. Conflicts come
//!   from the state-independent cell footprints
//!   ([`tokensync_core::analysis::Footprint`]), the executable form of
//!   the σ_q/commutativity rules: owner-disjoint transfers commute (ERC20
//!   balances, ERC721 token ids, ERC1155 typed cells alike), withdrawals
//!   racing one source serialize, `approve`/`setApprovalForAll`
//!   serialize against the cells they rewrite, and batch ops conflict
//!   iff their cell sets intersect.
//! * [`exec`] — the thread processing the batch applies it to any
//!   [`ConcurrentObject`](tokensync_core::shared::ConcurrentObject)
//!   (the sharded million-account/million-token objects in production)
//!   in submission order, which is the commit log's order.
//! * [`commit`] — the chosen linearization with recorded responses,
//!   replayable against the standard's sequential
//!   [`ObjectType`](tokensync_spec::ObjectType) oracle
//!   ([`Erc20Spec`](tokensync_core::erc20::Erc20Spec),
//!   [`Erc721Spec`](tokensync_core::standards::erc721::Erc721Spec),
//!   [`Erc1155Spec`](tokensync_core::standards::erc1155::Erc1155Spec))
//!   and checkable with
//!   [`check_linearizable`](tokensync_spec::check_linearizable).
//! * [`engine`] — the assembled [`Pipeline`]: a synchronous
//!   [`run_script`] for benchmarks/tests and a spawned serving loop.
//! * [`obs`] — the recorder seam: [`PipelineObs`] threads per-stage
//!   latency histograms, queue-depth gauges, the commuting-batch count and
//!   sampled span traces (`tokensync-obs`) through the engine; the
//!   disabled default costs one inlined branch per instrumentation
//!   point.
//! * [`dynamic_lane`] — scheduled ERC20 batches driving the §7 dynamic
//!   protocol: one quiescence barrier per commuting wave on the
//!   consensus-free lane.
//!
//! # Example
//!
//! ```
//! use tokensync_core::erc20::{Erc20Op, Erc20Spec, Erc20State};
//! use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
//! use tokensync_pipeline::{run_script, PipelineConfig};
//! use tokensync_spec::{AccountId, ProcessId};
//!
//! // 8 owner-disjoint transfers: the monitor finds one commuting wave.
//! let initial = Erc20State::from_balances(vec![10; 16]);
//! let token = ShardedErc20::from_state(initial.clone());
//! let script: Vec<(ProcessId, Erc20Op)> = (0..8)
//!     .map(|i| (ProcessId::new(i), Erc20Op::Transfer {
//!         to: AccountId::new(8 + i),
//!         value: 1,
//!     }))
//!     .collect();
//! let run = run_script(&token, &script, &PipelineConfig::default());
//! assert!(run.stats.wave_parallelism() > 1.0);
//! // The commit log replays to exactly the token's final state.
//! let spec = Erc20Spec::new(initial);
//! assert_eq!(run.log.replay(&spec).unwrap(), token.snapshot());
//! ```
//!
//! The identical engine over an ERC721 object:
//!
//! ```
//! use tokensync_core::shared::ConcurrentObject;
//! use tokensync_core::standards::erc721::{Erc721Op, Erc721Spec, Erc721State, ShardedErc721, TokenId};
//! use tokensync_pipeline::{run_script, PipelineConfig};
//! use tokensync_spec::ProcessId;
//!
//! let initial = Erc721State::minted_round_robin(8, 1000, 8);
//! let nft = ShardedErc721::from_state(initial.clone());
//! // Owner-disjoint NFT transfers: one commuting wave.
//! let script: Vec<(ProcessId, Erc721Op)> = (0..8)
//!     .map(|i| (ProcessId::new(i), Erc721Op::TransferFrom {
//!         from: ProcessId::new(i),
//!         to: ProcessId::new((i + 1) % 8),
//!         token: TokenId::new(i),
//!     }))
//!     .collect();
//! let run = run_script(&nft, &script, &PipelineConfig::default());
//! assert!(run.stats.wave_parallelism() > 1.0);
//! assert_eq!(run.log.replay(&Erc721Spec::new(initial)).unwrap(), nft.snapshot());
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod batch;
pub mod commit;
pub mod dynamic_lane;
pub mod engine;
pub mod exec;
pub mod obs;
pub mod schedule;

pub use batch::{intake, Batch, BatchConfig, Batcher, IntakeClient, PipelineClosed, NO_TICKET};
pub use commit::{CommitLog, CommittedOp, ReplayDivergence};
pub use dynamic_lane::{drive_dynamic, DynamicDriveReport};
pub use engine::{
    run_script, run_script_observed, run_script_with_sink, BypassConfig, CommitSink, Pipeline,
    PipelineConfig, PipelineHandle, PipelineRun, PipelineStats, SinkedPipelineHandle,
};
pub use exec::{execute, execute_unordered, ExecConfig};
pub use obs::PipelineObs;
// The `schedule` *function* stays at `schedule::schedule` — re-exporting
// it at the root would collide with the module of the same name.
pub use schedule::{Schedule, ScheduleConfig, Scheduler};
