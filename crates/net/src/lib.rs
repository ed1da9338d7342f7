//! Message-passing protocols exploiting the paper's results.
//!
//! Section 1 of the paper motivates the whole study with a systems claim:
//! because plain asset transfer has consensus number 1, a cryptocurrency
//! can run on *reliable broadcast* instead of consensus (Guerraoui et al.,
//! Collins et al.); and because an ERC20 token's synchronization level is
//! readable from its state, a token platform could synchronize *only the
//! enabled spenders of each account* instead of the whole network
//! (Section 7, future work). This crate builds that stack on a
//! deterministic network simulator:
//!
//! * [`sim`] — a seeded discrete-event simulator with adversarial message
//!   delays (the asynchronous network).
//! * [`fault`] — seeded fault injection over the simulator: message
//!   drops, duplicate delivery, partitions, scheduled crash/restart —
//!   the adversary `tokensync-replica` proves its replication protocol
//!   against.
//! * [`rb`] — Bracha's Byzantine reliable broadcast.
//! * [`payments`] — consensus-free asset transfer over reliable broadcast
//!   (the Collins et al. design, simplified to crash faults): per-owner
//!   sequence numbers plus causal dependencies make every replica apply the
//!   same per-account history without any global order.
//! * [`ordered`] — the status-quo baseline: a global sequencer totally
//!   orders *every* operation ("everything through consensus").
//! * [`dynamic`] — the Section 7 protocol: owner-sequenced account
//!   streams; `transfer`/`approve` commit without global coordination,
//!   `transferFrom` synchronizes only within the account's spender group.
//!   The owner acts as the group's sequencer — a stand-in for any
//!   black-box consensus among `σ(a)` (see `docs/paper-map.md`,
//!   "Section 7 — protocols").
//!
//! # Example
//!
//! ```
//! use tokensync_net::payments::PaymentNetwork;
//!
//! // 4 replicas, account 0 starts with 100 tokens.
//! let mut net = PaymentNetwork::new(4, vec![100, 0, 0, 0], 7);
//! net.submit_transfer(0, 1, 30);
//! net.run_to_quiescence();
//! assert!(net.replicas_converged());
//! assert_eq!(net.balances_at(0), vec![70, 30, 0, 0]);
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod cmd;
pub mod dynamic;
pub mod fault;
mod metrics;
pub mod ordered;
pub mod payments;
pub mod rb;
pub mod sim;

pub use fault::FaultPlan;
pub use metrics::Metrics;
pub use sim::{Context, DelayPolicy, Node, SimNet};
