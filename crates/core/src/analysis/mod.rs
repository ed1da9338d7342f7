//! The Section 5 state-analysis machinery: enabled spenders, the state
//! partition `{Q_k}`, the unique-winner predicate `U`, synchronization
//! states `S_k`, consensus-number bounds, and dynamic monitoring.
//!
//! The paper's central insight is that the synchronization power of an ERC20
//! token can be *read off its state*: the enabled-spender map `σ_q`
//! determines which partition class `Q_k` the state lies in (upper bound on
//! the consensus number, Theorem 3) and whether a synchronization state in
//! `S_k` has been reached (lower bound, Theorem 2). This module computes all
//! of it.

mod bounds;
mod footprint;
mod monitor;
mod partition;
mod spenders;
mod sync_state;

pub use bounds::{consensus_number_bounds, CnBounds};
pub(crate) use footprint::cell_index;
pub use footprint::{footprints_conflict, Access, Cell, CellKey, Footprint, FootprintedOp};
pub use monitor::{SyncMonitor, SyncPoint};
pub use partition::{max_spender_account, partition_index};
pub use spenders::enabled_spenders;
pub use sync_state::{
    algorithm1_ready, is_sync_state_for, sync_level, unique_transfers, SyncWitness,
};
