//! Dynamic tracking of the consensus number of a live token.
//!
//! Section 7 of the paper: "the consistency mechanism could be flexibly
//! adapted, during execution, to require higher or lower coordination among
//! nodes depending on the current state of the smart contract". The
//! [`SyncMonitor`] is the sensing half of that vision: it watches a token's
//! state after every operation and records the evolution of its
//! consensus-number bounds.

use tokensync_spec::AccountId;

use crate::erc20::Erc20State;

use super::bounds::{consensus_number_bounds, CnBounds};
use super::partition::max_spender_account;

/// One sample of the synchronization requirements of a token state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncPoint {
    /// Index of the operation after which the sample was taken (0 = initial
    /// state).
    pub op_index: usize,
    /// Consensus-number bounds at that point.
    pub bounds: CnBounds,
    /// The account with the most enabled spenders (the synchronization
    /// hotspot), if any.
    pub hotspot: Option<AccountId>,
}

/// Records the consensus-number trajectory of an evolving token state.
///
/// # Example
///
/// ```
/// use tokensync_core::analysis::SyncMonitor;
/// use tokensync_core::erc20::Erc20State;
/// use tokensync_spec::{AccountId, ProcessId};
///
/// let mut token = Erc20State::with_deployer(3, ProcessId::new(0), 10);
/// let mut monitor = SyncMonitor::new();
/// monitor.observe(&token);
/// token.approve(ProcessId::new(0), ProcessId::new(1), 6)?;
/// monitor.observe(&token);
/// assert_eq!(monitor.series().last().unwrap().bounds.upper, 2);
/// assert_eq!(monitor.max_level_seen(), 2);
/// # Ok::<(), tokensync_core::TokenError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct SyncMonitor {
    series: Vec<SyncPoint>,
}

impl SyncMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples `state`, appending a [`SyncPoint`] to the series.
    ///
    /// Returns the recorded point.
    pub fn observe(&mut self, state: &Erc20State) -> SyncPoint {
        let point = SyncPoint {
            op_index: self.series.len(),
            bounds: consensus_number_bounds(state),
            hotspot: max_spender_account(state).map(|(a, _)| a),
        };
        self.series.push(point);
        point
    }

    /// The recorded trajectory.
    pub fn series(&self) -> &[SyncPoint] {
        &self.series
    }

    /// The largest upper bound ever observed — the synchronization level a
    /// provisioning layer would have to support for this execution.
    pub fn max_level_seen(&self) -> usize {
        self.series
            .iter()
            .map(|p| p.bounds.upper)
            .max()
            .unwrap_or(1)
    }

    /// Count of observations whose bounds were exact (equation (17) states).
    pub fn exact_points(&self) -> usize {
        self.series.iter().filter(|p| p.bounds.is_exact()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokensync_spec::ProcessId;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn trajectory_rises_and_falls_with_approvals() {
        let mut q = Erc20State::with_deployer(4, p(0), 10);
        let mut m = SyncMonitor::new();
        m.observe(&q); // CN = 1

        q.approve(p(0), p(1), 6).unwrap();
        m.observe(&q); // CN = 2

        q.approve(p(0), p(2), 7).unwrap();
        m.observe(&q); // CN = 3

        q.approve(p(0), p(1), 0).unwrap(); // revoke
        q.approve(p(0), p(2), 0).unwrap(); // revoke
        m.observe(&q); // CN = 1 again

        let uppers: Vec<usize> = m.series().iter().map(|pt| pt.bounds.upper).collect();
        assert_eq!(uppers, vec![1, 2, 3, 1]);
        assert_eq!(m.max_level_seen(), 3);
        assert_eq!(m.exact_points(), 4);
    }

    #[test]
    fn op_indices_are_sequential() {
        let q = Erc20State::new(2);
        let mut m = SyncMonitor::new();
        m.observe(&q);
        m.observe(&q);
        let idx: Vec<usize> = m.series().iter().map(|pt| pt.op_index).collect();
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn empty_monitor_reports_level_one() {
        let m = SyncMonitor::new();
        assert_eq!(m.max_level_seen(), 1);
        assert_eq!(m.exact_points(), 0);
    }
}
