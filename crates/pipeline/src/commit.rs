//! The commit log: the linearization order the pipeline chose, as a
//! replayable artifact — generic over the served standard.
//!
//! Every batch appends its operations in submission order
//! ([`CommitLog::append_sequential`]) together with the responses the
//! execution actually produced. One thread applied them in that order,
//! so this sequential order *is* a linearization of the execution:
//! [`CommitLog::replay`] re-runs it against any
//! sequential [`ObjectType`] oracle over the same alphabet
//! ([`Erc20Spec`](tokensync_core::erc20::Erc20Spec),
//! [`Erc721Spec`](tokensync_core::standards::erc721::Erc721Spec),
//! [`Erc1155Spec`](tokensync_core::standards::erc1155::Erc1155Spec), …)
//! and verifies every recorded response, and [`CommitLog::to_history`]
//! exposes it to the workspace's Wing–Gong–Lowe checker.

use std::borrow::Borrow;
use std::fmt::Debug;

use tokensync_spec::{History, ObjectType, ProcessId};

use crate::schedule::Schedule;

/// One committed operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommittedOp<Op, Resp> {
    /// Global commit sequence number (gap-free from 0).
    pub seq: u64,
    /// Batch the op was cut into.
    pub batch: u64,
    /// Invoking process.
    pub caller: ProcessId,
    /// The operation.
    pub op: Op,
    /// The response produced by the concurrent execution.
    pub resp: Resp,
}

/// Divergence found by [`CommitLog::replay`]: the recorded response of
/// one commit does not match the sequential replay — the linearization
/// the pipeline claims is not one the spec admits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayDivergence<Resp> {
    /// Commit sequence number of the diverging op.
    pub seq: u64,
    /// Response the execution recorded.
    pub recorded: Resp,
    /// Response the sequential spec produces at that point.
    pub expected: Resp,
}

impl<Resp: Debug> std::fmt::Display for ReplayDivergence<Resp> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "commit {} recorded {:?} but the sequential replay yields {:?}",
            self.seq, self.recorded, self.expected
        )
    }
}

impl<Resp: Debug> std::error::Error for ReplayDivergence<Resp> {}

/// The one verified sequential replay: applies `entries` to `state`
/// through `spec` in order, checking every recorded response. The first
/// mismatch is returned as a [`ReplayDivergence`] (its op already
/// applied, nothing after it taken). Entries are taken one at a time,
/// by reference or by value, so a caller decoding them from bytes
/// replays each as it is decoded and never holds the whole run.
pub fn replay_verified<S, E>(
    spec: &S,
    state: &mut S::State,
    entries: impl IntoIterator<Item = E>,
) -> Result<(), ReplayDivergence<S::Resp>>
where
    S: ObjectType,
    E: Borrow<CommittedOp<S::Op, S::Resp>>,
{
    for entry in entries {
        let entry = entry.borrow();
        let expected = spec.apply(state, entry.caller, &entry.op);
        if expected != entry.resp {
            return Err(ReplayDivergence {
                seq: entry.seq,
                recorded: entry.resp.clone(),
                expected,
            });
        }
    }
    Ok(())
}

/// The pipeline's append-only linearization record.
#[derive(Clone, Debug)]
pub struct CommitLog<Op, Resp> {
    entries: Vec<CommittedOp<Op, Resp>>,
}

impl<Op, Resp> Default for CommitLog<Op, Resp> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
        }
    }
}

impl<Op: Clone + Debug, Resp: Clone + PartialEq + Debug> CommitLog<Op, Resp> {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one executed batch: `ops` and `responses` are indexed the
    /// same way; `schedule.commit_order()` decides the linearization.
    /// Returns the index of the first entry appended, like
    /// [`append_sequential`](CommitLog::append_sequential). The engine
    /// no longer calls this; it stays only because the frozen `stack`
    /// benchmark times it, and ROADMAP item 1(g) deletes it.
    pub fn append_batch(
        &mut self,
        batch: u64,
        ops: &[(ProcessId, Op)],
        responses: &[Resp],
        schedule: &Schedule,
    ) -> usize {
        debug_assert_eq!(ops.len(), responses.len());
        debug_assert_eq!(schedule.ops(), ops.len());
        let start = self.entries.len();
        self.entries.reserve(ops.len());
        for idx in schedule.commit_order() {
            let (caller, op) = &ops[idx];
            self.entries.push(CommittedOp {
                seq: self.entries.len() as u64,
                batch,
                caller: *caller,
                op: op.clone(),
                resp: responses[idx].clone(),
            });
        }
        start
    }

    /// Appends one batch, executed in submission order, in that same
    /// order — the engine's one commit path. Returns the index of the
    /// first entry appended (the batch occupies `entries()[returned..]`),
    /// so durability sinks can address exactly the commits this call
    /// produced.
    pub fn append_sequential(
        &mut self,
        batch: u64,
        ops: &[(ProcessId, Op)],
        responses: &[Resp],
    ) -> usize {
        debug_assert_eq!(ops.len(), responses.len());
        let start = self.entries.len();
        self.entries.reserve(ops.len());
        for ((caller, op), resp) in ops.iter().zip(responses) {
            self.entries.push(CommittedOp {
                seq: self.entries.len() as u64,
                batch,
                caller: *caller,
                op: op.clone(),
                resp: resp.clone(),
            });
        }
        start
    }

    /// The committed operations in linearization order.
    pub fn entries(&self) -> &[CommittedOp<Op, Resp>] {
        &self.entries
    }

    /// Number of committed operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has committed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replays the log sequentially from `spec`'s initial state,
    /// checking every recorded response against the oracle; returns the
    /// final state.
    ///
    /// # Errors
    ///
    /// The first [`ReplayDivergence`] encountered, if the concurrent
    /// execution's responses are not consistent with this linearization.
    pub fn replay<S>(&self, spec: &S) -> Result<S::State, ReplayDivergence<Resp>>
    where
        S: ObjectType<Op = Op, Resp = Resp>,
    {
        let mut state = spec.initial_state();
        replay_verified(spec, &mut state, &self.entries)?;
        Ok(state)
    }

    /// The log as a complete sequential [`History`] (each op returns
    /// before the next invokes), for
    /// [`check_linearizable`](tokensync_spec::check_linearizable).
    pub fn to_history(&self) -> History<Op, Resp> {
        History::from_sequential(
            self.entries
                .iter()
                .map(|e| (e.caller, e.op.clone(), e.resp.clone())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{schedule, ScheduleConfig};
    use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20Spec, Erc20State};
    use tokensync_spec::AccountId;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }

    #[test]
    fn replay_verifies_and_rebuilds_state() {
        let ops = vec![
            (p(0), Erc20Op::Transfer { to: a(1), value: 3 }),
            (
                p(1),
                Erc20Op::Transfer {
                    to: a(2),
                    value: 9, // fails: account 1 holds 3 at most
                },
            ),
        ];
        let s = schedule(&ops, &ScheduleConfig::default());
        let mut log = CommitLog::new();
        log.append_batch(0, &ops, &[Erc20Resp::TRUE, Erc20Resp::FALSE], &s);
        let spec = Erc20Spec::new(Erc20State::with_deployer(3, p(0), 10));
        let state = log.replay(&spec).expect("responses consistent");
        assert_eq!(state.balance(a(1)), 3);
        assert_eq!(state.total_supply(), 10);
        assert_eq!(log.entries()[0].seq, 0);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn replay_flags_divergent_responses() {
        let ops = vec![(
            p(0),
            Erc20Op::Transfer {
                to: a(1),
                value: 99,
            },
        )];
        let s = schedule(&ops, &ScheduleConfig::default());
        let mut log = CommitLog::new();
        // Recorded TRUE, but account 0 cannot cover 99.
        log.append_batch(0, &ops, &[Erc20Resp::TRUE], &s);
        let spec = Erc20Spec::new(Erc20State::with_deployer(2, p(0), 10));
        let err = log.replay(&spec).unwrap_err();
        assert_eq!(err.seq, 0);
        assert_eq!(err.expected, Erc20Resp::FALSE);
    }

    #[test]
    fn history_round_trips_the_log() {
        let ops = vec![(
            p(0),
            Erc20Op::Approve {
                spender: p(1),
                value: 5,
            },
        )];
        let s = schedule(&ops, &ScheduleConfig::default());
        let mut log = CommitLog::new();
        log.append_batch(7, &ops, &[Erc20Resp::TRUE], &s);
        let h = log.to_history();
        assert!(h.is_complete());
        assert_eq!(h.len(), 1);
        assert_eq!(log.entries()[0].batch, 7);
        assert!(!log.is_empty());
    }
}
