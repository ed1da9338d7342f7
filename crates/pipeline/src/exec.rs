//! Batch execution: one thread applies a batch's schedule to any
//! [`ConcurrentObject`].
//!
//! **The thread model.** Every op of a batch is applied by the thread
//! that processes the batch — the engine thread under
//! [`Pipeline::spawn`], the caller under [`run_script`] — and one engine
//! thread applies every op its object ever serves. Nothing is spawned
//! per batch and no op waits on another thread: the paper's
//! owner-disjoint operations have consensus number 1, so the regime the
//! scheduler certifies needs no coordination at all. An engine scales out
//! by objects, not threads, and each served object sits behind one lock:
//! a [`ConcurrentObject`] is still shared with other threads —
//! snapshots, the tests and the consensus races — and here that lock
//! costs one uncontended acquire per op.
//!
//! **The order.** [`execute`] applies in [`Schedule::commit_order`]:
//! waves in order, each in index order, then the serial lane. Execution
//! order is therefore exactly the commit log's order, and every response
//! is the one the log's sequential replay recomputes. The executor is
//! standard-agnostic: it drives `T::apply` for whatever op alphabet the
//! object serves.
//!
//! **Bypass execution.** [`execute_unordered`] is the adaptive-bypass
//! path: for a batch the scheduler's probe has certified pairwise
//! commuting, it applies the ops in submission order with no schedule at
//! all — the order the bypass commits.
//!
//! [`Pipeline::spawn`]: crate::engine::Pipeline::spawn
//! [`run_script`]: crate::engine::run_script

use tokensync_core::shared::ConcurrentObject;
use tokensync_spec::ProcessId;

use crate::schedule::Schedule;

/// Executor settings: there are none. The executor has no knob left;
/// the type stays only because the frozen `stack` benchmark names it
/// ([`PipelineConfig::exec`](crate::engine::PipelineConfig::exec) and
/// the [`execute`] / [`execute_unordered`] signatures), and ROADMAP item
/// 1(g) deletes it.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecConfig {}

/// Executes `schedule` over `ops` against `token` on the calling thread,
/// in [`Schedule::commit_order`]; returns the responses indexed like
/// `ops`.
///
/// # Panics
///
/// Propagates a panic of `T::apply` (a panicking object is a bug, not a
/// recoverable condition).
pub fn execute<T: ConcurrentObject + ?Sized>(
    token: &T,
    ops: &[(ProcessId, T::Op)],
    schedule: &Schedule,
    _cfg: &ExecConfig,
) -> Vec<T::Resp> {
    debug_assert_eq!(schedule.ops(), ops.len());
    // `None` placeholder; every scheduled index is filled below.
    let mut responses: Vec<Option<T::Resp>> = vec![None; ops.len()];
    for idx in schedule.commit_order() {
        let (caller, op) = &ops[idx];
        responses[idx] = Some(token.apply(*caller, op));
    }
    responses
        .into_iter()
        .map(|r| r.expect("every scheduled index executed"))
        .collect()
}

/// Executes a batch the scheduler's probe certified pairwise commuting,
/// with no schedule: the ops apply on the calling thread in submission
/// order, which is the order the bypass commits. Because every pair
/// commutes, any other order would produce the same responses and state.
///
/// This is the adaptive-bypass path; the engine only reaches it behind
/// [`Scheduler::batch_commutes`].
///
/// [`Scheduler::batch_commutes`]: crate::schedule::Scheduler::batch_commutes
///
/// # Panics
///
/// Propagates a panic of `T::apply` (a panicking object is a bug, not a
/// recoverable condition).
pub fn execute_unordered<T: ConcurrentObject + ?Sized>(
    token: &T,
    ops: &[(ProcessId, T::Op)],
    _cfg: &ExecConfig,
) -> Vec<T::Resp> {
    ops.iter().map(|(c, op)| token.apply(*c, op)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{schedule, ScheduleConfig};
    use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20State};
    use tokensync_core::shared::ShardedErc20;
    use tokensync_core::standards::erc721::{
        Erc721Op, Erc721Resp, Erc721State, ShardedErc721, TokenId,
    };
    use tokensync_spec::AccountId;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }

    fn run(ops: &[(ProcessId, Erc20Op)]) -> (Vec<Erc20Resp>, u64) {
        let n = 64;
        let token = ShardedErc20::from_state(Erc20State::from_balances(vec![10; n]));
        let s = schedule(ops, &ScheduleConfig::default());
        let responses = execute(&token, ops, &s, &ExecConfig::default());
        (responses, token.snapshot().total_supply())
    }

    #[test]
    fn narrow_waves_run_inline_without_changing_results() {
        let ops = vec![
            (p(0), Erc20Op::Transfer { to: a(1), value: 3 }),
            (
                p(0),
                Erc20Op::Transfer {
                    to: a(1),
                    value: 20, // fails after the first debit (10 - 3 < 20)
                },
            ),
        ];
        let (resps, supply) = run(&ops);
        assert_eq!(resps, vec![Erc20Resp::TRUE, Erc20Resp::FALSE]);
        assert_eq!(supply, 640);
    }

    #[test]
    fn waves_execute_in_order() {
        // Two full-width conflicting rounds: every source repeats, so the
        // schedule has two consecutive waves of 16 ops each.
        let round = |r: u64| {
            (0..16).map(move |i| {
                (
                    p(i),
                    Erc20Op::Transfer {
                        to: a(32 + i),
                        value: 6 + r, // second round: 7 > 10 - 6 fails
                    },
                )
            })
        };
        let ops: Vec<(ProcessId, Erc20Op)> = round(0).chain(round(1)).collect();
        let s = schedule(&ops, &ScheduleConfig::default());
        assert_eq!(s.waves.len(), 2, "rounds must stack into two waves");
        let (resps, supply) = run(&ops);
        assert_eq!(supply, 640);
        // Round 1 succeeds, round 2 fails (insufficient funds): wave 0
        // ran before wave 1, otherwise some round-2 op could win.
        assert!(resps[..16].iter().all(|r| *r == Erc20Resp::TRUE));
        assert!(resps[16..].iter().all(|r| *r == Erc20Resp::FALSE));
    }

    #[test]
    fn unordered_execution_matches_sequential_on_commuting_batches() {
        let ops: Vec<(ProcessId, Erc20Op)> = (0..24)
            .map(|i| {
                (
                    p(i),
                    Erc20Op::Transfer {
                        to: a(32 + i),
                        value: (i as u64) % 5,
                    },
                )
            })
            .collect();
        let s = schedule(&ops, &ScheduleConfig::default());
        assert_eq!(s.waves.len(), 1, "a commuting batch is one wave");
        let token = ShardedErc20::from_state(Erc20State::from_balances(vec![10; 64]));
        let scheduled = execute(&token, &ops, &s, &ExecConfig::default());
        let token2 = ShardedErc20::from_state(Erc20State::from_balances(vec![10; 64]));
        let unordered = execute_unordered(&token2, &ops, &ExecConfig::default());
        assert_eq!(scheduled, unordered);
        assert_eq!(token.snapshot(), token2.snapshot());
    }

    #[test]
    fn executes_nft_waves() {
        // The same executor, a different standard: owner-disjoint NFT
        // transfers land in one wave.
        let nft = ShardedErc721::from_state(Erc721State::minted_round_robin(16, 64, 16));
        let ops: Vec<(ProcessId, Erc721Op)> = (0..16)
            .map(|i| {
                (
                    p(i),
                    Erc721Op::TransferFrom {
                        from: p(i),
                        to: p((i + 1) % 16),
                        token: TokenId::new(i),
                    },
                )
            })
            .collect();
        let s = schedule(&ops, &ScheduleConfig::default());
        assert_eq!(s.waves.len(), 1);
        let resps = execute(&nft, &ops, &s, &ExecConfig::default());
        assert!(resps.iter().all(|r| *r == Erc721Resp::TRUE));
        let snap = nft.snapshot();
        for i in 0..16 {
            assert_eq!(snap.owner_of(TokenId::new(i)), Some(p((i + 1) % 16)));
        }
    }
}
