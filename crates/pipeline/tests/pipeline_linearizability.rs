//! Property-based correctness of the batched pipeline.
//!
//! For random mixed, Zipf-skewed, and hot-allowance-row scripts, the
//! pipeline-executed history must:
//!
//! 1. produce a commit log whose recorded responses replay exactly
//!    against the sequential [`Erc20Spec`] (no divergence),
//! 2. pass [`check_linearizable`] as a history,
//! 3. leave the token in the state a plain sequential [`Erc20State`]
//!    replay of the submission-order script reaches — the pipeline may
//!    reorder only commuting operations, and commuting reorders cannot
//!    change the final state or any response.
//!
//! Property 3 is the sharp one: it fails if the footprint conflict
//! relation ever under-approximates (two ops that do not commute sharing
//! a wave), which is exactly the bug class a commutativity-aware engine
//! must not have.

use proptest::collection::vec;
use proptest::prelude::*;
use tokensync_core::erc20::{Erc20Op, Erc20Spec, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_pipeline::{run_script, BatchConfig, PipelineConfig, ScheduleConfig};
use tokensync_spec::{check_linearizable, AccountId, ObjectType, ProcessId};

const N: usize = 6;

fn arb_op() -> impl Strategy<Value = Erc20Op> {
    prop_oneof![
        (0..N, 0u64..4).prop_map(|(to, value)| Erc20Op::Transfer {
            to: AccountId::new(to),
            value
        }),
        (0..N, 0..N, 0u64..4).prop_map(|(from, to, value)| Erc20Op::TransferFrom {
            from: AccountId::new(from),
            to: AccountId::new(to),
            value,
        }),
        (0..N, 0u64..6).prop_map(|(spender, value)| Erc20Op::Approve {
            spender: ProcessId::new(spender),
            value
        }),
        (0..N).prop_map(|account| Erc20Op::BalanceOf {
            account: AccountId::new(account)
        }),
        (0..N, 0..N).prop_map(|(account, spender)| Erc20Op::Allowance {
            account: AccountId::new(account),
            spender: ProcessId::new(spender),
        }),
        Just(Erc20Op::TotalSupply),
    ]
}

/// Hot-row op: a transferFrom on account 0 by one of its contending
/// spenders, or a re-approve by the owner — the high-conflict regime.
fn hot_row_op() -> impl Strategy<Value = (usize, Erc20Op)> {
    prop_oneof![
        (1..N, 1..N, 1u64..3).prop_map(|(spender, to, value)| (
            spender,
            Erc20Op::TransferFrom {
                from: AccountId::new(0),
                to: AccountId::new(to),
                value,
            }
        )),
        (1..N, 0u64..5).prop_map(|(spender, value)| (
            0,
            Erc20Op::Approve {
                spender: ProcessId::new(spender),
                value,
            }
        )),
    ]
}

/// Runs `script` through the pipeline over a sharded token and checks
/// the three properties against the submission-order sequential replay.
fn check_pipeline(initial: Erc20State, script: Vec<(ProcessId, Erc20Op)>, batch: usize) {
    let token = ShardedErc20::from_state(initial.clone());
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: batch,
            ..BatchConfig::default()
        },
        schedule: ScheduleConfig {
            max_parallel_waves: 3,
        },
        ..PipelineConfig::default()
    };
    let run = run_script(&token, &script, &cfg);
    assert_eq!(run.stats.ops as usize, script.len());
    let spec = Erc20Spec::new(initial.clone());

    // (1) Recorded responses are consistent with the committed order.
    let committed_state = run
        .log
        .replay(&spec)
        .expect("commit log replays without divergence");

    // (2) The commit history linearizes against the spec.
    check_linearizable(&spec, &spec.initial_state(), &run.log.to_history())
        .expect("commit log linearizes");

    // (3) Final state equals the sequential submission-order replay —
    // for the token itself, the committed replay, and per-op responses.
    let mut sequential = initial;
    let mut seq_resps = Vec::with_capacity(script.len());
    for (caller, op) in &script {
        seq_resps.push(spec.apply(&mut sequential, *caller, op));
    }
    assert_eq!(
        committed_state, sequential,
        "pipeline state diverged from sequential replay"
    );
    assert_eq!(token.snapshot(), sequential);
    // Responses match per op (commit order permutes ops, so compare
    // through the submission indices recorded in each batch): every
    // committed (caller, op) response must equal the sequential one at
    // the same submission position. Batches preserve submission order
    // chunk-wise, and commit entries carry enough to find it: replaying
    // the permutation is equivalent to checking multiset equality of
    // (caller, op, resp) — but responses are order-dependent, so instead
    // exploit that both runs are linearizations of the same trace:
    // sequential responses at each index must appear for the same index
    // in the commit log. Recover the index from commit order.
    let mut commit_resps = vec![None; script.len()];
    let batch_starts: Vec<usize> = (0..script.len().div_ceil(batch))
        .map(|b| b * batch)
        .collect();
    let mut cursor = 0usize;
    for b in 0..batch_starts.len() {
        let start = batch_starts[b];
        let len = batch.min(script.len() - start);
        // Entries of batch b occupy commit positions cursor..cursor+len;
        // match them back to submission indices by (caller, op) with a
        // per-batch multiset scan in submission order.
        let mut used = vec![false; len];
        for entry in &run.log.entries()[cursor..cursor + len] {
            let local = (0..len)
                .find(|&i| {
                    !used[i]
                        && script[start + i].0 == entry.caller
                        && script[start + i].1 == entry.op
                })
                .expect("committed op present in its batch");
            used[local] = true;
            // First unused match is enough: identical (caller, op) pairs
            // are interchangeable — equal ops by the same caller conflict
            // with the same cells, so either both responses agree with
            // the sequential ones or the state assertion above fails.
            if commit_resps[start + local].is_none() {
                commit_resps[start + local] = Some(entry.resp);
            }
        }
        cursor += len;
    }
    for (i, got) in commit_resps.iter().enumerate() {
        let got = got.expect("every submission index committed");
        assert_eq!(
            got, seq_resps[i],
            "op {i} response diverged from the sequential replay"
        );
    }
}

proptest! {
    /// Mixed uniform traffic: arbitrary op soup over arbitrary funded
    /// states, several batch sizes.
    #[test]
    fn mixed_scripts_linearize_and_match_sequential(
        balances in vec(0u64..8, N),
        approvals in vec((0..N, 0..N, 1u64..6), 0..6),
        callers in vec(0..N, 1..40),
        ops in vec(arb_op(), 1..40),
        batch in 1usize..12,
    ) {
        let mut initial = Erc20State::from_balances(balances);
        for &(a, p, v) in &approvals {
            initial.set_allowance(AccountId::new(a), ProcessId::new(p), v);
        }
        let script: Vec<(ProcessId, Erc20Op)> = callers
            .iter()
            .zip(&ops)
            .map(|(&c, op)| (ProcessId::new(c), op.clone()))
            .collect();
        check_pipeline(initial, script, batch);
    }

    /// The high-conflict regime: k spenders racing one shared allowance
    /// row, interleaved with background commuting transfers (a crude
    /// Zipf: half the stream hits the hot row).
    #[test]
    fn hot_row_scripts_linearize_and_match_sequential(
        hot in vec(hot_row_op(), 1..20),
        cold in vec((0..N, 0..N, 0u64..3), 0..20),
        batch in 2usize..16,
    ) {
        let mut initial = Erc20State::from_balances(vec![6; N]);
        for sp in 1..N {
            initial.set_allowance(AccountId::new(0), ProcessId::new(sp), 3);
        }
        // Interleave hot-row and background ops deterministically.
        let mut script: Vec<(ProcessId, Erc20Op)> = Vec::new();
        let mut hot_it = hot.into_iter();
        let mut cold_it = cold.into_iter();
        loop {
            match (hot_it.next(), cold_it.next()) {
                (None, None) => break,
                (h, c) => {
                    if let Some((caller, op)) = h {
                        script.push((ProcessId::new(caller), op));
                    }
                    if let Some((caller, to, value)) = c {
                        script.push((
                            ProcessId::new(caller),
                            Erc20Op::Transfer {
                                to: AccountId::new(to),
                                value,
                            },
                        ));
                    }
                }
            }
        }
        check_pipeline(initial, script, batch);
    }
}
