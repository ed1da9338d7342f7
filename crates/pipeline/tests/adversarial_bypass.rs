//! Adversarial batches for the one apply path and its conflict monitor.
//!
//! The engine applies and commits every batch in submission order and
//! runs the wave schedule beside it as a monitor, which counts a batch
//! as commuting (`bypassed_batches`) iff the plan is one wave with an
//! empty serial lane. These tests feed the engine the batches that once
//! trapped a speculating bypass — a disjoint prefix that looks exactly
//! like commuting traffic, followed by a conflicting tail — and demand
//! that:
//!
//! 1. every batch commits exactly like the sequential oracle: the
//!    committed `(caller, op, resp)` sequence is the script with the
//!    oracle's responses, and the final state is the oracle's;
//! 2. no response is ever emitted twice: the durability sink sees every
//!    commit sequence number exactly once, gap-free;
//! 3. the monitor tells the two batches apart: the disjoint one counts
//!    as commuting, the trapped one does not, for ERC20, ERC721 and
//!    ERC1155 alike.

use proptest::collection::vec;
use proptest::prelude::*;
use tokensync_core::erc20::{Erc20Op, Erc20Spec, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_core::standards::erc1155::{
    Erc1155Op, Erc1155Spec, Erc1155State, ShardedErc1155, TypeId,
};
use tokensync_core::standards::erc721::{
    Erc721Op, Erc721Spec, Erc721State, ShardedErc721, TokenId,
};
use tokensync_pipeline::{
    run_script_with_sink, BatchConfig, CommitSink, CommittedOp, PipelineConfig, PipelineStats,
};
use tokensync_spec::{check_linearizable, AccountId, ObjectType, ProcessId};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

/// A sink that records every committed sequence number, in emission
/// order — double emission or a gap shows up as a mismatch against
/// `0..n`.
#[derive(Default)]
struct RecordingSink {
    seqs: Vec<u64>,
    records: u64,
    seals: u64,
}

impl<T: ConcurrentObject + ?Sized> CommitSink<T> for RecordingSink {
    fn wave_committed(&mut self, _token: &T, entries: &[CommittedOp<T::Op, T::Resp>]) {
        self.records += 1;
        self.seqs.extend(entries.iter().map(|e| e.seq));
    }
    fn batch_sealed(&mut self, _token: &T, _batch: u64) {
        self.seals += 1;
    }
}

/// Runs `script` and verifies the full contract: emission uniqueness,
/// replay consistency, linearizability, final state and per-op
/// responses against the submission-order sequential oracle.
fn run_trapped<T, S>(
    object: &T,
    spec: &S,
    script: &[(ProcessId, T::Op)],
    batch: usize,
) -> PipelineStats
where
    T: ConcurrentObject,
    S: ObjectType<Op = T::Op, Resp = T::Resp, State = T::State>,
    T::State: Eq + std::hash::Hash,
    T::Op: PartialEq,
{
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: batch,
            ..BatchConfig::default()
        },
        ..PipelineConfig::default()
    };
    let mut sink = RecordingSink::default();
    let run = run_script_with_sink(object, script, &cfg, &mut sink);
    assert_eq!(run.stats.ops as usize, script.len());

    // (2) No double emission, no gaps: the sink saw 0..n exactly once,
    // in commit order, across exactly the records the stats counted.
    let expected: Vec<u64> = (0..script.len() as u64).collect();
    assert_eq!(sink.seqs, expected, "sink emission is not gap-free-once");
    assert_eq!(sink.records, run.stats.commit_records);
    assert_eq!(sink.seals, run.stats.batches);

    // (1) The committed linearization is real: responses replay, the
    // history linearizes, and the state matches the sequential oracle.
    let committed = run.log.replay(spec).expect("commit log replays");
    assert_eq!(committed, object.snapshot(), "log diverged from object");
    // The Wing–Gong–Lowe checker is exponential and caps histories at
    // 64 ops; longer scripts are still covered by the replay, state and
    // per-op-response assertions.
    if script.len() <= 64 {
        check_linearizable(spec, &spec.initial_state(), &run.log.to_history())
            .expect("commit log linearizes");
    }
    let mut sequential = spec.initial_state();
    let mut seq_resps = Vec::with_capacity(script.len());
    for (caller, op) in script {
        seq_resps.push(spec.apply(&mut sequential, *caller, op));
    }
    assert_eq!(committed, sequential, "state diverged from oracle");

    // Per-op: the log is the script, in submission order, each entry
    // carrying the oracle's response at its position.
    assert_eq!(run.log.len(), script.len());
    for (i, (entry, (caller, op))) in run.log.entries().iter().zip(script).enumerate() {
        assert_eq!(
            (entry.caller, &entry.op),
            (*caller, op),
            "op {i} left its place"
        );
        assert_eq!(
            entry.resp, seq_resps[i],
            "op {i} response diverged from the oracle"
        );
    }
    assert_eq!(
        run.stats.bypass_aborts, 0,
        "nothing speculates, nothing aborts"
    );
    run.stats
}

/// Asserts the monitor told the trap apart: batch 0 (disjoint) counts as
/// commuting, batch 1 (disjoint prefix, conflicting tail) does not.
fn assert_trap_sprung(stats: &PipelineStats) {
    assert_eq!(
        (stats.batches, stats.bypassed_batches),
        (2, 1),
        "only the disjoint batch commutes, stats: {stats:?}"
    );
    assert!(
        stats.serial_ops + stats.conflicts > 0,
        "the monitor must see the tail's conflicts, stats: {stats:?}"
    );
}

const BATCH: usize = 16;

#[test]
fn erc20_mispredicted_batch_falls_back_to_the_oracle_order() {
    let n = 64;
    let initial = Erc20State::from_balances(vec![100; n]);
    let token = ShardedErc20::from_state(initial.clone());
    let mut script: Vec<(ProcessId, Erc20Op)> = Vec::new();
    // Batch 0: fully owner-disjoint — commuting.
    for i in 0..BATCH {
        script.push((
            p(i),
            Erc20Op::Transfer {
                to: a(32 + i),
                value: 1,
            },
        ));
    }
    // Batch 1: a disjoint prefix wearing the same shape…
    for i in 0..BATCH / 2 {
        script.push((
            p(i),
            Erc20Op::Transfer {
                to: a(48 + i),
                value: 1,
            },
        ));
    }
    // …then a conflicting tail: everyone drains account 16's owner.
    for i in 0..BATCH / 2 {
        script.push((
            p(16),
            Erc20Op::Transfer {
                to: a(17 + i),
                value: 3,
            },
        ));
    }
    let stats = run_trapped(&token, &Erc20Spec::new(initial), &script, BATCH);
    assert_trap_sprung(&stats);
    assert_eq!(stats.bypassed_ops as usize, BATCH);
}

#[test]
fn erc721_mispredicted_batch_falls_back_to_the_oracle_order() {
    let n = 32;
    let mut initial = Erc721State::minted_round_robin(n, 256, n);
    for i in 1..n {
        initial.set_operator(p(0), p(i), true);
    }
    let nft = ShardedErc721::from_state(initial.clone());
    let mut script: Vec<(ProcessId, Erc721Op)> = Vec::new();
    // Batch 0: owner-disjoint token moves — commuting.
    for i in 0..BATCH {
        script.push((
            p(i),
            Erc721Op::TransferFrom {
                from: p(i),
                to: p((i + 1) % n),
                token: TokenId::new(i),
            },
        ));
    }
    // Batch 1: disjoint prefix, then everyone claims token 0 — the §6
    // race the monitor must see.
    for i in 0..BATCH / 2 {
        script.push((
            p(16 + i),
            Erc721Op::TransferFrom {
                from: p(16 + i),
                to: p((17 + i) % n),
                token: TokenId::new(16 + i),
            },
        ));
    }
    for i in 0..BATCH / 2 {
        script.push((
            p(1 + i),
            Erc721Op::TransferFrom {
                from: p(0),
                to: p(1 + i),
                token: TokenId::new(0),
            },
        ));
    }
    let stats = run_trapped(&nft, &Erc721Spec::new(initial), &script, BATCH);
    assert_trap_sprung(&stats);
    assert_eq!(stats.bypassed_ops as usize, BATCH);
}

#[test]
fn erc1155_mispredicted_batch_falls_back_to_the_oracle_order() {
    let n = 32;
    let mut initial = Erc1155State::deploy(n, p(0), &[0, 0]);
    for i in 0..n {
        for t in 0..2 {
            initial.set_balance(a(i), TypeId::new(t), 50);
        }
    }
    for i in 1..n {
        initial.set_operator(a(0), p(i), true);
    }
    let multi = ShardedErc1155::from_state(initial.clone());
    let mut script: Vec<(ProcessId, Erc1155Op)> = Vec::new();
    // Batch 0: pairwise cell-disjoint batch transfers — commuting.
    for i in 0..BATCH {
        script.push((
            p(i),
            Erc1155Op::BatchTransfer {
                from: a(i),
                to: a(16 + i),
                entries: vec![(TypeId::new(0), 1), (TypeId::new(1), 2)],
            },
        ));
    }
    // Batch 1: disjoint prefix, then overlapping drains of account 0.
    for i in 0..BATCH / 2 {
        script.push((
            p(16 + i),
            Erc1155Op::BatchTransfer {
                from: a(16 + i),
                to: a(1 + i),
                entries: vec![(TypeId::new(1), 1)],
            },
        ));
    }
    for i in 0..BATCH / 2 {
        script.push((
            p(1 + i),
            Erc1155Op::BatchTransfer {
                from: a(0),
                to: a(1 + i),
                entries: vec![(TypeId::new(i % 2), 2)],
            },
        ));
    }
    let stats = run_trapped(&multi, &Erc1155Spec::new(initial), &script, BATCH);
    assert_trap_sprung(&stats);
    assert_eq!(stats.bypassed_ops as usize, BATCH);
}

#[test]
fn calm_batches_after_a_burst_count_as_commuting() {
    // A contended burst, then disjoint calm: the monitor reads each
    // batch on its own, so every calm batch counts as commuting at once.
    let n = 64;
    let mut initial = Erc20State::from_balances(vec![1000; n]);
    for sp in 1..8 {
        initial.set_allowance(a(0), p(sp), 500);
    }
    let token = ShardedErc20::from_state(initial.clone());
    let mut script: Vec<(ProcessId, Erc20Op)> = Vec::new();
    // 8 batches of hot-row traffic.
    for i in 0..8 * BATCH {
        script.push((
            p(1 + (i % 7)),
            Erc20Op::TransferFrom {
                from: a(0),
                to: a(1 + ((i + 1) % 7)),
                value: 1,
            },
        ));
    }
    // 32 batches of disjoint calm.
    for _ in 0..32 {
        for i in 0..BATCH {
            script.push((
                p(i),
                Erc20Op::Transfer {
                    to: a(32 + i),
                    value: 1,
                },
            ));
        }
    }
    let stats = run_trapped(&token, &Erc20Spec::new(initial), &script, BATCH);
    assert_eq!(stats.bypassed_batches, 32, "stats: {stats:?}");
}

/// One adversarial ERC20 op mix: mostly-disjoint transfers with bursts
/// of hot-row contention, so random scripts mix commuting and
/// contended batches.
fn arb_trap_op() -> impl Strategy<Value = (usize, Erc20Op)> {
    // Disjoint moves dominate (repeated arms stand in for weights, which
    // the vendored proptest does not support), so random scripts have
    // long commuting stretches punctured by hot-row bursts.
    fn disjoint() -> impl Strategy<Value = (usize, Erc20Op)> {
        (0..16usize, 1u64..3).prop_map(|(i, value)| {
            (
                i,
                Erc20Op::Transfer {
                    to: AccountId::new(32 + i),
                    value,
                },
            )
        })
    }
    prop_oneof![
        disjoint(),
        disjoint(),
        disjoint(),
        // Hot: everyone drains caller 0's row.
        (1..8usize, 1u64..3).prop_map(|(sp, value)| (
            sp,
            Erc20Op::TransferFrom {
                from: AccountId::new(0),
                to: AccountId::new(sp),
                value
            }
        )),
        (1..8usize, 0u64..5).prop_map(|(sp, value)| (
            0,
            Erc20Op::Approve {
                spender: ProcessId::new(sp),
                value
            }
        )),
    ]
}

proptest! {
    /// Random adversarial mixes: whatever the monitor reads per batch,
    /// the commit log must replay, linearize, match the oracle per-op,
    /// and the sink must see every commit exactly once.
    #[test]
    fn random_trap_scripts_never_diverge(
        ops in vec(arb_trap_op(), 1..120),
        batch in 1usize..24,
    ) {
        let mut initial = Erc20State::from_balances(vec![50; 48]);
        for sp in 1..8 {
            initial.set_allowance(a(0), p(sp), 25);
        }
        let token = ShardedErc20::from_state(initial.clone());
        let script: Vec<(ProcessId, Erc20Op)> =
            ops.into_iter().map(|(c, op)| (p(c), op)).collect();
        run_trapped(&token, &Erc20Spec::new(initial), &script, batch);
    }

    /// Random ERC721 claim races against disjoint movers.
    #[test]
    fn random_nft_trap_scripts_never_diverge(
        ops in vec(
            prop_oneof![
                (0..16usize).prop_map(|i| (i, i, i)),          // own-token move
                (0..16usize).prop_map(|i| (i, i, i)),
                (0..16usize).prop_map(|i| (i, i, i)),
                (1..8usize).prop_map(|c| (c, 0usize, 0usize)), // claim token 0
            ],
            1..80,
        ),
        batch in 1usize..16,
    ) {
        let n = 32;
        let mut initial = Erc721State::minted_round_robin(n, 64, n);
        for i in 1..n {
            initial.set_operator(p(0), p(i), true);
        }
        let nft = ShardedErc721::from_state(initial.clone());
        let script: Vec<(ProcessId, Erc721Op)> = ops
            .into_iter()
            .map(|(caller, from, tok)| (
                p(caller),
                Erc721Op::TransferFrom {
                    from: p(from),
                    to: p(caller),
                    token: TokenId::new(tok),
                },
            ))
            .collect();
        run_trapped(&nft, &Erc721Spec::new(initial), &script, batch);
    }

    /// Random ERC1155 batch-op mixes with overlapping cell sets.
    #[test]
    fn random_multi_trap_scripts_never_diverge(
        ops in vec((0..12usize, 0..12usize, 0..2usize, 1u64..3), 1..80),
        batch in 1usize..16,
    ) {
        let n = 16;
        let mut initial = Erc1155State::deploy(n, p(0), &[0, 0]);
        for i in 0..n {
            for t in 0..2 {
                initial.set_balance(a(i), TypeId::new(t), 30);
            }
        }
        for i in 1..n {
            initial.set_operator(a(0), p(i), true);
        }
        let multi = ShardedErc1155::from_state(initial.clone());
        let script: Vec<(ProcessId, Erc1155Op)> = ops
            .into_iter()
            .map(|(caller, to, t, v)| (
                p(caller),
                Erc1155Op::BatchTransfer {
                    from: a(caller),
                    to: a(to),
                    entries: vec![(TypeId::new(t), v)],
                },
            ))
            .collect();
        run_trapped(&multi, &Erc1155Spec::new(initial), &script, batch);
    }
}
