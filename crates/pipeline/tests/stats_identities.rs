//! Accounting identities of [`PipelineStats`] and the shape of the
//! stream that crosses the [`CommitSink`] seam, on both execution
//! routes (bypass and scheduled) for all three standards.
//!
//! The invariants:
//!
//! * `ops == parallel_ops + serial_ops` — every committed op took
//!   exactly one of the two execution routes;
//! * `bypassed_ops <= parallel_ops` and
//!   `bypassed_batches <= batches` — the bypass path is a subset of
//!   the parallel route;
//! * every non-empty batch crosses the seam as exactly one
//!   `wave_committed_tagged` record followed by exactly one
//!   `batch_sealed`, so `commit_records == batches == seals`; a record
//!   spans its whole batch;
//! * entries are contiguous in `seq` across records and carry their
//!   batch number; tickets, when the producer attached any, are
//!   permuted into commit order together with their entries;
//! * with the bypass disabled, every bypass counter is zero;
//! * the committed result is identical with the bypass on and off.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use tokensync_core::erc20::{Erc20Op, Erc20Spec, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_core::standards::erc1155::{Erc1155Op, Erc1155State, ShardedErc1155, TypeId};
use tokensync_core::standards::erc721::{Erc721Op, Erc721State, ShardedErc721, TokenId};
use tokensync_pipeline::{
    run_script_with_sink, BatchConfig, BypassConfig, CommitSink, CommittedOp, Pipeline,
    PipelineConfig, PipelineRun, PipelineStats, ScheduleConfig,
};
use tokensync_spec::{AccountId, ObjectType, ProcessId};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

/// One call across the sink seam, as the sink saw it.
#[derive(Debug)]
enum SeamCall<Op, Resp> {
    Record {
        entries: Vec<CommittedOp<Op, Resp>>,
        tickets: Vec<u64>,
    },
    Seal(u64),
}

/// Records every call across the seam, in order.
struct SeamSink<Op, Resp> {
    calls: Vec<SeamCall<Op, Resp>>,
}

impl<Op, Resp> Default for SeamSink<Op, Resp> {
    fn default() -> Self {
        Self { calls: Vec::new() }
    }
}

impl<T: ConcurrentObject + ?Sized> CommitSink<T> for SeamSink<T::Op, T::Resp> {
    fn wave_committed(&mut self, _token: &T, _entries: &[CommittedOp<T::Op, T::Resp>]) {
        panic!("the engine hands records over through wave_committed_tagged");
    }
    fn wave_committed_tagged(
        &mut self,
        _token: &T,
        entries: &[CommittedOp<T::Op, T::Resp>],
        tickets: &[u64],
    ) {
        self.calls.push(SeamCall::Record {
            entries: entries.to_vec(),
            tickets: tickets.to_vec(),
        });
    }
    fn batch_sealed(&mut self, _token: &T, batch: u64) {
        self.calls.push(SeamCall::Seal(batch));
    }
}

fn cfg(max_ops: usize, bypass: bool) -> PipelineConfig {
    PipelineConfig {
        batch: BatchConfig {
            max_ops,
            ..BatchConfig::default()
        },
        bypass: BypassConfig {
            enabled: bypass,
            ..BypassConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Checks the seam invariants of one run over `script` and returns the
/// record lengths and whether any record's tickets left submission
/// order. A ticket, where present, is the op's script position plus one.
fn check_seam<Op, Resp>(
    case: &str,
    script: &[(ProcessId, Op)],
    calls: &[SeamCall<Op, Resp>],
    stats: &PipelineStats,
) -> (Vec<usize>, bool)
where
    Op: PartialEq + std::fmt::Debug,
    Resp: std::fmt::Debug,
{
    let mut next_seq = 0u64;
    let mut record_lens = Vec::new();
    let mut ticket_seen = vec![false; script.len()];
    let mut reordered = false;
    for (batch, pair) in calls.chunks(2).enumerate() {
        let [SeamCall::Record { entries, tickets }, SeamCall::Seal(sealed)] = pair else {
            panic!("{case}: batch {batch} is not one record then one seal: {pair:?}");
        };
        assert_eq!(*sealed, batch as u64, "{case}: seal out of order");
        assert!(!entries.is_empty(), "{case}: empty record");
        for entry in entries {
            assert_eq!(entry.seq, next_seq, "{case}: seq gap or repeat");
            assert_eq!(entry.batch, *sealed, "{case}: entry in a foreign record");
            next_seq += 1;
        }
        if !tickets.is_empty() {
            assert_eq!(tickets.len(), entries.len(), "{case}: tickets parallel");
            for (entry, &ticket) in entries.iter().zip(tickets) {
                let at = ticket as usize - 1;
                assert_eq!(
                    (script[at].0, &script[at].1),
                    (entry.caller, &entry.op),
                    "{case}: ticket {ticket} rode with another producer's entry"
                );
                assert!(
                    !std::mem::replace(&mut ticket_seen[at], true),
                    "{case}: ticket {ticket} delivered twice"
                );
            }
            reordered |= tickets.windows(2).any(|w| w[0] > w[1]);
        }
        record_lens.push(entries.len());
    }
    assert_eq!(
        next_seq,
        script.len() as u64,
        "{case}: entries exactly once"
    );
    let records = record_lens.len() as u64;
    assert_eq!(records, stats.commit_records, "{case}: records");
    assert_eq!(records, stats.batches, "{case}: one record per batch");
    (record_lens, reordered)
}

/// `script` through the synchronous entry point: batches are the
/// script's `max_ops` chunks, and each must cross the seam whole.
fn run_sync<T: ConcurrentObject>(
    case: &str,
    token: &T,
    script: &[(ProcessId, T::Op)],
    cfg: &PipelineConfig,
) -> PipelineRun<T::Op, T::Resp>
where
    T::Op: PartialEq,
{
    let mut sink = SeamSink::default();
    let run = run_script_with_sink(token, script, cfg, &mut sink);
    let (record_lens, _) = check_seam(case, script, &sink.calls, &run.stats);
    let chunk_lens: Vec<usize> = script.chunks(cfg.batch.max_ops).map(<[_]>::len).collect();
    assert_eq!(record_lens, chunk_lens, "{case}: a record spans its batch");
    run
}

/// `script` through the spawned engine, every op ticketed with its
/// script position plus one. The whole script is admitted as one burst
/// on one shard — one lock, so the engine sees none of it or all of it
/// and cuts full batches.
fn run_spawned<T: ConcurrentObject + 'static>(
    case: &str,
    token: T,
    script: &[(ProcessId, T::Op)],
    max_ops: usize,
    bypass: bool,
) -> (PipelineStats, bool)
where
    T::Op: PartialEq,
{
    let mut cfg = cfg(max_ops, bypass);
    cfg.batch.intake_shards = 1;
    cfg.batch.queue_depth = script.len();
    let (client, handle) = Pipeline::spawn_with_sink(Arc::new(token), cfg, SeamSink::default());
    let mut burst = script
        .iter()
        .enumerate()
        .map(|(i, (caller, op))| (*caller, op.clone(), i as u64 + 1));
    let admitted = client.try_submit_burst(&mut burst).expect("engine alive");
    assert_eq!(admitted, script.len(), "{case}: burst fits the intake");
    drop(client);
    let (run, sink) = handle.finish();
    let (_, reordered) = check_seam(case, script, &sink.calls, &run.stats);
    (run.stats, reordered)
}

/// Both entry points on the route `bypass` selects: a pairwise-disjoint
/// script with the bypass on certifies every batch; with it off every
/// batch is scheduled.
fn check_route<T, Build>(
    name: &str,
    build: Build,
    script: &[(ProcessId, T::Op)],
    max_ops: usize,
    bypass: bool,
) where
    T: ConcurrentObject + 'static,
    T::Op: PartialEq,
    Build: Fn() -> T,
{
    let case = format!("{name} bypass={bypass}");
    let sync = run_sync(
        &format!("{case} sync"),
        &build(),
        script,
        &cfg(max_ops, bypass),
    )
    .stats;
    let (spawned, reordered) =
        run_spawned(&format!("{case} spawned"), build(), script, max_ops, bypass);
    for stats in [sync, spawned] {
        let on_bypass = if bypass { stats.batches } else { 0 };
        assert_eq!(stats.bypassed_batches, on_bypass, "{case}: wrong route");
    }
    if !bypass {
        assert!(reordered, "{case}: the schedule never permuted a batch");
    }
}

/// Owner-disjoint transfers: everything commutes.
fn disjoint_script(n: usize) -> (Erc20State, Vec<(ProcessId, Erc20Op)>) {
    let state = Erc20State::from_balances(vec![1_000; 2 * n]);
    let script = (0..n)
        .map(|i| {
            (
                p(i),
                Erc20Op::Transfer {
                    to: a(n + i),
                    value: 1,
                },
            )
        })
        .collect();
    (state, script)
}

/// A few senders reused: moderate conflict density.
fn mixed_script(n: usize) -> (Erc20State, Vec<(ProcessId, Erc20Op)>) {
    let state = Erc20State::from_balances(vec![1_000; 16]);
    let script = (0..n)
        .map(|i| {
            (
                p(i % 5),
                Erc20Op::Transfer {
                    to: a(5 + (i % 11)),
                    value: 1 + (i as u64 % 3),
                },
            )
        })
        .collect();
    (state, script)
}

/// Spenders hammering one allowance row: almost everything conflicts.
fn hotrow_script(n: usize) -> (Erc20State, Vec<(ProcessId, Erc20Op)>) {
    let mut state = Erc20State::from_balances(vec![10_000; 8]);
    for sp in 1..8 {
        state.set_allowance(a(0), p(sp), 5_000);
    }
    let script = (0..n)
        .map(|i| {
            (
                p(1 + (i % 7)),
                Erc20Op::TransferFrom {
                    from: a(0),
                    to: a(1 + ((i + 1) % 7)),
                    value: 1,
                },
            )
        })
        .collect();
    (state, script)
}

fn check_matrix(name: &str, state: &Erc20State, script: &[(ProcessId, Erc20Op)], max_ops: usize) {
    let expected_batches = script.len().div_ceil(max_ops) as u64;
    let mut final_states = Vec::new();
    for bypass in [false, true] {
        let case = format!("{name} bypass={bypass}");
        let token = ShardedErc20::from_state(state.clone());
        let s = run_sync(&case, &token, script, &cfg(max_ops, bypass)).stats;

        // Route partition.
        assert_eq!(s.ops, script.len() as u64, "{case}: ops");
        assert_eq!(s.ops, s.parallel_ops + s.serial_ops, "{case}: partition");
        assert_eq!(s.batches, expected_batches, "{case}: batches");

        // Bypass is a subset of the parallel route.
        assert!(
            s.bypassed_ops <= s.parallel_ops,
            "{case}: bypass ⊆ parallel"
        );
        assert!(s.bypassed_batches <= s.batches, "{case}: bypass batches");
        if !bypass {
            assert_eq!(
                (s.bypassed_batches, s.bypassed_ops, s.bypass_aborts),
                (0, 0, 0),
                "{case}: bypass off must count nothing"
            );
        }

        final_states.push((case, token.snapshot()));
    }
    // Same input, same committed state, regardless of config.
    let (first_case, first) = &final_states[0];
    for (case, st) in &final_states[1..] {
        assert_eq!(st, first, "{case} diverged from {first_case}");
    }
    // And the whole thing replays against the sequential oracle.
    let token = ShardedErc20::from_state(state.clone());
    let run = run_script_with_sink(&token, script, &cfg(max_ops, true), &mut ());
    let replayed = run
        .log
        .replay(&Erc20Spec::new(state.clone()))
        .expect("consistent responses");
    assert_eq!(replayed, token.snapshot());
}

#[test]
fn disjoint_regime_identities() {
    let (state, script) = disjoint_script(256);
    check_matrix("disjoint", &state, &script, 64);
}

#[test]
fn mixed_regime_identities() {
    let (state, script) = mixed_script(300);
    check_matrix("mixed", &state, &script, 64);
}

#[test]
fn hotrow_regime_identities() {
    let (state, script) = hotrow_script(256);
    check_matrix("hotrow", &state, &script, 64);
}

#[test]
fn ragged_tail_batch_identities() {
    // A last batch smaller than max_ops must not skew any identity.
    let (state, script) = mixed_script(101);
    check_matrix("ragged", &state, &script, 25);
}

#[test]
fn single_op_batches_identities() {
    let (state, script) = disjoint_script(7);
    check_matrix("unit-batches", &state, &script, 1);
}

// The per-standard scripts below come in two shapes over 16 owners.
// *Disjoint*: op `i` has its own source and its own sink, so the whole
// script commutes pairwise and any batch of it bypasses. *Paired*: ops
// `2j` and `2j + 1` race one source, so the schedule lifts every odd op
// into a later wave — commit order leaves submission order.

const OWNERS: usize = 16;

#[test]
fn erc20_batches_cross_the_seam_as_one_record_then_one_seal() {
    let state = Erc20State::from_balances(vec![1_000; 2 * OWNERS]);
    let transfer = |from: usize, i: usize| {
        (
            p(from),
            Erc20Op::Transfer {
                to: a(OWNERS + i % OWNERS),
                value: 1,
            },
        )
    };
    let build = || ShardedErc20::from_state(state.clone());
    let disjoint: Vec<_> = (0..OWNERS).map(|i| transfer(i, i)).collect();
    check_route("erc20", build, &disjoint, 8, true);
    let paired: Vec<_> = (0..48).map(|i| transfer((i / 2) % OWNERS, i)).collect();
    check_route("erc20", build, &paired, 12, false);
}

#[test]
fn erc721_batches_cross_the_seam_as_one_record_then_one_seal() {
    // Token `t` starts with owner `t`.
    let state = Erc721State::minted_round_robin(2 * OWNERS, 64, OWNERS);
    let build = || ShardedErc721::from_state(state.clone());
    let hand_over = |token: usize, from: usize, to: usize| {
        (
            p(from),
            Erc721Op::TransferFrom {
                from: p(from),
                to: p(to),
                token: TokenId::new(token),
            },
        )
    };
    let disjoint: Vec<_> = (0..OWNERS).map(|t| hand_over(t, t, OWNERS + t)).collect();
    check_route("erc721", build, &disjoint, 8, true);
    // Each token changes hands twice in a row: there and back.
    let paired: Vec<_> = (0..2 * OWNERS)
        .map(|i| match (i / 2, i % 2) {
            (t, 0) => hand_over(t, t, OWNERS + t),
            (t, _) => hand_over(t, OWNERS + t, t),
        })
        .collect();
    check_route("erc721", build, &paired, 8, false);
}

#[test]
fn erc1155_batches_cross_the_seam_as_one_record_then_one_seal() {
    let mut state = Erc1155State::deploy(2 * OWNERS, p(0), &[0, 0]);
    for i in 0..2 * OWNERS {
        for t in 0..2 {
            state.set_balance(a(i), TypeId::new(t), 1_000);
        }
    }
    let build = || ShardedErc1155::from_state(state.clone());
    let batch_transfer = |from: usize, i: usize| {
        (
            p(from),
            Erc1155Op::BatchTransfer {
                from: a(from),
                to: a(OWNERS + i % OWNERS),
                entries: vec![(TypeId::new(0), 1), (TypeId::new(1), 2)],
            },
        )
    };
    let disjoint: Vec<_> = (0..OWNERS).map(|i| batch_transfer(i, i)).collect();
    check_route("erc1155", build, &disjoint, 8, true);
    let paired: Vec<_> = (0..48)
        .map(|i| batch_transfer((i / 2) % OWNERS, i))
        .collect();
    check_route("erc1155", build, &paired, 12, false);
}

proptest! {
    /// Random mixed ERC20 scripts, random batch sizes, bypass on and
    /// off: whatever the schedule does inside a batch, the batch
    /// crosses the seam as one whole record, and the committed log
    /// replays to the submission-order sequential state.
    #[test]
    fn random_scripts_commit_one_record_per_batch(
        balances in vec(0u64..10, 12),
        ops in vec(
            prop_oneof![
                (0..12usize, 0..12usize, 0u64..4).prop_map(|(c, to, v)| (
                    c,
                    Erc20Op::Transfer { to: AccountId::new(to), value: v }
                )),
                (0..12usize, 0..12usize, 0..12usize, 0u64..4).prop_map(|(c, from, to, v)| (
                    c,
                    Erc20Op::TransferFrom {
                        from: AccountId::new(from),
                        to: AccountId::new(to),
                        value: v,
                    }
                )),
                (0..12usize, 0..12usize, 0u64..6).prop_map(|(c, sp, v)| (
                    c,
                    Erc20Op::Approve { spender: ProcessId::new(sp), value: v }
                )),
            ],
            1..60,
        ),
        batch in 1usize..14,
        bypass_bit in 0usize..2,
    ) {
        let initial = Erc20State::from_balances(balances);
        let script: Vec<(ProcessId, Erc20Op)> =
            ops.into_iter().map(|(c, op)| (p(c), op)).collect();
        let token = ShardedErc20::from_state(initial.clone());
        let mut cfg = cfg(batch, bypass_bit == 1);
        cfg.schedule = ScheduleConfig { max_parallel_waves: 3 };
        let run = run_sync("random", &token, &script, &cfg);
        let spec = Erc20Spec::new(initial);
        let replayed = run.log.replay(&spec).expect("replays");
        let mut sequential = spec.initial_state();
        for (caller, op) in &script {
            spec.apply(&mut sequential, *caller, op);
        }
        assert_eq!(replayed, sequential);
    }
}
