//! Accounting identities of [`PipelineStats`] and the shape of the
//! stream that crosses the [`CommitSink`] seam, on commuting and
//! contended batches of all three standards.
//!
//! The invariants:
//!
//! * `ops == parallel_ops + serial_ops` — the conflict monitor places
//!   every op in exactly one of its waves or its serial lane;
//! * `bypassed_ops <= parallel_ops` and
//!   `bypassed_batches <= batches` — a commuting batch is one wave;
//!   `bypassed_batches` counts exactly the batches with no conflicting
//!   pair, by the brute-force pairwise relation;
//! * every non-empty batch crosses the seam as exactly one
//!   `wave_committed_tagged` record followed by exactly one
//!   `batch_sealed`, so `commit_records == batches == seals`; a record
//!   spans its whole batch;
//! * entries are contiguous in `seq` across records and carry their
//!   batch number; tickets, when the producer attached any, arrive in
//!   submission order together with their entries;
//! * the committed `(caller, op)` sequence is the script.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use tokensync_core::analysis::footprints_conflict;
use tokensync_core::erc20::{Erc20Op, Erc20Spec, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_core::standards::erc1155::{
    Erc1155Op, Erc1155Spec, Erc1155State, ShardedErc1155, TypeId,
};
use tokensync_core::standards::erc721::{
    Erc721Op, Erc721Spec, Erc721State, ShardedErc721, TokenId,
};
use tokensync_pipeline::{
    run_script_with_sink, BatchConfig, CommitSink, CommittedOp, Pipeline, PipelineConfig,
    PipelineRun, PipelineStats, ScheduleConfig,
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

fn cfg(max_ops: usize) -> PipelineConfig {
    PipelineConfig {
        batch: BatchConfig {
            max_ops,
            ..BatchConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Checks the seam invariants of one run over `script` and returns the
/// record lengths. A ticket, where present, is the op's script position
/// plus one.
fn check_seam<Op, Resp>(
    case: &str,
    script: &[(ProcessId, Op)],
    calls: &[SeamCall<Op, Resp>],
    stats: &PipelineStats,
) -> Vec<usize>
where
    Op: PartialEq + std::fmt::Debug,
    Resp: std::fmt::Debug,
{
    let mut next_seq = 0u64;
    let mut record_lens = Vec::new();
    for (batch, pair) in calls.chunks(2).enumerate() {
        let [SeamCall::Record { entries, tickets }, SeamCall::Seal(sealed)] = pair else {
            panic!("{case}: batch {batch} is not one record then one seal: {pair:?}");
        };
        assert_eq!(*sealed, batch as u64, "{case}: seal out of order");
        assert!(!entries.is_empty(), "{case}: empty record");
        for entry in entries {
            assert_eq!(entry.seq, next_seq, "{case}: seq gap or repeat");
            assert_eq!(entry.batch, *sealed, "{case}: entry in a foreign record");
            let at = entry.seq as usize;
            assert_eq!(
                (script[at].0, &script[at].1),
                (entry.caller, &entry.op),
                "{case}: entry {at} left submission order"
            );
            next_seq += 1;
        }
        if !tickets.is_empty() {
            assert_eq!(tickets.len(), entries.len(), "{case}: tickets parallel");
            for (entry, &ticket) in entries.iter().zip(tickets) {
                assert_eq!(
                    ticket,
                    entry.seq + 1,
                    "{case}: ticket {ticket} out of submission order"
                );
            }
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
    record_lens
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
    let record_lens = check_seam(case, script, &sink.calls, &run.stats);
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
) -> PipelineStats
where
    T::Op: PartialEq,
{
    let mut cfg = cfg(max_ops);
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
    check_seam(case, script, &sink.calls, &run.stats);
    run.stats
}

/// Both entry points on `script`: a pairwise-disjoint script
/// (`commutes`) counts every batch as commuting, a paired one none.
fn check_route<T, Build>(
    name: &str,
    build: Build,
    script: &[(ProcessId, T::Op)],
    max_ops: usize,
    commutes: bool,
) where
    T: ConcurrentObject + 'static,
    T::Op: PartialEq,
    Build: Fn() -> T,
{
    let case = format!("{name} commutes={commutes}");
    let sync = run_sync(&format!("{case} sync"), &build(), script, &cfg(max_ops)).stats;
    let spawned = run_spawned(&format!("{case} spawned"), build(), script, max_ops);
    for stats in [sync, spawned] {
        let commuting = if commutes { stats.batches } else { 0 };
        assert_eq!(stats.bypassed_batches, commuting, "{case}: monitor");
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
    let token = ShardedErc20::from_state(state.clone());
    let run = run_sync(name, &token, script, &cfg(max_ops));
    let s = run.stats;

    // Monitor partition.
    assert_eq!(s.ops, script.len() as u64, "{name}: ops");
    assert_eq!(s.ops, s.parallel_ops + s.serial_ops, "{name}: partition");
    assert_eq!(
        s.batches,
        script.len().div_ceil(max_ops) as u64,
        "{name}: batches"
    );

    // A commuting batch is one wave of the parallel route.
    assert!(
        s.bypassed_ops <= s.parallel_ops,
        "{name}: commuting ⊆ parallel"
    );
    assert!(s.bypassed_batches <= s.batches, "{name}: commuting batches");
    assert_eq!(s.bypass_aborts, 0, "{name}: nothing speculates");

    // The committed (caller, op) sequence is the script…
    let committed: Vec<_> = run
        .log
        .entries()
        .iter()
        .map(|e| (e.caller, &e.op))
        .collect();
    let submitted: Vec<_> = script.iter().map(|(c, op)| (*c, op)).collect();
    assert_eq!(
        committed, submitted,
        "{name}: commit order is submission order"
    );
    // …and replays against the sequential oracle.
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
// script commutes pairwise and the monitor counts every batch of it as
// commuting. *Paired*: ops `2j` and `2j + 1` race one source, so the
// monitor lifts every odd op into a later wave and counts no batch —
// both still commit in submission order.

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

/// One random script through the synchronous engine: it commits in
/// submission order and replays to the sequential state, and the monitor
/// counts as commuting exactly the batches with no conflicting pair.
fn check_random<T, S>(name: &str, token: &T, spec: &S, script: &[(ProcessId, T::Op)], batch: usize)
where
    T: ConcurrentObject,
    T::Op: PartialEq,
    S: ObjectType<Op = T::Op, Resp = T::Resp, State = T::State>,
    T::State: PartialEq + std::fmt::Debug,
{
    let mut cfg = cfg(batch);
    cfg.schedule = ScheduleConfig {
        max_parallel_waves: 3,
    };
    let run = run_sync(name, token, script, &cfg);
    let replayed = run.log.replay(spec).expect("replays");
    let mut sequential = spec.initial_state();
    for (caller, op) in script {
        spec.apply(&mut sequential, *caller, op);
    }
    assert_eq!(replayed, sequential, "{name}: oracle");
    let s = run.stats;
    assert_eq!(s.ops, s.parallel_ops + s.serial_ops, "{name}: partition");
    let commuting = script
        .chunks(batch)
        .filter(|ops| {
            (0..ops.len()).all(|x| {
                (x + 1..ops.len())
                    .all(|y| !footprints_conflict((ops[x].0, &ops[x].1), (ops[y].0, &ops[y].1)))
            })
        })
        .count();
    assert_eq!(
        s.bypassed_batches, commuting as u64,
        "{name}: the monitor disagrees with the pairwise relation"
    );
}

fn arb_erc20() -> impl Strategy<Value = (ProcessId, Erc20Op)> {
    prop_oneof![
        (0..12usize, 0..12usize, 0u64..4).prop_map(|(c, to, v)| (
            p(c),
            Erc20Op::Transfer {
                to: a(to),
                value: v
            }
        )),
        (0..12usize, 0..12usize, 0..12usize, 0u64..4).prop_map(|(c, from, to, v)| (
            p(c),
            Erc20Op::TransferFrom {
                from: a(from),
                to: a(to),
                value: v,
            }
        )),
        (0..12usize, 0..12usize, 0u64..6).prop_map(|(c, sp, v)| (
            p(c),
            Erc20Op::Approve {
                spender: p(sp),
                value: v
            }
        )),
    ]
}

fn arb_erc721() -> impl Strategy<Value = (ProcessId, Erc721Op)> {
    prop_oneof![
        (0..8usize, 0..8usize, 0..8usize).prop_map(|(c, from, token)| (
            p(c),
            Erc721Op::TransferFrom {
                from: p(from),
                to: p((from + 1) % 8),
                token: TokenId::new(token),
            }
        )),
        (0..8usize, 0..8usize).prop_map(|(c, token)| (
            p(c),
            Erc721Op::Approve {
                approved: Some(p((c + 1) % 8)),
                token: TokenId::new(token),
            }
        )),
        (0..8usize, 0..8usize).prop_map(|(c, operator)| (
            p(c),
            Erc721Op::SetApprovalForAll {
                operator: p(operator),
                on: true,
            }
        )),
        (0..8usize, 0..8usize).prop_map(|(c, token)| (
            p(c),
            Erc721Op::OwnerOf {
                token: TokenId::new(token)
            }
        )),
    ]
}

fn arb_erc1155() -> impl Strategy<Value = (ProcessId, Erc1155Op)> {
    prop_oneof![
        (0..8usize, 0..8usize, vec(0..3usize, 1..4)).prop_map(|(c, to, types)| (
            p(c),
            Erc1155Op::BatchTransfer {
                from: a(c),
                to: a(to),
                entries: types.into_iter().map(|t| (TypeId::new(t), 1)).collect(),
            }
        )),
        (0..8usize, 0..8usize, 0..8usize, 0..3usize).prop_map(|(c, from, to, t)| (
            p(c),
            Erc1155Op::Transfer {
                from: a(from),
                to: a(to),
                type_id: TypeId::new(t),
                value: 1,
            }
        )),
        (0..8usize, 0..8usize).prop_map(|(c, operator)| (
            p(c),
            Erc1155Op::SetApprovalForAll {
                operator: p(operator),
                on: true,
            }
        )),
        (0..8usize, 0..8usize, 0..3usize).prop_map(|(c, account, t)| (
            p(c),
            Erc1155Op::BalanceOf {
                account: a(account),
                type_id: TypeId::new(t),
            }
        )),
    ]
}

proptest! {
    /// Random scripts of all three standards, random batch sizes:
    /// whatever the monitor reads inside a batch, the batch crosses the
    /// seam as one whole record in submission order, the committed log
    /// replays to the sequential state, and the monitor's commuting
    /// batches are exactly the batches with no conflicting pair.
    #[test]
    fn random_scripts_commit_one_record_per_batch(
        balances in vec(0u64..10, 12),
        erc20 in vec(arb_erc20(), 1..60),
        erc721 in vec(arb_erc721(), 1..60),
        erc1155 in vec(arb_erc1155(), 1..60),
        batch in 1usize..14,
    ) {
        let initial = Erc20State::from_balances(balances);
        let token = ShardedErc20::from_state(initial.clone());
        check_random("erc20", &token, &Erc20Spec::new(initial), &erc20, batch);

        let initial = Erc721State::minted_round_robin(8, 8, 8);
        let nft = ShardedErc721::from_state(initial.clone());
        check_random("erc721", &nft, &Erc721Spec::new(initial), &erc721, batch);

        let mut initial = Erc1155State::deploy(8, p(0), &[0, 0, 0]);
        for i in 0..8 {
            for t in 0..3 {
                initial.set_balance(a(i), TypeId::new(t), 2);
            }
        }
        let multi = ShardedErc1155::from_state(initial.clone());
        check_random("erc1155", &multi, &Erc1155Spec::new(initial), &erc1155, batch);
    }
}
