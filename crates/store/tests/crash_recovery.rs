//! Crash-point property tests — the store's acceptance criterion.
//!
//! For every standard: run a random script through the durable
//! pipeline, kill the WAL at a random byte offset (keeping published
//! snapshots — they were fsynced and atomically renamed before later
//! writes), recover, and assert the recovered state is **identical to
//! the sequential prefix-replay oracle**: the state obtained by
//! replaying exactly the first `next_seq` operations of the pre-crash
//! commit log from genesis. Additional invariants:
//!
//! * recovery never loses a published snapshot's coverage
//!   (`next_seq >= snapshot_watermark`);
//! * a "crash" at the very end of the stream loses nothing;
//! * replayed responses must verify — the oracle check inside recovery
//!   ran on every replayed record.

mod common;

use common::{crash_wal_at, delta_links, flip_byte, offset_of_seq, temp_dir, wal_total_bytes};
use proptest::collection::vec;
use proptest::prelude::*;
use tokensync_core::codec::{Codec, StateCodec};
use tokensync_core::erc20::{Erc20Op, Erc20State};
use tokensync_core::shared::ShardedErc20;
use tokensync_core::standards::erc1155::{Erc1155Op, Erc1155State, ShardedErc1155, TypeId};
use tokensync_core::standards::erc721::{Erc721Op, Erc721State, ShardedErc721, TokenId};
use tokensync_pipeline::{
    run_script_with_sink, BatchConfig, CommittedOp, PipelineConfig, ScheduleConfig,
};
use tokensync_spec::{AccountId, ObjectType, ProcessId};
use tokensync_store::wal::Wal;
use tokensync_store::{recover, Restorable, Store, StoreConfig};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

/// The engine hands each batch to the store as one WAL record, so every
/// proptest below that kills the WAL at an arbitrary offset also kills
/// it *inside* records.
fn pipeline_cfg(batch: usize) -> PipelineConfig {
    PipelineConfig {
        batch: BatchConfig {
            max_ops: batch,
            ..BatchConfig::default()
        },
        schedule: ScheduleConfig {
            max_parallel_waves: 3,
        },
        ..PipelineConfig::default()
    }
}

/// Runs `script` through the durable pipeline and returns the full
/// pre-crash commit log (the paper trail the prefix oracle replays).
fn durable_run<T>(
    dir: &std::path::Path,
    genesis: &T::State,
    script: &[(ProcessId, T::Op)],
    batch: usize,
    snapshot_every_ops: u64,
    segment_max_bytes: u64,
) -> Vec<CommittedOp<T::Op, T::Resp>>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    let token = T::restore(genesis.clone());
    let mut store: Store<T> = Store::create(
        dir,
        genesis,
        StoreConfig {
            snapshot_every_ops,
            segment_max_bytes,
            snapshots_kept: 2,
            ..StoreConfig::default()
        },
    )
    .expect("create store");
    let run = run_script_with_sink(&token, script, &pipeline_cfg(batch), &mut store);
    assert_eq!(run.stats.ops as usize, script.len());
    store.close().expect("no parked write errors");
    run.log.entries().to_vec()
}

/// Recovers `dir` and checks the prefix-replay oracle against the
/// pre-crash log. Returns the number of operations recovered.
fn assert_prefix_recovery<T>(
    dir: &std::path::Path,
    genesis: &T::State,
    full_log: &[CommittedOp<T::Op, T::Resp>],
) -> u64
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    let recovered = recover::<T>(dir).expect("recovery succeeds");
    let prefix = usize::try_from(recovered.next_seq).expect("prefix fits");
    assert!(
        prefix <= full_log.len(),
        "recovered more ops than were committed"
    );
    assert!(
        recovered.next_seq >= recovered.snapshot_watermark,
        "recovery went backwards past its own snapshot"
    );
    // The sequential prefix-replay oracle: exactly the first `prefix`
    // committed operations, applied from genesis.
    let spec = T::spec(genesis.clone());
    let mut state = genesis.clone();
    for entry in &full_log[..prefix] {
        let resp = spec.apply(&mut state, entry.caller, &entry.op);
        assert_eq!(resp, entry.resp, "oracle disagrees with the commit log");
    }
    assert_eq!(
        recovered.state, state,
        "recovered state is not the prefix state"
    );
    assert_eq!(
        recovered.object.snapshot(),
        state,
        "rebuilt live object does not hold the recovered state"
    );
    recovered.next_seq
}

// ── ERC20 ──────────────────────────────────────────────────────────────

const N20: usize = 6;

fn arb_erc20_op() -> impl Strategy<Value = Erc20Op> {
    prop_oneof![
        (0..N20, 0u64..5).prop_map(|(to, value)| Erc20Op::Transfer { to: a(to), value }),
        (0..N20, 0..N20, 0u64..5).prop_map(|(from, to, value)| Erc20Op::TransferFrom {
            from: a(from),
            to: a(to),
            value,
        }),
        (0..N20, 0u64..6).prop_map(|(spender, value)| Erc20Op::Approve {
            spender: p(spender),
            value,
        }),
        (0..N20).prop_map(|account| Erc20Op::BalanceOf {
            account: a(account)
        }),
        (0..N20, 0..N20).prop_map(|(account, spender)| Erc20Op::Allowance {
            account: a(account),
            spender: p(spender),
        }),
    ]
}

proptest! {
    #[test]
    fn erc20_recovery_matches_prefix_replay_at_any_kill_offset(
        callers in vec(0..N20, 1..48),
        ops in vec(arb_erc20_op(), 1..48),
        batch in 1usize..12,
        snapshot_every in 0u64..3,
        kill in 0u64..1_000_000,
    ) {
        let dir = temp_dir("erc20-crash");
        let genesis = Erc20State::from_balances(vec![6; N20]);
        let script: Vec<(ProcessId, Erc20Op)> = callers
            .iter()
            .zip(&ops)
            .map(|(&c, op)| (p(c), op.clone()))
            .collect();
        // Tiny segments force rolling; snapshot_every 0 disables
        // mid-run snapshots, 8/16 exercise them plus segment GC.
        let full_log = durable_run::<ShardedErc20>(
            &dir, &genesis, &script, batch, snapshot_every * 8, 512,
        );
        let total = wal_total_bytes(&dir);
        let offset = kill % (total + 1);
        crash_wal_at(&dir, offset);
        let next_seq = assert_prefix_recovery::<ShardedErc20>(&dir, &genesis, &full_log);
        if offset == total {
            prop_assert_eq!(next_seq as usize, full_log.len(),
                "a crash after the last byte must lose nothing");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Killing the WAL *mid record* must drop the whole batch the
    /// record carried — recovery can only land on a batch boundary (or
    /// the end of the stream), never inside one: a batch's record is
    /// atomic in the log.
    #[test]
    fn erc20_crash_mid_fused_record_lands_on_batch_boundaries(
        callers in vec(0..N20, 1..48),
        ops in vec(arb_erc20_op(), 1..48),
        batch in 1usize..12,
        kill in 0u64..1_000_000,
    ) {
        let dir = temp_dir("erc20-midrecord");
        let genesis = Erc20State::from_balances(vec![6; N20]);
        let script: Vec<(ProcessId, Erc20Op)> = callers
            .iter()
            .zip(&ops)
            .map(|(&c, op)| (p(c), op.clone()))
            .collect();
        // Snapshots off: the watermark stays 0, so next_seq comes from
        // replayed WAL records alone and the boundary claim is pure.
        let full_log = durable_run::<ShardedErc20>(
            &dir, &genesis, &script, batch, 0, 4096,
        );
        crash_wal_at(&dir, kill % (wal_total_bytes(&dir) + 1));
        let next_seq = assert_prefix_recovery::<ShardedErc20>(&dir, &genesis, &full_log)
            as usize;
        prop_assert!(
            next_seq % batch == 0 || next_seq == full_log.len(),
            "recovery landed inside a batch: next_seq={} batch={} len={}",
            next_seq, batch, full_log.len(),
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

proptest! {
    /// The pipelined group-commit window — acknowledge at commit,
    /// durable at fsync — makes `durable_seq()` a *promise*: killing
    /// the process at any byte offset at or past the record covering
    /// the observed watermark must recover at least that many
    /// operations. The window above the watermark may be lost; the
    /// watermark itself never is.
    #[test]
    fn erc20_crash_inside_ack_window_never_loses_durable_data(
        callers in vec(0..N20, 1..48),
        ops in vec(arb_erc20_op(), 1..48),
        batch in 1usize..12,
        snapshot_every in 0u64..3,
        kill in 0u64..1_000_000,
        flush_sel in 0u8..2,
    ) {
        let dir = temp_dir("erc20-ackwin");
        let genesis = Erc20State::from_balances(vec![6; N20]);
        let script: Vec<(ProcessId, Erc20Op)> = callers
            .iter()
            .zip(&ops)
            .map(|(&c, op)| (p(c), op.clone()))
            .collect();
        let token = ShardedErc20::restore(genesis.clone());
        let mut store: Store<ShardedErc20> = Store::create(
            &dir,
            &genesis,
            StoreConfig {
                snapshot_every_ops: snapshot_every * 8,
                segment_max_bytes: 512,
                snapshots_kept: 2,
                ..StoreConfig::default()
            },
        )
        .expect("create store");
        let run = run_script_with_sink(&token, &script, &pipeline_cfg(batch), &mut store);
        prop_assert_eq!(run.stats.ops as usize, script.len());
        let flush_first = flush_sel == 1;
        if flush_first {
            store.flush().expect("flush");
        }
        let durable = store.durable_seq();
        store.abandon(); // kill the durability thread: no final sync
        drop(store);
        let full_log = run.log.entries().to_vec();
        if flush_first {
            // flush() waited for the whole log to become durable.
            prop_assert_eq!(durable as usize, full_log.len());
        }
        let total = wal_total_bytes(&dir);
        let floor = offset_of_seq(&dir, durable);
        prop_assert!(floor <= total, "watermark covers bytes the log does not have");
        let offset = floor + kill % (total - floor + 1);
        crash_wal_at(&dir, offset);
        let next_seq = assert_prefix_recovery::<ShardedErc20>(&dir, &genesis, &full_log);
        prop_assert!(
            next_seq >= durable,
            "recovery lost durable data: durable_seq promised {}, recovered {}",
            durable, next_seq,
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A corrupt link mid delta-chain must degrade, never fail:
    /// resolution falls back to the longest intact prefix of the chain
    /// (at worst the base full snapshot) and replays a longer WAL
    /// suffix instead. With an intact log the recovered state is still
    /// exactly the full oracle replay.
    #[test]
    fn erc20_recovery_survives_a_corrupt_delta_link(
        callers in vec(0..N20, 16..64),
        ops in vec(arb_erc20_op(), 16..64),
        batch in 1usize..10,
        which in 0usize..64,
        at in 0u64..4096,
    ) {
        let dir = temp_dir("erc20-badlink");
        let genesis = Erc20State::from_balances(vec![6; N20]);
        let script: Vec<(ProcessId, Erc20Op)> = callers
            .iter()
            .zip(&ops)
            .map(|(&c, op)| (p(c), op.clone()))
            .collect();
        let token = ShardedErc20::restore(genesis.clone());
        let mut store: Store<ShardedErc20> = Store::create(
            &dir,
            &genesis,
            StoreConfig {
                snapshot_every_ops: 8, // dense chain
                segment_max_bytes: 512,
                snapshots_kept: 2,
                compact_every: 1_000_000, // never compact: pure chain
            },
        )
        .expect("create store");
        let run = run_script_with_sink(&token, &script, &pipeline_cfg(batch), &mut store);
        let full_log = run.log.entries().to_vec();
        store.close().expect("clean close");

        let links = delta_links(&dir);
        prop_assume!(!links.is_empty()); // all-read scripts publish none
        flip_byte(&links[which % links.len()], at);

        // The log is intact, so a clean recovery reaches the end of it
        // regardless of how deep the chain break was.
        let next_seq = assert_prefix_recovery::<ShardedErc20>(&dir, &genesis, &full_log);
        prop_assert_eq!(next_seq as usize, full_log.len(),
            "an intact WAL must cover whatever the broken chain cannot");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// A log of about 1.1 MB, four times the scan's 256 KiB read, in
/// records of 1 to 20 000 entries (the largest ≈ 380 KB, longer than
/// one read), crashed at offsets that fall on and around read
/// boundaries, inside the longest record and at the very end: each
/// recovery is the prefix of whole records before the crash, and
/// reopening the log resumes exactly there.
#[test]
fn a_log_longer_than_one_read_recovers_at_every_crash_point() {
    const RECORDS: [usize; 9] = [1, 7, 500, 3_000, 20_000, 2, 9_000, 13_000, 11_000];
    let genesis = Erc20State::from_balances(vec![1_000_000; 64]);
    let spec = ShardedErc20::spec(genesis.clone());
    let mut state = genesis.clone();
    let mut log = Vec::new();
    for seq in 0..RECORDS.iter().sum::<usize>() as u64 {
        let caller = p(seq as usize % 64);
        let op = Erc20Op::Transfer {
            to: a((seq as usize * 7 + 1) % 64),
            value: seq % 3,
        };
        let resp = spec.apply(&mut state, caller, &op);
        log.push(CommittedOp {
            seq,
            batch: seq,
            caller,
            op,
            resp,
        });
    }
    // Writes the log, one record per `RECORDS` entry, and returns the
    // stream offset at which each record ends.
    let write = |dir: &std::path::Path| -> Vec<u64> {
        Store::<ShardedErc20>::create(dir, &genesis, StoreConfig::default())
            .expect("create store")
            .close()
            .expect("close store");
        let (standard, version) = (Erc20State::STANDARD, Erc20State::VERSION);
        let mut wal = Wal::open(dir, standard, version, u64::MAX, 0).expect("open the log");
        let mut rest = &log[..];
        let ends = RECORDS
            .iter()
            .map(|&count| {
                let (record, tail) = rest.split_at(count);
                wal.append(0, record).expect("append");
                rest = tail;
                wal.disk_bytes().expect("log size")
            })
            .collect();
        wal.sync().expect("sync");
        ends
    };
    let probe = temp_dir("erc20-long-log");
    let ends = write(&probe);
    std::fs::remove_dir_all(&probe).expect("cleanup");
    let total = *ends.last().expect("records");
    assert!(total > 4 * 256 * 1024, "the log spans several reads");

    let mut crashes = vec![total, total - 1, ends[3] + 1, ends[4] - 1, ends[4]];
    for k in 1..=4u64 {
        crashes.extend([k * 256 * 1024 - 1, k * 256 * 1024, k * 256 * 1024 + 1]);
    }
    for crash in crashes {
        let dir = temp_dir("erc20-long-log");
        write(&dir);
        crash_wal_at(&dir, crash);
        let whole = ends.iter().take_while(|&&end| end <= crash).count();
        let expected: usize = RECORDS[..whole].iter().sum();
        let recovered = assert_prefix_recovery::<ShardedErc20>(&dir, &genesis, &log);
        assert_eq!(recovered, expected as u64, "crash at {crash}");
        let (standard, version) = (Erc20State::STANDARD, Erc20State::VERSION);
        let wal = Wal::open(&dir, standard, version, u64::MAX, 0).expect("reopen the log");
        assert_eq!(wal.next_seq(), expected as u64, "crash at {crash}");
        let resume = if whole == 0 {
            tokensync_store::wal::SEG_HEADER_LEN
        } else {
            ends[whole - 1]
        };
        assert_eq!(wal.disk_bytes().unwrap(), resume, "crash at {crash}");
        drop(wal);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Snapshots publish while serving continues: three consecutive runs
/// against one store keep committing while the durability thread chains
/// delta links behind them. The serving loop never waits for a
/// snapshot (the snapshot path has no quiescence point), the
/// chain exists on disk, and final recovery still passes the oracle.
#[test]
fn serve_during_snapshot_requires_no_quiescence() {
    let dir = temp_dir("erc20-noquiesce");
    let genesis = Erc20State::from_balances(vec![50; N20]);
    let token = ShardedErc20::restore(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(
        &dir,
        &genesis,
        StoreConfig {
            snapshot_every_ops: 24,
            segment_max_bytes: 1024,
            snapshots_kept: 2,
            compact_every: 1_000_000, // chain of deltas over the genesis full
        },
    )
    .expect("create store");
    let mut full_log = Vec::new();
    for phase in 0..3usize {
        let script: Vec<(ProcessId, Erc20Op)> = (0..60)
            .map(|i| {
                (
                    p((i + phase) % N20),
                    Erc20Op::Transfer {
                        to: a((i + 2) % N20),
                        value: 1,
                    },
                )
            })
            .collect();
        let run = run_script_with_sink(&token, &script, &pipeline_cfg(5), &mut store);
        assert_eq!(
            run.stats.ops as usize,
            script.len(),
            "serving never stalled"
        );
        full_log.extend(run.log.entries().iter().cloned());
    }
    store.flush().expect("flush");
    assert!(
        !delta_links(&dir).is_empty(),
        "the durability thread chained incremental snapshots behind serving"
    );
    store.close().expect("clean close");
    let next_seq = assert_prefix_recovery::<ShardedErc20>(&dir, &genesis, &full_log);
    assert_eq!(next_seq as usize, full_log.len());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

// ── ERC721 ─────────────────────────────────────────────────────────────

const N721: usize = 5;
const SPAN: usize = 8;

fn arb_721_op() -> impl Strategy<Value = Erc721Op> {
    prop_oneof![
        (0..N721, 0..SPAN).prop_map(|(to, token)| Erc721Op::Mint {
            to: p(to),
            token: TokenId::new(token),
        }),
        (0..N721, 0..N721, 0..SPAN).prop_map(|(from, to, token)| Erc721Op::TransferFrom {
            from: p(from),
            to: p(to),
            token: TokenId::new(token),
        }),
        (0..=N721, 0..SPAN).prop_map(|(ap, token)| Erc721Op::Approve {
            approved: (ap < N721).then(|| p(ap)),
            token: TokenId::new(token),
        }),
        (0..N721, 0..2usize).prop_map(|(op, on)| Erc721Op::SetApprovalForAll {
            operator: p(op),
            on: on == 1,
        }),
        (0..SPAN).prop_map(|token| Erc721Op::OwnerOf {
            token: TokenId::new(token)
        }),
    ]
}

proptest! {
    #[test]
    fn erc721_recovery_matches_prefix_replay_at_any_kill_offset(
        premint in 0..SPAN,
        callers in vec(0..N721, 1..40),
        ops in vec(arb_721_op(), 1..40),
        batch in 1usize..10,
        snapshot_every in 0u64..3,
        kill in 0u64..1_000_000,
    ) {
        let dir = temp_dir("erc721-crash");
        let genesis = Erc721State::minted_round_robin(N721, SPAN, premint);
        let script: Vec<(ProcessId, Erc721Op)> = callers
            .iter()
            .zip(&ops)
            .map(|(&c, op)| (p(c), op.clone()))
            .collect();
        let full_log = durable_run::<ShardedErc721>(
            &dir, &genesis, &script, batch, snapshot_every * 8, 512,
        );
        crash_wal_at(&dir, kill % (wal_total_bytes(&dir) + 1));
        assert_prefix_recovery::<ShardedErc721>(&dir, &genesis, &full_log);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

// ── ERC1155 ────────────────────────────────────────────────────────────

const N1155: usize = 5;
const TYPES: usize = 3;

fn arb_1155_op() -> impl Strategy<Value = Erc1155Op> {
    prop_oneof![
        (0..N1155, 0..N1155, 0..TYPES, 0u64..4).prop_map(|(from, to, ty, value)| {
            Erc1155Op::Transfer {
                from: a(from),
                to: a(to),
                type_id: TypeId::new(ty),
                value,
            }
        }),
        (0..N1155, 0..N1155, vec((0..TYPES, 0u64..4), 0..3)).prop_map(|(from, to, rows)| {
            Erc1155Op::BatchTransfer {
                from: a(from),
                to: a(to),
                entries: rows
                    .into_iter()
                    .map(|(ty, v)| (TypeId::new(ty), v))
                    .collect(),
            }
        }),
        (0..N1155, 0..2usize).prop_map(|(op, on)| Erc1155Op::SetApprovalForAll {
            operator: p(op),
            on: on == 1,
        }),
        (0..N1155, 0..TYPES).prop_map(|(account, ty)| Erc1155Op::BalanceOf {
            account: a(account),
            type_id: TypeId::new(ty),
        }),
    ]
}

proptest! {
    #[test]
    fn erc1155_recovery_matches_prefix_replay_at_any_kill_offset(
        balances in vec((0..TYPES, 0..N1155, 1u64..6), 0..8),
        callers in vec(0..N1155, 1..40),
        ops in vec(arb_1155_op(), 1..40),
        batch in 1usize..10,
        snapshot_every in 0u64..3,
        kill in 0u64..1_000_000,
    ) {
        let dir = temp_dir("erc1155-crash");
        let mut genesis = Erc1155State::deploy(N1155, p(0), &[0; TYPES]);
        for &(ty, acct, v) in &balances {
            let old = genesis.balance_of(a(acct), TypeId::new(ty));
            genesis.set_balance(a(acct), TypeId::new(ty), old.max(v));
        }
        let script: Vec<(ProcessId, Erc1155Op)> = callers
            .iter()
            .zip(&ops)
            .map(|(&c, op)| (p(c), op.clone()))
            .collect();
        let full_log = durable_run::<ShardedErc1155>(
            &dir, &genesis, &script, batch, snapshot_every * 8, 512,
        );
        crash_wal_at(&dir, kill % (wal_total_bytes(&dir) + 1));
        assert_prefix_recovery::<ShardedErc1155>(&dir, &genesis, &full_log);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
