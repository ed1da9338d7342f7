//! The replication-facing store surface: the tailing [`WalCursor`]
//! (sequence-ordered reads across segment rolls, GC pinning), epoch
//! fencing writes, and byte-identical frame shipping via
//! `Wal::append_frames`.

mod common;

use std::io::Write;

use common::{temp_dir, wal_segments};
use tokensync_core::codec::StateCodec;
use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_pipeline::{run_script_with_sink, BatchConfig, CommittedOp, PipelineConfig};
use tokensync_spec::{AccountId, ProcessId};
use tokensync_store::wal::{Wal, FRAME_LEN};
use tokensync_store::{
    decode_commits, install_snapshot, recover, Store, StoreConfig, StoreError, WalRecord,
};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn transfers(n: usize, count: usize) -> Vec<(ProcessId, Erc20Op)> {
    (0..count)
        .map(|i| {
            (
                p(i % n),
                Erc20Op::Transfer {
                    to: AccountId::new((i + 1) % n),
                    value: 1,
                },
            )
        })
        .collect()
}

fn cfg(batch: usize) -> PipelineConfig {
    PipelineConfig {
        batch: BatchConfig {
            max_ops: batch,
            ..BatchConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Drains every currently-complete record from a cursor.
fn drain(cursor: &mut tokensync_store::WalCursor) -> Vec<WalRecord> {
    let mut out = Vec::new();
    while let Some(record) = cursor.next_record().expect("cursor read") {
        out.push(record);
    }
    out
}

#[test]
fn cursor_yields_the_whole_log_in_order_across_segment_rolls() {
    let dir = temp_dir("cursor-rolls");
    let genesis = Erc20State::from_balances(vec![100; 8]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(
        &dir,
        &genesis,
        StoreConfig {
            segment_max_bytes: 256, // force many segments
            ..StoreConfig::default()
        },
    )
    .unwrap();
    run_script_with_sink(&token, &transfers(8, 200), &cfg(16), &mut store);
    assert!(wal_segments(&dir).len() > 3, "rolling produced segments");

    let mut cursor = store.cursor(0).unwrap();
    let records = drain(&mut cursor);
    // Gap-free coverage of the whole history, in order.
    let mut expect = 0u64;
    let mut ops = Vec::new();
    for record in &records {
        assert_eq!(record.first_seq, expect);
        expect += u64::from(record.count);
        ops.extend(decode_commits::<Erc20Op, Erc20Resp>(&record.frame[FRAME_LEN..]).unwrap());
    }
    assert_eq!(expect, 200);
    assert_eq!(ops.len(), 200);
    assert_eq!(cursor.next_seq(), 200);
    // The very bytes on disk: concatenated frames equal the segment
    // bodies (headers stripped).
    let mut disk = Vec::new();
    for seg in wal_segments(&dir) {
        disk.extend_from_slice(&std::fs::read(seg).unwrap()[26..]);
    }
    let shipped: Vec<u8> = records.iter().flat_map(|r| r.frame.clone()).collect();
    assert_eq!(shipped, disk, "cursor frames are byte-identical to disk");
    store.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cursor_tails_a_live_log() {
    let dir = temp_dir("cursor-tail");
    let genesis = Erc20State::from_balances(vec![100; 4]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> =
        Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
    run_script_with_sink(&token, &transfers(4, 20), &cfg(8), &mut store);

    let mut cursor = store.cursor(0).unwrap();
    let first = drain(&mut cursor);
    assert_eq!(first.iter().map(|r| u64::from(r.count)).sum::<u64>(), 20);
    // At the live end: no record, not an error.
    assert!(cursor.next_record().unwrap().is_none());

    // The writer moves on; the same cursor sees the new records.
    run_script_with_sink(&token, &transfers(4, 12), &cfg(8), &mut store);
    let more = drain(&mut cursor);
    assert_eq!(more.iter().map(|r| u64::from(r.count)).sum::<u64>(), 12);
    assert_eq!(more[0].first_seq, 20);
    assert_eq!(cursor.next_seq(), 32);
    store.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pinned_segments_survive_gc_until_the_cursor_moves_on() {
    let dir = temp_dir("cursor-pin");
    let genesis = Erc20State::from_balances(vec![100; 8]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(
        &dir,
        &genesis,
        StoreConfig {
            segment_max_bytes: 256,
            snapshots_kept: 1,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    run_script_with_sink(&token, &transfers(8, 200), &cfg(16), &mut store);

    // A lagging reader pinned at the start of the log.
    let mut cursor = store.cursor(0).unwrap();
    let before = wal_segments(&dir);

    // Snapshot + GC would normally collect everything below the
    // watermark — but segment 0 is pinned, so it must survive.
    store.publish_snapshot(&token.snapshot()).unwrap();
    let after = wal_segments(&dir);
    assert!(
        after.contains(&before[0]),
        "GC deleted a segment a live cursor had pinned"
    );

    // The reader still gets the whole history, no torn reads.
    let records = drain(&mut cursor);
    assert_eq!(records.iter().map(|r| u64::from(r.count)).sum::<u64>(), 200);

    // Once the cursor is done (dropped), the next GC pass collects it.
    drop(cursor);
    run_script_with_sink(&token, &transfers(8, 8), &cfg(8), &mut store);
    store.publish_snapshot(&token.snapshot()).unwrap();
    let finally = wal_segments(&dir);
    assert!(
        !finally.contains(&before[0]),
        "unpinned old segment was never collected"
    );
    store.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cursor_below_retention_errors_instead_of_reading_garbage() {
    let dir = temp_dir("cursor-retention");
    let genesis = Erc20State::from_balances(vec![100; 8]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(
        &dir,
        &genesis,
        StoreConfig {
            segment_max_bytes: 256,
            snapshots_kept: 1,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    run_script_with_sink(&token, &transfers(8, 200), &cfg(16), &mut store);
    store.publish_snapshot(&token.snapshot()).unwrap();
    let oldest = store.oldest_retained_seq().unwrap();
    assert!(oldest > 0, "GC collected the early segments");
    assert!(matches!(
        store.cursor(0),
        Err(StoreError::OutOfRetention { requested: 0, available_from }) if available_from == oldest
    ));
    // Mid-record positions are refused too (records ship whole).
    assert!(matches!(
        store.cursor(oldest + 1),
        Err(StoreError::OutOfRetention { .. })
    ));
    store.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn set_epoch_is_durable_and_monotonic() {
    let dir = temp_dir("epoch");
    let genesis = Erc20State::from_balances(vec![50; 4]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> =
        Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
    assert_eq!(store.epoch(), 0);

    // Restamp of the empty tail segment: no extra segment appears.
    store.set_epoch(3).unwrap();
    assert_eq!(store.epoch(), 3);
    assert_eq!(wal_segments(&dir).len(), 1);

    // Fencing a non-empty tail rolls to a fresh segment.
    run_script_with_sink(&token, &transfers(4, 10), &cfg(8), &mut store);
    store.set_epoch(7).unwrap();
    assert_eq!(wal_segments(&dir).len(), 2);
    // Same epoch again is a no-op; lower epochs are forbidden (panic,
    // checked in the store's own unit scope — here just the no-op).
    store.set_epoch(7).unwrap();
    assert_eq!(wal_segments(&dir).len(), 2);
    run_script_with_sink(&token, &transfers(4, 5), &cfg(8), &mut store);
    store.close().unwrap();

    // The fence survives restart: recovery rediscovers epoch 7 and the
    // full history.
    let recovered = recover::<ShardedErc20>(&dir).unwrap();
    assert_eq!(recovered.epoch, 7);
    assert_eq!(recovered.next_seq, 15);
    assert_eq!(recovered.object.snapshot(), token.snapshot());
    let store: Store<ShardedErc20> = Store::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.epoch(), 7);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shipped_frames_replay_byte_identically_on_a_follower() {
    // The replication fast path end to end at the store layer: tail the
    // primary's log as raw frames, append them unchanged to a fresh
    // follower log, and recover the identical state.
    let primary = temp_dir("ship-primary");
    let follower = temp_dir("ship-follower");
    let genesis = Erc20State::from_balances(vec![100; 8]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(
        &primary,
        &genesis,
        StoreConfig {
            segment_max_bytes: 512,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    run_script_with_sink(&token, &transfers(8, 120), &cfg(16), &mut store);

    install_snapshot(&follower, 0, &genesis).unwrap();
    let mut wal = Wal::open(
        &follower,
        <Erc20State as StateCodec>::STANDARD,
        <Erc20State as StateCodec>::VERSION,
        64 << 20,
        0,
    )
    .unwrap();
    let mut cursor = store.cursor(0).unwrap();
    while let Some(record) = cursor.next_record().unwrap() {
        let end = wal.append_frames(&record.frame).unwrap();
        assert_eq!(end, record.first_seq + u64::from(record.count));
    }
    wal.sync().unwrap();
    assert_eq!(wal.next_seq(), 120);

    // Garbage is rejected whole: a frame that skips ahead…
    let mut cursor2 = store.cursor(0).unwrap();
    let early = cursor2.next_record().unwrap().unwrap();
    assert!(
        matches!(wal.append_frames(&early.frame), Err(StoreError::Codec(_))),
        "non-contiguous frames must be rejected"
    );
    // …and a corrupted frame.
    let mut bad = early.frame.clone();
    let at = bad.len() / 2;
    bad[at] ^= 0x40;
    assert!(matches!(wal.append_frames(&bad), Err(StoreError::Codec(_))));
    assert_eq!(wal.next_seq(), 120, "rejected appends wrote nothing");
    drop(wal);

    let replica = recover::<ShardedErc20>(&follower).unwrap();
    assert_eq!(replica.next_seq, 120);
    assert_eq!(replica.object.snapshot(), token.snapshot());
    store.close().unwrap();
    std::fs::remove_dir_all(&primary).unwrap();
    std::fs::remove_dir_all(&follower).unwrap();
}

/// A follower's store: shipped frames are appended and their fsync
/// posted, so the watermark reaches the appended position without a
/// flush; a run that is not a clean continuation is refused without
/// poisoning the store.
#[test]
fn store_append_frames_posts_the_sync() {
    let primary = temp_dir("store-ship-primary");
    let follower = temp_dir("store-ship-follower");
    let genesis = Erc20State::from_balances(vec![100; 8]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> =
        Store::create(&primary, &genesis, StoreConfig::default()).unwrap();
    run_script_with_sink(&token, &transfers(8, 48), &cfg(16), &mut store);
    let records = drain(&mut store.cursor(0).unwrap());
    assert_eq!(records.len(), 3);

    let mut replica: Store<ShardedErc20> =
        Store::create(&follower, &genesis, StoreConfig::default()).unwrap();
    assert_eq!(replica.append_frames(&records[0].frame).unwrap(), 16);
    assert!(matches!(
        replica.append_frames(&records[2].frame),
        Err(StoreError::Codec(_))
    ));
    for record in &records[1..] {
        replica.append_frames(&record.frame).unwrap();
    }
    assert_eq!(replica.next_seq(), 48);
    replica.wait_durable(48).unwrap();
    assert!(replica.error().is_none(), "a refused run poisons nothing");
    replica.close().unwrap();
    assert_eq!(
        recover::<ShardedErc20>(&follower)
            .unwrap()
            .object
            .snapshot(),
        token.snapshot()
    );
    store.close().unwrap();
    std::fs::remove_dir_all(&primary).unwrap();
    std::fs::remove_dir_all(&follower).unwrap();
}

/// One committed transfer at `seq`, in a batch of its own.
fn transfer_at(seq: u64) -> CommittedOp<Erc20Op, Erc20Resp> {
    CommittedOp {
        seq,
        batch: seq,
        caller: p(0),
        op: Erc20Op::Transfer {
            to: AccountId::new(1),
            value: 1,
        },
        resp: Erc20Resp::Bool(true),
    }
}

#[test]
fn a_frame_appended_in_two_writes_is_yielded_only_once_whole() {
    let (standard, version) = (Erc20State::STANDARD, Erc20State::VERSION);
    let open = |dir| Wal::open(dir, standard, version, u64::MAX, 0).unwrap();
    // The frames to append: records 4..8 of a log that holds them.
    let source = temp_dir("two-writes-source");
    let mut wal = open(&source);
    for seq in 0..8 {
        wal.append(0, &[transfer_at(seq)]).unwrap();
    }
    let frames = drain(&mut wal.cursor(4).unwrap());
    assert_eq!(frames.len(), 4);

    let dir = temp_dir("two-writes");
    let mut wal = open(&dir);
    for seq in 0..4 {
        wal.append(0, &[transfer_at(seq)]).unwrap();
    }
    let mut cursor = wal.cursor(4).unwrap();
    assert!(cursor.next_record().unwrap().is_none());
    let segment = wal_segments(&dir).pop().expect("a segment");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(segment)
        .unwrap();
    // Split inside the length prefix, at its end, at the end of the
    // frame prefix, and one byte short of the whole frame.
    for (record, split) in frames.iter().zip([1, 4, 8, usize::MAX]) {
        let split = split.min(record.frame.len() - 1);
        file.write_all(&record.frame[..split]).unwrap();
        assert!(cursor.next_record().unwrap().is_none(), "split at {split}");
        file.write_all(&record.frame[split..]).unwrap();
        assert_eq!(cursor.next_record().unwrap().as_ref(), Some(record));
    }
    assert!(cursor.next_record().unwrap().is_none());
    assert_eq!(cursor.next_seq(), 8);
    drop(cursor);
    std::fs::remove_dir_all(&source).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
