//! Deterministic behaviour of the store: lifecycle, segment rolling
//! and GC, snapshot fallback, corruption handling, and the spawned
//! (serving-shape) engine with a sink.

mod common;

use std::sync::Arc;

use common::{flip_byte, temp_dir, wal_segments};
use tokensync_core::erc20::{Erc20Op, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_pipeline::{run_script_with_sink, BatchConfig, Pipeline, PipelineConfig};
use tokensync_spec::{AccountId, ObjectType, ProcessId};
use tokensync_store::{recover, Store, StoreConfig, StoreError};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

fn transfers(n: usize, count: usize) -> Vec<(ProcessId, Erc20Op)> {
    (0..count)
        .map(|i| {
            (
                p(i % n),
                Erc20Op::Transfer {
                    to: a((i + 1) % n),
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

#[test]
fn create_then_recover_round_trips_every_standard_default_config() {
    let dir = temp_dir("roundtrip");
    let genesis = Erc20State::from_balances(vec![10; 8]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> =
        Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
    let script = transfers(8, 50);
    let run = run_script_with_sink(&token, &script, &cfg(16), &mut store);
    assert_eq!(run.log.len(), 50);
    assert_eq!(store.next_seq(), 50);
    store.close().unwrap();

    let recovered = recover::<ShardedErc20>(&dir).unwrap();
    assert_eq!(recovered.snapshot_watermark, 0); // only the genesis snapshot
    assert_eq!(recovered.replayed, 50);
    assert_eq!(recovered.next_seq, 50);
    assert!(recovered.log_stop.is_none());
    assert_eq!(recovered.object.snapshot(), token.snapshot());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn segments_roll_and_snapshots_garbage_collect_them() {
    let dir = temp_dir("gc");
    let genesis = Erc20State::from_balances(vec![100; 8]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(
        &dir,
        &genesis,
        StoreConfig {
            snapshot_every_ops: 64,
            segment_max_bytes: 256, // tiny: force many segments
            snapshots_kept: 2,
            compact_every: 1, // every publish a full `.snap`
        },
    )
    .unwrap();
    let script = transfers(8, 400);
    run_script_with_sink(&token, &script, &cfg(32), &mut store);
    assert!(store.snapshot_watermark() >= 64, "snapshots published");
    // The durability thread publishes GC floors behind the serving
    // thread, but never above the older of the two kept fulls — the
    // trigger before last — so the log above it is still on disk.
    assert!(
        wal_segments(&dir).len() > 1,
        "rolling produced several segments"
    );
    // An explicit publish waits for the thread and applies its floor.
    store.publish_snapshot(&token.snapshot()).unwrap();
    // GC must have deleted segments wholly below the oldest kept
    // snapshot: the earliest surviving segment is not the first ever.
    let segments = wal_segments(&dir);
    let first_name = segments[0]
        .file_name()
        .unwrap()
        .to_str()
        .unwrap()
        .to_owned();
    assert_ne!(
        first_name, "wal-00000000000000000000.seg",
        "old segments GC'd"
    );
    store.close().unwrap();

    let recovered = recover::<ShardedErc20>(&dir).unwrap();
    assert_eq!(recovered.next_seq, 400);
    assert_eq!(recovered.object.snapshot(), token.snapshot());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopen_continues_the_sequence_across_runs() {
    let dir = temp_dir("reopen");
    let genesis = Erc20State::from_balances(vec![50; 4]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> =
        Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
    run_script_with_sink(&token, &transfers(4, 30), &cfg(8), &mut store);
    store.close().unwrap();

    // "Restart": recover the live object, reopen the store, serve more.
    let recovered = recover::<ShardedErc20>(&dir).unwrap();
    let token2 = recovered.object;
    let mut store: Store<ShardedErc20> = Store::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.next_seq(), 30);
    run_script_with_sink(&token2, &transfers(4, 12), &cfg(8), &mut store);
    assert_eq!(store.next_seq(), 42);
    store.close().unwrap();

    let end = recover::<ShardedErc20>(&dir).unwrap();
    assert_eq!(end.next_seq, 42);
    assert_eq!(end.object.snapshot(), token2.snapshot());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A reopen over a log the chain does not cover (chain at 20, log at
/// 25): the serving token tracks changes from 25, so the first trigger
/// publishes a full and the deltas after it link to that full. Recovery
/// then starts at the newest link, not back at 20.
#[test]
fn reopen_publishes_a_reachable_chain() {
    let dir = temp_dir("reopen-chain");
    let genesis = Erc20State::from_balances(vec![50; 4]);
    let store_cfg = StoreConfig {
        snapshot_every_ops: 10,
        ..StoreConfig::default()
    };
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(&dir, &genesis, store_cfg).unwrap();
    run_script_with_sink(&token, &transfers(4, 25), &cfg(5), &mut store);
    assert_eq!(store.snapshot_watermark(), 20);
    store.close().unwrap();

    let token = recover::<ShardedErc20>(&dir).unwrap().object;
    let mut store: Store<ShardedErc20> = Store::open(&dir, store_cfg).unwrap();
    run_script_with_sink(&token, &transfers(4, 27), &cfg(5), &mut store);
    assert_eq!(store.snapshot_watermark(), 50);
    store.close().unwrap();

    let end = recover::<ShardedErc20>(&dir).unwrap();
    assert_eq!(
        end.snapshot_watermark, 50,
        "the chain reaches the last publish"
    );
    assert_eq!(
        end.delta_links, 2,
        "deltas at 40 and 50 over the full at 30"
    );
    assert_eq!((end.replayed, end.next_seq), (2, 52));
    assert_eq!(end.object.snapshot(), token.snapshot());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn create_refuses_an_initialized_directory() {
    let dir = temp_dir("twice");
    let genesis = Erc20State::from_balances(vec![1; 2]);
    let _store: Store<ShardedErc20> =
        Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
    assert!(matches!(
        Store::<ShardedErc20>::create(&dir, &genesis, StoreConfig::default()),
        Err(StoreError::AlreadyInitialized)
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Delta links left in a directory without their full snapshot must
/// not be folded onto a fresh genesis: `create` starts a chain at mark 0
/// with no links, which only holds if no link exists.
#[test]
fn create_refuses_a_directory_with_stale_deltas() {
    let src = temp_dir("stale-src");
    let genesis = Erc20State::from_balances(vec![10; 4]);
    let store_cfg = StoreConfig {
        snapshot_every_ops: 2,
        ..StoreConfig::default()
    };
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(&src, &genesis, store_cfg).unwrap();
    let script: Vec<_> = (0..4)
        .map(|_| (p(0), Erc20Op::Transfer { to: a(1), value: 1 }))
        .collect();
    run_script_with_sink(&token, &script, &cfg(2), &mut store);
    store.close().unwrap();
    let links = common::delta_links(&src);
    assert_eq!(links.len(), 2);

    let dir = temp_dir("stale-deltas");
    for link in &links {
        std::fs::copy(link, dir.join(link.file_name().unwrap())).unwrap();
    }
    assert!(matches!(
        Store::<ShardedErc20>::create(&dir, &genesis, StoreConfig::default()),
        Err(StoreError::AlreadyInitialized)
    ));
    std::fs::remove_dir_all(&src).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_refuses_an_uninitialized_directory() {
    let dir = temp_dir("empty-open");
    assert!(matches!(
        Store::<ShardedErc20>::open(&dir, StoreConfig::default()),
        Err(StoreError::NoSnapshot)
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_refuses_a_foreign_standard() {
    use tokensync_core::standards::erc721::ShardedErc721;
    let dir = temp_dir("foreign");
    let genesis = Erc20State::from_balances(vec![5; 4]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> =
        Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
    run_script_with_sink(&token, &transfers(4, 8), &cfg(4), &mut store);
    store.close().unwrap();
    // An ERC20 directory opened as ERC721 must fail loudly, not decode
    // garbage.
    assert!(matches!(
        recover::<ShardedErc721>(&dir),
        Err(StoreError::WrongStandard { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_record_stops_replay_at_last_valid_record() {
    let dir = temp_dir("flip");
    let genesis = Erc20State::from_balances(vec![20; 6]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(
        &dir,
        &genesis,
        StoreConfig {
            snapshot_every_ops: 0, // keep the whole history in the WAL
            ..StoreConfig::default()
        },
    )
    .unwrap();
    let script = transfers(6, 60);
    let run = run_script_with_sink(&token, &script, &cfg(10), &mut store);
    store.close().unwrap();

    // Flip one byte in the middle of the single segment's record area.
    let segments = wal_segments(&dir);
    assert_eq!(segments.len(), 1);
    let len = std::fs::metadata(&segments[0]).unwrap().len();
    flip_byte(&segments[0], len / 2);

    let recovered = recover::<ShardedErc20>(&dir).expect("recovery must not panic or fail");
    assert!(
        recovered.log_stop.is_some(),
        "scan reports where it stopped"
    );
    let prefix = recovered.next_seq as usize;
    assert!(prefix < 60, "the flipped byte must cost some suffix");
    // Still exactly a prefix: replay the paper trail up to next_seq.
    let spec = tokensync_core::erc20::Erc20Spec::new(genesis.clone());
    let mut state = genesis;
    for entry in &run.log.entries()[..prefix] {
        assert_eq!(spec.apply(&mut state, entry.caller, &entry.op), entry.resp);
    }
    assert_eq!(recovered.state, state);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_latest_snapshot_falls_back_to_the_previous_one() {
    let dir = temp_dir("snapfall");
    let genesis = Erc20State::from_balances(vec![100; 8]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(
        &dir,
        &genesis,
        StoreConfig {
            snapshot_every_ops: 40,
            snapshots_kept: 2,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    run_script_with_sink(&token, &transfers(8, 200), &cfg(20), &mut store);
    store.close().unwrap();

    // Corrupt the newest snapshot file; recovery must fall back to the
    // previous one and replay its (still present) log suffix to the
    // exact same final state.
    let mut snaps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".snap"))
        })
        .collect();
    snaps.sort();
    assert!(snaps.len() >= 2, "two snapshots kept");
    flip_byte(snaps.last().unwrap(), 40);

    let recovered = recover::<ShardedErc20>(&dir).unwrap();
    assert_eq!(recovered.next_seq, 200);
    assert_eq!(recovered.object.snapshot(), token.snapshot());
    assert!(recovered.replayed > 0, "fell back and replayed the suffix");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_engine_runs_on_one_handle_continue_the_sequence() {
    // Engine runs number commits from 0; the store must rebase a fresh
    // run on the same open handle instead of panicking on the WAL's
    // contiguity assert.
    let dir = temp_dir("two-runs");
    let genesis = Erc20State::from_balances(vec![30; 4]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> =
        Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
    run_script_with_sink(&token, &transfers(4, 25), &cfg(8), &mut store);
    run_script_with_sink(&token, &transfers(4, 17), &cfg(8), &mut store);
    assert_eq!(store.next_seq(), 42);
    store.close().unwrap();

    let recovered = recover::<ShardedErc20>(&dir).unwrap();
    assert_eq!(recovered.next_seq, 42);
    assert_eq!(recovered.replayed, 42);
    assert_eq!(recovered.object.snapshot(), token.snapshot());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unreadable_segment_header_reopens_at_the_snapshot_floor() {
    // A crash can tear the very first bytes of a segment header. Open
    // must repair (not error), and must never restart the global
    // numbering below what a published snapshot already covers.
    let dir = temp_dir("torn-header");
    let genesis = Erc20State::from_balances(vec![100; 8]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(
        &dir,
        &genesis,
        StoreConfig {
            snapshot_every_ops: 64,
            segment_max_bytes: 512,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    run_script_with_sink(&token, &transfers(8, 300), &cfg(32), &mut store);
    let watermark = store.snapshot_watermark();
    assert!(watermark >= 64);
    store.close().unwrap();

    // Corrupt the *header* of the earliest surviving segment (post-GC
    // its first_seq is > 0): scanning finds nothing usable.
    let segments = wal_segments(&dir);
    flip_byte(&segments[0], 2); // inside the magic

    let store: Store<ShardedErc20> = Store::open(&dir, StoreConfig::default()).unwrap();
    assert!(
        store.next_seq() >= watermark,
        "numbering restarted below the snapshot watermark"
    );
    drop(store);

    // Recovery still yields a valid prefix (at least the snapshot).
    let recovered = recover::<ShardedErc20>(&dir).unwrap();
    assert!(recovered.next_seq >= watermark);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn floor_repair_preserves_the_valid_prefix_for_snapshot_fallback() {
    // The double-failure scenario: the log is torn back below the
    // newest snapshot's watermark AND that snapshot is corrupt. Opening
    // the store must not delete the still-valid log prefix — the older
    // snapshot's fallback replay needs it.
    let dir = temp_dir("floor-prefix");
    let genesis = Erc20State::from_balances(vec![100; 8]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(
        &dir,
        &genesis,
        StoreConfig {
            // Explicit publishes only, so which fulls exist and where
            // the GC floor sits does not depend on thread timing (the
            // delta chain's corrupt-link fallback is pinned by
            // `erc20_recovery_survives_a_corrupt_delta_link`).
            snapshot_every_ops: 0,
            segment_max_bytes: 512, // many segments
            snapshots_kept: 2,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    // Fulls at 96 and 192 (the genesis one is pruned, the GC floor
    // moves to 96), then a log tail past the newest.
    let script = transfers(8, 300);
    let mut log = Vec::new();
    for (phase, publish) in [
        (&script[..96], true),
        (&script[96..192], true),
        (&script[192..], false),
    ] {
        let run = run_script_with_sink(&token, phase, &cfg(32), &mut store);
        log.extend(run.log.entries().iter().cloned());
        if publish {
            store.publish_snapshot(&token.snapshot()).unwrap();
        }
    }
    let newest_watermark = store.snapshot_watermark();
    assert_eq!(newest_watermark, 192);
    store.close().unwrap();

    // Corrupt the header of a mid-chain segment *below* the newest
    // watermark: the scan now ends under published coverage.
    let segments = wal_segments(&dir);
    assert!(segments.len() >= 3);
    flip_byte(&segments[1], 3); // second surviving segment's magic

    // Open repairs at the floor (the validated newest snapshot)…
    let store: Store<ShardedErc20> = Store::open(&dir, StoreConfig::default()).unwrap();
    assert!(store.next_seq() >= newest_watermark);
    drop(store);
    // …while the valid prefix segment survives on disk.
    let surviving = wal_segments(&dir);
    assert!(
        surviving.contains(&segments[0]),
        "floor repair deleted the valid prefix segment"
    );

    // Now the newest snapshot rots too: recovery falls back to the
    // older snapshot and replays the preserved prefix — landing at the
    // corruption point, not at genesis.
    let mut snaps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".snap"))
        })
        .collect();
    snaps.sort();
    flip_byte(snaps.last().unwrap(), 40);

    let recovered = recover::<ShardedErc20>(&dir).unwrap();
    assert!(
        recovered.replayed > 0,
        "fallback replayed nothing from the preserved prefix"
    );
    // Whatever prefix was recovered, it must match the paper trail.
    let spec = tokensync_core::erc20::Erc20Spec::new(genesis.clone());
    let mut state = genesis;
    for entry in &log[..recovered.next_seq as usize] {
        assert_eq!(spec.apply(&mut state, entry.caller, &entry.op), entry.resp);
    }
    assert_eq!(recovered.state, state);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn spawned_engine_with_store_sink_is_durable() {
    let dir = temp_dir("spawned");
    let genesis = Erc20State::from_balances(vec![100; 4]);
    let token = Arc::new(ShardedErc20::from_state(genesis.clone()));
    let store: Store<ShardedErc20> = Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
    let (client, handle) = Pipeline::spawn_with_sink(Arc::clone(&token), cfg(8), store);
    crossbeam::scope(|s| {
        for t in 0..3usize {
            let client = client.clone();
            s.spawn(move |_| {
                for i in 0..20 {
                    client
                        .submit(
                            p(t),
                            Erc20Op::Transfer {
                                to: a((t + i) % 4),
                                value: 1,
                            },
                        )
                        .expect("engine alive");
                }
            });
        }
    })
    .expect("producers");
    drop(client);
    let (run, store) = handle.finish();
    assert_eq!(run.stats.ops, 60);
    assert_eq!(store.next_seq(), 60);
    store.close().unwrap();

    let recovered = recover::<ShardedErc20>(&dir).unwrap();
    assert_eq!(recovered.next_seq, 60);
    assert_eq!(recovered.object.snapshot(), token.snapshot());
    std::fs::remove_dir_all(&dir).unwrap();
}
