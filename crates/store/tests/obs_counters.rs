//! The store's recorder: WAL/snapshot I/O counters and latency
//! histograms must agree with what is actually on disk, and span
//! events must land in a shared ring keyed by batch.

mod common;

use common::{delta_links, full_snapshots, temp_dir, wal_segments, wal_total_bytes};
use tokensync_core::erc20::{Erc20Op, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_core::standards::erc1155::{Erc1155Op, Erc1155State, ShardedErc1155, TypeId};
use tokensync_obs::{Registry, SpanRing, Stage};
use tokensync_pipeline::{run_script_with_sink, BatchConfig, PipelineConfig};
use tokensync_spec::{AccountId, ProcessId};
use tokensync_store::wal::SEG_HEADER_LEN;
use tokensync_store::{recover, Store, StoreConfig, StoreObs};

fn transfers(n: usize, count: usize) -> Vec<(ProcessId, Erc20Op)> {
    (0..count)
        .map(|i| {
            (
                ProcessId::new(i % n),
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

/// The durability thread coalesces: it can only sync *fewer* times than
/// batches were sealed, never more, and once the caller waits for
/// durability the watermark covers every committed operation. Appends
/// stay on the serving thread and match the disk byte for byte.
#[test]
fn group_commit_counters_match_the_disk() {
    let dir = temp_dir("obs-gc");
    let genesis = Erc20State::from_balances(vec![100; 8]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(
        &dir,
        &genesis,
        StoreConfig {
            snapshot_every_ops: 0, // no snapshots, no GC: exact byte identity
            ..StoreConfig::default()
        },
    )
    .unwrap();
    let registry = Registry::new();
    store.set_obs(StoreObs::new(&registry));

    let run = run_script_with_sink(&token, &transfers(8, 50), &cfg(16), &mut store);
    store.flush().unwrap();
    let obs = store.obs().clone();

    // flush() blocks until the watermark reaches the log head.
    assert_eq!(store.durable_seq(), run.stats.ops);
    assert_eq!(obs.durable_seq(), run.stats.ops);
    // Fsync-thread identity: syncs coalesce, so at most one per sealed
    // batch plus the explicit flush — and at least one happened.
    assert!(obs.fsyncs() >= 1, "something must have synced");
    assert!(
        obs.fsyncs() <= run.stats.batches + 1,
        "coalescing can never sync more often than once per seal: \
         {} fsyncs for {} batches",
        obs.fsyncs(),
        run.stats.batches
    );
    // One WAL record per committed batch.
    assert_eq!(obs.records_appended(), run.stats.commit_records);
    // Frame bytes on disk = total segment bytes minus the headers.
    let segments = wal_segments(&dir);
    assert_eq!(
        obs.bytes_appended(),
        wal_total_bytes(&dir) - segments.len() as u64 * SEG_HEADER_LEN
    );
    // No rolls with the default 64 MiB segment cap.
    assert_eq!(obs.segments_created(), 0);
    assert_eq!(segments.len(), 1);
    assert_eq!(obs.snapshots_taken(), 0);
    assert_eq!(obs.delta_snapshots_taken(), 0);

    // Latency histograms observed exactly the counted events.
    assert_eq!(obs.append_latency().unwrap().count, obs.records_appended());
    assert_eq!(obs.fsync_latency().unwrap().count, obs.fsyncs());
    assert_eq!(obs.snapshot_latency().unwrap().count, 0);

    let fsyncs_before_close = obs.fsyncs();
    store.close().unwrap();
    // Close is the final durability point: one more, inline.
    assert_eq!(obs.fsyncs(), fsyncs_before_close + 1);

    // The registry exposes the whole catalog.
    let page = registry.render_text();
    for name in [
        "tokensync_store_fsyncs_total",
        "tokensync_store_bytes_appended_total",
        "tokensync_store_records_appended_total",
        "tokensync_store_segments_created_total",
        "tokensync_store_snapshots_total",
        "tokensync_store_delta_snapshots_total",
        "tokensync_store_durable_seq",
        "tokensync_store_append_ns",
        "tokensync_store_fsync_ns",
        "tokensync_store_snapshot_ns",
    ] {
        assert!(page.contains(name), "exposition lacks {name}:\n{page}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `compact_every: 1`: every trigger's drained rows are published as a
/// full snapshot cut from the live object at the seal — no delta links.
#[test]
fn snapshots_and_segment_rolls_are_counted() {
    let dir = temp_dir("obs-snap");
    let genesis = Erc20State::from_balances(vec![100; 8]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(
        &dir,
        &genesis,
        StoreConfig {
            snapshot_every_ops: 64,
            segment_max_bytes: 512, // tiny: force rolls
            snapshots_kept: 2,
            compact_every: 1,
        },
    )
    .unwrap();
    store.set_obs(StoreObs::new(&Registry::new()));

    let run = run_script_with_sink(&token, &transfers(8, 300), &cfg(32), &mut store);
    store.flush().unwrap();
    let obs = store.obs().clone();

    assert!(obs.snapshots_taken() >= 2, "several snapshots published");
    assert_eq!(obs.delta_snapshots_taken(), 0);
    assert_eq!(obs.snapshots_taken(), obs.snapshot_latency().unwrap().count);
    assert!(obs.segments_created() > 1, "tiny cap forced rolls");
    // Coalesced seal syncs and the explicit flush; close adds the last
    // one.
    assert!(obs.fsyncs() <= run.stats.batches + obs.snapshots_taken() + 1);
    let fsyncs_before_close = obs.fsyncs();
    store.close().unwrap();
    assert_eq!(obs.fsyncs(), fsyncs_before_close + 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Snapshots ride the durability thread: the serving loop never fsyncs
/// for them (the delta chain file is its own durability point), so the
/// fsync-thread identity stays `fsyncs <= batches + 1` even while a
/// snapshot chain is being built.
#[test]
fn delta_snapshots_publish_off_the_hot_path() {
    let dir = temp_dir("obs-snap-delta");
    let genesis = Erc20State::from_balances(vec![100; 8]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> = Store::create(
        &dir,
        &genesis,
        StoreConfig {
            snapshot_every_ops: 64,
            segment_max_bytes: 512,
            snapshots_kept: 2,
            compact_every: 3, // every third publish compacts to a full
        },
    )
    .unwrap();
    store.set_obs(StoreObs::new(&Registry::new()));

    let run = run_script_with_sink(&token, &transfers(8, 300), &cfg(32), &mut store);
    store.flush().unwrap();
    let obs = store.obs().clone();

    let published = obs.snapshots_taken() + obs.delta_snapshots_taken();
    assert!(published >= 2, "several chain links published");
    assert!(
        obs.delta_snapshots_taken() >= 1,
        "the chain must contain at least one incremental link"
    );
    // Every publish (full or delta) lands in the snapshot histogram.
    assert_eq!(published, obs.snapshot_latency().unwrap().count);
    assert!(obs.segments_created() > 1, "tiny cap forced rolls");
    // Fsync-thread identity: snapshot publishes cost no WAL sync; only
    // sealed batches and the explicit flush do, coalesced.
    assert!(
        obs.fsyncs() <= run.stats.batches + 1,
        "{} fsyncs for {} batches and {} chain links",
        obs.fsyncs(),
        run.stats.batches,
        published
    );
    // The durability thread advanced the watermark through the chain
    // (and flush pinned it to the log head).
    assert_eq!(obs.durable_seq(), run.stats.ops);
    store.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Compaction fulls are cut from the live object at the seal: three
/// sessions, each one compaction cycle (two delta links, then a full),
/// reopened over the chain the last one left. After every cycle the
/// chain alone recovers the token's state, pruning keeps
/// `snapshots_kept` fulls plus the links above the older one, and the
/// counters match the publishes.
#[test]
fn compaction_cycles_cut_fulls_from_the_live_object() {
    let dir = temp_dir("obs-compact");
    let mut genesis = Erc1155State::deploy(8, ProcessId::new(0), &[0; 3]);
    for acct in 0..8 {
        for ty in 0..3 {
            genesis.set_balance(AccountId::new(acct), TypeId::new(ty), 50);
        }
    }
    let store_cfg = StoreConfig {
        snapshot_every_ops: 64,
        segment_max_bytes: 4096,
        snapshots_kept: 2,
        compact_every: 3,
    };
    let token = ShardedErc1155::from_state(genesis.clone());
    Store::<ShardedErc1155>::create(&dir, &genesis, store_cfg)
        .unwrap()
        .close()
        .unwrap();
    for cycle in 1..=3u64 {
        let mut store: Store<ShardedErc1155> = Store::open(&dir, store_cfg).unwrap();
        store.set_obs(StoreObs::new(&Registry::new()));
        let script: Vec<(ProcessId, Erc1155Op)> = (0..192)
            .map(|i| {
                let from = (i + cycle as usize) % 8;
                let op = Erc1155Op::Transfer {
                    from: AccountId::new(from),
                    to: AccountId::new((from + 3) % 8),
                    type_id: TypeId::new(i % 3),
                    value: 1,
                };
                (ProcessId::new(from), op)
            })
            .collect();
        let run = run_script_with_sink(&token, &script, &cfg(16), &mut store);
        let obs = store.obs().clone();
        store.close().unwrap();

        // One cycle: two delta links, then the compaction full.
        assert_eq!(obs.delta_snapshots_taken(), 2);
        assert_eq!(obs.snapshots_taken(), 1);
        assert_eq!(obs.snapshot_latency().unwrap().count, 3);
        assert_eq!(obs.records_appended(), run.stats.commit_records);
        assert!(obs.fsyncs() <= run.stats.batches + 1);
        assert_eq!(obs.durable_seq(), 192 * cycle);

        let back = recover::<ShardedErc1155>(&dir).unwrap();
        assert_eq!(back.snapshot_watermark, 192 * cycle);
        assert_eq!((back.delta_links, back.replayed), (0, 0));
        assert_eq!(back.object.snapshot(), token.snapshot());
        assert_eq!(full_snapshots(&dir).len(), store_cfg.snapshots_kept);
        assert_eq!(delta_links(&dir).len(), 2, "the links above the older full");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_append_spans_join_a_shared_ring() {
    let dir = temp_dir("obs-span");
    let genesis = Erc20State::from_balances(vec![100; 4]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> =
        Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
    let ring = SpanRing::new(256);
    store.set_obs(StoreObs::new(&Registry::new()).with_spans(ring.clone(), 1));

    let run = run_script_with_sink(&token, &transfers(4, 40), &cfg(10), &mut store);
    assert_eq!(run.stats.batches, 4);
    store.flush().unwrap();

    let events = ring.dump();
    let appends = events
        .iter()
        .filter(|e| e.stage == Stage::WalAppend)
        .count() as u64;
    // Every batch appends once, and with sample_every = 1 every one of
    // them is traced.
    assert_eq!(appends, run.stats.commit_records);
    assert_eq!(appends, run.stats.batches);
    for batch in 0..run.stats.batches {
        assert!(
            events.iter().any(|e| e.batch == batch),
            "batch {batch} missing from the span ring"
        );
    }
    // The fsyncs belong to no one batch — the thread coalesces seals —
    // so they are counted and timed, not traced per batch.
    let obs = store.obs().clone();
    assert!((1..=run.stats.batches + 1).contains(&obs.fsyncs()));
    assert_eq!(obs.fsync_latency().unwrap().count, obs.fsyncs());
    store.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn disabled_recorder_stays_inert() {
    let dir = temp_dir("obs-off");
    let genesis = Erc20State::from_balances(vec![10; 4]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> =
        Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
    run_script_with_sink(&token, &transfers(4, 20), &cfg(8), &mut store);
    let obs = store.obs();
    assert!(!obs.is_enabled());
    assert_eq!(obs.fsyncs(), 0);
    assert_eq!(obs.bytes_appended(), 0);
    assert!(obs.append_latency().is_none());
    store.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
