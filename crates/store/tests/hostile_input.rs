//! Readers that face bytes from outside the process — a shipped frame,
//! a corrupt segment tail — fail closed: an error or "nothing yet",
//! never a panic and never an allocation sized by an unchecked length.

mod common;

use std::io::Write;

use common::{temp_dir, wal_segments};
use tokensync_core::codec::StateCodec;
use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20State};
use tokensync_core::shared::ShardedErc20;
use tokensync_pipeline::{run_script_with_sink, BatchConfig, CommittedOp, PipelineConfig};
use tokensync_spec::{AccountId, ProcessId};
use tokensync_store::wal::Wal;
use tokensync_store::{decode_commits, Store, StoreConfig, StoreError};

fn transfers(count: usize) -> Vec<(ProcessId, Erc20Op)> {
    (0..count)
        .map(|i| {
            let to = AccountId::new((i + 1) % 4);
            (ProcessId::new(i % 4), Erc20Op::Transfer { to, value: 1 })
        })
        .collect()
}

fn batches_of(max_ops: usize) -> PipelineConfig {
    PipelineConfig {
        batch: BatchConfig {
            max_ops,
            ..BatchConfig::default()
        },
        ..PipelineConfig::default()
    }
}

#[test]
fn decode_commits_rejects_short_and_foreign_payloads() {
    for len in [0usize, 8, 20] {
        let payload = vec![1u8; len];
        assert!(
            decode_commits::<Erc20Op, Erc20Resp>(&payload).is_err(),
            "a {len}-byte payload decoded"
        );
    }
    // A whole head with an unknown record kind.
    let mut foreign = vec![2u8];
    foreign.extend_from_slice(&[0; 20]);
    assert!(decode_commits::<Erc20Op, Erc20Resp>(&foreign).is_err());
}

#[test]
fn cursor_stops_at_a_hostile_length_prefix_without_allocating_it() {
    let dir = temp_dir("hostile-len");
    let genesis = Erc20State::from_balances(vec![100; 4]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> =
        Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
    run_script_with_sink(&token, &transfers(12), &batches_of(4), &mut store);
    store.flush().unwrap();

    // A corrupt tail claiming a ~4 GiB frame, plus a few bytes of it.
    let segment = wal_segments(&dir).pop().expect("a segment");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(segment)
        .unwrap();
    file.write_all(&0xFFFF_FFF0u32.to_le_bytes()).unwrap();
    file.write_all(&[0xAB; 12]).unwrap();
    drop(file);

    let mut cursor = store.cursor(0).unwrap();
    let mut seen = 0u64;
    while let Some(record) = cursor.next_record().unwrap() {
        assert_eq!(record.first_seq, seen);
        seen += u64::from(record.count);
    }
    assert_eq!(seen, 12, "the valid records before the corrupt tail");
    for _ in 0..3 {
        assert!(cursor.next_record().unwrap().is_none());
    }
    drop(cursor);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_over_a_log_hole_diverges_where_the_log_resumes() {
    let dir = temp_dir("open-hole");
    let genesis = Erc20State::from_balances(vec![100; 4]);
    Store::<ShardedErc20>::create(&dir, &genesis, StoreConfig::default())
        .unwrap()
        .close()
        .unwrap();
    // Above the genesis snapshot the log resumes at 20: [0, 20) is gone.
    for segment in wal_segments(&dir) {
        std::fs::remove_file(segment).unwrap();
    }
    let (standard, version) = (Erc20State::STANDARD, Erc20State::VERSION);
    let mut wal = Wal::open(&dir, standard, version, u64::MAX, 20).unwrap();
    let entries: Vec<CommittedOp<Erc20Op, Erc20Resp>> = (0..4)
        .map(|seq| CommittedOp {
            seq,
            batch: 0,
            caller: ProcessId::new(0),
            op: Erc20Op::BalanceOf {
                account: AccountId::new(0),
            },
            resp: Erc20Resp::Amount(100),
        })
        .collect();
    wal.append(20, &entries).unwrap();
    wal.sync().unwrap();
    drop(wal);

    // The chain mark is 0 and the log resumes at 20: no snapshot the
    // store could publish would link to what it serves.
    assert!(matches!(
        Store::<ShardedErc20>::open(&dir, StoreConfig::default()),
        Err(StoreError::Divergence { seq: 20 })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}
