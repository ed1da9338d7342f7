//! Golden bytes for the store's on-disk formats.
//!
//! `codec_golden.rs` pins the value encodings; this file pins the files
//! around them — the WAL segment (header and record framing) and the
//! full and delta snapshot envelopes — so a refactor of the store's
//! readers and writers must reproduce them **byte for byte**. Each case
//! asserts that the store writes exactly the golden file, then recovers
//! a directory holding only golden bytes and checks the state that comes
//! back.
//!
//! A deliberate format change bumps `StateCodec::VERSION` and regenerates
//! the vectors in the same commit.

mod common;

use std::path::Path;

use common::temp_dir;
use tokensync_core::codec::{Codec, StateCodec};
use tokensync_core::erc20::{Erc20Op, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_core::standards::erc1155::{Erc1155Op, Erc1155State, ShardedErc1155, TypeId};
use tokensync_pipeline::{run_script_with_sink, BatchConfig, PipelineConfig};
use tokensync_spec::{AccountId, ProcessId};
use tokensync_store::{install_snapshot, recover, Restorable, Store, StoreConfig};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(golden: &str) -> Vec<u8> {
    assert!(golden.len() % 2 == 0, "odd-length golden vector");
    (0..golden.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&golden[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// Asserts the file `name` in `dir` holds exactly `golden`.
#[track_caller]
fn pin_file(dir: &Path, name: &str, golden: &str) {
    let bytes = std::fs::read(dir.join(name)).expect("golden file written");
    assert_eq!(hex(&bytes), golden, "bytes of {name} moved");
}

/// A fresh directory holding only the given golden files.
fn golden_dir(name: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
    let dir = temp_dir(name);
    for (file, golden) in files {
        std::fs::write(dir.join(file), unhex(golden)).expect("write golden file");
    }
    dir
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

/// Serves `script` durably from `genesis` and closes the store; returns
/// the state the live object ended in.
fn serve<T>(
    dir: &Path,
    genesis: &T::State,
    script: &[(ProcessId, T::Op)],
    cfg: StoreConfig,
) -> T::State
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    let token = T::restore(genesis.clone());
    let mut store: Store<T> = Store::create(dir, genesis, cfg).expect("create store");
    run_script_with_sink(&token, script, &batches_of(2), &mut store);
    store.close().expect("clean close");
    token.snapshot()
}

const SEGMENT_0: &str = "wal-00000000000000000000.seg";
const SNAP_0: &str = "snap-00000000000000000000.snap";
const DELTA_4: &str = "snap-00000000000000000004.delta";

fn erc20_genesis() -> Erc20State {
    let mut state = Erc20State::from_balances(vec![10, 10, 10, 10]);
    state.set_allowance(a(1), p(2), 5);
    state
}

fn erc20_script() -> Vec<(ProcessId, Erc20Op)> {
    vec![
        (p(0), Erc20Op::Transfer { to: a(1), value: 3 }),
        (
            p(2),
            Erc20Op::TransferFrom {
                from: a(1),
                to: a(3),
                value: 4,
            },
        ),
        (
            p(3),
            Erc20Op::Approve {
                spender: p(0),
                value: 7,
            },
        ),
        (p(1), Erc20Op::BalanceOf { account: a(1) }),
    ]
}

const ERC20_SEGMENT: &str = "545357414c5345472001000000000000000007000000000000003f0000005414e3ca0100000000000000000000000000000000020000000000000000010000000300000000000000000102000000010100000003000000040000000000000000013a000000d5e8d2f801010000000000000002000000000000000200000003000000020000000007000000000000000001010000000301000000010900000000000000";
const ERC20_SNAP: &str = "5453534e41503031200100000000000000003c00000000000000040000000a000000000000000a000000000000000a000000000000000a00000000000000010000000100000001000000020000000500000000000000fd5cd006";
const ERC20_DELTA: &str = "5453534e415044312001040000000000000000000000000000004c00000000000000030000000000000007000000000000000000000001000000090000000000000001000000020000000100000000000000030000000e00000000000000010000000000000007000000000000007feb4309";
const ERC1155_SNAP: &str = "5453534e415030315501000000000000000050000000000000000300000002000000090000000000000006000000000000000300000000000000000000000900000000000000010000000000000004000000000000000100000001000000020000000000000000000000a55c419e";
const ERC1155_DELTA: &str = "5453534e41504431550104000000000000000000000000000000610000000000000005000000000000000000000006000000000000000000000002000000030000000000000001000000000000000500000000000000010000000100000000000000000000000100000002000000010000000000000001000000010000000200000001fbc7099b";

#[test]
fn erc20_wal_segment_with_an_epoch_and_two_records() {
    let dir = temp_dir("golden-wal");
    let genesis = erc20_genesis();
    let token = ShardedErc20::from_state(genesis.clone());
    let mut store: Store<ShardedErc20> =
        Store::create(&dir, &genesis, StoreConfig::default()).expect("create store");
    store.set_epoch(7).expect("restamp the empty tail");
    // Two batches of two ops: two records in one segment.
    run_script_with_sink(&token, &erc20_script(), &batches_of(2), &mut store);
    store.close().expect("clean close");
    pin_file(&dir, SEGMENT_0, ERC20_SEGMENT);
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = golden_dir("golden-wal-recover", &[(SEGMENT_0, ERC20_SEGMENT)]);
    install_snapshot(&dir, 0, &genesis).unwrap();
    let back = recover::<ShardedErc20>(&dir).expect("recover the golden log");
    assert_eq!(back.epoch, 7);
    assert_eq!((back.next_seq, back.replayed), (4, 4));
    assert_eq!(back.log_stop, None);
    assert_eq!(back.state, token.snapshot());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn erc20_full_and_delta_snapshot_files() {
    let dir = temp_dir("golden-snap20");
    let genesis = erc20_genesis();
    let cfg = StoreConfig {
        snapshot_every_ops: 4,
        ..StoreConfig::default()
    };
    let state = serve::<ShardedErc20>(&dir, &genesis, &erc20_script(), cfg);
    pin_file(&dir, SNAP_0, ERC20_SNAP);
    pin_file(&dir, DELTA_4, ERC20_DELTA);
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = golden_dir(
        "golden-snap20-recover",
        &[(SNAP_0, ERC20_SNAP), (DELTA_4, ERC20_DELTA)],
    );
    let back = recover::<ShardedErc20>(&dir).expect("recover the golden chain");
    assert_eq!((back.snapshot_watermark, back.delta_links), (4, 1));
    assert_eq!((back.next_seq, back.replayed), (4, 0));
    assert_eq!(back.state, state);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn erc1155_full_and_delta_snapshot_files() {
    let dir = temp_dir("golden-snap1155");
    let mut genesis = Erc1155State::deploy(3, p(0), &[9, 4]);
    genesis.set_balance(a(1), TypeId::new(1), 2);
    let t = TypeId::new;
    let script = vec![
        (
            p(0),
            Erc1155Op::BatchTransfer {
                from: a(0),
                to: a(2),
                entries: vec![(t(0), 3), (t(1), 1)],
            },
        ),
        (
            p(1),
            Erc1155Op::SetApprovalForAll {
                operator: p(2),
                on: true,
            },
        ),
        (
            p(2),
            Erc1155Op::Transfer {
                from: a(1),
                to: a(0),
                type_id: t(1),
                value: 2,
            },
        ),
        (
            p(0),
            Erc1155Op::BalanceOf {
                account: a(2),
                type_id: t(0),
            },
        ),
    ];
    let cfg = StoreConfig {
        snapshot_every_ops: 4,
        ..StoreConfig::default()
    };
    let state = serve::<ShardedErc1155>(&dir, &genesis, &script, cfg);
    pin_file(&dir, SNAP_0, ERC1155_SNAP);
    pin_file(&dir, DELTA_4, ERC1155_DELTA);
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = golden_dir(
        "golden-snap1155-recover",
        &[(SNAP_0, ERC1155_SNAP), (DELTA_4, ERC1155_DELTA)],
    );
    let back = recover::<ShardedErc1155>(&dir).expect("recover the golden chain");
    assert_eq!((back.snapshot_watermark, back.delta_links), (4, 1));
    assert_eq!(back.state, state);
    std::fs::remove_dir_all(&dir).unwrap();
}
