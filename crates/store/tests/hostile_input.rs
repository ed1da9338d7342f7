//! Readers that face bytes from outside the process — a shipped frame,
//! a corrupt segment tail, a foreign snapshot — fail closed: an error or
//! "nothing yet", never a panic and never an allocation sized by an
//! unchecked length or an unchecked declaration.

mod common;

use std::io::Write;
use std::marker::PhantomData;

use common::{temp_dir, wal_segments};
use tokensync_core::codec::{Codec, CodecError, StateCodec};
use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20State};
use tokensync_core::shared::ShardedErc20;
use tokensync_core::standards::erc1155::{Erc1155State, ShardedErc1155, TypeId};
use tokensync_core::standards::erc721::{Erc721State, ShardedErc721, TokenId};
use tokensync_pipeline::{run_script_with_sink, BatchConfig, CommittedOp, PipelineConfig};
use tokensync_spec::{AccountId, ProcessId};
use tokensync_store::wal::Wal;
use tokensync_store::{
    decode_commits, install_snapshot, recover, Restorable, Store, StoreConfig, StoreError,
};

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

/// An operation whose bytes no ERC20 decoder accepts: how a test writes
/// a CRC-valid record that does not decode. Write-only.
struct Undecodable;

impl Codec for Undecodable {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(0xFF);
    }

    fn decode(_: &mut &[u8]) -> Result<Self, CodecError> {
        Err(CodecError::Invalid("an undecodable op is write-only"))
    }
}

/// Recovery replays each entry before it decodes the next, so it
/// reports the first fault in log order: a wrong response at seq 2
/// ahead of a CRC-valid but undecodable record at seq 4 is a
/// `Divergence` there, and the same record behind a log that replays
/// cleanly is a `Codec` error.
#[test]
fn recover_reports_the_first_fault_in_log_order() {
    for wrong_at in [Some(2), None] {
        let dir = temp_dir("first-fault");
        let genesis = Erc20State::from_balances(vec![100; 4]);
        Store::<ShardedErc20>::create(&dir, &genesis, StoreConfig::default())
            .unwrap()
            .close()
            .unwrap();
        let (standard, version) = (Erc20State::STANDARD, Erc20State::VERSION);
        let mut wal = Wal::open(&dir, standard, version, u64::MAX, 0).unwrap();
        let reads: Vec<CommittedOp<Erc20Op, Erc20Resp>> = (0..4)
            .map(|seq| CommittedOp {
                seq,
                batch: 0,
                caller: ProcessId::new(0),
                op: Erc20Op::BalanceOf {
                    account: AccountId::new(0),
                },
                resp: Erc20Resp::Amount(if Some(seq) == wrong_at { 99 } else { 100 }),
            })
            .collect();
        wal.append(0, &reads).unwrap();
        let skew = CommittedOp {
            seq: 4,
            batch: 1,
            caller: ProcessId::new(0),
            op: Undecodable,
            resp: Erc20Resp::Bool(true),
        };
        wal.append(0, &[skew]).unwrap();
        wal.sync().unwrap();
        drop(wal);

        let recovered = recover::<ShardedErc20>(&dir);
        match wrong_at {
            Some(seq) => assert!(
                matches!(recovered, Err(StoreError::Divergence { seq: s }) if s == seq),
                "{recovered:?}"
            ),
            None => assert!(
                matches!(recovered, Err(StoreError::Codec(_))),
                "{recovered:?}"
            ),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A state body of `S`'s standard, encoded field by field with the
/// product's codecs: how a test writes a snapshot that no in-process
/// state can hold. Write-only.
struct Declared<S>(Vec<u8>, PhantomData<S>);

impl<S> Codec for Declared<S> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }

    fn decode(_: &mut &[u8]) -> Result<Self, CodecError> {
        Err(CodecError::Invalid("a declared body is write-only"))
    }
}

impl<S: StateCodec> StateCodec for Declared<S> {
    const STANDARD: u8 = S::STANDARD;
    const VERSION: u8 = S::VERSION;
}

/// Publishes `body` as the only snapshot of a fresh store directory and
/// recovers `T` from it.
fn recover_declared<T>(name: &str, body: Vec<u8>) -> Result<T::State, StoreError>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    let dir = temp_dir(name);
    install_snapshot(&dir, 0, &Declared::<T::State>(body, PhantomData)).unwrap();
    let recovered = recover::<T>(&dir).map(|r| r.object.snapshot());
    std::fs::remove_dir_all(&dir).unwrap();
    recovered
}

/// An ERC721 body: `processes`, the span, one token minted to `p0` at
/// `token`, no approval, no operator pairs.
fn one_token_721(span: u32, token: u32) -> Vec<u8> {
    let mut body = (4u32, span, 1u32).encode();
    let row = (
        TokenId::new(token as usize),
        ProcessId::new(0),
        None::<ProcessId>,
    );
    row.encode_into(&mut body);
    0u32.encode_into(&mut body);
    body
}

/// Span `u32::MAX` with one token at `u32::MAX − 1`: 25 bytes that a
/// dense table would answer with ≈ 51 GB. Decode refuses the span, so
/// recovery finds no usable snapshot instead of aborting the process.
#[test]
fn an_erc721_snapshot_declaring_span_u32_max_fails_recovery_cleanly() {
    let body = one_token_721(u32::MAX, u32::MAX - 1);
    assert_eq!(body.len(), 25);
    assert_eq!(
        Erc721State::decode(&mut &body[..]),
        Err(CodecError::Invalid("token span exceeds MAX_DENSE_CELLS"))
    );
    assert!(matches!(
        recover_declared::<ShardedErc721>("declared-721", body),
        Err(StoreError::NoSnapshot)
    ));
    // The same bytes with a span inside the ceiling recover.
    let state =
        recover_declared::<ShardedErc721>("declared-721-ok", one_token_721(64, 63)).unwrap();
    assert_eq!(state.owner_of(TokenId::new(63)), Some(ProcessId::new(0)));
}

/// An ERC1155 body as `deploy(accounts, p0, &[1; types])` encodes it.
fn deployed_1155(accounts: u32, types: u32) -> Vec<u8> {
    let mut body = accounts.encode();
    types.encode_into(&mut body);
    for _ in 0..types {
        1u64.encode_into(&mut body);
    }
    types.encode_into(&mut body);
    for t in 0..types {
        (TypeId::new(t as usize), AccountId::new(0), 1u64).encode_into(&mut body);
    }
    0u32.encode_into(&mut body);
    body
}

/// `deploy(u32::MAX, _, &[1; 64])`: 1 552 bytes that a dense matrix
/// would answer with ≈ 2.2 TB. Decode refuses `accounts × types`, so
/// recovery finds no usable snapshot instead of aborting the process.
#[test]
fn an_erc1155_snapshot_declaring_u32_max_accounts_fails_recovery_cleanly() {
    let body = deployed_1155(u32::MAX, 64);
    assert_eq!(body.len(), 1552);
    assert_eq!(
        Erc1155State::decode(&mut &body[..]),
        Err(CodecError::Invalid(
            "accounts × types exceeds MAX_DENSE_CELLS"
        ))
    );
    assert!(matches!(
        recover_declared::<ShardedErc1155>("declared-1155", body),
        Err(StoreError::NoSnapshot)
    ));
    let state =
        recover_declared::<ShardedErc1155>("declared-1155-ok", deployed_1155(8, 64)).unwrap();
    assert_eq!(state, Erc1155State::deploy(8, ProcessId::new(0), &[1; 64]));
}
