//! The commutativity reading and verified recovery on one log.
//!
//! `Scheduler::batch_commutes` reads the engine's conflict monitor: a
//! batch commutes iff its schedule puts every op in wave 0 with an empty
//! serial lane. These properties pin it against the brute-force pairwise
//! relation on random logs of all three standards: on every prefix of a
//! log, `batch_commutes` holds exactly when no pair of the prefix
//! conflicts. (The maximal-run property — each probe run ends at an op
//! conflicting with it — went with `commuting_prefix`, which nothing
//! cuts runs with any more.) Recovery replays the log suffix
//! sequentially through the oracle, and a wrong logged response deep in
//! a long contended log fails it at exactly that response's sequence
//! number.

mod common;

use std::path::PathBuf;

use common::temp_dir;
use proptest::collection::vec;
use proptest::prelude::*;
use tokensync_core::analysis::{footprints_conflict, FootprintedOp};
use tokensync_core::codec::StateCodec;
use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20Spec, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_core::standards::erc1155::{Erc1155Op, TypeId};
use tokensync_core::standards::erc721::{Erc721Op, TokenId};
use tokensync_pipeline::{CommittedOp, Scheduler};
use tokensync_spec::{AccountId, ObjectType, ProcessId};
use tokensync_store::wal::Wal;
use tokensync_store::{recover, recover_sequential, Store, StoreConfig, StoreError};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

/// Checks `batch_commutes` on every prefix of `ops` against the
/// pairwise relation, on one retained scheduler.
fn assert_commutes_exactly<Op: FootprintedOp + std::fmt::Debug>(ops: &[(ProcessId, Op)]) {
    let conflict =
        |x: &(ProcessId, Op), y: &(ProcessId, Op)| footprints_conflict((x.0, &x.1), (y.0, &y.1));
    let mut probe = Scheduler::new();
    for end in 0..=ops.len() {
        let prefix = &ops[..end];
        let clean = prefix
            .iter()
            .enumerate()
            .all(|(i, x)| prefix[i + 1..].iter().all(|y| !conflict(x, y)));
        assert_eq!(probe.batch_commutes(prefix), clean, "on {prefix:?}");
    }
}

const N: usize = 5;

fn arb_erc20() -> impl Strategy<Value = (ProcessId, Erc20Op)> {
    prop_oneof![
        (0..N, 0..N, 0u64..3)
            .prop_map(|(c, to, value)| (p(c), Erc20Op::Transfer { to: a(to), value })),
        (0..N, 0..N, 0..N).prop_map(|(c, from, to)| (
            p(c),
            Erc20Op::TransferFrom {
                from: a(from),
                to: a(to),
                value: 1,
            }
        )),
        (0..N, 0..N).prop_map(|(c, spender)| (
            p(c),
            Erc20Op::Approve {
                spender: p(spender),
                value: 2,
            }
        )),
        (0..N, 0..N).prop_map(|(c, account)| (
            p(c),
            Erc20Op::BalanceOf {
                account: a(account)
            }
        )),
        (0..N, 0..N, 0..N).prop_map(|(c, account, spender)| (
            p(c),
            Erc20Op::Allowance {
                account: a(account),
                spender: p(spender),
            }
        )),
    ]
}

fn arb_erc721() -> impl Strategy<Value = (ProcessId, Erc721Op)> {
    prop_oneof![
        (0..N, 0..N, 0..N).prop_map(|(c, from, token)| (
            p(c),
            Erc721Op::TransferFrom {
                from: p(from),
                to: p((from + 1) % N),
                token: TokenId::new(token),
            }
        )),
        (0..N, 0..N).prop_map(|(c, token)| (
            p(c),
            Erc721Op::Approve {
                approved: Some(p((c + 1) % N)),
                token: TokenId::new(token),
            }
        )),
        (0..N, 0..N).prop_map(|(c, operator)| (
            p(c),
            Erc721Op::SetApprovalForAll {
                operator: p(operator),
                on: true,
            }
        )),
        (0..N, 0..N).prop_map(|(c, token)| (
            p(c),
            Erc721Op::OwnerOf {
                token: TokenId::new(token)
            }
        )),
    ]
}

fn arb_erc1155() -> impl Strategy<Value = (ProcessId, Erc1155Op)> {
    prop_oneof![
        // Batches over three types draw repeats, e.g. `[t1, t1]`: an
        // intra-op collision, which is not a conflict.
        (0..N, 0..N, 0..N, vec(0..3usize, 1..4)).prop_map(|(c, from, to, types)| (
            p(c),
            Erc1155Op::BatchTransfer {
                from: a(from),
                to: a(to),
                entries: types.into_iter().map(|t| (TypeId::new(t), 1)).collect(),
            }
        )),
        (0..N, 0..N, 0..N, 0..3usize).prop_map(|(c, from, to, t)| (
            p(c),
            Erc1155Op::Transfer {
                from: a(from),
                to: a(to),
                type_id: TypeId::new(t),
                value: 1,
            }
        )),
        (0..N, 0..N).prop_map(|(c, operator)| (
            p(c),
            Erc1155Op::SetApprovalForAll {
                operator: p(operator),
                on: true,
            }
        )),
        (0..N, 0..N, 0..3usize).prop_map(|(c, account, t)| (
            p(c),
            Erc1155Op::BalanceOf {
                account: a(account),
                type_id: TypeId::new(t),
            }
        )),
    ]
}

proptest! {
    #[test]
    fn erc20_batch_commutes_iff_no_pair_conflicts(ops in vec(arb_erc20(), 0..40)) {
        assert_commutes_exactly(&ops);
    }

    #[test]
    fn erc721_batch_commutes_iff_no_pair_conflicts(ops in vec(arb_erc721(), 0..40)) {
        assert_commutes_exactly(&ops);
    }

    #[test]
    fn erc1155_batch_commutes_iff_no_pair_conflicts(ops in vec(arb_erc1155(), 0..40)) {
        assert_commutes_exactly(&ops);
    }
}

#[test]
fn duplicate_type_ids_in_one_batch_are_not_a_conflict() {
    let dup = |c: usize| {
        (
            p(c),
            Erc1155Op::BatchTransfer {
                from: a(c),
                to: a(4),
                entries: vec![(TypeId::new(0), 1), (TypeId::new(0), 1)],
            },
        )
    };
    let mut probe = Scheduler::new();
    assert!(probe.batch_commutes(&[dup(0), dup(1)]));
    assert!(!probe.batch_commutes(&[dup(0), dup(1), dup(0)]));
}

/// A contended ERC20 log of `len` entries over the accounts of
/// `genesis` (approvals and `transferFrom`s concentrated on four
/// owners), each carrying the response the sequential oracle gives,
/// and the oracle's state after it.
fn contended_log(
    genesis: &Erc20State,
    len: usize,
) -> (Vec<CommittedOp<Erc20Op, Erc20Resp>>, Erc20State) {
    let accounts = genesis.accounts();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |m: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % m as u64) as usize
    };
    let spec = Erc20Spec::new(genesis.clone());
    let mut state = spec.initial_state();
    let log = (0..len as u64)
        .map(|seq| {
            let caller = p(next(accounts));
            let op = match next(3) {
                0 => Erc20Op::Approve {
                    spender: p(next(accounts)),
                    value: 5,
                },
                1 => Erc20Op::TransferFrom {
                    from: a(next(4)),
                    to: a(next(accounts)),
                    value: 1,
                },
                _ => Erc20Op::Transfer {
                    to: a(next(accounts)),
                    value: 1,
                },
            };
            let resp = spec.apply(&mut state, caller, &op);
            CommittedOp {
                seq,
                batch: seq / 500,
                caller,
                op,
                resp,
            }
        })
        .collect();
    (log, state)
}

/// A store holding `genesis` as its snapshot and `log` as its WAL, one
/// record per 500 entries.
fn store_with_log(genesis: &Erc20State, log: &[CommittedOp<Erc20Op, Erc20Resp>]) -> PathBuf {
    let dir = temp_dir("verified-replay");
    Store::<ShardedErc20>::create(&dir, genesis, StoreConfig::default())
        .expect("create store")
        .close()
        .expect("clean close");
    let (standard, version) = (Erc20State::STANDARD, Erc20State::VERSION);
    let mut wal = Wal::open(&dir, standard, version, u64::MAX, 0).expect("open the log");
    for record in log.chunks(500) {
        wal.append(0, record).expect("append");
    }
    wal.sync().expect("sync");
    dir
}

#[test]
fn a_wrong_response_deep_in_the_log_diverges_at_its_seq() {
    let genesis = Erc20State::from_balances(vec![1_000; 32]);
    let (mut log, oracle) = contended_log(&genesis, 5_000);

    // As logged, the whole suffix replays onto the oracle's state.
    let dir = store_with_log(&genesis, &log);
    let back = recover::<ShardedErc20>(&dir).expect("recover");
    assert_eq!((back.replayed, back.next_seq), (5_000, 5_000));
    assert_eq!(back.state, oracle);
    assert_eq!(back.object.snapshot(), oracle);
    std::fs::remove_dir_all(&dir).unwrap();

    // One record, one entry, one wrong response.
    let entry = &mut log[4_500];
    entry.resp = match entry.resp {
        Erc20Resp::Bool(ok) => Erc20Resp::Bool(!ok),
        Erc20Resp::Amount(v) => Erc20Resp::Amount(v + 1),
    };
    let dir = store_with_log(&genesis, &log);
    for recovered in [recover::<ShardedErc20>(&dir), recover_sequential(&dir)] {
        assert!(matches!(
            recovered,
            Err(StoreError::Divergence { seq: 4_500 })
        ));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
