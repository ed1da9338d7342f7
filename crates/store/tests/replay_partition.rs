//! Recovery's parallel replay runs are the serving path's bypass-probe
//! runs: `recover` cuts the log suffix with
//! `Scheduler::commuting_prefix`, so these properties pin that probe
//! against the brute-force pairwise relation on random logs of all
//! three standards — every run pairwise commuting, every run maximal,
//! and `batch_commutes` exactly "the prefix spans the batch" — and pin
//! the parallel/sequential switch on both sides of its threshold.

mod common;

use common::temp_dir;
use proptest::collection::vec;
use proptest::prelude::*;
use tokensync_core::analysis::{footprints_conflict, FootprintedOp};
use tokensync_core::erc20::{Erc20Op, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_core::standards::erc1155::{Erc1155Op, TypeId};
use tokensync_core::standards::erc721::{Erc721Op, TokenId};
use tokensync_pipeline::{run_script_with_sink, BatchConfig, PipelineConfig, Scheduler};
use tokensync_spec::{AccountId, ProcessId};
use tokensync_store::{recover, recover_sequential, Store, StoreConfig};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

/// Cuts `ops` into runs the way recovery does and checks each one
/// against the pairwise relation.
fn assert_probe_runs<Op: FootprintedOp + std::fmt::Debug>(ops: &[(ProcessId, Op)]) {
    let conflict =
        |x: &(ProcessId, Op), y: &(ProcessId, Op)| footprints_conflict((x.0, &x.1), (y.0, &y.1));
    let mut probe = Scheduler::new();
    let whole = probe.commuting_prefix(ops.iter().map(|(c, op)| (*c, op)));
    assert_eq!(probe.batch_commutes(ops), whole == ops.len());
    let mut start = 0;
    while start < ops.len() {
        let rest = &ops[start..];
        let len = probe.commuting_prefix(rest.iter().map(|(c, op)| (*c, op)));
        assert!(len >= 1, "a run always takes at least one op");
        let run = &rest[..len];
        for (i, x) in run.iter().enumerate() {
            for y in &run[i + 1..] {
                assert!(!conflict(x, y), "conflicting {x:?} and {y:?} share a run");
            }
        }
        if let Some(next) = rest.get(len) {
            assert!(
                run.iter().any(|x| conflict(x, next)),
                "run ending before {next:?} is not maximal"
            );
        }
        start += len;
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
    fn erc20_probe_runs_are_maximal_commuting_runs(ops in vec(arb_erc20(), 0..40)) {
        assert_probe_runs(&ops);
    }

    #[test]
    fn erc721_probe_runs_are_maximal_commuting_runs(ops in vec(arb_erc721(), 0..40)) {
        assert_probe_runs(&ops);
    }

    #[test]
    fn erc1155_probe_runs_are_maximal_commuting_runs(ops in vec(arb_erc1155(), 0..40)) {
        assert_probe_runs(&ops);
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
    let ops = vec![dup(0), dup(1), dup(0)];
    assert_eq!(
        Scheduler::new().commuting_prefix(ops.iter().map(|(c, op)| (*c, op))),
        2
    );
    assert_probe_runs(&ops);
}

/// Writes `live` ERC20 ops above the genesis snapshot — a contended mix,
/// so the parallel path cuts many runs — and checks that both recovery
/// modes agree.
fn recover_both_ways(live: usize) {
    let dir = temp_dir("partition-threshold");
    let accounts = 32;
    let genesis = Erc20State::from_balances(vec![1_000; accounts]);
    let token = ShardedErc20::from_state(genesis.clone());
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |m: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % m as u64) as usize
    };
    let script: Vec<(ProcessId, Erc20Op)> = (0..live)
        .map(|_| {
            let c = next(accounts);
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
            (p(c), op)
        })
        .collect();
    let mut store: Store<ShardedErc20> =
        Store::create(&dir, &genesis, StoreConfig::default()).expect("create store");
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: 512,
            ..BatchConfig::default()
        },
        ..PipelineConfig::default()
    };
    run_script_with_sink(&token, &script, &cfg, &mut store);
    store.close().expect("clean close");

    let parallel = recover::<ShardedErc20>(&dir).expect("recover");
    let sequential = recover_sequential::<ShardedErc20>(&dir).expect("recover sequentially");
    assert_eq!(parallel.replayed, live as u64);
    assert_eq!(sequential.replayed, live as u64);
    assert_eq!(parallel.state, sequential.state);
    assert_eq!(parallel.object.snapshot(), token.snapshot());
    assert_eq!(sequential.object.snapshot(), token.snapshot());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_modes_agree_just_below_the_parallel_threshold() {
    recover_both_ways(4095);
}

#[test]
fn recovery_modes_agree_at_the_parallel_threshold() {
    recover_both_ways(4096);
}
