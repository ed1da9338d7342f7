//! End-to-end: ONE pipeline engine serving three token standards,
//! through the facade.
//!
//! The tentpole composition: the identical generic
//! ingest → analyze → schedule → execute → commit machinery — no
//! per-standard copies — drives an ERC20 `ShardedErc20`, an ERC721
//! `ShardedErc721` and an ERC1155 `ShardedErc1155`, each checked the
//! same way: wave parallelism above 1 on its owner-disjoint regime,
//! deterministic serialization on its contended regime, and a commit
//! log that replays against the standard's sequential oracle and
//! passes the Wing–Gong–Lowe checker.

use std::sync::Arc;

use tokensync::core::erc20::{Erc20Op, Erc20Spec, Erc20State};
use tokensync::core::shared::{ConcurrentObject, ShardedErc20};
use tokensync::core::standards::erc1155::{
    Erc1155Op, Erc1155Spec, Erc1155State, ShardedErc1155, TypeId,
};
use tokensync::core::standards::erc721::{
    Erc721Op, Erc721Resp, Erc721Spec, Erc721State, ShardedErc721, TokenId,
};
use tokensync::pipeline::{run_script, BatchConfig, Pipeline, PipelineConfig, ScheduleConfig};
use tokensync::spec::{check_linearizable, AccountId, ObjectType, ProcessId};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

/// The shared acceptance check: run the script, demand the expected
/// parallelism shape, and verify the commit log three ways.
fn run_and_verify<T, S>(
    object: &T,
    spec: &S,
    script: &[(ProcessId, T::Op)],
    batch: usize,
) -> tokensync::pipeline::PipelineStats
where
    T: ConcurrentObject,
    S: ObjectType<Op = T::Op, Resp = T::Resp, State = T::State>,
    T::State: Eq + std::hash::Hash,
{
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: batch,
            ..BatchConfig::default()
        },
        schedule: ScheduleConfig {
            max_parallel_waves: 4,
        },
        ..PipelineConfig::default()
    };
    let run = run_script(object, script, &cfg);
    assert_eq!(run.stats.ops as usize, script.len());
    let committed = run.log.replay(spec).expect("responses consistent");
    assert_eq!(committed, object.snapshot(), "log diverged from object");
    check_linearizable(spec, &spec.initial_state(), &run.log.to_history())
        .expect("commit log linearizes");
    // The pipeline only reorders commuting ops: final state matches the
    // submission-order sequential replay exactly.
    let mut sequential = spec.initial_state();
    for (caller, op) in script {
        spec.apply(&mut sequential, *caller, op);
    }
    assert_eq!(committed, sequential);
    run.stats
}

#[test]
fn one_engine_serves_all_three_standards_with_wave_parallelism() {
    let n = 32;

    // ERC20: owner-disjoint transfers.
    let erc20_initial = Erc20State::from_balances(vec![100; n]);
    let erc20 = ShardedErc20::from_state(erc20_initial.clone());
    let erc20_script: Vec<(ProcessId, Erc20Op)> = (0..64)
        .map(|i| {
            let src = i % (n / 2);
            (
                p(src),
                Erc20Op::Transfer {
                    to: a(n / 2 + src),
                    value: 1,
                },
            )
        })
        .collect();
    let stats = run_and_verify(&erc20, &Erc20Spec::new(erc20_initial), &erc20_script, n / 2);
    assert!(stats.wave_parallelism() > 1.0, "erc20 waves too narrow");
    assert_eq!(stats.serial_ops, 0);

    // ERC721: owner-disjoint NFT transfers (distinct token ids).
    let nft_initial = Erc721State::minted_round_robin(n, 256, n);
    let nft = ShardedErc721::from_state(nft_initial.clone());
    let nft_script: Vec<(ProcessId, Erc721Op)> = (0..n)
        .map(|i| {
            (
                p(i),
                Erc721Op::TransferFrom {
                    from: p(i),
                    to: p((i + 1) % n),
                    token: TokenId::new(i),
                },
            )
        })
        .collect();
    let stats = run_and_verify(&nft, &Erc721Spec::new(nft_initial), &nft_script, n / 2);
    assert!(stats.wave_parallelism() > 1.0, "erc721 waves too narrow");
    assert_eq!(stats.serial_ops, 0);

    // ERC1155: batches with pairwise non-intersecting cell sets.
    let multi_initial = {
        let mut s = Erc1155State::deploy(n, p(0), &[0, 0, 0]);
        for i in 0..n {
            for t in 0..3 {
                s.set_balance(a(i), TypeId::new(t), 50);
            }
        }
        s
    };
    let multi = ShardedErc1155::from_state(multi_initial.clone());
    let multi_script: Vec<(ProcessId, Erc1155Op)> = (0..64)
        .map(|i| {
            let src = i % (n / 2);
            (
                p(src),
                Erc1155Op::BatchTransfer {
                    from: a(src),
                    to: a(n / 2 + src),
                    entries: vec![(TypeId::new(0), 1), (TypeId::new(1), 2)],
                },
            )
        })
        .collect();
    let stats = run_and_verify(
        &multi,
        &Erc1155Spec::new(multi_initial),
        &multi_script,
        n / 2,
    );
    assert!(stats.wave_parallelism() > 1.0, "erc1155 waves too narrow");
    assert_eq!(stats.serial_ops, 0);
}

#[test]
fn contended_nft_claims_serialize_but_stay_correct() {
    // The §6 race, served: every process claims the same two tokens.
    // The schedule must never let two claims share a wave, and the
    // outcome must match the sequential replay exactly — deterministic
    // winner, losers rejected.
    let n = 8;
    let mut initial = Erc721State::minted_round_robin(n, 16, 2);
    for i in 1..n {
        initial.set_operator(p(0), p(i), true);
    }
    let nft = ShardedErc721::from_state(initial.clone());
    let script: Vec<(ProcessId, Erc721Op)> = (0..24)
        .map(|i| {
            (
                p(i % n),
                Erc721Op::TransferFrom {
                    from: p(0),
                    to: p(i % n),
                    token: TokenId::new(i % 2),
                },
            )
        })
        .collect();
    let stats = run_and_verify(&nft, &Erc721Spec::new(initial), &script, 12);
    assert!(stats.serial_ops > 0, "hot tokens must spill serial");
    // Deterministic winners per the submission order: on token 0 the
    // i = 0 claim is the owner's self-transfer (ownership unchanged), so
    // the i = 2 claim by p2 captures it and every later claim fails; on
    // token 1 the claimed owner p0 never holds it, so it stays with p1.
    let snap = nft.snapshot();
    assert_eq!(snap.owner_of(TokenId::new(0)), Some(p(2)));
    assert_eq!(snap.owner_of(TokenId::new(1)), Some(p(1)));
}

#[test]
fn erc1155_hot_account_batches_serialize_but_stay_correct() {
    let n = 8;
    let mut initial = Erc1155State::deploy(n, p(0), &[0, 0]);
    initial.set_balance(a(0), TypeId::new(0), 10);
    initial.set_balance(a(0), TypeId::new(1), 10);
    for i in 1..n {
        initial.set_operator(a(0), p(i), true);
    }
    let multi = ShardedErc1155::from_state(initial.clone());
    // Everyone drains account 0 in overlapping batches: cell sets
    // intersect, so the engine serializes them; totals stay exact.
    let script: Vec<(ProcessId, Erc1155Op)> = (0..16)
        .map(|i| {
            (
                p(i % n),
                Erc1155Op::BatchTransfer {
                    from: a(0),
                    to: a(1 + (i % (n - 1))),
                    entries: vec![(TypeId::new(i % 2), 2)],
                },
            )
        })
        .collect();
    let stats = run_and_verify(&multi, &Erc1155Spec::new(initial), &script, 16);
    assert!(
        stats.serial_ops > 0 || stats.wave_parallelism() < 2.0,
        "hot-account batches must not run wide"
    );
    let snap = multi.snapshot();
    assert_eq!(snap.total_supply(TypeId::new(0)), 10);
    assert_eq!(snap.total_supply(TypeId::new(1)), 10);
}

#[test]
fn spawned_engine_serves_concurrent_nft_clients() {
    // The serving shape over a non-ERC20 standard: concurrent clients
    // submit through the bounded intake, the background engine batches
    // and commits, and the log is a checkable linearization.
    let n = 8;
    let initial = Erc721State::minted_round_robin(n, 64, 32);
    let nft = Arc::new(ShardedErc721::from_state(initial.clone()));
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: 16,
            queue_depth: 64,
            ..BatchConfig::default()
        },
        ..PipelineConfig::default()
    };
    let (client, handle) = Pipeline::spawn(Arc::clone(&nft), cfg);
    crossbeam::scope(|s| {
        for t in 0..4usize {
            let client = client.clone();
            s.spawn(move |_| {
                for i in 0..10 {
                    // Each client moves its own tokens (t, t+8, …, t+24
                    // round-robin) — mostly commuting, occasionally
                    // racing reads.
                    let op = if i % 5 == 4 {
                        Erc721Op::OwnerOf {
                            token: TokenId::new(t),
                        }
                    } else {
                        Erc721Op::TransferFrom {
                            from: p(t),
                            to: p(t),
                            token: TokenId::new((t + 8 * (i % 4)) % 32),
                        }
                    };
                    client.submit(p(t), op).expect("engine alive");
                }
            });
        }
    })
    .expect("clients panicked");
    drop(client);
    let run = handle.finish();
    assert_eq!(run.stats.ops, 40);
    let spec = Erc721Spec::new(initial);
    let committed = run.log.replay(&spec).expect("responses consistent");
    assert_eq!(committed, nft.snapshot());
    check_linearizable(&spec, &spec.initial_state(), &run.log.to_history())
        .expect("commit log linearizes");
}

#[test]
fn erc721_self_transfer_keeps_ownership() {
    // Sanity on the spawned-engine fixture's op shape: a self-transfer
    // by the owner succeeds and leaves ownership unchanged (but clears
    // the single-use approval, per ERC721).
    let initial = Erc721State::minted_round_robin(4, 8, 4);
    let nft = ShardedErc721::from_state(initial);
    let ok = nft.apply(
        p(1),
        &Erc721Op::TransferFrom {
            from: p(1),
            to: p(1),
            token: TokenId::new(1),
        },
    );
    assert_eq!(ok, Erc721Resp::TRUE);
    assert_eq!(nft.snapshot().owner_of(TokenId::new(1)), Some(p(1)));
}
