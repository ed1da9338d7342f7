//! End-to-end: the batched pipeline as a serving path, through the
//! facade.
//!
//! Exercises the full composition the tentpole is about: operations flow
//! through the bounded intake into batches, the footprint analyzer and
//! wave scheduler split each batch by the paper's commutativity rules,
//! waves execute in commit order over the sharded million-account token,
//! and the commit log is a *checkable* linearization — replayable against
//! the sequential spec and acceptable to the Wing–Gong–Lowe checker.

use std::sync::Arc;

use tokensync::core::erc20::{Erc20Op, Erc20Spec, Erc20State};
use tokensync::core::shared::{ConcurrentObject, ShardedErc20};
use tokensync::net::dynamic::DynamicNetwork;
use tokensync::pipeline::{
    drive_dynamic, run_script, BatchConfig, Pipeline, PipelineConfig, ScheduleConfig,
};
use tokensync::spec::{check_linearizable, AccountId, ObjectType, ProcessId};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

/// Submission-order sequential replay: the reference state.
fn sequential(initial: &Erc20State, script: &[(ProcessId, Erc20Op)]) -> Erc20State {
    let spec = Erc20Spec::new(Erc20State::new(0));
    let mut q = initial.clone();
    for (caller, op) in script {
        spec.apply(&mut q, *caller, op);
    }
    q
}

#[test]
fn owner_disjoint_traffic_executes_with_wave_parallelism() {
    // The acceptance criterion: an owner-disjoint transfer workload must
    // split into wide conflict-free waves — measured wave parallelism
    // strictly above 1 (here: the whole batch in one wave).
    let n = 64;
    let initial = Erc20State::from_balances(vec![100; n]);
    let token = ShardedErc20::from_state(initial.clone());
    let script: Vec<(ProcessId, Erc20Op)> = (0..256)
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
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: n / 2,
            ..BatchConfig::default()
        },
        ..PipelineConfig::default()
    };
    let run = run_script(&token, &script, &cfg);
    assert!(
        run.stats.wave_parallelism() > 1.0,
        "disjoint batches must run in wide waves, got {}",
        run.stats.wave_parallelism()
    );
    assert_eq!(run.stats.serial_ops, 0);
    assert_eq!(run.stats.conflicts, 0);
    // The conflict monitor finds every batch of fully commuting traffic
    // pairwise commuting.
    assert_eq!(
        run.stats.bypassed_batches, run.stats.batches,
        "every disjoint batch must commute, got {:?}",
        run.stats
    );
    let spec = Erc20Spec::new(initial.clone());
    assert_eq!(run.log.replay(&spec).unwrap(), token.snapshot());
    assert_eq!(token.snapshot(), sequential(&initial, &script));
}

#[test]
fn concurrent_clients_through_the_spawned_engine_linearize() {
    let n = 8;
    let initial = {
        let mut q = Erc20State::from_balances(vec![20; n]);
        q.set_allowance(a(0), p(2), 9);
        q.set_allowance(a(0), p(3), 9);
        q
    };
    let token = Arc::new(ShardedErc20::from_state(initial.clone()));
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: 16,
            queue_depth: 64,
            ..BatchConfig::default()
        },
        ..PipelineConfig::default()
    };
    let (client, handle) = Pipeline::spawn(Arc::clone(&token), cfg);
    std::thread::scope(|s| {
        for t in 0..4usize {
            let client = client.clone();
            s.spawn(move || {
                for i in 0..10 {
                    let op = if t >= 2 && i % 3 == 0 {
                        // Spenders racing the shared allowance row.
                        Erc20Op::TransferFrom {
                            from: a(0),
                            to: a(t),
                            value: 1,
                        }
                    } else {
                        Erc20Op::Transfer {
                            to: a((t + i) % n),
                            value: 1,
                        }
                    };
                    client.submit(p(t), op).expect("engine alive");
                }
            });
        }
    });
    drop(client);
    let run = handle.finish();
    assert_eq!(run.stats.ops, 40);
    // The commit log is a genuine linearization of what the token did.
    let spec = Erc20Spec::new(initial);
    let committed = run.log.replay(&spec).expect("responses consistent");
    assert_eq!(committed, token.snapshot());
    assert_eq!(committed.total_supply(), 160);
    check_linearizable(&spec, &spec.initial_state(), &run.log.to_history())
        .expect("commit log linearizes");
}

#[test]
fn hot_allowance_row_serializes_but_stays_correct() {
    // k spenders draining one allowance row: the schedule must not let
    // two of them share a wave, and the outcome must match the
    // sequential replay exactly (the Q_k regime needs synchronization;
    // the pipeline provides it via wave ordering + the serial lane).
    let n = 8;
    let k = 4;
    let initial = {
        let mut q = Erc20State::from_balances(vec![10; n]);
        for sp in 1..=k {
            q.set_allowance(a(0), p(sp), 4);
        }
        q
    };
    let token = ShardedErc20::from_state(initial.clone());
    let script: Vec<(ProcessId, Erc20Op)> = (0..24)
        .map(|i| {
            (
                p(1 + (i % k)),
                Erc20Op::TransferFrom {
                    from: a(0),
                    to: a(1 + (i % k)),
                    value: 2,
                },
            )
        })
        .collect();
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: 12,
            ..BatchConfig::default()
        },
        schedule: ScheduleConfig {
            max_parallel_waves: 4,
        },
        ..PipelineConfig::default()
    };
    let run = run_script(&token, &script, &cfg);
    assert!(run.stats.serial_ops > 0, "hot row must spill serial");
    assert_eq!(token.snapshot(), sequential(&initial, &script));
    let spec = Erc20Spec::new(initial.clone());
    assert_eq!(run.log.replay(&spec).unwrap(), token.snapshot());
}

#[test]
fn scheduled_batches_drive_the_dynamic_protocol() {
    // The §7 composition: the pipeline's schedule feeds the dynamic
    // protocol's consensus-free lane one commuting wave per quiescence
    // barrier, and the replicated state converges to the same sequential
    // replay the local pipeline reaches.
    let n = 6;
    let initial = {
        let mut q = Erc20State::from_balances(vec![10; n]);
        q.set_allowance(a(0), p(4), 6);
        q
    };
    let script: Vec<(ProcessId, Erc20Op)> = vec![
        (p(0), Erc20Op::Transfer { to: a(3), value: 2 }),
        (p(1), Erc20Op::Transfer { to: a(5), value: 1 }),
        (p(2), Erc20Op::TotalSupply),
        (
            p(4),
            Erc20Op::TransferFrom {
                from: a(0),
                to: a(4),
                value: 5,
            },
        ),
        (
            p(0),
            Erc20Op::Approve {
                spender: p(4),
                value: 2,
            },
        ),
    ];
    let mut net = DynamicNetwork::new(n, initial.clone(), 11);
    let report = drive_dynamic(&mut net, &script, &ScheduleConfig::default());
    assert!(net.converged());
    assert_eq!(report.submitted, 4);
    assert_eq!(report.reads_local, 1);
    let expected = sequential(&initial, &script);
    for i in 0..n {
        assert_eq!(net.state_at(i), expected, "replica {i} diverged");
    }
    // The same script through the local pipeline reaches the same state.
    let token = ShardedErc20::from_state(initial);
    run_script(&token, &script, &PipelineConfig::default());
    assert_eq!(token.snapshot(), expected);
}
