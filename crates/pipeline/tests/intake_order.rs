//! Sharded-intake contracts: per-producer FIFO under backpressure, the
//! bounded-memory guarantee, and blocking-submit wakeups.
//!
//! The intake was resharded from one MPSC channel into per-producer
//! bounded queues; these tests pin the contracts that refactor must
//! preserve:
//!
//! * **Per-producer FIFO**: operations submitted through one client
//!   handle reach batches — and, when they mutually conflict, the
//!   commit log — in submission order, even when many producers race
//!   under backpressure.
//! * **Bounded memory**: the intake never buffers more than
//!   `queue_depth` operations; a full shard makes `try_submit` report
//!   full and `submit` block (and unblock once the engine drains).
//! * **Shutdown**: a dropped batcher fails producers instead of
//!   wedging them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tokensync_core::erc20::{Erc20Op, Erc20Spec, Erc20State};
use tokensync_core::shared::{ConcurrentToken, ShardedErc20};
use tokensync_pipeline::{intake, BatchConfig, Pipeline, PipelineConfig};
use tokensync_spec::{AccountId, ProcessId};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

#[test]
fn per_producer_fifo_survives_backpressure_stress() {
    // P producers, each submitting K self-conflicting ops (transfers out
    // of the producer's own account — every pair shares the sender
    // balance cell) through a deliberately tiny intake, so producers
    // block on backpressure constantly. Conflicting ops never reorder in
    // the schedule, so each producer's value sequence must come out of
    // the commit log exactly in submission order.
    const P: usize = 8;
    const K: usize = 200;
    let n = 2 * P;
    let initial = Erc20State::from_balances(vec![1_000_000; n]);
    let token = Arc::new(ShardedErc20::from_state(initial.clone()));
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: 16,
            queue_depth: 8, // shard cap 1 at 8 shards: maximal squeeze
            intake_shards: 8,
        },
        ..PipelineConfig::default()
    };
    let (client, handle) = Pipeline::spawn(Arc::clone(&token), cfg);
    crossbeam::scope(|s| {
        for t in 0..P {
            let client = client.clone();
            s.spawn(move |_| {
                for i in 0..K {
                    // Sender = the producer's own account; value encodes
                    // the submission index.
                    client
                        .submit(
                            p(t),
                            Erc20Op::Transfer {
                                to: a(P + t),
                                value: i as u64,
                            },
                        )
                        .expect("engine alive");
                }
            });
        }
    })
    .expect("producers panicked");
    drop(client);
    let run = handle.finish();
    assert_eq!(run.stats.ops as usize, P * K, "ops lost in the intake");

    // Extract each producer's committed value sequence.
    let mut per_producer: Vec<Vec<u64>> = vec![Vec::new(); P];
    for entry in run.log.entries() {
        if let Erc20Op::Transfer { value, .. } = entry.op {
            per_producer[entry.caller.index()].push(value);
        }
    }
    for (t, values) in per_producer.iter().enumerate() {
        let expected: Vec<u64> = (0..K as u64).collect();
        assert_eq!(
            values, &expected,
            "producer {t} ops were reordered by the intake"
        );
    }
    // And the log is a real linearization of what the token did.
    let replayed = run
        .log
        .replay(&Erc20Spec::new(initial))
        .expect("responses consistent");
    assert_eq!(replayed, token.state_snapshot());
}

#[test]
fn intake_buffering_is_bounded_by_queue_depth() {
    // Regression pin for the backpressure contract: with no consumer
    // draining, the intake accepts at most queue_depth operations in
    // total — every extra try_submit reports full on every shard.
    let depth = 16;
    let shards = 4;
    let (client, batcher) = intake::<Erc20Op>(BatchConfig {
        max_ops: 1024,
        queue_depth: depth,
        intake_shards: shards,
    });
    // One handle per shard (clones assign round-robin).
    let handles: Vec<_> = (0..shards - 1).map(|_| client.clone()).collect();
    let all: Vec<_> = std::iter::once(&client).chain(handles.iter()).collect();
    let mut accepted = 0usize;
    for round in 0..depth {
        for h in &all {
            if h.try_submit(p(0), Erc20Op::TotalSupply).unwrap() {
                accepted += 1;
            }
        }
        let _ = round;
    }
    assert_eq!(
        accepted, depth,
        "intake must saturate at exactly queue_depth"
    );
    assert_eq!(batcher.queued(), depth);
    for h in &all {
        assert_eq!(
            h.try_submit(p(0), Erc20Op::TotalSupply).unwrap(),
            false,
            "every shard must report full at the bound"
        );
    }
    drop(batcher);
}

#[test]
fn blocked_submit_unblocks_when_the_consumer_drains() {
    let (client, mut batcher) = intake(BatchConfig {
        max_ops: 2,
        queue_depth: 1, // one shard, cap 1
        intake_shards: 1,
    });
    client.submit(p(0), Erc20Op::TotalSupply).unwrap();
    let submitted = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&submitted);
    let producer = std::thread::spawn(move || {
        // Shard is full: this blocks until the batcher drains.
        client.submit(p(0), Erc20Op::TotalSupply).unwrap();
        flag.store(true, Ordering::SeqCst);
        drop(client);
    });
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        !submitted.load(Ordering::SeqCst),
        "submit into a full shard must block"
    );
    // Draining frees the slot and wakes the producer.
    let mut got = 0usize;
    while let Some(batch) = batcher.next_batch() {
        got += batch.ops.len();
    }
    producer.join().expect("producer panicked");
    assert!(submitted.load(Ordering::SeqCst));
    assert_eq!(got, 2);
}

#[test]
fn producers_blocked_on_backpressure_fail_fast_on_shutdown() {
    let (client, batcher) = intake(BatchConfig {
        max_ops: 4,
        queue_depth: 1,
        intake_shards: 1,
    });
    client.submit(p(0), Erc20Op::TotalSupply).unwrap();
    let producer = std::thread::spawn(move || {
        // Blocks on the full shard until the batcher drop closes the
        // intake — must then error out, not wedge.
        client.submit(p(0), Erc20Op::TotalSupply)
    });
    std::thread::sleep(Duration::from_millis(20));
    drop(batcher);
    let result = producer.join().expect("producer panicked");
    assert!(result.is_err(), "shutdown must fail blocked producers");
}

#[test]
fn interleaved_producers_still_linearize_through_the_engine() {
    // Many producers over few shards (handles share shards) with mixed
    // conflicting/commuting traffic: everything must still commit
    // exactly once and replay.
    const P: usize = 6;
    const K: usize = 50;
    let n = 2 * P;
    let initial = Erc20State::from_balances(vec![1000; n]);
    let token = Arc::new(ShardedErc20::from_state(initial.clone()));
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: 8,
            queue_depth: 12,
            intake_shards: 3,
        },
        ..PipelineConfig::default()
    };
    let (client, handle) = Pipeline::spawn(Arc::clone(&token), cfg);
    crossbeam::scope(|s| {
        for t in 0..P {
            let client = client.clone();
            s.spawn(move |_| {
                for i in 0..K {
                    let op = if i % 7 == 3 {
                        // Cross traffic into a shared hot account.
                        Erc20Op::Transfer { to: a(0), value: 1 }
                    } else {
                        Erc20Op::Transfer {
                            to: a(P + t),
                            value: i as u64,
                        }
                    };
                    client.submit(p(t), op).expect("engine alive");
                }
            });
        }
    })
    .expect("producers panicked");
    drop(client);
    let run = handle.finish();
    assert_eq!(run.stats.ops as usize, P * K);
    let replayed = run
        .log
        .replay(&Erc20Spec::new(initial))
        .expect("responses consistent");
    assert_eq!(replayed, token.state_snapshot());
    // Per-producer FIFO of the conflicting subsequence (all ops from one
    // producer touch its own balance cell, so order is preserved).
    for t in 0..P {
        let values: Vec<u64> = run
            .log
            .entries()
            .iter()
            .filter(|e| e.caller == p(t))
            .filter_map(|e| match e.op {
                Erc20Op::Transfer { to, value } if to == a(P + t) => Some(value),
                _ => None,
            })
            .collect();
        let expected: Vec<u64> = (0..K as u64).filter(|i| i % 7 != 3).collect();
        assert_eq!(values, expected, "producer {t} reordered");
    }
}
