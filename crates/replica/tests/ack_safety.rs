//! Ack safety under faults, checked after every single delivery: the
//! simulated network is stepped one message at a time (`Cluster::step`)
//! through seeded drops, duplicates, reorders and a follower's crash and
//! restart, and after each step
//!
//! - no follower's acknowledged position (as the primary records it)
//!   exceeds what that follower's store holds fsynced,
//! - the primary's durability claim never exceeds its own fsynced
//!   watermark,
//! - a follower reports its store's watermark as its durable position;
//!
//! and after a failover the winner's epoch starts at a position its
//! store holds fsynced, covering every quorum-claimed operation.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::collection::vec;
use proptest::prelude::*;
use tokensync_core::erc20::{Erc20Op, Erc20State};
use tokensync_core::shared::ShardedErc20;
use tokensync_net::FaultPlan;
use tokensync_pipeline::{BatchConfig, PipelineConfig};
use tokensync_replica::{AckMode, Cluster, ReplicaConfig};
use tokensync_spec::{AccountId, ProcessId};

static NEXT: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tokensync-replica-ack-safety-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

const ACCOUNTS: usize = 8;

fn transfers(count: usize, shift: usize) -> Vec<(ProcessId, Erc20Op)> {
    (0..count)
        .map(|i| {
            let from = (i + shift) % ACCOUNTS;
            (
                ProcessId::new(from),
                Erc20Op::Transfer {
                    to: AccountId::new((from + 1) % ACCOUNTS),
                    value: 1,
                },
            )
        })
        .collect()
}

/// The per-step invariants.
fn check(c: &Cluster<ShardedErc20>) {
    let lead = c.node(c.primary());
    prop_assert!(
        lead.durable_seq() <= lead.local_durable_seq(),
        "claim {} passed the primary's fsynced {}",
        lead.durable_seq(),
        lead.local_durable_seq()
    );
    for i in 0..c.n() {
        let node = c.node(i);
        if node.is_primary() {
            continue;
        }
        let acked = lead.peer_acked(i).expect("the primary tracks its peers");
        prop_assert!(
            acked <= node.local_durable_seq(),
            "follower {i} acked {acked} past its fsynced {}",
            node.local_durable_seq()
        );
        // The watermark moves under the reads (the fsyncs run on the
        // stores' own threads): bracket the reported position.
        let before = node.local_durable_seq();
        let reported = node.durable_seq();
        prop_assert!(before <= reported && reported <= node.local_durable_seq());
    }
}

/// Delivers until quiescence, checking after every delivery.
fn step_to_quiescence(c: &mut Cluster<ShardedErc20>) {
    let mut steps = 0u64;
    while c.step() {
        check(c);
        steps += 1;
        prop_assert!(steps < 1_000_000, "livelock");
    }
}

/// One seeded run: rounds of traffic stepped through the faults, a
/// failover, and a round under the new primary.
#[allow(clippy::too_many_arguments)]
fn run(
    rounds: &[usize],
    quorum: bool,
    seed: u64,
    fault_seed: u64,
    drop_p: f64,
    dup_p: f64,
    victim: usize,
    crash_at: u64,
    down_for: u64,
) {
    let cfg = ReplicaConfig {
        ack_mode: if quorum {
            AckMode::Quorum
        } else {
            AckMode::Async
        },
        pipeline: PipelineConfig {
            batch: BatchConfig {
                max_ops: 8,
                ..BatchConfig::default()
            },
            ..PipelineConfig::default()
        },
        ..ReplicaConfig::default()
    };
    let genesis = Erc20State::from_balances(vec![1_000; ACCOUNTS]);
    let dir = temp_dir();
    let mut c: Cluster<ShardedErc20> =
        Cluster::new(&dir, 3, &genesis, cfg, seed).expect("build cluster");
    c.set_fault_plan(
        FaultPlan::new(fault_seed)
            .drop_probability(drop_p)
            .duplicate_probability(dup_p)
            .crash_at(crash_at, victim)
            .restart_at(crash_at + down_for, victim),
    );
    for (k, &len) in rounds.iter().enumerate() {
        c.serve(&transfers(len, k));
        c.kick();
        step_to_quiescence(&mut c);
    }

    // Failover: the winner is the live follower with the longest log,
    // and its epoch starts where that log ends.
    let claimed = c.durable_seq();
    let start = (0..c.n())
        .filter(|&i| i != c.primary() && !c.is_crashed(i))
        .map(|i| c.node(i).next_seq())
        .max()
        .expect("the victim restarted before quiescence");
    let winner = c.fail_over();
    prop_assert_eq!(c.node(winner).next_seq(), start);
    prop_assert!(
        c.node(winner).local_durable_seq() >= start,
        "the new epoch starts at {start}, past the fsynced {}",
        c.node(winner).local_durable_seq()
    );
    if quorum {
        prop_assert!(start >= claimed, "claimed {claimed}, survived {start}");
    }
    check(&c);

    c.serve(&transfers(rounds[0], 0));
    c.kick();
    step_to_quiescence(&mut c);
    drop(c);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

proptest! {
    /// Seeded weather and a follower crash/restart, stepped one
    /// delivery at a time, both ack modes.
    #[test]
    fn acks_never_outrun_a_follower_fsync(
        rounds in vec(1usize..40, 1..4),
        mode in 0u8..2,
        seed in 0u64..1 << 32,
        fault_seed in 0u64..1 << 32,
        drop_pct in 0u32..25,
        dup_pct in 0u32..25,
        victim in 1usize..3,
        crash_at in 0u64..400,
        down_for in 1u64..400,
    ) {
        run(
            &rounds,
            mode == 1,
            seed,
            fault_seed,
            f64::from(drop_pct) / 100.0,
            f64::from(dup_pct) / 100.0,
            victim,
            crash_at,
            down_for,
        );
    }
}
