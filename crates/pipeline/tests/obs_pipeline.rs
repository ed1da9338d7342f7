//! The recorder seam end to end: counters agree with [`PipelineStats`],
//! stage histograms fill, sampled batches leave span traces, the
//! spawned engine keeps its queue-depth gauges fresh, and a disabled
//! recorder records nothing.

use std::sync::Arc;

use tokensync_core::erc20::{Erc20Op, Erc20State};
use tokensync_core::shared::ShardedErc20;
use tokensync_obs::{Registry, Stage};
use tokensync_pipeline::{run_script_observed, BatchConfig, Pipeline, PipelineConfig, PipelineObs};
use tokensync_spec::{AccountId, ProcessId};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

fn disjoint_script(n: usize) -> (Erc20State, Vec<(ProcessId, Erc20Op)>) {
    let state = Erc20State::from_balances(vec![100; 2 * n]);
    let script = (0..n)
        .map(|i| {
            (
                p(i),
                Erc20Op::Transfer {
                    to: a(n + i),
                    value: 1,
                },
            )
        })
        .collect();
    (state, script)
}

fn small_cfg(max_ops: usize) -> PipelineConfig {
    PipelineConfig {
        batch: BatchConfig {
            max_ops,
            queue_depth: 256,
            intake_shards: 4,
        },
        ..PipelineConfig::default()
    }
}

#[test]
fn counters_agree_with_pipeline_stats() {
    let (state, script) = disjoint_script(128);
    let token = ShardedErc20::from_state(state);
    let reg = Registry::new();
    let obs = PipelineObs::new(&reg, 4).with_sampling(1, 4096);
    let run = run_script_observed(&token, &script, &small_cfg(16), &mut (), &obs);

    let snap = reg.snapshot();
    assert_eq!(
        snap.counter("tokensync_pipeline_batches_total"),
        run.stats.batches
    );
    assert_eq!(snap.counter("tokensync_pipeline_ops_total"), run.stats.ops);
    assert_eq!(
        snap.counter("tokensync_pipeline_bypass_engaged_total"),
        run.stats.bypassed_batches
    );

    // One whole-batch latency sample per batch.
    let batch_ns = obs.batch_latency().expect("enabled recorder");
    assert_eq!(batch_ns.count, run.stats.batches);
    assert!(batch_ns.p999 >= batch_ns.p50);

    // Every batch took *some* commit+seal path.
    let commit = obs.stage_latency(Stage::Commit).unwrap();
    let seal = obs.stage_latency(Stage::Seal).unwrap();
    assert_eq!(commit.count, run.stats.batches);
    assert_eq!(seal.count, run.stats.batches);

    // The exposition page carries the whole catalog.
    let page = reg.render_text();
    for name in [
        "tokensync_pipeline_batches_total",
        "tokensync_pipeline_ops_total",
        "tokensync_pipeline_stage_ns{stage=\"execute\",quantile=\"0.99\"}",
        "tokensync_pipeline_batch_ns_count",
        "tokensync_pipeline_queue_depth{shard=\"3\"}",
    ] {
        assert!(page.contains(name), "missing {name} in:\n{page}");
    }
}

#[test]
fn sampled_batches_leave_causally_ordered_spans() {
    let (state, script) = disjoint_script(64);
    let token = ShardedErc20::from_state(state);
    let reg = Registry::new();
    // Sample everything so each batch is traceable.
    let obs = PipelineObs::new(&reg, 1).with_sampling(1, 4096);
    let run = run_script_observed(&token, &script, &small_cfg(16), &mut (), &obs);
    let ring = obs.span_ring().expect("enabled recorder");
    assert_eq!(ring.batches().len() as u64, run.stats.batches);
    for batch in ring.batches() {
        let trace = ring.trace(batch);
        // Every batch takes the one path: monitor → execute → commit → seal.
        let stages: Vec<Stage> = trace.iter().map(|e| e.stage).collect();
        assert_eq!(
            stages,
            vec![Stage::Schedule, Stage::Execute, Stage::Commit, Stage::Seal],
            "batch {batch}"
        );
        // Causally linked: each stage starts where the previous ended.
        for pair in trace.windows(2) {
            assert!(pair[0].start_ns + pair[0].dur_ns <= pair[1].start_ns + 1);
        }
        let dump = ring.render_trace(batch);
        assert!(dump.contains("schedule"));
    }
}

#[test]
fn spawned_engine_records_intake_wait_and_queue_depths() {
    let (state, script) = disjoint_script(64);
    let token = Arc::new(ShardedErc20::from_state(state));
    let reg = Registry::new();
    let obs = PipelineObs::new(&reg, 4).with_sampling(1, 4096);
    let (client, handle) =
        Pipeline::spawn_observed(Arc::clone(&token), small_cfg(8), (), obs.clone());
    for (caller, op) in script {
        client.submit(caller, op).expect("engine alive");
    }
    drop(client);
    let (run, ()) = handle.finish();
    assert_eq!(run.stats.ops, 64);

    // Every batch waited on the intake (possibly 0ns) before being cut.
    let wait = obs.stage_latency(Stage::IntakeWait).expect("enabled");
    assert_eq!(wait.count, run.stats.batches);
    // Gauges exist for every shard and read as drained at shutdown.
    let snap = reg.snapshot();
    for shard in 0..4 {
        let key = format!("tokensync_pipeline_queue_depth{{shard=\"{shard}\"}}");
        assert_eq!(snap.gauge(&key), 0, "{key} after drain");
    }
}

#[test]
fn disabled_recorder_is_inert() {
    let (state, script) = disjoint_script(32);
    let token = ShardedErc20::from_state(state);
    let obs = PipelineObs::disabled();
    assert!(!obs.is_enabled());
    let run = run_script_observed(&token, &script, &small_cfg(8), &mut (), &obs);
    assert_eq!(run.stats.ops, 32);
    assert!(obs.span_ring().is_none());
    assert!(obs.batch_latency().is_none());
    assert!(obs.stage_latency(Stage::Execute).is_none());
}
