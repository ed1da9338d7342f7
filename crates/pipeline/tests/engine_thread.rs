//! One applying thread, in commit order, which is submission order.
//!
//! The thread that processes a batch applies every op of it — the caller
//! under `run_script`, the engine thread under `Pipeline::spawn*` — in
//! the order the commit log records, and that is the order the ops were
//! submitted. A recording object logs the thread and the op of every
//! `apply`, and the size of every `apply_batch`; the tests compare that
//! record with the commit log and the script on commuting batches, on a
//! batch whose conflict plan has wide waves and a serial lane, and on a
//! spawned engine, which hands each batch to the object in one call.

use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_pipeline::schedule::schedule;
use tokensync_pipeline::{
    run_script, BatchConfig, CommitLog, Pipeline, PipelineConfig, ScheduleConfig, Scheduler,
};
use tokensync_spec::{AccountId, ProcessId};

/// An ERC20 object that records `(thread, op)` for every op it
/// applies, and the length of every `apply_batch`.
struct Recording {
    token: ShardedErc20,
    applied: Mutex<Vec<(ThreadId, Erc20Op)>>,
    batches: Mutex<Vec<usize>>,
}

impl Recording {
    fn new(accounts: usize) -> Self {
        Self {
            token: ShardedErc20::from_state(Erc20State::from_balances(vec![100; accounts])),
            applied: Mutex::new(Vec::new()),
            batches: Mutex::new(Vec::new()),
        }
    }

    /// The threads that applied ops, and the ops in the order applied.
    fn record(&self) -> (Vec<ThreadId>, Vec<Erc20Op>) {
        self.applied.lock().unwrap().iter().cloned().unzip()
    }
}

impl ConcurrentObject for Recording {
    type Op = Erc20Op;
    type Resp = Erc20Resp;
    type State = Erc20State;

    fn apply(&self, process: ProcessId, op: &Erc20Op) -> Erc20Resp {
        let resp = self.token.apply(process, op);
        self.applied
            .lock()
            .unwrap()
            .push((thread::current().id(), op.clone()));
        resp
    }
    /// Records the batch, then applies it in one call: for a served
    /// object, one acquisition of its lock.
    fn apply_batch(&self, ops: &[(ProcessId, Erc20Op)]) -> Vec<Erc20Resp> {
        self.batches.lock().unwrap().push(ops.len());
        let me = thread::current().id();
        let mut applied = self.applied.lock().unwrap();
        applied.extend(ops.iter().map(|(_, op)| (me, op.clone())));
        self.token.apply_batch(ops)
    }
    fn snapshot(&self) -> Erc20State {
        self.token.snapshot()
    }
}

fn transfer(from: usize, to: usize) -> (ProcessId, Erc20Op) {
    (
        ProcessId::new(from),
        Erc20Op::Transfer {
            to: AccountId::new(to),
            value: 1,
        },
    )
}

fn logged_ops(log: &CommitLog<Erc20Op, Erc20Resp>) -> Vec<Erc20Op> {
    log.entries().iter().map(|e| e.op.clone()).collect()
}

fn script_ops(script: &[(ProcessId, Erc20Op)]) -> Vec<Erc20Op> {
    script.iter().map(|(_, op)| op.clone()).collect()
}

#[test]
fn bypassed_batches_apply_on_the_caller_in_commit_order() {
    // 4 096 owner-disjoint transfers: every batch commutes.
    let script: Vec<_> = (0..4096).map(|i| transfer(i, 4096 + i)).collect();
    let object = Recording::new(8192);
    let cfg = PipelineConfig::default();
    let mut monitor = Scheduler::new();
    assert!(
        script
            .chunks(cfg.batch.max_ops)
            .all(|batch| monitor.batch_commutes(batch)),
        "every batch must commute"
    );
    let run = run_script(&object, &script, &cfg);
    // The monitor reads batch 0 of the 4, and finds it commuting.
    assert_eq!(run.stats.bypassed_ops, 1024);
    assert_eq!(run.stats.bypass_rate(), 1.0);

    let (threads, ops) = object.record();
    let caller = thread::current().id();
    assert!(
        threads.iter().all(|t| *t == caller),
        "an op left the caller"
    );
    assert_eq!(ops, logged_ops(&run.log), "execution order is commit order");
    assert_eq!(ops, script_ops(&script), "commit order is submission order");
}

#[test]
fn scheduled_batches_apply_on_the_caller_in_commit_order() {
    // Two rounds of 128 sources (two waves of 128), then one source
    // sending 12 times: its chain runs past `max_parallel_waves` into
    // the serial lane.
    let round = |r: usize| (0..128).map(move |i| transfer(i, 256 + i + r));
    let script: Vec<_> = round(0)
        .chain(round(1))
        .chain((0..12).map(|i| transfer(200, 400 + i)))
        .collect();
    let plan = schedule(&script, &ScheduleConfig::default());
    assert!(plan.waves.iter().filter(|w| w.len() >= 64).count() >= 2);
    assert!(!plan.serial.is_empty(), "the chain must spill serial");

    let object = Recording::new(512);
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: script.len(),
            ..BatchConfig::default()
        },
        ..PipelineConfig::default()
    };
    let run = run_script(&object, &script, &cfg);
    assert_eq!(run.stats.batches, 1);
    assert_eq!(run.stats.bypassed_ops, 0, "the monitor must see conflicts");
    assert!(run.stats.serial_ops > 0);

    let (threads, ops) = object.record();
    let caller = thread::current().id();
    assert!(
        threads.iter().all(|t| *t == caller),
        "an op left the caller"
    );
    assert_eq!(ops, logged_ops(&run.log), "execution order is commit order");
    assert_eq!(ops, script_ops(&script), "commit order is submission order");
}

#[test]
fn spawned_engine_applies_every_op_on_its_own_thread() {
    let object = Arc::new(Recording::new(8192));
    let (client, handle) =
        Pipeline::spawn_with_sink(Arc::clone(&object), PipelineConfig::default(), ());
    for i in 0..4096 {
        let (caller, op) = transfer(i % 64, 4096 + i);
        client.submit(caller, op).expect("engine alive");
    }
    drop(client);
    let (run, ()) = handle.finish();
    assert_eq!(run.stats.ops, 4096);

    let (threads, ops) = object.record();
    assert_eq!(ops, logged_ops(&run.log), "execution order is commit order");
    let engine = threads[0];
    assert!(
        threads.iter().all(|t| *t == engine),
        "ops applied on two threads"
    );
    assert_ne!(engine, thread::current().id(), "the caller applied an op");
}

#[test]
fn spawned_engine_applies_each_batch_in_one_call() {
    let object = Arc::new(Recording::new(8192));
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: 256,
            ..BatchConfig::default()
        },
        ..PipelineConfig::default()
    };
    let (client, handle) = Pipeline::spawn_with_sink(Arc::clone(&object), cfg, ());
    for i in 0..4096 {
        let (caller, op) = transfer(i % 64, 4096 + i);
        client.submit(caller, op).expect("engine alive");
    }
    drop(client);
    let (run, ()) = handle.finish();

    // The `Arc` forwards `apply_batch`: each batch of the log arrived
    // in one call, and no op was applied outside one.
    let logged: Vec<usize> = run
        .log
        .entries()
        .chunk_by(|x, y| x.batch == y.batch)
        .map(<[_]>::len)
        .collect();
    let calls: Vec<usize> = object.batches.lock().unwrap().clone();
    assert!(logged.len() > 1, "the run must cut several batches");
    assert_eq!(calls, logged, "one apply_batch per batch");
    let (_, ops) = object.record();
    assert_eq!(ops, logged_ops(&run.log), "no op applied outside a batch");
}
