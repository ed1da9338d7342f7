//! The assembled engine: ingest → analyze → schedule → execute → commit,
//! generic over every footprinted standard.
//!
//! Two entry points share one batch-processing core:
//!
//! * [`run_script`] — synchronous: chunk a pre-built operation stream
//!   into batches and push each through the stages on the calling thread
//!   (plus the wave worker pool). Deterministic, so the property suites
//!   and benchmarks use it.
//! * [`Pipeline::spawn`] — the serving shape: a background engine thread
//!   pulls batches from the bounded intake queue
//!   ([`IntakeClient::submit`] from any number of client threads),
//!   executes them, and appends to the commit log; dropping every client
//!   and calling [`PipelineHandle::finish`] drains the queue and returns
//!   the [`PipelineRun`].
//!
//! There is exactly **one** engine: the same schedule/execute/commit
//! machinery serves an ERC20 [`ShardedErc20`], an ERC721
//! [`ShardedErc721`] or an ERC1155 [`ShardedErc1155`] — the standard is
//! a type parameter, not a copy of the pipeline.
//!
//! [`ShardedErc20`]: tokensync_core::shared::ShardedErc20
//! [`ShardedErc721`]: tokensync_core::standards::erc721::ShardedErc721
//! [`ShardedErc1155`]: tokensync_core::standards::erc1155::ShardedErc1155

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tokensync_core::shared::ConcurrentObject;
use tokensync_obs::Stage;
use tokensync_spec::ProcessId;

use crate::batch::{intake, BatchConfig, Batcher, IntakeClient};
use crate::commit::{CommitLog, CommittedOp};
use crate::exec::{execute, execute_unordered, ExecConfig};
use crate::obs::PipelineObs;
use crate::schedule::{Schedule, ScheduleConfig, Scheduler};

/// A durability hook on the commit stage: the engine hands every batch's
/// committed entries to the sink, as one record, the moment they enter
/// the log, and signals each batch boundary (the group-commit cut).
///
/// The unit sink `()` is the volatile engine; `tokensync-store`'s
/// `Store` implements this trait to stream the commit log into a
/// write-ahead log with snapshots.
pub trait CommitSink<T: ConcurrentObject + ?Sized> {
    /// One committed record: a whole batch in commit order (waves in
    /// order, then the serial lane). `entries` is the contiguous slice
    /// of the commit log the batch appended.
    fn wave_committed(&mut self, token: &T, entries: &[CommittedOp<T::Op, T::Resp>]);

    /// [`wave_committed`](CommitSink::wave_committed) plus the routing
    /// tickets the producers attached via
    /// [`IntakeClient::submit_tagged`]: `tickets` parallels `entries`
    /// (same permutation into commit order), or is empty when the batch
    /// carried no tickets (the synchronous [`run_script`] paths). A
    /// response-routing sink overrides this to resolve per-request
    /// futures at commit; every other sink keeps the default,
    /// which drops the tickets and forwards to `wave_committed` — so
    /// ack-at-commit semantics cost existing sinks nothing.
    ///
    /// [`IntakeClient::submit_tagged`]: crate::batch::IntakeClient::submit_tagged
    fn wave_committed_tagged(
        &mut self,
        token: &T,
        entries: &[CommittedOp<T::Op, T::Resp>],
        tickets: &[u64],
    ) {
        let _ = tickets;
        self.wave_committed(token, entries);
    }

    /// The batch boundary after the batch's record committed — where
    /// group-commit durability syncs and snapshot policies trigger.
    /// `token` is quiescent here (no wave in flight), so a
    /// [`snapshot`](ConcurrentObject::snapshot) taken now corresponds
    /// exactly to the log prefix.
    ///
    /// A seal is an *acknowledgement* boundary, not necessarily a
    /// durability one: a pipelined sink may hand the actual fsync to a
    /// background thread and return immediately. The gap is observable
    /// through [`CommitSink::durable_seq`].
    fn batch_sealed(&mut self, token: &T, batch: u64);

    /// The sink's durable watermark, if it maintains one: the highest
    /// global sequence number guaranteed to survive a crash. `None` for
    /// sinks without durability (the unit sink, pure observers). The
    /// engine samples this at the end of a run into
    /// [`PipelineStats::durable_seq`], exposing the sealed-vs-durable
    /// window without a store round trip.
    fn durable_seq(&self) -> Option<u64> {
        None
    }

    /// The spawned engine found its intake dry (or closed): a sink with
    /// work that ripens on its own — acks held for the durable
    /// watermark — advances it here. `None`: nothing pending, the
    /// engine parks until an operation arrives. `Some(nap)`: the engine
    /// waits for an arrival for at most `nap`, then, still dry, calls
    /// again; once the intake has closed it keeps calling until `None`,
    /// so nothing is pending when the run is returned.
    ///
    /// The engine calls this on the sink it was handed, not through
    /// wrappers: a sink that needs it is the outermost one. A busy
    /// engine never calls it — whatever must also advance under load
    /// advances in the commit and seal callbacks.
    fn idle(&mut self) -> Option<Duration> {
        None
    }
}

/// The volatile engine: no durability.
impl<T: ConcurrentObject + ?Sized> CommitSink<T> for () {
    fn wave_committed(&mut self, _token: &T, _entries: &[CommittedOp<T::Op, T::Resp>]) {}
    fn batch_sealed(&mut self, _token: &T, _batch: u64) {}
}

/// A borrowed sink is a sink: lets callers keep ownership (e.g. of a
/// `Store`) while an engine run observes commits through it.
impl<T: ConcurrentObject + ?Sized, S: CommitSink<T> + ?Sized> CommitSink<T> for &mut S {
    fn wave_committed(&mut self, token: &T, entries: &[CommittedOp<T::Op, T::Resp>]) {
        (**self).wave_committed(token, entries);
    }
    fn wave_committed_tagged(
        &mut self,
        token: &T,
        entries: &[CommittedOp<T::Op, T::Resp>],
        tickets: &[u64],
    ) {
        (**self).wave_committed_tagged(token, entries, tickets);
    }
    fn batch_sealed(&mut self, token: &T, batch: u64) {
        (**self).batch_sealed(token, batch);
    }
    fn durable_seq(&self) -> Option<u64> {
        (**self).durable_seq()
    }
    fn idle(&mut self) -> Option<Duration> {
        (**self).idle()
    }
}

/// Adaptive-bypass policy: when the engine's measured conflict density
/// is low it *probes* each batch ([`Scheduler::batch_commutes`]) and, on
/// a clean probe, routes the batch straight to the object — no wave
/// construction, no per-wave barriers — committing in submission order.
/// The probe runs **before** anything executes, so a failed check costs
/// one prefix scan and the batch simply takes the full scheduled path
/// from its intake buffer: no speculative effect ever needs undoing, and
/// no response is emitted twice.
///
/// [`Scheduler::batch_commutes`]: crate::schedule::Scheduler::batch_commutes
#[derive(Clone, Copy, Debug)]
pub struct BypassConfig {
    /// Master switch; `false` forces every batch through the scheduler.
    pub enabled: bool,
    /// The engine probes a batch only while its conflict-density EWMA is
    /// at or below this threshold — once traffic turns contended the
    /// probe's prefix scans stop being paid at all, and the bypass
    /// re-engages only after the density decays back down.
    pub max_density: f64,
    /// EWMA smoothing factor in `(0, 1]`: weight of the newest batch's
    /// measured density (conflict hits per op on the scheduled path, 0
    /// on a bypassed batch).
    pub alpha: f64,
}

impl Default for BypassConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            max_density: 0.05,
            alpha: 0.3,
        }
    }
}

/// Full engine configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineConfig {
    /// Intake batching policy.
    pub batch: BatchConfig,
    /// Wave scheduling policy.
    pub schedule: ScheduleConfig,
    /// Wave execution policy.
    pub exec: ExecConfig,
    /// Adaptive-bypass policy.
    pub bypass: BypassConfig,
}

/// Aggregate counters over every batch an engine processed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PipelineStats {
    /// Batches cut and executed.
    pub batches: u64,
    /// Operations committed.
    pub ops: u64,
    /// Ops executed in parallel waves.
    pub parallel_ops: u64,
    /// Ops funneled through the serial lane.
    pub serial_ops: u64,
    /// Parallel waves executed (across all batches). A bypassed batch
    /// counts as one wave — it *is* one all-commuting wave.
    pub waves: u64,
    /// Contention proxy summed over batches (see
    /// [`Schedule::conflicts`]).
    pub conflicts: u64,
    /// Batches the adaptive bypass routed around the scheduler (probe
    /// certified all-commuting; executed unordered, committed in
    /// submission order).
    pub bypassed_batches: u64,
    /// Operations committed through the bypass path.
    pub bypassed_ops: u64,
    /// Probes that found a conflict: the batch was mispredicted as
    /// low-conflict and fell back to the full scheduled path (from its
    /// intake buffer — nothing had executed yet).
    pub bypass_aborts: u64,
    /// `CommitSink::wave_committed` records emitted: one per non-empty
    /// batch.
    pub commit_records: u64,
    /// The sink's [`durable_seq`](CommitSink::durable_seq) sampled when
    /// the run ended — `None` for sinks without one. Compared against
    /// [`ops`](Self::ops), this is the sealed-vs-durable window a
    /// pipelined group-commit store leaves open at the end of a run
    /// (close or flush the store to shrink it to zero).
    pub durable_seq: Option<u64>,
}

impl PipelineStats {
    /// Mean ops per parallel wave over the whole run — the engine's
    /// measured wave parallelism. A fully commuting stream approaches the
    /// batch size; a fully conflicting stream approaches 1.
    pub fn wave_parallelism(&self) -> f64 {
        if self.waves == 0 {
            return 0.0;
        }
        self.parallel_ops as f64 / self.waves as f64
    }

    /// Fraction of ops that needed the serial lane.
    pub fn serial_fraction(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.serial_ops as f64 / self.ops as f64
    }

    /// Fraction of batches the bypass carried.
    pub fn bypass_rate(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.bypassed_batches as f64 / self.batches as f64
    }

    fn absorb(&mut self, s: &Schedule) {
        self.batches += 1;
        self.ops += s.ops() as u64;
        self.parallel_ops += s.parallel_ops() as u64;
        self.serial_ops += s.serial.len() as u64;
        self.waves += s.waves.len() as u64;
        self.conflicts += s.conflicts as u64;
    }

    fn absorb_bypass(&mut self, ops: usize) {
        self.batches += 1;
        self.ops += ops as u64;
        self.parallel_ops += ops as u64;
        self.waves += 1;
        self.bypassed_batches += 1;
        self.bypassed_ops += ops as u64;
    }
}

/// Result of a completed engine run: the linearization record plus the
/// scheduling counters.
#[derive(Clone, Debug)]
pub struct PipelineRun<Op, Resp> {
    /// The committed linearization.
    pub log: CommitLog<Op, Resp>,
    /// Scheduling/execution counters.
    pub stats: PipelineStats,
}

impl<Op, Resp> Default for PipelineRun<Op, Resp> {
    fn default() -> Self {
        Self {
            log: CommitLog::default(),
            stats: PipelineStats::default(),
        }
    }
}

/// The engine's retained per-loop state: the reusable scheduling context
/// (registries + footprint buffer — the reason analyze/schedule allocate
/// nothing per op) and the conflict-density EWMA the adaptive bypass
/// steers by. One per serving loop; batches of one loop always flow
/// through the same core, so the predictor sees the full traffic
/// history.
struct EngineCore {
    scheduler: Scheduler,
    /// EWMA of measured conflict density (conflict hits per op), in
    /// `[0, 1]`. Starts at 0 — optimistic, so the first batch of a
    /// stream is probed and a conflicting stream pays exactly one
    /// aborted probe before the bypass disengages.
    density: f64,
}

impl EngineCore {
    fn new() -> Self {
        Self {
            scheduler: Scheduler::new(),
            density: 0.0,
        }
    }

    fn observe(&mut self, alpha: f64, batch_density: f64) {
        self.density = (1.0 - alpha) * self.density + alpha * batch_density.clamp(0.0, 1.0);
    }
}

/// One batch through analyze → (bypass | schedule → execute) → commit,
/// streaming each committed record (and the batch seal) into `sink`.
/// `obs` is the recorder seam: disabled, each instrumentation point is
/// one inlined branch. `tickets` parallels `ops` in submission order
/// (empty when the batch carries none); the sink sees it permuted into
/// the same commit order as the entries it receives.
fn process_batch<T: ConcurrentObject + ?Sized, K: CommitSink<T>>(
    core: &mut EngineCore,
    token: &T,
    seq: u64,
    ops: &[(ProcessId, T::Op)],
    tickets: &[u64],
    cfg: &PipelineConfig,
    run: &mut PipelineRun<T::Op, T::Resp>,
    sink: &mut K,
    obs: &PipelineObs,
) {
    let mut clock = obs.batch_clock(seq);
    // Speculation gate: probe only while measured density is low, and
    // execute unordered only on a *certified* all-commuting batch. The
    // certification precedes every effect, so the fallback below re-runs
    // the identical buffered ops with nothing to roll back.
    if cfg.bypass.enabled && core.density <= cfg.bypass.max_density && !ops.is_empty() {
        if core.scheduler.batch_commutes(ops) {
            clock.lap(Stage::BypassProbe);
            obs.bypass_engaged();
            let responses = execute_unordered(token, ops, &cfg.exec);
            clock.lap(Stage::Execute);
            run.stats.absorb_bypass(ops.len());
            core.observe(cfg.bypass.alpha, 0.0);
            let start = run.log.append_sequential(seq, ops, &responses);
            run.stats.commit_records += 1;
            clock.lap(Stage::Commit);
            // The bypass commits in submission order, so the tickets
            // already align with the appended entries.
            sink.wave_committed_tagged(token, &run.log.entries()[start..], tickets);
            sink.batch_sealed(token, seq);
            clock.lap(Stage::Seal);
            clock.finish(ops.len());
            return;
        }
        // Misprediction caught before execution: fall through to the
        // scheduled path on the same buffered batch.
        run.stats.bypass_aborts += 1;
        clock.lap(Stage::BypassProbe);
        obs.bypass_aborted();
    }
    let plan = core.scheduler.schedule(ops, &cfg.schedule);
    clock.lap(Stage::Schedule);
    let responses = execute(token, ops, &plan, &cfg.exec);
    clock.lap(Stage::Execute);
    run.stats.absorb(&plan);
    core.observe(
        cfg.bypass.alpha,
        plan.conflicts as f64 / ops.len().max(1) as f64,
    );
    let start = run.log.append_batch(seq, ops, &responses, &plan);
    clock.lap(Stage::Commit);
    // The appended slice is waves in order, then the serial lane, and
    // reaches the sink as one record for the whole batch. The tickets
    // follow the entries through the same permutation so `tagged[i]`
    // still names `committed[i]`'s producer.
    let committed = &run.log.entries()[start..];
    let tagged: Vec<u64> = if tickets.is_empty() {
        Vec::new()
    } else {
        plan.commit_order().map(|idx| tickets[idx]).collect()
    };
    if !committed.is_empty() {
        sink.wave_committed_tagged(token, committed, &tagged);
        run.stats.commit_records += 1;
    }
    sink.batch_sealed(token, seq);
    clock.lap(Stage::Seal);
    clock.finish(ops.len());
}

/// Synchronously executes `script` through the pipeline stages against
/// `token`, cutting batches of [`BatchConfig::max_ops`] (the stream is
/// already complete, so the intake never runs dry before the end).
///
/// # Example
///
/// ```
/// use tokensync_core::erc20::{Erc20Op, Erc20State};
/// use tokensync_core::shared::ShardedErc20;
/// use tokensync_pipeline::{run_script, PipelineConfig};
/// use tokensync_spec::{AccountId, ProcessId};
///
/// let token = ShardedErc20::from_state(Erc20State::from_balances(vec![5; 8]));
/// let script = vec![(ProcessId::new(0), Erc20Op::Transfer {
///     to: AccountId::new(1),
///     value: 2,
/// })];
/// let run = run_script(&token, &script, &PipelineConfig::default());
/// assert_eq!(run.log.len(), 1);
/// ```
pub fn run_script<T: ConcurrentObject + ?Sized>(
    token: &T,
    script: &[(ProcessId, T::Op)],
    cfg: &PipelineConfig,
) -> PipelineRun<T::Op, T::Resp> {
    run_script_with_sink(token, script, cfg, &mut ())
}

/// [`run_script`] with a durability [`CommitSink`] observing every
/// commit record and batch seal.
pub fn run_script_with_sink<T: ConcurrentObject + ?Sized, K: CommitSink<T>>(
    token: &T,
    script: &[(ProcessId, T::Op)],
    cfg: &PipelineConfig,
    sink: &mut K,
) -> PipelineRun<T::Op, T::Resp> {
    run_script_observed(token, script, cfg, sink, &PipelineObs::disabled())
}

/// [`run_script_with_sink`] with a [`PipelineObs`] recorder: per-stage
/// and whole-batch latency histograms, bypass counters and sampled
/// span traces land in the recorder's registry as the run executes.
/// Pass [`PipelineObs::disabled`] to record nothing (that is exactly
/// what the plain entry points do).
pub fn run_script_observed<T: ConcurrentObject + ?Sized, K: CommitSink<T>>(
    token: &T,
    script: &[(ProcessId, T::Op)],
    cfg: &PipelineConfig,
    sink: &mut K,
    obs: &PipelineObs,
) -> PipelineRun<T::Op, T::Resp> {
    let mut core = EngineCore::new();
    let mut run = PipelineRun::default();
    let size = cfg.batch.max_ops.max(1);
    for (seq, ops) in script.chunks(size).enumerate() {
        process_batch(
            &mut core,
            token,
            seq as u64,
            ops,
            &[],
            cfg,
            &mut run,
            sink,
            obs,
        );
    }
    run.stats.durable_seq = sink.durable_seq();
    run
}

/// Handle on a spawned engine: join it to collect the run.
#[derive(Debug)]
pub struct PipelineHandle<Op, Resp> {
    join: JoinHandle<PipelineRun<Op, Resp>>,
}

impl<Op, Resp> PipelineHandle<Op, Resp> {
    /// Waits for the engine to drain and stop (all [`IntakeClient`]s must
    /// be dropped first, or this blocks forever) and returns its run.
    ///
    /// # Panics
    ///
    /// Propagates a panic of the engine thread.
    pub fn finish(self) -> PipelineRun<Op, Resp> {
        self.join.join().expect("pipeline engine panicked")
    }
}

/// Handle on a spawned engine carrying a durability sink: join it to
/// collect the run *and* the sink (e.g. the store, ready to be closed
/// or queried for its watermark).
#[derive(Debug)]
pub struct SinkedPipelineHandle<Op, Resp, K> {
    join: JoinHandle<(PipelineRun<Op, Resp>, K)>,
}

impl<Op, Resp, K> SinkedPipelineHandle<Op, Resp, K> {
    /// Waits for the engine to drain and stop (all [`IntakeClient`]s must
    /// be dropped first, or this blocks forever); returns the run and
    /// gives the sink back.
    ///
    /// # Panics
    ///
    /// Propagates a panic of the engine thread.
    pub fn finish(self) -> (PipelineRun<Op, Resp>, K) {
        self.join.join().expect("pipeline engine panicked")
    }
}

/// The engine's serving shape.
pub struct Pipeline;

/// The engine thread body shared by the spawn shapes.
fn engine_loop<T: ConcurrentObject, K: CommitSink<T>>(
    token: &T,
    batcher: &mut Batcher<T::Op>,
    cfg: &PipelineConfig,
    sink: &mut K,
    obs: &PipelineObs,
) -> PipelineRun<T::Op, T::Resp> {
    let mut core = EngineCore::new();
    let mut run = PipelineRun::default();
    loop {
        // The wait for a batch is itself a stage: it is the intake
        // (queueing) component of an op's end-to-end latency.
        let waiting_since = obs.now();
        let Some(batch) = batcher.next_batch_or(|| sink.idle()) else {
            break;
        };
        obs.record_stage(batch.seq, Stage::IntakeWait, waiting_since);
        obs.sample_queue_depths(|i| batcher.shard_depth(i));
        process_batch(
            &mut core,
            token,
            batch.seq,
            &batch.ops,
            &batch.tickets,
            cfg,
            &mut run,
            sink,
            obs,
        );
    }
    // Nothing more will arrive: what the sink still holds ripens alone.
    while let Some(nap) = sink.idle() {
        std::thread::sleep(nap);
    }
    run.stats.durable_seq = sink.durable_seq();
    run
}

impl Pipeline {
    /// Spawns a background engine over `token`; returns the producer
    /// handle (clone it per client thread) and the engine handle.
    pub fn spawn<T: ConcurrentObject + 'static>(
        token: Arc<T>,
        cfg: PipelineConfig,
    ) -> (IntakeClient<T::Op>, PipelineHandle<T::Op, T::Resp>) {
        let (client, mut batcher) = intake(cfg.batch);
        let join = std::thread::spawn(move || {
            engine_loop(
                token.as_ref(),
                &mut batcher,
                &cfg,
                &mut (),
                &PipelineObs::disabled(),
            )
        });
        (client, PipelineHandle { join })
    }

    /// [`Pipeline::spawn`] with a durability [`CommitSink`]: the sink
    /// moves onto the engine thread (commit-stage callbacks run there)
    /// and is returned by [`SinkedPipelineHandle::finish`].
    pub fn spawn_with_sink<T, K>(
        token: Arc<T>,
        cfg: PipelineConfig,
        sink: K,
    ) -> (IntakeClient<T::Op>, SinkedPipelineHandle<T::Op, T::Resp, K>)
    where
        T: ConcurrentObject + 'static,
        K: CommitSink<T> + Send + 'static,
    {
        Self::spawn_observed(token, cfg, sink, PipelineObs::disabled())
    }

    /// [`Pipeline::spawn_with_sink`] with a [`PipelineObs`] recorder on
    /// the engine thread. The recorder handle is cloneable: keep one on
    /// the caller side to read the registry / span ring while the
    /// engine serves.
    pub fn spawn_observed<T, K>(
        token: Arc<T>,
        cfg: PipelineConfig,
        mut sink: K,
        obs: PipelineObs,
    ) -> (IntakeClient<T::Op>, SinkedPipelineHandle<T::Op, T::Resp, K>)
    where
        T: ConcurrentObject + 'static,
        K: CommitSink<T> + Send + 'static,
    {
        let (client, mut batcher) = intake(cfg.batch);
        let join = std::thread::spawn(move || {
            let run = engine_loop(token.as_ref(), &mut batcher, &cfg, &mut sink, &obs);
            (run, sink)
        });
        (client, SinkedPipelineHandle { join })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokensync_core::erc20::{Erc20Op, Erc20Spec, Erc20State};
    use tokensync_core::shared::{ConcurrentToken, ShardedErc20};
    use tokensync_spec::{check_linearizable, AccountId, ObjectType};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }

    fn small_cfg(max_ops: usize) -> PipelineConfig {
        PipelineConfig {
            batch: BatchConfig {
                max_ops,
                queue_depth: 256,
                ..BatchConfig::default()
            },
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn run_script_matches_sequential_replay() {
        let initial = Erc20State::from_balances(vec![5; 8]);
        let token = ShardedErc20::from_state(initial.clone());
        let script: Vec<(ProcessId, Erc20Op)> = (0..30)
            .map(|i| {
                (
                    p(i % 8),
                    Erc20Op::Transfer {
                        to: a((i + 3) % 8),
                        value: (i as u64) % 3,
                    },
                )
            })
            .collect();
        let run = run_script(&token, &script, &small_cfg(10));
        assert_eq!(run.stats.ops, 30);
        assert_eq!(run.stats.batches, 3);
        let spec = Erc20Spec::new(initial);
        let replayed = run.log.replay(&spec).expect("consistent responses");
        assert_eq!(replayed, token.state_snapshot());
        check_linearizable(&spec, &spec.initial_state(), &run.log.to_history())
            .expect("commit log linearizes");
    }

    #[test]
    fn disjoint_stream_reports_wave_parallelism_above_one() {
        let token = ShardedErc20::from_state(Erc20State::from_balances(vec![5; 32]));
        let script: Vec<(ProcessId, Erc20Op)> = (0..16)
            .map(|i| {
                (
                    p(i),
                    Erc20Op::Transfer {
                        to: a(16 + i),
                        value: 1,
                    },
                )
            })
            .collect();
        let run = run_script(&token, &script, &small_cfg(16));
        assert!(run.stats.wave_parallelism() > 1.0);
        assert_eq!(run.stats.serial_ops, 0);
        assert_eq!(run.stats.conflicts, 0);
    }

    #[test]
    fn spawned_engine_drains_and_commits_everything() {
        let initial = Erc20State::from_balances(vec![100; 4]);
        let token = Arc::new(ShardedErc20::from_state(initial.clone()));
        let (client, handle) = Pipeline::spawn(Arc::clone(&token), small_cfg(8));
        crossbeam::scope(|s| {
            for t in 0..3usize {
                let client = client.clone();
                s.spawn(move |_| {
                    for i in 0..20 {
                        client
                            .submit(
                                p(t),
                                Erc20Op::Transfer {
                                    to: a((t + i) % 4),
                                    value: 1,
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
        assert_eq!(run.stats.ops, 60);
        // Responses in the log are consistent with its linearization, and
        // the replayed state is exactly the token's final state.
        let spec = Erc20Spec::new(initial);
        let replayed = run.log.replay(&spec).expect("consistent responses");
        assert_eq!(replayed, token.state_snapshot());
        assert_eq!(replayed.total_supply(), 400);
    }

    #[test]
    fn serial_fraction_reflects_hot_row_contention() {
        // k spenders hammering one allowance row: almost everything
        // conflicts, so waves are narrow and the serial lane fills.
        let mut initial = Erc20State::from_balances(vec![1000; 8]);
        for sp in 1..8 {
            initial.set_allowance(a(0), p(sp), 500);
        }
        let token = ShardedErc20::from_state(initial.clone());
        let script: Vec<(ProcessId, Erc20Op)> = (0..64)
            .map(|i| {
                (
                    p(1 + (i % 7)),
                    Erc20Op::TransferFrom {
                        from: a(0),
                        to: a(1 + ((i + 1) % 7)),
                        value: 1,
                    },
                )
            })
            .collect();
        let cfg = PipelineConfig {
            schedule: ScheduleConfig {
                max_parallel_waves: 4,
            },
            ..small_cfg(64)
        };
        let run = run_script(&token, &script, &cfg);
        assert!(run.stats.serial_ops > 0, "hot row must spill serial");
        assert!(run.stats.wave_parallelism() < 2.0);
        assert!(run.stats.conflicts > 0);
        let replayed = run
            .log
            .replay(&Erc20Spec::new(initial))
            .expect("consistent responses");
        assert_eq!(replayed, token.state_snapshot());
    }
}
