//! The assembled engine: ingest → analyze → schedule → execute → commit,
//! generic over every footprinted standard.
//!
//! Two entry points share one batch-processing core:
//!
//! * [`run_script`] — synchronous: chunk a pre-built operation stream
//!   into batches and push each through the stages on the calling
//!   thread. Deterministic, so the property suites and benchmarks use
//!   it.
//! * [`Pipeline::spawn`] — the serving shape: a background engine thread
//!   pulls batches from the bounded intake queue
//!   ([`IntakeClient::submit`] from any number of client threads),
//!   executes them itself, and appends to the commit log; dropping every
//!   client and calling [`PipelineHandle::finish`] drains the queue and
//!   returns the [`PipelineRun`].
//!
//! There is exactly **one** engine and one apply path: every batch is
//! applied and committed in submission order, and the wave schedule
//! only monitors its conflicts. The monitor samples: it reads one batch
//! in 16, those whose `seq` is a multiple of 16, so always a run's
//! first batch and the only batch of a one-batch run. The other batches
//! skip the schedule, and [`PipelineStats`]' rates are weighted by ops
//! over the monitored batches. The same machinery serves an ERC20
//! [`ShardedErc20`], an ERC721 [`ShardedErc721`] or an ERC1155
//! [`ShardedErc1155`] — the standard is a type parameter, not a copy of
//! the pipeline.
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
use crate::exec::{execute_unordered, ExecConfig};
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
    /// One committed record: a whole batch in submission order.
    /// `entries` is the contiguous slice of the commit log the batch
    /// appended.
    fn wave_committed(&mut self, token: &T, entries: &[CommittedOp<T::Op, T::Resp>]);

    /// [`wave_committed`](CommitSink::wave_committed) plus the routing
    /// tickets the producers attached via
    /// [`IntakeClient::submit_tagged`]: `tickets` parallels `entries`
    /// (both in submission order), or is empty when the batch
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

/// The retired adaptive-bypass policy: inert. Every batch is applied in
/// submission order and its schedule only monitors conflicts, so there
/// is nothing left to switch or gate; no field is read by the engine.
/// The type stays only because the frozen `stack` benchmark reads its
/// three fields, and ROADMAP item 1(g) deletes it.
#[derive(Clone, Copy, Debug)]
pub struct BypassConfig {
    /// Inert.
    pub enabled: bool,
    /// Inert.
    pub max_density: f64,
    /// Inert.
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
    /// Policy of the conflict monitor's wave schedule.
    pub schedule: ScheduleConfig,
    /// Execution settings: none (see [`ExecConfig`]).
    pub exec: ExecConfig,
    /// Inert (see [`BypassConfig`]).
    pub bypass: BypassConfig,
}

/// Aggregate counters of one engine run. `batches`, `ops` and
/// `commit_records` count every batch. The monitor fields
/// (`parallel_ops`, `serial_ops`, `waves`, `conflicts`,
/// `bypassed_batches`, `bypassed_ops`) count only the batches the
/// conflict monitor read: one in 16, starting with the run's first, so a
/// one-batch run is always monitored. They are the monitor's reading of
/// each such batch (its [`Schedule`]), not a record of how the batch
/// ran: every batch is applied and committed in submission order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PipelineStats {
    /// Batches cut and executed.
    pub batches: u64,
    /// Operations committed.
    pub ops: u64,
    /// Ops of monitored batches the monitor placed in commuting waves,
    /// as opposed to the serial lane. All ops execute on one thread;
    /// this counts commutativity found, not threads used. With
    /// [`serial_ops`](Self::serial_ops) it partitions the monitored ops.
    pub parallel_ops: u64,
    /// Ops of monitored batches the monitor placed in the serial lane.
    pub serial_ops: u64,
    /// Commuting waves the monitor found across the monitored batches.
    /// A pairwise-commuting batch is one wave.
    pub waves: u64,
    /// Contention proxy summed over the monitored batches (see
    /// [`Schedule::conflicts`]).
    pub conflicts: u64,
    /// Monitored batches the monitor found pairwise commuting: one wave
    /// and an empty serial lane, so no op of the batch had to follow
    /// another.
    pub bypassed_batches: u64,
    /// Operations of those batches.
    pub bypassed_ops: u64,
    /// Always 0: nothing is speculated, so nothing aborts. The field
    /// stays only because the frozen `stack` benchmark sums it, and
    /// ROADMAP item 1(g) deletes it.
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
    /// Mean ops per commuting wave over the monitored batches — the
    /// engine's measured wave parallelism. A fully commuting stream
    /// approaches the batch size; a fully conflicting stream approaches 1.
    pub fn wave_parallelism(&self) -> f64 {
        if self.waves == 0 {
            return 0.0;
        }
        self.parallel_ops as f64 / self.waves as f64
    }

    /// Fraction of the monitored ops that needed the serial lane.
    pub fn serial_fraction(&self) -> f64 {
        self.of_monitored_ops(self.serial_ops)
    }

    /// Fraction of the monitored ops whose batch the monitor found
    /// pairwise commuting (op-weighted, so a ragged last batch weighs
    /// by its length).
    pub fn bypass_rate(&self) -> f64 {
        self.of_monitored_ops(self.bypassed_ops)
    }

    /// `part` over the monitored ops, 0 when no op was monitored.
    fn of_monitored_ops(&self, part: u64) -> f64 {
        let monitored = self.parallel_ops + self.serial_ops;
        if monitored == 0 {
            return 0.0;
        }
        part as f64 / monitored as f64
    }

    /// Counts one monitored batch's plan; returns whether the batch
    /// pairwise commutes (one wave, empty serial lane).
    fn absorb(&mut self, s: &Schedule) -> bool {
        self.parallel_ops += s.parallel_ops() as u64;
        self.serial_ops += s.serial.len() as u64;
        self.waves += s.waves.len() as u64;
        self.conflicts += s.conflicts as u64;
        let commutes = s.waves.len() == 1 && s.serial.is_empty();
        if commutes {
            self.bypassed_batches += 1;
            self.bypassed_ops += s.ops() as u64;
        }
        commutes
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

/// The conflict monitor reads one batch in this many: the batches whose
/// `seq` is a multiple of it. `seq` restarts at 0 on every engine run,
/// so the first batch of every run is monitored, and a run of one batch
/// (a replica round, say) is always monitored.
const MONITOR_EVERY: u64 = 16;

/// One engine run in progress: the object it serves, its configuration,
/// sink and recorder, the conflict monitor's reused [`Scheduler`], and
/// the run being built. Both entry points drive batches through
/// [`process_batch`](Self::process_batch).
struct Engine<'a, T: ConcurrentObject + ?Sized, K> {
    token: &'a T,
    cfg: &'a PipelineConfig,
    sink: &'a mut K,
    obs: &'a PipelineObs,
    scheduler: Scheduler,
    run: PipelineRun<T::Op, T::Resp>,
}

impl<'a, T: ConcurrentObject + ?Sized, K: CommitSink<T>> Engine<'a, T, K> {
    fn new(token: &'a T, cfg: &'a PipelineConfig, sink: &'a mut K, obs: &'a PipelineObs) -> Self {
        Self {
            token,
            cfg,
            sink,
            obs,
            scheduler: Scheduler::new(),
            run: PipelineRun::default(),
        }
    }

    /// One batch through the stages, streaming its committed record (and
    /// the batch seal) into the sink. The batch is applied and committed
    /// in submission order: on one thread that order is trivially a
    /// linearization, with itself as the witness. On one batch in
    /// [`MONITOR_EVERY`] the scheduler runs first as the conflict
    /// monitor: its plan reorders nothing and only feeds the statistics,
    /// and running it before the apply keeps the stage spans in
    /// [`Stage`]'s causal order. Disabled, each recorder call is one
    /// inlined branch. `tickets` parallels `ops` (empty when the batch
    /// carries none) and so the entries.
    fn process_batch(&mut self, seq: u64, ops: &[(ProcessId, T::Op)], tickets: &[u64]) {
        let mut clock = self.obs.batch_clock(seq);
        let stats = &mut self.run.stats;
        stats.batches += 1;
        stats.ops += ops.len() as u64;
        if seq.is_multiple_of(MONITOR_EVERY) {
            let plan = self.scheduler.schedule(ops, &self.cfg.schedule);
            self.obs.monitored(stats.absorb(&plan));
            clock.lap(Stage::Schedule);
        }
        let responses = execute_unordered(self.token, ops, &self.cfg.exec);
        clock.lap(Stage::Execute);
        let start = self.run.log.append_sequential(seq, ops, &responses);
        clock.lap(Stage::Commit);
        if !ops.is_empty() {
            let entries = &self.run.log.entries()[start..];
            self.sink
                .wave_committed_tagged(self.token, entries, tickets);
            self.run.stats.commit_records += 1;
        }
        self.sink.batch_sealed(self.token, seq);
        clock.lap(Stage::Seal);
        clock.finish(ops.len());
    }

    /// Ends the run, sampling the sink's durable watermark.
    fn finish(self) -> PipelineRun<T::Op, T::Resp> {
        let mut run = self.run;
        run.stats.durable_seq = self.sink.durable_seq();
        run
    }
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
    let mut engine = Engine::new(token, cfg, sink, obs);
    let size = cfg.batch.max_ops.max(1);
    for (seq, ops) in script.chunks(size).enumerate() {
        engine.process_batch(seq as u64, ops, &[]);
    }
    engine.finish()
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

/// What a spawn returns: the producer handle (clone it per client
/// thread) and the engine handle `H`.
type Spawned<T, H> = (IntakeClient<<T as ConcurrentObject>::Op>, H);

/// The engine thread body shared by the spawn shapes.
fn engine_loop<T: ConcurrentObject, K: CommitSink<T>>(
    token: &T,
    batcher: &mut Batcher<T::Op>,
    cfg: &PipelineConfig,
    sink: &mut K,
    obs: &PipelineObs,
) -> PipelineRun<T::Op, T::Resp> {
    let mut engine = Engine::new(token, cfg, sink, obs);
    loop {
        // The wait for a batch is itself a stage: it is the intake
        // (queueing) component of an op's end-to-end latency.
        let waiting_since = obs.now();
        let Some(batch) = batcher.next_batch_or(|| engine.sink.idle()) else {
            break;
        };
        obs.record_stage(batch.seq, Stage::IntakeWait, waiting_since);
        obs.sample_queue_depths(|i| batcher.shard_depth(i));
        engine.process_batch(batch.seq, &batch.ops, &batch.tickets);
    }
    // Nothing more will arrive: what the sink still holds ripens alone.
    while let Some(nap) = engine.sink.idle() {
        std::thread::sleep(nap);
    }
    engine.finish()
}

impl Pipeline {
    /// Spawns a background engine over `token`; returns the producer
    /// handle (clone it per client thread) and the engine handle.
    pub fn spawn<T: ConcurrentObject + 'static>(
        token: Arc<T>,
        cfg: PipelineConfig,
    ) -> Spawned<T, PipelineHandle<T::Op, T::Resp>> {
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
    ) -> Spawned<T, SinkedPipelineHandle<T::Op, T::Resp, K>>
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
    ) -> Spawned<T, SinkedPipelineHandle<T::Op, T::Resp, K>>
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
    use tokensync_core::shared::ShardedErc20;
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
        assert_eq!(replayed, token.snapshot());
        check_linearizable(&spec, &spec.initial_state(), &run.log.to_history())
            .expect("commit log linearizes");
    }

    #[test]
    fn a_forty_batch_run_monitors_batches_0_16_and_32() {
        let token = ShardedErc20::from_state(Erc20State::from_balances(vec![5; 160]));
        let script: Vec<(ProcessId, Erc20Op)> = (0..80)
            .map(|i| {
                (
                    p(i),
                    Erc20Op::Transfer {
                        to: a(80 + i),
                        value: 1,
                    },
                )
            })
            .collect();
        // Trace every batch: a monitored batch's trace opens with the
        // schedule stage.
        let reg = tokensync_obs::Registry::new();
        let obs = PipelineObs::new(&reg, 1).with_sampling(1, 1024);
        let run = run_script_observed(&token, &script, &small_cfg(2), &mut (), &obs);
        assert_eq!((run.stats.batches, run.stats.ops), (40, 80));
        let ring = obs.span_ring().expect("enabled recorder");
        let monitored: Vec<u64> = ring
            .batches()
            .into_iter()
            .filter(|&b| ring.trace(b).iter().any(|e| e.stage == Stage::Schedule))
            .collect();
        assert_eq!(monitored, [0, 16, 32]);
        let stats = run.stats;
        assert_eq!(stats.parallel_ops + stats.serial_ops, 6);
        assert_eq!((stats.bypassed_batches, stats.bypassed_ops), (3, 6));
        assert_eq!((stats.waves, stats.commit_records), (3, 40));
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
        std::thread::scope(|s| {
            for t in 0..3usize {
                let client = client.clone();
                s.spawn(move || {
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
        });
        drop(client);
        let run = handle.finish();
        assert_eq!(run.stats.ops, 60);
        // Responses in the log are consistent with its linearization, and
        // the replayed state is exactly the token's final state.
        let spec = Erc20Spec::new(initial);
        let replayed = run.log.replay(&spec).expect("consistent responses");
        assert_eq!(replayed, token.snapshot());
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
        assert_eq!(replayed, token.snapshot());
    }
}
