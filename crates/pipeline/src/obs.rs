//! The pipeline's recorder seam: [`PipelineObs`].
//!
//! A `PipelineObs` is a cloneable handle the engine threads its hot
//! path through. Disabled (the default everywhere) it holds `None` and
//! every call site collapses to one inlined branch — no clock reads,
//! no atomics, no allocation. Enabled it records, per batch:
//!
//! * a per-stage latency histogram (`tokensync_pipeline_stage_ns`,
//!   labelled `stage=intake_wait|schedule|execute|commit|seal`),
//! * the whole-batch latency (`tokensync_pipeline_batch_ns`),
//! * batch/op counters, the count of batches the conflict monitor found
//!   pairwise commuting, and a queue-depth gauge per intake shard,
//! * and, for one batch in [`sample_every`](PipelineObs::with_sampling),
//!   the full lifecycle as causally-linked [`SpanEvent`]s in a bounded
//!   [`SpanRing`] — the "why was this batch slow" dump.

use std::sync::Arc;
use std::time::Instant;

use tokensync_obs::{Counter, Gauge, Histogram, Registry, SpanEvent, SpanRing, Stage};

/// The engine stages timed by [`BatchClock::lap`], in causal order.
const STAGES: [Stage; 5] = [
    Stage::IntakeWait,
    Stage::Schedule,
    Stage::Execute,
    Stage::Commit,
    Stage::Seal,
];

fn stage_slot(stage: Stage) -> usize {
    STAGES
        .iter()
        .position(|s| *s == stage)
        .expect("not a pipeline stage")
}

struct Inner {
    /// Time base for span `start_ns` offsets.
    epoch: Instant,
    batches: Counter,
    ops: Counter,
    bypass_engaged: Counter,
    stage_ns: [Histogram; STAGES.len()],
    batch_ns: Histogram,
    queue_depth: Vec<Gauge>,
    spans: SpanRing,
    sample_every: u64,
}

/// Recorder handle for the pipeline. See the [module docs](self).
#[derive(Clone, Default)]
pub struct PipelineObs {
    inner: Option<Arc<Inner>>,
}

impl PipelineObs {
    /// The no-op recorder: every instrumentation point costs one
    /// inlined `None` check.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recording handle registering its metrics in `registry`.
    /// `shards` sizes the per-shard queue-depth gauge family (pass
    /// [`BatchConfig::intake_shards`](crate::BatchConfig)); sampling
    /// defaults to 1 batch in 64 into a 1024-event span ring.
    #[must_use]
    pub fn new(registry: &Registry, shards: usize) -> Self {
        let stage_ns = STAGES.map(|s| {
            registry.histogram(
                "tokensync_pipeline_stage_ns",
                &[("stage", s.label())],
                "Per-stage batch latency in nanoseconds.",
            )
        });
        let queue_depth = (0..shards.max(1))
            .map(|i| {
                let shard = i.to_string();
                registry.gauge(
                    "tokensync_pipeline_queue_depth",
                    &[("shard", shard.as_str())],
                    "Operations waiting in each intake shard.",
                )
            })
            .collect();
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                batches: registry.counter(
                    "tokensync_pipeline_batches_total",
                    &[],
                    "Batches cut and executed.",
                ),
                ops: registry.counter("tokensync_pipeline_ops_total", &[], "Operations committed."),
                bypass_engaged: registry.counter(
                    "tokensync_pipeline_bypass_engaged_total",
                    &[],
                    "Batches the conflict monitor found pairwise commuting.",
                ),
                stage_ns,
                batch_ns: registry.histogram(
                    "tokensync_pipeline_batch_ns",
                    &[],
                    "Whole-batch pipeline latency in nanoseconds.",
                ),
                queue_depth,
                spans: SpanRing::new(1024),
                sample_every: 64,
            })),
        }
    }

    /// Adjusts span sampling: every `sample_every`-th batch traces into
    /// a fresh ring of `ring_capacity` events. No-op when disabled.
    #[must_use]
    pub fn with_sampling(self, sample_every: u64, ring_capacity: usize) -> Self {
        match self.inner {
            None => self,
            Some(inner) => {
                let inner = Arc::try_unwrap(inner).unwrap_or_else(|arc| Inner {
                    epoch: arc.epoch,
                    batches: arc.batches.clone(),
                    ops: arc.ops.clone(),
                    bypass_engaged: arc.bypass_engaged.clone(),
                    stage_ns: arc.stage_ns.clone(),
                    batch_ns: arc.batch_ns.clone(),
                    queue_depth: arc.queue_depth.clone(),
                    spans: arc.spans.clone(),
                    sample_every: arc.sample_every,
                });
                Self {
                    inner: Some(Arc::new(Inner {
                        sample_every: sample_every.max(1),
                        spans: SpanRing::new(ring_capacity),
                        ..inner
                    })),
                }
            }
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The span ring, when enabled — share it (clone) with a
    /// `StoreObs` so WAL/fsync events land in the same per-batch trace.
    #[must_use]
    pub fn span_ring(&self) -> Option<&SpanRing> {
        self.inner.as_deref().map(|i| &i.spans)
    }

    /// Whole-batch latency summary, when enabled.
    #[must_use]
    pub fn batch_latency(&self) -> Option<tokensync_obs::HistogramSnapshot> {
        self.inner.as_deref().map(|i| i.batch_ns.snapshot())
    }

    /// One stage's latency summary, when enabled.
    #[must_use]
    pub fn stage_latency(&self, stage: Stage) -> Option<tokensync_obs::HistogramSnapshot> {
        self.inner
            .as_deref()
            .map(|i| i.stage_ns[stage_slot(stage)].snapshot())
    }

    /// Starts the per-batch stage clock. Call once per batch; the
    /// returned clock's [`lap`](BatchClock::lap)s split the batch's
    /// wall time across stages.
    #[inline]
    pub(crate) fn batch_clock(&self, batch: u64) -> BatchClock<'_> {
        BatchClock {
            inner: self.inner.as_deref().map(|obs| {
                let now = Instant::now();
                BatchClockInner {
                    obs,
                    batch,
                    sampled: batch % obs.sample_every == 0,
                    start: now,
                    last: now,
                }
            }),
        }
    }

    /// A timestamp for [`PipelineObs::record_stage`], `None` when
    /// disabled (so the disabled path never reads the clock).
    #[inline]
    pub(crate) fn now(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Records a stage that was timed outside the batch clock (the
    /// intake wait, which precedes the batch's existence).
    #[inline]
    pub(crate) fn record_stage(&self, batch: u64, stage: Stage, started: Option<Instant>) {
        let (Some(obs), Some(started)) = (self.inner.as_deref(), started) else {
            return;
        };
        let dur = started.elapsed();
        obs.stage_ns[stage_slot(stage)].record(saturating_ns(dur));
        if batch % obs.sample_every == 0 {
            obs.spans.push(SpanEvent {
                batch,
                stage,
                start_ns: saturating_ns(started.duration_since(obs.epoch)),
                dur_ns: saturating_ns(dur),
            });
        }
    }

    /// Refreshes the per-shard queue-depth gauges; `depth_of(i)` is
    /// only called when enabled.
    #[inline]
    pub(crate) fn sample_queue_depths<F: Fn(usize) -> usize>(&self, depth_of: F) {
        let Some(obs) = self.inner.as_deref() else {
            return;
        };
        for (i, gauge) in obs.queue_depth.iter().enumerate() {
            gauge.set(depth_of(i) as i64);
        }
    }

    /// Counts a batch the conflict monitor found pairwise commuting.
    #[inline]
    pub(crate) fn bypass_engaged(&self) {
        if let Some(obs) = self.inner.as_deref() {
            obs.bypass_engaged.inc();
        }
    }
}

impl std::fmt::Debug for PipelineObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineObs")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

struct BatchClockInner<'a> {
    obs: &'a Inner,
    batch: u64,
    sampled: bool,
    start: Instant,
    last: Instant,
}

/// Splits one batch's wall time across stages: each
/// [`lap`](BatchClock::lap) closes the stage that ran since the
/// previous lap (or the clock's start). Disabled, every method is one
/// branch.
pub(crate) struct BatchClock<'a> {
    inner: Option<BatchClockInner<'a>>,
}

impl BatchClock<'_> {
    /// Ends `stage` now and starts timing the next one.
    #[inline]
    pub(crate) fn lap(&mut self, stage: Stage) {
        let Some(c) = &mut self.inner else { return };
        let now = Instant::now();
        let dur = now.duration_since(c.last);
        c.obs.stage_ns[stage_slot(stage)].record(saturating_ns(dur));
        if c.sampled {
            c.obs.spans.push(SpanEvent {
                batch: c.batch,
                stage,
                start_ns: saturating_ns(c.last.duration_since(c.obs.epoch)),
                dur_ns: saturating_ns(dur),
            });
        }
        c.last = now;
    }

    /// Closes the batch: records whole-batch latency and the
    /// batch/op counters.
    #[inline]
    pub(crate) fn finish(self, ops: usize) {
        let Some(c) = self.inner else { return };
        c.obs.batch_ns.record(saturating_ns(c.start.elapsed()));
        c.obs.batches.inc();
        c.obs.ops.add(ops as u64);
    }
}
