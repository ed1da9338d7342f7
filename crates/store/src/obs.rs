//! The store's recorder seam: [`StoreObs`].
//!
//! Same shape as the pipeline's recorder: a cloneable handle that is
//! `None` inside when disabled (the default — every instrumentation
//! point is one inlined branch) and, when enabled, publishes the WAL
//! and snapshot I/O that used to be unmeasurable:
//!
//! * counters — `tokensync_store_fsyncs_total`,
//!   `tokensync_store_bytes_appended_total`,
//!   `tokensync_store_records_appended_total`,
//!   `tokensync_store_segments_created_total`,
//!   `tokensync_store_snapshots_total`,
//!   `tokensync_store_delta_snapshots_total`;
//! * the `tokensync_store_durable_seq` gauge — the pipelined
//!   group-commit watermark: everything at or below it survives any
//!   crash;
//! * latency histograms — `tokensync_store_append_ns`,
//!   `tokensync_store_fsync_ns`, `tokensync_store_snapshot_ns`
//!   (delta publishes record into the same snapshot histogram);
//! * optionally, `WalAppend`/`SnapshotWrite` span events into a
//!   [`SpanRing`] shared with the pipeline's recorder, so one sampled
//!   batch's trace shows its serving-thread durability cost next to its
//!   execution cost (fsyncs are coalesced across batches off-thread, so
//!   they land in the histogram, not in a batch's trace).

use std::sync::Arc;
use std::time::Instant;

use tokensync_obs::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, SpanEvent, SpanRing, Stage,
};

struct Inner {
    /// Time base for span `start_ns` offsets.
    epoch: Instant,
    fsyncs: Counter,
    bytes_appended: Counter,
    records_appended: Counter,
    segments_created: Counter,
    snapshots: Counter,
    delta_snapshots: Counter,
    durable_seq: Gauge,
    append_ns: Histogram,
    fsync_ns: Histogram,
    snapshot_ns: Histogram,
    spans: Option<SpanRing>,
    sample_every: u64,
}

/// Recorder handle for the store. See the [module docs](self).
#[derive(Clone, Default)]
pub struct StoreObs {
    inner: Option<Arc<Inner>>,
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl StoreObs {
    /// The no-op recorder.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recording handle registering the store metrics in `registry`.
    #[must_use]
    pub fn new(registry: &Registry) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                fsyncs: registry.counter(
                    "tokensync_store_fsyncs_total",
                    &[],
                    "WAL fsyncs issued (durability points).",
                ),
                bytes_appended: registry.counter(
                    "tokensync_store_bytes_appended_total",
                    &[],
                    "Record bytes appended to the WAL (frames, excluding segment headers).",
                ),
                records_appended: registry.counter(
                    "tokensync_store_records_appended_total",
                    &[],
                    "WAL records appended (one per committed batch or shipped frame).",
                ),
                segments_created: registry.counter(
                    "tokensync_store_segments_created_total",
                    &[],
                    "WAL segments rolled while serving.",
                ),
                snapshots: registry.counter(
                    "tokensync_store_snapshots_total",
                    &[],
                    "Full snapshots published.",
                ),
                delta_snapshots: registry.counter(
                    "tokensync_store_delta_snapshots_total",
                    &[],
                    "Incremental (delta) snapshots published.",
                ),
                durable_seq: registry.gauge(
                    "tokensync_store_durable_seq",
                    &[],
                    "Highest sequence number known durable (fsynced WAL \
                     prefix or published snapshot chain).",
                ),
                append_ns: registry.histogram(
                    "tokensync_store_append_ns",
                    &[],
                    "WAL record append latency (encode + buffered write) in nanoseconds.",
                ),
                fsync_ns: registry.histogram(
                    "tokensync_store_fsync_ns",
                    &[],
                    "WAL fsync latency in nanoseconds.",
                ),
                snapshot_ns: registry.histogram(
                    "tokensync_store_snapshot_ns",
                    &[],
                    "Snapshot publish latency (sync + write + rename + GC) in nanoseconds.",
                ),
                spans: None,
                sample_every: 64,
            })),
        }
    }

    /// Shares a [`SpanRing`] (typically the pipeline recorder's, via
    /// [`PipelineObs::span_ring`]) so `WalAppend`/`SnapshotWrite`
    /// events of every `sample_every`-th batch land in the same
    /// per-batch trace. No-op when disabled.
    ///
    /// [`PipelineObs::span_ring`]: tokensync_pipeline::PipelineObs::span_ring
    #[must_use]
    pub fn with_spans(self, ring: SpanRing, sample_every: u64) -> Self {
        match self.inner {
            None => self,
            Some(inner) => {
                let mut inner = Arc::try_unwrap(inner).unwrap_or_else(|arc| Inner {
                    epoch: arc.epoch,
                    fsyncs: arc.fsyncs.clone(),
                    bytes_appended: arc.bytes_appended.clone(),
                    records_appended: arc.records_appended.clone(),
                    segments_created: arc.segments_created.clone(),
                    snapshots: arc.snapshots.clone(),
                    delta_snapshots: arc.delta_snapshots.clone(),
                    durable_seq: arc.durable_seq.clone(),
                    append_ns: arc.append_ns.clone(),
                    fsync_ns: arc.fsync_ns.clone(),
                    snapshot_ns: arc.snapshot_ns.clone(),
                    spans: arc.spans.clone(),
                    sample_every: arc.sample_every,
                });
                inner.spans = Some(ring);
                inner.sample_every = sample_every.max(1);
                Self {
                    inner: Some(Arc::new(inner)),
                }
            }
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// WAL fsyncs issued so far (0 when disabled).
    #[must_use]
    pub fn fsyncs(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.fsyncs.get())
    }

    /// Record bytes appended so far (0 when disabled).
    #[must_use]
    pub fn bytes_appended(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.bytes_appended.get())
    }

    /// WAL records appended so far (0 when disabled).
    #[must_use]
    pub fn records_appended(&self) -> u64 {
        self.inner
            .as_deref()
            .map_or(0, |i| i.records_appended.get())
    }

    /// Segments rolled so far (0 when disabled).
    #[must_use]
    pub fn segments_created(&self) -> u64 {
        self.inner
            .as_deref()
            .map_or(0, |i| i.segments_created.get())
    }

    /// Full snapshots published so far (0 when disabled).
    #[must_use]
    pub fn snapshots_taken(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.snapshots.get())
    }

    /// Incremental (delta) snapshots published so far (0 when disabled).
    #[must_use]
    pub fn delta_snapshots_taken(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.delta_snapshots.get())
    }

    /// The recorded durable watermark (0 when disabled).
    #[must_use]
    pub fn durable_seq(&self) -> u64 {
        self.inner
            .as_deref()
            .map_or(0, |i| i.durable_seq.get().max(0) as u64)
    }

    /// Append-latency summary, when enabled.
    #[must_use]
    pub fn append_latency(&self) -> Option<HistogramSnapshot> {
        self.inner.as_deref().map(|i| i.append_ns.snapshot())
    }

    /// Fsync-latency summary, when enabled.
    #[must_use]
    pub fn fsync_latency(&self) -> Option<HistogramSnapshot> {
        self.inner.as_deref().map(|i| i.fsync_ns.snapshot())
    }

    /// Snapshot-publish-latency summary, when enabled.
    #[must_use]
    pub fn snapshot_latency(&self) -> Option<HistogramSnapshot> {
        self.inner.as_deref().map(|i| i.snapshot_ns.snapshot())
    }

    /// A timestamp for the `record_*`/[`span`](Self::span) calls,
    /// `None` when disabled (the disabled path never reads the clock).
    #[inline]
    pub(crate) fn clock(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Records one WAL record append of `bytes` frame bytes.
    #[inline]
    pub(crate) fn record_append(&self, started: Option<Instant>, bytes: usize) {
        let (Some(i), Some(started)) = (self.inner.as_deref(), started) else {
            return;
        };
        i.append_ns.record(saturating_ns(started.elapsed()));
        i.bytes_appended.add(bytes as u64);
        i.records_appended.inc();
    }

    /// Records a raw frame-run append (`frames` shipped records in
    /// `bytes` bytes) without timing — the replication fast path.
    #[inline]
    pub(crate) fn record_append_raw(&self, bytes: usize, frames: u64) {
        if let Some(i) = self.inner.as_deref() {
            i.bytes_appended.add(bytes as u64);
            i.records_appended.add(frames);
        }
    }

    /// Records one fsync.
    #[inline]
    pub(crate) fn record_fsync(&self, started: Option<Instant>) {
        let (Some(i), Some(started)) = (self.inner.as_deref(), started) else {
            return;
        };
        i.fsync_ns.record(saturating_ns(started.elapsed()));
        i.fsyncs.inc();
    }

    /// Records one segment roll.
    #[inline]
    pub(crate) fn record_segment(&self) {
        if let Some(i) = self.inner.as_deref() {
            i.segments_created.inc();
        }
    }

    /// Records one full-snapshot publish.
    #[inline]
    pub(crate) fn record_snapshot(&self, started: Option<Instant>) {
        let (Some(i), Some(started)) = (self.inner.as_deref(), started) else {
            return;
        };
        i.snapshot_ns.record(saturating_ns(started.elapsed()));
        i.snapshots.inc();
    }

    /// Records one delta-snapshot publish (same latency histogram as
    /// fulls, its own counter).
    #[inline]
    pub(crate) fn record_delta_snapshot(&self, started: Option<Instant>) {
        let (Some(i), Some(started)) = (self.inner.as_deref(), started) else {
            return;
        };
        i.snapshot_ns.record(saturating_ns(started.elapsed()));
        i.delta_snapshots.inc();
    }

    /// Publishes the durable watermark.
    #[inline]
    pub(crate) fn record_durable(&self, seq: u64) {
        if let Some(i) = self.inner.as_deref() {
            i.durable_seq.set(i64::try_from(seq).unwrap_or(i64::MAX));
        }
    }

    /// Pushes a `stage` span for `batch` into the shared ring, if one
    /// is attached and the batch is sampled.
    #[inline]
    pub(crate) fn span(&self, batch: u64, stage: Stage, started: Option<Instant>) {
        let (Some(i), Some(started)) = (self.inner.as_deref(), started) else {
            return;
        };
        let Some(ring) = &i.spans else { return };
        if !batch.is_multiple_of(i.sample_every) {
            return;
        }
        ring.push(SpanEvent {
            batch,
            stage,
            start_ns: saturating_ns(started.duration_since(i.epoch)),
            dur_ns: saturating_ns(started.elapsed()),
        });
    }
}

impl std::fmt::Debug for StoreObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreObs")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}
