//! Sampled span tracing: a bounded ring of causally-ordered stage
//! events keyed by batch sequence number. The ring answers "why was
//! this batch slow" — one sampled batch's full lifecycle (intake wait
//! through quorum ack) can be dumped and read as a trace — without the
//! cost or dependencies of a real tracing stack.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A pipeline/store/replica lifecycle stage. The order of variants is
/// the causal order of a batch's life; [`SpanRing::trace`] sorts by it
/// for display.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // variant names are the documentation
pub enum Stage {
    IntakeWait,
    BypassProbe,
    Schedule,
    Execute,
    Commit,
    Seal,
    WalAppend,
    SnapshotWrite,
    QuorumAck,
}

impl Stage {
    /// Stable lowercase label used in metric names and trace dumps.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::IntakeWait => "intake_wait",
            Stage::BypassProbe => "bypass_probe",
            Stage::Schedule => "schedule",
            Stage::Execute => "execute",
            Stage::Commit => "commit",
            Stage::Seal => "seal",
            Stage::WalAppend => "wal_append",
            Stage::SnapshotWrite => "snapshot_write",
            Stage::QuorumAck => "quorum_ack",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One timed event: `stage` of batch `batch` started `start_ns` after
/// the ring's epoch and lasted `dur_ns`. Events of the same batch are
/// causally linked through the shared key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Batch (or wave) sequence number the event belongs to.
    pub batch: u64,
    /// Lifecycle stage.
    pub stage: Stage,
    /// Start offset in nanoseconds from the ring's creation.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A bounded, shared ring of [`SpanEvent`]s.
///
/// Writers push under a mutex — acceptable because only *sampled*
/// batches (typically 1 in 64) ever reach the ring; the hot path for
/// unsampled batches never touches it. When full, the oldest events
/// fall off.
#[derive(Clone, Debug)]
pub struct SpanRing {
    inner: Arc<Mutex<VecDeque<SpanEvent>>>,
    capacity: usize,
}

impl SpanRing {
    /// A ring keeping at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span ring needs capacity");
        Self {
            inner: Arc::new(Mutex::new(VecDeque::with_capacity(capacity))),
            capacity,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&self, event: SpanEvent) {
        let mut ring = self.inner.lock().expect("span ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("span ring poisoned").len()
    }

    /// Whether the ring holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All retained events, oldest first.
    #[must_use]
    pub fn dump(&self) -> Vec<SpanEvent> {
        self.inner
            .lock()
            .expect("span ring poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// The retained events of one batch in causal (stage) order.
    #[must_use]
    pub fn trace(&self, batch: u64) -> Vec<SpanEvent> {
        let mut events: Vec<SpanEvent> = self
            .dump()
            .into_iter()
            .filter(|e| e.batch == batch)
            .collect();
        events.sort_by_key(|e| (e.stage, e.start_ns));
        events
    }

    /// Batch seqs currently represented in the ring, deduplicated,
    /// oldest first — the menu for [`SpanRing::trace`].
    #[must_use]
    pub fn batches(&self) -> Vec<u64> {
        let mut seen = Vec::new();
        for e in self.dump() {
            if !seen.contains(&e.batch) {
                seen.push(e.batch);
            }
        }
        seen
    }

    /// Renders one batch's trace as an aligned text table — the
    /// "why was this batch slow" forensics view.
    #[must_use]
    pub fn render_trace(&self, batch: u64) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "batch {batch}");
        for e in self.trace(batch) {
            let _ = writeln!(
                out,
                "  {:<14} +{:>12}ns  {:>12}ns",
                e.stage.label(),
                e.start_ns,
                e.dur_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(batch: u64, stage: Stage, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            batch,
            stage,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let ring = SpanRing::new(3);
        for i in 0..5 {
            ring.push(ev(i, Stage::Execute, i * 10, 1));
        }
        let dump = ring.dump();
        assert_eq!(dump.len(), 3);
        assert_eq!(dump[0].batch, 2);
        assert_eq!(dump[2].batch, 4);
    }

    #[test]
    fn trace_filters_by_batch_and_sorts_causally() {
        let ring = SpanRing::new(16);
        ring.push(ev(7, Stage::Commit, 30, 5));
        ring.push(ev(8, Stage::Schedule, 12, 2));
        ring.push(ev(7, Stage::IntakeWait, 0, 10));
        ring.push(ev(7, Stage::Execute, 20, 8));
        let trace = ring.trace(7);
        let stages: Vec<Stage> = trace.iter().map(|e| e.stage).collect();
        assert_eq!(
            stages,
            vec![Stage::IntakeWait, Stage::Execute, Stage::Commit]
        );
        assert_eq!(ring.batches(), vec![7, 8]);
    }

    #[test]
    fn render_trace_mentions_every_stage() {
        let ring = SpanRing::new(16);
        ring.push(ev(3, Stage::SnapshotWrite, 50, 900));
        ring.push(ev(3, Stage::WalAppend, 40, 10));
        let text = ring.render_trace(3);
        assert!(text.contains("wal_append"));
        assert!(text.contains("snapshot_write"));
        assert!(text.starts_with("batch 3"));
    }
}
