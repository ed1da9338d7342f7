//! The benchmark's own spans: recorded in memory around each call the
//! benchmark makes into a layer, written out when the run ends. Spans
//! *inside* the product are not this file's business.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One timed call. `parent` is the id of the span that caused it (0 for
/// a root); spans of one request or batch share nothing but the parent
/// chain, so `id` is unique per trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called, `layer.call`.
    pub name: &'static str,
    /// Unique within the trace, never 0.
    pub id: u64,
    /// Id of the causing span, 0 for a root.
    pub parent: u64,
    /// Start, in ns since the trace began.
    pub start_ns: u64,
    /// End, in ns since the trace began.
    pub end_ns: u64,
}

/// The clock and id source every recorder of one trace shares.
#[derive(Clone, Debug)]
pub struct TraceClock {
    epoch: Instant,
    next_id: Arc<AtomicU64>,
}

impl TraceClock {
    /// Starts a trace now.
    pub fn start() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn fresh_id(&self) -> u64 {
        // Relaxed: the counter only hands out distinct numbers.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }
}

/// A per-thread span recorder and the clock the drivers time with.
/// Disabled (the end-to-end pass) it keeps the clock and drops the
/// spans; each thread owns its recorder, so recording takes no lock,
/// and the recorders are merged with [`Recorder::absorb`] after the
/// threads join.
#[derive(Clone, Debug)]
pub struct Recorder {
    clock: TraceClock,
    enabled: bool,
    spans: Vec<Span>,
}

/// A span being timed: what [`Recorder::open`] returns and
/// [`Recorder::close`] consumes.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: u64,
    start_ns: u64,
}

impl Open {
    /// The id children of this span name as their parent (0 when
    /// tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Recorder {
    /// A recorder on `clock`; it keeps spans only when `enabled`.
    pub fn new(clock: &TraceClock, enabled: bool) -> Self {
        Self {
            clock: clock.clone(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same trace.
    pub fn sibling(&self) -> Self {
        Self::new(&self.clock, self.enabled)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the trace began.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Starts timing a span.
    pub fn open(&self) -> Open {
        Open {
            id: if self.enabled {
                self.clock.fresh_id()
            } else {
                0
            },
            start_ns: self.clock.now_ns(),
        }
    }

    /// Ends `open` now, records it as `name` under `parent`, and
    /// returns its duration in ns (also when tracing is off).
    pub fn close(&mut self, open: Open, name: &'static str, parent: u64) -> u64 {
        let end_ns = self.clock.now_ns();
        if self.enabled {
            self.spans.push(Span {
                name,
                id: open.id,
                parent,
                start_ns: open.start_ns,
                end_ns,
            });
        }
        end_ns.saturating_sub(open.start_ns)
    }

    /// Records a span the caller timed itself (with [`Recorder::now_ns`]).
    pub fn push(&mut self, name: &'static str, parent: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                id: self.clock.fresh_id(),
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Takes another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_times_but_records_nothing() {
        let mut r = Recorder::new(&TraceClock::start(), false);
        let open = r.open();
        assert_eq!(open.id(), 0);
        std::hint::black_box((0..1000).sum::<u64>());
        assert!(r.close(open, "x", 0) > 0);
        r.push("y", 0, 1, 2);
        assert!(r.spans().is_empty() && !r.enabled());
    }

    #[test]
    fn spans_nest_by_parent_and_merge_across_recorders() {
        let clock = TraceClock::start();
        let mut main = Recorder::new(&clock, true);
        let mut worker = main.sibling();
        let root = main.open();
        let (t0, t1) = (worker.now_ns(), worker.now_ns());
        worker.push("child", root.id(), t0, t1);
        main.close(root, "root", 0);
        main.absorb(worker);
        let spans = main.spans();
        assert_eq!(spans.len(), 2);
        let (root, child) = (&spans[0], &spans[1]);
        assert_eq!((root.name, child.name), ("root", "child"));
        assert_eq!(child.parent, root.id);
        assert_ne!(child.id, root.id);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
    }
}
