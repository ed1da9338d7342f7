//! Order statistics for the benchmark's samples and the span
//! arithmetic of the traced pass — the one place a median, a quartile
//! or a percentile is computed.

use crate::trace::Span;

/// Median of `values` (mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: a metric without samples is a
/// bug in the benchmark, not a number to report.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic over no samples");
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// First and third quartile by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so a spread computed here
/// equals the one the benchmark's driver computes. With fewer than two
/// values both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    if s.len() < 2 {
        return (s[0], s[0]);
    }
    let cut = |i: usize| {
        let m = s.len() + 1;
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The per-rep values of one metric, folded: what a result row prints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The reported value: the median of the per-rep values.
    pub median: f64,
    /// Smallest per-rep value.
    pub min: f64,
    /// Largest per-rep value.
    pub max: f64,
    /// First quartile (exclusive method).
    pub q1: f64,
    /// Third quartile (exclusive method).
    pub q3: f64,
    /// How many per-rep values went in.
    pub samples: usize,
}

impl Summary {
    /// Folds per-rep values.
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        let (q1, q3) = quartiles(values);
        Self {
            median: median(values),
            min: s[0],
            max: s[s.len() - 1],
            q1,
            q3,
            samples: s.len(),
        }
    }

    /// A metric measured once (a count, or a single traced rep).
    pub fn single(value: f64) -> Self {
        Self::of(&[value])
    }

    /// Interquartile range as a share of the median — the spread the
    /// driver holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The percentile ladder a latency report may use, lowest first.
pub const LADDER: [(f64, &str); 5] = [
    (0.50, "p50"),
    (0.90, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
];

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    assert!(!sorted_ns.is_empty(), "percentile over no samples");
    let rank = (p * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
fn beyond(len: usize, p: f64) -> usize {
    len - ((p * len as f64).ceil() as usize).clamp(1, len)
}

/// The highest rung of [`LADDER`] that still has at least ten samples
/// beyond it — the only tail percentile of `len` samples worth
/// reporting. `None` below twenty samples (not even the median
/// qualifies).
pub fn highest_supported(len: usize) -> Option<(f64, &'static str)> {
    LADDER
        .iter()
        .rev()
        .find(|(p, _)| len > 0 && beyond(len, *p) >= 10)
        .copied()
}

/// The latency report of one rep, as a line: the median, then every
/// rung up to the highest one `latencies_ns` (ascending) supports, and
/// the sample count.
pub fn latency_ladder(sorted_ns: &[u64]) -> String {
    let Some((top, _)) = highest_supported(sorted_ns.len()) else {
        return format!(
            "latency: {} samples, too few for a percentile",
            sorted_ns.len()
        );
    };
    let rungs: Vec<String> = LADDER
        .iter()
        .filter(|(p, _)| *p <= top)
        .map(|(p, name)| format!("{name} {:.4} ms", percentile(sorted_ns, *p) as f64 / 1e6))
        .collect();
    format!(
        "latency of the last rep: {} ({} samples)",
        rungs.join(", "),
        sorted_ns.len()
    )
}

/// Total and self time of every span name in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NameTime {
    /// The span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the part of each covered by its
    /// child spans.
    pub self_ns: u64,
}

/// Per-name total and self time. A span's self time is its duration
/// minus the length of the union of its children's intervals, each
/// clipped to the parent — so nested, adjacent and overlapping children
/// (two client threads under one rep) are all counted once.
pub fn self_times(spans: &[Span]) -> Vec<NameTime> {
    use std::collections::BTreeMap;
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: BTreeMap<&'static str, NameTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| union_len(kids, s.start_ns, s.end_ns));
        let e = by_name.entry(s.name).or_insert(NameTime {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered.min(dur);
    }
    by_name.into_values().collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut edge) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(edge), end.min(hi));
        if end > start {
            total += end - start;
            edge = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn summary_folds_and_spreads() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.median, s.min, s.max, s.samples), (3.0, 1.0, 5.0, 5));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::single(2.0).spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 0.999), 100);
        assert_eq!(percentile(&[9], 0.5), 9);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20).unwrap().1, "p50");
        assert_eq!(highest_supported(99).unwrap().1, "p50");
        assert_eq!(highest_supported(100).unwrap().1, "p90");
        assert_eq!(highest_supported(999).unwrap().1, "p90");
        assert_eq!(highest_supported(1_000).unwrap().1, "p99");
        assert_eq!(highest_supported(10_000).unwrap().1, "p99.9");
        assert_eq!(highest_supported(400_000).unwrap().1, "p99.99");
    }

    #[test]
    fn ladder_stops_at_the_supported_rung() {
        let s: Vec<u64> = (1..=1_000).map(|v| v * 1_000_000).collect();
        let line = latency_ladder(&s);
        assert!(
            line.contains("p99 990.0000 ms") && !line.contains("p99.9"),
            "{line}"
        );
        assert!(latency_ladder(&s[..5]).contains("too few"));
    }

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    fn time_of<'a>(times: &'a [NameTime], name: &str) -> &'a NameTime {
        times.iter().find(|t| t.name == name).unwrap()
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("rep", 1, 0, 0, 100),
            span("send", 2, 1, 10, 20), // adjacent pair…
            span("send", 3, 1, 20, 30),
            span("recv", 4, 1, 50, 90),
            span("decode", 5, 4, 60, 70), // …and one nested in recv
        ];
        let times = self_times(&spans);
        assert_eq!(time_of(&times, "rep").self_ns, 100 - 20 - 40);
        assert_eq!(time_of(&times, "send").total_ns, 20);
        assert_eq!(time_of(&times, "send").count, 2);
        assert_eq!(time_of(&times, "recv").self_ns, 30);
        assert_eq!(time_of(&times, "decode").self_ns, 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("rep", 1, 0, 100, 200),
            span("conn", 2, 1, 110, 160), // two threads overlap…
            span("conn", 3, 1, 140, 190),
            span("late", 4, 1, 195, 250), // …one child overhangs the parent
        ];
        let times = self_times(&spans);
        assert_eq!(time_of(&times, "rep").self_ns, 100 - 80 - 5);
    }
}
