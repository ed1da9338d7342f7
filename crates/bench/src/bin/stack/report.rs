//! What a run reports and the one schema it is reported in: the human
//! lines, the rows of the result file, and the driver's result line.

use crate::json::{obj, Json};
use crate::stats::Summary;

/// One metric of one workload.
#[derive(Clone, Debug)]
pub struct Row {
    /// The metric's name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// The per-rep values, folded; the median is the reported value.
    pub summary: Summary,
    /// Samples behind each per-rep value (requests of a rep for a
    /// latency percentile, ops of a rep for a rate).
    pub samples_per_rep: usize,
}

impl Row {
    /// A row.
    pub fn new(name: &str, unit: &'static str, summary: Summary, samples_per_rep: usize) -> Self {
        Self {
            name: name.to_owned(),
            unit,
            summary,
            samples_per_rep,
        }
    }

    /// A row measured once.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Self {
        Self::new(name, unit, Summary::single(value), 1)
    }
}

/// Everything one workload's run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: &'static str,
    /// Its sizes and settings.
    pub sizes: Json,
    /// The metrics.
    pub rows: Vec<Row>,
    /// Operations submitted in measured reps.
    pub attempted: u64,
    /// Of those, not answered `Ok` with the expected response.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    /// Extra human-readable lines (the waterfall, the self-time table).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str, sizes: Json) -> Self {
        Self {
            workload,
            sizes,
            rows: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Puts the rows in `names` order and records a problem for every
    /// listed metric the pass did not produce and every row it produced
    /// unlisted: what a pass reports is exactly what `BENCHMARK.json`
    /// declares.
    pub fn conform_to(&mut self, names: &[&str]) {
        for name in names {
            if !self.rows.iter().any(|r| r.name == *name) {
                self.problems
                    .push(format!("{}: metric {name} not measured", self.workload));
            }
        }
        for row in &self.rows {
            if !names.contains(&row.name.as_str()) {
                self.problems.push(format!(
                    "{}: metric {} not declared",
                    self.workload, row.name
                ));
            }
        }
        let rank = |row: &Row| {
            names
                .iter()
                .position(|n| *n == row.name)
                .unwrap_or(names.len())
        };
        self.rows.sort_by_key(rank);
    }

    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Share of attempted operations that failed.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Every metric by name with its unit, then the verdict.
    pub fn print(&self) {
        println!("== {} ==", self.workload);
        println!("   sizes: {}", self.sizes.to_line());
        for r in &self.rows {
            let s = &r.summary;
            if s.samples > 1 {
                println!(
                    "   {:<36} {:>16.6} {:<6} median of {} reps (min {:.6}, q1 {:.6}, q3 {:.6}, max {:.6}, spread {:.1}%; {} samples/rep)",
                    r.name,
                    s.median,
                    r.unit,
                    s.samples,
                    s.min,
                    s.q1,
                    s.q3,
                    s.max,
                    s.spread() * 100.0,
                    r.samples_per_rep
                );
            } else {
                println!("   {:<36} {:>16.6} {:<6}", r.name, s.median, r.unit);
            }
        }
        for note in &self.notes {
            println!("   {note}");
        }
        println!(
            "   attempted {} failed {} fail_ratio {}",
            self.attempted,
            self.failed,
            self.fail_ratio()
        );
        for p in &self.problems {
            println!("   CHECK FAILED: {p}");
        }
        println!(
            "   {}",
            if self.correct() {
                "verified"
            } else {
                "NOT VERIFIED"
            }
        );
    }

    /// The rows of the result file: every row carries the host, the
    /// seed and the workload's sizes, so a row read alone is still
    /// interpretable.
    pub fn rows_json(&self, seed: u64, pass: &str, host: &Json) -> Vec<Json> {
        self.rows
            .iter()
            .map(|r| {
                let s = &r.summary;
                obj([
                    ("workload", self.workload.into()),
                    ("pass", pass.into()),
                    ("metric", r.name.as_str().into()),
                    ("unit", r.unit.into()),
                    ("value", s.median.into()),
                    ("min", s.min.into()),
                    ("q1", s.q1.into()),
                    ("q3", s.q3.into()),
                    ("max", s.max.into()),
                    ("reps", s.samples.into()),
                    ("samples_per_rep", r.samples_per_rep.into()),
                    ("seed", seed.into()),
                    ("attempted", self.attempted.into()),
                    ("failed", self.failed.into()),
                    ("verified", self.correct().into()),
                    ("sizes", self.sizes.clone()),
                    ("host", host.clone()),
                ])
            })
            .collect()
    }

    /// The driver's result line: `correct`, `attempted`, `failed` and
    /// every metric with its value and unit.
    pub fn result_line(&self) -> String {
        let metrics = self
            .rows
            .iter()
            .map(|r| {
                let value = obj([("value", r.summary.median.into()), ("unit", r.unit.into())]);
                (r.name.clone(), value)
            })
            .collect();
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.max(1).into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut out = Outcome::new("w", obj([("n", 4usize.into())]));
        out.attempted = 10;
        out.rows
            .push(Row::new("p50_ms", "ms", Summary::of(&[1.0, 3.0, 2.0]), 100));
        let doc = Json::parse(&out.result_line()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted"), Some(&Json::Int(10)));
        assert_eq!(doc.get("failed"), Some(&Json::Int(0)));
        let metric = doc.get("metrics").unwrap().get("p50_ms").unwrap();
        assert_eq!(metric.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(metric.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn conforming_orders_rows_and_flags_strays() {
        let mut out = Outcome::new("w", Json::Null);
        out.rows.push(Row::single("b", "ms", 1.0));
        out.rows.push(Row::single("stray", "ms", 1.0));
        out.rows.push(Row::single("a", "ms", 1.0));
        out.conform_to(&["a", "b", "c"]);
        let order: Vec<&str> = out.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(order, ["a", "b", "stray"]);
        assert_eq!(out.problems.len(), 2, "{:?}", out.problems);
    }

    #[test]
    fn a_failed_check_or_op_makes_the_run_incorrect() {
        let mut out = Outcome::new("w", Json::Null);
        assert!(out.correct());
        out.failed = 1;
        assert!(!out.correct());
        out.failed = 0;
        out.problems.push("x".into());
        assert!(!out.correct());
        let rows = out.rows_json(7, "end_to_end", &Json::Null);
        assert!(rows.is_empty());
    }
}
