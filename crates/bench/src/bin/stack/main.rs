//! **`stack`** — the repository's benchmark: one seeded command that
//! drives the serving stack (`core` → `pipeline` → `store` → `server` →
//! `replica`) through six workloads, end to end and layer by layer.
//!
//! ```sh
//! stack --workload tcp_disjoint --seed 1 --seconds 10 --trace 0   # end-to-end pass
//! stack --workload tcp_disjoint --seed 1 --seconds 10 --trace 1   # per-layer pass, spans on
//! stack --seed 1 --out rows.json                                  # every workload
//! stack --repeat-check                                            # two sets, compared
//! ```
//!
//! A single workload runs in this process and ends with one JSON line —
//! `{"correct", "attempted", "failed", "metrics"}` — which is what
//! `BENCHMARK.json`'s driver reads. `--workload all` (the default) runs
//! each workload in a child process of its own, so peak memory is per
//! workload. `README.md` beside this file defines every metric and
//! workload.
//!
//! The benchmark calls the product only through public functions, with
//! the crates' `Default` configs except where a workload names a
//! setting, and measures each layer from outside; it writes only under
//! the directory its executable is in.

mod drive;
mod gen;
mod host;
mod json;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use host::{host_json, pin_to_one_cpu, Scratch};
use json::{obj, Json};
use workloads::{Ctx, Workload, WORKLOADS};

const USAGE: &str = "usage: stack [--workload <name>|all] [--seed <u64>] [--seconds <n>] \
[--trace [0|1]] [--out <file>] [--trace-out <file>] [--repeat-check] [--list]";

/// The default `--seconds`: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 10;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    repeat_check: bool,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".to_owned(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        trace_out: None,
        repeat_check: false,
        list: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_owned())?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--out" => parsed.out = Some(value("--out")?.into()),
            "--trace-out" => parsed.trace_out = Some(value("--trace-out")?.into()),
            "--repeat-check" => parsed.repeat_check = true,
            "--list" => parsed.list = true,
            "--trace" => {
                // Bare `--trace` means 1; the driver always passes 0 or 1.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.iter().any(|w| w.name == parsed.workload) {
        return Err(format!("unknown workload {}", parsed.workload));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stack: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for w in &WORKLOADS {
            println!("{:<18} {}", w.name, w.why);
        }
        return ExitCode::SUCCESS;
    }
    // The scratch directory lives (and is removed) in `run`, not here:
    // `ExitCode` is returned, never `exit`ed, so the guard always drops.
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("stack: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs what `args` asks for; `Ok(true)` when every check passed.
fn run(args: &Args) -> Result<bool, String> {
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    if args.repeat_check {
        return repeat_check(args, &scratch);
    }
    if args.workload == "all" {
        let rows = run_all(args, args.trace, &scratch, "set")?;
        let ok = rows
            .iter()
            .all(|r| r.get("verified") == Some(&Json::Bool(true)));
        if let Some(out) = &args.out {
            write_rows(out, rows)?;
        }
        return Ok(ok);
    }
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("parse_args checked the name");
    run_one(args, workload, &scratch)
}

fn pass_name(trace: bool) -> &'static str {
    if trace {
        "per_layer"
    } else {
        "end_to_end"
    }
}

/// One workload, in this process. The driver's result line is the last
/// thing printed.
fn run_one(args: &Args, workload: &Workload, scratch: &Scratch) -> Result<bool, String> {
    // Before the first thread is spawned, so every thread inherits it.
    if workload.one_cpu && pin_to_one_cpu().is_none() {
        eprintln!("stack: could not restrict the process to one CPU; running on all");
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        trace_out: args.trace_out.clone(),
        scratch,
    };
    let outcome = (workload.run)(&ctx);
    outcome.print();
    if let Some(out) = &args.out {
        let host = host_json(scratch.root());
        write_rows(
            out,
            outcome.rows_json(args.seed, pass_name(args.trace), &host),
        )?;
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn write_rows(path: &Path, rows: Vec<Json>) -> Result<(), String> {
    let doc = obj([("benchmark", "stack".into()), ("rows", Json::Arr(rows))]);
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload, each in a child process of its own (so `VmHWM` is
/// per workload); returns their rows.
fn run_all(args: &Args, trace: bool, scratch: &Scratch, tag: &str) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let file = scratch.root().join(format!("{tag}-{}.json", w.name));
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&file);
        if let (true, Some(dir)) = (trace, &args.trace_out) {
            // One span file per workload: `<trace-out>.<workload>`.
            let mut name = dir.clone().into_os_string();
            name.push(format!(".{}", w.name));
            child.arg("--trace-out").arg(name);
        }
        // `status` waits for the child: none outlives this function.
        let status = child.status().map_err(|e| format!("run {}: {e}", w.name))?;
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("{} left no result file ({status}): {e}", w.name))?;
        let doc = Json::parse(&text)?;
        rows.extend(doc.get("rows").map_or(&[][..], Json::items).iter().cloned());
    }
    Ok(rows)
}

/// The bound of each end-to-end metric, from `BENCHMARK.json` in the
/// working directory.
fn bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Json::parse(&text)?;
    doc.get("end_to_end")
        .map_or(&[][..], Json::items)
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            match (name, bound) {
                (Some(name), Some(bound)) => Ok((name.to_owned(), bound, higher)),
                _ => Err("BENCHMARK.json: an end_to_end metric lacks name or bound".to_owned()),
            }
        })
        .collect()
}

/// Two end-to-end sets back to back; per workload × metric both
/// medians, how much worse the second is, and the bound. Fails if any
/// metric worsened by more than its bound.
fn repeat_check(args: &Args, scratch: &Scratch) -> Result<bool, String> {
    let bounds = bounds()?;
    let first = run_all(args, false, scratch, "first")?;
    let second = run_all(args, false, scratch, "second")?;
    let value = |rows: &[Json], workload: &str, metric: &str| {
        rows.iter()
            .find(|r| {
                r.get("workload").and_then(Json::as_str) == Some(workload)
                    && r.get("metric").and_then(Json::as_str) == Some(metric)
            })
            .and_then(|r| r.get("value"))
            .and_then(Json::as_f64)
    };
    println!("== repeat check: two sets of runs of this commit ==");
    println!(
        "{:<18} {:<14} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut ok = true;
    for w in &WORKLOADS {
        for (metric, bound, higher) in &bounds {
            let (Some(a), Some(b)) = (
                value(&first, w.name, metric),
                value(&second, w.name, metric),
            ) else {
                return Err(format!("{} reported no {metric}", w.name));
            };
            let worse = if *higher { (a - b) / a } else { (b - a) / a };
            let within = worse <= *bound;
            ok &= within;
            println!(
                "{:<18} {:<14} {:>16.6} {:>16.6} {:>+8.1}% {:>6.0}%{}",
                w.name,
                metric,
                a,
                b,
                worse * 100.0,
                bound * 100.0,
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    let verified = first
        .iter()
        .chain(&second)
        .all(|r| r.get("verified") == Some(&Json::Bool(true)));
    if !verified {
        println!("a run failed its output checks");
    }
    Ok(ok && verified)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = args(&[
            "--workload",
            "tcp_disjoint",
            "--seed",
            "42",
            "--seconds",
            "7",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("tcp_disjoint", 42, 7, true)
        );
        let a = args(&["--trace", "0", "--seed", "3"]).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("all", 3, false));
        let a = args(&["--trace", "--out", "x.json"]).unwrap();
        assert!(a.trace && a.out == Some("x.json".into()));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn manifest_lists_exactly_these_workloads_and_metrics() {
        // `BENCHMARK.json` sits at the repository root, above this
        // package whichever manifest built it.
        let text = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find_map(|dir| std::fs::read_to_string(dir.join("BENCHMARK.json")).ok())
            .expect("BENCHMARK.json above the manifest directory");
        let doc = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|w| w.get("name").unwrap().as_str().unwrap().to_owned())
                .collect()
        };
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), ours);
        assert_eq!(names("end_to_end"), workloads::END_TO_END);
        assert_eq!(names("per_layer"), layers::PER_LAYER);
        assert!(doc.get("run_seconds").unwrap().as_f64() == Some(DEFAULT_SECONDS as f64));
    }
}
