//! The traced pass: one workload's script through every layer, each
//! layer timed from outside by the calls the benchmark makes into it,
//! with the benchmark's spans on.
//!
//! The waterfall is the same `WATERFALL_OPS`-op prefix of the script
//! through `core` (direct `apply`) → `pipeline` (`run_script`) → `store`
//! (`run_script_with_sink` into a `Store`) → `server` (TCP) → `replica`
//! (3-node cluster), each row with its delta over the row below; what
//! the separately timed stage calls do not account for is reported as
//! `pipeline.unattributed_ns_per_op`, never dropped.

use std::fmt::Write as _;
use std::hint::black_box;

use tokensync_core::analysis::{Footprint, FootprintedOp};
use tokensync_core::codec::Codec;
use tokensync_obs::Registry;
use tokensync_pipeline::{
    execute, execute_unordered, intake, run_script, run_script_with_sink, CommitLog,
    PipelineConfig, PipelineStats, Scheduler,
};
use tokensync_server::wire::{
    decode_request_header, encode_request, encode_response, FrameDecoder, Status,
};
use tokensync_server::{Reply, Server, ServerConfig};
use tokensync_store::{recover, recover_sequential};

use crate::drive::{connect_all, drive_tcp, Standard, TimedSink};
use crate::host::peak_rss_mb;
use crate::json::{obj, Json};
use crate::report::{Outcome, Row};
use crate::stats::{latency_ladder, median, percentile, self_times, NameTime};
use crate::trace::{Recorder, Span, TraceClock};
use crate::workloads::{clean_up, one_rep, verify, Ctx, Evidence, Path, Plan, Rep, Sink, CONNS};

/// Ops of the script every waterfall row runs: 100 default batches.
pub const WATERFALL_OPS: usize = 100 * 1024;
/// Repetitions of the in-memory rows (fresh object each, median taken).
const QUICK_REPS: usize = 3;
/// Requests of the light phase: 2 connections × window 8.
const LIGHT_REQUESTS: usize = 2_048;
/// In-flight window per connection of the light phase.
const LIGHT_WINDOW: usize = 8;
/// One-at-a-time calls behind `server.call_p50_ms`.
const CALLS: usize = 200;

/// The per-layer metrics, as `BENCHMARK.json` lists them: layer names
/// are crate names; `client`, `proc` and `trace` are the benchmark's own
/// cost, kept apart so it is never mistaken for the product's.
pub const PER_LAYER: [&str; 73] = [
    "core.apply_ns_per_op",
    "core.footprint_ns_per_op",
    "core.codec_encode_ns_per_op",
    "core.codec_decode_ns_per_op",
    "core.codec_bytes_per_op",
    "pipeline.probe_ns_per_op",
    "pipeline.schedule_ns_per_op",
    "pipeline.execute_ns_per_op",
    "pipeline.commit_append_ns_per_op",
    "pipeline.intake_ns_per_op",
    "pipeline.run_script_ns_per_op",
    "pipeline.spawned_ns_per_op",
    "pipeline.tax_ns_per_op",
    "pipeline.unattributed_ns_per_op",
    "pipeline.ops_per_batch",
    "pipeline.bypass_rate",
    "pipeline.bypass_aborts",
    "pipeline.serial_fraction",
    "pipeline.wave_parallelism",
    "pipeline.conflicts_per_op",
    "pipeline.commit_records",
    "store.sink_busy_ns_per_op",
    "store.seal_busy_ns_per_batch",
    "store.flush_wait_ms",
    "store.durable_lag_ops",
    "store.fsyncs_per_batch",
    "store.records_per_batch",
    "store.wal_bytes_per_op",
    "store.snapshots",
    "store.delta_snapshots",
    "store.run_script_ns_per_op",
    "store.tax_ns_per_op",
    "store.recover_snapshot_load_ms",
    "store.recover_replay_ms",
    "store.recover_replayed_ops",
    "store.recover_sequential_ms",
    "store.parallel_replay_speedup",
    "server.wire_encode_ns_per_req",
    "server.wire_decode_ns_per_req",
    "server.wire_bytes_per_req",
    "server.wire_bytes_per_resp",
    "server.connect_ms",
    "server.call_p50_ms",
    "server.service_p50_ms",
    "server.service_p99_ms",
    "server.busy_ratio",
    "server.wire_errors",
    "server.write_overflows",
    "server.ns_per_req",
    "server.tax_ns_per_req",
    "replica.serve_ns_per_op",
    "replica.pump_ns_per_op",
    "replica.tax_ns_per_op",
    "replica.retransmissions",
    "replica.down_marks",
    "replica.snapshot_ships",
    "replica.reinvites",
    "replica.max_follower_lag",
    "net.msgs_per_op",
    "net.msgs_dropped",
    "client.send_ns_per_req",
    "client.recv_ns_per_req",
    "client.loop_ns_per_req",
    "client.light_p50_ms",
    "client.p50_ms",
    "client.p90_ms",
    "client.p99_ms",
    "proc.cpu_user_s",
    "proc.cpu_sys_s",
    "proc.cpu_us_per_op",
    "proc.peak_rss_mb",
    "trace.overhead_ratio",
    "trace.spans",
];

/// The rows being collected, with the failed checks.
struct Collect {
    rows: Vec<Row>,
    problems: Vec<String>,
}

impl Collect {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.rows.push(Row::single(name, unit, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.summary.median)
    }
}

/// Median over [`QUICK_REPS`] runs of `one`, which returns the ns its
/// timed part took over `ops` ops.
fn ns_per_op(ops: usize, mut one: impl FnMut() -> u64) -> f64 {
    let runs: Vec<f64> = (0..QUICK_REPS).map(|_| one() as f64 / ops as f64).collect();
    median(&runs)
}

/// The per-layer pass of `plan`.
pub fn traced_pass<T: Standard>(ctx: &Ctx<'_>, plan: &Plan<T>) -> Outcome {
    let clock = TraceClock::start();
    let mut rec = Recorder::new(&clock, true);
    let mut off = Recorder::new(&clock, false);
    let root = rec.open();
    let w = plan.rep_ops.min(WATERFALL_OPS);
    let mut c = Collect {
        rows: Vec::new(),
        problems: Vec::new(),
    };

    core_rows(plan, w, &mut rec, root.id(), &mut c);
    stage_rows(plan, w, &mut rec, root.id(), &mut c);
    wire_rows(plan, w, &mut rec, root.id(), &mut c);

    // pipeline: run_script, volatile.
    let run_script_ns = ns_per_op(w, || {
        let token = T::restore((plan.genesis)());
        let open = rec.open();
        black_box(run_script(
            &token,
            &plan.script.ops[..w],
            &PipelineConfig::default(),
        ));
        rec.close(open, "pipeline.run_script", root.id())
    });
    c.put("pipeline.run_script_ns_per_op", "ns", run_script_ns);
    c.put(
        "pipeline.tax_ns_per_op",
        "ns",
        run_script_ns - c.get("core.apply_ns_per_op"),
    );
    let staged: f64 = ["probe", "schedule", "execute", "commit_append"]
        .iter()
        .map(|s| c.get(&format!("pipeline.{s}_ns_per_op")))
        .sum();
    c.put(
        "pipeline.unattributed_ns_per_op",
        "ns",
        run_script_ns - staged,
    );

    // The waterfall's serving rows: the spawned engine and the server
    // with the workload's sink, then the cluster. Like the workload's,
    // their operations must all succeed.
    let row = |path: Path, rec: &mut Recorder, c: &mut Collect| {
        let rep = one_rep(ctx, plan, path, 0..w, rec, root.id());
        if rep.phase.failed() > 0 {
            c.problems.push(format!(
                "{}: {} of {} ops failed on the {path:?} row",
                plan.name,
                rep.phase.failed(),
                rep.phase.attempted
            ));
        }
        rep
    };
    let spawned = row(Path::Embedded, &mut rec, &mut c);
    let spawned_ns = 1e9 / spawned.phase.ops_per_s();
    c.put("pipeline.spawned_ns_per_op", "ns", spawned_ns);
    clean_up(spawned.evidence);

    store_rows(ctx, plan, w, run_script_ns, &mut rec, root.id(), &mut c);

    let tcp = row(Path::Tcp, &mut rec, &mut c);
    let server_ns = 1e9 / tcp.phase.ops_per_s();
    c.put("server.ns_per_req", "ns", server_ns);
    c.put("server.tax_ns_per_req", "ns", server_ns - spawned_ns);
    server_rows(&tcp, &mut c);
    clean_up(tcp.evidence);
    light_session(plan, &mut rec, root.id(), &mut c);

    let replica = row(Path::Replica, &mut rec, &mut c);
    replica_rows(&replica, &mut c);
    clean_up(replica.evidence);

    // The workload itself, full reps: one discarded (the first full rep
    // of a process runs slow), then spans off, then spans on. The ratio
    // of the last two is what tracing costs; the traced rep feeds the
    // counters.
    let all = 0..plan.rep_ops;
    let warm = one_rep(ctx, plan, plan.path, all.clone(), &mut off, 0);
    clean_up(warm.evidence);
    let plain = one_rep(ctx, plan, plan.path, all.clone(), &mut off, 0);
    let plain_rate = plain.phase.ops_per_s();
    clean_up(plain.evidence);
    let mut own = one_rep(ctx, plan, plan.path, all, &mut rec, root.id());
    own_rows(plan, &mut own, plain_rate, &mut c);
    let ladder = latency_ladder(&own.phase.latencies_ns);
    c.problems.extend(verify(plan, &mut own));
    let (attempted, failed) = (own.phase.attempted, own.phase.failed());
    clean_up(own.evidence);

    rec.close(root, "trace.pass", 0);
    let spans = rec.spans();
    c.put("trace.spans", "count", spans.len() as f64);
    c.put("proc.peak_rss_mb", "MiB", peak_rss_mb());
    // The generator's own cost per request: what a connection thread
    // spent outside `send` and `recv`, over every TCP phase of the pass.
    let times = self_times(spans);
    let of = |name: &str| times.iter().find(|t| t.name == name);
    let requests = of("client.recv").map_or(1, |t| t.count.max(1));
    let loop_ns = of("client.connection").map_or(0, |t| t.self_ns);
    c.put(
        "client.loop_ns_per_req",
        "ns",
        loop_ns as f64 / requests as f64,
    );

    let mut out = Outcome::new(plan.name, plan.sizes());
    out.attempted = attempted;
    out.failed = failed;
    out.notes = waterfall_lines(&c);
    out.notes.push(ladder);
    out.notes.extend(self_time_lines(&times));
    out.problems = c.problems;
    out.rows = c.rows;
    out.conform_to(&PER_LAYER);
    let path = ctx.trace_out.clone().unwrap_or_else(|| {
        let beside = ctx.scratch.root().parent().unwrap_or(ctx.scratch.root());
        beside.join(format!("stack-trace-{}.json", plan.name))
    });
    match std::fs::write(&path, spans_json(plan.name, ctx.seed, spans)) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out
            .problems
            .push(format!("span file {}: {e}", path.display())),
    }
    out
}

/// `core.*`: the object, the footprints and the codec, single-threaded.
fn core_rows<T: Standard>(
    plan: &Plan<T>,
    w: usize,
    rec: &mut Recorder,
    parent: u64,
    c: &mut Collect,
) {
    let ops = &plan.script.ops[..w];
    let apply = ns_per_op(w, || {
        let token = T::restore((plan.genesis)());
        let open = rec.open();
        for (caller, op) in ops {
            black_box(token.apply(*caller, op));
        }
        rec.close(open, "core.apply", parent)
    });
    c.put("core.apply_ns_per_op", "ns", apply);

    let footprint = ns_per_op(w, || {
        let mut fp = Footprint::new();
        let open = rec.open();
        for (caller, op) in ops {
            fp.clear();
            op.footprint_into(*caller, &mut fp);
            black_box(&fp);
        }
        rec.close(open, "core.footprint", parent)
    });
    c.put("core.footprint_ns_per_op", "ns", footprint);

    let mut bytes = 0usize;
    let encode = ns_per_op(w, || {
        let mut buf = Vec::new();
        bytes = 0;
        let open = rec.open();
        for (_, op) in ops {
            buf.clear();
            op.encode_into(&mut buf);
            bytes += black_box(&buf).len();
        }
        rec.close(open, "core.codec_encode", parent)
    });
    c.put("core.codec_encode_ns_per_op", "ns", encode);
    c.put("core.codec_bytes_per_op", "B", bytes as f64 / w as f64);

    let encoded: Vec<Vec<u8>> = ops.iter().map(|(_, op)| op.encode()).collect();
    let decode = ns_per_op(w, || {
        let open = rec.open();
        for bytes in &encoded {
            black_box(T::Op::decode(&mut bytes.as_slice()).expect("decode what encode wrote"));
        }
        rec.close(open, "core.codec_decode", parent)
    });
    c.put("core.codec_decode_ns_per_op", "ns", decode);
}

/// `pipeline.<stage>_ns_per_op`: the engine's stages, called one by one
/// over the script in default-batch chunks, on a live object — probe
/// while the conflict density the engine would have measured allows it,
/// then either unordered execution and a sequential append, or
/// schedule, wave execution and a scheduled append.
fn stage_rows<T: Standard>(
    plan: &Plan<T>,
    w: usize,
    rec: &mut Recorder,
    parent: u64,
    c: &mut Collect,
) {
    let cfg = PipelineConfig::default();
    let ops = &plan.script.ops[..w];
    let chunk = cfg.batch.max_ops;
    let mut per_rep: Vec<[f64; 5]> = Vec::new();
    for _ in 0..QUICK_REPS {
        let token = T::restore((plan.genesis)());
        let mut scheduler = Scheduler::new();
        let mut log = CommitLog::new();
        let (mut probe, mut schedule, mut exec, mut commit, mut hand_off) = (0, 0, 0, 0, 0);
        // The engine's own predictor, from its public config: an EWMA of
        // conflicts per op that gates the probe.
        let mut density = 0.0;
        for (seq, batch) in ops.chunks(chunk).enumerate() {
            let seq = seq as u64;
            if cfg.bypass.enabled && density <= cfg.bypass.max_density {
                let open = rec.open();
                let commutes = scheduler.batch_commutes(batch);
                probe += rec.close(open, "pipeline.probe", parent);
                if commutes {
                    let open = rec.open();
                    let responses = execute_unordered(&token, batch, &cfg.exec);
                    exec += rec.close(open, "pipeline.execute", parent);
                    let open = rec.open();
                    log.append_sequential(seq, batch, &responses);
                    commit += rec.close(open, "pipeline.commit_append", parent);
                    density *= 1.0 - cfg.bypass.alpha;
                    continue;
                }
            }
            let open = rec.open();
            let plan = scheduler.schedule(batch, &cfg.schedule);
            schedule += rec.close(open, "pipeline.schedule", parent);
            let open = rec.open();
            let responses = execute(&token, batch, &plan, &cfg.exec);
            exec += rec.close(open, "pipeline.execute", parent);
            let open = rec.open();
            log.append_batch(seq, batch, &responses, &plan);
            commit += rec.close(open, "pipeline.commit_append", parent);
            let measured = (plan.conflicts as f64 / batch.len() as f64).clamp(0.0, 1.0);
            density = (1.0 - cfg.bypass.alpha) * density + cfg.bypass.alpha * measured;
        }
        // The intake alone: submit a batch, cut it, no engine behind.
        let (client, mut batcher) = intake::<T::Op>(cfg.batch);
        for batch in ops.chunks(chunk) {
            let open = rec.open();
            for (i, (caller, op)) in batch.iter().enumerate() {
                client
                    .submit_tagged(*caller, op.clone(), i as u64 + 1)
                    .expect("the batcher is alive");
            }
            black_box(batcher.next_batch());
            hand_off += rec.close(open, "pipeline.intake", parent);
        }
        per_rep.push([probe, schedule, exec, commit, hand_off].map(|ns| ns as f64 / w as f64));
    }
    for (i, stage) in ["probe", "schedule", "execute", "commit_append", "intake"]
        .iter()
        .enumerate()
    {
        let runs: Vec<f64> = per_rep.iter().map(|r| r[i]).collect();
        c.put(&format!("pipeline.{stage}_ns_per_op"), "ns", median(&runs));
    }
}

/// `server.wire_*`: framing and request decoding, no socket.
fn wire_rows<T: Standard>(
    plan: &Plan<T>,
    w: usize,
    rec: &mut Recorder,
    parent: u64,
    c: &mut Collect,
) {
    let ops = &plan.script.ops[..w];
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let encode = ns_per_op(w, || {
        frames.clear();
        let open = rec.open();
        for (i, (caller, op)) in ops.iter().enumerate() {
            frames.push(encode_request(i as u64 + 1, T::STANDARD, *caller, op));
        }
        rec.close(open, "server.wire_encode", parent)
    });
    c.put("server.wire_encode_ns_per_req", "ns", encode);
    let request_bytes: usize = frames.iter().map(Vec::len).sum();
    c.put(
        "server.wire_bytes_per_req",
        "B",
        request_bytes as f64 / w as f64,
    );

    let decode = ns_per_op(w, || {
        let mut dec = FrameDecoder::new();
        let open = rec.open();
        for frame in &frames {
            dec.feed(frame);
            let body = dec.try_frame().expect("valid frame").expect("whole frame");
            let (_, _, _, mut op) = decode_request_header(&body).expect("whole header");
            black_box(T::Op::decode(&mut op).expect("decode what encode wrote"));
        }
        rec.close(open, "server.wire_decode", parent)
    });
    c.put("server.wire_decode_ns_per_req", "ns", decode);

    let response_bytes: usize = plan.script.expect[..w]
        .iter()
        .map(|resp| encode_response(1, Status::Ok, Some(&resp.encode())).len())
        .sum();
    c.put(
        "server.wire_bytes_per_resp",
        "B",
        response_bytes as f64 / w as f64,
    );
}

/// `store.*`: `run_script_with_sink` into a timed store (the workload's
/// config, or the default), then flush, close and recover what it
/// wrote, both ways.
fn store_rows<T: Standard>(
    ctx: &Ctx<'_>,
    plan: &Plan<T>,
    w: usize,
    run_script_ns: f64,
    rec: &mut Recorder,
    parent: u64,
    c: &mut Collect,
) {
    let genesis = (plan.genesis)();
    let cfg = Some(plan.store.unwrap_or_default());
    let store = Sink::create(ctx, cfg, &genesis, true);
    let token = T::restore(genesis);
    let open = rec.open();
    let mut sink = TimedSink::new(store, rec, open.id());
    let run = run_script_with_sink(
        &token,
        &plan.script.ops[..w],
        &PipelineConfig::default(),
        &mut sink,
    );
    let ns = rec.close(open, "store.run_script", parent) as f64 / w as f64;
    c.put("store.run_script_ns_per_op", "ns", ns);
    c.put("store.tax_ns_per_op", "ns", ns - run_script_ns);
    // For a workload that serves through a store, its own traced rep
    // fills these rows instead (`own_rows`).
    if plan.serving_store().is_none() {
        sink_rows(plan.name, &mut sink, &run.stats, c);
    }
    rec.absorb(sink.take_spans());
    let Sink::Durable(store, dir) = sink.inner else {
        unreachable!("the store row always has a store");
    };
    store.close().expect("close store");

    let open = rec.open();
    let back = recover::<T>(&dir).expect("recover");
    rec.close(open, "store.recover", parent);
    let open = rec.open();
    let oracle = recover_sequential::<T>(&dir).expect("recover sequentially");
    let sequential_ns = rec.close(open, "store.recover_sequential", parent);
    if back.state != token.snapshot() || oracle.state != back.state {
        c.problems.push(format!(
            "{}: the store row does not recover to what it served",
            plan.name
        ));
    }
    c.put(
        "store.recover_snapshot_load_ms",
        "ms",
        back.snapshot_load.as_secs_f64() * 1e3,
    );
    c.put(
        "store.recover_replay_ms",
        "ms",
        back.replay.as_secs_f64() * 1e3,
    );
    c.put("store.recover_replayed_ops", "count", back.replayed as f64);
    c.put(
        "store.recover_sequential_ms",
        "ms",
        sequential_ns as f64 / 1e6,
    );
    c.put(
        "store.parallel_replay_speedup",
        "ratio",
        oracle.replay.as_secs_f64() / back.replay.as_secs_f64().max(1e-9),
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// The rows a timed store sink fills: busy time from the wrapper, I/O
/// counts from the store's own counters, and the coalescing identity
/// `store/tests/obs_counters.rs` pins — a pipelined group commit never
/// syncs the WAL more often than it seals, snapshots and closes.
fn sink_rows<T: Standard>(
    workload: &str,
    sink: &mut TimedSink<Sink<T>>,
    stats: &PipelineStats,
    c: &mut Collect,
) {
    let (ops, batches) = (stats.ops.max(1) as f64, stats.batches.max(1) as f64);
    c.put(
        "store.sink_busy_ns_per_op",
        "ns",
        (sink.wave_ns + sink.seal_ns) as f64 / ops,
    );
    c.put(
        "store.seal_busy_ns_per_batch",
        "ns",
        sink.seal_ns as f64 / sink.seals.max(1) as f64,
    );
    let Sink::Durable(store, _) = &mut sink.inner else {
        unreachable!("store rows are only read off a sink with a store");
    };
    let durable = stats.durable_seq.unwrap_or(stats.ops);
    c.put(
        "store.durable_lag_ops",
        "count",
        stats.ops.saturating_sub(durable) as f64,
    );
    let flush = std::time::Instant::now();
    store.flush().expect("flush store");
    c.put(
        "store.flush_wait_ms",
        "ms",
        flush.elapsed().as_secs_f64() * 1e3,
    );
    let obs = store.obs().clone();
    c.put(
        "store.fsyncs_per_batch",
        "ratio",
        obs.fsyncs() as f64 / batches,
    );
    c.put(
        "store.records_per_batch",
        "ratio",
        obs.records_appended() as f64 / batches,
    );
    c.put(
        "store.wal_bytes_per_op",
        "B",
        obs.bytes_appended() as f64 / ops,
    );
    c.put("store.snapshots", "count", obs.snapshots_taken() as f64);
    c.put(
        "store.delta_snapshots",
        "count",
        obs.delta_snapshots_taken() as f64,
    );
    let allowed = stats.batches + obs.snapshots_taken() + obs.delta_snapshots_taken() + 1;
    if obs.fsyncs() > allowed {
        c.problems.push(format!(
            "{workload}: {} WAL fsyncs for {} batches, {} snapshots, {} delta snapshots",
            obs.fsyncs(),
            stats.batches,
            obs.snapshots_taken(),
            obs.delta_snapshots_taken()
        ));
    }
}

/// `server.*` and `client.*` from the waterfall's TCP row.
fn server_rows<T: Standard>(tcp: &Rep<T>, c: &mut Collect) {
    let requests = tcp.phase.attempted.max(1) as f64;
    c.put(
        "client.send_ns_per_req",
        "ns",
        tcp.phase.submit_ns as f64 / requests,
    );
    c.put(
        "client.recv_ns_per_req",
        "ns",
        tcp.phase.collect_ns as f64 / requests,
    );
    let Evidence::Served {
        server: Some(obs), ..
    } = &tcp.evidence
    else {
        unreachable!("a TCP rep has a server");
    };
    let service = obs.request_ns.snapshot();
    c.put("server.service_p50_ms", "ms", service.p50 as f64 / 1e6);
    c.put("server.service_p99_ms", "ms", service.p99 as f64 / 1e6);
    let answered = obs.requests_ok.get() + obs.busy.get() + obs.bad_requests.get();
    c.put(
        "server.busy_ratio",
        "ratio",
        obs.busy.get() as f64 / answered.max(1) as f64,
    );
    c.put("server.wire_errors", "count", obs.wire_errors.get() as f64);
    c.put(
        "server.write_overflows",
        "count",
        obs.write_overflows.get() as f64,
    );
}

/// The unloaded server: connect time, one call at a time, then 16
/// requests in flight — where the batch timer, not the work, sets the
/// latency. Volatile engine: what a single wallet sees of the server
/// alone.
fn light_session<T: Standard>(plan: &Plan<T>, rec: &mut Recorder, parent: u64, c: &mut Collect) {
    let token = std::sync::Arc::new(T::restore((plan.genesis)()));
    let server = Server::spawn(token, (), ServerConfig::default(), &Registry::new())
        .expect("bind a loopback port");
    let t0 = rec.now_ns();
    let mut clients = connect_all::<T>(server.addr(), CONNS, rec, parent).expect("connect");
    c.put(
        "server.connect_ms",
        "ms",
        (rec.now_ns() - t0) as f64 / 1e6 / CONNS as f64,
    );
    let mut calls = Vec::with_capacity(CALLS);
    for (i, (caller, op)) in plan.script.ops[..CALLS].iter().enumerate() {
        let open = rec.open();
        let reply = clients[0].call(*caller, op);
        let ns = rec.close(open, "client.call", parent);
        if matches!(&reply, Ok(Reply::Ok(resp)) if *resp == plan.script.expect[i]) {
            calls.push(ns);
        }
    }
    calls.sort_unstable();
    let light = drive_tcp(
        &mut clients,
        &plan.script,
        CALLS..CALLS + LIGHT_REQUESTS,
        LIGHT_WINDOW,
        rec,
        parent,
    );
    drop(clients);
    server.finish();
    if calls.len() < CALLS || light.failed() > 0 {
        c.problems.push(format!(
            "{}: a request of the light session failed",
            plan.name
        ));
    }
    let p50 = |ns: &[u64]| {
        if ns.is_empty() {
            0.0
        } else {
            percentile(ns, 0.5) as f64 / 1e6
        }
    };
    c.put("server.call_p50_ms", "ms", p50(&calls));
    c.put("client.light_p50_ms", "ms", p50(&light.latencies_ns));
}

/// `replica.*` / `net.*` from the waterfall's cluster row. The counts
/// repeat exactly for a seed: the network is simulated.
fn replica_rows<T: Standard>(rep: &Rep<T>, c: &mut Collect) {
    let Evidence::Replicated(outcome) = &rep.evidence else {
        unreachable!("a replica rep has a cluster");
    };
    let ops = rep.phase.attempted.max(1) as f64;
    let serve = rep.phase.submit_ns as f64 / ops;
    let pump = rep.phase.collect_ns as f64 / ops;
    c.put("replica.serve_ns_per_op", "ns", serve);
    c.put("replica.pump_ns_per_op", "ns", pump);
    c.put(
        "replica.tax_ns_per_op",
        "ns",
        serve + pump - c.get("store.run_script_ns_per_op"),
    );
    let stats = outcome.cluster.replication_stats();
    c.put(
        "replica.retransmissions",
        "count",
        stats.retransmissions as f64,
    );
    c.put("replica.down_marks", "count", stats.down_marks as f64);
    c.put(
        "replica.snapshot_ships",
        "count",
        stats.snapshot_ships as f64,
    );
    c.put("replica.reinvites", "count", stats.reinvites as f64);
    let lag = outcome
        .cluster
        .follower_lags()
        .into_iter()
        .max()
        .unwrap_or(0);
    c.put("replica.max_follower_lag", "count", lag as f64);
    let net = outcome.cluster.metrics();
    c.put("net.msgs_per_op", "ratio", net.sent as f64 / ops);
    c.put(
        "net.msgs_dropped",
        "count",
        (net.dropped + net.partitioned) as f64,
    );
}

/// The workload's own traced rep: scheduling counters, process CPU,
/// tracing overhead — and the store rows, when it serves through one.
fn own_rows<T: Standard>(plan: &Plan<T>, own: &mut Rep<T>, plain_rate: f64, c: &mut Collect) {
    let s = own.stats;
    let ops = s.ops.max(1) as f64;
    c.put(
        "pipeline.ops_per_batch",
        "ratio",
        ops / s.batches.max(1) as f64,
    );
    c.put("pipeline.bypass_rate", "ratio", s.bypass_rate());
    c.put("pipeline.bypass_aborts", "count", s.bypass_aborts as f64);
    c.put("pipeline.serial_fraction", "ratio", s.serial_fraction());
    c.put("pipeline.wave_parallelism", "ratio", s.wave_parallelism());
    c.put(
        "pipeline.conflicts_per_op",
        "ratio",
        s.conflicts as f64 / ops,
    );
    c.put("pipeline.commit_records", "count", s.commit_records as f64);
    if plan.serving_store().is_some() {
        let Evidence::Served { sink, .. } = &mut own.evidence else {
            unreachable!("a serving workload with a store leaves its sink");
        };
        sink_rows(plan.name, sink, &s, c);
    }
    let (user, sys) = own.cpu_s;
    c.put("proc.cpu_user_s", "s", user);
    c.put("proc.cpu_sys_s", "s", sys);
    c.put(
        "proc.cpu_us_per_op",
        "us",
        (user + sys) * 1e6 / own.phase.ok.max(1) as f64,
    );
    c.put(
        "trace.overhead_ratio",
        "ratio",
        own.phase.ops_per_s() / plain_rate.max(1e-9),
    );
    let lat = &own.phase.latencies_ns;
    let ms = |p: f64| {
        if lat.is_empty() {
            0.0
        } else {
            percentile(lat, p) as f64 / 1e6
        }
    };
    c.put("client.p50_ms", "ms", ms(0.50));
    c.put("client.p90_ms", "ms", ms(0.90));
    c.put("client.p99_ms", "ms", ms(0.99));
}

/// The waterfall, as lines: each layer's ns/op on the same script and
/// its delta over the layer it is built on — the store and the spawned
/// engine on the pipeline, the server on the spawned engine, the
/// replica (which serves in process, not over TCP) on the store.
fn waterfall_lines(c: &Collect) -> Vec<String> {
    let replica = c.get("replica.serve_ns_per_op") + c.get("replica.pump_ns_per_op");
    let rows = [
        ("core", "apply", c.get("core.apply_ns_per_op"), "-", 0.0),
        (
            "pipeline",
            "run_script",
            c.get("pipeline.run_script_ns_per_op"),
            "core",
            c.get("pipeline.tax_ns_per_op"),
        ),
        (
            "pipeline",
            "spawned",
            c.get("pipeline.spawned_ns_per_op"),
            "run_script",
            c.get("pipeline.spawned_ns_per_op") - c.get("pipeline.run_script_ns_per_op"),
        ),
        (
            "store",
            "run_script + Store",
            c.get("store.run_script_ns_per_op"),
            "run_script",
            c.get("store.tax_ns_per_op"),
        ),
        (
            "server",
            "TCP, 2 x 768",
            c.get("server.ns_per_req"),
            "spawned",
            c.get("server.tax_ns_per_req"),
        ),
        (
            "replica",
            "serve + pump",
            replica,
            "store",
            c.get("replica.tax_ns_per_op"),
        ),
    ];
    let mut lines = vec![format!(
        "waterfall, same script ({:<8} {:<20} {:>10} {:>12} over)",
        "layer", "call", "ns/op", "delta"
    )];
    for (layer, call, ns, base, delta) in rows {
        lines.push(format!(
            "  {layer:<8} {call:<20} {ns:>10.1} {delta:>+12.1} {base}"
        ));
    }
    lines.push(format!(
        "  pipeline stage calls sum to {:.1} ns/op of run_script; unattributed {:+.1}",
        c.get("pipeline.run_script_ns_per_op") - c.get("pipeline.unattributed_ns_per_op"),
        c.get("pipeline.unattributed_ns_per_op")
    ));
    lines
}

/// Total and self time per span name, as lines.
fn self_time_lines(times: &[NameTime]) -> Vec<String> {
    let mut lines = vec!["spans (name, count, total ms, self ms):".to_owned()];
    for t in times {
        lines.push(format!(
            "  {:<26} {:>9} {:>12.3} {:>12.3}",
            t.name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    lines
}

/// The span file: a name table and one `[name, id, parent, start_ns,
/// end_ns]` row per span. Rows are numbers only and there are hundreds
/// of thousands of them, so they are written straight into the text
/// instead of through a [`Json`] tree a hundred times their size.
fn spans_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let head = obj([
        ("workload", workload.into()),
        ("seed", seed.into()),
        (
            "columns",
            Json::Arr(
                ["name", "id", "parent", "start_ns", "end_ns"]
                    .map(Json::from)
                    .to_vec(),
            ),
        ),
        (
            "names",
            Json::Arr(names.iter().copied().map(Json::from).collect()),
        ),
    ])
    .to_line();
    let mut text = String::with_capacity(head.len() + 48 * spans.len());
    text.push_str(head.strip_suffix('}').expect("an object"));
    text.push_str(", \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let name = names.binary_search(&s.name).expect("name is in the table");
        let sep = if i == 0 { "" } else { ", " };
        write!(
            text,
            "{sep}[{name}, {}, {}, {}, {}]",
            s.id, s.parent, s.start_ns, s.end_ns
        )
        .expect("write to String");
    }
    text.push_str("]}");
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_file_is_json_with_a_name_table() {
        let span = |name, id, parent| Span {
            name,
            id,
            parent,
            start_ns: 10 * id,
            end_ns: 10 * id + 5,
        };
        let spans = [span("b.y", 1, 0), span("a.x", 2, 1), span("b.y", 3, 1)];
        let doc = Json::parse(&spans_json("w", 9, &spans)).unwrap();
        let names: Vec<_> = doc
            .get("names")
            .unwrap()
            .items()
            .iter()
            .map(|n| n.as_str().unwrap())
            .collect();
        assert_eq!(names, ["a.x", "b.y"]);
        let rows = doc.get("spans").unwrap().items();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[1],
            Json::Arr([0u64, 2, 1, 20, 25].map(Json::from).to_vec())
        );
        assert_eq!(
            Json::parse(&spans_json("w", 9, &[]))
                .unwrap()
                .get("spans")
                .unwrap()
                .items()
                .len(),
            0
        );
    }
}
