//! The six workloads: what each drives, at what size, through which
//! way into the stack — and the end-to-end pass that measures them, rep
//! by rep, and verifies what the product produced.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_core::standards::erc1155::ShardedErc1155;
use tokensync_core::standards::erc721::ShardedErc721;
use tokensync_obs::Registry;
use tokensync_pipeline::{
    run_script_with_sink, CommitSink, CommittedOp, PipelineConfig, PipelineRun, PipelineStats,
};
use tokensync_server::{Server, ServerConfig, ServerObs};
use tokensync_spec::ObjectType;
use tokensync_store::{recover, recover_sequential, Recovered, Store, StoreConfig, StoreObs};

use crate::drive::{
    connect_all, drive_embedded, drive_replica, drive_tcp, new_cluster, Phase, ReplicaOutcome,
    ScriptOf, Standard, Supply, TimedSink,
};
use crate::gen;
use crate::host::{cpu_seconds, peak_rss_mb, Scratch};
use crate::json::{obj, Json};
use crate::layers;
use crate::report::{Outcome, Row};
use crate::stats::{latency_ladder, percentile, Summary};
use crate::trace::{Recorder, TraceClock};

/// Connections of the TCP workloads: as many as the host has cores.
pub const CONNS: usize = 2;
/// In-flight window per connection: together one and a half default
/// batches. With exactly one batch in flight every batch cut races the
/// 2 ms batch timer (the last requests of a window arrive just before
/// or just after it), and throughput flips between two regimes from
/// rep to rep; with half a batch already queued when a batch commits,
/// every cut is a size cut. The window stays clear of the per-shard
/// intake depth and the per-connection write queue (1024 each).
pub const TCP_WINDOW: usize = 768;
/// In-flight window of the in-process producer: two default batches.
pub const EMBED_WINDOW: usize = 2048;
/// Fewest measured reps of any run, whatever `--seconds` says.
pub const MIN_REPS: usize = 5;

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 3] = ["setup_s", "ops_per_s", "cpu_us_per_op"];

/// What a run is asked to do.
pub struct Ctx<'a> {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the measured reps should take together on
    /// the host the sizes were chosen on.
    pub seconds: u64,
    /// `--trace`: the per-layer pass instead of the end-to-end pass.
    pub trace: bool,
    /// Where the span file goes.
    pub trace_out: Option<PathBuf>,
    /// Where stores and clusters live.
    pub scratch: &'a Scratch,
}

/// One workload of the benchmark.
pub struct Workload {
    /// Its name on the command line and in every row.
    pub name: &'static str,
    /// Why it is in the benchmark, in one line.
    pub why: &'static str,
    /// Whether the process is restricted to one CPU before it runs. The
    /// in-process workloads are: engine, wave workers and caller do
    /// little between hand-offs there, and on a shared 2-vCPU host the
    /// cost of a hand-off between vCPUs changes by tens of percent for
    /// minutes at a time (README, *Noise*). An embedded engine sharing
    /// its caller's core is also a deployment of its own. The TCP
    /// workloads keep every CPU — a server owns its host, and they are
    /// steadier so — and so does `recover_1m`, whose parallel replay is
    /// the thing measured.
    pub one_cpu: bool,
    /// Runs it.
    pub run: fn(&Ctx<'_>) -> Outcome,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "tcp_disjoint",
        why: "owner-disjoint ERC20 transfers over TCP, no store: framing, syscalls and routing do almost all the work",
        one_cpu: false,
        run: tcp_disjoint,
    },
    Workload {
        name: "tcp_durable_1155",
        why: "ERC1155 batch transfers, 5% on one hot account, over TCP with acks at the fsync watermark: store and codec on the blocking path",
        one_cpu: false,
        run: tcp_durable_1155,
    },
    Workload {
        name: "embed_hotrow",
        why: "k=8 spenders racing one ERC20 allowance row, in process: scheduling and the serial lane dominate, no sockets, no disk",
        one_cpu: true,
        run: embed_hotrow,
    },
    Workload {
        name: "embed_disjoint721",
        why: "commuting ERC721 transfers beside reads, in process: every batch bypasses, so probe, hand-off and commit append are the cost",
        one_cpu: true,
        run: embed_disjoint721,
    },
    Workload {
        name: "replica_quorum",
        why: "the tcp_disjoint script served in 1024-op rounds by a 3-node quorum cluster: WAL shipping and follower fsyncs dominate",
        one_cpu: true,
        run: replica_quorum,
    },
    Workload {
        name: "recover_1m",
        why: "restart: recover 1M accounts and a Zipf-contended log written by the store, so a faster write path that slows replay shows",
        one_cpu: false,
        run: recover_1m,
    },
];

/// The way into the stack a workload takes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Path {
    /// Loopback TCP into `Server::spawn`, [`CONNS`] × [`TCP_WINDOW`].
    Tcp,
    /// `Pipeline::spawn_with_sink` from one producer, [`EMBED_WINDOW`].
    Embedded,
    /// A 3-node `Cluster` over a fault-free `SimNet`.
    Replica,
    /// Set-up writes a store; the timed op is `recover`.
    Recover,
}

/// What the scheduling counters of a workload must look like.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// Every batch certified commuting: `bypass_rate` = 1.
    AllBypass,
    /// No batch bypassed and most ops serialized: `bypass_rate` = 0,
    /// `serial_fraction` > 0.5.
    Serial,
    /// Mixed traffic, nothing asserted.
    Any,
}

/// Everything that defines a workload, generic over its standard.
pub struct Plan<T: Standard> {
    /// The workload's name.
    pub name: &'static str,
    /// Builds the starting state (part of every rep's set-up).
    pub genesis: Box<dyn Fn() -> T::State>,
    /// The ops, with their expected responses.
    pub script: ScriptOf<T>,
    /// The way in.
    pub path: Path,
    /// The store behind the engine, if the workload has one (the only
    /// non-default settings of the benchmark are in here).
    pub store: Option<StoreConfig>,
    /// Ops of one measured rep.
    pub rep_ops: usize,
    /// Measured reps of the end-to-end pass.
    pub reps: usize,
    /// Discarded reps before them: a fresh process runs its first
    /// seconds slower (the allocator has not yet grown to the working
    /// set, caches and the loopback stack are cold).
    pub warmup_reps: usize,
    /// The scheduling shape the script must produce.
    pub shape: Shape,
    /// What the rep counts do not say: `n`, the in-flight window, the
    /// non-default settings, the mix.
    pub about: Json,
}

impl<T: Standard> Plan<T> {
    /// The store the engine serves through on the TCP and in-process
    /// paths: the plan's, unless the plan only writes one to recover it.
    pub fn serving_store(&self) -> Option<StoreConfig> {
        self.store.filter(|_| self.path != Path::Recover)
    }

    /// Sizes and settings, recorded next to every number.
    pub fn sizes(&self) -> Json {
        let mut sizes = vec![
            ("ops_per_rep".to_owned(), self.rep_ops.into()),
            ("reps".to_owned(), self.reps.into()),
            ("warmup_reps".to_owned(), self.warmup_reps.into()),
        ];
        if let Json::Obj(about) = &self.about {
            sizes.extend(about.iter().cloned());
        }
        Json::Obj(sizes)
    }
}

/// Reps so that `reps × rep_ops` takes about `seconds` at `nominal`
/// ops/s — the rate the workload ran at when its sizes were chosen. All
/// three are constants: the work of a run depends on `--seconds` alone,
/// never on how fast this commit is.
fn reps_for(seconds: u64, nominal_ops_per_s: usize, rep_ops: usize) -> usize {
    (seconds as usize * nominal_ops_per_s / rep_ops).max(MIN_REPS)
}

fn about(n: usize, in_flight: &str, settings: &str, mix: Json) -> Json {
    obj([
        ("n", n.into()),
        ("in_flight", in_flight.into()),
        ("non_default_settings", settings.into()),
        ("mix", mix),
    ])
}

fn tcp_disjoint(ctx: &Ctx<'_>) -> Outcome {
    let (n, rep_ops) = (100_000, 200 * 1024);
    let (reps, warmup_reps) = (reps_for(ctx.seconds, 300_000, rep_ops), 3);
    run(
        ctx,
        Plan::<ShardedErc20> {
            name: "tcp_disjoint",
            genesis: Box::new(move || gen::erc20_funded(n)),
            script: gen::erc20_disjoint(n, rep_ops, ctx.seed),
            path: Path::Tcp,
            store: None,
            rep_ops,
            reps,
            warmup_reps,
            shape: Shape::AllBypass,
            about: about(
                n,
                "2 connections x window 768, closed loop",
                "none",
                obj([("sources", (n / 2).into()), ("sinks", (n / 2).into())]),
            ),
        },
    )
}

fn tcp_durable_1155(ctx: &Ctx<'_>) -> Outcome {
    let (n, types, hot_percent, rep_ops) = (100_000, 8, 5, 150 * 1024);
    let (reps, warmup_reps) = (reps_for(ctx.seconds, 100_000, rep_ops), 2);
    // Several incremental-snapshot cycles per rep.
    let snapshot_every_ops = 40_000;
    run(
        ctx,
        Plan::<ShardedErc1155> {
            name: "tcp_durable_1155",
            genesis: Box::new(move || gen::erc1155_funded(n, types)),
            script: gen::erc1155_batches(n, types, rep_ops, ctx.seed, hot_percent),
            path: Path::Tcp,
            store: Some(StoreConfig {
                snapshot_every_ops,
                ..StoreConfig::default()
            }),
            rep_ops,
            reps,
            warmup_reps,
            shape: Shape::Any,
            about: about(
                n,
                "2 connections x window 768, closed loop",
                "StoreConfig.snapshot_every_ops = 40000, ServerConfig.durable_acks = true",
                obj([
                    ("types", types.into()),
                    ("rows_per_batch", "1-4".into()),
                    ("hot_percent", hot_percent.into()),
                ]),
            ),
        },
    )
}

fn embed_hotrow(ctx: &Ctx<'_>) -> Outcome {
    let (n, k, rep_ops) = (100_000, 8, 1024 * 1024);
    let (reps, warmup_reps) = (reps_for(ctx.seconds, 1_800_000, rep_ops), 3);
    run(
        ctx,
        Plan::<ShardedErc20> {
            name: "embed_hotrow",
            genesis: Box::new(move || gen::hot_row_state(n, k)),
            script: gen::hot_row(n, rep_ops, ctx.seed, k),
            path: Path::Embedded,
            store: None,
            rep_ops,
            reps,
            warmup_reps,
            shape: Shape::Serial,
            about: about(
                n,
                "1 producer, window 2048, closed loop, process on one CPU",
                "none",
                obj([
                    ("spenders", k.into()),
                    ("mix", "70% transferFrom / 10% approve / 20% cold".into()),
                ]),
            ),
        },
    )
}

fn embed_disjoint721(ctx: &Ctx<'_>) -> Outcome {
    let (processes, tokens, rep_ops) = (4_096, 200_000, 1024 * 1024);
    let (reps, warmup_reps) = (reps_for(ctx.seconds, 1_800_000, rep_ops), 3);
    run(
        ctx,
        Plan::<ShardedErc721> {
            name: "embed_disjoint721",
            genesis: Box::new(move || gen::erc721_minted(processes, tokens)),
            script: gen::erc721_disjoint(processes, tokens, rep_ops, ctx.seed),
            path: Path::Embedded,
            store: None,
            rep_ops,
            reps,
            warmup_reps,
            shape: Shape::AllBypass,
            about: about(
                tokens,
                "1 producer, window 2048, closed loop, process on one CPU",
                "none",
                obj([
                    ("processes", processes.into()),
                    ("mix", "70% TransferFrom / 30% OwnerOf".into()),
                ]),
            ),
        },
    )
}

fn replica_quorum(ctx: &Ctx<'_>) -> Outcome {
    let (n, rep_ops) = (100_000, 400 * 1024);
    let (reps, warmup_reps) = (reps_for(ctx.seconds, 370_000, rep_ops), 2);
    run(
        ctx,
        Plan::<ShardedErc20> {
            name: "replica_quorum",
            genesis: Box::new(move || gen::erc20_funded(n)),
            script: gen::erc20_disjoint(n, rep_ops, ctx.seed),
            path: Path::Replica,
            store: None,
            rep_ops,
            reps,
            warmup_reps,
            shape: Shape::AllBypass,
            about: about(
                n,
                "one 1024-op round at a time, process on one CPU",
                "none",
                obj([
                    ("nodes", 3usize.into()),
                    ("round_ops", crate::drive::ROUND.into()),
                ]),
            ),
        },
    )
}

fn recover_1m(ctx: &Ctx<'_>) -> Outcome {
    let (n, rep_ops, theta) = (1_000_000, 1_000_000, 0.6);
    let (reps, warmup_reps) = (MIN_REPS, 1);
    run(
        ctx,
        Plan::<ShardedErc20> {
            name: "recover_1m",
            genesis: Box::new(move || gen::erc20_mixed_state(n)),
            script: gen::zipf_mixed(n, rep_ops, ctx.seed, theta),
            path: Path::Recover,
            store: Some(StoreConfig::default()),
            rep_ops,
            reps,
            warmup_reps,
            shape: Shape::Any,
            about: about(
                n,
                "one recover at a time",
                "none (snapshot_every_ops = 0 is the default: the whole log replays)",
                obj([
                    ("zipf_theta", theta.into()),
                    (
                        "mix",
                        "60% transfer / 20% approve / 20% transferFrom".into(),
                    ),
                ]),
            ),
        },
    )
}

/// Runs `plan`'s end-to-end pass or, under `--trace`, its per-layer
/// pass.
fn run<T: Standard>(ctx: &Ctx<'_>, plan: Plan<T>) -> Outcome {
    if ctx.trace {
        layers::traced_pass(ctx, &plan)
    } else {
        end_to_end_pass(ctx, &plan)
    }
}

// ── sinks and reps ─────────────────────────────────────────────────────

/// The engine's durability sink: nothing, or a store. One type, so a
/// rep is written once for both.
pub enum Sink<T: Standard> {
    /// The volatile engine.
    Volatile,
    /// A store in its scratch directory.
    Durable(Box<Store<T>>, PathBuf),
}

impl<T: Standard> Sink<T> {
    /// The sink for `cfg`: nothing, or a fresh store on `genesis` —
    /// with the store's own counters attached when tracing.
    pub fn create(
        ctx: &Ctx<'_>,
        cfg: Option<StoreConfig>,
        genesis: &T::State,
        traced: bool,
    ) -> Self {
        let Some(cfg) = cfg else {
            return Sink::Volatile;
        };
        let dir = ctx.scratch.fresh("store");
        let mut store = Store::create(&dir, genesis, cfg).expect("create store");
        if traced {
            store.set_obs(StoreObs::new(&Registry::new()));
        }
        Sink::Durable(Box::new(store), dir)
    }
}

impl<T: Standard> CommitSink<T> for Sink<T> {
    fn wave_committed(&mut self, token: &T, entries: &[CommittedOp<T::Op, T::Resp>]) {
        if let Sink::Durable(store, _) = self {
            store.wave_committed(token, entries);
        }
    }

    fn batch_sealed(&mut self, token: &T, batch: u64) {
        if let Sink::Durable(store, _) = self {
            store.batch_sealed(token, batch);
        }
    }

    fn durable_seq(&self) -> Option<u64> {
        match self {
            Sink::Volatile => None,
            Sink::Durable(store, _) => CommitSink::<T>::durable_seq(store.as_ref()),
        }
    }
}

/// What a rep leaves behind for verification and the per-layer rows.
// One `Evidence` exists at a time (a rep's, dropped before the next
// rep), so the size of the largest variant costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Evidence<T: Standard> {
    /// A served run: its log, the object's final state, its sink.
    Served {
        /// The engine's run.
        run: PipelineRun<T::Op, T::Resp>,
        /// The live object's snapshot after the run.
        live: T::State,
        /// The timed sink, with whatever it wraps.
        sink: TimedSink<Sink<T>>,
        /// The server's counters, on the TCP path.
        server: Option<ServerObs>,
    },
    /// A replicated run.
    Replicated(Box<ReplicaOutcome<T>>),
    /// A recovery: the store directory, what came back, and the state
    /// the set-up object ended in.
    Recovered {
        /// The store directory.
        dir: PathBuf,
        /// What `recover` returned.
        recovered: Box<Recovered<T>>,
        /// The set-up object's snapshot.
        written: T::State,
    },
}

/// One rep: fresh everything, one timed phase.
pub struct Rep<T: Standard> {
    /// Wall time from the start of the rep to the first timed op.
    pub setup_s: f64,
    /// The timed phase.
    pub phase: Phase,
    /// CPU seconds (user, system) the process spent during the phase.
    pub cpu_s: (f64, f64),
    /// The engine's scheduling counters.
    pub stats: PipelineStats,
    /// What it leaves behind.
    pub evidence: Evidence<T>,
}

/// Runs one rep of `plan` over `script.ops[range]` along `path` (the
/// plan's own, or another layer's for the waterfall).
pub fn one_rep<T: Standard>(
    ctx: &Ctx<'_>,
    plan: &Plan<T>,
    path: Path,
    range: Range<usize>,
    rec: &mut Recorder,
    parent: u64,
) -> Rep<T> {
    let setup_start = rec.now_ns();
    let setup_s = |rec: &Recorder| (rec.now_ns() - setup_start) as f64 / 1e9;
    let genesis = (plan.genesis)();
    match path {
        Path::Tcp => {
            let sink = TimedSink::new(
                Sink::create(ctx, plan.serving_store(), &genesis, rec.enabled()),
                rec,
                parent,
            );
            let token = Arc::new(T::restore(genesis));
            let cfg = ServerConfig {
                durable_acks: plan.serving_store().is_some(),
                ..ServerConfig::default()
            };
            let server = Server::spawn(Arc::clone(&token), sink, cfg, &Registry::new())
                .expect("bind a loopback port");
            let mut clients =
                connect_all::<T>(server.addr(), CONNS, rec, parent).expect("connect to the server");
            let setup_s = setup_s(rec);
            let cpu0 = cpu_seconds();
            let phase = drive_tcp(&mut clients, &plan.script, range, TCP_WINDOW, rec, parent);
            let cpu_s = cpu_since(cpu0);
            drop(clients);
            let obs = server.obs().clone();
            let (run, mut sink) = server.finish();
            rec.absorb(sink.take_spans());
            Rep {
                setup_s,
                phase,
                cpu_s,
                stats: run.stats,
                evidence: Evidence::Served {
                    run,
                    live: token.snapshot(),
                    sink,
                    server: Some(obs),
                },
            }
        }
        Path::Embedded => {
            let sink = TimedSink::new(
                Sink::create(ctx, plan.serving_store(), &genesis, rec.enabled()),
                rec,
                parent,
            );
            let token = Arc::new(T::restore(genesis));
            let setup_s = setup_s(rec);
            let cpu0 = cpu_seconds();
            let (phase, run, mut sink) = drive_embedded(
                Arc::clone(&token),
                &plan.script,
                range,
                EMBED_WINDOW,
                sink,
                rec,
                parent,
            );
            let cpu_s = cpu_since(cpu0);
            rec.absorb(sink.take_spans());
            Rep {
                setup_s,
                phase,
                cpu_s,
                stats: run.stats,
                evidence: Evidence::Served {
                    run,
                    live: token.snapshot(),
                    sink,
                    server: None,
                },
            }
        }
        Path::Replica => {
            let base = ctx.scratch.fresh("cluster");
            let cluster = new_cluster::<T>(&base, &genesis, ctx.seed).expect("create the cluster");
            let setup_s = setup_s(rec);
            let cpu0 = cpu_seconds();
            let (phase, outcome) =
                drive_replica(cluster, genesis, &plan.script, range, rec, parent);
            let cpu_s = cpu_since(cpu0);
            Rep {
                setup_s,
                phase,
                cpu_s,
                stats: outcome.stats,
                evidence: Evidence::Replicated(Box::new(outcome)),
            }
        }
        Path::Recover => {
            let dir = ctx.scratch.fresh("store");
            let cfg = plan.store.unwrap_or_default();
            let mut store = Store::<T>::create(&dir, &genesis, cfg).expect("create store");
            let token = T::restore(genesis);
            let written = run_script_with_sink(
                &token,
                &plan.script.ops[range.clone()],
                &PipelineConfig::default(),
                &mut store,
            );
            store.close().expect("close store");
            let setup_s = setup_s(rec);
            let cpu0 = cpu_seconds();
            let open = rec.open();
            let recovered = recover::<T>(&dir).expect("recover");
            let elapsed_ns = rec.close(open, "store.recover", parent);
            let cpu_s = cpu_since(cpu0);
            // One operation, the restart; its throughput is counted in
            // the log entries it replayed.
            let phase = Phase {
                attempted: range.len() as u64,
                ok: recovered.replayed,
                elapsed_ns,
                latencies_ns: vec![elapsed_ns],
                ..Phase::default()
            };
            Rep {
                setup_s,
                phase,
                cpu_s,
                stats: written.stats,
                evidence: Evidence::Recovered {
                    dir,
                    recovered: Box::new(recovered),
                    written: token.snapshot(),
                },
            }
        }
    }
}

fn cpu_since(start: (f64, f64)) -> (f64, f64) {
    let now = cpu_seconds();
    (now.0 - start.0, now.1 - start.1)
}

/// Removes what a rep left on disk (a rep's directories are not needed
/// once it is verified; the scratch guard removes whatever is left).
pub fn clean_up<T: Standard>(evidence: Evidence<T>) {
    match evidence {
        Evidence::Served { sink, .. } => {
            if let Sink::Durable(store, dir) = sink.inner {
                drop(store);
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        Evidence::Replicated(outcome) => {
            let base = outcome.cluster.node(0).dir().parent().map(PathBuf::from);
            drop(outcome);
            if let Some(base) = base {
                let _ = std::fs::remove_dir_all(base);
            }
        }
        Evidence::Recovered { dir, .. } => {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

// ── verification ───────────────────────────────────────────────────────

/// Checks what a rep produced, outside every timed section. Returns one
/// line per failed check.
pub fn verify<T: Standard>(plan: &Plan<T>, rep: &mut Rep<T>) -> Vec<String> {
    let mut bad = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            bad.push(format!("{}: {what}", plan.name));
        }
    };
    let genesis = (plan.genesis)();
    match &mut rep.evidence {
        Evidence::Served {
            run, live, sink, ..
        } => {
            check(
                run.log.len() as u64 == rep.phase.ok,
                "commits and Ok replies differ in number",
            );
            match run.log.replay(&T::spec(genesis.clone())) {
                Ok(replayed) => check(replayed == *live, "log replay differs from the live state"),
                Err(e) => check(false, &format!("log does not replay: {e}")),
            }
            check(live.supply() == genesis.supply(), "supply not conserved");
            if let Sink::Durable(store, dir) = &mut sink.inner {
                // Kill the durability machinery where it stands, then
                // restart from disk: every durably acked request must
                // be there, and what is there must be a prefix.
                store.abandon();
                match recover::<T>(dir) {
                    Ok(back) => {
                        check(
                            back.next_seq >= rep.phase.ok,
                            "recovery lost durably acked requests",
                        );
                        let spec = T::spec(genesis.clone());
                        let mut prefix = spec.initial_state();
                        for e in &run.log.entries()[..(back.next_seq as usize).min(run.log.len())] {
                            spec.apply(&mut prefix, e.caller, &e.op);
                        }
                        check(
                            back.state == prefix,
                            "recovered state is not the replayed prefix",
                        );
                    }
                    Err(e) => check(false, &format!("recover after abandon: {e}")),
                }
            }
        }
        Evidence::Replicated(outcome) => {
            let cluster = &outcome.cluster;
            check(
                cluster.durable_seq() == rep.phase.attempted,
                "quorum-durable position differs from the ops served",
            );
            let primary = cluster.node(cluster.primary()).state();
            check(
                primary == outcome.oracle_state,
                "primary differs from the oracle replay",
            );
            for i in 0..cluster.n() {
                check(
                    cluster.node(i).state() == primary,
                    "a follower differs from the primary",
                );
            }
            check(primary.supply() == genesis.supply(), "supply not conserved");
            if plan.shape == Shape::AllBypass {
                // A commuting script commits in submission order, every
                // response the one the generator promised.
                let script = plan.script.ops.iter().zip(&plan.script.expect);
                let same = outcome.committed.len() as u64 == rep.phase.attempted
                    && outcome
                        .committed
                        .iter()
                        .zip(script)
                        .all(|((c, _, r), ((sc, _), want))| c == sc && r == want);
                check(same, "committed order or responses differ from the script");
            }
        }
        Evidence::Recovered {
            dir,
            recovered,
            written,
        } => {
            check(
                recovered.state == *written,
                "recovered state differs from what was written",
            );
            check(
                recovered.object.snapshot() == *written,
                "recovered object differs from what was written",
            );
            check(
                recovered.replayed == rep.phase.attempted,
                "replayed entries differ from the log written",
            );
            check(written.supply() == genesis.supply(), "supply not conserved");
            match recover_sequential::<T>(dir) {
                Ok(oracle) => check(
                    oracle.state == recovered.state && oracle.replayed == recovered.replayed,
                    "parallel and sequential recovery disagree",
                ),
                Err(e) => check(false, &format!("sequential recovery: {e}")),
            }
        }
    }
    match plan.shape {
        Shape::AllBypass => check(
            rep.stats.bypass_rate() == 1.0,
            "a batch of a commuting script did not bypass",
        ),
        Shape::Serial => check(
            rep.stats.bypass_rate() == 0.0 && rep.stats.serial_fraction() > 0.5,
            "the hot row did not serialize",
        ),
        Shape::Any => {}
    }
    bad
}

// ── the end-to-end pass ────────────────────────────────────────────────

fn end_to_end_pass<T: Standard>(ctx: &Ctx<'_>, plan: &Plan<T>) -> Outcome {
    let clock = TraceClock::start();
    let mut rec = Recorder::new(&clock, false);
    let all = 0..plan.rep_ops;
    for _ in 0..plan.warmup_reps {
        let warm = one_rep(ctx, plan, plan.path, all.clone(), &mut rec, 0);
        clean_up(warm.evidence);
    }

    let mut out = Outcome::new(plan.name, plan.sizes());
    let (mut setup, mut rate, mut cpu) = (vec![], vec![], vec![]);
    // Latency is reported, not gated: see the README's *Noise*.
    let (mut p50, mut p90) = (vec![], vec![]);
    for r in 0..plan.reps {
        let mut rep = one_rep(ctx, plan, plan.path, all.clone(), &mut rec, 0);
        out.attempted += rep.phase.attempted;
        out.failed += rep.phase.failed();
        setup.push(rep.setup_s);
        rate.push(rep.phase.ops_per_s());
        if !rep.phase.latencies_ns.is_empty() {
            p50.push(percentile(&rep.phase.latencies_ns, 0.50) as f64 / 1e6);
            p90.push(percentile(&rep.phase.latencies_ns, 0.90) as f64 / 1e6);
        }
        cpu.push((rep.cpu_s.0 + rep.cpu_s.1) * 1e6 / rep.phase.ok.max(1) as f64);
        if r + 1 == plan.reps {
            out.notes.push(latency_ladder(&rep.phase.latencies_ns));
            out.problems.extend(verify(plan, &mut rep));
        }
        clean_up(rep.evidence);
    }
    if p50.is_empty() {
        out.problems
            .push(format!("{}: no request was answered", plan.name));
    } else {
        let (p50, p90) = (Summary::of(&p50), Summary::of(&p90));
        out.notes.push(format!(
            "latency, median of {} reps: p50 {:.4} ms (spread {:.1}%), p90 {:.4} ms (spread {:.1}%)",
            p50.samples,
            p50.median,
            p50.spread() * 100.0,
            p90.median,
            p90.spread() * 100.0
        ));
    }
    out.rows
        .push(Row::new("setup_s", "s", Summary::of(&setup), 1));
    out.rows.push(Row::new(
        "ops_per_s",
        "ops/s",
        Summary::of(&rate),
        plan.rep_ops,
    ));
    out.rows.push(Row::new(
        "cpu_us_per_op",
        "us",
        Summary::of(&cpu),
        plan.rep_ops,
    ));
    out.notes.push(format!(
        "peak resident set of the process (VmHWM): {:.1} MiB",
        peak_rss_mb()
    ));
    out.conform_to(&END_TO_END);
    out
}
