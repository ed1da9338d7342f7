//! The load generators: one closed-loop driver per way into the stack
//! (TCP, the in-process pipeline, the replicated cluster), the two
//! commit sinks the benchmark puts on the engine thread, and the trait
//! that lets one driver serve every standard.
//!
//! Everything here calls the product through its public API only and
//! times those calls from outside. Closed loop throughout: a request is
//! sent when a reply frees a slot of the in-flight window.

use std::net::SocketAddr;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tokensync_core::codec::{Codec, StateCodec};
use tokensync_core::erc20::Erc20State;
use tokensync_core::shared::ConcurrentObject;
use tokensync_core::standards::erc1155::{Erc1155State, TypeId};
use tokensync_core::standards::erc721::Erc721State;
use tokensync_pipeline::{
    CommitSink, CommittedOp, Pipeline, PipelineConfig, PipelineRun, PipelineStats, NO_TICKET,
};
use tokensync_replica::{Cluster, ReplicaConfig};
use tokensync_server::{Client, Reply, WireStandard};
use tokensync_spec::{ObjectType, ProcessId};
use tokensync_store::{Restorable, StoreError};

use crate::gen::{interleaved, Script};
use crate::trace::Recorder;

/// What a state conserves: the figure no script of this benchmark may
/// change (none mints or burns).
pub trait Supply {
    /// Total tokens in existence.
    fn supply(&self) -> u128;
}

impl Supply for Erc20State {
    fn supply(&self) -> u128 {
        self.total_supply().into()
    }
}

impl Supply for Erc721State {
    fn supply(&self) -> u128 {
        self.minted() as u128
    }
}

impl Supply for Erc1155State {
    fn supply(&self) -> u128 {
        (0..self.types())
            .map(|t| u128::from(self.total_supply(TypeId::new(t))))
            .sum()
    }
}

/// A standard the whole stack serves: restorable from a store, speakable
/// over the wire, with codecs for its alphabets. One bound instead of
/// five on every generic function below.
pub trait Standard:
    Restorable + WireStandard + ConcurrentObject<Op: Codec, Resp: Codec, State: StateCodec + Supply>
{
}

impl<T> Standard for T where
    T: Restorable
        + WireStandard
        + ConcurrentObject<Op: Codec, Resp: Codec, State: StateCodec + Supply>
{
}

/// The script type of a standard.
pub type ScriptOf<T> = Script<<T as ConcurrentObject>::Op, <T as ConcurrentObject>::Resp>;

/// What one timed phase of a driver observed.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Operations submitted.
    pub attempted: u64,
    /// Operations answered `Ok` with the oracle's response.
    pub ok: u64,
    /// Wall time from the first submission to the last reply.
    pub elapsed_ns: u64,
    /// Caller-observed latency of every `ok` operation, ascending. A
    /// failed operation has none: it misses every latency limit.
    pub latencies_ns: Vec<u64>,
    /// Wall time inside the calls that submit (`Client::send`,
    /// `submit_tagged`, `Cluster::serve`).
    pub submit_ns: u64,
    /// Wall time inside the calls that collect (`Client::recv`,
    /// `Cluster::pump`), blocking included.
    pub collect_ns: u64,
}

impl Phase {
    /// `ok` operations per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.ok as f64 * 1e9 / self.elapsed_ns.max(1) as f64
    }

    /// Operations that were not answered `Ok` with the expected response.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }
}

// ── TCP ────────────────────────────────────────────────────────────────

/// Connects `conns` clients, reporting the wall time of each connect.
///
/// # Errors
///
/// The first connect failure.
pub fn connect_all<T: Standard>(
    addr: SocketAddr,
    conns: usize,
    rec: &mut Recorder,
    parent: u64,
) -> std::io::Result<Vec<Client<T>>> {
    (0..conns)
        .map(|_| {
            let open = rec.open();
            let client = Client::connect(addr);
            rec.close(open, "client.connect", parent);
            client
        })
        .collect()
}

/// What one connection thread brings back.
struct ConnOutcome {
    ok: u64,
    latencies_ns: Vec<u64>,
    send_ns: u64,
    recv_ns: u64,
    rec: Recorder,
}

/// Sends `script.ops[range]` over `clients` and waits for every reply:
/// connection `c` of `k` takes every `k`-th op (see [`interleaved`]),
/// keeps up to `window` requests in flight, and sends the next as each
/// reply arrives. One thread per connection.
///
/// A reply that is not `Ok` with the expected response — `Busy`,
/// `BadRequest`, a wrong value — fails its request (no retry); a socket
/// error fails every request the connection had left.
pub fn drive_tcp<T: Standard>(
    clients: &mut [Client<T>],
    script: &ScriptOf<T>,
    range: Range<usize>,
    window: usize,
    rec: &mut Recorder,
    parent: u64,
) -> Phase {
    let conns = clients.len();
    let start_ns = rec.now_ns();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mine: Vec<usize> = interleaved(range.len(), conns, c)
                    .map(|i| range.start + i)
                    .collect();
                let rec = rec.sibling();
                s.spawn(move || run_connection(client, script, &mine, window, rec, parent))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        attempted: range.len() as u64,
        elapsed_ns: rec.now_ns() - start_ns,
        ..Phase::default()
    };
    for o in outcomes {
        phase.ok += o.ok;
        phase.latencies_ns.extend(o.latencies_ns);
        phase.submit_ns += o.send_ns;
        phase.collect_ns += o.recv_ns;
        rec.absorb(o.rec);
    }
    phase.latencies_ns.sort_unstable();
    phase
}

fn run_connection<T: Standard>(
    client: &mut Client<T>,
    script: &ScriptOf<T>,
    mine: &[usize],
    window: usize,
    mut rec: Recorder,
    parent: u64,
) -> ConnOutcome {
    let conn_span = rec.open();
    let (mut ok, mut send_ns, mut recv_ns) = (0, 0, 0);
    let mut latencies_ns = Vec::with_capacity(mine.len());
    let mut sent_at = vec![0u64; mine.len()];
    let (mut next, mut done) = (0usize, 0usize);
    // Request ids are sequential per client; the first one sent in this
    // phase anchors the id → slot mapping.
    let mut first_id = None;
    'phase: while done < mine.len() {
        while next < mine.len() && next - done < window {
            let (caller, op) = &script.ops[mine[next]];
            let t0 = rec.now_ns();
            let Ok(id) = client.send(*caller, op) else {
                break 'phase;
            };
            let t1 = rec.now_ns();
            rec.push("client.send", conn_span.id(), t0, t1);
            send_ns += t1 - t0;
            sent_at[next] = t0;
            first_id.get_or_insert(id);
            next += 1;
        }
        let t0 = rec.now_ns();
        let Ok((id, reply)) = client.recv() else {
            break 'phase;
        };
        let t1 = rec.now_ns();
        rec.push("client.recv", conn_span.id(), t0, t1);
        recv_ns += t1 - t0;
        done += 1;
        let slot = first_id
            .and_then(|first| id.checked_sub(first))
            .and_then(|k| usize::try_from(k).ok())
            .filter(|&k| k < next);
        if let Some(k) = slot {
            if matches!(&reply, Reply::Ok(resp) if *resp == script.expect[mine[k]]) {
                ok += 1;
                latencies_ns.push(t1 - sent_at[k]);
            }
        }
    }
    rec.close(conn_span, "client.connection", parent);
    ConnOutcome {
        ok,
        latencies_ns,
        send_ns,
        recv_ns,
        rec,
    }
}

// ── in process ─────────────────────────────────────────────────────────

/// The benchmark's ticket sink: sits on the engine thread, resolves the
/// tickets `submit_tagged` attached — latency ends at the commit
/// callback — and wakes the producer as slots free up. Wraps the sink
/// that does the real work (`()` or a store), called first, so an ack
/// never precedes the inner sink seeing the wave.
pub struct TicketSink<R, K> {
    inner: K,
    clock: Recorder,
    shared: Arc<TicketShared<R>>,
    latencies_ns: Vec<u64>,
    ok: u64,
}

/// What producer and ticket sink share.
struct TicketShared<R> {
    /// Expected response of ticket `i + 1`.
    expect: Vec<R>,
    /// When ticket `i + 1` was submitted, in trace-clock ns. Relaxed
    /// stores: the intake queue's mutex orders them before the sink's
    /// loads.
    submit_ns: Vec<AtomicU64>,
    /// Tickets resolved so far (Release by the sink, Acquire by the
    /// producer: the producer's window arithmetic must see it grow).
    completed: AtomicU64,
    producer: std::thread::Thread,
}

impl<T, K> CommitSink<T> for TicketSink<T::Resp, K>
where
    T: ConcurrentObject + ?Sized,
    K: CommitSink<T>,
{
    fn wave_committed(&mut self, token: &T, entries: &[CommittedOp<T::Op, T::Resp>]) {
        self.inner.wave_committed(token, entries);
    }

    fn wave_committed_tagged(
        &mut self,
        token: &T,
        entries: &[CommittedOp<T::Op, T::Resp>],
        tickets: &[u64],
    ) {
        self.inner.wave_committed_tagged(token, entries, tickets);
        let now = self.clock.now_ns();
        let mut resolved = 0;
        for (entry, &ticket) in entries.iter().zip(tickets) {
            if ticket == NO_TICKET {
                continue;
            }
            let slot = (ticket - 1) as usize;
            resolved += 1;
            if entry.resp == self.shared.expect[slot] {
                self.ok += 1;
                let sent = self.shared.submit_ns[slot].load(Ordering::Relaxed);
                self.latencies_ns.push(now.saturating_sub(sent));
            }
        }
        self.shared.completed.fetch_add(resolved, Ordering::Release);
        self.shared.producer.unpark();
    }

    fn batch_sealed(&mut self, token: &T, batch: u64) {
        self.inner.batch_sealed(token, batch);
    }

    fn durable_seq(&self) -> Option<u64> {
        self.inner.durable_seq()
    }
}

/// Pushes `script.ops[range]` through a spawned pipeline (default
/// config) from the calling thread, keeping up to `window` ops in
/// flight: submit with a ticket, park while the window is full, count
/// on the sink's completions. Returns the phase, the engine's run and
/// the inner sink.
pub fn drive_embedded<T: Standard, K>(
    token: Arc<T>,
    script: &ScriptOf<T>,
    range: Range<usize>,
    window: usize,
    inner: K,
    rec: &mut Recorder,
    parent: u64,
) -> (Phase, PipelineRun<T::Op, T::Resp>, K)
where
    K: CommitSink<T> + Send + 'static,
{
    let span = rec.open();
    let shared = Arc::new(TicketShared {
        expect: script.expect[range.clone()].to_vec(),
        submit_ns: (0..range.len()).map(|_| AtomicU64::new(0)).collect(),
        completed: AtomicU64::new(0),
        producer: std::thread::current(),
    });
    let sink = TicketSink {
        inner,
        clock: rec.sibling(),
        shared: Arc::clone(&shared),
        latencies_ns: Vec::with_capacity(range.len()),
        ok: 0,
    };
    let start_ns = rec.now_ns();
    let (client, engine) = Pipeline::spawn_with_sink(token, PipelineConfig::default(), sink);
    let mut submit_ns = 0;
    for (slot, (caller, op)) in script.ops[range.clone()].iter().enumerate() {
        while slot as u64 - shared.completed.load(Ordering::Acquire) >= window as u64 {
            std::thread::park();
        }
        let t0 = rec.now_ns();
        shared.submit_ns[slot].store(t0, Ordering::Relaxed);
        client
            .submit_tagged(*caller, op.clone(), slot as u64 + 1)
            .expect("engine stopped while the producer holds a handle");
        submit_ns += rec.now_ns() - t0;
    }
    drop(client);
    let (run, sink) = engine.finish();
    let elapsed_ns = rec.now_ns() - start_ns;
    rec.close(span, "pipeline.spawned", parent);
    let mut latencies_ns = sink.latencies_ns;
    latencies_ns.sort_unstable();
    let phase = Phase {
        attempted: range.len() as u64,
        ok: sink.ok,
        elapsed_ns,
        latencies_ns,
        submit_ns,
        collect_ns: 0,
    };
    (phase, run, sink.inner)
}

/// Times every call the engine makes into the sink it wraps — how the
/// benchmark measures the store from outside. On the engine thread, so
/// its spans live in its own recorder until the run ends.
pub struct TimedSink<S> {
    /// The sink doing the work.
    pub inner: S,
    rec: Recorder,
    parent: u64,
    /// Wall time inside `wave_committed*`.
    pub wave_ns: u64,
    /// Wall time inside `batch_sealed`.
    pub seal_ns: u64,
    /// Operations handed over.
    pub ops: u64,
    /// Batches sealed.
    pub seals: u64,
}

impl<S> TimedSink<S> {
    /// Wraps `inner`; spans go under `parent`.
    pub fn new(inner: S, rec: &Recorder, parent: u64) -> Self {
        Self {
            inner,
            rec: rec.sibling(),
            parent,
            wave_ns: 0,
            seal_ns: 0,
            ops: 0,
            seals: 0,
        }
    }

    /// The spans recorded on the engine thread (`sink.wave`,
    /// `sink.seal`), for the run's recorder to absorb.
    pub fn take_spans(&mut self) -> Recorder {
        let fresh = self.rec.sibling();
        std::mem::replace(&mut self.rec, fresh)
    }
}

impl<T, S> CommitSink<T> for TimedSink<S>
where
    T: ConcurrentObject + ?Sized,
    S: CommitSink<T>,
{
    fn wave_committed(&mut self, token: &T, entries: &[CommittedOp<T::Op, T::Resp>]) {
        self.wave_committed_tagged(token, entries, &[]);
    }

    fn wave_committed_tagged(
        &mut self,
        token: &T,
        entries: &[CommittedOp<T::Op, T::Resp>],
        tickets: &[u64],
    ) {
        let open = self.rec.open();
        self.inner.wave_committed_tagged(token, entries, tickets);
        self.wave_ns += self.rec.close(open, "sink.wave", self.parent);
        self.ops += entries.len() as u64;
    }

    fn batch_sealed(&mut self, token: &T, batch: u64) {
        let open = self.rec.open();
        self.inner.batch_sealed(token, batch);
        self.seal_ns += self.rec.close(open, "sink.seal", self.parent);
        self.seals += 1;
    }

    fn durable_seq(&self) -> Option<u64> {
        self.inner.durable_seq()
    }
}

// ── replicated ─────────────────────────────────────────────────────────

/// Ops per `serve` + `pump` round: one default batch.
pub const ROUND: usize = 1024;

/// What a replicated run brings back besides its phase.
pub struct ReplicaOutcome<T: Standard> {
    /// The cluster, for its counters and its nodes' states.
    pub cluster: Cluster<T>,
    /// Every round's log folded: the committed linearization, in order.
    pub committed: Vec<(ProcessId, T::Op, T::Resp)>,
    /// The state the sequential oracle reaches replaying `committed`.
    pub oracle_state: T::State,
    /// The rounds' scheduling counters, summed.
    pub stats: PipelineStats,
}

/// A fresh 3-node cluster on `genesis`: default config (quorum acks,
/// group commit), fault-free network seeded with `net_seed`.
///
/// # Errors
///
/// Store errors creating the nodes.
pub fn new_cluster<T: Standard>(
    base: &Path,
    genesis: &T::State,
    net_seed: u64,
) -> Result<Cluster<T>, StoreError> {
    Cluster::new(base, 3, genesis, ReplicaConfig::default(), net_seed)
}

/// Serves `script.ops[range]` on `cluster` (fresh, on `genesis`) in
/// rounds of [`ROUND`] ops: a round is `serve` plus `pump` until the
/// primary's quorum-durable position covers it. One latency sample per
/// round; the phase's wall time is the sum of the rounds.
///
/// `serve` hands back a commit log, not per-request replies, so an op
/// counts as `ok` when its round became quorum-durable and the
/// sequential oracle, replaying the committed order after the run,
/// gives the response the log recorded.
pub fn drive_replica<T: Standard>(
    mut cluster: Cluster<T>,
    genesis: T::State,
    script: &ScriptOf<T>,
    range: Range<usize>,
    rec: &mut Recorder,
    parent: u64,
) -> (Phase, ReplicaOutcome<T>) {
    let mut phase = Phase {
        attempted: range.len() as u64,
        ..Phase::default()
    };
    let mut committed = Vec::with_capacity(range.len());
    let mut rounds = Vec::with_capacity(range.len().div_ceil(ROUND));
    let mut stats = PipelineStats::default();
    let mut served = 0u64;
    for chunk in script.ops[range].chunks(ROUND) {
        let round = rec.open();
        let open = rec.open();
        let run = cluster.serve(chunk);
        phase.submit_ns += rec.close(open, "replica.serve", round.id());
        served += run.log.len() as u64;
        // A fault-free round is durable after one pump; the bound only
        // keeps a broken protocol from hanging the benchmark.
        let mut pumps = 0;
        while cluster.durable_seq() < served && pumps < 64 {
            let open = rec.open();
            cluster.pump();
            phase.collect_ns += rec.close(open, "replica.pump", round.id());
            pumps += 1;
        }
        let round_ns = rec.close(round, "replica.round", parent);
        phase.elapsed_ns += round_ns;
        rounds.push((run.log.len(), round_ns, cluster.durable_seq() >= served));
        committed.extend(
            run.log
                .entries()
                .iter()
                .map(|e| (e.caller, e.op.clone(), e.resp.clone())),
        );
        add_stats(&mut stats, &run.stats);
    }
    let spec = T::spec(genesis);
    let mut state = spec.initial_state();
    let mut entries = committed.iter();
    for (len, round_ns, durable) in rounds {
        let right = entries
            .by_ref()
            .take(len)
            .filter(|(caller, op, resp)| spec.apply(&mut state, *caller, op) == *resp)
            .count();
        if durable {
            phase.ok += right as u64;
            if right == len {
                phase.latencies_ns.push(round_ns);
            }
        }
    }
    phase.latencies_ns.sort_unstable();
    let outcome = ReplicaOutcome {
        cluster,
        committed,
        oracle_state: state,
        stats,
    };
    (phase, outcome)
}

/// Folds one round's counters into the running total.
fn add_stats(total: &mut PipelineStats, round: &PipelineStats) {
    total.batches += round.batches;
    total.ops += round.ops;
    total.parallel_ops += round.parallel_ops;
    total.serial_ops += round.serial_ops;
    total.waves += round.waves;
    total.conflicts += round.conflicts;
    total.bypassed_batches += round.bypassed_batches;
    total.bypassed_ops += round.bypassed_ops;
    total.bypass_aborts += round.bypass_aborts;
    total.commit_records += round.commit_records;
    total.durable_seq = round.durable_seq;
}
