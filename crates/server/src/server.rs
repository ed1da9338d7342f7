//! The serving loop: accept connections, decode frames on
//! per-connection reader threads, feed the pipeline's sharded intake,
//! and let the commit stage answer.
//!
//! # Session lifecycle
//!
//! Each accepted connection gets two small-stack threads around one
//! shared session (see [`crate::router`] for its lock): a **reader**
//! (socket → [`FrameDecoder`] → decode → vet → admit) and a **writer**
//! (bounded write buffer → socket). The reader owns its own clone of the
//! intake handle, so every connection is pinned to an intake shard
//! round-robin — one saturating connection fills *its* shard and starts
//! seeing `Busy` while other connections' shards keep admitting (the
//! fairness property the backpressure tests pin).
//!
//! Every hand-off costs one lock and at most one wake-up or syscall per
//! **burst**, not per request: the reader admits everything one `read`
//! returned with one [`IntakeClient::try_submit_burst`]; the commit
//! stage delivers a wave's responses (with durable acks: those of every
//! batch one fsync covers) once per connection; the writer takes
//! everything queued and issues one `write_all`.
//!
//! No acceptor or connection thread polls: the acceptor blocks in
//! `accept`, the writer on its session's condvar, the reader in `read`
//! ([`ServerConfig::read_grace`] is the timeout; on an idle connection
//! it just reads again). [`ServerHandle::finish`] wakes the acceptor with
//! one loopback connect, then shuts every read half: each blocked `read`
//! returns EOF, and the session drains like any other.
//!
//! Admission control is the intake's bounded depth: the part of a burst
//! its shard has no room for answers [`Status::Busy`] immediately
//! instead of buffering. Framing violations fail closed (disconnect);
//! CRC-valid but semantically invalid requests answer
//! [`Status::BadRequest`] and the session continues. A connection with a
//! frame stuck mid-transfer past [`ServerConfig::read_grace`] is a
//! slowloris and is dropped; a connection whose write queue would pass
//! [`ServerConfig::write_queue_frames`] — filled by commits or by the
//! reader's own rejections — has stopped reading responses and is
//! dropped. An EOF with requests still in flight lingers just long
//! enough for their commits to flush.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tokensync_core::codec::Codec;
use tokensync_core::shared::ConcurrentObject;
use tokensync_obs::Registry;
use tokensync_pipeline::{
    CommitSink, IntakeClient, Pipeline, PipelineConfig, PipelineObs, PipelineRun,
    SinkedPipelineHandle,
};
use tokensync_spec::ProcessId;

use crate::obs::ServerObs;
use crate::router::{ConnState, Router, RouterSink, NEXT_TICKET};
use crate::wire::{
    decode_request_header, encode_response_into, FrameDecoder, Status, WireStandard,
};

/// Server policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// The engine configuration the server spawns.
    pub pipeline: PipelineConfig,
    /// When `true`, `Ok` acks are withheld until the durability sink's
    /// fsync watermark covers them. The engine thread never waits for
    /// that: at batch seal the batch's acks are set aside, and they are
    /// released — all the batches one fsync covers as one push per
    /// connection — when a later commit, seal or idle moment finds the
    /// watermark past them (see [`RouterSink`]). With a sink that has no
    /// watermark this is a no-op: acks mean commit, exactly the
    /// pipeline's guarantee.
    pub durable_acks: bool,
    /// How long one batch's durable acks may be held, counted from its
    /// seal; past it that batch — alone, not the ones sealed after it —
    /// degrades to ack-at-commit rather than leaving clients waiting on
    /// a dead store. Also bounds how long [`ServerHandle::finish`]
    /// waits for a watermark that stopped.
    pub durable_wait: Duration,
    /// Bounded per-connection write queue, in frames. A connection
    /// whose queue is full has stopped reading and is disconnected. The
    /// writer thread holds at most one more buffer it took from the
    /// queue, so a connection pins at most twice this many frames. One
    /// push above the bound — a wave (with durable acks: the batches
    /// one fsync covers) answering more requests of one connection than
    /// this — also disconnects: keep it above a client's in-flight
    /// window.
    pub write_queue_frames: usize,
    /// Slowloris deadline, and the readers' read timeout: a frame left
    /// incomplete this long after its last byte arrived drops the
    /// connection. An *idle* connection (no partial frame pending) is
    /// never timed out.
    pub read_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            durable_acks: false,
            durable_wait: Duration::from_secs(10),
            write_queue_frames: 1024,
            read_grace: Duration::from_secs(3),
        }
    }
}

/// A connection's reader and writer threads.
type ConnThreads = (JoinHandle<()>, JoinHandle<()>);

/// The TCP front end. See the [crate docs](crate) for the session
/// lifecycle and [`crate::wire`] for the protocol.
pub struct Server;

/// Handle on a spawned server: address, metrics, and the graceful stop.
pub struct ServerHandle<T: ConcurrentObject, S> {
    addr: SocketAddr,
    /// Tells the acceptor to exit at its next wake-up.
    stop: Arc<AtomicBool>,
    accept: JoinHandle<Vec<ConnThreads>>,
    router: Arc<Router>,
    client: IntakeClient<T::Op>,
    engine: SinkedPipelineHandle<T::Op, T::Resp, RouterSink<S>>,
    obs: ServerObs,
}

impl Server {
    /// Binds an ephemeral port on localhost, spawns the engine over
    /// `token` with `sink` as its durability sink (wrapped in the
    /// response-routing [`RouterSink`]), and starts accepting.
    ///
    /// Metrics (server, pipeline) register in `registry`.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn spawn<T, S>(
        token: Arc<T>,
        sink: S,
        cfg: ServerConfig,
        registry: &Registry,
    ) -> io::Result<ServerHandle<T, S>>
    where
        T: WireStandard + 'static,
        T::Op: Codec,
        T::Resp: Codec,
        S: CommitSink<T> + Send + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;

        let obs = ServerObs::new(registry);
        let pipe_obs = PipelineObs::new(registry, cfg.pipeline.batch.intake_shards);
        let router = Arc::new(Router::default());
        let rsink = RouterSink::new(Arc::clone(&router), cfg, obs.clone(), sink);
        let (client, engine) = Pipeline::spawn_observed(token, cfg.pipeline, rsink, pipe_obs);

        let stop = Arc::new(AtomicBool::new(false));

        let accept = {
            let (stop, router) = (Arc::clone(&stop), Arc::clone(&router));
            let (obs, client) = (obs.clone(), client.clone());
            std::thread::Builder::new()
                .name("tokensync-accept".into())
                .spawn(move || accept_loop::<T>(listener, &stop, &router, &obs, &client, cfg))?
        };

        Ok(ServerHandle {
            addr,
            stop,
            accept,
            router,
            client,
            engine,
            obs,
        })
    }
}

impl<T: ConcurrentObject, S> ServerHandle<T, S> {
    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server metric family (shares the registry passed to
    /// [`Server::spawn`]).
    pub fn obs(&self) -> &ServerObs {
        &self.obs
    }

    /// Graceful stop: stop accepting, end every reader as if its client
    /// had half-closed, drain the engine (every admitted request
    /// resolves and its response flushes), then close the sockets.
    /// Returns the engine run and the durability sink.
    ///
    /// # Panics
    ///
    /// Propagates a panic of the engine or a connection thread.
    pub fn finish(self) -> (PipelineRun<T::Op, T::Resp>, S) {
        self.stop.store(true, Ordering::SeqCst);
        // One loopback connection wakes the blocked `accept`; it is
        // retried only while it fails and the acceptor still runs.
        while !self.accept.is_finished() && TcpStream::connect(self.addr).is_err() {}
        let threads = self.accept.join().expect("accept thread panicked");
        // Each blocked `read` returns EOF: the reader drains its session
        // and drops its intake clone — before the engine is joined, which
        // drains only once every producer is gone.
        for state in self.router.lock().unwrap().iter().flatten() {
            state.shutdown(Shutdown::Read);
        }
        let mut writers = Vec::with_capacity(threads.len());
        for (reader, writer) in threads {
            reader.join().expect("conn reader panicked");
            writers.push(writer);
        }
        drop(self.client);
        // The engine answers every admitted request. Each session is
        // draining or aborted, so its last delivery closes it, and its
        // writer flushes and exits.
        let (run, rsink) = self.engine.finish();
        for writer in writers {
            writer.join().expect("conn writer panicked");
        }
        (run, rsink.into_inner())
    }
}

/// Joins and drops every connection whose reader *and* writer have
/// exited, so the list is bounded by live connections rather than by
/// every session ever served. A thread's panic propagates here exactly
/// as it would have in `finish`.
fn reap_finished(threads: &mut Vec<ConnThreads>) {
    let finished = |pair: &mut ConnThreads| pair.0.is_finished() && pair.1.is_finished();
    for (reader, writer) in threads.extract_if(.., finished) {
        reader.join().expect("conn reader panicked");
        writer.join().expect("conn writer panicked");
    }
}

/// A connection thread: named, on a small stack.
fn spawn_conn(name: &str, body: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    let thread = std::thread::Builder::new().name(name.into());
    thread.stack_size(256 * 1024).spawn(body)
}

/// Accepts until `stop`, reaping finished connections at every accept;
/// returns the threads of the connections still live, for `finish` to
/// join.
fn accept_loop<T>(
    listener: TcpListener,
    stop: &AtomicBool,
    router: &Arc<Router>,
    obs: &ServerObs,
    client: &IntakeClient<T::Op>,
    cfg: ServerConfig,
) -> Vec<ConnThreads>
where
    T: WireStandard + 'static,
    T::Op: Codec,
    T::Resp: Codec,
{
    let mut threads = Vec::new();
    loop {
        let accepted = listener.accept();
        // `finish` raises `stop`, then connects to wake this `accept`.
        if stop.load(Ordering::SeqCst) {
            return threads;
        }
        reap_finished(&mut threads);
        let Ok((stream, _peer)) = accepted else {
            // Out of descriptors, say: back off rather than spin.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        obs.sessions.inc();
        let _ = stream.set_nodelay(true);
        let (Ok(write_stream), Ok(socket)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        let state = ConnState::attach(router, Some(socket), cfg.write_queue_frames, obs.clone());
        // Clone-per-connection pins each session to an intake shard
        // round-robin — the fairness seam.
        let intake = client.clone();
        let reader = {
            let (state, obs) = (Arc::clone(&state), obs.clone());
            spawn_conn("tokensync-conn-r", move || {
                conn_reader::<T>(stream, &state, &intake, &obs, cfg.read_grace);
            })
        };
        let writer = {
            let (state, router) = (Arc::clone(&state), Arc::clone(router));
            spawn_conn("tokensync-conn-w", move || {
                conn_writer(write_stream, &state, &router);
            })
        };
        match (reader, writer) {
            (Ok(reader), Ok(writer)) => threads.push((reader, writer)),
            // A thread that did start sees the socket shut and exits.
            _ => state.close_abort(),
        }
    }
}

/// Writer thread: drains the bounded queue to the socket, everything
/// queued per `write_all`. Exits when the queue closes (drain or abort)
/// or the socket dies, releasing the connection's table slot on the way
/// out.
fn conn_writer(mut stream: TcpStream, state: &ConnState, router: &Router) {
    loop {
        let Some(bytes) = state.next_write() else {
            let _ = stream.shutdown(Shutdown::Write);
            break;
        };
        if stream.write_all(&bytes).is_err() {
            state.close_abort();
            break;
        }
    }
    state.detach(router);
}

/// Reader thread: frames, decodes, vets, submits. Every exit path
/// decides the connection's fate explicitly: fail closed (abort), or
/// drain on EOF — the client's half-close, or `finish` shutting the
/// read half.
fn conn_reader<T>(
    mut stream: TcpStream,
    state: &ConnState,
    intake: &IntakeClient<T::Op>,
    obs: &ServerObs,
    read_grace: Duration,
) where
    T: WireStandard,
    T::Op: Codec,
{
    // Each `read` starts after the last byte arrived, so a timeout is
    // `read_grace` of silence.
    let _ = stream.set_read_timeout(Some(read_grace));
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 8 * 1024];
    let mut burst = Vec::new();
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => {
                // EOF: linger until every in-flight request resolved,
                // then the writer flushes and closes.
                state.run(|session, _| session.drain());
                return;
            }
            Ok(n) => n,
            // Silence between frames is an idle client; a frame stuck
            // mid-transfer is a slowloris.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if dec.buffered() == 0 {
                    continue;
                }
                obs.slow_disconnects.inc();
                break;
            }
            Err(_) => break,
        };
        dec.feed(&buf[..n]);
        if !admit_burst::<T>(&mut dec, &mut burst, Instant::now(), state, intake, obs) {
            break;
        }
    }
    state.close_abort();
}

/// Every complete frame `dec` holds — one read burst — through decode →
/// vet → admit: one session lock to register and one intake submit for
/// the lot, then — only if some were refused or rejected — one lock to
/// withdraw them and one push of all the rejections. `burst` is scratch,
/// empty between calls. Returns `false` when the connection must close:
/// a framing violation, or a write side that is already gone.
fn admit_burst<T>(
    dec: &mut FrameDecoder,
    burst: &mut Vec<(ProcessId, T::Op, u64)>,
    now: Instant,
    state: &ConnState,
    intake: &IntakeClient<T::Op>,
    obs: &ServerObs,
) -> bool
where
    T: WireStandard,
    T::Op: Codec,
{
    let (mut rejects, mut rejected) = (Vec::new(), 0usize);
    let mut reject = |request_id: u64, status: Status| {
        encode_response_into(&mut rejects, request_id, status, |_| {});
        rejected += 1;
    };
    // Requests ahead of a framing violation are still served.
    let intact = loop {
        let body = match dec.try_frame() {
            Ok(Some(body)) => body,
            Ok(None) => break true,
            Err(_) => break false,
        };
        let Some((request_id, standard, caller, mut op_bytes)) = decode_request_header(body) else {
            // Too short to even carry a request id: nothing to answer to.
            break false;
        };
        let op = (standard == T::STANDARD).then(|| T::Op::decode(&mut op_bytes));
        match op {
            Some(Ok(op)) if op_bytes.is_empty() && T::vet(&op) => {
                burst.push((caller, op, request_id));
            }
            _ => {
                obs.bad_requests.inc();
                reject(request_id, Status::BadRequest);
            }
        }
    };
    if !intact {
        obs.wire_errors.inc();
    }
    if !burst.is_empty() {
        // Register before submit: the commit callback can fire (and must
        // find the slot) before the submit call even returns.
        let first = state
            .lock()
            .register(burst.iter().map(|request| request.2), now);
        let mut rest = burst.drain(..).enumerate();
        let mut tagged = rest
            .by_ref()
            .map(|(i, (caller, op, _))| (caller, op, first.wrapping_add(i as u64 * NEXT_TICKET)));
        let status = match intake.try_submit_burst(&mut tagged) {
            Ok(_) => Status::Busy,
            Err(_closed) => Status::Gone,
        };
        let refused = rest
            .map(|(_, (_, _, request_id))| reject(request_id, status))
            .count();
        if refused > 0 {
            state.lock().withdraw(refused);
        }
        if status == Status::Busy {
            obs.busy.add(refused as u64);
        }
    }
    (rejected == 0 || state.run(|session, obs| session.push(rejects, rejected, obs))) && intact
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn wait_finished(handle: &JoinHandle<()>) {
        while !handle.is_finished() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn reap_drops_finished_pairs_and_keeps_running_ones() {
        let (release, parked) = mpsc::channel::<()>();
        let done = (std::thread::spawn(|| ()), std::thread::spawn(|| ()));
        // Reader gone, writer still flushing: the pair must stay.
        let half = (
            std::thread::spawn(|| ()),
            std::thread::spawn(move || parked.recv().expect("released")),
        );
        for handle in [&done.0, &done.1, &half.0] {
            wait_finished(handle);
        }
        let mut threads = vec![done, half];
        reap_finished(&mut threads);
        assert_eq!(threads.len(), 1, "finished pair reaped, live pair kept");
        assert!(!threads[0].1.is_finished());

        release.send(()).expect("writer parked");
        wait_finished(&threads[0].1);
        reap_finished(&mut threads);
        assert!(threads.is_empty());
    }
}
