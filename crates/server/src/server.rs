//! The serving loop: accept connections, decode frames on
//! per-connection reader threads, feed the pipeline's sharded intake,
//! and let the commit stage answer.
//!
//! # Session lifecycle
//!
//! Each accepted connection gets two small-stack threads: a **reader**
//! (socket → [`FrameDecoder`] → decode → vet → admit) and a **writer**
//! (bounded write queue → socket). The reader owns its own clone of the
//! intake handle, so every connection is pinned to an intake shard
//! round-robin — one saturating connection fills *its* shard and starts
//! seeing `Busy` while other connections' shards keep admitting (the
//! fairness property the backpressure tests pin).
//!
//! Every hand-off costs one lock and at most one wake-up or syscall per
//! **burst**, not per request: the reader admits everything one `read`
//! returned with one [`IntakeClient::try_submit_burst`]; the commit
//! stage pushes a wave's responses (with durable acks: those of every
//! batch one fsync covers) once per connection; the writer takes
//! everything queued and issues one `write_all`.
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
//! dropped. A clean EOF with requests still in flight lingers just long
//! enough for their commits to flush.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
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
    /// Slowloris deadline: a frame left incomplete this long after its
    /// last byte arrived drops the connection. An *idle* connection
    /// (no partial frame pending) is never timed out.
    pub read_grace: Duration,
    /// Reader poll interval (read timeout): bounds shutdown and
    /// slowloris-detection latency.
    pub read_poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            durable_acks: false,
            durable_wait: Duration::from_secs(10),
            write_queue_frames: 1024,
            read_grace: Duration::from_secs(3),
            read_poll: Duration::from_millis(50),
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
    shutdown: Arc<AtomicBool>,
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
        listener.set_nonblocking(true)?;

        let obs = ServerObs::new(registry);
        let pipe_obs = PipelineObs::new(registry, cfg.pipeline.batch.intake_shards);
        let router = Arc::new(Router::default());
        let rsink = RouterSink::new(Arc::clone(&router), cfg, obs.clone(), sink);
        let (client, engine) = Pipeline::spawn_observed(token, cfg.pipeline, rsink, pipe_obs);

        let shutdown = Arc::new(AtomicBool::new(false));

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let router = Arc::clone(&router);
            let obs = obs.clone();
            let client = client.clone();
            std::thread::Builder::new()
                .name("tokensync-accept".into())
                .spawn(move || accept_loop::<T>(listener, shutdown, router, obs, client, cfg))?
        };

        Ok(ServerHandle {
            addr,
            shutdown,
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

    /// Graceful stop: stop accepting, stop the readers, drain the
    /// engine (every admitted request resolves and its response
    /// flushes), then close the sockets. Returns the engine run and the
    /// durability sink.
    ///
    /// # Panics
    ///
    /// Propagates a panic of the engine or a connection thread.
    pub fn finish(self) -> (PipelineRun<T::Op, T::Resp>, S) {
        self.shutdown.store(true, Ordering::SeqCst);
        let threads = self.accept.join().expect("accept thread panicked");
        // Readers see the shutdown flag at their next poll tick and
        // drop their intake clones; they must be joined *before* the
        // engine, which drains only once every producer handle is gone.
        let mut writers = Vec::with_capacity(threads.len());
        for (reader, writer) in threads {
            reader.join().expect("conn reader panicked");
            writers.push(writer);
        }
        drop(self.client);
        // The engine commits everything admitted and resolves every
        // ticket through the router, queueing the final responses.
        let (run, rsink) = self.engine.finish();
        // Flush and close the write sides.
        for state in self.router.lock().unwrap().iter().flatten() {
            state.close_drain();
        }
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
    let mut i = 0;
    while i < threads.len() {
        if threads[i].0.is_finished() && threads[i].1.is_finished() {
            let (reader, writer) = threads.swap_remove(i);
            reader.join().expect("conn reader panicked");
            writer.join().expect("conn writer panicked");
        } else {
            i += 1;
        }
    }
}

/// Accepts until `shutdown`, reaping finished connections every tick;
/// returns the threads of the connections still live, for `finish` to
/// join.
fn accept_loop<T>(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    router: Arc<Router>,
    obs: ServerObs,
    client: IntakeClient<T::Op>,
    cfg: ServerConfig,
) -> Vec<ConnThreads>
where
    T: WireStandard + 'static,
    T::Op: Codec,
    T::Resp: Codec,
{
    let mut threads = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        reap_finished(&mut threads);
        match listener.accept() {
            Ok((stream, _peer)) => {
                obs.sessions.inc();
                let _ = stream.set_nodelay(true);
                let Ok(write_stream) = stream.try_clone() else {
                    continue;
                };
                let Ok(shutdown_stream) = stream.try_clone() else {
                    continue;
                };
                let state = ConnState::attach(
                    &router,
                    shutdown_stream,
                    cfg.write_queue_frames,
                    obs.clone(),
                );
                // Clone-per-connection pins each session to an intake
                // shard round-robin — the fairness seam.
                let intake = client.clone();
                let reader = {
                    let state = Arc::clone(&state);
                    let obs = obs.clone();
                    let shutdown = Arc::clone(&shutdown);
                    std::thread::Builder::new()
                        .name("tokensync-conn-r".into())
                        .stack_size(256 * 1024)
                        .spawn(move || {
                            conn_reader::<T>(stream, state, intake, &obs, &cfg, shutdown);
                        })
                };
                let writer = {
                    let state = Arc::clone(&state);
                    let router = Arc::clone(&router);
                    std::thread::Builder::new()
                        .name("tokensync-conn-w".into())
                        .stack_size(256 * 1024)
                        .spawn(move || conn_writer(write_stream, &state, &router))
                };
                if let (Ok(reader), Ok(writer)) = (reader, writer) {
                    threads.push((reader, writer));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    threads
}

/// Writer thread: drains the bounded queue to the socket, everything
/// queued per `write_all`. Exits when the queue closes (drain or abort)
/// or the socket dies, releasing the connection's table slot on the way
/// out.
fn conn_writer(mut stream: TcpStream, state: &ConnState, router: &Router) {
    loop {
        let Some(bytes) = state.next_write() else {
            let _ = stream.shutdown(std::net::Shutdown::Write);
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
/// decides the connection's fate explicitly: fail closed (abort),
/// drain-on-EOF, or global shutdown (writer flushed by `finish`).
fn conn_reader<T>(
    mut stream: TcpStream,
    state: Arc<ConnState>,
    intake: IntakeClient<T::Op>,
    obs: &ServerObs,
    cfg: &ServerConfig,
    shutdown: Arc<AtomicBool>,
) where
    T: WireStandard,
    T::Op: Codec,
{
    let _ = stream.set_read_timeout(Some(cfg.read_poll));
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 8 * 1024];
    let mut burst = Vec::new();
    let mut last_byte = Instant::now();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                // Clean EOF: linger until every in-flight request
                // resolved, then the writer flushes and closes.
                state.drain();
                return;
            }
            Ok(n) => {
                last_byte = Instant::now();
                dec.feed(&buf[..n]);
                if !admit_burst::<T>(&mut dec, &mut burst, last_byte, &state, &intake, obs) {
                    state.close_abort();
                    return;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if dec.buffered() > 0 && last_byte.elapsed() >= cfg.read_grace {
                    obs.slow_disconnects.inc();
                    state.close_abort();
                    return;
                }
            }
            Err(_) => {
                state.close_abort();
                return;
            }
        }
    }
}

/// Every complete frame `dec` holds — one read burst — through decode →
/// vet → admit: one pending-window lock, one intake submit and one
/// write-queue push (the rejections) for the lot. `burst` is scratch,
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
        let first = state.register(burst.iter().map(|request| request.2), now);
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
        state.withdraw(refused);
        if status == Status::Busy {
            obs.busy.add(refused as u64);
        }
    }
    (rejected == 0 || state.push(rejects, rejected)) && intact
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
