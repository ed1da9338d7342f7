//! Slow-client and admission-control behavior: a connection that stops
//! reading (or never finishes a frame) is disconnected with bounded
//! memory, and a connection that saturates its intake shard is the only
//! one that sees `Busy` — the server never lets one client's behavior
//! become every client's problem.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_obs::Registry;
use tokensync_pipeline::{CommitSink, CommittedOp};
use tokensync_server::wire::{decode_response, encode_request, FrameDecoder, WireStandard};
use tokensync_server::{Client, Reply, Server, ServerConfig, ServerHandle};
use tokensync_spec::{AccountId, ProcessId};

fn spawn_with<S>(cfg: ServerConfig, sink: S) -> ServerHandle<ShardedErc20, S>
where
    S: CommitSink<ShardedErc20> + Send + 'static,
{
    let token = Arc::new(ShardedErc20::from_state(Erc20State::from_balances(vec![
        1_000_000;
        64
    ])));
    Server::spawn(token, sink, cfg, &Registry::new()).unwrap()
}

/// A client that pipelines tens of thousands of requests and never reads
/// a byte must be disconnected once kernel socket buffers and the
/// bounded write queue fill — not buffered without bound — while a
/// well-behaved client on the same server keeps getting answers.
#[test]
fn non_reading_client_is_disconnected_not_buffered() {
    let cfg = ServerConfig {
        write_queue_frames: 64,
        ..ServerConfig::default()
    };
    let handle = spawn_with(cfg, ());
    let addr = handle.addr();

    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_nodelay(true).unwrap();
    let req = encode_request(
        1,
        ShardedErc20::STANDARD,
        ProcessId::new(1),
        &Erc20Op::BalanceOf {
            account: AccountId::new(1),
        },
    );
    // Kernel send + receive buffers absorb roughly 400 KiB ≈ 16k small
    // response frames; 60k requests overflow the bounded queue behind
    // them several times over.
    let mut dropped = false;
    for _ in 0..60_000 {
        if slow.write_all(&req).is_err() {
            dropped = true; // server reset us mid-send: exactly the point
            break;
        }
    }
    if !dropped {
        // All requests squeezed in; the drop must then arrive as
        // EOF/reset instead of a response stream we never read.
        slow.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut sink = [0u8; 4096];
        loop {
            match slow.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => continue,
            }
        }
    }

    // The firewall tripped: overflow counter up, and a healthy client is
    // still served promptly.
    assert!(handle.obs().write_overflows.get() >= 1);
    let mut healthy = Client::<ShardedErc20>::connect(addr).unwrap();
    healthy
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reply = healthy
        .call(
            ProcessId::new(2),
            &Erc20Op::BalanceOf {
                account: AccountId::new(2),
            },
        )
        .unwrap();
    assert_eq!(reply, Reply::Ok(Erc20Resp::Amount(1_000_000)));
    handle.finish();
}

/// Slowloris: a frame left incomplete past the read grace drops the
/// connection. An idle connection with *no* partial frame pending is
/// never timed out — only mid-frame stalls are hostile.
#[test]
fn slowloris_dropped_idle_connection_kept() {
    let cfg = ServerConfig {
        read_grace: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let handle = spawn_with(cfg, ());
    let addr = handle.addr();

    // Idle-but-honest: connect, stay silent well past the grace, then
    // speak a full request — must be served.
    let idle = TcpStream::connect(addr).unwrap();
    // Slowloris: four bytes of a frame, then silence.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(&[0xEE, 0x00, 0x00, 0x00]).unwrap();

    std::thread::sleep(Duration::from_millis(700));

    // The slowloris connection is gone...
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 64];
    match loris.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("slowloris got {n} bytes instead of a disconnect"),
    }
    assert!(handle.obs().slow_disconnects.get() >= 1);

    // ...while the idle one still gets an answer.
    let mut idle = idle;
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let req = encode_request(
        9,
        ShardedErc20::STANDARD,
        ProcessId::new(3),
        &Erc20Op::TotalSupply,
    );
    idle.write_all(&req).unwrap();
    assert_eq!(
        read_replies(&mut idle, 1),
        vec![(9, Reply::Ok(Erc20Resp::Amount(64_000_000)))]
    );
    handle.finish();
}

/// No reader polls: `finish` ends a reader blocked in `read` at once,
/// idle or holding half a frame, however long the read grace — and
/// every idle client then reads EOF.
#[test]
fn finish_does_not_wait_for_idle_readers() {
    let cfg = ServerConfig {
        read_grace: Duration::from_secs(60),
        ..ServerConfig::default()
    };
    let handle = spawn_with(cfg, ());
    let mut idle: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(handle.addr()).unwrap())
        .collect();
    let mut half = TcpStream::connect(handle.addr()).unwrap();
    let frame = encode_request(
        1,
        ShardedErc20::STANDARD,
        ProcessId::new(1),
        &Erc20Op::TotalSupply,
    );
    half.write_all(&frame[..frame.len() / 2]).unwrap();
    while handle.obs().sessions.get() < 9 {
        std::thread::yield_now();
    }

    // On its own thread, so that a `finish` stuck behind a reader fails
    // the test instead of hanging it.
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(handle.finish()).unwrap());
    let waited = finished.recv_timeout(Duration::from_secs(5));
    assert!(waited.is_ok(), "finish still waiting after 5 s");
    for s in idle.iter_mut().chain([&mut half]) {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 64];
        assert!(
            matches!(s.read(&mut buf), Ok(0)),
            "the server closed its side"
        );
    }
}

/// A sink whose first commit blocks until the test opens a gate: stalls
/// the engine with work admitted, so intake shards fill deterministically.
struct GateSink {
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl<T: ConcurrentObject + ?Sized> CommitSink<T> for GateSink {
    fn wave_committed(&mut self, _token: &T, _entries: &[CommittedOp<T::Op, T::Resp>]) {
        let (lock, cvar) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cvar.wait(open).unwrap();
        }
    }

    fn batch_sealed(&mut self, _token: &T, _batch: u64) {}
}

/// Shard-pinned admission: with the engine stalled, a connection that
/// saturates its own intake shard collects `Busy` — while a second
/// connection (pinned round-robin to the other shard) gets everything
/// admitted and, once the engine resumes, everything committed.
#[test]
fn saturating_connection_does_not_starve_others() {
    let mut cfg = ServerConfig::default();
    cfg.pipeline.batch.intake_shards = 2;
    cfg.pipeline.batch.queue_depth = 64; // 32 per shard
    cfg.pipeline.batch.max_ops = 8;
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let handle = spawn_with(
        cfg,
        GateSink {
            gate: Arc::clone(&gate),
        },
    );
    let addr = handle.addr();

    let op = Erc20Op::BalanceOf {
        account: AccountId::new(1),
    };

    // Connection A floods: 200 pipelined requests against a stalled
    // engine overfill its 32-slot shard no matter how the first batch
    // was carved.
    let mut a = Client::<ShardedErc20>::connect(addr).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for _ in 0..200 {
        a.send(ProcessId::new(1), &op).unwrap();
    }
    // Busy rejections are answered by the reader thread immediately —
    // no commit needed — so they are readable while the engine sleeps.
    let mut saw_busy = false;
    for _ in 0..200 {
        if let (_, Reply::Busy) = a.recv().unwrap() {
            saw_busy = true;
            break;
        }
    }
    assert!(saw_busy, "flooding a 32-slot shard never produced Busy");

    // Connection B, pinned to the other shard, is admitted in full: no
    // Busy within a generous window (commits can't arrive — the engine
    // is stalled — so *any* readable reply would be a rejection).
    let mut b = Client::<ShardedErc20>::connect(addr).unwrap();
    let b_ids: Vec<u64> = (0..5)
        .map(|_| b.send(ProcessId::new(2), &op).unwrap())
        .collect();
    b.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    match b.recv() {
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut => {}
        Ok((id, reply)) => panic!("request {id} answered {reply:?} while the engine was stalled"),
        Err(e) => panic!("connection B broke: {e}"),
    }

    // Open the gate: everything admitted commits; B's five requests all
    // come back Ok.
    {
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }
    b.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut answered = std::collections::HashSet::new();
    while answered.len() < b_ids.len() {
        let (id, reply) = b.recv().unwrap();
        assert_eq!(
            reply,
            Reply::Ok(Erc20Resp::Amount(1_000_000)),
            "request {id}"
        );
        answered.insert(id);
    }
    assert_eq!(answered.len(), b_ids.len());
    handle.finish();
}

/// Drain-on-EOF: a client that half-closes after sending is still owed
/// every admitted response — the server flushes them all, then closes.
/// The three requests arrive in one segment, so they are one read burst,
/// one batch, and their responses one buffer.
#[test]
fn half_close_drains_pending_responses() {
    let handle = spawn_with(ServerConfig::default(), ());
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let burst: Vec<u8> = (1..=3u64)
        .flat_map(|id| {
            encode_request(
                id,
                ShardedErc20::STANDARD,
                ProcessId::new(4),
                &Erc20Op::TotalSupply,
            )
        })
        .collect();
    s.write_all(&burst).unwrap();
    s.shutdown(Shutdown::Write).unwrap();

    let replies = read_replies(&mut s, 3);
    let mut got: Vec<u64> = replies
        .into_iter()
        .map(|(id, reply)| {
            assert_eq!(reply, Reply::Ok(Erc20Resp::Amount(64_000_000)));
            id
        })
        .collect();
    got.sort_unstable();
    assert_eq!(got, vec![1, 2, 3]);
    assert_eq!(
        handle.obs().write_pushes.get(),
        1,
        "one buffer for the wave"
    );
    // After the drain the server closes its side.
    let mut buf = [0u8; 64];
    match s.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("unexpected {n} extra bytes after the drain"),
    }
    handle.finish();
}

/// Reads `want` response frames off a raw connection.
fn read_replies(s: &mut TcpStream, want: usize) -> Vec<(u64, Reply<Erc20Resp>)> {
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let mut got = Vec::new();
    loop {
        while let Some(body) = dec.try_frame().unwrap() {
            got.push(decode_response::<Erc20Resp>(body).unwrap());
        }
        if got.len() >= want {
            return got;
        }
        match s.read(&mut buf) {
            Ok(0) => panic!("closed after {} of {want} responses", got.len()),
            Ok(n) => dec.feed(&buf[..n]),
            Err(e) => panic!("read failed after {} of {want} responses: {e}", got.len()),
        }
    }
}

/// Two connections with a generous read timeout.
fn connect_pair<S>(handle: &ServerHandle<ShardedErc20, S>) -> Vec<TcpStream> {
    (0..2)
        .map(|_| {
            let s = TcpStream::connect(handle.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            s
        })
        .collect()
}

/// Pipelines requests `1..=k` on every connection, then a trailing
/// request for the wrong standard (id 0): the reader rejects it only
/// after admitting everything ahead of it, so its reply is the signal
/// that this connection's requests are all queued.
fn pipeline_requests(conns: &mut [TcpStream], k: u64) {
    let wrong_standard = 0xEE;
    for s in conns {
        let burst: Vec<u8> = (1..=k)
            .map(|id| (id, ShardedErc20::STANDARD))
            .chain([(0, wrong_standard)])
            .flat_map(|(id, standard)| {
                encode_request(id, standard, ProcessId::new(1), &Erc20Op::TotalSupply)
            })
            .collect();
        s.write_all(&burst).unwrap();
    }
}

/// One queue push per connection per wave: two connections pipeline 50
/// requests each against a stalled engine, so that once it resumes at
/// most two batches answer them — and every batch hands each connection
/// its responses as one buffer, however many frames that is.
#[test]
fn a_wave_is_one_push_per_connection() {
    const K: u64 = 50;
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let handle = spawn_with(
        ServerConfig::default(),
        GateSink {
            gate: Arc::clone(&gate),
        },
    );
    let obs = handle.obs().clone();
    let mut conns = connect_pair(&handle);
    pipeline_requests(&mut conns, K);
    for s in &mut conns {
        // The engine is stalled on its first wave: no `Ok` can arrive.
        assert_eq!(read_replies(s, 1), vec![(0, Reply::BadRequest)]);
    }
    {
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }
    for s in &mut conns {
        let replies = read_replies(s, K as usize);
        assert!(replies
            .iter()
            .all(|(_, r)| *r == Reply::Ok(Erc20Resp::Amount(64_000_000))));
    }
    drop(conns);
    let (run, _) = handle.finish();
    assert_eq!(obs.requests_ok.get(), 2 * K);
    // The batch cut before the stall, and the one that queued behind it.
    assert!(run.stats.batches <= 2, "{} batches", run.stats.batches);
    // Two rejection pushes, then at most one per connection per batch.
    let pushes = obs.write_pushes.get();
    assert!(
        pushes <= 2 + 2 * run.stats.batches,
        "{pushes} pushes for {} batches",
        run.stats.batches
    );
}

/// A sink with a durable watermark the test moves by hand, which
/// publishes how much it has seen sealed.
#[derive(Clone, Default)]
struct ManualWatermark {
    durable: Arc<AtomicU64>,
    committed: u64,
    /// Entries in sealed batches, and those batches.
    sealed: Arc<(AtomicU64, AtomicU64)>,
}

impl<T: ConcurrentObject + ?Sized> CommitSink<T> for ManualWatermark {
    fn wave_committed(&mut self, _token: &T, entries: &[CommittedOp<T::Op, T::Resp>]) {
        self.committed += entries.len() as u64;
    }

    fn batch_sealed(&mut self, _token: &T, _batch: u64) {
        self.sealed.1.fetch_add(1, Ordering::SeqCst);
        self.sealed.0.store(self.committed, Ordering::SeqCst);
    }

    fn durable_seq(&self) -> Option<u64> {
        Some(self.durable.load(Ordering::SeqCst))
    }
}

/// The durable-ack counterpart of `a_wave_is_one_push_per_connection`:
/// two connections pipeline 50 requests each, cut into batches of at
/// most 16, against a watermark that stands still — every batch seals
/// and is held, no `Ok` leaves. One move of the watermark over all of
/// them is one release: each connection gets the replies of all its
/// batches as one buffer, not one per batch.
#[test]
fn batches_one_fsync_covers_are_one_push_per_connection() {
    const K: u64 = 50;
    let mut cfg = ServerConfig {
        durable_acks: true,
        ..ServerConfig::default()
    };
    cfg.pipeline.batch.max_ops = 16;
    let sink = ManualWatermark::default();
    let handle = spawn_with(cfg, sink.clone());
    let obs = handle.obs().clone();
    let mut conns = connect_pair(&handle);
    pipeline_requests(&mut conns, K);
    for s in &mut conns {
        assert_eq!(read_replies(s, 1), vec![(0, Reply::BadRequest)]);
    }
    // Every admitted request in a sealed batch, every sealed batch held.
    while sink.sealed.0.load(Ordering::SeqCst) < 2 * K {
        std::thread::yield_now();
    }
    let batches = sink.sealed.1.load(Ordering::SeqCst);
    assert!(batches >= 2 * K / 16, "{batches} batches");
    while (obs.acks_held.get() as u64) < batches {
        std::thread::yield_now();
    }
    assert_eq!(obs.requests_ok.get(), 0, "acked ahead of the watermark");
    assert_eq!(obs.write_pushes.get(), 2, "the two rejections");

    sink.durable.store(2 * K, Ordering::SeqCst);
    for s in &mut conns {
        let replies = read_replies(s, K as usize);
        assert!(replies
            .iter()
            .all(|(_, r)| *r == Reply::Ok(Erc20Resp::Amount(64_000_000))));
    }
    drop(conns);
    handle.finish();
    assert_eq!(obs.requests_ok.get(), 2 * K);
    assert_eq!(obs.durable_hold_ns.count(), batches);
    // One release × two connections, after the two rejection pushes.
    assert_eq!(obs.write_pushes.get(), 2 + 2);
}

/// Sends are buffered client-side: a burst of `send`s is delivered, in
/// full, by the `recv`s that follow it.
#[test]
fn pipelined_sends_are_all_answered() {
    let handle = spawn_with(ServerConfig::default(), ());
    let mut client = Client::<ShardedErc20>::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let op = Erc20Op::BalanceOf {
        account: AccountId::new(3),
    };
    let mut sent: Vec<u64> = (0..500)
        .map(|_| client.send(ProcessId::new(3), &op).unwrap())
        .collect();
    let mut answered: Vec<u64> = (0..500)
        .map(|_| {
            let (id, reply) = client.recv().unwrap();
            assert_eq!(reply, Reply::Ok(Erc20Resp::Amount(1_000_000)));
            id
        })
        .collect();
    sent.sort_unstable();
    answered.sort_unstable();
    assert_eq!(sent, answered);
    handle.finish();
}

/// ...and a client that only sends puts them on the wire with `flush`.
#[test]
fn flush_delivers_sends_without_a_recv() {
    let handle = spawn_with(ServerConfig::default(), ());
    let mut client = Client::<ShardedErc20>::connect(handle.addr()).unwrap();
    for _ in 0..10 {
        client
            .send(ProcessId::new(5), &Erc20Op::TotalSupply)
            .unwrap();
    }
    client.flush().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.obs().requests_ok.get() < 10 {
        assert!(Instant::now() < deadline, "flushed requests never served");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(client);
    let (run, ()) = handle.finish();
    assert_eq!(run.log.len(), 10);
}

/// Connection churn: a closed session leaves nothing behind — its slot
/// in the routing table (and with it the socket handle, staging buffers
/// and pending window) is released once its writer has exited — and
/// the server keeps serving.
#[test]
fn closed_connections_release_their_table_slot() {
    const SESSIONS: u64 = 3_000;
    // Where the OS lists them, count descriptors too: the table's
    // handle on the socket is the last one to go.
    let open_fds = || std::fs::read_dir("/proc/self/fd").map(Iterator::count).ok();
    let handle = spawn_with(ServerConfig::default(), ());
    let fds_before = open_fds();
    let op = Erc20Op::BalanceOf {
        account: AccountId::new(3),
    };
    let served = Reply::Ok(Erc20Resp::Amount(1_000_000));
    for _ in 0..SESSIONS {
        let mut client = Client::<ShardedErc20>::connect(handle.addr()).unwrap();
        assert_eq!(client.call(ProcessId::new(3), &op).unwrap(), served);
    }
    // The last sessions' writers may still be on their way out.
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.obs().active.get() != 0 {
        assert!(
            Instant::now() < deadline,
            "{} closed sessions still hold a table slot",
            handle.obs().active.get()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(handle.obs().sessions.get(), SESSIONS);
    if let (Some(before), Some(after)) = (fds_before, open_fds()) {
        // Slack for the tests running beside this one.
        assert!(
            after < before + SESSIONS as usize / 2,
            "descriptors grew from {before} to {after} over {SESSIONS} closed sessions"
        );
    }

    let mut client = Client::<ShardedErc20>::connect(handle.addr()).unwrap();
    assert_eq!(client.call(ProcessId::new(3), &op).unwrap(), served);
    assert_eq!(handle.obs().active.get(), 1);
    drop(client);
    let (run, ()) = handle.finish();
    assert_eq!(run.log.len() as u64, SESSIONS + 1);
}
