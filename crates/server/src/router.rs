//! Response routing: the seam between the pipeline's commit stage and
//! the per-connection write queues.
//!
//! Every admitted request holds a **ticket** — an opaque `u64` the
//! intake carries alongside the op (never persisted, never executed):
//! the request's place in its connection's own sequence (high half) and
//! the connection's number (low half). The connection keeps its admitted-but-unanswered
//! requests in a window indexed by that sequence, so neither admitting
//! a burst nor resolving a wave hashes anything. When the engine
//! commits a wave, [`RouterSink`] receives the committed entries *with
//! their tickets* ([`CommitSink::wave_committed_tagged`]), encodes each
//! response straight into its connection's staging buffer, and hands
//! every connection its buffer with a single push. An `Ok` ack therefore
//! means exactly what a pipeline commit means; with durable acks enabled
//! it additionally means the store's fsync watermark passed the entry.
//!
//! # Durable acks
//!
//! A durable ack waits for an fsync; the engine thread does not. At
//! batch seal the sink *cuts* each connection's staging buffer — what
//! lies before the cut is that batch's share, releasable once the
//! watermark reaches the batch's last entry — queues the batch as
//! **held**, and returns. The watermark
//! ([`CommitSink::durable_seq`] of the wrapped sink) is looked at again
//! at every later wave commit and seal, and, when the intake runs dry
//! with something held, from the engine's idle hook
//! ([`CommitSink::idle`]): every held batch it has passed is released in
//! order, and all the batches one fsync covers leave as **one push per
//! connection**. A reply therefore never reaches a socket before the
//! watermark covers its entry, and the engine commits batch N + 1 while
//! batch N's fsync is in flight — which is what lets the store coalesce
//! fsyncs at all. A batch held longer than
//! [`ServerConfig::durable_wait`] degrades to ack-at-commit, alone; the
//! engine drains everything held before it returns its run.
//!
//! The write queue is the slow-client firewall: pushes never block (the
//! engine thread is the caller), and a queue at capacity closes the
//! connection instead of growing — a client that stops reading is
//! disconnected, not buffered without bound.

use std::collections::VecDeque;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use tokensync_core::codec::Codec;
use tokensync_core::shared::ConcurrentObject;
use tokensync_pipeline::{CommitSink, CommittedOp};

use crate::obs::ServerObs;
use crate::server::ServerConfig;
use crate::wire::{encode_response_into, Status};

#[derive(Default)]
struct WriteQueue {
    /// Encoded frames waiting for the writer thread, back to back.
    buf: Vec<u8>,
    /// Frames in `buf`: what the slow-client bound counts. The writer
    /// holds at most one more buffer, itself taken from under the bound,
    /// so a connection pins at most twice the bound; counting that one
    /// too would disconnect a fast client, whose next burst can commit
    /// before the writer thread is back from the `write` that delivered
    /// the last.
    queued: usize,
    /// Set once the connection is closing: pushes are refused. A
    /// drain-close lets queued frames flush; an abort-close clears them.
    closed: bool,
    /// The writer is waiting on `ready`; the push that finds it set
    /// clears it and notifies, so a busy writer costs pushes no syscall.
    parked: bool,
}

/// Requests admitted to the pipeline but not yet answered, as a window
/// over the connection's ticket sequence, plus the responses the commit
/// stage has encoded and not yet pushed.
#[derive(Default)]
struct Pending {
    /// `slots[i]` is sequence number `base + i`: the request id and
    /// admit time, `None` once resolved.
    base: u32,
    slots: VecDeque<Option<(u64, Instant)>>,
    /// Registered and not yet answered. A reader that saw EOF keeps the
    /// writer alive until this drains to zero.
    outstanding: usize,
    /// Set when the reader saw a clean EOF: the connection closes as
    /// soon as `outstanding` reaches zero.
    draining: bool,
    /// Staged response frames, and the admit time of each.
    staged: Vec<u8>,
    staged_admitted: Vec<Instant>,
    /// Durable-ack mode: where sealed batches end in the staging
    /// buffers, oldest first. What lies past the last cut belongs to
    /// the batch still committing.
    cuts: VecDeque<Cut>,
}

/// The end of one sealed batch's share of a connection's staging
/// buffers: `staged[..bytes]` and `staged_admitted[..frames]` answer
/// entries below `covers` (that batch's and every earlier one's).
struct Cut {
    covers: u64,
    bytes: usize,
    frames: usize,
}

/// Per-connection shared state: the bounded write queue its writer
/// thread drains, and the pending window the drain-on-EOF lifecycle and
/// the response router need.
pub(crate) struct ConnState {
    /// Used only to `shutdown` the socket (wakes blocked reads/writes on
    /// both sides); reader and writer threads own their own clones.
    stream: TcpStream,
    /// Low half of every ticket this connection issues (never zero, so
    /// `NO_TICKET` is never issued).
    number: u32,
    write_cap: usize,
    obs: ServerObs,
    queue: Mutex<WriteQueue>,
    ready: Condvar,
    pending: Mutex<Pending>,
}

impl ConnState {
    /// State for a freshly accepted connection, entered in `router` under
    /// the next number, from 1. Numbers are never reused, so a late
    /// commit cannot answer a stranger.
    pub(crate) fn attach(
        router: &Router,
        stream: TcpStream,
        write_cap: usize,
        obs: ServerObs,
    ) -> Arc<Self> {
        let mut conns = router.lock().unwrap();
        obs.active.add(1);
        let state = Arc::new(Self {
            stream,
            number: conns.len() as u32 + 1,
            write_cap,
            obs,
            queue: Mutex::default(),
            ready: Condvar::new(),
            pending: Mutex::default(),
        });
        conns.push(Some(Arc::clone(&state)));
        state
    }

    /// Empties this connection's slot in `router`, so the table stops
    /// pinning its socket, staging buffers and pending window. The
    /// writer thread calls this as it exits: the write queue is closed
    /// by then, so a commit that still carries one of this connection's
    /// tickets had nowhere to push its response anyway.
    pub(crate) fn detach(&self, router: &Router) {
        router.lock().unwrap()[self.number as usize - 1] = None;
        self.obs.active.add(-1);
    }

    /// Queues `frames` encoded frames for the writer thread with one
    /// lock and at most one wake-up. Never blocks. Returns `false` when
    /// the queue is closed or would pass its bound (slow client) — and
    /// then counts the overflow and abort-closes the connection.
    pub(crate) fn push(&self, bytes: Vec<u8>, frames: usize) -> bool {
        let mut q = self.queue.lock().unwrap();
        if q.closed {
            return false;
        }
        if q.queued + frames > self.write_cap {
            drop(q);
            self.obs.write_overflows.inc();
            self.close_abort();
            return false;
        }
        self.obs.write_pushes.inc();
        q.queued += frames;
        if q.buf.is_empty() {
            q.buf = bytes;
        } else {
            q.buf.extend_from_slice(&bytes);
        }
        let wake = std::mem::take(&mut q.parked);
        drop(q);
        if wake {
            self.ready.notify_one();
        }
        true
    }

    /// Abort-close: drop queued frames and shut the socket down now.
    /// Wakes a writer blocked mid-`write_all` (the OS fails the send)
    /// and a reader blocked in `read`.
    pub(crate) fn close_abort(&self) {
        let mut q = self.queue.lock().unwrap();
        q.buf.clear();
        q.closed = true;
        drop(q);
        self.ready.notify_all();
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Drain-close: refuse new frames but let the writer flush what is
    /// queued before it shuts the socket down.
    pub(crate) fn close_drain(&self) {
        self.queue.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// Writer-thread fetch: everything queued since the last call, as
    /// one buffer, or `None` once the queue is closed *and* empty.
    pub(crate) fn next_write(&self) -> Option<Vec<u8>> {
        let mut q = self.queue.lock().unwrap();
        while q.buf.is_empty() {
            if q.closed {
                return None;
            }
            q.parked = true;
            q = self.ready.wait(q).unwrap();
        }
        q.queued = 0;
        Some(std::mem::take(&mut q.buf))
    }

    /// Opens pending slots for a burst of request ids, all admitted at
    /// `now`, and returns the first one's ticket; each next request's is
    /// [`NEXT_TICKET`] further (wrapping). Must precede the intake
    /// submit — the commit callback may fire before the submit returns.
    pub(crate) fn register(&self, ids: impl Iterator<Item = u64>, now: Instant) -> u64 {
        let mut p = self.pending.lock().unwrap();
        let before = p.slots.len();
        p.slots.extend(ids.map(|id| Some((id, now))));
        p.outstanding += p.slots.len() - before;
        let first = p.base.wrapping_add(before as u32);
        (u64::from(first) << 32) | u64::from(self.number)
    }

    /// Withdraws the last `n` registered requests: their submit was
    /// refused (Busy/Gone) and the reader answers them itself.
    pub(crate) fn withdraw(&self, n: usize) {
        let mut p = self.pending.lock().unwrap();
        let keep = p.slots.len() - n;
        p.slots.truncate(keep);
        p.outstanding -= n;
    }

    /// Ack at commit: pushes everything staged as one buffer.
    fn flush(&self, now: Instant) {
        let mut p = self.pending.lock().unwrap();
        debug_assert!(p.cuts.is_empty(), "cut shares leave through `release`");
        let bytes = std::mem::take(&mut p.staged);
        let admitted = std::mem::take(&mut p.staged_admitted);
        drop(p);
        self.deliver(bytes, &admitted, now);
    }

    /// Batch seal in durable-ack mode: what was staged since the last
    /// cut may leave once the watermark reaches `covers`.
    fn cut(&self, covers: u64) {
        let mut p = self.pending.lock().unwrap();
        let (bytes, frames) = (p.staged.len(), p.staged_admitted.len());
        p.cuts.push_back(Cut {
            covers,
            bytes,
            frames,
        });
    }

    /// The watermark reached `upto`: pushes the share of every batch it
    /// covers as one buffer — nothing staged behind the last such cut.
    /// A connection listed by several of the batches released together
    /// is emptied by the first call; the rest find nothing.
    fn release(&self, upto: u64, now: Instant) {
        let mut p = self.pending.lock().unwrap();
        let mut end = None;
        while p.cuts.front().is_some_and(|cut| cut.covers <= upto) {
            end = p.cuts.pop_front();
        }
        let Some(end) = end else {
            return;
        };
        for cut in &mut p.cuts {
            cut.bytes -= end.bytes;
            cut.frames -= end.frames;
        }
        let later = p.staged.split_off(end.bytes);
        let bytes = std::mem::replace(&mut p.staged, later);
        let later = p.staged_admitted.split_off(end.frames);
        let admitted = std::mem::replace(&mut p.staged_admitted, later);
        drop(p);
        self.deliver(bytes, &admitted, now);
    }

    /// Hands the writer one buffer of responses to requests admitted at
    /// `admitted`: one wake-up, one `write`. A push refused by a closed
    /// or overflowing write queue is not an error here — the connection
    /// is gone; the commit stands.
    fn deliver(&self, bytes: Vec<u8>, admitted: &[Instant], now: Instant) {
        for then in admitted {
            let waited = now.duration_since(*then).as_nanos();
            self.obs.request_ns.record(waited as u64);
        }
        if !admitted.is_empty() && self.push(bytes, admitted.len()) {
            self.obs.requests_ok.add(admitted.len() as u64);
        }
        // Only after the push: a drain-close refuses later frames.
        self.settle(admitted.len());
    }

    /// Marks `n` admitted requests answered and completes a pending
    /// drain-on-EOF.
    fn settle(&self, n: usize) {
        let mut p = self.pending.lock().unwrap();
        p.outstanding -= n;
        if p.outstanding == 0 && p.draining {
            self.close_drain();
        }
    }

    /// The reader saw a clean EOF: linger until every in-flight request
    /// resolved, then the writer flushes and closes.
    pub(crate) fn drain(&self) {
        self.pending.lock().unwrap().draining = true;
        self.settle(0);
    }
}

impl Pending {
    /// Commit-time resolution: stages the `Ok` response, its payload
    /// written by `resp`, to the request behind sequence number `seq`.
    /// Returns `true` when it is the first staged since the last flush
    /// or cut.
    fn stage(&mut self, seq: u32, resp: impl FnOnce(&mut Vec<u8>)) -> bool {
        let at = seq.wrapping_sub(self.base) as usize;
        let Some((request_id, admitted)) = self.slots.get_mut(at).and_then(Option::take) else {
            return false;
        };
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base = self.base.wrapping_add(1);
        }
        encode_response_into(&mut self.staged, request_id, Status::Ok, resp);
        self.staged_admitted.push(admitted);
        self.staged_admitted.len() - self.cuts.back().map_or(0, |cut| cut.frames) == 1
    }
}

/// From one ticket of a connection to its next: the sequence number is
/// the high half, so a wrap never carries into the connection number.
pub(crate) const NEXT_TICKET: u64 = 1 << 32;

/// The one connection table: ticket → connection, by number − 1. Shared
/// by the acceptor (attach), the engine thread (one lock per wave), each
/// writer thread as it exits (detach) and `finish` (closes every write
/// side). Slots are emptied, never removed — numbers are never reused —
/// and a ticket that resolves to an empty slot is skipped.
pub(crate) type Router = Mutex<Vec<Option<Arc<ConnState>>>>;

/// A sealed batch whose acks wait for the durable watermark.
struct Held {
    /// One past the batch's highest sequence number: what the
    /// watermark must reach.
    covers: u64,
    /// When the batch sealed: `durable_wait` runs from here.
    sealed: Instant,
    /// The connections the batch answers, each cut at `covers`.
    conns: Vec<Arc<ConnState>>,
}

/// How long an idle engine waits for an arrival between two looks at
/// the watermark while acks are held. Nothing wakes the engine when the
/// durability thread advances it, so this bounds how long a finished
/// fsync goes unnoticed on an otherwise idle server; a busy engine
/// looks at every commit and seal and never waits.
const WATERMARK_POLL: Duration = Duration::from_micros(50);

/// The response-routing [`CommitSink`]: wraps the server's real
/// durability sink (a `Store` or the unit sink) and resolves
/// request tickets as their entries commit. Generic over the inner sink
/// so ack semantics compose with any durability policy the engine runs.
pub struct RouterSink<S> {
    router: Arc<Router>,
    cfg: ServerConfig,
    obs: ServerObs,
    /// Connections with responses staged since the last flush (in
    /// durable-ack mode: the last seal) — the ones the current wave
    /// (batch) answers.
    staged: Vec<Arc<ConnState>>,
    /// One past the highest sequence number staged: what the durable
    /// watermark must reach before the batch's acks leave.
    staged_to: u64,
    /// Durable-ack mode: sealed batches awaiting the watermark, oldest
    /// first (`covers` increasing).
    held: VecDeque<Held>,
    inner: S,
}

impl<S> RouterSink<S> {
    pub(crate) fn new(router: Arc<Router>, cfg: ServerConfig, obs: ServerObs, inner: S) -> Self {
        Self {
            router,
            cfg,
            obs,
            staged: Vec::new(),
            staged_to: 0,
            held: VecDeque::new(),
            inner,
        }
    }

    /// Unwraps the inner durability sink (after the engine stopped).
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Ack at commit: one push per connection the staged responses
    /// answer.
    fn flush(&mut self) {
        let now = Instant::now();
        self.staged.drain(..).for_each(|conn| conn.flush(now));
    }

    /// Batch seal in durable-ack mode: cuts the staged responses off as
    /// this batch's and queues them for the watermark.
    fn hold(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        for conn in &self.staged {
            conn.cut(self.staged_to);
        }
        self.held.push_back(Held {
            covers: self.staged_to,
            sealed: Instant::now(),
            conns: std::mem::take(&mut self.staged),
        });
        self.obs.acks_held.set(self.held.len() as i64);
    }

    /// One look at the watermark — a single branch while nothing is
    /// held (always, with acks at commit). Returns how long an idle
    /// engine may wait before the next look, `None` once nothing is
    /// held.
    #[inline]
    fn release<T>(&mut self) -> Option<Duration>
    where
        T: ConcurrentObject + ?Sized,
        S: CommitSink<T>,
    {
        if self.held.is_empty() {
            return None;
        }
        self.release_held::<T>()
    }

    /// Releases, oldest first, every held batch the durable watermark
    /// has reached — all of them as one push per connection. A sink
    /// without a watermark covers everything (acks then mean commit),
    /// and a batch held past `durable_wait` is released uncovered, alone:
    /// a dead store degrades to ack-at-commit rather than wedging
    /// replies.
    fn release_held<T>(&mut self) -> Option<Duration>
    where
        T: ConcurrentObject + ?Sized,
        S: CommitSink<T>,
    {
        let (durable, now) = (self.inner.durable_seq(), Instant::now());
        let (mut upto, mut conns) = (None, Vec::new());
        while let Some(front) = self.held.front() {
            let covered = durable.is_none_or(|durable| durable >= front.covers);
            if !covered && now.duration_since(front.sealed) < self.cfg.durable_wait {
                break;
            }
            let waited = now.duration_since(front.sealed).as_nanos();
            self.obs.durable_hold_ns.record(waited as u64);
            upto = Some(front.covers);
            conns.extend(self.held.pop_front().expect("front exists").conns);
        }
        if let Some(upto) = upto {
            self.obs.acks_held.set(self.held.len() as i64);
            conns.iter().for_each(|conn| conn.release(upto, now));
        }
        (!self.held.is_empty()).then_some(WATERMARK_POLL)
    }
}

impl<T, S> CommitSink<T> for RouterSink<S>
where
    T: ConcurrentObject + ?Sized,
    T::Resp: Codec,
    S: CommitSink<T>,
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
        // Inner first: the WAL append happens before any ack is built.
        self.inner.wave_committed_tagged(token, entries, tickets);
        self.release::<T>();
        debug_assert!(tickets.is_empty() || entries.len() == tickets.len());
        let conns = self.router.lock().unwrap();
        // The connection the previous entry answered, its pending window
        // locked: a shard drains as a run of one connection's tickets,
        // so the lock is taken once per run, not once per response.
        let mut run: Option<(u32, &Arc<ConnState>, MutexGuard<'_, Pending>)> = None;
        for (entry, &ticket) in entries.iter().zip(tickets) {
            // The low half is the connection's number, the high half the
            // request's place in its window; `NO_TICKET` names nobody.
            let number = ticket as u32;
            if run.as_ref().map(|run| run.0) != Some(number) {
                drop(run.take()); // unlock before locking the next
                let conn = conns.get((number as usize).wrapping_sub(1));
                run = conn
                    .and_then(Option::as_ref)
                    .map(|conn| (number, conn, conn.pending.lock().unwrap()));
            }
            let Some((_, conn, pending)) = &mut run else {
                continue;
            };
            if pending.stage((ticket >> 32) as u32, |body| entry.resp.encode_into(body)) {
                self.staged.push(Arc::clone(conn));
            }
            self.staged_to = self.staged_to.max(entry.seq + 1);
        }
        drop(run);
        drop(conns);
        if !self.cfg.durable_acks {
            self.flush();
        }
    }

    fn batch_sealed(&mut self, token: &T, batch: u64) {
        // Inner first: a group-commit store posts its fsync here.
        self.inner.batch_sealed(token, batch);
        if self.cfg.durable_acks {
            self.hold();
        }
        self.release::<T>();
    }

    fn durable_seq(&self) -> Option<u64> {
        self.inner.durable_seq()
    }

    fn idle(&mut self) -> Option<Duration> {
        self.release::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20State};
    use tokensync_core::shared::ShardedErc20;
    use tokensync_obs::Registry;
    use tokensync_pipeline::{Pipeline, PipelineConfig};
    use tokensync_spec::ProcessId;

    use crate::wire::{decode_response, FrameDecoder};

    /// The next connection of `router`, write bound 4 frames.
    fn attach(router: &Router, obs: &ServerObs) -> Arc<ConnState> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        ConnState::attach(router, stream, 4, obs.clone())
    }

    /// Connection number 1 of a fresh table, write bound 4 frames.
    fn conn() -> (Arc<ConnState>, ServerObs) {
        let obs = ServerObs::new(&Registry::new());
        (attach(&Router::default(), &obs), obs)
    }

    /// The sequence half of a ticket wraps without carrying into the
    /// connection number, and the window follows it across the wrap.
    #[test]
    fn ticket_sequence_wraps_within_its_half() {
        let (conn, _obs) = conn();
        conn.pending.lock().unwrap().base = u32::MAX;
        let first = conn.register([7, 8].into_iter(), Instant::now());
        assert_eq!(first, (u64::from(u32::MAX) << 32) | 1);
        let second = first.wrapping_add(NEXT_TICKET);
        assert_eq!(second, 1, "sequence 0 of connection 1");
        let mut p = conn.pending.lock().unwrap();
        assert!(p.stage((second >> 32) as u32, |_| {}));
        assert_eq!((p.base, p.slots.len()), (u32::MAX, 2), "7 still pending");
        p.stage((first >> 32) as u32, |_| {});
        assert_eq!((p.base, p.slots.len()), (1, 0));
        assert_eq!(p.staged_admitted.len(), 2);
    }

    /// The slow-client ceiling: the buffer a stalled writer took plus a
    /// full queue — twice the bound — is the most a connection pins; one
    /// frame more disconnects it, counted once.
    #[test]
    fn stalled_writer_plus_full_queue_is_the_ceiling() {
        let (conn, obs) = conn();
        // One byte stands for one frame.
        assert!(conn.push(vec![0; 3], 3));
        assert!(conn.push(vec![0; 1], 1), "the queue fills to its bound");
        // The writer takes everything queued and stalls in its `write`.
        assert_eq!(conn.next_write().map(|held| held.len()), Some(4));
        assert!(conn.push(vec![0; 4], 4), "the bound counts the queue only");
        assert_eq!(obs.write_overflows.get(), 0);
        assert!(!conn.push(vec![0; 1], 1), "2 × bound + 1 frames");
        assert_eq!(obs.write_overflows.get(), 1);
        // The connection is gone: queued frames dropped, pushes refused.
        assert!(!conn.push(vec![0; 1], 1));
        assert_eq!(obs.write_overflows.get(), 1);
        assert_eq!(conn.next_write(), None);
    }

    /// A sink whose durable watermark the test moves by hand.
    #[derive(Clone, Default)]
    struct Watermark(Arc<AtomicU64>);

    impl Watermark {
        fn raise(&self, to: u64) {
            self.0.store(to, Ordering::SeqCst);
        }
    }

    impl CommitSink<ShardedErc20> for Watermark {
        fn wave_committed(&mut self, _: &ShardedErc20, _: &[CommittedOp<Erc20Op, Erc20Resp>]) {}
        fn batch_sealed(&mut self, _: &ShardedErc20, _: u64) {}
        fn durable_seq(&self) -> Option<u64> {
            Some(self.0.load(Ordering::SeqCst))
        }
    }

    /// A durable-ack router over a hand-moved watermark, with `conns`
    /// connections (numbers 1..) attached.
    struct Rig {
        token: ShardedErc20,
        router: Arc<Router>,
        obs: ServerObs,
        watermark: Watermark,
        conns: Vec<Arc<ConnState>>,
        /// The next commit sequence number and batch number.
        next: (u64, u64),
    }

    impl Rig {
        fn new(conns: usize) -> Self {
            let obs = ServerObs::new(&Registry::new());
            let router = Arc::new(Router::default());
            Self {
                token: ShardedErc20::from_state(Erc20State::from_balances(vec![1; 4])),
                conns: (0..conns).map(|_| attach(&router, &obs)).collect(),
                router,
                obs,
                watermark: Watermark::default(),
                next: (0, 0),
            }
        }

        fn sink(&self, durable_wait: Duration) -> RouterSink<Watermark> {
            let cfg = ServerConfig {
                durable_acks: true,
                durable_wait,
                ..ServerConfig::default()
            };
            let (router, obs) = (Arc::clone(&self.router), self.obs.clone());
            RouterSink::new(router, cfg, obs, self.watermark.clone())
        }

        /// Admits one request per `(connection index, request id)` and
        /// commits and seals them as one batch, the way the engine
        /// does. Returns the batch's `covers`.
        fn commit(&mut self, sink: &mut RouterSink<Watermark>, requests: &[(usize, u64)]) -> u64 {
            let now = Instant::now();
            let (mut entries, mut tickets) = (Vec::new(), Vec::new());
            for &(conn, id) in requests {
                tickets.push(self.conns[conn].register([id].into_iter(), now));
                entries.push(CommittedOp {
                    seq: self.next.0,
                    batch: self.next.1,
                    caller: ProcessId::new(0),
                    op: Erc20Op::TotalSupply,
                    resp: Erc20Resp::Amount(4),
                });
                self.next.0 += 1;
            }
            sink.wave_committed_tagged(&self.token, &entries, &tickets);
            sink.batch_sealed(&self.token, self.next.1);
            self.next.1 += 1;
            self.next.0
        }

        /// The request ids answered in connection `conn`'s write queue,
        /// which is emptied.
        fn delivered(&self, conn: usize) -> Vec<u64> {
            let mut dec = FrameDecoder::new();
            dec.feed(&std::mem::take(&mut *self.conns[conn].queue.lock().unwrap()).buf);
            let mut ids = Vec::new();
            while let Some(body) = dec.try_frame().expect("well-framed") {
                let (id, reply) = decode_response::<Erc20Resp>(body).expect("well-formed");
                assert_eq!(reply, crate::wire::Reply::Ok(Erc20Resp::Amount(4)));
                ids.push(id);
            }
            ids
        }
    }

    /// Batch B commits while A is still held; the watermark then passes
    /// A only: exactly A's replies leave, B's stay, and once it passes B
    /// too they follow — each time one push per connection.
    #[test]
    fn watermark_over_a_releases_a_and_keeps_b() {
        let mut rig = Rig::new(2);
        let mut sink = rig.sink(Duration::from_secs(3600));
        let a = rig.commit(&mut sink, &[(0, 10), (1, 20), (0, 11)]);
        assert_eq!((a, rig.obs.acks_held.get()), (3, 1));
        let b = rig.commit(&mut sink, &[(0, 12), (1, 21)]);
        assert_eq!((b, rig.obs.acks_held.get()), (5, 2));
        assert_eq!(rig.obs.write_pushes.get(), 0, "nothing is durable yet");
        assert!(sink.idle().is_some());

        rig.watermark.raise(a - 1);
        assert!(sink.idle().is_some());
        assert_eq!(
            rig.obs.write_pushes.get(),
            0,
            "A's last entry is not covered"
        );

        rig.watermark.raise(a);
        assert!(sink.idle().is_some(), "B is still held");
        assert_eq!(rig.delivered(0), [10, 11]);
        assert_eq!(rig.delivered(1), [20]);
        assert_eq!(rig.obs.write_pushes.get(), 2);
        assert_eq!((rig.obs.acks_held.get(), rig.obs.requests_ok.get()), (1, 3));

        rig.watermark.raise(b);
        assert_eq!(sink.idle(), None, "nothing left to wait for");
        assert_eq!((rig.delivered(0), rig.delivered(1)), (vec![12], vec![21]));
        assert_eq!(rig.obs.write_pushes.get(), 4);
        assert_eq!(rig.obs.durable_hold_ns.count(), 2);
    }

    /// Three batches one fsync covers leave together: one push per
    /// connection, not one per batch — and the look that finds them
    /// covered is the next commit's, no idle engine needed.
    #[test]
    fn batches_one_fsync_covers_are_one_push_per_connection() {
        let mut rig = Rig::new(2);
        let mut sink = rig.sink(Duration::from_secs(3600));
        rig.commit(&mut sink, &[(0, 1), (1, 2)]);
        rig.commit(&mut sink, &[(0, 3)]);
        let c = rig.commit(&mut sink, &[(0, 4), (1, 5)]);
        rig.watermark.raise(c);
        let d = rig.commit(&mut sink, &[(1, 6)]);
        assert_eq!(rig.obs.write_pushes.get(), 2);
        assert_eq!(
            (rig.delivered(0), rig.delivered(1)),
            (vec![1, 3, 4], vec![2, 5])
        );
        assert_eq!(rig.obs.acks_held.get(), 1, "the batch that looked is held");
        rig.watermark.raise(d);
        assert_eq!(sink.idle(), None);
        assert_eq!(rig.delivered(1), [6]);
    }

    /// `durable_wait` runs per batch, from its own seal: a watermark
    /// that stopped degrades the batch that has waited that long to
    /// ack-at-commit, and leaves the younger one behind it held.
    #[test]
    fn durable_wait_expiry_degrades_one_batch_not_the_queue() {
        let wait = Duration::from_secs(3600);
        let mut rig = Rig::new(1);
        let mut sink = rig.sink(wait);
        rig.commit(&mut sink, &[(0, 1)]);
        rig.commit(&mut sink, &[(0, 2)]);
        assert!(sink.idle().is_some());
        assert_eq!(rig.obs.write_pushes.get(), 0);
        // The first batch sealed `durable_wait` ago.
        sink.held[0].sealed = Instant::now().checked_sub(wait).expect("uptime > wait");
        assert!(sink.idle().is_some(), "the second batch is still held");
        assert_eq!(rig.delivered(0), [1]);
        assert_eq!(rig.obs.acks_held.get(), 1);
    }

    /// A connection that closed while its replies were held: they are
    /// dropped, its pending window still settles, the other
    /// connection's replies are untouched.
    #[test]
    fn closed_connection_drops_its_held_replies_quietly() {
        let mut rig = Rig::new(2);
        let mut sink = rig.sink(Duration::from_secs(3600));
        let a = rig.commit(&mut sink, &[(0, 1), (1, 2)]);
        rig.conns[0].close_abort();
        rig.conns[0].detach(&rig.router);
        rig.watermark.raise(a);
        assert_eq!(sink.idle(), None);
        assert_eq!((rig.delivered(0), rig.delivered(1)), (vec![], vec![2]));
        assert_eq!(rig.obs.requests_ok.get(), 1);
        assert_eq!(rig.conns[0].pending.lock().unwrap().outstanding, 0);
    }

    /// Spawns an engine over a durable-ack router and one connection.
    fn spawn_engine(
        rig: &Rig,
        durable_wait: Duration,
    ) -> (
        tokensync_pipeline::IntakeClient<Erc20Op>,
        tokensync_pipeline::SinkedPipelineHandle<Erc20Op, Erc20Resp, RouterSink<Watermark>>,
    ) {
        let token = Arc::new(ShardedErc20::from_state(Erc20State::from_balances(vec![
            1;
            4
        ])));
        Pipeline::spawn_with_sink(token, PipelineConfig::default(), rig.sink(durable_wait))
    }

    fn submit(rig: &Rig, client: &tokensync_pipeline::IntakeClient<Erc20Op>, id: u64) {
        let ticket = rig.conns[0].register([id].into_iter(), Instant::now());
        client
            .submit_tagged(ProcessId::new(0), Erc20Op::TotalSupply, ticket)
            .expect("engine alive");
    }

    /// An engine with held acks and an intake that stays dry: nothing
    /// leaves while the watermark stands still, and moving it is enough
    /// — no arrival is needed to make the engine look.
    #[test]
    fn idle_engine_releases_when_the_watermark_moves() {
        let rig = Rig::new(1);
        let (client, engine) = spawn_engine(&rig, Duration::from_secs(3600));
        submit(&rig, &client, 7);
        while rig.obs.acks_held.get() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(rig.obs.write_pushes.get(), 0, "sealed, not durable");
        rig.watermark.raise(1);
        // Blocks until the engine's idle hook has pushed the reply.
        assert!(rig.conns[0].next_write().is_some());
        // `requests_ok` is counted after the push returns: wait it out.
        while rig.obs.requests_ok.get() == 0 {
            std::thread::yield_now();
        }
        assert_eq!((rig.obs.acks_held.get(), rig.obs.requests_ok.get()), (0, 1));
        drop(client);
        engine.finish();
    }

    /// The engine does not return its run while acks are held: with the
    /// watermark stuck for good, `finish` still delivers every admitted
    /// request's reply — after `durable_wait`, degraded.
    #[test]
    fn finish_flushes_everything_held() {
        let rig = Rig::new(1);
        let (client, engine) = spawn_engine(&rig, Duration::from_millis(50));
        (1..=3).for_each(|id| submit(&rig, &client, id));
        drop(client);
        let (run, sink) = engine.finish();
        assert_eq!(run.stats.ops, 3);
        assert!(sink.held.is_empty());
        assert_eq!(rig.delivered(0), [1, 2, 3]);
        assert_eq!(rig.obs.acks_held.get(), 0);
    }
}
