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

    /// Pushes everything staged as one buffer: one writer wake-up, one
    /// `write`. A push refused by a closed or overflowing write queue is
    /// not an error here — the connection is gone; the commit stands.
    fn flush(&self, now: Instant) {
        let mut p = self.pending.lock().unwrap();
        let bytes = std::mem::take(&mut p.staged);
        let admitted = std::mem::take(&mut p.staged_admitted);
        drop(p);
        for then in &admitted {
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
    /// Returns `true` when it is the first staged since the last flush.
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
        self.staged_admitted.len() == 1
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

/// The response-routing [`CommitSink`]: wraps the server's real
/// durability sink (a `Store` or the unit sink) and resolves
/// request tickets as their entries commit. Generic over the inner sink
/// so ack semantics compose with any durability policy the engine runs.
pub struct RouterSink<S> {
    router: Arc<Router>,
    cfg: ServerConfig,
    /// Connections with responses staged and not yet pushed: the ones
    /// the current wave (in durable-ack mode: batch) answers.
    staged: Vec<Arc<ConnState>>,
    /// One past the highest sequence number staged: what the durable
    /// watermark must reach before a durable-ack flush.
    staged_to: u64,
    inner: S,
}

impl<S> RouterSink<S> {
    pub(crate) fn new(router: Arc<Router>, cfg: ServerConfig, inner: S) -> Self {
        Self {
            router,
            cfg,
            staged: Vec::new(),
            staged_to: 0,
            inner,
        }
    }

    /// Unwraps the inner durability sink (after the engine stopped).
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// One push per connection the staged responses answer.
    fn flush(&mut self) {
        let now = Instant::now();
        self.staged.drain(..).for_each(|conn| conn.flush(now));
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
        if self.staged.is_empty() {
            return;
        }
        // One durability wait per batch, on the highest staged sequence
        // (the watermark is next_seq-style, so entry S is covered once
        // it reaches S + 1) — the engine thread stalls at most one fsync
        // turnaround while the store's background durability thread
        // catches up. A sink without a watermark (or one that stops
        // advancing within the bounded wait) degrades to ack-at-commit
        // rather than wedging the engine.
        let deadline = Instant::now() + self.cfg.durable_wait;
        while self.inner.durable_seq().is_some_and(|d| d < self.staged_to)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_micros(50));
        }
        self.flush();
    }

    fn durable_seq(&self) -> Option<u64> {
        self.inner.durable_seq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use tokensync_obs::Registry;

    /// Connection number 1 of a fresh table, write bound 4 frames.
    fn conn() -> (Arc<ConnState>, ServerObs) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let obs = ServerObs::new(&Registry::new());
        let conn = ConnState::attach(&Router::default(), stream, 4, obs.clone());
        (conn, obs)
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
}
