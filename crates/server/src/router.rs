//! Response routing: the seam between the pipeline's commit stage and
//! the per-connection sessions.
//!
//! Every admitted request holds a **ticket** — an opaque `u64` the
//! intake carries alongside the op (never persisted, never executed):
//! the request's place in its connection's own sequence (high half) and
//! the connection's number (low half). The connection's [`Session`]
//! keeps its admitted-but-unanswered requests in a window indexed by
//! that sequence, so neither admitting a burst nor resolving a wave
//! hashes anything. When the engine commits a wave, [`RouterSink`]
//! receives the committed entries *with their tickets*
//! ([`CommitSink::wave_committed_tagged`]), encodes each response
//! straight into its session's staging buffer, and delivers every
//! connection its buffer at once. An `Ok` ack therefore means exactly
//! what a pipeline commit means; with durable acks enabled it
//! additionally means the store's fsync watermark passed the entry.
//!
//! # Durable acks
//!
//! A durable ack waits for an fsync; the engine thread does not. At
//! batch seal the sink *cuts* each session's staging buffer — what
//! lies before the cut is that batch's share, releasable once the
//! watermark reaches the batch's last entry — queues the batch as
//! **held**, and returns. The watermark
//! ([`CommitSink::durable_seq`] of the wrapped sink) is looked at again
//! at every later wave commit and seal, and, when the intake runs dry
//! with something held, from the engine's idle hook
//! ([`CommitSink::idle`]): every held batch it has passed is released in
//! order, and all the batches one fsync covers leave as **one delivery
//! per connection**. A reply therefore never reaches a socket before the
//! watermark covers its entry, and the engine commits batch N + 1 while
//! batch N's fsync is in flight — which is what lets the store coalesce
//! fsyncs at all. A batch held longer than
//! [`ServerConfig::durable_wait`] degrades to ack-at-commit, alone; the
//! engine drains everything held before it returns its run.
//!
//! # Lock layout
//!
//! One lock per connection: [`ConnState`] is a [`Session`] — window,
//! staging buffers, cuts and bounded write buffer — behind one `Mutex`,
//! plus the `Condvar` its writer parks on. The session does no I/O; a
//! transition returns an [`Effect`] that `ConnState` carries out after
//! unlocking. A delivery (a flush at commit, a release at the
//! watermark) is thus one critical section: it moves the share to the
//! write buffer, applies the slow-client bound — one frame past it
//! aborts the connection, which is never buffered without bound —
//! settles the window and closes a drained session. The connection
//! table ([`Router`]) is the only other lock, taken before a session's.

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

/// What a [`Session`] transition asks of its connection, which carries
/// it out after unlocking. Ordered, so two effects combine with `max`.
#[must_use]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Effect {
    Idle,
    /// Wake the parked writer: it has frames, or its write side closed.
    Wake,
    /// The session aborted: wake the writer and shut the socket down,
    /// failing a blocked `write` and ending a blocked `read`.
    Shut,
}

/// One connection's protocol state, socket-free: the window of requests
/// admitted but not yet answered, the responses the commit stage staged
/// for them, and the bounded write buffer the writer thread drains. It
/// does no I/O and reads no clock — transitions that need the time take
/// it — and each returns the [`Effect`] its connection must carry out.
#[derive(Default)]
pub(crate) struct Session {
    /// Low half of every ticket this session issues; never zero.
    number: u32,
    /// The slow-client bound, in frames.
    cap: usize,
    /// `slots[i]` is sequence number `base + i`: the request id and
    /// admit time, `None` once resolved.
    base: u32,
    slots: VecDeque<Option<(u64, Instant)>>,
    /// Registered and not yet answered.
    outstanding: usize,
    /// The reader saw EOF: the write side closes once `outstanding` is 0.
    draining: bool,
    /// Staged response frames, and the admit time of each.
    staged: Vec<u8>,
    staged_admitted: Vec<Instant>,
    /// Durable-ack mode: sealed batches' ends, oldest first, as `(covers,
    /// bytes, frames)` — `staged[..bytes]` and `staged_admitted[..frames]`
    /// answer entries below `covers`; the rest is still committing.
    cuts: VecDeque<(u64, usize, usize)>,
    /// Encoded frames waiting for the writer thread, back to back.
    out: Vec<u8>,
    /// Frames in `out`: what the slow-client bound counts. The writer
    /// holds at most one more buffer, taken from under the bound, so a
    /// connection pins at most twice the bound; counting that one would
    /// cut off a fast client whose next burst beats the writer's `write`.
    queued: usize,
    /// Set once the write side is closing: frames are refused. A drain
    /// lets `out` flush; an abort clears it.
    closed: bool,
    /// The writer waits for frames: the transition that gives it some
    /// answers [`Effect::Wake`]; a busy writer costs no syscall.
    parked: bool,
}

impl Session {
    /// Opens window slots for a burst of request ids, all admitted at
    /// `now`, and returns the first one's ticket; each next request's is
    /// [`NEXT_TICKET`] further (wrapping). Must precede the intake submit
    /// — the commit callback may fire before the submit returns.
    pub(crate) fn register(&mut self, ids: impl Iterator<Item = u64>, now: Instant) -> u64 {
        let before = self.slots.len();
        self.slots.extend(ids.map(|id| Some((id, now))));
        self.outstanding += self.slots.len() - before;
        let first = self.base.wrapping_add(before as u32);
        (u64::from(first) << 32) | u64::from(self.number)
    }

    /// Withdraws the last `n` registered requests: their submit was
    /// refused (Busy/Gone) and the reader answers them itself.
    pub(crate) fn withdraw(&mut self, n: usize) {
        self.slots.truncate(self.slots.len() - n);
        self.outstanding -= n;
    }

    /// Stages the `Ok` response, its payload written by `resp`, to the
    /// request behind sequence number `seq`. Returns `true` when it is
    /// the first staged since the last flush or cut.
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
        self.staged_admitted.len() - self.cuts.back().map_or(0, |cut| cut.2) == 1
    }

    /// Batch seal in durable-ack mode: what was staged since the last
    /// cut may leave once the watermark reaches `covers`.
    fn cut(&mut self, covers: u64) {
        let end = (covers, self.staged.len(), self.staged_admitted.len());
        self.cuts.push_back(end);
    }

    /// Ack at commit: delivers everything staged.
    fn flush(&mut self, now: Instant, obs: &ServerObs) -> Effect {
        debug_assert!(self.cuts.is_empty(), "cut shares leave through `release`");
        self.deliver(self.staged.len(), self.staged_admitted.len(), now, obs)
    }

    /// The watermark reached `upto`: delivers the share of every batch it
    /// covers at once. A session listed by several batches released
    /// together is emptied by the first call; the rest find nothing.
    fn release(&mut self, upto: u64, now: Instant, obs: &ServerObs) -> Effect {
        let mut end = None;
        while self.cuts.front().is_some_and(|cut| cut.0 <= upto) {
            end = self.cuts.pop_front();
        }
        let Some((_, bytes, frames)) = end else {
            return Effect::Idle;
        };
        for cut in &mut self.cuts {
            cut.1 -= bytes;
            cut.2 -= frames;
        }
        self.deliver(bytes, frames, now, obs)
    }

    /// Pushes the first `frames` staged responses (`bytes` of `staged`),
    /// settles the window and closes a drained session. A refused push
    /// is no error: the connection is gone; the commit stands.
    fn deliver(&mut self, bytes: usize, frames: usize, now: Instant, obs: &ServerObs) -> Effect {
        if frames == 0 {
            return Effect::Idle;
        }
        // Every reply of a read burst shares the burst's admit instant:
        // one record per run of equal instants, weighted by the run's
        // length, leaves what one record per reply would.
        for run in self.staged_admitted[..frames].chunk_by(|a, b| a == b) {
            let waited = now.duration_since(run[0]).as_nanos() as u64;
            obs.request_ns.record_n(waited, run.len() as u64);
        }
        self.staged_admitted.drain(..frames);
        let later = self.staged.split_off(bytes);
        let share = std::mem::replace(&mut self.staged, later);
        let pushed = self.push(share, frames, obs);
        if !self.closed {
            obs.requests_ok.add(frames as u64);
        }
        self.outstanding -= frames;
        pushed.max(self.settle())
    }

    /// Queues `frames` encoded frames for the writer. Refused, quietly,
    /// once the write side is closed; one frame past the bound is a slow
    /// client — counted, and the session aborts.
    pub(crate) fn push(&mut self, bytes: Vec<u8>, frames: usize, obs: &ServerObs) -> Effect {
        if self.closed {
            return Effect::Idle;
        }
        if self.queued + frames > self.cap {
            obs.write_overflows.inc();
            return self.abort();
        }
        obs.write_pushes.inc();
        self.queued += frames;
        if self.out.is_empty() {
            self.out = bytes;
        } else {
            self.out.extend_from_slice(&bytes);
        }
        self.wake()
    }

    /// Writer-thread fetch: everything queued, as one buffer. `None` when
    /// empty — and `parked`, unless the write side closed: writer done.
    fn next_write(&mut self) -> Option<Vec<u8>> {
        if self.out.is_empty() {
            self.parked = !self.closed;
            return None;
        }
        self.queued = 0;
        Some(std::mem::take(&mut self.out))
    }

    /// The reader saw EOF: linger until every in-flight request is
    /// answered, then close the write side.
    pub(crate) fn drain(&mut self) -> Effect {
        self.draining = true;
        self.settle()
    }

    /// Closes a draining session whose last request has been answered.
    fn settle(&mut self) -> Effect {
        if self.outstanding == 0 && self.draining && !self.closed {
            self.closed = true;
            return self.wake();
        }
        Effect::Idle
    }

    /// Drops queued frames and refuses new ones.
    fn abort(&mut self) -> Effect {
        self.out.clear();
        self.closed = true;
        Effect::Shut
    }

    fn wake(&mut self) -> Effect {
        if std::mem::take(&mut self.parked) {
            Effect::Wake
        } else {
            Effect::Idle
        }
    }
}

/// A connection as its threads and the router share it: the [`Session`]
/// behind the connection's one lock, the one condvar its writer parks
/// on, and a socket handle for the effects that need one.
pub(crate) struct ConnState {
    session: Mutex<Session>,
    ready: Condvar,
    /// For `shutdown` only: the threads own their own clones. `None` for
    /// the unit tests' socket-free sessions.
    socket: Option<TcpStream>,
    obs: ServerObs,
}

impl ConnState {
    /// State for a freshly accepted connection, entered in `router` under
    /// the next number, from 1. Numbers are never reused, so a late
    /// commit cannot answer a stranger.
    pub(crate) fn attach(
        router: &Router,
        socket: Option<TcpStream>,
        cap: usize,
        obs: ServerObs,
    ) -> Arc<Self> {
        let mut conns = router.lock().unwrap();
        obs.active.add(1);
        let number = conns.len() as u32 + 1;
        let state = Arc::new(Self {
            session: Mutex::new(Session {
                number,
                cap,
                ..Session::default()
            }),
            ready: Condvar::new(),
            socket,
            obs,
        });
        conns.push(Some(Arc::clone(&state)));
        state
    }

    /// Empties this connection's slot in `router`, unpinning its socket
    /// and buffers. The writer calls this as it exits: its write side is
    /// closed, so a late commit had nowhere to deliver anyway.
    pub(crate) fn detach(&self, router: &Router) {
        let number = self.lock().number;
        router.lock().unwrap()[number as usize - 1] = None;
        self.obs.active.add(-1);
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Session> {
        self.session.lock().expect("a session holder panicked")
    }

    /// One session transition — one critical section — then its effect.
    /// Returns whether the write side is still open.
    pub(crate) fn run(&self, transition: impl FnOnce(&mut Session, &ServerObs) -> Effect) -> bool {
        let mut session = self.lock();
        let effect = transition(&mut session, &self.obs);
        let open = !session.closed;
        drop(session);
        if effect >= Effect::Wake {
            self.ready.notify_one();
        }
        if effect == Effect::Shut {
            self.shutdown(Shutdown::Both);
        }
        open
    }

    /// Abort-close: drop queued frames and shut the socket down now.
    pub(crate) fn close_abort(&self) {
        self.run(|session, _| session.abort());
    }

    /// `Both` on abort; `Read` is how `finish` stops the readers — a
    /// blocked `read` returns EOF, and the session drains.
    pub(crate) fn shutdown(&self, how: Shutdown) {
        if let Some(socket) = &self.socket {
            let _ = socket.shutdown(how);
        }
    }

    /// Writer-thread fetch: everything queued since the last call, as
    /// one buffer, or `None` once the write side is closed *and* empty.
    pub(crate) fn next_write(&self) -> Option<Vec<u8>> {
        let mut session = self.lock();
        loop {
            let bytes = session.next_write();
            if bytes.is_some() || !session.parked {
                return bytes;
            }
            session = self.ready.wait(session).expect("a session holder panicked");
        }
    }
}

/// From one ticket of a connection to its next: the sequence number is
/// the high half, so a wrap never carries into the connection number.
pub(crate) const NEXT_TICKET: u64 = 1 << 32;

/// The one connection table: ticket → connection, by number − 1. Shared
/// by the acceptor (attach), the engine thread (one lock per wave), each
/// writer thread as it exits (detach) and `finish` (shuts every read
/// half). Slots are emptied, never removed — numbers are never reused —
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

    /// One look at the watermark: releases, oldest first, every held
    /// batch it has reached — all of them as one delivery per connection.
    /// A sink without a watermark covers everything (acks then mean
    /// commit), and a batch held past `durable_wait` is released
    /// uncovered, alone: a dead store degrades to ack-at-commit rather
    /// than wedging replies. Returns how long an idle engine may wait
    /// before the next look, `None` once nothing is held.
    fn release<T>(&mut self) -> Option<Duration>
    where
        T: ConcurrentObject + ?Sized,
        S: CommitSink<T>,
    {
        if self.held.is_empty() {
            return None;
        }
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
            for conn in &conns {
                conn.run(|session, obs| session.release(upto, now, obs));
            }
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
        // The connection the previous entry answered, its session
        // locked: a shard drains as a run of one connection's tickets,
        // so the lock is taken once per run, not once per response.
        let mut run: Option<(u32, &Arc<ConnState>, MutexGuard<'_, Session>)> = None;
        for (entry, &ticket) in entries.iter().zip(tickets) {
            // The low half is the connection's number, the high half the
            // request's place in its window; `NO_TICKET` names nobody.
            let number = ticket as u32;
            if run.as_ref().map(|run| run.0) != Some(number) {
                drop(run.take()); // unlock before locking the next
                let conn = conns.get((number as usize).wrapping_sub(1));
                run = conn
                    .and_then(Option::as_ref)
                    .map(|conn| (number, conn, conn.lock()));
            }
            let Some((_, conn, session)) = &mut run else {
                continue;
            };
            if session.stage((ticket >> 32) as u32, |body| entry.resp.encode_into(body)) {
                self.staged.push(Arc::clone(conn));
            }
            self.staged_to = self.staged_to.max(entry.seq + 1);
        }
        drop(run);
        drop(conns);
        if !self.cfg.durable_acks {
            // Ack at commit: one delivery per connection the wave answers.
            let now = Instant::now();
            for conn in self.staged.drain(..) {
                conn.run(|session, obs| session.flush(now, obs));
            }
        }
    }

    fn batch_sealed(&mut self, token: &T, batch: u64) {
        // Inner first: a group-commit store posts its fsync here.
        self.inner.batch_sealed(token, batch);
        if self.cfg.durable_acks && !self.staged.is_empty() {
            // Cut the staged responses off as this batch's, and hold them.
            for conn in &self.staged {
                conn.lock().cut(self.staged_to);
            }
            self.held.push_back(Held {
                covers: self.staged_to,
                sealed: Instant::now(),
                conns: std::mem::take(&mut self.staged),
            });
            self.obs.acks_held.set(self.held.len() as i64);
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
    use std::sync::atomic::{AtomicU64, Ordering};
    use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20State};
    use tokensync_core::shared::ShardedErc20;
    use tokensync_obs::Registry;
    use tokensync_pipeline::{Pipeline, PipelineConfig};
    use tokensync_spec::ProcessId;

    use crate::wire::{decode_response, FrameDecoder};

    /// The next connection of `router`, socket-free, write bound 4
    /// frames.
    fn attach(router: &Router, obs: &ServerObs) -> Arc<ConnState> {
        ConnState::attach(router, None, 4, obs.clone())
    }

    /// Session number 1, write bound 4 frames, and its metrics.
    fn session() -> (Session, ServerObs) {
        let session = Session {
            number: 1,
            cap: 4,
            ..Session::default()
        };
        (session, ServerObs::new(&Registry::new()))
    }

    /// Pushes `frames` one-byte frames; `true` while the write side
    /// stays open.
    fn push(session: &mut Session, frames: usize, obs: &ServerObs) -> bool {
        let _ = session.push(vec![0; frames], frames, obs);
        !session.closed
    }

    /// The sequence half of a ticket wraps without carrying into the
    /// connection number, and the window follows it across the wrap.
    #[test]
    fn ticket_sequence_wraps_within_its_half() {
        let (mut s, _obs) = session();
        s.base = u32::MAX;
        let first = s.register([7, 8].into_iter(), Instant::now());
        assert_eq!(first, (u64::from(u32::MAX) << 32) | 1);
        let second = first.wrapping_add(NEXT_TICKET);
        assert_eq!(second, 1, "sequence 0 of connection 1");
        assert!(s.stage((second >> 32) as u32, |_| {}));
        assert_eq!((s.base, s.slots.len()), (u32::MAX, 2), "7 still pending");
        assert!(!s.stage((first >> 32) as u32, |_| {}));
        assert_eq!((s.base, s.slots.len()), (1, 0));
        assert_eq!(s.staged_admitted.len(), 2);
    }

    /// The slow-client ceiling: the buffer a stalled writer took plus a
    /// full queue — twice the bound — is the most a connection pins; one
    /// frame more disconnects it, counted once.
    #[test]
    fn stalled_writer_plus_full_queue_is_the_ceiling() {
        let (mut s, obs) = session();
        // One byte stands for one frame.
        assert!(push(&mut s, 3, &obs));
        assert!(push(&mut s, 1, &obs), "the queue fills to its bound");
        // The writer takes everything queued and stalls in its `write`.
        assert_eq!(s.next_write().map(|held| held.len()), Some(4));
        assert!(push(&mut s, 4, &obs), "the bound counts the queue only");
        assert_eq!(obs.write_overflows.get(), 0);
        assert_eq!(
            s.push(vec![0], 1, &obs),
            Effect::Shut,
            "2 × bound + 1 frames"
        );
        assert_eq!(obs.write_overflows.get(), 1);
        // The connection is gone: queued frames dropped, pushes refused.
        assert_eq!(s.push(vec![0], 1, &obs), Effect::Idle);
        assert_eq!(obs.write_overflows.get(), 1);
        assert_eq!(s.next_write(), None);
        assert!(!s.parked, "a closed write side does not park the writer");
    }

    /// The delivery that answers the last outstanding request of a
    /// draining session also closes its write side — one transition, one
    /// wake-up for the parked writer, which then flushes and is done.
    #[test]
    fn last_delivery_of_a_draining_session_closes_it() {
        let (mut s, obs) = session();
        assert_eq!(s.next_write(), None);
        assert!(s.parked, "the writer waits for frames");
        let ticket = s.register([5, 6].into_iter(), Instant::now());
        assert!(s.stage((ticket >> 32) as u32, |_| {}));
        assert_eq!(s.drain(), Effect::Idle, "request 6 is still in flight");
        assert_eq!(s.flush(Instant::now(), &obs), Effect::Wake);
        assert!(!s.closed, "one request answered, one outstanding");
        assert!(s.next_write().is_some());

        assert_eq!(s.next_write(), None);
        s.stage(((ticket >> 32) + 1) as u32, |_| {});
        assert_eq!(s.flush(Instant::now(), &obs), Effect::Wake);
        assert!(s.closed && s.outstanding == 0);
        assert_eq!(obs.requests_ok.get(), 2, "the closing delivery is written");
        assert!(s.next_write().is_some());
        assert_eq!(s.next_write(), None);
        assert!(!s.parked);
    }

    /// `request_ns` holds what one record per reply would: three bursts
    /// admitted at distinct instants, the middle one split across two
    /// cuts and its halves staged apart, released at two instants.
    #[test]
    fn request_latency_matches_one_record_per_reply() {
        let (mut s, obs) = session();
        s.cap = 64;
        let t0 = Instant::now();
        let at = |micros| t0 + Duration::from_micros(micros);
        // Sequence numbers 0..=2, 3..=4 and 5..=8.
        s.register(1..=3, at(0));
        s.register(4..=5, at(7));
        s.register(6..=9, at(31));
        let reference = tokensync_obs::Histogram::new();
        let replies = |s: &mut Session, seqs: &[u32], covers: u64, now: Instant| {
            for &seq in seqs {
                s.stage(seq, |_| {});
                let admitted = at([0, 0, 0, 7, 7, 31, 31, 31, 31][seq as usize]);
                reference.record(now.duration_since(admitted).as_nanos() as u64);
            }
            s.cut(covers);
        };
        let (first, second) = (at(100), at(2_500));
        replies(&mut s, &[0, 1, 2, 3], 1, first);
        replies(&mut s, &[5, 4, 6, 7, 8], 2, second);
        assert_eq!(s.release(1, first, &obs), Effect::Idle);
        assert_eq!(s.release(2, second, &obs), Effect::Idle);
        assert_eq!(s.outstanding, 0);
        // Count, sum, max and every quantile.
        assert_eq!(reference.count(), 9);
        assert_eq!(obs.request_ns.snapshot(), reference.snapshot());
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
                tickets.push(self.conns[conn].lock().register([id].into_iter(), now));
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

        /// The request ids answered in connection `conn`'s write buffer,
        /// which is emptied.
        fn delivered(&self, conn: usize) -> Vec<u64> {
            let mut dec = FrameDecoder::new();
            dec.feed(&self.conns[conn].lock().next_write().unwrap_or_default());
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
    /// dropped, its window still settles, the other
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
        assert_eq!(rig.conns[0].lock().outstanding, 0);
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
        let ticket = rig.conns[0]
            .lock()
            .register([id].into_iter(), Instant::now());
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
