//! One machine of the replicated cluster: a [`ReplicaNode`] is either
//! the **primary** (serves writes through the pipeline into its durable
//! [`Store`], tails its own WAL and ships the records) or a
//! **follower** (validates, appends, replays and acknowledges shipped
//! records into a live read-serving object).
//!
//! The protocol in one paragraph: every WAL segment is stamped with an
//! *epoch* (a fencing token that only grows). The primary streams
//! records per follower with a bounded in-flight window; followers send
//! cumulative `Ack`s of their fsynced position; timeouts trigger
//! go-back-N retransmission with exponential backoff, and a follower
//! that stops answering is marked down (service degrades, never
//! wedges). A follower whose position fell out of log retention — or
//! whose log diverged across a failover — is wiped and re-based from a
//! shipped snapshot, then caught up from the log suffix. Any message
//! stamped with a stale epoch is answered `Fenced`, and a fenced
//! primary demotes itself; [`Store::set_epoch`] makes adoption durable
//! *before* anything of the new reign is acknowledged.
//!
//! Every node owns its log through a [`Store`], so every fsync runs on
//! the store's durability thread. A follower validates, appends and
//! replays a shipped record, posts its fsync and acknowledges
//! [`ACK_AFTER`](crate::msg) ticks later what its durable watermark
//! covers — appends landing inside that window share one fsync. Under
//! [`AckMode::Quorum`] the primary never waits in `serve`: its batch
//! seals posted the local fsync, and an incoming `Ack` waits for it
//! only before the claim moves. The primary's and both followers'
//! fsyncs of a round thus overlap, and a round waits on one of them
//! instead of three in a row.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use tokensync_core::codec::{Codec, StateCodec};
use tokensync_net::{Context, Node};
use tokensync_pipeline::{run_script_with_sink, PipelineRun};
use tokensync_spec::ProcessId;
use tokensync_store::wal::FRAME_LEN;
use tokensync_store::{
    decode_commits, install_snapshot, recover, Restorable, Store, StoreError, WalCursor,
};

use crate::msg::{AckMode, ReplicaConfig, ReplicaMsg, ACK_AFTER, MAX_BACKOFF, RETRY_AFTER, WINDOW};

/// Replication-health counters of a primary's reign (reset on
/// promotion — they describe the current epoch's leadership, the
/// natural scope: a new primary starts with a clean slate of peers).
///
/// [`Cluster::pump`](crate::Cluster::pump) publishes these into a
/// metrics [`Registry`](tokensync_obs::Registry) — see
/// [`Cluster::publish_obs`](crate::Cluster::publish_obs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Timed-out transmissions resent (go-back-N rewinds and snapshot
    /// resends alike).
    pub retransmissions: u64,
    /// Peers marked down after exhausting their retry budget.
    pub down_marks: u64,
    /// Snapshots shipped to re-base lagging or divergent followers.
    pub snapshot_ships: u64,
    /// Repeated `Announce` invitations to peers that never introduced
    /// themselves this reign.
    pub reinvites: u64,
}

/// Per-follower replication state on the primary.
struct Peer {
    /// Introduced itself (Hello/Ack) under a compatible epoch.
    active: bool,
    /// Exhausted its retries; revives on its next Hello/Ack.
    down: bool,
    /// Cumulative acknowledged position (fsynced on the follower).
    acked: u64,
    /// Tailing cursor positioned past the last shipped record.
    cursor: Option<WalCursor>,
    /// End sequence number of each unacknowledged `Append`, send order.
    inflight: VecDeque<u64>,
    /// Watermark of an unacknowledged shipped snapshot.
    snapshot_pending: Option<u64>,
    /// Time of the oldest outstanding transmission.
    sent_at: u64,
    /// Current retransmission timeout.
    backoff: u64,
    /// Consecutive unanswered retransmissions.
    retries: u32,
}

impl Peer {
    fn idle(backoff: u64) -> Self {
        Self {
            active: false,
            down: false,
            acked: 0,
            cursor: None,
            inflight: VecDeque::new(),
            snapshot_pending: None,
            sent_at: 0,
            backoff,
            retries: 0,
        }
    }

    /// Whether an unacknowledged transmission is outstanding.
    fn outstanding(&self) -> bool {
        self.snapshot_pending.is_some() || !self.inflight.is_empty()
    }
}

struct Primary<T: Restorable> {
    store: Store<T>,
    object: T,
    epoch: u64,
    /// Log position at which this epoch began — the fencing boundary:
    /// an old-epoch log longer than this has a divergent suffix.
    epoch_start_seq: u64,
    /// Highest position both locally fsynced and claimed: under `Async`
    /// every served run's, under `Quorum` only what a quorum of peers
    /// acknowledged too.
    sealed_seq: u64,
    peers: Vec<Peer>,
    /// Whether a self-addressed Pump timer is already in flight.
    pump_armed: bool,
    /// Replication-health counters of this reign.
    stats: ReplicationStats,
}

struct Follower<T: Restorable> {
    /// The log, its epoch and its durable watermark.
    store: Store<T>,
    object: T,
    leader: Option<usize>,
    /// Whether a [`ReplicaMsg::Flush`] timer is in flight.
    flush_armed: bool,
}

impl<T> Follower<T>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    fn new(store: Store<T>, object: T, leader: Option<usize>) -> Self {
        Self {
            store,
            object,
            leader,
            flush_armed: false,
        }
    }

    fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// The cumulative acknowledgement of everything appended, once it
    /// is durable (the flush mostly waits on fsyncs the appends already
    /// posted); `None` if the store latched a failure — no ack ever
    /// covers a record past it. Waiting first keeps the message, and so
    /// a seeded run's trace, independent of when an fsync lands.
    fn ack(&mut self) -> Option<ReplicaMsg> {
        self.store.flush().ok()?;
        Some(ReplicaMsg::Ack {
            epoch: self.epoch(),
            next_seq: self.store.next_seq(),
        })
    }

    /// An introduction. The primary counts its position as fsynced, so
    /// every appended record is made durable first; a store whose fsync
    /// failed introduces itself at its frozen watermark.
    fn hello(&mut self) -> ReplicaMsg {
        let _ = self.store.flush();
        ReplicaMsg::Hello {
            epoch: self.epoch(),
            next_seq: self.store.durable_seq(),
        }
    }
}

enum Role<T: Restorable> {
    Primary(Primary<T>),
    Follower(Follower<T>),
    /// Transient placeholder while files are being reopened; never
    /// observable between messages.
    Rebooting,
}

/// One replica: a [`Node`] owning a store directory. Create the initial
/// cluster with [`ReplicaNode::create_primary`] /
/// [`ReplicaNode::create_follower`] and drive it inside a
/// [`SimNet`](tokensync_net::SimNet) (or use
/// [`Cluster`](crate::Cluster), which wires all of this up).
pub struct ReplicaNode<T: Restorable> {
    dir: PathBuf,
    cfg: ReplicaConfig,
    /// Cluster size (fixed membership).
    n: usize,
    /// This node's id; set by `on_start`, kept across crashes.
    id: usize,
    role: Role<T>,
}

impl<T> ReplicaNode<T>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    /// Initializes the founding primary of an `n`-node cluster in `dir`.
    ///
    /// # Errors
    ///
    /// As [`Store::create`].
    pub fn create_primary(
        dir: &Path,
        genesis: &T::State,
        cfg: ReplicaConfig,
        n: usize,
    ) -> Result<Self, StoreError> {
        let store = Store::create(dir, genesis, cfg.store)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            cfg,
            n,
            id: 0,
            role: Role::Primary(Primary {
                store,
                object: T::restore(genesis.clone()),
                epoch: 0,
                epoch_start_seq: 0,
                sealed_seq: 0,
                peers: (0..n).map(|_| Peer::idle(RETRY_AFTER)).collect(),
                pump_armed: false,
                stats: ReplicationStats::default(),
            }),
        })
    }

    /// Initializes a follower of an `n`-node cluster in `dir` (genesis
    /// snapshot + empty log; it introduces itself with a `Hello` on
    /// start).
    ///
    /// # Errors
    ///
    /// As [`Store::create`].
    pub fn create_follower(
        dir: &Path,
        genesis: &T::State,
        cfg: ReplicaConfig,
        n: usize,
    ) -> Result<Self, StoreError> {
        let store = Store::create(dir, genesis, cfg.store)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            cfg,
            n,
            id: usize::MAX,
            role: Role::Follower(Follower::new(store, T::restore(genesis.clone()), None)),
        })
    }

    /// This node's store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether this node currently leads.
    pub fn is_primary(&self) -> bool {
        matches!(self.role, Role::Primary(_))
    }

    /// The node's current replication epoch.
    pub fn epoch(&self) -> u64 {
        match &self.role {
            Role::Primary(p) => p.epoch,
            Role::Follower(f) => f.epoch(),
            Role::Rebooting => unreachable!("transient role observed"),
        }
    }

    /// First sequence number this node's log does not hold. On a
    /// follower the durable watermark trails it while an fsync is
    /// pending; a promotion makes the whole log durable.
    pub fn next_seq(&self) -> u64 {
        self.store().next_seq()
    }

    /// This node's own durable watermark, primary or follower: every
    /// operation below it is fsynced on this node's disk.
    pub fn local_durable_seq(&self) -> u64 {
        self.store().durable_seq()
    }

    fn store(&self) -> &Store<T> {
        match &self.role {
            Role::Primary(p) => &p.store,
            Role::Follower(f) => &f.store,
            Role::Rebooting => unreachable!("transient role observed"),
        }
    }

    /// Snapshot of the live served object (read path — works on primary
    /// and follower alike; follower reads trail by replication lag).
    pub fn state(&self) -> T::State {
        self.object().snapshot()
    }

    /// The live served object.
    pub fn object(&self) -> &T {
        match &self.role {
            Role::Primary(p) => &p.object,
            Role::Follower(f) => &f.object,
            Role::Rebooting => unreachable!("transient role observed"),
        }
    }

    /// The cumulative position follower `i` has acknowledged (primary
    /// only; `None` on a follower).
    pub fn peer_acked(&self, i: usize) -> Option<u64> {
        match &self.role {
            Role::Primary(p) => Some(p.peers[i].acked),
            _ => None,
        }
    }

    /// This reign's replication-health counters (primary only).
    pub fn replication_stats(&self) -> Option<ReplicationStats> {
        match &self.role {
            Role::Primary(p) => Some(p.stats),
            _ => None,
        }
    }

    /// Per-peer acknowledgement lag, `primary next_seq − peer acked`
    /// (primary only; the primary's own slot reads 0). A peer that
    /// never introduced itself this reign shows the full log length —
    /// exactly the catch-up debt it owes.
    pub fn follower_lags(&self) -> Option<Vec<u64>> {
        match &self.role {
            Role::Primary(p) => {
                let head = p.store.next_seq();
                Some(
                    p.peers
                        .iter()
                        .enumerate()
                        .map(|(i, peer)| {
                            if i == self.id {
                                0
                            } else {
                                head.saturating_sub(peer.acked)
                            }
                        })
                        .collect(),
                )
            }
            _ => None,
        }
    }

    /// The highest position this primary **claims durable** under its
    /// [`AckMode`]: with `Async` the locally sealed position, with
    /// `Quorum` the largest position a majority of the cluster
    /// (counting the primary) has fsynced. On a follower: its store's
    /// durable watermark, as [`ReplicaNode::local_durable_seq`].
    pub fn durable_seq(&self) -> u64 {
        match &self.role {
            Role::Primary(p) if self.claims_locally() => p.sealed_seq,
            Role::Primary(p) => p.sealed_seq.min(p.quorum_acked(self.id, self.n)),
            _ => self.local_durable_seq(),
        }
    }

    /// Whether the primary's own fsync is its whole durability claim:
    /// under `Async`, or in a cluster of one.
    fn claims_locally(&self) -> bool {
        self.cfg.ack_mode == AckMode::Async || self.n <= 1
    }

    /// Serves a script through the pipeline into the durable store —
    /// the write path, callable only on the primary. Replication of the
    /// new records happens on the next `Pump`/`Ack` round
    /// ([`Cluster::pump`](crate::Cluster::pump) drives it).
    ///
    /// # Panics
    ///
    /// Panics when called on a follower, or if the store's write path
    /// failed (the commit-sink interface parks errors).
    pub fn serve(&mut self, script: &[(ProcessId, T::Op)]) -> PipelineRun<T::Op, T::Resp> {
        let claims_locally = self.claims_locally();
        let Role::Primary(p) = &mut self.role else {
            panic!("serve() on a non-primary replica");
        };
        let run = run_script_with_sink(&p.object, script, &self.cfg.pipeline, &mut p.store);
        if let Some(e) = p.store.error() {
            panic!("primary store write path failed: {e}");
        }
        // Every batch seal posted its fsync. Where the local fsync is
        // the claim itself, wait for it here; under a quorum it runs
        // while the followers work, and `on_ack` waits for it only
        // before the claim moves past it.
        if claims_locally {
            if let Err(e) = p.store.flush() {
                panic!("primary store write path failed: {e}");
            }
            p.sealed_seq = p.sealed_seq.max(p.store.durable_seq());
        }
        run
    }

    /// Promotes this follower to primary for `epoch` — the failover
    /// control-plane step. Durably fences the log at the new epoch and
    /// returns the epoch's start position (for the `Announce`
    /// broadcast). The caller picks *which* follower deterministically:
    /// the longest valid log, lowest id on ties.
    ///
    /// # Panics
    ///
    /// Panics when called on a node that is already primary.
    pub fn promote(&mut self, epoch: u64) -> u64 {
        let role = std::mem::replace(&mut self.role, Role::Rebooting);
        let Role::Follower(f) = role else {
            panic!("promote() on a non-follower replica");
        };
        let Follower {
            mut store, object, ..
        } = f;
        // Everything on the promoted log is made locally durable before
        // the fence, so the epoch starts at a durable position.
        store.flush().expect("make the promoted log durable");
        store
            .set_epoch(epoch)
            .expect("fence the log at the new epoch");
        let start = store.next_seq();
        self.role = Role::Primary(Primary {
            object,
            epoch,
            epoch_start_seq: start,
            sealed_seq: start,
            peers: (0..self.n).map(|_| Peer::idle(RETRY_AFTER)).collect(),
            pump_armed: false,
            stats: ReplicationStats::default(),
            store,
        });
        start
    }

    /// The epoch if this node is primary, else `None` — the handler
    /// dispatch test (followers and primaries answer most messages
    /// differently).
    fn primary_epoch(&self) -> Option<u64> {
        match &self.role {
            Role::Primary(p) => Some(p.epoch),
            _ => None,
        }
    }

    /// Discards all volatile state and rebuilds a follower from the
    /// directory alone — machine loss, and the demotion path of a
    /// fenced primary.
    fn reload_as_follower(&mut self) {
        self.role = Role::Rebooting; // drop open handles first
        let rec = recover::<T>(&self.dir).expect("recover replica from disk");
        let store = Store::open(&self.dir, self.cfg.store).expect("reopen store after recovery");
        debug_assert_eq!(store.next_seq(), rec.next_seq, "recovery/wal position skew");
        debug_assert_eq!(store.epoch(), rec.epoch, "recovery/wal epoch skew");
        self.role = Role::Follower(Follower::new(store, rec.object, None));
    }

    /// Introduces this follower to every other node.
    fn say_hello(&mut self, ctx: &mut Context<ReplicaMsg>) {
        let Role::Follower(f) = &mut self.role else {
            return;
        };
        let msg = f.hello();
        for dst in 0..ctx.n() {
            if dst != ctx.me() {
                ctx.send(dst, msg.clone());
            }
        }
    }

    /// A message stamped with a higher epoch reached this primary: the
    /// cluster moved on, so demote to follower and re-introduce.
    fn demote_and_hello(&mut self, ctx: &mut Context<ReplicaMsg>) {
        self.reload_as_follower();
        self.say_hello(ctx);
    }

    // ── primary message handlers ───────────────────────────────────────

    fn on_hello(&mut self, from: usize, epoch: u64, next_seq: u64, ctx: &mut Context<ReplicaMsg>) {
        let Some(my_epoch) = self.primary_epoch() else {
            return; // followers ignore introductions
        };
        if epoch > my_epoch {
            self.demote_and_hello(ctx);
            return;
        }
        let (now, me, n) = (ctx.time(), self.id, self.n);
        let quorum = !self.claims_locally();
        let Role::Primary(p) = &mut self.role else {
            unreachable!();
        };
        // The re-base decision. Same epoch, or an old-epoch log that is
        // a prefix of this epoch's start: its bytes are ours, stream
        // from where it stands. An old-epoch log *past* the epoch start
        // has a divergent suffix: wipe it with a snapshot.
        let prev_acked = p.peers[from].acked;
        let peer = &mut p.peers[from];
        *peer = Peer::idle(RETRY_AFTER);
        peer.active = true;
        if epoch == p.epoch || next_seq <= p.epoch_start_seq {
            // Both positions are fsynced truths about the peer's log, so
            // the max keeps the durability claim monotone even if an old
            // duplicated Hello arrives late.
            peer.acked = prev_acked.max(next_seq);
            p.stream_to(from, now, ctx);
        } else {
            p.ship_snapshot(from, now, ctx);
        }
        if quorum {
            p.seal_quorum(me, n);
        }
        p.arm_pump(me, ctx);
    }

    fn on_ack(&mut self, from: usize, epoch: u64, next_seq: u64, ctx: &mut Context<ReplicaMsg>) {
        let Some(my_epoch) = self.primary_epoch() else {
            return; // followers ignore acks
        };
        if epoch > my_epoch {
            self.demote_and_hello(ctx);
            return;
        }
        if epoch < my_epoch {
            // A follower still acking its old reign: re-base it, same
            // decision as a Hello.
            self.on_hello(from, epoch, next_seq, ctx);
            return;
        }
        let (now, me, n) = (ctx.time(), self.id, self.n);
        let quorum = !self.claims_locally();
        let Role::Primary(p) = &mut self.role else {
            unreachable!();
        };
        let peer = &mut p.peers[from];
        peer.active = true;
        peer.down = false;
        if peer.snapshot_pending.is_some_and(|w| next_seq >= w) {
            peer.snapshot_pending = None;
        }
        if next_seq > peer.acked {
            peer.acked = next_seq;
            while peer.inflight.front().is_some_and(|&end| end <= next_seq) {
                peer.inflight.pop_front();
            }
            peer.retries = 0;
            peer.backoff = RETRY_AFTER;
            peer.sent_at = now;
        }
        if quorum {
            p.seal_quorum(me, n);
        }
        p.stream_to(from, now, ctx);
        p.arm_pump(me, ctx);
    }

    fn on_pump(&mut self, ctx: &mut Context<ReplicaMsg>) {
        let cfg = self.cfg;
        let now = ctx.time();
        let me = self.id;
        let Role::Primary(p) = &mut self.role else {
            return;
        };
        p.pump_armed = false;
        for dst in 0..p.peers.len() {
            if dst == me || p.peers[dst].down {
                continue;
            }
            if !p.peers[dst].active {
                // The peer never introduced itself this reign — its
                // Hello (or our Announce) was lost, or it is dead.
                // Re-invite with the same bounded retry/backoff budget
                // as retransmission, marking it down when exhausted.
                let peer = &mut p.peers[dst];
                if peer.retries > 0 && now.saturating_sub(peer.sent_at) < peer.backoff {
                    continue;
                }
                peer.retries += 1;
                if peer.retries > cfg.max_retries {
                    peer.down = true;
                    p.stats.down_marks += 1;
                    continue;
                }
                peer.backoff = (peer.backoff * 2).min(MAX_BACKOFF);
                peer.sent_at = now;
                p.stats.reinvites += 1;
                ctx.send(
                    dst,
                    ReplicaMsg::Announce {
                        epoch: p.epoch,
                        start_seq: p.epoch_start_seq,
                    },
                );
                continue;
            }
            if p.peers[dst].outstanding() {
                if now.saturating_sub(p.peers[dst].sent_at) < p.peers[dst].backoff {
                    continue; // still within the timeout
                }
                let peer = &mut p.peers[dst];
                peer.retries += 1;
                if peer.retries > cfg.max_retries {
                    // Degrade: stop retransmitting to a silent follower;
                    // the primary keeps serving, the peer revives on its
                    // next Hello/Ack. Drop the cursor so a dead peer
                    // stops pinning old segments against GC.
                    peer.down = true;
                    peer.cursor = None;
                    peer.inflight.clear();
                    p.stats.down_marks += 1;
                    continue;
                }
                peer.backoff = (peer.backoff * 2).min(MAX_BACKOFF);
                peer.sent_at = now;
                p.stats.retransmissions += 1;
                let resend_snapshot = peer.snapshot_pending.is_some();
                if resend_snapshot {
                    p.ship_snapshot(dst, now, ctx);
                } else {
                    // Go-back-N: rewind to the cumulative ack.
                    p.peers[dst].cursor = None;
                    p.peers[dst].inflight.clear();
                    p.stream_to(dst, now, ctx);
                }
            } else {
                p.stream_to(dst, now, ctx);
            }
        }
        p.arm_pump(me, ctx);
    }

    fn on_fenced(&mut self, _from: usize, epoch: u64, ctx: &mut Context<ReplicaMsg>) {
        if self.primary_epoch().is_some_and(|mine| epoch > mine) {
            self.demote_and_hello(ctx);
        }
    }

    // ── follower message handlers ──────────────────────────────────────

    fn on_append(
        &mut self,
        from: usize,
        epoch: u64,
        first_seq: u64,
        frame: Vec<u8>,
        ctx: &mut Context<ReplicaMsg>,
    ) {
        if let Some(my_epoch) = self.primary_epoch() {
            // Two primaries: the lower-epoch one is stale and must yield.
            if epoch > my_epoch {
                self.demote_and_hello(ctx);
            } else {
                ctx.send(from, ReplicaMsg::Fenced { epoch: my_epoch });
            }
            return;
        }
        let Role::Follower(f) = &mut self.role else {
            unreachable!();
        };
        if epoch < f.epoch() {
            ctx.send(from, ReplicaMsg::Fenced { epoch: f.epoch() });
            return;
        }
        if epoch > f.epoch() {
            if first_seq <= f.store.next_seq() {
                // The new reign's log covers ours: our log is a prefix
                // of committed history, adoption is safe. Fence durably
                // before acknowledging anything of the new reign.
                f.store.set_epoch(epoch).expect("adopt epoch");
            } else {
                // Cannot prove our log is a prefix; ask to be re-based
                // instead of guessing.
                ctx.send(from, f.hello());
                return;
            }
        }
        f.leader = Some(from);
        if first_seq != f.store.next_seq() {
            // Duplicate (behind us) or gap (ahead of us): either way,
            // re-ack our cumulative position; the primary rewinds to it
            // on timeout (go-back-N) or drops the duplicate range.
            if let Some(ack) = f.ack() {
                ctx.send(from, ack);
            }
            return;
        }
        // Exact continuation: decode for replay, append the raw bytes
        // (CRC + continuity re-validated there; the append posts its
        // fsync), replay the frame through the live object in one batch
        // verifying every recorded response. The ack waits for the
        // fsync, after the group-commit window.
        let payload = frame.get(FRAME_LEN..).unwrap_or_default();
        let Ok(entries) = decode_commits::<T::Op, T::Resp>(payload) else {
            return; // short or undecodable payload: no ack, sender retries
        };
        if f.store.append_frames(&frame).is_err() {
            return; // invalid frame bytes or a failed write: no ack
        }
        let (ops, logged): (Vec<_>, Vec<_>) = entries
            .into_iter()
            .map(|e| ((e.caller, e.op), (e.seq, e.resp)))
            .unzip();
        let resps = f.object.apply_batch(&ops);
        for (resp, (seq, logged)) in resps.iter().zip(&logged) {
            assert!(resp == logged, "replicated replay diverged at seq {seq}");
        }
        if !f.flush_armed {
            f.flush_armed = true;
            ctx.send_after(ACK_AFTER, ReplicaMsg::Flush);
        }
    }

    /// The group-commit window closed: wait for the fsyncs the window's
    /// appends posted (coalesced by the store's durability thread, and
    /// running since the first of them), then ack what they made
    /// durable.
    fn on_flush(&mut self, ctx: &mut Context<ReplicaMsg>) {
        let Role::Follower(f) = &mut self.role else {
            return; // promoted since: the promotion made the log durable
        };
        f.flush_armed = false;
        if let (Some(leader), Some(ack)) = (f.leader, f.ack()) {
            ctx.send(leader, ack);
        }
    }

    fn on_snapshot(
        &mut self,
        from: usize,
        epoch: u64,
        watermark: u64,
        state: Vec<u8>,
        ctx: &mut Context<ReplicaMsg>,
    ) {
        if let Some(my_epoch) = self.primary_epoch() {
            if epoch > my_epoch {
                self.demote_and_hello(ctx);
            } else {
                ctx.send(from, ReplicaMsg::Fenced { epoch: my_epoch });
            }
            return;
        }
        {
            let Role::Follower(f) = &mut self.role else {
                unreachable!();
            };
            if epoch < f.epoch() {
                ctx.send(from, ReplicaMsg::Fenced { epoch: f.epoch() });
                return;
            }
            if epoch == f.epoch() && watermark <= f.store.next_seq() {
                // Stale duplicate: our same-epoch log already covers the
                // watermark; installing would discard progress.
                if let Some(ack) = f.ack() {
                    ctx.send(from, ack);
                }
                return;
            }
        }
        let mut input = state.as_slice();
        let Ok(decoded) = <T::State as Codec>::decode(&mut input) else {
            return; // undecodable state: no ack, sender retries
        };
        if !input.is_empty() {
            return; // trailing bytes: not a state we understand
        }
        // Wipe and re-base: delete the divergent/lagging store
        // wholesale, install the shipped state as the new log floor,
        // and fence the fresh log at the shipping epoch.
        self.role = Role::Rebooting; // close handles before the wipe
        std::fs::remove_dir_all(&self.dir).expect("wipe replica directory");
        install_snapshot(&self.dir, watermark, &decoded).expect("install shipped snapshot");
        let mut store =
            Store::open(&self.dir, self.cfg.store).expect("open store at the shipped watermark");
        store.set_epoch(epoch).expect("fence the re-based log");
        // The installed snapshot is durable: the store opens with its
        // watermark as the durable position.
        ctx.send(
            from,
            ReplicaMsg::Ack {
                epoch,
                next_seq: watermark,
            },
        );
        self.role = Role::Follower(Follower::new(store, T::restore(decoded), Some(from)));
    }

    fn on_announce(
        &mut self,
        from: usize,
        epoch: u64,
        start_seq: u64,
        ctx: &mut Context<ReplicaMsg>,
    ) {
        if let Some(my_epoch) = self.primary_epoch() {
            if epoch > my_epoch {
                self.demote_and_hello(ctx);
            } else {
                ctx.send(from, ReplicaMsg::Fenced { epoch: my_epoch });
            }
            return;
        }
        let Role::Follower(f) = &mut self.role else {
            unreachable!();
        };
        if epoch < f.epoch() {
            ctx.send(from, ReplicaMsg::Fenced { epoch: f.epoch() });
            return;
        }
        if epoch > f.epoch() && f.store.next_seq() <= start_seq {
            // Our log is a prefix of the new reign: adopt it durably. (A
            // longer log keeps its old epoch; the Hello below carries it
            // and the new primary snapshot-ships us.)
            f.store.set_epoch(epoch).expect("adopt announced epoch");
        }
        if epoch == f.epoch() {
            f.leader = Some(from);
        }
        ctx.send(from, f.hello());
    }
}

impl<T> Primary<T>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    /// The largest position a majority of the `n`-node cluster holds
    /// fsynced, counting this primary (`me`) as holding everything.
    fn quorum_acked(&self, me: usize, n: usize) -> u64 {
        let mut acked: Vec<u64> = (0..n)
            .filter(|&i| i != me)
            .map(|i| self.peers[i].acked)
            .collect();
        acked.sort_unstable_by(|a, b| b.cmp(a));
        acked.get((n / 2).saturating_sub(1)).copied().unwrap_or(0)
    }

    /// Moves the Quorum claim up to what a quorum of peers acknowledged,
    /// once the local store holds it fsynced too. The local fsync was
    /// posted at the batch seal and ran while the followers worked, so
    /// this wait rarely blocks; a latched fsync failure freezes the
    /// claim. Only for a `Quorum` primary with peers: where the claim
    /// is local, `serve` seals it.
    fn seal_quorum(&mut self, me: usize, n: usize) {
        let candidate = self.quorum_acked(me, n).min(self.store.next_seq());
        if candidate > self.sealed_seq && self.store.wait_durable(candidate).is_ok() {
            self.sealed_seq = candidate;
        }
    }

    /// Streams records to `dst` from its cumulative ack, up to the
    /// in-flight window; falls back to snapshot shipping when the
    /// peer's position fell out of log retention.
    fn stream_to(&mut self, dst: usize, now: u64, ctx: &mut Context<ReplicaMsg>) {
        {
            let peer = &self.peers[dst];
            if !peer.active || peer.down || peer.snapshot_pending.is_some() {
                return;
            }
        }
        if self.peers[dst].cursor.is_none() {
            let from_seq = self.peers[dst].acked;
            match self.store.cursor(from_seq) {
                Ok(cursor) => self.peers[dst].cursor = Some(cursor),
                Err(StoreError::OutOfRetention { .. }) => {
                    // GC outran this follower: re-base it from a snapshot
                    // instead of a log suffix we no longer hold.
                    self.ship_snapshot(dst, now, ctx);
                    return;
                }
                Err(e) => panic!("primary cursor open failed: {e}"),
            }
        }
        let epoch = self.epoch;
        let peer = &mut self.peers[dst];
        let Peer {
            cursor: Some(cursor),
            inflight,
            sent_at,
            ..
        } = peer
        else {
            return;
        };
        while inflight.len() < WINDOW {
            match cursor.next_record() {
                Ok(Some(record)) => {
                    if inflight.is_empty() {
                        *sent_at = now;
                    }
                    inflight.push_back(record.first_seq + u64::from(record.count));
                    ctx.send(
                        dst,
                        ReplicaMsg::Append {
                            epoch,
                            first_seq: record.first_seq,
                            count: record.count,
                            frame: record.frame,
                        },
                    );
                }
                Ok(None) => break, // caught up to the live tail
                Err(e) => panic!("primary cursor read failed: {e}"),
            }
        }
    }

    /// Publishes a snapshot at the current position and ships it to
    /// `dst` — graceful degradation for a follower that is too far
    /// behind (out of retention) or whose log diverged across a
    /// failover. The primary keeps serving throughout.
    fn ship_snapshot(&mut self, dst: usize, now: u64, ctx: &mut Context<ReplicaMsg>) {
        self.stats.snapshot_ships += 1;
        let state = self.object.snapshot();
        self.store
            .publish_snapshot(&state)
            .expect("publish snapshot for shipping");
        let watermark = self.store.snapshot_watermark();
        let peer = &mut self.peers[dst];
        peer.active = true;
        peer.cursor = None;
        peer.inflight.clear();
        peer.snapshot_pending = Some(watermark);
        peer.sent_at = now;
        ctx.send(
            dst,
            ReplicaMsg::Snapshot {
                epoch: self.epoch,
                watermark,
                state: state.encode(),
            },
        );
    }

    /// Keeps exactly one retransmission timer in flight while any peer
    /// has outstanding unacknowledged work.
    fn arm_pump(&mut self, me: usize, ctx: &mut Context<ReplicaMsg>) {
        if self.pump_armed {
            return;
        }
        // Keep the (single) timer chain alive while any peer has
        // unacked traffic in flight *or* still owes us its introduction
        // — the invite itself needs retrying on a lossy network.
        if self
            .peers
            .iter()
            .enumerate()
            .any(|(i, p)| i != me && !p.down && (!p.active || p.outstanding()))
        {
            self.pump_armed = true;
            ctx.send_after(RETRY_AFTER, ReplicaMsg::Pump);
        }
    }
}

impl<T> Node for ReplicaNode<T>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    type Msg = ReplicaMsg;

    fn on_start(&mut self, ctx: &mut Context<ReplicaMsg>) {
        self.id = ctx.me();
        self.say_hello(ctx);
    }

    fn on_message(&mut self, from: usize, msg: ReplicaMsg, ctx: &mut Context<ReplicaMsg>) {
        match msg {
            ReplicaMsg::Pump => self.on_pump(ctx),
            ReplicaMsg::Flush => self.on_flush(ctx),
            ReplicaMsg::Append {
                epoch,
                first_seq,
                frame,
                ..
            } => self.on_append(from, epoch, first_seq, frame, ctx),
            ReplicaMsg::Ack { epoch, next_seq } => self.on_ack(from, epoch, next_seq, ctx),
            ReplicaMsg::Snapshot {
                epoch,
                watermark,
                state,
            } => self.on_snapshot(from, epoch, watermark, state, ctx),
            ReplicaMsg::Hello { epoch, next_seq } => self.on_hello(from, epoch, next_seq, ctx),
            ReplicaMsg::Announce { epoch, start_seq } => {
                self.on_announce(from, epoch, start_seq, ctx)
            }
            ReplicaMsg::Fenced { epoch } => self.on_fenced(from, epoch, ctx),
        }
    }

    /// Machine loss: everything volatile is gone; what disk holds is
    /// what the node is. Rebuild a follower by full recovery and rejoin.
    fn on_restart(&mut self, ctx: &mut Context<ReplicaMsg>) {
        self.reload_as_follower();
        self.say_hello(ctx);
    }
}

#[cfg(test)]
mod tests {
    use tokensync_core::erc20::{Erc20Op, Erc20State};
    use tokensync_core::shared::ShardedErc20;
    use tokensync_net::SimNet;
    use tokensync_spec::AccountId;

    use super::*;

    fn transfers(count: usize) -> Vec<(ProcessId, Erc20Op)> {
        (0..count)
            .map(|i| {
                let to = AccountId::new((i + 1) % 4);
                (ProcessId::new(i % 4), Erc20Op::Transfer { to, value: 1 })
            })
            .collect()
    }

    /// A follower whose store latched a durability failure (here the
    /// simulated crash of its durability thread) acks nothing past the
    /// watermark it froze at, and the Quorum claim of a two-node
    /// cluster, which needs that follower, stops there too.
    #[test]
    fn a_latched_follower_store_stops_its_acks() {
        let base =
            std::env::temp_dir().join(format!("tokensync-replica-latch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let cfg = ReplicaConfig::default();
        let genesis = Erc20State::from_balances(vec![100; 4]);
        let nodes = vec![
            ReplicaNode::<ShardedErc20>::create_primary(&base.join("node-0"), &genesis, cfg, 2)
                .unwrap(),
            ReplicaNode::<ShardedErc20>::create_follower(&base.join("node-1"), &genesis, cfg, 2)
                .unwrap(),
        ];
        let mut net = SimNet::new(nodes, 3);
        net.run_to_quiescence();
        let round = |net: &mut SimNet<ReplicaNode<ShardedErc20>>| {
            net.node_mut(0).serve(&transfers(8));
            net.post(0, 0, ReplicaMsg::Pump);
            net.run_to_quiescence();
        };
        round(&mut net);
        assert_eq!(net.node(0).durable_seq(), 8);

        let Role::Follower(f) = &mut net.node_mut(1).role else {
            unreachable!("node 1 follows");
        };
        f.store.abandon();
        round(&mut net);
        assert_eq!(net.node(1).local_durable_seq(), 8, "the watermark froze");
        assert_eq!(net.node(0).peer_acked(1), Some(8), "no ack past it");
        assert_eq!(net.node(0).durable_seq(), 8, "the claim stops there");
        assert_eq!(net.node(0).next_seq(), 16);
        drop(net);
        std::fs::remove_dir_all(&base).unwrap();
    }
}
