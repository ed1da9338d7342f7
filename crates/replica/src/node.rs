//! One machine of the replicated cluster: a [`ReplicaNode`] is either
//! the **primary** (serves writes through the pipeline into its durable
//! [`Store`], tails its own WAL and ships the records) or a
//! **follower** (validates, appends, replays and acknowledges shipped
//! records into a live read-serving object).
//!
//! The protocol in one paragraph: every WAL segment is stamped with an
//! *epoch* (a fencing token that only grows). The primary streams
//! records per follower with a bounded in-flight window; followers send
//! cumulative `Ack`s after an fsync; timeouts trigger go-back-N
//! retransmission with exponential backoff, and a follower that stops
//! answering is marked down (service degrades, never wedges). A
//! follower whose position fell out of log retention — or whose log
//! diverged across a failover — is wiped and re-based from a shipped
//! snapshot, then caught up from the log suffix. Any message stamped
//! with a stale epoch is answered `Fenced`, and a fenced primary
//! demotes itself; [`Wal::set_epoch`] makes adoption durable *before*
//! anything of the new reign is acknowledged.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use tokensync_core::codec::{Codec, StateCodec};
use tokensync_net::{Context, Node};
use tokensync_pipeline::{run_script_with_sink, PipelineRun};
use tokensync_spec::ProcessId;
use tokensync_store::wal::{Wal, FRAME_LEN};
use tokensync_store::{
    decode_commits, install_snapshot, recover, Restorable, Store, StoreError, WalCursor,
};

use crate::msg::{AckMode, ReplicaConfig, ReplicaMsg};

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
    /// Highest locally sealed (batch-synced) position.
    sealed_seq: u64,
    peers: Vec<Peer>,
    /// Whether a self-addressed Pump timer is already in flight.
    pump_armed: bool,
    /// Replication-health counters of this reign.
    stats: ReplicationStats,
}

struct Follower<T> {
    wal: Wal,
    object: T,
    epoch: u64,
    next_seq: u64,
    leader: Option<usize>,
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
                peers: (0..n).map(|_| Peer::idle(cfg.retry_after)).collect(),
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
    /// I/O errors initializing the directory.
    pub fn create_follower(
        dir: &Path,
        genesis: &T::State,
        cfg: ReplicaConfig,
        n: usize,
    ) -> Result<Self, StoreError> {
        install_snapshot(dir, 0, genesis)?;
        let wal = Wal::open(
            dir,
            <T::State as StateCodec>::STANDARD,
            <T::State as StateCodec>::VERSION,
            cfg.store.segment_max_bytes,
            0,
        )?;
        Ok(Self {
            dir: dir.to_path_buf(),
            cfg,
            n,
            id: usize::MAX,
            role: Role::Follower(Follower {
                wal,
                object: T::restore(genesis.clone()),
                epoch: 0,
                next_seq: 0,
                leader: None,
            }),
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
            Role::Follower(f) => f.epoch,
            Role::Rebooting => unreachable!("transient role observed"),
        }
    }

    /// First sequence number this node does not hold durably.
    pub fn next_seq(&self) -> u64 {
        match &self.role {
            Role::Primary(p) => p.store.next_seq(),
            Role::Follower(f) => f.next_seq,
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
    /// `Quorum` the largest sealed position a quorum of the cluster
    /// (counting the primary) has fsynced. On a follower: its own
    /// durable position.
    pub fn durable_seq(&self) -> u64 {
        match &self.role {
            Role::Primary(p) => match self.cfg.ack_mode {
                AckMode::Async => p.sealed_seq,
                AckMode::Quorum => {
                    let q = if self.cfg.quorum > 0 {
                        self.cfg.quorum
                    } else {
                        self.n / 2 + 1
                    };
                    if q <= 1 {
                        return p.sealed_seq;
                    }
                    let mut acked: Vec<u64> = (0..self.n)
                        .filter(|&i| i != self.id)
                        .map(|i| p.peers[i].acked)
                        .collect();
                    acked.sort_unstable_by(|a, b| b.cmp(a));
                    p.sealed_seq.min(acked.get(q - 2).copied().unwrap_or(0))
                }
            },
            Role::Follower(f) => f.next_seq,
            Role::Rebooting => unreachable!("transient role observed"),
        }
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
        let Role::Primary(p) = &mut self.role else {
            panic!("serve() on a non-primary replica");
        };
        let run = run_script_with_sink(&p.object, script, &self.cfg.pipeline, &mut p.store);
        // The primary's durability claim is the store's own watermark
        // now: under pipelined group commit the run's final batch may
        // still be in the background fsync queue, so drain it before
        // claiming — replication acks must never outrun local
        // durability.
        if let Err(e) = p.store.flush() {
            panic!("primary store write path failed: {e}");
        }
        p.sealed_seq = p.sealed_seq.max(p.store.durable_seq());
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
        let Follower { wal, object, .. } = f;
        drop(wal); // release the append handle before reopening as a store
        let mut store = Store::open(&self.dir, self.cfg.store).expect("reopen store on promotion");
        store
            .set_epoch(epoch)
            .expect("fence the log at the new epoch");
        let start = store.next_seq();
        self.role = Role::Primary(Primary {
            object,
            epoch,
            epoch_start_seq: start,
            // Everything on the promoted log is locally durable.
            sealed_seq: start,
            peers: (0..self.n)
                .map(|_| Peer::idle(self.cfg.retry_after))
                .collect(),
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
        let wal = Wal::open(
            &self.dir,
            <T::State as StateCodec>::STANDARD,
            <T::State as StateCodec>::VERSION,
            self.cfg.store.segment_max_bytes,
            rec.snapshot_watermark,
        )
        .expect("reopen wal after recovery");
        debug_assert_eq!(wal.next_seq(), rec.next_seq, "recovery/wal position skew");
        self.role = Role::Follower(Follower {
            next_seq: wal.next_seq(),
            wal,
            object: rec.object,
            epoch: rec.epoch,
            leader: None,
        });
    }

    /// Introduces this follower to every other node.
    fn say_hello(&self, ctx: &mut Context<ReplicaMsg>) {
        let Role::Follower(f) = &self.role else {
            return;
        };
        let msg = ReplicaMsg::Hello {
            epoch: f.epoch,
            next_seq: f.next_seq,
        };
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
        let cfg = self.cfg;
        let now = ctx.time();
        let me = self.id;
        let Role::Primary(p) = &mut self.role else {
            unreachable!();
        };
        // The re-base decision. Same epoch, or an old-epoch log that is
        // a prefix of this epoch's start: its bytes are ours, stream
        // from where it stands. An old-epoch log *past* the epoch start
        // has a divergent suffix: wipe it with a snapshot.
        let prev_acked = p.peers[from].acked;
        let peer = &mut p.peers[from];
        *peer = Peer::idle(cfg.retry_after);
        peer.active = true;
        if epoch == p.epoch || next_seq <= p.epoch_start_seq {
            // Both positions are fsynced truths about the peer's log, so
            // the max keeps the durability claim monotone even if an old
            // duplicated Hello arrives late.
            peer.acked = prev_acked.max(next_seq);
            p.stream_to(&cfg, from, now, ctx);
        } else {
            p.ship_snapshot(&cfg, from, now, ctx);
        }
        p.arm_pump(&cfg, me, ctx);
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
        let cfg = self.cfg;
        let now = ctx.time();
        let me = self.id;
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
            peer.backoff = cfg.retry_after;
            peer.sent_at = now;
        }
        p.stream_to(&cfg, from, now, ctx);
        p.arm_pump(&cfg, me, ctx);
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
                peer.backoff = (peer.backoff * 2).min(cfg.max_backoff);
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
                peer.backoff = (peer.backoff * 2).min(cfg.max_backoff);
                peer.sent_at = now;
                p.stats.retransmissions += 1;
                let resend_snapshot = peer.snapshot_pending.is_some();
                if resend_snapshot {
                    p.ship_snapshot(&cfg, dst, now, ctx);
                } else {
                    // Go-back-N: rewind to the cumulative ack.
                    p.peers[dst].cursor = None;
                    p.peers[dst].inflight.clear();
                    p.stream_to(&cfg, dst, now, ctx);
                }
            } else {
                p.stream_to(&cfg, dst, now, ctx);
            }
        }
        p.arm_pump(&cfg, me, ctx);
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
        count: u32,
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
        if epoch < f.epoch {
            ctx.send(from, ReplicaMsg::Fenced { epoch: f.epoch });
            return;
        }
        if epoch > f.epoch {
            if first_seq <= f.next_seq {
                // The new reign's log covers ours: our log is a prefix
                // of committed history, adoption is safe. Fence durably
                // before acknowledging anything of the new reign.
                f.wal.set_epoch(epoch).expect("adopt epoch");
                f.epoch = epoch;
            } else {
                // Cannot prove our log is a prefix; ask to be re-based
                // instead of guessing.
                ctx.send(
                    from,
                    ReplicaMsg::Hello {
                        epoch: f.epoch,
                        next_seq: f.next_seq,
                    },
                );
                return;
            }
        }
        f.leader = Some(from);
        if first_seq != f.next_seq {
            // Duplicate (behind us) or gap (ahead of us): either way,
            // re-ack our cumulative position; the primary rewinds to it
            // on timeout (go-back-N) or drops the duplicate range.
            ctx.send(
                from,
                ReplicaMsg::Ack {
                    epoch: f.epoch,
                    next_seq: f.next_seq,
                },
            );
            return;
        }
        // Exact continuation: decode for replay, append the raw bytes
        // (CRC + continuity re-validated there), replay the frame through
        // the live object in one batch verifying every recorded
        // response, fsync, ack.
        let payload = frame.get(FRAME_LEN..).unwrap_or_default();
        let Ok(entries) = decode_commits::<T::Op, T::Resp>(payload) else {
            return; // short or undecodable payload: no ack, sender retries
        };
        if f.wal.append_frames(&frame).is_err() {
            return; // invalid frame bytes: no ack
        }
        let (ops, logged): (Vec<_>, Vec<_>) = entries
            .into_iter()
            .map(|e| ((e.caller, e.op), (e.seq, e.resp)))
            .unzip();
        let resps = f.object.apply_batch(&ops);
        for (resp, (seq, logged)) in resps.iter().zip(&logged) {
            assert!(resp == logged, "replicated replay diverged at seq {seq}");
        }
        f.wal.sync().expect("follower fsync before ack");
        f.next_seq = first_seq + u64::from(count);
        ctx.send(
            from,
            ReplicaMsg::Ack {
                epoch: f.epoch,
                next_seq: f.next_seq,
            },
        );
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
            let Role::Follower(f) = &self.role else {
                unreachable!();
            };
            if epoch < f.epoch {
                ctx.send(from, ReplicaMsg::Fenced { epoch: f.epoch });
                return;
            }
            if epoch == f.epoch && watermark <= f.next_seq {
                // Stale duplicate: our same-epoch log already covers the
                // watermark; installing would discard progress.
                ctx.send(
                    from,
                    ReplicaMsg::Ack {
                        epoch: f.epoch,
                        next_seq: f.next_seq,
                    },
                );
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
        let mut wal = Wal::open(
            &self.dir,
            <T::State as StateCodec>::STANDARD,
            <T::State as StateCodec>::VERSION,
            self.cfg.store.segment_max_bytes,
            watermark,
        )
        .expect("open wal at the shipped watermark");
        wal.set_epoch(epoch).expect("fence the re-based log");
        self.role = Role::Follower(Follower {
            wal,
            object: T::restore(decoded),
            epoch,
            next_seq: watermark,
            leader: Some(from),
        });
        ctx.send(
            from,
            ReplicaMsg::Ack {
                epoch,
                next_seq: watermark,
            },
        );
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
        if epoch < f.epoch {
            ctx.send(from, ReplicaMsg::Fenced { epoch: f.epoch });
            return;
        }
        if epoch > f.epoch && f.next_seq <= start_seq {
            // Our log is a prefix of the new reign: adopt it durably. (A
            // longer log keeps its old epoch; the Hello below carries it
            // and the new primary snapshot-ships us.)
            f.wal.set_epoch(epoch).expect("adopt announced epoch");
            f.epoch = epoch;
        }
        if epoch == f.epoch {
            f.leader = Some(from);
        }
        ctx.send(
            from,
            ReplicaMsg::Hello {
                epoch: f.epoch,
                next_seq: f.next_seq,
            },
        );
    }
}

impl<T> Primary<T>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    /// Streams records to `dst` from its cumulative ack, up to the
    /// in-flight window; falls back to snapshot shipping when the
    /// peer's position fell out of log retention.
    fn stream_to(
        &mut self,
        cfg: &ReplicaConfig,
        dst: usize,
        now: u64,
        ctx: &mut Context<ReplicaMsg>,
    ) {
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
                    self.ship_snapshot(cfg, dst, now, ctx);
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
        while inflight.len() < cfg.window {
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
    fn ship_snapshot(
        &mut self,
        _cfg: &ReplicaConfig,
        dst: usize,
        now: u64,
        ctx: &mut Context<ReplicaMsg>,
    ) {
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
    fn arm_pump(&mut self, cfg: &ReplicaConfig, me: usize, ctx: &mut Context<ReplicaMsg>) {
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
            ctx.send_after(cfg.retry_after, ReplicaMsg::Pump);
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
            ReplicaMsg::Append {
                epoch,
                first_seq,
                count,
                frame,
            } => self.on_append(from, epoch, first_seq, count, frame, ctx),
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
