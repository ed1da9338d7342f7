//! The cluster harness: wires `n` [`ReplicaNode`]s into a fault-capable
//! [`SimNet`] and drives the control plane — serving, replication
//! rounds, crashes, restarts and deterministic failover. Tests and
//! benchmarks talk to this; the nodes only ever talk to each other.

use std::path::Path;
use std::time::Instant;

use tokensync_core::codec::{Codec, StateCodec};
use tokensync_net::{FaultPlan, Metrics, SimNet};
use tokensync_obs::{Registry, SpanEvent, SpanRing, Stage};
use tokensync_pipeline::PipelineRun;
use tokensync_spec::ProcessId;
use tokensync_store::{Restorable, StoreError};

use crate::msg::{ReplicaConfig, ReplicaMsg};
use crate::node::{ReplicaNode, ReplicationStats};

/// A replicated serving cluster over the simulated network.
///
/// Node 0 starts as primary; the rest start as followers of an empty
/// log. [`Cluster::serve`] runs a script on the primary,
/// [`Cluster::pump`] drains one replication round, and
/// [`Cluster::fail_over`] implements the deterministic promotion rule:
/// **the live follower with the longest log wins, lowest id on ties.**
pub struct Cluster<T: Restorable>
where
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    net: SimNet<ReplicaNode<T>>,
    primary: usize,
    epoch: u64,
    /// Optional span sink: each [`Cluster::pump`] round records its
    /// wall-clock duration as a `QuorumAck` event.
    spans: Option<(SpanRing, Instant)>,
}

impl<T> Cluster<T>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    /// Builds an `n`-node cluster under `base` (one `node-<i>` store
    /// directory per replica) and runs the introduction round.
    ///
    /// # Errors
    ///
    /// Store initialization errors.
    pub fn new(
        base: &Path,
        n: usize,
        genesis: &T::State,
        cfg: ReplicaConfig,
        seed: u64,
    ) -> Result<Self, StoreError> {
        assert!(n >= 1, "a cluster needs at least one node");
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let dir = base.join(format!("node-{i}"));
            nodes.push(if i == 0 {
                ReplicaNode::create_primary(&dir, genesis, cfg, n)?
            } else {
                ReplicaNode::create_follower(&dir, genesis, cfg, n)?
            });
        }
        let mut net = SimNet::new(nodes, seed);
        net.run_to_quiescence(); // drain the Hello round
        Ok(Self {
            net,
            primary: 0,
            epoch: 0,
            spans: None,
        })
    }

    /// Attaches a span ring: every subsequent [`Cluster::pump`] pushes
    /// one [`Stage::QuorumAck`] event whose duration is the wall-clock
    /// time the replication round took to reach quiescence, keyed by
    /// the primary's durable position after the round. Offsets are
    /// relative to this call.
    pub fn attach_span_ring(&mut self, ring: SpanRing) {
        self.spans = Some((ring, Instant::now()));
    }

    /// Arms a seeded [`FaultPlan`] on the underlying network.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.net.set_fault_plan(plan);
    }

    /// Serves a script on the current primary (panics if it is
    /// crashed — crash detection is the orchestrator's job, exactly as
    /// in a real deployment). Returns the pipeline run; call
    /// [`Cluster::pump`] afterwards to replicate the new records.
    pub fn serve(&mut self, script: &[(ProcessId, T::Op)]) -> PipelineRun<T::Op, T::Resp> {
        assert!(
            !self.net.is_crashed(self.primary),
            "serve() while the primary is crashed"
        );
        self.net.node_mut(self.primary).serve(script)
    }

    /// Drives one replication round: kicks the primary's pump and runs
    /// the network to quiescence (streaming, acks, retransmissions and
    /// any scheduled faults all play out).
    pub fn pump(&mut self) {
        let started = self.spans.as_ref().map(|_| Instant::now());
        self.kick();
        self.net.run_to_quiescence();
        if let (Some((ring, epoch)), Some(started)) = (&self.spans, started) {
            let ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            ring.push(SpanEvent {
                batch: self.durable_seq(),
                stage: Stage::QuorumAck,
                start_ns: ns(started.duration_since(*epoch)),
                dur_ns: ns(started.elapsed()),
            });
        }
    }

    /// Kicks the primary's pump without running the network: with
    /// [`Cluster::step`], a replication round one delivery at a time.
    pub fn kick(&mut self) {
        if !self.net.is_crashed(self.primary) {
            self.net.post(self.primary, self.primary, ReplicaMsg::Pump);
        }
    }

    /// Delivers one message (applying every scheduled fault due before
    /// it); `false` once the network is quiescent.
    pub fn step(&mut self) -> bool {
        self.net.run(1) == 1
    }

    /// Crashes `node` (primary or follower): it stops sending and
    /// receiving until [`Cluster::restart`].
    pub fn crash(&mut self, node: usize) {
        self.net.crash(node);
    }

    /// Crashes the current primary — the machine-loss headline case.
    pub fn crash_primary(&mut self) {
        self.net.crash(self.primary);
    }

    /// Deterministic failover: crashes the primary if still up, promotes
    /// the live follower with the **longest log** (lowest id on ties;
    /// the promotion makes all of it durable) into a fresh epoch,
    /// announces the reign, and drains the
    /// resulting adoption/catch-up traffic. Returns the winner's id.
    ///
    /// # Panics
    ///
    /// Panics if no live node remains.
    pub fn fail_over(&mut self) -> usize {
        if !self.net.is_crashed(self.primary) {
            self.net.crash(self.primary);
        }
        let mut winner: Option<(u64, usize)> = None;
        for i in 0..self.net.n() {
            if self.net.is_crashed(i) {
                continue;
            }
            let len = self.net.node(i).next_seq();
            // Strictly-greater keeps the first (lowest-id) maximum.
            if winner.map_or(true, |(best, _)| len > best) {
                winner = Some((len, i));
            }
        }
        let (_, winner) = winner.expect("no live node to promote");
        self.epoch += 1;
        let start_seq = self.net.node_mut(winner).promote(self.epoch);
        self.primary = winner;
        for i in 0..self.net.n() {
            if i != winner && !self.net.is_crashed(i) {
                self.net.post(
                    winner,
                    i,
                    ReplicaMsg::Announce {
                        epoch: self.epoch,
                        start_seq,
                    },
                );
            }
        }
        self.net.run_to_quiescence();
        winner
    }

    /// Restarts a crashed node: it recovers from disk, rejoins as a
    /// follower and catches up (the round is drained before returning).
    pub fn restart(&mut self, node: usize) {
        self.net.restart(node);
        self.net.run_to_quiescence();
    }

    /// Id of the current primary.
    pub fn primary(&self) -> usize {
        self.primary
    }

    /// The current cluster epoch (bumped once per failover).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The position the current primary claims durable under its
    /// [`AckMode`](crate::AckMode).
    pub fn durable_seq(&self) -> u64 {
        self.net.node(self.primary).durable_seq()
    }

    /// Access to a node, for assertions.
    pub fn node(&self, i: usize) -> &ReplicaNode<T> {
        self.net.node(i)
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.net.n()
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: usize) -> bool {
        self.net.is_crashed(node)
    }

    /// Network metrics (drops, duplicates, partition discards, …).
    pub fn metrics(&self) -> &Metrics {
        self.net.metrics()
    }

    /// The current primary's reign counters (zeroed on failover).
    pub fn replication_stats(&self) -> ReplicationStats {
        self.net
            .node(self.primary)
            .replication_stats()
            .unwrap_or_default()
    }

    /// Per-node acknowledgement lag behind the primary's log head
    /// (`next_seq − acked`; the primary's own slot is 0). A node that
    /// never introduced itself this reign shows the full log length.
    pub fn follower_lags(&self) -> Vec<u64> {
        self.net
            .node(self.primary)
            .follower_lags()
            .unwrap_or_else(|| vec![0; self.net.n()])
    }

    /// Publishes the cluster's replication health into `registry`:
    /// reign counters (`tokensync_replica_retransmissions_total`,
    /// `…_down_marks_total`, `…_snapshot_ships_total`,
    /// `…_reinvites_total`), per-follower ack-lag gauges
    /// (`tokensync_replica_follower_lag{follower="i"}`), and the
    /// `tokensync_replica_epoch` / `tokensync_replica_durable_seq`
    /// gauges. Pull-style: call it after each [`Cluster::pump`]; the
    /// counters are overwritten with the current totals
    /// ([`Counter::set_total`](tokensync_obs::Counter::set_total)), so
    /// do not mix the same registry names with push-style `add`s.
    pub fn publish_obs(&self, registry: &Registry) {
        let stats = self.replication_stats();
        registry
            .counter(
                "tokensync_replica_retransmissions_total",
                &[],
                "Timed-out transmissions resent by the primary (go-back-N rewinds and snapshot resends).",
            )
            .set_total(stats.retransmissions);
        registry
            .counter(
                "tokensync_replica_down_marks_total",
                &[],
                "Followers marked down after exhausting their retry budget.",
            )
            .set_total(stats.down_marks);
        registry
            .counter(
                "tokensync_replica_snapshot_ships_total",
                &[],
                "Snapshots shipped to re-base lagging or divergent followers.",
            )
            .set_total(stats.snapshot_ships);
        registry
            .counter(
                "tokensync_replica_reinvites_total",
                &[],
                "Repeated Announce invitations to silent peers.",
            )
            .set_total(stats.reinvites);
        registry
            .gauge(
                "tokensync_replica_epoch",
                &[],
                "Current replication epoch (bumped once per failover).",
            )
            .set(i64::try_from(self.epoch).unwrap_or(i64::MAX));
        registry
            .gauge(
                "tokensync_replica_durable_seq",
                &[],
                "Position the primary claims durable under its ack mode.",
            )
            .set(i64::try_from(self.durable_seq()).unwrap_or(i64::MAX));
        for (i, lag) in self.follower_lags().into_iter().enumerate() {
            let follower = i.to_string();
            registry
                .gauge(
                    "tokensync_replica_follower_lag",
                    &[("follower", follower.as_str())],
                    "Acknowledgement lag behind the primary's log head, in records.",
                )
                .set(i64::try_from(lag).unwrap_or(i64::MAX));
        }
    }
}
