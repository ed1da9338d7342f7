//! The replication wire alphabet and tuning knobs.

use tokensync_net::DelayPolicy;
use tokensync_pipeline::PipelineConfig;
use tokensync_store::StoreConfig;

/// When the primary's durability claim ([`ReplicaNode::durable_seq`])
/// counts a sealed batch as durable.
///
/// [`ReplicaNode::durable_seq`]: crate::ReplicaNode::durable_seq
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AckMode {
    /// Durable once the primary's own WAL synced it (followers catch up
    /// in the background). A primary loss can lose acked-but-unshipped
    /// waves — at most a suffix, never a gap.
    Async,
    /// Durable once a majority of the cluster (the primary plus
    /// acknowledged followers) holds it fsynced. Surviving any single
    /// machine loss, a quorum-durable wave is never lost by failover.
    #[default]
    Quorum,
}

/// Maximum unacknowledged [`Append`](crate::ReplicaMsg::Append)
/// messages in flight per follower.
pub(crate) const WINDOW: usize = 8;
/// Base retransmission timeout in simulator ticks; it doubles per
/// retry, up to [`MAX_BACKOFF`].
pub(crate) const RETRY_AFTER: u64 = 64;
/// Backoff ceiling in simulator ticks.
pub(crate) const MAX_BACKOFF: u64 = 1 << 12;
/// Ticks a follower waits after an append before it blocks on its
/// posted fsync and acknowledges: its group-commit window. Longer than
/// the default delay policy's maximum ([`DelayPolicy::DEFAULT_MAX`],
/// 16 ticks), so a round's appends reach every follower before any of
/// them blocks and the fsyncs of the primary and all followers run at
/// once; short enough that the append, the window and the ack
/// (16 + 24 + 16 ticks) land inside [`RETRY_AFTER`], so a fault-free
/// round retransmits nothing.
pub(crate) const ACK_AFTER: u64 = 24;
const _: () = {
    let delay = DelayPolicy::DEFAULT_MAX;
    assert!(ACK_AFTER > delay && delay + ACK_AFTER + delay < RETRY_AFTER);
};

/// Replication tuning.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaConfig {
    /// The durability-claim policy.
    pub ack_mode: AckMode,
    /// Consecutive unanswered retransmissions before a follower is
    /// marked down (it revives on its next `Hello`/`Ack`). Bounds the
    /// pump loop, so a dead follower degrades service instead of
    /// wedging it.
    pub max_retries: u32,
    /// The primary's local store policy.
    pub store: StoreConfig,
    /// The primary's serving engine policy.
    pub pipeline: PipelineConfig,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            ack_mode: AckMode::Quorum,
            max_retries: 10,
            store: StoreConfig::default(),
            pipeline: PipelineConfig::default(),
        }
    }
}

/// One replication message. `Append` frames are the store's on-disk WAL
/// record bytes, shipped **byte-identically** — a follower re-validates
/// the CRC framing and appends the same bytes, so primary and follower
/// logs are bit-equal over the shipped range.
#[derive(Clone, Debug)]
pub enum ReplicaMsg {
    /// One committed WAL record.
    Append {
        /// The sender's replication epoch (fencing token).
        epoch: u64,
        /// Global sequence number of the record's first operation.
        first_seq: u64,
        /// Operations in the record.
        count: u32,
        /// The on-disk frame bytes (`len · crc · payload`).
        frame: Vec<u8>,
    },
    /// Cumulative acknowledgement: the sender has durably (fsynced)
    /// appended every operation below `next_seq` — a follower sends it
    /// only once its store's durable watermark covers `next_seq`.
    Ack {
        /// The acknowledging node's current epoch.
        epoch: u64,
        /// First sequence number it does **not** hold.
        next_seq: u64,
    },
    /// Full-state catch-up for a follower whose position fell out of log
    /// retention or whose log diverged: install this state, then resume
    /// streaming from `watermark`.
    Snapshot {
        /// The sender's replication epoch.
        epoch: u64,
        /// Log position the state corresponds to.
        watermark: u64,
        /// The encoded oracle state ([`StateCodec`] bytes).
        ///
        /// [`StateCodec`]: tokensync_core::codec::StateCodec
        state: Vec<u8>,
    },
    /// A node introducing itself (at start, on restart, or replying to
    /// an [`Announce`](ReplicaMsg::Announce)): its durable epoch and log
    /// end, from which the primary decides stream-from-here vs
    /// snapshot-ship.
    Hello {
        /// The sender's durable epoch **before** any adoption.
        epoch: u64,
        /// First sequence number the sender does not hold.
        next_seq: u64,
    },
    /// A freshly promoted primary announcing its reign: followers whose
    /// log is a prefix of `start_seq` adopt the epoch; longer (divergent)
    /// logs reply `Hello` and get snapshot-shipped.
    Announce {
        /// The new epoch.
        epoch: u64,
        /// Log position at which the new epoch begins.
        start_seq: u64,
    },
    /// Fencing rejection: the receiver's epoch was stale. A primary
    /// receiving this demotes itself to follower.
    Fenced {
        /// The rejecting node's (higher) epoch.
        epoch: u64,
    },
    /// Self-addressed retransmission timer of the primary.
    Pump,
    /// Self-addressed group-commit timer of a follower, armed by its
    /// first unacknowledged append: wait for the posted fsyncs, then
    /// send the cumulative `Ack` of the durable position.
    Flush,
}
