//! Ingest: a sharded bounded intake whose batches are cut when it runs
//! dry.
//!
//! Clients [`submit`](IntakeClient::submit) operations from any thread;
//! the engine side pulls [`Batch`]es. A batch closes as soon as it holds
//! [`BatchConfig::max_ops`] operations *or* the shards are drained and
//! stay empty across one [`yield_now`](std::thread::yield_now) — the
//! batch is whatever queued while the engine was busy with the previous
//! one. There is no timer: a lone operation is cut at once, and under
//! backlog batches fill to `max_ops` because the queues never run dry.
//! The yield is what keeps a producer sharing the consumer's CPU from
//! ping-ponging with it in batches of one: it lets the producer run
//! (and queue its next burst) before the cut is decided.
//!
//! # Sharding
//!
//! The intake is split into [`BatchConfig::intake_shards`] independent
//! bounded queues. Every client handle is pinned to one shard
//! (round-robin at [`Clone`] time), so producers on different shards
//! never contend on a shared lock — the single-MPSC intake this
//! replaces made every submitting thread serialize on one channel.
//! Operations submitted through one handle stay FIFO (they live in one
//! shard's queue and the consumer drains each shard front-to-back);
//! operations from *different* handles carry no ordering contract, same
//! as before, since independent producers race to the queue anyway.
//!
//! # Backpressure
//!
//! Each shard holds at most `queue_depth / intake_shards` operations
//! (at least one), so total buffering stays bounded by
//! [`BatchConfig::queue_depth`] and a slow executor applies
//! backpressure to producers instead of buffering without limit —
//! [`submit`](IntakeClient::submit) blocks on the producer's own shard
//! until the consumer drains it. An idle pipeline burns no CPU: the
//! consumer parks on a doorbell condvar, and the first producer to find
//! the parked flag set claims it and rings — one wake-up per park,
//! however many submissions land before the consumer is scheduled. A
//! consumer with work of its own that ripens while it waits (the
//! engine's sink holding acks for the durable watermark) bounds the
//! park instead: an arrival still wakes it at once, and otherwise it
//! looks at that work after a short nap.
//!
//! # Bursts
//!
//! [`try_submit_burst`](IntakeClient::try_submit_burst) is the
//! primitive: one shard lock and at most one ring admit as much of a
//! burst as fits. The blocking single-op methods are bursts of one.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tokensync_spec::ProcessId;

/// The ticket value of an untagged submission. Plain
/// [`IntakeClient::submit`] stamps every op with it; response-routing
/// sinks skip it, so in-process producers pay nothing for the tagging
/// machinery the network front end rides on.
pub const NO_TICKET: u64 = 0;

/// Batch-cut policy of the intake stage.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// A batch closes when it reaches this many operations (or earlier,
    /// as soon as the intake runs dry).
    pub max_ops: usize,
    /// Total capacity of the bounded intake (backpressure bound),
    /// divided evenly across the shards.
    pub queue_depth: usize,
    /// Number of independent intake queues producers are spread over.
    pub intake_shards: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_ops: 1024,
            queue_depth: 8192,
            intake_shards: 8,
        }
    }
}

/// One cut batch: the operations in submission order, tagged with the
/// batch sequence number. Generic over the op alphabet — the intake
/// carries whichever standard's operations the engine serves.
#[derive(Clone, Debug)]
pub struct Batch<Op> {
    /// Zero-based sequence number of this batch in cut order.
    pub seq: u64,
    /// The operations, in submission order.
    pub ops: Vec<(ProcessId, Op)>,
    /// Routing tickets parallel to `ops` ([`NO_TICKET`] for untagged
    /// submissions): an opaque per-op correlation id the engine carries
    /// to the commit sink ([`CommitSink::wave_committed_tagged`]) so a
    /// serving front end can resolve response futures at wave commit.
    ///
    /// [`CommitSink::wave_committed_tagged`]: crate::engine::CommitSink::wave_committed_tagged
    pub tickets: Vec<u64>,
}

/// Error returned by [`IntakeClient::submit`] when the engine has shut
/// down (the consuming side of the queue was dropped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineClosed;

impl std::fmt::Display for PipelineClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pipeline intake closed")
    }
}

impl std::error::Error for PipelineClosed {}

/// One bounded producer queue. Each element carries its routing ticket
/// ([`NO_TICKET`] when untagged).
#[derive(Debug)]
struct Shard<Op> {
    queue: Mutex<VecDeque<(ProcessId, Op, u64)>>,
    /// Signalled when the consumer frees shard slots (and on shutdown).
    not_full: Condvar,
}

/// State shared by every client handle and the batcher.
#[derive(Debug)]
struct Intake<Op> {
    shards: Vec<Shard<Op>>,
    /// Per-shard capacity: `queue_depth / shards`, at least 1.
    shard_cap: usize,
    /// Version counter rung by producers to wake a parked consumer; the
    /// consumer re-scans whenever the version moved under it.
    doorbell: Mutex<u64>,
    data_ready: Condvar,
    /// Set by the consumer as it parks in [`Batcher::next_batch`] and
    /// cleared by whoever wakes it: the one producer that claims it
    /// rings, every other producer skips the doorbell.
    parked: AtomicBool,
    /// Live client handles; 0 means producers are gone for good.
    clients: AtomicUsize,
    /// Round-robin cursor assigning shards to cloned client handles.
    next_client: AtomicUsize,
    /// Set when the batcher drops: submissions fail from then on.
    closed: AtomicBool,
}

impl<Op> Intake<Op> {
    /// Rings the consumer doorbell (push completed or last client
    /// gone). A no-op unless the consumer is parked and nobody rang for
    /// this park yet: `notify_one` is a futex syscall, and a parked
    /// consumer stays parked until it is *scheduled*, so without the
    /// claim every submission in between would pay one.
    /// [`Batcher::park`] re-scans after publishing the flag, which
    /// covers a push that raced it.
    fn ring(&self) {
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            let mut version = self.doorbell.lock().unwrap();
            *version = version.wrapping_add(1);
            self.data_ready.notify_one();
        }
    }
}

/// Producer handle: clone one per client thread. Each handle is pinned
/// to one intake shard, so its submissions stay FIFO relative to each
/// other and never contend with other handles' shards.
#[derive(Debug)]
pub struct IntakeClient<Op> {
    intake: Arc<Intake<Op>>,
    shard: usize,
}

impl<Op> Clone for IntakeClient<Op> {
    fn clone(&self) -> Self {
        self.intake.clients.fetch_add(1, Ordering::SeqCst);
        let shard =
            self.intake.next_client.fetch_add(1, Ordering::Relaxed) % self.intake.shards.len();
        Self {
            intake: Arc::clone(&self.intake),
            shard,
        }
    }
}

impl<Op> Drop for IntakeClient<Op> {
    fn drop(&mut self) {
        if self.intake.clients.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last producer gone: a parked consumer must wake to drain
            // the remainder and observe shutdown.
            self.intake.ring();
        }
    }
}

impl<Op> IntakeClient<Op> {
    /// Enqueues one operation, blocking while this handle's shard is
    /// full (backpressure).
    ///
    /// # Errors
    ///
    /// [`PipelineClosed`] if the engine stopped consuming.
    pub fn submit(&self, caller: ProcessId, op: Op) -> Result<(), PipelineClosed> {
        self.submit_tagged(caller, op, NO_TICKET)
    }

    /// [`submit`](IntakeClient::submit) with a routing `ticket` the
    /// commit sink receives alongside the committed entry — the seam a
    /// network front end uses to resolve per-request response futures
    /// at wave commit.
    ///
    /// # Errors
    ///
    /// [`PipelineClosed`] if the engine stopped consuming.
    pub fn submit_tagged(
        &self,
        caller: ProcessId,
        op: Op,
        ticket: u64,
    ) -> Result<(), PipelineClosed> {
        self.push(&mut std::iter::once((caller, op, ticket)), true)
            .map(|_| ())
    }

    /// Admits a burst of `(caller, op, ticket)` submissions under one
    /// shard lock and at most one doorbell ring, without blocking: takes
    /// from `ops`, in order, exactly as many as the shard has room for
    /// and returns that count. Whatever did not fit is still in `ops` —
    /// a front end answers those `Busy`. This is the one non-blocking
    /// entry point; a single op is a burst of one.
    ///
    /// # Errors
    ///
    /// [`PipelineClosed`] if the engine stopped consuming; nothing was
    /// taken from `ops`.
    pub fn try_submit_burst(
        &self,
        ops: &mut impl Iterator<Item = (ProcessId, Op, u64)>,
    ) -> Result<usize, PipelineClosed> {
        self.push(ops, false)
    }

    /// The one way into a shard. With `block`, waits for the shard to
    /// have room for at least one op first.
    fn push(
        &self,
        ops: &mut impl Iterator<Item = (ProcessId, Op, u64)>,
        block: bool,
    ) -> Result<usize, PipelineClosed> {
        let shard = &self.intake.shards[self.shard];
        let mut queue = shard.queue.lock().unwrap();
        loop {
            if self.intake.closed.load(Ordering::SeqCst) {
                return Err(PipelineClosed);
            }
            if !block || queue.len() < self.intake.shard_cap {
                break;
            }
            queue = shard.not_full.wait(queue).unwrap();
        }
        let before = queue.len();
        queue.extend(ops.take(self.intake.shard_cap.saturating_sub(before)));
        let admitted = queue.len() - before;
        drop(queue);
        if admitted > 0 {
            self.intake.ring();
        }
        Ok(admitted)
    }
}

/// Consumer side: turns the raw operation stream into batches.
#[derive(Debug)]
pub struct Batcher<Op> {
    intake: Arc<Intake<Op>>,
    cfg: BatchConfig,
    next_seq: u64,
    /// Round-robin drain cursor across shards.
    cursor: usize,
}

/// Creates a connected intake pair: clients for producers, the batcher
/// for the engine loop.
pub fn intake<Op>(cfg: BatchConfig) -> (IntakeClient<Op>, Batcher<Op>) {
    let shards = cfg.intake_shards.max(1);
    let shard_cap = (cfg.queue_depth / shards).max(1);
    let intake = Arc::new(Intake {
        shards: (0..shards)
            .map(|_| Shard {
                queue: Mutex::new(VecDeque::new()),
                not_full: Condvar::new(),
            })
            .collect(),
        shard_cap,
        doorbell: Mutex::new(0),
        data_ready: Condvar::new(),
        parked: AtomicBool::new(false),
        clients: AtomicUsize::new(1),
        next_client: AtomicUsize::new(1),
        closed: AtomicBool::new(false),
    });
    (
        IntakeClient {
            intake: Arc::clone(&intake),
            shard: 0,
        },
        Batcher {
            intake,
            cfg,
            next_seq: 0,
            cursor: 0,
        },
    )
}

impl<Op> Drop for Batcher<Op> {
    fn drop(&mut self) {
        self.intake.closed.store(true, Ordering::SeqCst);
        // Wake every producer blocked on backpressure so it can fail.
        for shard in &self.intake.shards {
            let _guard = shard.queue.lock().unwrap();
            shard.not_full.notify_all();
        }
    }
}

impl<Op> Batcher<Op> {
    /// Drains queued operations round-robin across shards into `ops`
    /// and their routing tickets into `tickets`, up to `max`. Each
    /// shard is drained front-to-back, preserving per-producer FIFO.
    /// Returns how many were taken.
    fn drain_into(
        &mut self,
        ops: &mut Vec<(ProcessId, Op)>,
        tickets: &mut Vec<u64>,
        max: usize,
    ) -> usize {
        let shards = &self.intake.shards;
        let mut taken = 0;
        for visit in 0..shards.len() {
            if taken >= max {
                break;
            }
            let idx = (self.cursor + visit) % shards.len();
            let shard = &shards[idx];
            let mut queue = shard.queue.lock().unwrap();
            let was_full = queue.len() >= self.intake.shard_cap;
            let take = queue.len().min(max - taken);
            ops.reserve(take);
            tickets.reserve(take);
            for (caller, op, ticket) in queue.drain(..take) {
                ops.push((caller, op));
                tickets.push(ticket);
            }
            taken += take;
            if was_full && take > 0 {
                shard.not_full.notify_all();
            }
        }
        // Resume at the next shard so no producer is structurally
        // favored when every shard stays hot.
        self.cursor = (self.cursor + 1) % shards.len();
        taken
    }

    /// Parks until a producer rings the doorbell — or, given a `nap`,
    /// until that much time has passed, whichever comes first.
    fn park(&self, nap: Option<Duration>) {
        let intake = &self.intake;
        let mut version = intake.doorbell.lock().unwrap();
        let seen = *version;
        intake.parked.store(true, Ordering::SeqCst);
        // Re-check after publishing the parked flag: a producer that
        // pushed before seeing it would otherwise be missed (its push
        // is visible to this scan; a producer pushing after sees the
        // flag and rings).
        if self.queued() == 0 && intake.clients.load(Ordering::SeqCst) > 0 {
            match nap {
                None => {
                    while *version == seen {
                        version = intake.data_ready.wait(version).unwrap();
                    }
                }
                Some(nap) => {
                    let unrung = |version: &mut u64| *version == seen;
                    drop(intake.data_ready.wait_timeout_while(version, nap, unrung));
                }
            }
        }
        intake.parked.store(false, Ordering::SeqCst);
    }

    /// Operations currently buffered across every shard (diagnostic).
    pub fn queued(&self) -> usize {
        self.intake
            .shards
            .iter()
            .map(|s| s.queue.lock().unwrap().len())
            .sum()
    }

    /// Number of intake shards.
    pub fn shards(&self) -> usize {
        self.intake.shards.len()
    }

    /// Operations currently buffered in shard `i` — feeds the per-shard
    /// queue-depth gauges.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shards()`.
    pub fn shard_depth(&self, i: usize) -> usize {
        self.intake.shards[i].queue.lock().unwrap().len()
    }

    /// Blocks for the next batch; `None` once every client handle is
    /// dropped and the shards are drained (engine shutdown).
    pub fn next_batch(&mut self) -> Option<Batch<Op>> {
        self.next_batch_or(|| None)
    }

    /// [`next_batch`](Self::next_batch) for a consumer with work of its
    /// own that ripens while it waits: each time the intake is found
    /// dry, `idle` runs before the consumer parks. `None` parks until an
    /// operation arrives; `Some(nap)` parks for at most `nap`, after
    /// which — still dry — `idle` runs again. A consumer that is kept
    /// busy never calls it.
    pub(crate) fn next_batch_or(
        &mut self,
        mut idle: impl FnMut() -> Option<Duration>,
    ) -> Option<Batch<Op>> {
        let max_ops = self.cfg.max_ops.max(1);
        let mut ops = Vec::new();
        let mut tickets = Vec::new();
        // Block for the batch's first op — indefinitely unless `idle`
        // asks otherwise: an idle pipeline burns no CPU.
        loop {
            // Read the client count *before* scanning: every push by an
            // already-departed producer is then visible to the scan, so
            // `0 clients + empty scan` really means end of stream.
            let clients = self.intake.clients.load(Ordering::SeqCst);
            if self.drain_into(&mut ops, &mut tickets, max_ops) > 0 {
                break;
            }
            if clients == 0 {
                return None;
            }
            self.park(idle());
        }
        // Keep draining while producers keep the shards non-empty; cut
        // once a re-scan after one yield finds nothing. The yield gives
        // a producer on this CPU the chance to queue its next burst —
        // without it a one-CPU embedder trades batches of one with the
        // engine.
        while ops.len() < max_ops {
            let room = max_ops - ops.len();
            if self.drain_into(&mut ops, &mut tickets, room) == 0 {
                std::thread::yield_now();
                if self.drain_into(&mut ops, &mut tickets, room) == 0 {
                    break;
                }
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        Some(Batch { seq, ops, tickets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokensync_core::erc20::Erc20Op;
    use tokensync_spec::AccountId;

    fn op(v: u64) -> Erc20Op {
        Erc20Op::Transfer {
            to: AccountId::new(0),
            value: v,
        }
    }

    #[test]
    fn size_cut_closes_full_batches() {
        let (client, mut batcher) = intake(BatchConfig {
            max_ops: 4,
            queue_depth: 64,
            intake_shards: 1,
        });
        for v in 0..10u64 {
            client.submit(ProcessId::new(0), op(v)).unwrap();
        }
        drop(client);
        let sizes: Vec<usize> = std::iter::from_fn(|| batcher.next_batch())
            .map(|b| b.ops.len())
            .collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn batches_are_numbered_and_ordered() {
        let (client, mut batcher) = intake(BatchConfig {
            max_ops: 3,
            queue_depth: 64,
            intake_shards: 1,
        });
        for v in 0..6u64 {
            client.submit(ProcessId::new(1), op(v)).unwrap();
        }
        drop(client);
        let b0 = batcher.next_batch().unwrap();
        let b1 = batcher.next_batch().unwrap();
        assert_eq!((b0.seq, b1.seq), (0, 1));
        let values: Vec<u64> = b0
            .ops
            .iter()
            .chain(&b1.ops)
            .map(|(_, o)| match o {
                Erc20Op::Transfer { value, .. } => *value,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(values, vec![0, 1, 2, 3, 4, 5]);
        assert!(batcher.next_batch().is_none());
    }

    #[test]
    fn lone_op_is_cut_without_a_timer() {
        let (client, mut batcher) = intake(BatchConfig {
            max_ops: 1000,
            queue_depth: 64,
            intake_shards: 8,
        });
        client.submit(ProcessId::new(0), op(1)).unwrap();
        // The producer is still alive and the batch far from full: the
        // cut is "the intake ran dry", nothing else.
        let batch = batcher.next_batch().unwrap();
        assert_eq!(batch.ops.len(), 1);
        drop(client);
        assert!(batcher.next_batch().is_none());
    }

    #[test]
    fn backlog_still_fills_batches_to_max_ops() {
        let (client, mut batcher) = intake(BatchConfig {
            max_ops: 4,
            queue_depth: 64,
            intake_shards: 1,
        });
        for v in 0..10u64 {
            client.submit(ProcessId::new(0), op(v)).unwrap();
        }
        let sizes: Vec<usize> = (0..3)
            .map(|_| batcher.next_batch().unwrap().ops.len())
            .collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        drop(client);
    }

    #[test]
    fn parked_consumer_is_rung_once_however_many_submit() {
        let (client, batcher) = intake(BatchConfig::default());
        // A consumer that parked and has not been scheduled since: the
        // flag is up until somebody claims it.
        batcher.intake.parked.store(true, Ordering::SeqCst);
        for v in 0..100u64 {
            client.submit(ProcessId::new(0), op(v)).unwrap();
        }
        assert_eq!(*batcher.intake.doorbell.lock().unwrap(), 1);
        assert!(!batcher.intake.parked.load(Ordering::SeqCst));
        assert_eq!(batcher.queued(), 100);
    }

    #[test]
    fn burst_admits_the_prefix_that_fits_and_keeps_fifo() {
        let (client, mut batcher) = intake(BatchConfig {
            max_ops: 64,
            queue_depth: 8,
            intake_shards: 1,
        });
        let tagged = |v: u64| (ProcessId::new(0), op(v), v + 1);
        // Part-fill the shard (cap 8), then offer more than the rest.
        assert_eq!(client.try_submit_burst(&mut (0..3).map(tagged)), Ok(3));
        let mut burst = (3..13).map(tagged);
        assert_eq!(client.try_submit_burst(&mut burst), Ok(5));
        let rest: Vec<u64> = burst.map(|(_, _, ticket)| ticket).collect();
        assert_eq!(rest, vec![9, 10, 11, 12, 13], "the refused suffix");
        assert_eq!(client.try_submit_burst(&mut (20..21).map(tagged)), Ok(0));
        let batch = batcher.next_batch().unwrap();
        assert_eq!(batch.tickets, (1..=8).collect::<Vec<u64>>());
        drop(batcher);
        assert_eq!(
            client.try_submit_burst(&mut (0..1).map(tagged)),
            Err(PipelineClosed)
        );
    }

    #[test]
    fn submit_after_shutdown_errors() {
        let (client, batcher) = intake::<Erc20Op>(BatchConfig::default());
        drop(batcher);
        assert_eq!(client.submit(ProcessId::new(0), op(0)), Err(PipelineClosed));
        assert_eq!(
            client.try_submit_burst(&mut std::iter::once((ProcessId::new(0), op(0), NO_TICKET))),
            Err(PipelineClosed)
        );
    }

    #[test]
    fn cloned_handles_land_on_distinct_shards() {
        let (client, batcher) = intake::<Erc20Op>(BatchConfig::default());
        let clones: Vec<_> = (0..8).map(|_| client.clone()).collect();
        let mut shards: Vec<usize> = std::iter::once(client.shard)
            .chain(clones.iter().map(|c| c.shard))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        assert!(
            shards.len() >= 8,
            "9 handles over 8 shards must cover every shard, got {shards:?}"
        );
        drop(batcher);
    }

    #[test]
    fn try_submit_reports_full_shard_without_blocking() {
        let (client, mut batcher) = intake(BatchConfig {
            max_ops: 4,
            queue_depth: 2,
            intake_shards: 2,
        });
        let one = |v: u64| {
            client.try_submit_burst(&mut std::iter::once((ProcessId::new(0), op(v), NO_TICKET)))
        };
        // Shard cap is 1: the second non-blocking submit on the same
        // handle must report full, not block or drop the op.
        assert_eq!(one(0), Ok(1));
        assert_eq!(one(1), Ok(0));
        assert_eq!(batcher.queued(), 1);
        let batch = batcher.next_batch().unwrap();
        assert_eq!(batch.ops.len(), 1);
        assert_eq!(one(2), Ok(1));
        drop(client);
        assert_eq!(batcher.next_batch().unwrap().ops.len(), 1);
        assert!(batcher.next_batch().is_none());
    }
}
