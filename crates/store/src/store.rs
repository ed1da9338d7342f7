//! The durable store: the pipeline's [`CommitSink`], wired to the WAL,
//! a background durability thread, and the snapshotter.

use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tokensync_core::codec::{Codec, StateCodec};
use tokensync_pipeline::{CommitSink, CommittedOp};

use tokensync_obs::Stage;

use crate::durability::{self, DurHandle, DurMsg, DurShared};
use crate::error::StoreError;
use crate::obs::StoreObs;
use crate::recovery::{resolve_chain, Restorable};
use crate::snapshot::{clear_tmp, write_snapshot, Kind};
use crate::wal::{numbered_files, Wal, SEG_PREFIX, SEG_SUFFIX};

/// Store tuning.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Publish a snapshot after this many committed operations since
    /// the last one (`0` = only the genesis snapshot; the whole log
    /// replays on recovery).
    pub snapshot_every_ops: u64,
    /// Roll to a fresh WAL segment once the current one exceeds this.
    pub segment_max_bytes: u64,
    /// How many published **full** snapshots to keep (older fulls and
    /// the deltas they cover are pruned; at least 1).
    pub snapshots_kept: usize,
    /// Every `compact_every`-th snapshot publish is written as a
    /// full snapshot cut from the live object at the seal, bounding
    /// chain length (at least 1; 1 = every publish is full).
    pub compact_every: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            snapshot_every_ops: 0,
            segment_max_bytes: 64 << 20,
            snapshots_kept: 2,
            compact_every: 4,
        }
    }
}

/// A durable store for one served object: a segmented write-ahead
/// commit log plus periodic snapshots, generic over the standard via
/// the [`Codec`]/[`StateCodec`] bounds — one store type serves ERC20,
/// ERC721 and ERC1155.
///
/// The store *is* a [`CommitSink`]: hand it to
/// [`run_script_with_sink`](tokensync_pipeline::run_script_with_sink)
/// or [`Pipeline::spawn_with_sink`](tokensync_pipeline::Pipeline::spawn_with_sink)
/// and every committed batch streams into the WAL as it enters the
/// commit log.
///
/// Each store owns a background **durability thread** (see [`store`
/// module](crate) docs): the serving thread never fsyncs, it posts
/// sync requests at batch seals and the thread coalesces them;
/// periodic snapshots are drained as row deltas (every
/// `compact_every`-th as a full state cut from the live object) and
/// written off-thread.
/// [`Store::durable_seq`] is the explicit watermark separating
/// *acknowledged* from *crash-proof*;
/// [`Store::wait_durable`]/[`Store::flush`] block on it.
///
/// # Examples
///
/// ```
/// use tokensync_core::erc20::{Erc20Op, Erc20State};
/// use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
/// use tokensync_pipeline::{run_script_with_sink, PipelineConfig};
/// use tokensync_spec::{AccountId, ProcessId};
/// use tokensync_store::{recover, Store, StoreConfig};
///
/// let dir = std::env::temp_dir().join(format!("tokensync-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let genesis = Erc20State::from_balances(vec![10; 4]);
/// let token = ShardedErc20::from_state(genesis.clone());
/// let mut store: Store<ShardedErc20> =
///     Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
///
/// let script = vec![(ProcessId::new(0), Erc20Op::Transfer {
///     to: AccountId::new(1),
///     value: 4,
/// })];
/// run_script_with_sink(&token, &script, &PipelineConfig::default(), &mut store);
/// store.close().unwrap();
///
/// // A "restart": rebuild the live object from disk alone.
/// let recovered = recover::<ShardedErc20>(&dir).unwrap();
/// assert_eq!(recovered.object.snapshot(), token.snapshot());
/// assert_eq!(recovered.replayed, 1);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct Store<T: Restorable> {
    dir: PathBuf,
    cfg: StoreConfig,
    wal: Wal,
    /// Watermark of the newest snapshot trigger (the last delta drain
    /// point / full publish position).
    watermark: u64,
    /// Ops appended since that point.
    ops_since_snapshot: u64,
    /// Delta links posted on top of the newest full snapshot.
    links_since_full: u64,
    /// The next trigger must post a full snapshot: the chain top is
    /// below the position the token's dirty tracking started from (set
    /// at an open over a log suffix the chain does not cover).
    full_due: bool,
    /// The durable position when this store handle was opened: engine
    /// runs number their commits from 0, so WAL appends translate a
    /// run-relative `seq` to the global `base + seq`.
    base: u64,
    /// First error hit on the write path; once set, the store stops
    /// writing (the commit-sink interface is infallible, so errors are
    /// parked here for the owner to inspect).
    error: Option<StoreError>,
    /// Watermark state shared with the durability thread.
    shared: Arc<DurShared>,
    /// The durability thread (taken at shutdown).
    dur: Option<DurHandle<T>>,
    /// Newest WAL GC floor this handle has applied (the thread only
    /// publishes floors; the serving thread owns the `Wal`).
    applied_gc_floor: u64,
    /// Recorder seam (disabled by default): snapshot timing and span
    /// events; the WAL holds its own clone for append/fsync I/O.
    obs: StoreObs,
    _object: PhantomData<fn(T)>,
}

impl<T> Store<T>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    /// Initializes a fresh store in `dir` (created if missing): writes
    /// the genesis snapshot at watermark 0 and an empty first segment,
    /// and starts at that chain (mark 0, no delta links) without reading
    /// the snapshot back.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyInitialized`] if `dir` already holds store
    /// files (full or delta snapshots, or log segments); I/O errors
    /// otherwise.
    pub fn create(dir: &Path, genesis: &T::State, cfg: StoreConfig) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        if !Kind::Full.files(dir)?.is_empty()
            || !Kind::Delta.files(dir)?.is_empty()
            || !numbered_files(dir, SEG_PREFIX, SEG_SUFFIX)?.is_empty()
        {
            return Err(StoreError::AlreadyInitialized);
        }
        clear_tmp(dir)?;
        write_snapshot(dir, 0, genesis)?;
        Self::start(dir, cfg, 0, 0)
    }

    /// Opens an existing store for appending: truncates any torn WAL
    /// tail, clears stale `.tmp` files, positions the writer after the
    /// last valid record, and spawns the durability thread at the
    /// resolved snapshot chain's mark.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSnapshot`] if the directory was never
    /// initialized; [`StoreError::WrongStandard`] if it belongs to a
    /// different standard or codec version;
    /// [`StoreError::Divergence`] at the seq where the log resumes if
    /// it has a hole above the chain mark; I/O errors otherwise.
    pub fn open(dir: &Path, cfg: StoreConfig) -> Result<Self, StoreError> {
        clear_tmp(dir)?;
        // The *validated* newest snapshot chain (corrupt links are
        // skipped, a foreign directory errors): its mark is both the GC
        // bookkeeping floor and the sequence floor the WAL may never
        // restart below.
        let chain = resolve_chain::<T>(dir)?;
        Self::start(dir, cfg, chain.mark, chain.links)
    }

    /// Opens the WAL above the snapshot chain ending at `mark` (`links`
    /// deltas above its full snapshot) and spawns the durability thread.
    fn start(dir: &Path, cfg: StoreConfig, mark: u64, links: u64) -> Result<Self, StoreError> {
        let wal = Wal::open(
            dir,
            <T::State as StateCodec>::STANDARD,
            <T::State as StateCodec>::VERSION,
            cfg.segment_max_bytes,
            mark,
        )?;
        if let Some(seq) = wal.resumes_past_hole() {
            return Err(StoreError::Divergence { seq });
        }
        let ops_since_snapshot = wal.next_seq().saturating_sub(mark);
        let base = wal.next_seq();
        // Everything scanned at open sits on disk: the handle starts
        // with its whole history durable.
        let shared = Arc::new(DurShared::new(base));
        let obs = StoreObs::disabled();
        let dur = durability::spawn::<T>(
            dir.to_path_buf(),
            mark,
            cfg.snapshots_kept,
            obs.clone(),
            Arc::clone(&shared),
        );
        Ok(Self {
            dir: dir.to_path_buf(),
            cfg,
            wal,
            watermark: mark,
            ops_since_snapshot,
            links_since_full: links,
            // The token's tracking starts at `base`: a delta drained
            // from it cannot link to a chain top below that.
            full_due: mark < base,
            base,
            error: None,
            shared,
            dur: Some(dur),
            applied_gc_floor: 0,
            obs,
            _object: PhantomData,
        })
    }

    /// Attaches a recorder: WAL append/fsync latency, byte/segment
    /// counters, snapshot timing and the durable-watermark gauge record
    /// into it from then on (see [`StoreObs`]).
    pub fn set_obs(&mut self, obs: StoreObs) {
        self.wal.set_obs(obs.clone());
        self.post(DurMsg::SetObs(obs.clone()));
        obs.record_durable(self.shared.durable());
        self.obs = obs;
    }

    /// The attached recorder (disabled unless [`Store::set_obs`] was
    /// called) — read counters and latency summaries here.
    pub fn obs(&self) -> &StoreObs {
        &self.obs
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// First sequence number not yet appended (== committed ops if the
    /// store has written the whole history).
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Watermark of the newest snapshot trigger (full publish or delta
    /// drain point).
    pub fn snapshot_watermark(&self) -> u64 {
        self.watermark
    }

    /// The durable watermark: every operation at or below this sequence
    /// number survives any crash (its WAL prefix is fsynced, or a
    /// published snapshot chain covers it). This trails
    /// [`Store::next_seq`] by the batches whose background fsync has not
    /// landed yet — that gap *is* the acknowledge-at-commit /
    /// durable-at-fsync window.
    pub fn durable_seq(&self) -> u64 {
        self.shared.durable()
    }

    /// Blocks until [`Store::durable_seq`] reaches `seq`. The caller is
    /// responsible for `seq` being covered by posted work (at most
    /// [`Store::next_seq`], with a seal or [`Store::flush`] behind it).
    ///
    /// # Errors
    ///
    /// If the durability thread parked an error, it is surfaced via
    /// [`Store::error`] and an `Interrupted` I/O error is returned.
    pub fn wait_durable(&mut self, seq: u64) -> Result<(), StoreError> {
        if self.shared.wait_durable(seq).is_ok() {
            // The durability thread records the gauge *after* the
            // advance that woke this waiter; re-record here so the
            // exported watermark is exact the moment the wait returns.
            self.obs.record_durable(self.shared.durable());
            return Ok(());
        }
        self.poll_thread_error();
        Err(StoreError::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "durability thread failed or was killed; see Store::error",
        )))
    }

    /// Makes everything appended so far durable: posts a sync covering
    /// [`Store::next_seq`] and blocks until the watermark reaches it.
    ///
    /// # Errors
    ///
    /// The first parked write error, on this and every later flush
    /// (the error stays latched); thread failures as
    /// [`Store::wait_durable`].
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.poll_thread_error();
        if let Some(e) = &self.error {
            // `io::Error` is not `Clone`: report a copy, keep the latch.
            let again = match e {
                StoreError::Io(io) => std::io::Error::new(io.kind(), io.to_string()),
                other => std::io::Error::other(other.to_string()),
            };
            return Err(StoreError::Io(again));
        }
        let target = self.wal.next_seq();
        if self.shared.durable() >= target {
            return Ok(());
        }
        let file = self.wal.tail_handle()?;
        self.post(DurMsg::Sync { target, file });
        self.wait_durable(target)
    }

    /// The first write-path error, if the store is poisoned. Writes
    /// stop at the first error; callers that care about durability must
    /// check this (or use [`Store::close`]) after a run. Background
    /// (durability-thread) errors are folded in here too.
    pub fn error(&mut self) -> Option<&StoreError> {
        self.poll_thread_error();
        self.error.as_ref()
    }

    /// Total WAL bytes currently on disk (diagnostic).
    pub fn wal_bytes(&self) -> Result<u64, StoreError> {
        self.wal.disk_bytes()
    }

    /// The replication epoch stamped into new WAL segments.
    pub fn epoch(&self) -> u64 {
        self.wal.epoch()
    }

    /// Durably raises the replication epoch — the fencing write of a
    /// promotion (see [`Wal::set_epoch`](crate::wal::Wal::set_epoch)).
    ///
    /// # Errors
    ///
    /// I/O errors from the restamp or roll.
    pub fn set_epoch(&mut self, epoch: u64) -> Result<(), StoreError> {
        self.wal.set_epoch(epoch)
    }

    /// A tailing [`WalCursor`](crate::cursor::WalCursor) over this
    /// store's log starting at `from_seq`, pinning segments against GC
    /// while it reads. The replication primary tails its own log here.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRetention`] when `from_seq` is below the
    /// oldest retained record — fall back to snapshot shipping.
    pub fn cursor(&self, from_seq: u64) -> Result<crate::cursor::WalCursor, StoreError> {
        self.wal.cursor(from_seq)
    }

    /// The `first_seq` of the oldest WAL segment still on disk — the
    /// lower bound [`Store::cursor`] can serve from.
    pub fn oldest_retained_seq(&self) -> Result<u64, StoreError> {
        self.wal.oldest_segment_seq()
    }

    /// Simulates a crash of the durability machinery: queued fsyncs and
    /// snapshot publishes are dropped, the durable watermark freezes
    /// where it is, and neither close nor drop will sync anything
    /// further. Crash-window tests kill a store here and assert that
    /// recovery reaches at least [`Store::durable_seq`].
    #[doc(hidden)]
    pub fn abandon(&mut self) {
        self.shared.kill();
        self.error.get_or_insert(StoreError::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "store abandoned (simulated crash)",
        )));
    }

    /// Syncs outstanding appends, retires the durability thread, and
    /// surfaces any parked write error.
    ///
    /// # Errors
    ///
    /// The first parked write error, or the final sync's.
    pub fn close(mut self) -> Result<(), StoreError> {
        self.poll_thread_error();
        if let Some(e) = self.error.take() {
            self.shutdown_thread();
            return Err(e);
        }
        match self.wal.sync() {
            Ok(()) => self.advance_durable(self.wal.next_seq()),
            Err(e) => {
                self.shutdown_thread();
                return Err(e);
            }
        }
        self.shutdown_thread();
        if let Some(e) = self.shared.take_error() {
            return Err(e);
        }
        Ok(())
    }

    /// Publishes a full snapshot of `state` at the current log position
    /// and garbage-collects segments and snapshots it supersedes. The
    /// state must reflect exactly the operations appended so far (the
    /// engine guarantees this at batch seals). Synchronous: the
    /// snapshot is on disk when this returns — the write itself happens
    /// on the durability thread, with this call blocking on the
    /// acknowledgement.
    ///
    /// # Errors
    ///
    /// I/O errors from the write, rename, or GC.
    pub fn publish_snapshot(&mut self, state: &T::State) -> Result<(), StoreError> {
        // The log must be on disk before the snapshot that supersedes
        // it: a snapshot may outlive the segments GC deletes.
        self.wal.sync()?;
        self.advance_durable(self.wal.next_seq());
        let watermark = self.wal.next_seq();
        let (ack_tx, ack_rx) = std::sync::mpsc::channel();
        self.post(DurMsg::Full {
            watermark,
            state: state.clone(),
            ack: Some(ack_tx),
        });
        match ack_rx.recv() {
            Ok(res) => res?,
            Err(_) => {
                return Err(StoreError::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "durability thread gone before acknowledging the snapshot",
                )))
            }
        }
        self.watermark = watermark;
        self.ops_since_snapshot = 0;
        self.links_since_full = 0;
        self.full_due = false;
        self.apply_gc_floor()?;
        Ok(())
    }

    /// Posts to the durability thread; a dead thread parks an error.
    pub(crate) fn post(&mut self, msg: DurMsg<T>) {
        let alive = match &self.dur {
            Some(d) => d.tx.send(msg).is_ok(),
            None => false,
        };
        if !alive && self.error.is_none() {
            self.error = Some(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "durability thread is gone",
            )));
        }
    }

    /// Moves a background error into the write-path slot (first wins).
    fn poll_thread_error(&mut self) {
        if self.error.is_none() {
            if let Some(e) = self.shared.take_error() {
                self.error = Some(e);
            }
        }
    }

    fn advance_durable(&self, to: u64) {
        self.shared.advance(to);
        self.obs.record_durable(self.shared.durable());
    }

    /// Applies the thread-published WAL GC floor, if it moved.
    fn apply_gc_floor(&mut self) -> Result<(), StoreError> {
        let floor = self.shared.gc_floor();
        if floor > self.applied_gc_floor {
            self.wal.gc(floor)?;
            self.applied_gc_floor = floor;
        }
        Ok(())
    }

    fn try_wave(&mut self, entries: &[CommittedOp<T::Op, T::Resp>]) -> Result<(), StoreError> {
        // Engine runs number their commits from 0, and within one run
        // sequence numbers only grow — so seq 0 arriving after this
        // handle has already appended marks a *new* run on the same
        // store: rebase to the current durable position instead of
        // tripping the WAL's contiguity assert.
        let batch = match entries.first() {
            Some(head) => {
                if head.seq == 0 && self.wal.next_seq() > self.base {
                    self.base = self.wal.next_seq();
                }
                head.batch
            }
            None => 0,
        };
        let started = self.obs.clock();
        self.wal.append(self.base, entries)?;
        self.obs.span(batch, Stage::WalAppend, started);
        self.ops_since_snapshot += entries.len() as u64;
        Ok(())
    }

    fn try_seal(&mut self, token: &T, batch: u64) -> Result<(), StoreError> {
        // Pipelined group commit: post the sync, keep serving. The
        // thread coalesces a backlog into one fsync.
        let target = self.wal.next_seq();
        if self.shared.durable() < target {
            let file = self.wal.tail_handle()?;
            self.post(DurMsg::Sync { target, file });
        }
        if self.cfg.snapshot_every_ops > 0 && self.ops_since_snapshot >= self.cfg.snapshot_every_ops
        {
            // Drain the rows touched since the last drain — no
            // full-state encode — and let the thread publish them as
            // the next chain link.
            let started = self.obs.clock();
            let watermark = self.wal.next_seq();
            let delta = token.drain_delta();
            let touched = delta != T::Delta::default();
            if self.full_due
                || (touched && self.links_since_full + 1 >= self.cfg.compact_every.max(1))
            {
                // Compaction: the token is quiescent at a seal, so its
                // snapshot is the state at `watermark`; the drain above
                // only reset the tracking for the next link.
                let state = token.snapshot();
                self.post(DurMsg::Full {
                    watermark,
                    state,
                    ack: None,
                });
                self.links_since_full = 0;
                self.full_due = false;
            } else if touched {
                self.post(DurMsg::Delta { watermark, delta });
                self.links_since_full += 1;
            }
            // An all-read window dirties nothing: skipping the publish
            // is safe (the next delta's wider window covers the
            // unchanged stretch), but the drain point advances either
            // way.
            self.watermark = watermark;
            self.ops_since_snapshot = 0;
            self.obs.span(batch, Stage::SnapshotWrite, started);
        }
        self.apply_gc_floor()?;
        Ok(())
    }
}

impl<T: Restorable> Store<T> {
    fn shutdown_thread(&mut self) {
        if let Some(d) = self.dur.take() {
            let _ = d.tx.send(DurMsg::Shutdown);
            let _ = d.handle.join();
        }
    }
}

impl<T: Restorable> Drop for Store<T> {
    fn drop(&mut self) {
        self.shutdown_thread();
    }
}

impl<T> CommitSink<T> for Store<T>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    fn wave_committed(&mut self, _token: &T, entries: &[CommittedOp<T::Op, T::Resp>]) {
        self.poll_thread_error();
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.try_wave(entries) {
            self.error = Some(e);
        }
    }

    fn batch_sealed(&mut self, token: &T, batch: u64) {
        self.poll_thread_error();
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.try_seal(token, batch) {
            self.error = Some(e);
        }
    }

    fn durable_seq(&self) -> Option<u64> {
        Some(self.shared.durable())
    }
}
