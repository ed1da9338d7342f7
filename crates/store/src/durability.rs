//! The background durability thread: pipelined group commit and
//! incremental snapshot publishing.
//!
//! One thread per [`Store`](crate::Store), spawned at open. The serving
//! thread never blocks on `fsync` or snapshot I/O at a batch seal — it
//! posts work over a channel and the thread:
//!
//! * **coalesces fsyncs** — queued sync requests collapse into one
//!   `sync_data` on the newest tail handle (safe because
//!   [`Wal::roll`](crate::wal::Wal) syncs the outgoing segment before
//!   switching files, so only the tail ever holds unsynced bytes), then
//!   advances the shared [`durable watermark`](DurShared::durable);
//! * **materializes state** — it keeps its own copy of the oracle state
//!   at the chain mark, folds each posted row-level delta onto it, and
//!   publishes the delta as a chained `snap-<mark>.delta` file (every
//!   `compact_every`-th publish is rewritten as a full snapshot from the
//!   materialized state, so full-state encoding also leaves the serving
//!   path).
//!
//! A published snapshot chain *is* a durable representation of its
//! prefix, so delta/full publishes advance the durable watermark too —
//! even when the corresponding WAL tail was never fsynced.
//!
//! Errors park in the shared slot (the store surfaces them on its next
//! call) and the thread keeps draining its queue so shutdown never
//! hangs.

use std::fs::File;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tokensync_core::codec::{Codec, StateCodec};
use tokensync_pipeline::commit::replay_verified;

use crate::error::StoreError;
use crate::obs::StoreObs;
use crate::recovery::{oracle, Restorable};
use crate::snapshot::{prune_chain, publish, write_snapshot};
use crate::wal::read_entries;

/// Work posted to the durability thread.
pub(crate) enum DurMsg<T: Restorable> {
    /// Make the log durable up to `target`: `sync_data` on `file` (a
    /// handle to the WAL tail segment at post time).
    Sync { target: u64, file: File },
    /// Publish an incremental snapshot: `delta` holds every row touched
    /// since the previous drain, bringing the chain to `watermark`.
    Delta { watermark: u64, delta: T::Delta },
    /// Publish a full snapshot of `state` at `watermark` and
    /// acknowledge (the synchronous [`Store::publish_snapshot`] path).
    ///
    /// [`Store::publish_snapshot`]: crate::Store::publish_snapshot
    Full {
        watermark: u64,
        state: T::State,
        ack: Sender<Result<(), StoreError>>,
    },
    /// Swap the recorder seam (obs can be attached after open).
    SetObs(StoreObs),
    /// Drain and exit.
    Shutdown,
}

/// State shared between the store handle and its durability thread.
#[derive(Debug)]
pub(crate) struct DurShared {
    /// Highest sequence number known durable: fsynced WAL prefix or
    /// published snapshot chain, whichever reaches further.
    durable: AtomicU64,
    /// WAL GC floor published by the snapshotter (the oldest kept full
    /// snapshot's watermark); the serving thread applies it lazily.
    gc_floor: AtomicU64,
    /// Crash-simulation switch: queued work is dropped, durability
    /// freezes where it is.
    kill: AtomicBool,
    /// First background error, parked for the store handle.
    err: Mutex<Option<StoreError>>,
    /// Signals durable-watermark advances and parked errors.
    cv: Condvar,
}

impl DurShared {
    pub(crate) fn new(durable: u64) -> Self {
        Self {
            durable: AtomicU64::new(durable),
            gc_floor: AtomicU64::new(0),
            kill: AtomicBool::new(false),
            err: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// The durable watermark.
    pub(crate) fn durable(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// The published WAL GC floor.
    pub(crate) fn gc_floor(&self) -> u64 {
        self.gc_floor.load(Ordering::Acquire)
    }

    /// Raises the durable watermark (monotone) and wakes waiters.
    pub(crate) fn advance(&self, to: u64) {
        self.durable.fetch_max(to, Ordering::AcqRel);
        // Lock-then-notify so a waiter between its check and its wait
        // cannot miss the advance.
        drop(self.err.lock().expect("durability slot poisoned"));
        self.cv.notify_all();
    }

    fn publish_floor(&self, floor: u64) {
        self.gc_floor.fetch_max(floor, Ordering::AcqRel);
    }

    pub(crate) fn killed(&self) -> bool {
        self.kill.load(Ordering::Acquire)
    }

    pub(crate) fn kill(&self) {
        self.kill.store(true, Ordering::Release);
        drop(self.err.lock().expect("durability slot poisoned"));
        self.cv.notify_all();
    }

    /// Parks `e` (first error wins) and wakes waiters.
    fn park(&self, e: StoreError) {
        let mut slot = self.err.lock().expect("durability slot poisoned");
        if slot.is_none() {
            *slot = Some(e);
        }
        drop(slot);
        self.cv.notify_all();
    }

    /// Moves the parked error out, if any.
    pub(crate) fn take_error(&self) -> Option<StoreError> {
        self.err.lock().expect("durability slot poisoned").take()
    }

    /// Blocks until the durable watermark reaches `seq`. `Err` means
    /// the thread parked an error (or was killed) — the caller polls
    /// [`DurShared::take_error`] for the cause.
    pub(crate) fn wait_durable(&self, seq: u64) -> Result<(), ()> {
        let mut slot = self.err.lock().expect("durability slot poisoned");
        loop {
            if self.durable.load(Ordering::Acquire) >= seq {
                return Ok(());
            }
            if slot.is_some() || self.killed() {
                return Err(());
            }
            slot = self.cv.wait(slot).expect("durability slot poisoned");
        }
    }
}

/// The store's handle on its durability thread.
#[derive(Debug)]
pub(crate) struct DurHandle<T: Restorable> {
    pub(crate) tx: Sender<DurMsg<T>>,
    pub(crate) handle: JoinHandle<()>,
}

/// Spawns the durability thread. `mark`/`state` is the resolved
/// snapshot-chain top; `open_base` the WAL position at open — the point
/// the serving token's dirty tracking starts from, which the thread
/// catches up to (by replaying `[mark, open_base)` from the log) before
/// folding the first delta.
pub(crate) fn spawn<T>(
    dir: PathBuf,
    mark: u64,
    state: T::State,
    open_base: u64,
    snapshots_kept: usize,
    compact_every: u64,
    obs: StoreObs,
    shared: Arc<DurShared>,
) -> DurHandle<T>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("tokensync-durability".into())
        .spawn(move || {
            let mut worker = Worker::<T> {
                dir,
                mark,
                state,
                open_base,
                snapshots_kept: snapshots_kept.max(1),
                compact_every: compact_every.max(1),
                since_full: 0,
                obs,
                shared,
            };
            worker.run(&rx);
        })
        .expect("spawn durability thread");
    DurHandle { tx, handle }
}

struct Worker<T: Restorable> {
    dir: PathBuf,
    /// Position of the materialized `state`.
    mark: u64,
    /// The oracle state at `mark` — folded forward by deltas, replaced
    /// by fulls, the source of compaction snapshots.
    state: T::State,
    /// WAL position at store open; `[mark, open_base)` must be replayed
    /// from the log before the first delta folds (the serving token's
    /// tracking window starts there).
    open_base: u64,
    snapshots_kept: usize,
    compact_every: u64,
    /// Delta publishes since the last full.
    since_full: u64,
    obs: StoreObs,
    shared: Arc<DurShared>,
}

impl<T> Worker<T>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    fn run(&mut self, rx: &Receiver<DurMsg<T>>) {
        let mut queue: Vec<DurMsg<T>> = Vec::new();
        'serve: loop {
            queue.clear();
            match rx.recv() {
                Ok(msg) => queue.push(msg),
                Err(_) => break, // handle dropped without shutdown
            }
            while let Ok(msg) = rx.try_recv() {
                queue.push(msg);
            }
            // Coalesce fsyncs: post order is monotone in target, so the
            // last queued handle covers them all — one sync_data
            // acknowledges every batch behind it.
            let mut sync: Option<(u64, File)> = None;
            for msg in queue.drain(..) {
                if self.shared.killed() {
                    // Crash simulation: drop work, unblock publishers.
                    match msg {
                        DurMsg::Full { ack, .. } => {
                            let _ = ack.send(Err(StoreError::Io(std::io::Error::new(
                                std::io::ErrorKind::Interrupted,
                                "durability thread killed",
                            ))));
                        }
                        DurMsg::Shutdown => break 'serve,
                        _ => {}
                    }
                    continue;
                }
                match msg {
                    DurMsg::Sync { target, file } => sync = Some((target, file)),
                    DurMsg::Delta { watermark, delta } => self.publish_delta(watermark, &delta),
                    DurMsg::Full {
                        watermark,
                        state,
                        ack,
                    } => {
                        let res = self.publish_full(watermark, state);
                        let _ = ack.send(res);
                    }
                    DurMsg::SetObs(obs) => self.obs = obs,
                    DurMsg::Shutdown => {
                        if let Some((target, file)) = sync.take() {
                            self.do_sync(target, &file);
                        }
                        break 'serve;
                    }
                }
            }
            if let Some((target, file)) = sync {
                self.do_sync(target, &file);
            }
        }
    }

    fn do_sync(&mut self, target: u64, file: &File) {
        if self.shared.killed() || self.shared.durable() >= target {
            return;
        }
        let started = self.obs.clock();
        match file.sync_data() {
            Ok(()) => {
                self.obs.record_fsync(started);
                self.shared.advance(target);
                self.obs.record_durable(self.shared.durable());
            }
            Err(e) => self.shared.park(e.into()),
        }
    }

    /// Replays `[self.mark, self.open_base)` from the log through the
    /// sequential oracle, so the materialized state reaches the point
    /// the serving token's dirty tracking started from. The records are
    /// on disk (they were scanned at open, and the GC floor cannot pass
    /// them before this thread publishes something newer).
    fn catch_up(&mut self) -> Result<(), StoreError> {
        if self.mark >= self.open_base {
            return Ok(());
        }
        let (live, resumes, _) = read_entries::<T::Op, T::Resp>(
            &self.dir,
            <T::State as StateCodec>::STANDARD,
            <T::State as StateCodec>::VERSION,
            self.mark,
        )?;
        let run = &live[..live.len().min((self.open_base - self.mark) as usize)];
        replay_verified(&oracle::<T>(), &mut self.state, run)?;
        self.mark += run.len() as u64;
        if self.mark == self.open_base {
            return Ok(());
        }
        // The run stopped short: a log that resumes past a hole below
        // the open position diverges there; otherwise the suffix is gone.
        if let Some(seq) = resumes.filter(|&seq| seq < self.open_base) {
            return Err(StoreError::Divergence { seq });
        }
        Err(StoreError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "log suffix below the open position is no longer readable",
        )))
    }

    fn publish_delta(&mut self, watermark: u64, delta: &T::Delta) {
        if let Err(e) = self.try_publish_delta(watermark, delta) {
            self.shared.park(e);
        }
    }

    fn try_publish_delta(&mut self, watermark: u64, delta: &T::Delta) -> Result<(), StoreError> {
        self.catch_up()?;
        let started = self.obs.clock();
        if !T::apply_delta(&mut self.state, delta) {
            return Err(StoreError::Divergence { seq: watermark });
        }
        let base = self.mark;
        self.mark = watermark;
        self.since_full += 1;
        if self.since_full >= self.compact_every {
            // Periodic compaction: rewrite the chain as one full
            // snapshot from the materialized state.
            write_snapshot(&self.dir, watermark, &self.state)?;
            self.since_full = 0;
            self.obs.record_snapshot(started);
        } else {
            let tag = (
                <T::State as StateCodec>::STANDARD,
                <T::State as StateCodec>::VERSION,
            );
            publish(&self.dir, tag, watermark, Some(base), delta)?;
            self.obs.record_delta_snapshot(started);
        }
        self.after_publish(watermark)
    }

    fn publish_full(&mut self, watermark: u64, state: T::State) -> Result<(), StoreError> {
        let started = self.obs.clock();
        self.state = state;
        // A full supersedes the materialized chain wholesale — any
        // pending catch-up replay is moot (`watermark >= open_base`:
        // fulls are cut at the live log position).
        self.mark = watermark;
        self.since_full = 0;
        write_snapshot(&self.dir, watermark, &self.state)?;
        self.obs.record_snapshot(started);
        self.after_publish(watermark)
    }

    /// Prunes the chain, publishes the WAL GC floor, and advances the
    /// durable watermark — a published chain is durable on its own.
    fn after_publish(&mut self, watermark: u64) -> Result<(), StoreError> {
        let floor = prune_chain(&self.dir, self.snapshots_kept)?;
        self.shared.publish_floor(floor);
        self.shared.advance(watermark);
        self.obs.record_durable(self.shared.durable());
        Ok(())
    }
}
