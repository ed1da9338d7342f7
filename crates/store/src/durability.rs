//! The background durability thread: pipelined group commit and
//! snapshot publishing.
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
//! * **publishes snapshots** — a posted row-level delta becomes a
//!   chained `snap-<mark>.delta` file linked to the last published
//!   watermark, and a posted full state becomes a `snap-<mark>.snap`.
//!   The thread keeps no copy of the state: compaction fulls are cut
//!   from the live object at the seal (see `Store::try_seal`) and only
//!   their encoding and write happen here.
//!
//! A published snapshot chain *is* a durable representation of its
//! prefix, so delta/full publishes advance the durable watermark too —
//! even when the corresponding WAL tail was never fsynced.
//!
//! Errors park in the shared slot (the store surfaces them on its next
//! call) and the thread keeps draining its queue so shutdown never
//! hangs. The first error also latches: the durable watermark never
//! moves again and no further `sync_data` runs. After a failed `fsync`
//! Linux may drop the dirty pages it could not write, so a later
//! `fsync` that succeeds proves nothing about the range that failed.

use std::fs::File;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tokensync_core::codec::StateCodec;

use crate::error::StoreError;
use crate::obs::StoreObs;
use crate::recovery::Restorable;
use crate::snapshot::{prune_chain, publish, write_snapshot};

/// Work posted to the durability thread.
pub(crate) enum DurMsg<T: Restorable> {
    /// Make the log durable up to `target`: `sync_data` on `file` (a
    /// handle to the WAL tail segment at post time).
    Sync { target: u64, file: File },
    /// Publish an incremental snapshot: `delta` holds every row touched
    /// since the previous drain, bringing the chain to `watermark`.
    Delta { watermark: u64, delta: T::Delta },
    /// Publish a full snapshot of `state` at `watermark`, acknowledging
    /// on `ack` if one is given (the synchronous
    /// [`Store::publish_snapshot`] path; a compaction seal posts none).
    ///
    /// [`Store::publish_snapshot`]: crate::Store::publish_snapshot
    Full {
        watermark: u64,
        state: T::State,
        ack: Option<Sender<Result<(), StoreError>>>,
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
    /// Latched by the first background error, and never cleared:
    /// durability freezes where it is, as on a kill.
    failed: AtomicBool,
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
            failed: AtomicBool::new(false),
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

    /// Raises the durable watermark (monotone) and wakes waiters; once
    /// an error has latched, the watermark stays where it is.
    pub(crate) fn advance(&self, to: u64) {
        // Under the slot's lock, so no advance lands after a latch, and
        // a waiter between its check and its wait cannot miss it.
        let slot = self.err.lock().expect("durability slot poisoned");
        if !self.failed() {
            self.durable.fetch_max(to, Ordering::AcqRel);
        }
        drop(slot);
        self.cv.notify_all();
    }

    fn publish_floor(&self, floor: u64) {
        self.gc_floor.fetch_max(floor, Ordering::AcqRel);
    }

    pub(crate) fn killed(&self) -> bool {
        self.kill.load(Ordering::Acquire)
    }

    /// Whether a background error has latched.
    fn failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    pub(crate) fn kill(&self) {
        self.kill.store(true, Ordering::Release);
        drop(self.err.lock().expect("durability slot poisoned"));
        self.cv.notify_all();
    }

    /// Latches the failure, parks `e` (first error wins) and wakes
    /// waiters.
    fn park(&self, e: StoreError) {
        let mut slot = self.err.lock().expect("durability slot poisoned");
        if !self.failed.swap(true, Ordering::AcqRel) {
            *slot = Some(e);
        }
        drop(slot);
        self.cv.notify_all();
    }

    /// Moves the parked error out, if any. The latch stays set.
    pub(crate) fn take_error(&self) -> Option<StoreError> {
        self.err.lock().expect("durability slot poisoned").take()
    }

    /// Blocks until the durable watermark reaches `seq`. `Err` means
    /// an error latched (or the thread was killed) first — the caller
    /// polls [`DurShared::take_error`] for the cause.
    pub(crate) fn wait_durable(&self, seq: u64) -> Result<(), ()> {
        let mut slot = self.err.lock().expect("durability slot poisoned");
        loop {
            if self.durable.load(Ordering::Acquire) >= seq {
                return Ok(());
            }
            if self.failed() || self.killed() {
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

/// Spawns the durability thread. `mark` is the resolved snapshot-chain
/// top: the base the first posted delta links to.
pub(crate) fn spawn<T>(
    dir: PathBuf,
    mark: u64,
    snapshots_kept: usize,
    obs: StoreObs,
    shared: Arc<DurShared>,
) -> DurHandle<T>
where
    T: Restorable,
    T::State: StateCodec,
{
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("tokensync-durability".into())
        .spawn(move || {
            let mut worker = Worker {
                dir,
                mark,
                snapshots_kept: snapshots_kept.max(1),
                obs,
                shared,
            };
            worker.run::<T>(&rx);
        })
        .expect("spawn durability thread");
    DurHandle { tx, handle }
}

struct Worker {
    dir: PathBuf,
    /// Watermark of the last published snapshot — the base the next
    /// delta links to.
    mark: u64,
    snapshots_kept: usize,
    obs: StoreObs,
    shared: Arc<DurShared>,
}

impl Worker {
    fn run<T>(&mut self, rx: &Receiver<DurMsg<T>>)
    where
        T: Restorable,
        T::State: StateCodec,
    {
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
                        DurMsg::Full { ack: Some(ack), .. } => {
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
                    DurMsg::Delta { watermark, delta } => {
                        let res = self.publish_delta::<T>(watermark, &delta);
                        self.park(res);
                    }
                    DurMsg::Full {
                        watermark,
                        state,
                        ack,
                    } => {
                        let res = self.publish_full(watermark, &state);
                        match ack {
                            Some(ack) => drop(ack.send(res)),
                            None => self.park(res),
                        }
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
        if self.shared.killed() || self.shared.failed() || self.shared.durable() >= target {
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

    fn park(&self, res: Result<(), StoreError>) {
        if let Err(e) = res {
            self.shared.park(e);
        }
    }

    /// Publishes `delta` as the chain link `[self.mark, watermark)`.
    fn publish_delta<T>(&mut self, watermark: u64, delta: &T::Delta) -> Result<(), StoreError>
    where
        T: Restorable,
        T::State: StateCodec,
    {
        let started = self.obs.clock();
        let tag = (
            <T::State as StateCodec>::STANDARD,
            <T::State as StateCodec>::VERSION,
        );
        publish(&self.dir, tag, watermark, Some(self.mark), delta)?;
        self.obs.record_delta_snapshot(started);
        self.after_publish(watermark)
    }

    fn publish_full<S: StateCodec>(&mut self, watermark: u64, state: &S) -> Result<(), StoreError> {
        let started = self.obs.clock();
        write_snapshot(&self.dir, watermark, state)?;
        self.obs.record_snapshot(started);
        self.after_publish(watermark)
    }

    /// Prunes the chain, publishes the WAL GC floor, and advances the
    /// durable watermark — a published chain is durable on its own.
    fn after_publish(&mut self, watermark: u64) -> Result<(), StoreError> {
        self.mark = watermark;
        let floor = prune_chain(&self.dir, self.snapshots_kept)?;
        self.shared.publish_floor(floor);
        self.shared.advance(watermark);
        self.obs.record_durable(self.shared.durable());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    use tokensync_core::erc20::Erc20State;
    use tokensync_core::shared::ShardedErc20;

    use super::*;
    use crate::{Store, StoreConfig};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tokensync-durability-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// `fdatasync` on `/dev/null` fails (`EINVAL` on Linux).
    fn failing_file() -> File {
        OpenOptions::new()
            .write(true)
            .open("/dev/null")
            .expect("open /dev/null")
    }

    /// A sync that fails, then one that would succeed: the watermark
    /// stays below the failed target, and the latch outlives the error
    /// being taken.
    #[test]
    fn a_failed_fsync_freezes_the_watermark() {
        let dir = temp_dir("freeze");
        let shared = Arc::new(DurShared::new(0));
        let dur =
            spawn::<ShardedErc20>(dir.clone(), 0, 1, StoreObs::disabled(), Arc::clone(&shared));
        let post = |msg| dur.tx.send(msg).expect("durability thread alive");
        post(DurMsg::Sync {
            target: 5,
            file: failing_file(),
        });
        assert!(shared.wait_durable(5).is_err(), "the failed sync latches");
        let file = File::create(dir.join("tail")).expect("create a real file");
        post(DurMsg::Sync { target: 10, file });
        post(DurMsg::Shutdown);
        dur.handle.join().expect("durability thread exits");
        assert!(shared.durable() < 5, "durable at {}", shared.durable());
        assert!(shared.take_error().is_some());
        shared.advance(10);
        assert_eq!(shared.durable(), 0, "no advance after the latch");
        assert!(
            shared.wait_durable(1).is_err(),
            "the latch outlives the error"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store whose background fsync failed reports the failure on
    /// every flush, not only on the first.
    #[test]
    fn flush_reports_a_failed_fsync_every_time() {
        let dir = temp_dir("flush");
        let genesis = Erc20State::from_balances(vec![1; 4]);
        let mut store: Store<ShardedErc20> =
            Store::create(&dir, &genesis, StoreConfig::default()).unwrap();
        store.post(DurMsg::Sync {
            target: 1,
            file: failing_file(),
        });
        assert!(store.wait_durable(1).is_err());
        assert!(store.flush().is_err(), "first flush");
        assert!(store.flush().is_err(), "second flush");
        assert!(store.error().is_some());
        assert!(store.close().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
