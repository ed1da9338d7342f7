//! Crash recovery: snapshot chain + verified log-suffix replay →
//! a live sharded object.
//!
//! Recovery resolves the newest valid **snapshot chain** — a full
//! snapshot plus any incremental deltas published on top of it — and
//! then replays the surviving log suffix. The replay partition *is* the
//! serving path's bypass probe: [`Scheduler::commuting_prefix`] cuts
//! the suffix into maximal runs of pairwise-commuting operations, and
//! each run applies concurrently on a scoped worker pool
//! ([`recover`]). Because operations within a run commute at every
//! state, the final state and every verified response are identical to
//! the one-at-a-time replay ([`recover_sequential`], kept as the
//! oracle).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tokensync_core::codec::{Codec, StateCodec};
use tokensync_core::erc20::{Erc20Delta, Erc20Spec};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_core::standards::erc1155::{Erc1155Delta, Erc1155Spec, ShardedErc1155};
use tokensync_core::standards::erc721::{Erc721Delta, Erc721Spec, ShardedErc721};
use tokensync_pipeline::commit::replay_verified;
use tokensync_pipeline::{CommittedOp, Scheduler};
use tokensync_spec::ObjectType;

use crate::error::StoreError;
use crate::snapshot::{latest_snapshot, read_snapshot, Kind};
use crate::wal::{read_entries, ScanStop};

/// A servable object that can be rebuilt from its oracle state — the
/// recovery-side counterpart of [`ConcurrentObject::snapshot`]. The
/// associated [`Restorable::Spec`] is the sequential oracle the log
/// suffix replays through (and is verified against) before the live
/// object is constructed; the associated [`Restorable::Delta`] is the
/// standard's row-level change set, the currency of incremental
/// snapshots.
pub trait Restorable: ConcurrentObject + Sized + 'static {
    /// The sequential oracle of this standard.
    type Spec: ObjectType<Op = Self::Op, Resp = Self::Resp, State = Self::State>;

    /// The row-level change set of this standard: everything touched
    /// since the last [`Restorable::drain_delta`], foldable onto the
    /// state the tracking started from.
    type Delta: Codec + Send + 'static;

    /// Builds the live object holding exactly `state`.
    fn restore(state: Self::State) -> Self;

    /// An oracle instance (the initial state is irrelevant to replay;
    /// only the transition function is used).
    fn spec(initial: Self::State) -> Self::Spec;

    /// Takes the rows touched since the last drain (or since
    /// construction), clearing the tracking. Only shard locks are held,
    /// one at a time — serving continues concurrently.
    fn drain_delta(&self) -> Self::Delta;

    /// Folds `delta` onto `state` (which must be the state the delta's
    /// tracking window started from). Returns `false` — leaving `state`
    /// untouched — when the delta names rows outside the state's
    /// dimensions, i.e. the chain link is inconsistent.
    fn apply_delta(state: &mut Self::State, delta: &Self::Delta) -> bool;

    /// Whether `delta` carries no rows.
    fn delta_is_empty(delta: &Self::Delta) -> bool;
}

impl Restorable for ShardedErc20 {
    type Spec = Erc20Spec;
    type Delta = Erc20Delta;
    fn restore(state: Self::State) -> Self {
        ShardedErc20::from_state(state)
    }
    fn spec(initial: Self::State) -> Erc20Spec {
        Erc20Spec::new(initial)
    }
    fn drain_delta(&self) -> Erc20Delta {
        self.drain_delta()
    }
    fn apply_delta(state: &mut Self::State, delta: &Erc20Delta) -> bool {
        delta.apply_to(state)
    }
    fn delta_is_empty(delta: &Erc20Delta) -> bool {
        delta.is_empty()
    }
}

impl Restorable for ShardedErc721 {
    type Spec = Erc721Spec;
    type Delta = Erc721Delta;
    fn restore(state: Self::State) -> Self {
        ShardedErc721::from_state(state)
    }
    fn spec(initial: Self::State) -> Erc721Spec {
        Erc721Spec::new(initial)
    }
    fn drain_delta(&self) -> Erc721Delta {
        self.drain_delta()
    }
    fn apply_delta(state: &mut Self::State, delta: &Erc721Delta) -> bool {
        delta.apply_to(state)
    }
    fn delta_is_empty(delta: &Erc721Delta) -> bool {
        delta.is_empty()
    }
}

impl Restorable for ShardedErc1155 {
    type Spec = Erc1155Spec;
    type Delta = Erc1155Delta;
    fn restore(state: Self::State) -> Self {
        ShardedErc1155::from_state(state)
    }
    fn spec(initial: Self::State) -> Erc1155Spec {
        Erc1155Spec::new(initial)
    }
    fn drain_delta(&self) -> Erc1155Delta {
        self.drain_delta()
    }
    fn apply_delta(state: &mut Self::State, delta: &Erc1155Delta) -> bool {
        delta.apply_to(state)
    }
    fn delta_is_empty(delta: &Erc1155Delta) -> bool {
        delta.is_empty()
    }
}

/// The resolved snapshot chain: the newest full snapshot that validates
/// plus the longest run of delta links that validate *and* apply.
pub(crate) struct ResolvedChain<S> {
    /// State after `mark` committed operations.
    pub state: S,
    /// Watermark the chain reaches (the WAL replay floor).
    pub mark: u64,
    /// Delta links folded on top of the base full snapshot.
    pub links: u64,
}

/// Resolves the snapshot chain in `dir`: newest valid full snapshot,
/// then greedily follows delta links (`base == current mark`, largest
/// watermark first on forks — a fork only arises when an older link was
/// already unreadable). A corrupt or inapplicable link simply ends the
/// chain: the WAL suffix below the break is retained exactly because of
/// this fallback, so recovery replays more log instead of failing.
pub(crate) fn resolve_chain<T>(dir: &Path) -> Result<ResolvedChain<T::State>, StoreError>
where
    T: Restorable,
    T::State: StateCodec,
{
    let (mut mark, mut state) = latest_snapshot::<T::State>(dir)?;
    let tag = (
        <T::State as StateCodec>::STANDARD,
        <T::State as StateCodec>::VERSION,
    );
    let deltas = Kind::Delta.files(dir)?;
    let mut links = 0u64;
    'chain: loop {
        // Newest-first among candidates above the current mark.
        for (w, path) in deltas.iter().rev() {
            if *w <= mark {
                break;
            }
            if let Some((_, base, delta)) = read_snapshot::<T::Delta>(path, Kind::Delta, tag)? {
                if base == Some(mark) && T::apply_delta(&mut state, &delta) {
                    (mark, links) = (*w, links + 1);
                    continue 'chain;
                }
            }
        }
        return Ok(ResolvedChain { state, mark, links });
    }
}

/// Below this many surviving log entries [`recover`] replays
/// sequentially: thread fan-out would cost more than it saves.
const MIN_PARALLEL_OPS: usize = 4096;

/// What [`recover`] rebuilt.
#[derive(Debug)]
pub struct Recovered<T: ConcurrentObject> {
    /// The live object, holding the state after every recovered commit.
    pub object: T,
    /// The oracle state the object was built from (snapshot chain +
    /// verified replay).
    pub state: T::State,
    /// Watermark the snapshot chain reached (full snapshot + deltas) —
    /// where the log replay started.
    pub snapshot_watermark: u64,
    /// Delta-snapshot links folded on top of the full snapshot.
    pub delta_links: u64,
    /// Log entries replayed on top of the chain.
    pub replayed: u64,
    /// First sequence number *not* recovered — the length of the
    /// recovered history prefix.
    pub next_seq: u64,
    /// Where the log scan stopped early (torn tail or corruption), if
    /// it did not reach the physical end of the log cleanly.
    pub log_stop: Option<ScanStop>,
    /// Highest replication epoch stamped into any surviving log segment
    /// (0 for an unreplicated store).
    pub epoch: u64,
    /// Wall time resolving and decoding the snapshot chain.
    pub snapshot_load: Duration,
    /// Wall time scanning, footprint-partitioning and replaying the log
    /// suffix (verification included).
    pub replay: Duration,
}

/// Recovers the store in `dir`: resolves the newest valid snapshot
/// chain, replays the surviving log suffix — verifying every recorded
/// response on the way — and rebuilds the live sharded object.
/// From 4096 surviving entries on, non-conflicting stretches of the log
/// replay concurrently on the machine's available parallelism.
///
/// The recovered history is always a *prefix* of the committed history:
/// record framing is CRC-checked and sequence numbers are gap-free, so
/// a torn tail or a flipped byte truncates the replay at the last valid
/// record instead of corrupting state or panicking.
///
/// # Errors
///
/// [`StoreError::NoSnapshot`] for an uninitialized directory,
/// [`StoreError::WrongStandard`] for a directory of another standard or
/// codec version, [`StoreError::Divergence`] if a logged response
/// disagrees with the oracle replay (snapshot/log mismatch — the store
/// is untrustworthy), [`StoreError::Codec`] for CRC-valid but
/// undecodable records (encoder/decoder skew), and I/O errors.
pub fn recover<T>(dir: &Path) -> Result<Recovered<T>, StoreError>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    recover_impl(dir, true)
}

/// [`recover`] restricted to the one-at-a-time oracle replay — the
/// reference the parallel path is property-tested against.
///
/// # Errors
///
/// As [`recover`].
pub fn recover_sequential<T>(dir: &Path) -> Result<Recovered<T>, StoreError>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    recover_impl(dir, false)
}

fn recover_impl<T>(dir: &Path, parallel: bool) -> Result<Recovered<T>, StoreError>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    let load_started = Instant::now();
    let chain = resolve_chain::<T>(dir)?;
    let snapshot_load = load_started.elapsed();

    let replay_started = Instant::now();
    let (live, _, scan) = read_entries::<T::Op, T::Resp>(
        dir,
        <T::State as StateCodec>::STANDARD,
        <T::State as StateCodec>::VERSION,
        chain.mark,
    )?;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let (object, state) = if parallel && threads > 1 && live.len() >= MIN_PARALLEL_OPS {
        let object = T::restore(chain.state);
        replay_parallel(&object, &live, threads).map_err(|seq| StoreError::Divergence { seq })?;
        let state = object.snapshot();
        (object, state)
    } else {
        let mut state = chain.state;
        replay_verified(&T::spec(state.clone()), &mut state, &live)?;
        (T::restore(state.clone()), state)
    };
    let replay = replay_started.elapsed();

    Ok(Recovered {
        object,
        state,
        snapshot_watermark: chain.mark,
        delta_links: chain.links,
        replayed: live.len() as u64,
        next_seq: chain.mark + live.len() as u64,
        log_stop: scan.stop,
        epoch: scan.epoch,
        snapshot_load,
        replay,
    })
}

/// Replays `entries` onto the live `object` concurrently: cuts the
/// sequence into maximal runs of pairwise-commuting ops with the
/// serving path's own bypass probe ([`Scheduler::commuting_prefix`]),
/// and fans each run out across `threads` scoped workers. Commuting ops
/// produce the same responses and final state in any order, so
/// verification against the recorded responses is exact; on mismatch
/// the smallest diverging sequence number is returned — the same one
/// the sequential oracle reports.
fn replay_parallel<T>(
    object: &T,
    entries: &[CommittedOp<T::Op, T::Resp>],
    threads: usize,
) -> Result<(), u64>
where
    T: Restorable,
{
    let diverged = AtomicU64::new(u64::MAX);
    let apply = |part: &[CommittedOp<T::Op, T::Resp>]| {
        for entry in part {
            if object.apply(entry.caller, &entry.op) != entry.resp {
                diverged.fetch_min(entry.seq, Ordering::Relaxed);
            }
        }
    };
    let mut probe = Scheduler::new();
    let mut rest = entries;
    while !rest.is_empty() {
        let run = probe.commuting_prefix(rest.iter().map(|e| (e.caller, &e.op)));
        let (wave, tail) = rest.split_at(run);
        rest = tail;
        if wave.len() < 2 * threads {
            apply(wave);
        } else {
            crossbeam::scope(|s| {
                for part in wave.chunks(wave.len().div_ceil(threads)) {
                    s.spawn(move |_| apply(part));
                }
            })
            .expect("recovery replay worker panicked");
        }
        let seq = diverged.load(Ordering::Relaxed);
        if seq != u64::MAX {
            return Err(seq);
        }
    }
    Ok(())
}
