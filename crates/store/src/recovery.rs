//! Crash recovery: snapshot chain + verified log-suffix replay →
//! a live sharded object.
//!
//! Recovery resolves the newest valid **snapshot chain** — a full
//! snapshot plus any incremental deltas published on top of it — then
//! streams the surviving log suffix onto the chain state through the
//! standard's sequential oracle, checking every recorded response
//! ([`replay_verified`]), and finally moves that state into the live
//! sharded object ([`Restorable::restore`]). One path, one core: on a
//! million-entry log the oracle replay ran about five times faster than
//! the footprint-parallel replay it replaced. The suffix is never held
//! whole: each CRC-valid record's entries are decoded and replayed one
//! at a time as the scan reaches the record (docs/persistence.md has
//! the phase costs).

use std::path::Path;
use std::time::{Duration, Instant};

use tokensync_core::codec::{Codec, StateCodec};
use tokensync_core::shared::{ConcurrentObject, Served, Tracked};
use tokensync_pipeline::commit::replay_verified;
use tokensync_spec::ObjectType;

use crate::error::StoreError;
use crate::snapshot::{latest_snapshot, read_snapshot, Kind};
use crate::wal::{decode_entries, scan_log, ScanStop};

/// A servable object that can be rebuilt from its oracle state — the
/// recovery-side counterpart of [`ConcurrentObject::snapshot`]. The
/// associated [`Restorable::Spec`] is the sequential oracle the log
/// suffix replays through (and is verified against) before the live
/// object is constructed; the associated [`Restorable::Delta`] is the
/// standard's row-level change set, the currency of incremental
/// snapshots. The state's `Default` is the empty state the store's own
/// replays build their oracle over.
pub trait Restorable: ConcurrentObject<State: Default> + Sized + 'static {
    /// The sequential oracle of this standard.
    type Spec: ObjectType<Op = Self::Op, Resp = Self::Resp, State = Self::State>;

    /// The row-level change set of this standard: everything touched
    /// since the last [`Restorable::drain_delta`], foldable onto the
    /// state the tracking started from. Its `Default` is the empty
    /// delta, which carries no rows.
    type Delta: Codec + Default + PartialEq + Send + 'static;

    /// Builds the live object holding exactly `state`.
    fn restore(state: Self::State) -> Self;

    /// An oracle instance (the initial state is irrelevant to replay;
    /// only the transition function is used).
    fn spec(initial: Self::State) -> Self::Spec;

    /// Takes the rows touched since the last drain (or since
    /// construction), clearing the tracking. Every standard holds its
    /// one lock for the length of the drain, so the delta is an atomic
    /// cut even under concurrent serving.
    fn drain_delta(&self) -> Self::Delta;

    /// Folds `delta` onto `state` (which must be the state the delta's
    /// tracking window started from). Returns `false` — leaving `state`
    /// untouched — when the delta names rows outside the state's
    /// dimensions, i.e. the chain link is inconsistent.
    fn apply_delta(state: &mut Self::State, delta: &Self::Delta) -> bool;
}

/// The oracle every verified replay of the store runs through. Replay
/// reads only the transition function, never the initial state, so the
/// oracle is built over the empty state: nothing O(accounts) is copied.
pub(crate) fn oracle<T: Restorable>() -> T::Spec {
    T::spec(T::State::default())
}

/// Every served object, through its standard's [`Tracked`] pieces.
impl<S> Restorable for Served<S>
where
    S: Tracked<State: Default, Delta: Codec + Default + PartialEq + Send>,
{
    type Spec = S::Spec;
    type Delta = S::Delta;
    fn restore(state: S::State) -> Self {
        Served::from_state(state)
    }
    fn spec(initial: S::State) -> S::Spec {
        S::spec(initial)
    }
    fn drain_delta(&self) -> S::Delta {
        self.drain_delta()
    }
    fn apply_delta(state: &mut S::State, delta: &S::Delta) -> bool {
        S::fold(state, delta)
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
    /// Wall time scanning and replaying the log suffix (verification
    /// included) and building the live object.
    pub replay: Duration,
}

/// Recovers the store in `dir`: resolves the newest valid snapshot
/// chain, replays the surviving log suffix onto it through the
/// sequential oracle — decoding each record's entries as the log scan
/// reaches it and verifying every recorded response on the way — and
/// moves the replayed state into the live sharded object.
///
/// The recovered history is always a *prefix* of the committed history:
/// record framing is CRC-checked and sequence numbers are gap-free, so
/// a torn tail or a flipped byte truncates the replay at the last valid
/// record instead of corrupting state or panicking.
///
/// # Errors
///
/// The first fault in log order, since each entry is replayed before
/// the next is decoded:
/// [`StoreError::NoSnapshot`] for an uninitialized directory,
/// [`StoreError::WrongStandard`] for a segment of another standard or
/// codec version, [`StoreError::Divergence`] at the first logged
/// response that disagrees with the oracle replay (snapshot/log
/// mismatch — the store is untrustworthy), [`StoreError::Codec`] for
/// a CRC-valid but undecodable entry (encoder/decoder skew), and I/O
/// errors. A divergent entry followed by an undecodable one is a
/// `Divergence`.
pub fn recover<T>(dir: &Path) -> Result<Recovered<T>, StoreError>
where
    T: Restorable,
    T::Op: Codec,
    T::Resp: Codec,
    T::State: StateCodec,
{
    let load_started = Instant::now();
    let ResolvedChain {
        mut state,
        mark,
        links,
    } = resolve_chain::<T>(dir)?;
    let snapshot_load = load_started.elapsed();

    let replay_started = Instant::now();
    let spec = oracle::<T>();
    let mut next = mark;
    let scan = scan_log::<StoreError>(
        dir,
        <T::State as StateCodec>::STANDARD,
        <T::State as StateCodec>::VERSION,
        |head, bytes| {
            // Records wholly below the mark (already folded into the
            // chain) or past a gap are frame-checked by the scan but never
            // decoded; the record straddling the mark replays only its
            // suffix.
            if head.first_seq > next || next >= head.end_seq() {
                return Ok(());
            }
            let (from, mut fault) = (next, None);
            let entries = decode_entries::<T::Op, T::Resp>(head, bytes)
                .map_while(|entry| entry.map_err(|e| fault = Some(e)).ok())
                .filter(|entry| entry.seq >= from);
            replay_verified(&spec, &mut state, entries)?;
            if let Some(e) = fault {
                return Err(StoreError::Codec(e));
            }
            next = head.end_seq();
            Ok(())
        },
    )?;
    let object = T::restore(state.clone());
    let replay = replay_started.elapsed();

    Ok(Recovered {
        object,
        state,
        snapshot_watermark: mark,
        delta_links: links,
        replayed: next - mark,
        next_seq: next,
        log_stop: scan.stop,
        epoch: scan.epoch,
        snapshot_load,
        replay,
    })
}

/// The same recovery as [`recover`], under the name callers that want
/// the one-at-a-time oracle replay spelled out already use.
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
    recover(dir)
}
