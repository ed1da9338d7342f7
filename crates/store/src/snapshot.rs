//! Versioned state snapshots with atomic publish.
//!
//! A snapshot file `snap-<watermark>.snap` holds the full oracle state
//! after exactly `watermark` committed operations; an **incremental**
//! snapshot `snap-<watermark>.delta` holds only the rows touched since a
//! predecessor snapshot (full or delta) at `base`, forming a chain
//! `full(F) ← delta(base=F) ← delta(base=W₁) ← …`. Both kinds share one
//! envelope, written by [`publish`] and read by [`read_snapshot`]:
//!
//! ```text
//! snapshot := magic · payload · crc32(payload) u32
//! payload  := standard u8 · version u8 · watermark u64 · [base u64]
//!             · body_len u64 · body bytes
//! ```
//!
//! with magic `"TSSNAP01"` and no `base` for a full snapshot, magic
//! `"TSSNAPD1"` and the chain's `base` for a delta.
//!
//! Publishing is crash-atomic: the bytes are written to a `.tmp` file,
//! fsynced, then renamed into place (rename is atomic on POSIX), then
//! the directory is fsynced. A reader therefore sees either the
//! complete old set of snapshots or the complete new one — never a half
//! snapshot — and recovery simply takes the newest file that validates
//! (for deltas: the longest chain whose every link validates and
//! applies; a broken link just means a longer WAL replay).

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use tokensync_core::codec::{Codec, CodecError, StateCodec};

use crate::crc::crc32;
use crate::error::StoreError;
use crate::wal::{numbered_files, numbered_name, sync_dir};

/// Magic prefix of every full snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"TSSNAP01";

/// Magic prefix of every incremental (delta) snapshot file.
pub const DELTA_MAGIC: &[u8; 8] = b"TSSNAPD1";

/// Name prefix of every snapshot file (and of its `.tmp` while it is
/// being published).
const PREFIX: &str = "snap-";

/// The two snapshot kinds: one envelope, told apart by magic, file
/// suffix, and whether the payload names the `base` a delta chains onto.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A full oracle state.
    Full,
    /// A chain link of touched rows.
    Delta,
}

impl Kind {
    fn magic(self) -> &'static [u8; 8] {
        match self {
            Kind::Full => SNAP_MAGIC,
            Kind::Delta => DELTA_MAGIC,
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            Kind::Full => ".snap",
            Kind::Delta => ".delta",
        }
    }

    /// The sorted `(watermark, path)` list of this kind's files in `dir`.
    pub(crate) fn files(self, dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
        numbered_files(dir, PREFIX, self.suffix())
    }
}

/// The one snapshot writer: encodes the envelope around `body` — a
/// delta chained onto `base`, or a full snapshot when `base` is `None`
/// — and publishes it crash-atomically at `watermark`
/// (`.tmp` → fsync → rename → directory fsync).
pub(crate) fn publish<B: Codec>(
    dir: &Path,
    (standard, version): (u8, u8),
    watermark: u64,
    base: Option<u64>,
    body: &B,
) -> Result<(), StoreError> {
    let kind = if base.is_some() {
        Kind::Delta
    } else {
        Kind::Full
    };
    let mut bytes = kind.magic().to_vec();
    (standard, version, watermark).encode_into(&mut bytes);
    if let Some(base) = base {
        base.encode_into(&mut bytes);
    }
    // The body length is patched in once the body is encoded.
    let len_at = bytes.len();
    0u64.encode_into(&mut bytes);
    body.encode_into(&mut bytes);
    let body_len = (bytes.len() - len_at - 8) as u64;
    bytes[len_at..len_at + 8].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(&bytes[kind.magic().len()..]);
    crc.encode_into(&mut bytes);

    let tmp_path = dir.join(numbered_name(PREFIX, watermark, ".tmp"));
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&tmp_path)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(
        &tmp_path,
        dir.join(numbered_name(PREFIX, watermark, kind.suffix())),
    )?;
    sync_dir(dir)?;
    Ok(())
}

/// Publishes a full snapshot of `state` at `watermark`.
pub(crate) fn write_snapshot<S: StateCodec>(
    dir: &Path,
    watermark: u64,
    state: &S,
) -> Result<(), StoreError> {
    publish(dir, (S::STANDARD, S::VERSION), watermark, None, state)
}

/// The one snapshot reader: validates a `kind` file's magic, CRC and
/// `(standard, version)` tag and decodes its whole body into `(watermark,
/// base, body)` (`base` only for a delta). `Ok(None)` means unreadable —
/// missing bytes, bad magic, bad CRC, or an undecodable body — and the
/// caller falls back to an older file.
///
/// # Errors
///
/// [`StoreError::WrongStandard`] for a valid file of another standard or
/// codec version: the caller opened the wrong directory, and that is
/// loud, not a fallback.
pub(crate) fn read_snapshot<B: Codec>(
    path: &Path,
    kind: Kind,
    tag: (u8, u8),
) -> Result<Option<(u64, Option<u64>, B)>, StoreError> {
    let Ok(bytes) = fs::read(path) else {
        return Ok(None);
    };
    let Some((payload, crc)) = bytes
        .strip_prefix(kind.magic())
        .and_then(|rest| rest.split_last_chunk())
    else {
        return Ok(None);
    };
    if crc32(payload) != u32::from_le_bytes(*crc) {
        return Ok(None);
    }
    let mut input = payload;
    let head = |input: &mut &[u8]| -> Result<_, CodecError> {
        let (standard, version, watermark) = <(u8, u8, u64)>::decode(input)?;
        let base = match kind {
            Kind::Full => None,
            Kind::Delta => Some(u64::decode(input)?),
        };
        Ok(((standard, version), watermark, base, u64::decode(input)?))
    };
    let Ok((found, watermark, base, body_len)) = head(&mut input) else {
        return Ok(None);
    };
    if found != tag {
        return Err(StoreError::WrongStandard {
            found,
            expected: tag,
        });
    }
    let body = (input.len() as u64 == body_len)
        .then(|| B::decode(&mut input).ok())
        .flatten();
    Ok(body
        .filter(|_| input.is_empty())
        .map(|body| (watermark, base, body)))
}

/// Writes and atomically publishes a snapshot of `state` at `watermark`
/// into `dir` (created if missing) — the installation half of
/// replication's snapshot shipping: a wiped follower installs the
/// shipped state here, then opens a fresh log at the watermark.
///
/// # Errors
///
/// I/O errors from the write or rename.
pub fn install_snapshot<S: StateCodec>(
    dir: &Path,
    watermark: u64,
    state: &S,
) -> Result<(), StoreError> {
    fs::create_dir_all(dir)?;
    write_snapshot(dir, watermark, state)
}

/// Loads the newest full snapshot that validates; skips corrupt files.
pub(crate) fn latest_snapshot<S: StateCodec>(dir: &Path) -> Result<(u64, S), StoreError> {
    for (_, path) in Kind::Full.files(dir)?.iter().rev() {
        if let Some((watermark, _, state)) =
            read_snapshot(path, Kind::Full, (S::STANDARD, S::VERSION))?
        {
            return Ok((watermark, state));
        }
    }
    Err(StoreError::NoSnapshot)
}

/// Prunes the snapshot chain down to the newest `keep` full snapshots
/// plus every delta above the oldest kept full (deltas at or below it
/// are wholly covered by that full and can never be a useful fallback).
/// Returns the oldest kept full's watermark — the WAL GC floor: if the
/// newest full or any delta link is later found corrupt, recovery falls
/// back no further than that full, and needs its log suffix intact.
pub(crate) fn prune_chain(dir: &Path, keep: usize) -> Result<u64, StoreError> {
    let fulls = Kind::Full.files(dir)?;
    let dropped = fulls.len().saturating_sub(keep.max(1));
    let floor = fulls.get(dropped).map_or(0, |&(mark, _)| mark);
    let deltas = Kind::Delta.files(dir)?;
    let covered = deltas.iter().filter(|&&(mark, _)| mark <= floor);
    let doomed: Vec<_> = fulls[..dropped].iter().chain(covered).collect();
    for (_, path) in &doomed {
        fs::remove_file(path)?;
    }
    if !doomed.is_empty() {
        sync_dir(dir)?;
    }
    Ok(floor)
}

/// Leftover `.tmp` files from a crash mid-publish are dead weight;
/// remove them on open.
pub(crate) fn clear_tmp(dir: &Path) -> Result<(), StoreError> {
    for (_, path) in numbered_files(dir, PREFIX, ".tmp")? {
        fs::remove_file(path)?;
    }
    Ok(())
}
