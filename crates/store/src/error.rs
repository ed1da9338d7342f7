//! Errors of the durable store.

use std::fmt;
use std::io;

use tokensync_core::codec::CodecError;
use tokensync_pipeline::ReplayDivergence;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem refused.
    Io(io::Error),
    /// A value failed to decode (recovery surfaces this only for bytes
    /// whose CRC *passed* — i.e. an encoder/decoder version skew, not
    /// disk corruption, which stops the scan silently instead).
    Codec(CodecError),
    /// The directory's segments/snapshots belong to a different standard
    /// or encoding version than the one being recovered.
    WrongStandard {
        /// `(standard, version)` found in the file header.
        found: (u8, u8),
        /// `(standard, version)` the caller's state type expects.
        expected: (u8, u8),
    },
    /// No readable snapshot exists — the directory was never initialized
    /// (or every snapshot is corrupt beyond use).
    NoSnapshot,
    /// [`Store::create`](crate::Store::create) on a directory that
    /// already holds store files.
    AlreadyInitialized,
    /// A [`WalCursor`](crate::cursor::WalCursor) was asked to start at a
    /// sequence number the log no longer retains (GC already collected
    /// it) or that does not fall on a record boundary of the surviving
    /// chain. The caller must fall back to snapshot shipping.
    OutOfRetention {
        /// Sequence number the cursor was asked to start at.
        requested: u64,
        /// Oldest sequence number the log can still serve from.
        available_from: u64,
    },
    /// Replay of a logged operation produced a response different from
    /// the recorded one: the snapshot and the log disagree, so the
    /// store's history is not trustworthy.
    Divergence {
        /// Commit sequence number of the diverging record.
        seq: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Codec(e) => write!(f, "store codec error: {e}"),
            StoreError::WrongStandard { found, expected } => write!(
                f,
                "store holds standard {:#04x} v{} but {:#04x} v{} was requested",
                found.0, found.1, expected.0, expected.1
            ),
            StoreError::NoSnapshot => write!(f, "no valid snapshot in the store directory"),
            StoreError::AlreadyInitialized => {
                write!(f, "directory already holds an initialized store")
            }
            StoreError::OutOfRetention {
                requested,
                available_from,
            } => write!(
                f,
                "log position {requested} is below retention (oldest served: {available_from})"
            ),
            StoreError::Divergence { seq } => write!(
                f,
                "replayed response of commit {seq} diverges from the logged one"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl<Resp> From<ReplayDivergence<Resp>> for StoreError {
    fn from(d: ReplayDivergence<Resp>) -> Self {
        StoreError::Divergence { seq: d.seq }
    }
}
