//! A tailing cursor over the write-ahead log — the primary side of
//! replication reads its own WAL through this.
//!
//! [`WalCursor::next_record`] yields committed records **in sequence
//! order, across segment boundaries**, and keeps yielding as the writer
//! appends: a `None` means "no complete record yet, retry later", not
//! end-of-stream. The cursor re-validates every frame (length, CRC,
//! sequence continuity) before yielding it, so a torn in-progress tail
//! is simply not yet visible.
//!
//! **GC safety:** the cursor *pins* the segment it is positioned in (a
//! shared counted registry with [`Wal::gc`](crate::wal::Wal::gc)),
//! which closes the
//! previously-open race where a snapshot publish could garbage-collect
//! a segment out from under a slow reader. Pins move with the cursor
//! and are released on drop, so a lagging cursor delays GC of old
//! segments instead of crashing on them.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use tokensync_core::codec::{Codec, CodecError};
use tokensync_pipeline::CommittedOp;

use crate::crc::crc32;
use crate::error::StoreError;
use crate::wal::{
    decode_commits, segment_files, SegmentPins, FRAME_LEN, SEG_HEADER_LEN, SEG_MAGIC,
};

/// One CRC-validated committed record read from the log, still in its
/// on-disk frame bytes — exactly what the replication layer ships.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Global sequence number of the record's first operation.
    pub first_seq: u64,
    /// Operations in the record.
    pub count: u32,
    /// The batch the record holds.
    pub batch: u64,
    /// Replication epoch of the segment the record was read from.
    pub epoch: u64,
    /// The full on-disk frame: `len u32 · crc u32 · payload`.
    pub frame: Vec<u8>,
}

impl WalRecord {
    /// The record payload (past the length/CRC prefix).
    pub fn payload(&self) -> &[u8] {
        &self.frame[FRAME_LEN..]
    }

    /// Decodes the committed operations the record holds.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on encoder/decoder skew — the frame bytes are
    /// CRC-valid by construction, so this is version skew, not damage.
    pub fn decode<Op: Codec, Resp: Codec>(&self) -> Result<Vec<CommittedOp<Op, Resp>>, CodecError> {
        decode_commits(self.payload())
    }
}

/// A pinned, forward-only reader of the segmented log. Create through
/// [`Wal::cursor`](crate::wal::Wal::cursor) or
/// [`Store::cursor`](crate::Store::cursor).
#[derive(Debug)]
pub struct WalCursor {
    dir: PathBuf,
    standard: u8,
    version: u8,
    pins: SegmentPins,
    /// `first_seq` of the pinned segment the cursor is positioned in.
    segment_first: u64,
    /// Epoch stamped in that segment's header.
    segment_epoch: u64,
    /// Open handle on that segment, positioned at `offset`.
    file: File,
    /// Byte offset of the next unread frame within the segment.
    offset: u64,
    /// Sequence number the next record must start at.
    next_seq: u64,
}

fn pin(pins: &SegmentPins, seg: u64) {
    *pins
        .lock()
        .expect("pin registry poisoned")
        .entry(seg)
        .or_insert(0) += 1;
}

fn unpin(pins: &SegmentPins, seg: u64) {
    let mut map = pins.lock().expect("pin registry poisoned");
    if let Some(count) = map.get_mut(&seg) {
        *count -= 1;
        if *count == 0 {
            map.remove(&seg);
        }
    }
}

/// Reads and validates a segment header; returns its `(first_seq,
/// epoch)`.
fn read_header(
    path: &Path,
    standard: u8,
    version: u8,
    expect_first: u64,
) -> Result<(File, u64), StoreError> {
    let mut file = File::open(path)?;
    let mut header = [0u8; SEG_HEADER_LEN as usize];
    file.read_exact(&mut header)?;
    if &header[0..8] != SEG_MAGIC {
        return Err(StoreError::Codec(CodecError::Invalid("bad segment magic")));
    }
    if (header[8], header[9]) != (standard, version) {
        return Err(StoreError::WrongStandard {
            found: (header[8], header[9]),
            expected: (standard, version),
        });
    }
    let first = u64::from_le_bytes(header[10..18].try_into().expect("8 bytes"));
    if first != expect_first {
        return Err(StoreError::Codec(CodecError::Invalid(
            "segment header disagrees with its file name",
        )));
    }
    let epoch = u64::from_le_bytes(header[18..26].try_into().expect("8 bytes"));
    Ok((file, epoch))
}

impl WalCursor {
    /// Opens a cursor at `from_seq`. Internal — reach it through
    /// [`Wal::cursor`](crate::wal::Wal::cursor) so the pin registry is
    /// shared with the GC side.
    pub(crate) fn open(
        dir: &Path,
        standard: u8,
        version: u8,
        from_seq: u64,
        pins: SegmentPins,
    ) -> Result<Self, StoreError> {
        let segs = segment_files(dir)?;
        let available_from = segs.first().map_or(from_seq, |&(first, _)| first);
        // The segment whose range contains `from_seq`: the last one
        // starting at or below it.
        let holder = segs
            .iter()
            .rev()
            .find(|&&(first, _)| first <= from_seq)
            .cloned();
        let Some((segment_first, path)) = holder else {
            return Err(StoreError::OutOfRetention {
                requested: from_seq,
                available_from,
            });
        };
        let (file, segment_epoch) = read_header(&path, standard, version, segment_first)?;
        pin(&pins, segment_first);
        let mut cursor = Self {
            dir: dir.to_path_buf(),
            standard,
            version,
            pins,
            segment_first,
            segment_epoch,
            file,
            offset: SEG_HEADER_LEN,
            next_seq: segment_first,
        };
        // Skip forward to `from_seq` — records are whole batches, so the
        // target must fall on a record boundary of the surviving chain.
        while cursor.next_seq < from_seq {
            match cursor.next_record() {
                Ok(Some(_)) => {}
                Ok(None) => {
                    return Err(StoreError::OutOfRetention {
                        requested: from_seq,
                        available_from: cursor.next_seq,
                    })
                }
                Err(e) => return Err(e),
            }
        }
        if cursor.next_seq != from_seq {
            // Overshot: `from_seq` points inside a record.
            return Err(StoreError::OutOfRetention {
                requested: from_seq,
                available_from: cursor.next_seq,
            });
        }
        Ok(cursor)
    }

    /// Sequence number the next yielded record will start at.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Yields the next complete, CRC-valid, sequence-continuous record,
    /// following segment rolls. `Ok(None)` means the log currently ends
    /// here (the writer may append more — poll again later); it is never
    /// a parse failure, so a torn in-progress tail is indistinguishable
    /// from a clean end, exactly as it should be.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying reads.
    pub fn next_record(&mut self) -> Result<Option<WalRecord>, StoreError> {
        loop {
            self.file.seek(SeekFrom::Start(self.offset))?;
            let mut head = [0u8; FRAME_LEN];
            if read_fully(&mut self.file, &mut head)? {
                let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
                let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
                let mut payload = vec![0u8; len];
                if read_fully(&mut self.file, &mut payload)? && frame_valid(&payload, crc) {
                    let first = u64::from_le_bytes(payload[9..17].try_into().expect("8 bytes"));
                    let count = u32::from_le_bytes(payload[17..21].try_into().expect("4 bytes"));
                    if first != self.next_seq || count == 0 {
                        // A mid-chain discontinuity is permanent: no
                        // retry will repair it, the tail is dead.
                        return Ok(None);
                    }
                    let batch = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
                    let mut frame = Vec::with_capacity(FRAME_LEN + len);
                    frame.extend_from_slice(&head);
                    frame.extend_from_slice(&payload);
                    self.offset += (FRAME_LEN + len) as u64;
                    self.next_seq += count as u64;
                    return Ok(Some(WalRecord {
                        first_seq: first,
                        count,
                        batch,
                        epoch: self.segment_epoch,
                        frame,
                    }));
                }
                // Incomplete or CRC-failing tail: either the writer is
                // mid-append (retry later) or the log is torn here.
            }
            // Nothing (valid) at this offset. If the writer rolled to a
            // fresh segment starting exactly at our position, follow it;
            // otherwise report end-of-log-for-now.
            let Some(next_path) = self.roll_target()? else {
                return Ok(None);
            };
            let (file, epoch) =
                read_header(&next_path, self.standard, self.version, self.next_seq)?;
            unpin(&self.pins, self.segment_first);
            pin(&self.pins, self.next_seq);
            self.segment_first = self.next_seq;
            self.segment_epoch = epoch;
            self.file = file;
            self.offset = SEG_HEADER_LEN;
        }
    }

    /// Path of the successor segment starting at `next_seq`, if the
    /// writer has rolled past the cursor's current segment.
    fn roll_target(&self) -> Result<Option<PathBuf>, StoreError> {
        if self.next_seq == self.segment_first {
            return Ok(None); // still in (possibly empty) current segment
        }
        Ok(segment_files(&self.dir)?
            .into_iter()
            .find(|&(first, _)| first == self.next_seq)
            .map(|(_, path)| path))
    }
}

impl Drop for WalCursor {
    fn drop(&mut self) {
        unpin(&self.pins, self.segment_first);
    }
}

/// Reads exactly `buf.len()` bytes or reports `false` (EOF before the
/// buffer filled — the frame is not complete yet).
fn read_fully(file: &mut File, buf: &mut [u8]) -> Result<bool, StoreError> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = file.read(&mut buf[filled..])?;
        if n == 0 {
            return Ok(false);
        }
        filled += n;
    }
    Ok(true)
}

/// Frame-level validity of a payload: CRC plus the fixed head the
/// writer always emits.
fn frame_valid(payload: &[u8], crc: u32) -> bool {
    payload.len() >= 21 && payload[0] == 1 && crc32(payload) == crc
}
