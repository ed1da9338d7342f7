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

use crate::error::StoreError;
use crate::wal::{
    check_frame, decode_commits, numbered_files, SegmentHeader, SegmentPins, FRAME_LEN,
    SEG_HEADER_LEN, SEG_PREFIX, SEG_SUFFIX,
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
    /// Length of that segment when last measured.
    segment_len: u64,
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

/// Opens a segment and validates its header against the cursor's
/// standard and the `first_seq` its file name promises; returns the
/// file (positioned past the header) and the header's epoch.
fn read_header(
    path: &Path,
    standard: u8,
    version: u8,
    expect_first: u64,
) -> Result<(File, u64), StoreError> {
    let mut file = File::open(path)?;
    let mut bytes = [0u8; SEG_HEADER_LEN as usize];
    file.read_exact(&mut bytes)?;
    let (header, _) = SegmentHeader::parse(&bytes)?;
    header.check(standard, version)?;
    if header.first_seq != expect_first {
        return Err(StoreError::Codec(CodecError::Invalid(
            "segment header disagrees with its file name",
        )));
    }
    Ok((file, header.epoch))
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
        let segs = numbered_files(dir, SEG_PREFIX, SEG_SUFFIX)?;
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
            segment_len: 0,
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
            if let Some(frame) = self.read_frame()? {
                if let Some((head, _, _)) = check_frame(&frame) {
                    if !head.continues(self.next_seq) {
                        // A mid-chain discontinuity is permanent: no
                        // retry will repair it, the tail is dead.
                        return Ok(None);
                    }
                    self.offset += frame.len() as u64;
                    self.next_seq = head.end_seq();
                    return Ok(Some(WalRecord {
                        first_seq: head.first_seq,
                        count: head.count,
                        batch: head.batch,
                        epoch: self.segment_epoch,
                        frame,
                    }));
                }
            }
            // Nothing valid at this offset: an incomplete or
            // CRC-failing tail (the writer is mid-append — retry later —
            // or the log is torn here). If the writer rolled to a fresh
            // segment starting exactly at our position, follow it;
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
            self.segment_len = 0;
        }
    }

    /// The whole frame at `offset`, if the segment already holds it. The
    /// length prefix is bounded by the bytes the file actually has past
    /// the offset *before* anything is allocated, so a corrupt length
    /// reads as an incomplete frame, never as a 4 GiB buffer.
    fn read_frame(&mut self) -> Result<Option<Vec<u8>>, StoreError> {
        if !self.holds(FRAME_LEN as u64)? {
            return Ok(None);
        }
        self.file.seek(SeekFrom::Start(self.offset))?;
        let mut frame = vec![0u8; FRAME_LEN];
        self.file.read_exact(&mut frame)?;
        let len = FRAME_LEN as u64 + u64::from(u32::decode(&mut frame.as_slice())?);
        if !self.holds(len)? {
            return Ok(None);
        }
        frame.resize(len as usize, 0);
        self.file.read_exact(&mut frame[FRAME_LEN..])?;
        Ok(Some(frame))
    }

    /// Whether the segment holds `bytes` more past `offset`. Segments
    /// only grow under a cursor, so the file is re-measured only when
    /// the last known length falls short.
    fn holds(&mut self, bytes: u64) -> Result<bool, StoreError> {
        let end = self.offset.saturating_add(bytes);
        if end > self.segment_len {
            self.segment_len = self.file.metadata()?.len();
        }
        Ok(end <= self.segment_len)
    }

    /// Path of the successor segment starting at `next_seq`, if the
    /// writer has rolled past the cursor's current segment.
    fn roll_target(&self) -> Result<Option<PathBuf>, StoreError> {
        if self.next_seq == self.segment_first {
            return Ok(None); // still in (possibly empty) current segment
        }
        Ok(numbered_files(&self.dir, SEG_PREFIX, SEG_SUFFIX)?
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
