//! A tailing cursor over the write-ahead log — the primary side of
//! replication reads its own WAL through this.
//!
//! [`WalCursor::next_record`] yields committed records **in sequence
//! order, across segment boundaries**, and keeps yielding as the writer
//! appends: a `None` means "no complete record yet, retry later", not
//! end-of-stream. The cursor reads through the log scan's own segment
//! reader, so every frame passes the same header check, frame check
//! (length, CRC, sequence continuity) and length bound as recovery
//! before it is yielded, and a torn in-progress tail is simply not yet
//! visible.
//!
//! **GC safety:** the cursor *pins* the segment it is positioned in (a
//! shared counted registry with [`Wal::gc`](crate::wal::Wal::gc)),
//! which closes the
//! previously-open race where a snapshot publish could garbage-collect
//! a segment out from under a slow reader. Pins move with the cursor
//! and are released on drop, so a lagging cursor delays GC of old
//! segments instead of crashing on them.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use crate::error::StoreError;
use crate::wal::{
    numbered_files, numbered_name, RecordHead, SegmentPins, SegmentReader, SEG_PREFIX, SEG_SUFFIX,
};

/// One CRC-validated committed record read from the log, still in its
/// on-disk frame bytes — exactly what the replication layer ships.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Global sequence number of the record's first operation.
    pub first_seq: u64,
    /// Operations in the record.
    pub count: u32,
    /// The full on-disk frame: `len u32 · crc u32 · payload`.
    pub frame: Vec<u8>,
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
    /// That segment, read up to the next unread frame.
    reader: SegmentReader,
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
        let Some((segment_first, path)) =
            segs.into_iter().rev().find(|(first, _)| *first <= from_seq)
        else {
            return Err(StoreError::OutOfRetention {
                requested: from_seq,
                available_from,
            });
        };
        let (reader, _) = SegmentReader::open(&path, segment_first, standard, version)?;
        pin(&pins, segment_first);
        let mut cursor = Self {
            dir: dir.to_path_buf(),
            standard,
            version,
            pins,
            segment_first,
            reader,
            next_seq: segment_first,
        };
        // Skip forward to `from_seq` over the buffered frames, copying
        // none. Records are whole batches, so the target must fall on a
        // record boundary of the surviving chain.
        while cursor.next_seq < from_seq && cursor.advance(|_, _| ())?.is_some() {}
        if cursor.next_seq != from_seq {
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
    /// I/O errors from the underlying reads, and a rolled-to segment
    /// whose header fails the check.
    pub fn next_record(&mut self) -> Result<Option<WalRecord>, StoreError> {
        self.advance(|head, frame| WalRecord {
            first_seq: head.first_seq,
            count: head.count,
            frame: frame.to_vec(),
        })
    }

    /// Moves past the next record, handing its head and frame bytes to
    /// `read`. At the clean end of its segment the cursor follows the
    /// writer's roll to a segment starting exactly at its position —
    /// where the log scan moves on too; a torn or failing frame is
    /// either still being written or ends the log.
    fn advance<R>(
        &mut self,
        mut read: impl FnMut(RecordHead, &[u8]) -> R,
    ) -> Result<Option<R>, StoreError> {
        loop {
            let next = self.reader.next_frame(self.next_seq)?;
            if let Some((end_seq, out)) =
                next.map(|(head, _, frame)| (head.end_seq(), read(head, frame)))
            {
                self.next_seq = end_seq;
                return Ok(Some(out));
            }
            // A roll never leaves an empty segment behind, so an empty
            // one is still the live tail.
            if !self.reader.at_end() || self.next_seq == self.segment_first {
                return Ok(None);
            }
            let path = self
                .dir
                .join(numbered_name(SEG_PREFIX, self.next_seq, SEG_SUFFIX));
            let (reader, _) =
                match SegmentReader::open(&path, self.next_seq, self.standard, self.version) {
                    Err(StoreError::Io(e)) if e.kind() == ErrorKind::NotFound => return Ok(None),
                    opened => opened?,
                };
            unpin(&self.pins, self.segment_first);
            pin(&self.pins, self.next_seq);
            self.segment_first = self.next_seq;
            self.reader = reader;
        }
    }
}

impl Drop for WalCursor {
    fn drop(&mut self) {
        unpin(&self.pins, self.segment_first);
    }
}
