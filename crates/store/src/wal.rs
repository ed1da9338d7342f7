//! The segmented binary write-ahead log.
//!
//! A log is a directory of segment files `wal-<first_seq>.seg`, each
//! holding a fixed header followed by CRC-framed records:
//!
//! ```text
//! segment  := magic "TSWALSEG" · standard u8 · version u8 · first_seq u64
//!             · epoch u64 · record*
//! record   := len u32 · crc32(payload) u32 · payload
//! payload  := kind u8 (1 = commits) · batch u64 · first_seq u64
//!             · count u32 · count × (caller u32 · op · resp)
//! ```
//!
//! (all integers little-endian; `op`/`resp` use
//! [`tokensync_core::codec::Codec`]). One record carries one committed
//! *batch* — the group the pipeline hands to its
//! [`CommitSink`](tokensync_pipeline::CommitSink) — so group-commit
//! durability is one record and at most one `fsync` per batch.
//!
//! **Torn-tail rule:** a crash can leave the last record half-written.
//! [`Wal::open`] re-scans the segments, truncates the tail at the first
//! frame whose length, checksum, or sequence continuity fails, and
//! deletes any segments past the failure (data after a bad frame is
//! unreachable — sequence numbers are gap-free, so nothing beyond it
//! could ever be replayed). The same scan backs the recovery-side
//! reader, which decodes the surviving prefix.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tokensync_core::codec::{Codec, CodecError};
use tokensync_pipeline::CommittedOp;
use tokensync_spec::ProcessId;

use crate::crc::crc32;
use crate::error::StoreError;
use crate::obs::StoreObs;

/// Magic prefix of every segment file.
pub const SEG_MAGIC: &[u8; 8] = b"TSWALSEG";
/// Bytes of the segment header (magic + standard + version + first_seq
/// + epoch).
pub const SEG_HEADER_LEN: u64 = 8 + 1 + 1 + 8 + 8;
/// Record kind: a group of committed operations.
const KIND_COMMITS: u8 = 1;
/// Bytes of a record's frame prefix (payload length u32 + CRC u32) —
/// a shipped frame's payload starts at this offset.
pub const FRAME_LEN: usize = 8;

fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.seg")
}

/// The sorted `(first_seq, path)` list of segment files in `dir`.
pub(crate) fn segment_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".seg"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segs.push((seq, entry.path()));
        }
    }
    segs.sort();
    Ok(segs)
}

/// Best-effort directory fsync so created/renamed/removed files survive
/// a power cut (a no-op error on filesystems that refuse dir handles).
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// Where and why a log scan stopped before the physical end of the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanStop {
    /// `first_seq` of the segment holding the offending bytes.
    pub segment_first_seq: u64,
    /// Byte offset inside that segment where the first invalid frame
    /// starts (the surviving prefix ends here).
    pub offset: u64,
}

/// One frame-level walk over a segment's bytes (header already split
/// off). Calls `sink(payload)` for every CRC-valid record whose
/// sequence numbers continue `next_seq`; returns the byte offset of the
/// first invalid frame (or the end) and the updated `next_seq`.
fn walk_frames<E>(
    bytes: &[u8],
    mut next_seq: u64,
    mut sink: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<(u64, u64, bool), E> {
    let mut offset = 0usize;
    loop {
        let rest = &bytes[offset..];
        if rest.len() < FRAME_LEN {
            return Ok((offset as u64, next_seq, rest.is_empty()));
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if rest.len() < FRAME_LEN + len {
            return Ok((offset as u64, next_seq, false));
        }
        let payload = &rest[FRAME_LEN..FRAME_LEN + len];
        if crc32(payload) != crc {
            return Ok((offset as u64, next_seq, false));
        }
        // Parse the fixed payload head: kind, batch, first_seq, count.
        if payload.len() < 1 + 8 + 8 + 4 || payload[0] != KIND_COMMITS {
            return Ok((offset as u64, next_seq, false));
        }
        let first = u64::from_le_bytes(payload[9..17].try_into().expect("8 bytes"));
        let count = u32::from_le_bytes(payload[17..21].try_into().expect("4 bytes")) as u64;
        if first != next_seq || count == 0 {
            return Ok((offset as u64, next_seq, false));
        }
        sink(payload)?;
        next_seq += count;
        offset += FRAME_LEN + len;
    }
}

/// Result of re-scanning the segment chain at open/recovery time.
pub(crate) struct LogScan {
    /// First sequence number past the surviving log.
    pub next_seq: u64,
    /// Segment the scan ended in, if any exist: `(first_seq, path,
    /// valid_end_offset)`.
    pub tail: Option<(u64, PathBuf, u64)>,
    /// `Some` iff the scan stopped before the clean end of the log.
    pub stop: Option<ScanStop>,
    /// Highest replication epoch stamped into any surviving segment
    /// header (0 on an unreplicated store — epochs only exist once a
    /// primary is promoted over the directory).
    pub epoch: u64,
}

/// Walks every segment in order, handing CRC-valid, seq-continuous
/// record payloads to `sink`, stopping at the first invalid frame or
/// backward-overlapping segment.
///
/// A *forward* jump between segments (the next segment's `first_seq`
/// beyond the current position) is legal and scanned through: the
/// floor-repair path of [`Wal::open`] deliberately starts a fresh
/// segment at a snapshot watermark while leaving an older valid prefix
/// on disk for older-snapshot fallback. Sequence numbers still only
/// ever increase, and recovery's replay stops at any seq its expected
/// position does not match — so a jump can never smuggle entries into
/// the wrong place, it only leaves both sides of the gap readable.
pub(crate) fn scan_log<E: From<StoreError>>(
    dir: &Path,
    standard: u8,
    version: u8,
    mut sink: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<LogScan, E> {
    let segs = segment_files(dir).map_err(E::from)?;
    let mut next_seq = 0u64;
    let mut epoch = 0u64;
    let mut tail: Option<(u64, PathBuf, u64)> = None;
    for (i, (first, path)) in segs.iter().enumerate() {
        let bytes = fs::read(path).map_err(|e| E::from(StoreError::Io(e)))?;
        let seg_epoch = (bytes.len() as u64 >= SEG_HEADER_LEN)
            .then(|| u64::from_le_bytes(bytes[18..26].try_into().expect("8 bytes")))
            .unwrap_or(0);
        // Epochs only ever increase along the chain: a segment stamped
        // with an *older* epoch after a newer one is a stale primary's
        // leftover and ends the usable chain, exactly like a backward
        // sequence overlap.
        let header_ok = bytes.len() as u64 >= SEG_HEADER_LEN
            && &bytes[0..8] == SEG_MAGIC
            && u64::from_le_bytes(bytes[10..18].try_into().expect("8 bytes")) == *first
            && (i == 0 || (*first >= next_seq && seg_epoch >= epoch));
        if header_ok && (bytes[8], bytes[9]) != (standard, version) {
            // Readable header, wrong contents: refuse loudly instead of
            // silently truncating someone else's data.
            return Err(E::from(StoreError::WrongStandard {
                found: (bytes[8], bytes[9]),
                expected: (standard, version),
            }));
        }
        if !header_ok {
            // Unreadable header or a backward overlap: the chain ends at
            // the previous segment.
            return Ok(LogScan {
                next_seq,
                tail,
                stop: Some(ScanStop {
                    segment_first_seq: *first,
                    offset: 0,
                }),
                epoch,
            });
        }
        next_seq = *first;
        epoch = seg_epoch;
        let (valid_end, seq, clean) =
            walk_frames(&bytes[SEG_HEADER_LEN as usize..], next_seq, &mut sink)?;
        next_seq = seq;
        tail = Some((*first, path.clone(), SEG_HEADER_LEN + valid_end));
        if !clean {
            return Ok(LogScan {
                next_seq,
                tail,
                stop: Some(ScanStop {
                    segment_first_seq: *first,
                    offset: SEG_HEADER_LEN + valid_end,
                }),
                epoch,
            });
        }
    }
    Ok(LogScan {
        next_seq,
        tail,
        stop: None,
        epoch,
    })
}

/// Decodes the committed-operation entries of one record payload whose
/// framing (CRC, fixed head) has already been validated — the shared
/// decode path of recovery and of a replication follower unpacking a
/// shipped frame.
pub fn decode_commits<Op: Codec, Resp: Codec>(
    payload: &[u8],
) -> Result<Vec<CommittedOp<Op, Resp>>, CodecError> {
    let mut out = Vec::new();
    decode_record(payload, &mut out)?;
    Ok(out)
}

/// Decodes the committed-operation entries of one record payload
/// (already CRC-validated) into `out`.
fn decode_record<Op: Codec, Resp: Codec>(
    payload: &[u8],
    out: &mut Vec<CommittedOp<Op, Resp>>,
) -> Result<(), CodecError> {
    let batch = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
    let first = u64::from_le_bytes(payload[9..17].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(payload[17..21].try_into().expect("4 bytes")) as u64;
    let mut input = &payload[21..];
    for k in 0..count {
        let caller = {
            if input.len() < 4 {
                return Err(CodecError::Truncated);
            }
            let (head, rest) = input.split_at(4);
            input = rest;
            u32::from_le_bytes(head.try_into().expect("4 bytes")) as usize
        };
        let op = Op::decode(&mut input)?;
        let resp = Resp::decode(&mut input)?;
        out.push(CommittedOp {
            seq: first + k,
            batch,
            caller: ProcessId::new(caller),
            op,
            resp,
        });
    }
    if !input.is_empty() {
        return Err(CodecError::Invalid("record has trailing bytes"));
    }
    Ok(())
}

/// Reads the surviving, decodable suffix of the log from `min_seq` on:
/// every committed operation whose record framing, checksum and
/// sequence continuity are intact, in commit order. Records wholly
/// below `min_seq` (already folded into the caller's snapshot) are
/// frame-validated by the scan but never decoded — at the default GC
/// policy roughly a snapshot-interval of records sits below the newest
/// watermark, and decoding it just to throw it away would double
/// recovery's decode work.
///
/// # Errors
///
/// I/O errors; [`StoreError::WrongStandard`] for a foreign directory;
/// [`StoreError::Codec`] when a CRC-*valid* record fails to decode —
/// that is encoder/decoder skew, not disk damage, and deserves a loud
/// failure rather than silent truncation.
pub(crate) fn read_entries<Op: Codec, Resp: Codec>(
    dir: &Path,
    standard: u8,
    version: u8,
    min_seq: u64,
) -> Result<(Vec<CommittedOp<Op, Resp>>, LogScan), StoreError> {
    let mut entries = Vec::new();
    let scan = scan_log::<StoreError>(dir, standard, version, |payload| {
        // walk_frames already validated the fixed head fields.
        let first = u64::from_le_bytes(payload[9..17].try_into().expect("8 bytes"));
        let count = u32::from_le_bytes(payload[17..21].try_into().expect("4 bytes")) as u64;
        if first.saturating_add(count) <= min_seq {
            return Ok(());
        }
        decode_record(payload, &mut entries).map_err(StoreError::Codec)
    })?;
    Ok((entries, scan))
}

/// Shared registry of segments pinned by live [`WalCursor`]s (keyed by
/// the segment's `first_seq`, counted so several cursors may pin one
/// segment): [`Wal::gc`] treats the oldest pinned segment as a deletion
/// floor, which closes the old race where GC could delete a segment a
/// tailing reader was mid-way through (or about to roll into).
///
/// [`WalCursor`]: crate::cursor::WalCursor
pub(crate) type SegmentPins =
    std::sync::Arc<std::sync::Mutex<std::collections::HashMap<u64, usize>>>;

/// The append side of the log.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    standard: u8,
    version: u8,
    max_segment_bytes: u64,
    file: File,
    segment_first: u64,
    segment_bytes: u64,
    next_seq: u64,
    epoch: u64,
    pins: SegmentPins,
    /// Recorder seam (disabled by default): append/fsync latency and
    /// byte/record/segment counters.
    obs: StoreObs,
}

impl Wal {
    /// Opens (or initializes) the log in `dir` for appending: scans the
    /// segment chain, truncates the torn tail, deletes unreachable
    /// segments past a corruption, and positions the writer at the end.
    ///
    /// `floor_seq` is the caller's durable coverage floor (the validated
    /// snapshot watermark): when no segment of the chain is usable — a
    /// fresh directory, or every surviving segment has an unreadable
    /// header — the unreadable files are dropped and a fresh segment
    /// starts **at the floor**, so the global gap-free numbering can
    /// never restart below state a snapshot already covers.
    pub fn open(
        dir: &Path,
        standard: u8,
        version: u8,
        max_segment_bytes: u64,
        floor_seq: u64,
    ) -> Result<Self, StoreError> {
        fs::create_dir_all(dir)?;
        let scan = scan_log::<StoreError>(dir, standard, version, |_| Ok(()))?;
        // First repair the surviving chain: truncate the torn tail of
        // the stop segment and drop everything after it (unreachable —
        // appends would collide with its sequence numbers otherwise).
        // With no usable tail at all (the very first header is
        // unreadable) nothing is replayable, so clear the files.
        if let Some((scanned_first, scanned_path, scanned_end)) = &scan.tail {
            for (first, seg_path) in segment_files(dir)? {
                if first > *scanned_first {
                    fs::remove_file(seg_path)?;
                }
            }
            let file = OpenOptions::new().write(true).open(scanned_path)?;
            if file.metadata()?.len() != *scanned_end {
                file.set_len(*scanned_end)?;
                file.sync_data()?;
            }
        } else {
            for (_, seg_path) in segment_files(dir)? {
                fs::remove_file(seg_path)?;
            }
        }
        // Then position the writer. If the surviving log ends below the
        // snapshot floor (torn back under published coverage), the
        // valid prefix STAYS on disk — an older snapshot may still need
        // it — but appends start in a fresh segment at the floor, so
        // sequence numbers a snapshot already covers are never reused.
        let epoch = scan.epoch;
        let (segment_first, path, valid_end, next_seq) = match scan.tail {
            Some((first, path, valid_end)) if scan.next_seq >= floor_seq => {
                (first, path, valid_end, scan.next_seq)
            }
            _ => {
                let path = Self::create_segment(dir, standard, version, floor_seq, epoch)?;
                (floor_seq, path, SEG_HEADER_LEN, floor_seq)
            }
        };
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.seek(SeekFrom::Start(valid_end))?;
        sync_dir(dir);
        Ok(Self {
            dir: dir.to_path_buf(),
            standard,
            version,
            max_segment_bytes: max_segment_bytes.max(SEG_HEADER_LEN + 1),
            file,
            segment_first,
            segment_bytes: valid_end,
            next_seq,
            epoch,
            pins: SegmentPins::default(),
            obs: StoreObs::disabled(),
        })
    }

    /// Attaches a recorder; WAL I/O records into it from then on.
    pub fn set_obs(&mut self, obs: StoreObs) {
        self.obs = obs;
    }

    fn create_segment(
        dir: &Path,
        standard: u8,
        version: u8,
        first_seq: u64,
        epoch: u64,
    ) -> Result<PathBuf, StoreError> {
        let path = dir.join(segment_name(first_seq));
        let mut header = Vec::with_capacity(SEG_HEADER_LEN as usize);
        header.extend_from_slice(SEG_MAGIC);
        header.push(standard);
        header.push(version);
        header.extend_from_slice(&first_seq.to_le_bytes());
        header.extend_from_slice(&epoch.to_le_bytes());
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        file.write_all(&header)?;
        file.sync_data()?;
        sync_dir(dir);
        Ok(path)
    }

    /// First sequence number the next append must carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The replication epoch new segments are stamped with — the highest
    /// epoch this log has ever durably seen.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Durably raises the replication epoch — the **fencing write** of a
    /// promotion or of a follower adopting a new primary. The new epoch
    /// is stamped into the segment header: an empty tail segment is
    /// restamped in place, a non-empty one is rolled, so after this
    /// returns a restart can never rediscover a lower epoch.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is lower than the current one (epochs are
    /// fencing tokens; they only move forward).
    pub fn set_epoch(&mut self, epoch: u64) -> Result<(), StoreError> {
        assert!(epoch >= self.epoch, "epochs must not move backwards");
        if epoch == self.epoch {
            return Ok(());
        }
        self.epoch = epoch;
        if self.segment_bytes == SEG_HEADER_LEN {
            // Empty tail segment: restamp its header in place.
            self.file.seek(SeekFrom::Start(18))?;
            self.file.write_all(&epoch.to_le_bytes())?;
            self.file.sync_data()?;
            self.file.seek(SeekFrom::Start(self.segment_bytes))?;
        } else {
            self.roll()?;
        }
        Ok(())
    }

    /// A tailing cursor positioned at `from_seq`, pinning the segments
    /// it reads against [`Wal::gc`].
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRetention`] when `from_seq` lies below the
    /// oldest record still on disk (GC already took it — the caller must
    /// fall back to snapshot shipping) or does not align with a record
    /// boundary of the surviving chain.
    pub fn cursor(&self, from_seq: u64) -> Result<crate::cursor::WalCursor, StoreError> {
        crate::cursor::WalCursor::open(
            &self.dir,
            self.standard,
            self.version,
            from_seq,
            self.pins.clone(),
        )
    }

    /// The `first_seq` of the oldest segment still on disk — the lower
    /// bound of what [`Wal::cursor`] can serve.
    pub fn oldest_segment_seq(&self) -> Result<u64, StoreError> {
        Ok(segment_files(&self.dir)?
            .first()
            .map_or(self.next_seq, |&(first, _)| first))
    }

    /// Appends one record holding `entries` (a committed batch). Entry
    /// sequence numbers are engine-run-relative; `base` (the store's
    /// durable position when the run began) translates them into the
    /// log's global numbering: entry `seq` lands at `base + seq`, which
    /// must continue the log contiguously.
    pub fn append<Op: Codec, Resp: Codec>(
        &mut self,
        base: u64,
        entries: &[CommittedOp<Op, Resp>],
    ) -> Result<(), StoreError> {
        let Some(head) = entries.first() else {
            return Ok(());
        };
        assert_eq!(
            base + head.seq,
            self.next_seq,
            "append must continue the log's sequence numbering"
        );
        let started = self.obs.clock();
        if self.segment_bytes >= self.max_segment_bytes {
            self.roll()?;
        }
        let mut payload = Vec::with_capacity(21 + entries.len() * 16);
        payload.push(KIND_COMMITS);
        payload.extend_from_slice(&head.batch.to_le_bytes());
        payload.extend_from_slice(&(base + head.seq).to_le_bytes());
        payload.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (k, entry) in entries.iter().enumerate() {
            debug_assert_eq!(entry.seq, head.seq + k as u64, "entries not contiguous");
            let caller =
                u32::try_from(entry.caller.index()).expect("caller exceeds the u32 key space");
            payload.extend_from_slice(&caller.to_le_bytes());
            entry.op.encode_into(&mut payload);
            entry.resp.encode_into(&mut payload);
        }
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.segment_bytes += frame.len() as u64;
        self.next_seq += entries.len() as u64;
        self.obs.record_append(started, frame.len());
        Ok(())
    }

    /// A second handle to the active tail segment's file, for syncing
    /// it from another thread (the pipelined group-commit fsync
    /// thread). Safe to sync out-of-band because [`Wal::roll`] fsyncs
    /// the old segment *before* switching files — at any moment only
    /// the current tail can hold unsynced bytes, so `sync_data` on the
    /// newest handle posted covers every append up to its post time.
    pub(crate) fn tail_handle(&self) -> Result<File, StoreError> {
        Ok(self.file.try_clone()?)
    }

    /// Forces everything appended so far onto stable storage. Batch
    /// seals sync through the store's durability thread; this is the
    /// inline form for callers that must not proceed before the bytes
    /// are down — a snapshot publish (log before the snapshot that
    /// supersedes it), a store close, a replication follower before it
    /// acks.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let started = self.obs.clock();
        self.file.sync_data()?;
        self.obs.record_fsync(started);
        Ok(())
    }

    /// Appends pre-framed record bytes — the replication fast path: a
    /// follower receiving shipped WAL frames validates and persists them
    /// **byte-identically**, without a decode/re-encode round trip. The
    /// whole byte run must parse as CRC-valid frames continuing this
    /// log's sequence numbering exactly; nothing is written otherwise.
    ///
    /// Returns the sequence number past the appended records.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the bytes do not parse as a clean,
    /// contiguous frame run (a partially valid run is rejected whole).
    pub fn append_frames(&mut self, bytes: &[u8]) -> Result<u64, StoreError> {
        let mut frames = 0u64;
        let (valid_end, end_seq, clean) = walk_frames::<StoreError>(bytes, self.next_seq, |_| {
            frames += 1;
            Ok(())
        })?;
        if !clean || valid_end != bytes.len() as u64 {
            return Err(StoreError::Codec(CodecError::Invalid(
                "shipped frames are not a clean continuation of the log",
            )));
        }
        if bytes.is_empty() {
            return Ok(self.next_seq);
        }
        if self.segment_bytes >= self.max_segment_bytes {
            self.roll()?;
        }
        self.file.write_all(bytes)?;
        self.segment_bytes += bytes.len() as u64;
        self.next_seq = end_seq;
        self.obs.record_append_raw(bytes.len(), frames);
        Ok(end_seq)
    }

    /// Closes the current segment and starts a fresh one at the current
    /// sequence number.
    fn roll(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        let path = Self::create_segment(
            &self.dir,
            self.standard,
            self.version,
            self.next_seq,
            self.epoch,
        )?;
        self.file = OpenOptions::new().read(true).write(true).open(&path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.segment_first = self.next_seq;
        self.segment_bytes = SEG_HEADER_LEN;
        self.obs.record_segment();
        Ok(())
    }

    /// Deletes segments wholly below `watermark` (everything they hold
    /// is covered by a published snapshot). The active tail segment is
    /// never deleted, and neither is anything a live [`WalCursor`] still
    /// needs: the oldest pinned segment is a GC *floor* — segments at or
    /// past a lagging reader's position survive so the reader keeps its
    /// gap-free view, and the pass after the cursor advances (or drops)
    /// collects them.
    ///
    /// [`WalCursor`]: crate::cursor::WalCursor
    pub fn gc(&mut self, watermark: u64) -> Result<(), StoreError> {
        let segs = segment_files(&self.dir)?;
        let pin_floor = {
            let pins = self.pins.lock().expect("pin registry poisoned");
            pins.keys().copied().min().unwrap_or(u64::MAX)
        };
        for window in segs.windows(2) {
            let (first, ref path) = window[0];
            let (next_first, _) = window[1];
            if next_first <= watermark && first < self.segment_first && next_first <= pin_floor {
                fs::remove_file(path)?;
            }
        }
        sync_dir(&self.dir);
        Ok(())
    }

    /// Total bytes currently on disk across all segments (diagnostic;
    /// the store bench records it).
    pub fn disk_bytes(&self) -> Result<u64, StoreError> {
        let mut total = 0;
        for (_, path) in segment_files(&self.dir)? {
            total += fs::metadata(path)?.len();
        }
        Ok(total)
    }
}

/// Reads a whole segment file's bytes (test aid for crash injection).
#[doc(hidden)]
pub fn read_segment_bytes(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(bytes)
}
