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
//! Each format has one parser: `SegmentHeader` reads and writes the
//! header, `RecordHead` the payload head, and one frame check (length ·
//! CRC · head, then `RecordHead::continues`) serves
//! [`Wal::append_frames`] and `SegmentReader`, the one reader of segment
//! files, through which the open-time scan and the tailing
//! [`WalCursor`](crate::cursor::WalCursor) alike read the log.
//!
//! **Torn-tail rule:** a crash can leave the last record half-written.
//! [`Wal::open`] re-scans the segments, truncates the tail at the first
//! frame whose length, checksum, or sequence continuity fails, and
//! deletes any segments past the failure (data after a bad frame is
//! unreachable — sequence numbers are gap-free, so nothing beyond it
//! could ever be replayed). The same scan backs recovery, which decodes
//! and replays the surviving prefix one record at a time.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
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
/// Name prefix of segment files, `wal-<first_seq>.seg`.
pub(crate) const SEG_PREFIX: &str = "wal-";
/// Name suffix of segment files.
pub(crate) const SEG_SUFFIX: &str = ".seg";

/// `<prefix><n, 20 digits><suffix>`: the file names
/// [`numbered_files`] lists.
pub(crate) fn numbered_name(prefix: &str, n: u64, suffix: &str) -> String {
    format!("{prefix}{n:020}{suffix}")
}

/// The sorted `(n, path)` list of the files in `dir` named
/// `<prefix><n><suffix>` — the one directory lister of the store.
pub(crate) fn numbered_files(
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let n = name.to_str().and_then(|name| {
            let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
            digits.parse::<u64>().ok()
        });
        if let Some(n) = n {
            files.push((n, entry.path()));
        }
    }
    files.sort();
    Ok(files)
}

/// Fsyncs the directory itself, so files created, renamed or removed in
/// it survive a power cut.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// A segment file's fixed header.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SegmentHeader {
    pub standard: u8,
    pub version: u8,
    pub first_seq: u64,
    pub epoch: u64,
}

impl SegmentHeader {
    /// Parses the header off the front of a segment's bytes; returns it
    /// and the frames behind it.
    pub(crate) fn parse(bytes: &[u8]) -> Result<(Self, &[u8]), CodecError> {
        let mut input = bytes
            .strip_prefix(SEG_MAGIC)
            .ok_or(CodecError::Invalid("bad segment magic"))?;
        let (standard, version, first_seq, epoch) = Codec::decode(&mut input)?;
        let header = Self {
            standard,
            version,
            first_seq,
            epoch,
        };
        Ok((header, input))
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = SEG_MAGIC.to_vec();
        (self.standard, self.version, self.first_seq, self.epoch).encode_into(&mut out);
        out
    }

    /// Refuses a readable header of another standard or codec version
    /// loudly, instead of silently truncating someone else's data.
    pub(crate) fn check(&self, standard: u8, version: u8) -> Result<(), StoreError> {
        if (self.standard, self.version) != (standard, version) {
            return Err(StoreError::WrongStandard {
                found: (self.standard, self.version),
                expected: (standard, version),
            });
        }
        Ok(())
    }
}

/// The fixed head of a record payload: `kind · batch · first_seq ·
/// count`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RecordHead {
    pub batch: u64,
    pub first_seq: u64,
    pub count: u32,
}

impl RecordHead {
    /// Parses the head off a record payload; returns it and the entry
    /// bytes behind it.
    pub(crate) fn parse(payload: &[u8]) -> Result<(Self, &[u8]), CodecError> {
        let mut input = payload;
        let (kind, batch, first_seq, count) = <(u8, u64, u64, u32)>::decode(&mut input)?;
        if kind != KIND_COMMITS {
            return Err(CodecError::Invalid("unknown WAL record kind"));
        }
        Ok((
            Self {
                batch,
                first_seq,
                count,
            },
            input,
        ))
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        (KIND_COMMITS, self.batch, self.first_seq, self.count).encode_into(out);
    }

    /// Sequence number past the record's last entry.
    pub(crate) fn end_seq(&self) -> u64 {
        self.first_seq.saturating_add(u64::from(self.count))
    }

    /// Whether the record is non-empty and continues the log at
    /// `next_seq`.
    pub(crate) fn continues(&self, next_seq: u64) -> bool {
        self.first_seq == next_seq && self.count != 0
    }
}

/// The one frame check: whether `bytes` starts with a whole frame whose
/// CRC holds over a well-formed record head. Returns the head, the
/// record's entry bytes and the frame's length; sequence continuity is
/// the caller's [`RecordHead::continues`].
pub(crate) fn check_frame(bytes: &[u8]) -> Option<(RecordHead, &[u8], usize)> {
    let mut input = bytes;
    let (len, crc) = <(u32, u32)>::decode(&mut input).ok()?;
    let payload = input.get(..len as usize)?;
    if crc32(payload) != crc {
        return None;
    }
    let (head, entries) = RecordHead::parse(payload).ok()?;
    Some((head, entries, FRAME_LEN + payload.len()))
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

/// A frame [`SegmentReader::next_frame`] yields: its record head, its
/// entry bytes and the whole frame.
type Frame<'a> = (RecordHead, &'a [u8], &'a [u8]);

/// Bytes a segment reader reads from its file at a time.
const SCAN_CHUNK: usize = 256 << 10;

/// The one reader of segment bytes, behind the log scan and the tailing
/// [`WalCursor`](crate::cursor::WalCursor) alike: a segment file read
/// front to back through one buffer of about [`SCAN_CHUNK`] bytes (or
/// one frame, if a frame is longer), so a reader holds that much of the
/// log at a time, not whole segments. Segments only grow under a
/// reader, so it reads on into bytes the writer appends after it opened.
pub(crate) struct SegmentReader {
    file: File,
    /// Length of the file when last measured.
    len: u64,
    /// Bytes read from the file so far.
    read: u64,
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already consumed.
    pos: usize,
}

impl std::fmt::Debug for SegmentReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentReader")
            .field("offset", &self.offset())
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl SegmentReader {
    /// Opens the segment at `path`, whose file name says it starts at
    /// `first`, and makes the one header check: the magic, the standard
    /// and codec version, and `first_seq` against the file name. Returns
    /// the reader, positioned at the first frame, and the header.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] for a header that does not parse or names
    /// another `first_seq`; [`StoreError::WrongStandard`] for one of
    /// another standard or codec version.
    pub(crate) fn open(
        path: &Path,
        first: u64,
        standard: u8,
        version: u8,
    ) -> Result<(Self, SegmentHeader), StoreError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut reader = Self {
            file,
            len,
            read: 0,
            buf: Vec::new(),
            pos: 0,
        };
        reader.fill(SCAN_CHUNK)?;
        let (header, _) = SegmentHeader::parse(reader.buffered())?;
        if header.first_seq != first {
            return Err(CodecError::Invalid("segment header disagrees with its file name").into());
        }
        header.check(standard, version)?;
        reader.pos = SEG_HEADER_LEN as usize;
        Ok((reader, header))
    }

    /// The bytes read and not consumed yet.
    fn buffered(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Byte offset in the file of the first byte not consumed.
    pub(crate) fn offset(&self) -> u64 {
        self.read - self.buffered().len() as u64
    }

    /// Whether every byte of the file, as last measured, is consumed.
    pub(crate) fn at_end(&self) -> bool {
        self.buffered().is_empty() && self.read >= self.len
    }

    /// Whether the file holds `bytes` more past those read, measuring it
    /// again when its last known length falls short.
    fn holds(&mut self, bytes: u64) -> Result<bool, StoreError> {
        let end = self.read.saturating_add(bytes);
        if end > self.len {
            self.len = self.file.metadata()?.len();
        }
        Ok(end <= self.len)
    }

    /// Reads until `want` bytes are buffered or the file, as last
    /// measured, ends.
    fn fill(&mut self, want: usize) -> Result<(), StoreError> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        let more =
            (want.saturating_sub(self.buf.len()) as u64).min(self.len.saturating_sub(self.read));
        self.buf.reserve_exact(more as usize);
        let read = (&mut self.file).take(more).read_to_end(&mut self.buf)? as u64;
        self.read += read;
        // A file that ends early has nothing more to give.
        if read < more {
            self.len = self.read;
        }
        Ok(())
    }

    /// Consumes and returns the next frame if the segment holds it
    /// whole, it passes [`check_frame`] and it continues the log at
    /// `next_seq` ([`RecordHead::continues`]). Reads on while the frame
    /// at the front is incomplete and the file holds its declared
    /// length, so a hostile length prefix never sizes a buffer past the
    /// file. `None` consumes nothing: an incomplete frame may still be
    /// completed by the writer, and a later call reads on.
    pub(crate) fn next_frame(&mut self, next_seq: u64) -> Result<Option<Frame<'_>>, StoreError> {
        loop {
            let rest = self.buffered();
            let checked = check_frame(rest).map(|(head, entries, len)| (head, entries.len(), len));
            if let Some((head, entries, len)) = checked {
                if !head.continues(next_seq) {
                    return Ok(None);
                }
                self.pos += len;
                let frame = &self.buf[self.pos - len..self.pos];
                return Ok(Some((head, &frame[len - entries..], frame)));
            }
            let frame_len = rest.get(..4).map_or(FRAME_LEN, |len| {
                FRAME_LEN + u32::from_le_bytes(len.try_into().expect("four bytes")) as usize
            });
            let missing = frame_len.saturating_sub(rest.len());
            if missing == 0 || !self.holds(missing as u64)? {
                return Ok(None);
            }
            self.fill(frame_len.max(SCAN_CHUNK))?;
        }
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
/// records to `sink`, stopping at the first invalid frame or
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
    mut sink: impl FnMut(RecordHead, &[u8]) -> Result<(), E>,
) -> Result<LogScan, E> {
    let mut scan = LogScan {
        next_seq: 0,
        tail: None,
        stop: None,
        epoch: 0,
    };
    let segs = numbered_files(dir, SEG_PREFIX, SEG_SUFFIX)?;
    for (i, (first, path)) in segs.into_iter().enumerate() {
        // Epochs only ever increase along the chain: a segment stamped
        // with an *older* epoch after a newer one is a stale primary's
        // leftover and ends the usable chain, exactly like a backward
        // sequence overlap — and so does an unreadable header.
        let opened = match SegmentReader::open(&path, first, standard, version) {
            Err(StoreError::Codec(_)) => None,
            opened => Some(opened?),
        };
        let Some((mut segment, header)) = opened
            .filter(|(_, header)| i == 0 || (first >= scan.next_seq && header.epoch >= scan.epoch))
        else {
            scan.stop = Some(ScanStop {
                segment_first_seq: first,
                offset: 0,
            });
            return Ok(scan);
        };
        scan.epoch = header.epoch;
        let mut next_seq = first;
        while let Some((head, entries, _)) = segment.next_frame(next_seq)? {
            sink(head, entries)?;
            next_seq = head.end_seq();
        }
        let end = segment.offset();
        scan.next_seq = next_seq;
        scan.tail = Some((first, path, end));
        if !segment.at_end() {
            scan.stop = Some(ScanStop {
                segment_first_seq: first,
                offset: end,
            });
            return Ok(scan);
        }
    }
    Ok(scan)
}

/// Decodes the committed-operation entries of one record payload — the
/// decode path of a replication follower unpacking a shipped frame.
/// Total: short or foreign bytes are an error, never a panic.
///
/// # Errors
///
/// [`CodecError`] when the payload does not hold a well-formed record.
pub fn decode_commits<Op: Codec, Resp: Codec>(
    payload: &[u8],
) -> Result<Vec<CommittedOp<Op, Resp>>, CodecError> {
    let (head, entries) = RecordHead::parse(payload)?;
    decode_entries(head, entries).collect()
}

/// The one entry decoder: the `head.count` entries behind a record
/// head, each decoded when the iterator reaches it, so recovery
/// replays an entry before it decodes the next. A short or malformed
/// entry, or bytes left past the last one, is yielded as the error it
/// is and ends the run.
pub(crate) fn decode_entries<Op: Codec, Resp: Codec>(
    head: RecordHead,
    mut input: &[u8],
) -> impl Iterator<Item = Result<CommittedOp<Op, Resp>, CodecError>> + '_ {
    let mut seqs = head.first_seq..head.end_seq();
    let mut failed = false;
    std::iter::from_fn(move || {
        if failed {
            return None;
        }
        let entry = match seqs.next() {
            Some(seq) => {
                <(u32, Op, Resp)>::decode(&mut input).map(|(caller, op, resp)| CommittedOp {
                    seq,
                    batch: head.batch,
                    caller: ProcessId::new(caller as usize),
                    op,
                    resp,
                })
            }
            None if input.is_empty() => return None,
            None => Err(CodecError::Invalid("record has trailing bytes")),
        };
        failed = entry.is_err();
        Some(entry)
    })
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
    /// Where the log resumes past a hole above the open floor, if it
    /// does: the records `[floor, resume)` are gone.
    resumes_past_hole: Option<u64>,
    /// The record [`Wal::append`] encodes, kept between appends so a
    /// batch reuses the capacity earlier batches grew.
    frame: Vec<u8>,
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
        let (mut covered, mut resumes_past_hole) = (floor_seq, None);
        let scan = scan_log::<StoreError>(dir, standard, version, |head, _| {
            if head.first_seq > covered {
                resumes_past_hole = resumes_past_hole.or(Some(head.first_seq));
            }
            covered = covered.max(head.end_seq());
            Ok(())
        })?;
        // First repair the surviving chain: drop every segment past the
        // scan's tail (unreachable — appends would collide with its
        // sequence numbers otherwise; with no usable tail at all, that
        // is every file), then truncate the tail's torn end.
        let last_kept = scan.tail.as_ref().map(|(first, ..)| *first);
        for (first, seg_path) in numbered_files(dir, SEG_PREFIX, SEG_SUFFIX)? {
            if last_kept.is_none_or(|last| first > last) {
                fs::remove_file(seg_path)?;
            }
        }
        if let Some((_, path, end)) = &scan.tail {
            let file = OpenOptions::new().write(true).open(path)?;
            if file.metadata()?.len() != *end {
                file.set_len(*end)?;
                file.sync_data()?;
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
                let header = SegmentHeader {
                    standard,
                    version,
                    first_seq: floor_seq,
                    epoch,
                };
                let path = Self::create_segment(dir, &header)?;
                (floor_seq, path, SEG_HEADER_LEN, floor_seq)
            }
        };
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.seek(SeekFrom::Start(valid_end))?;
        sync_dir(dir)?;
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
            resumes_past_hole,
            frame: Vec::new(),
            obs: StoreObs::disabled(),
        })
    }

    /// Where the log scanned at open resumes past a hole above its
    /// floor (the records below that point down to the floor are gone),
    /// if it does.
    pub(crate) fn resumes_past_hole(&self) -> Option<u64> {
        self.resumes_past_hole
    }

    /// Attaches a recorder; WAL I/O records into it from then on.
    pub fn set_obs(&mut self, obs: StoreObs) {
        self.obs = obs;
    }

    fn create_segment(dir: &Path, header: &SegmentHeader) -> Result<PathBuf, StoreError> {
        let path = dir.join(numbered_name(SEG_PREFIX, header.first_seq, SEG_SUFFIX));
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        file.write_all(&header.encode())?;
        file.sync_data()?;
        sync_dir(dir)?;
        Ok(path)
    }

    /// The header this log stamps on a segment starting at `first_seq`.
    fn header(&self, first_seq: u64) -> SegmentHeader {
        SegmentHeader {
            standard: self.standard,
            version: self.version,
            first_seq,
            epoch: self.epoch,
        }
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
            // Empty tail segment: rewrite its header in place.
            self.file.seek(SeekFrom::Start(0))?;
            self.file
                .write_all(&self.header(self.segment_first).encode())?;
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
        Ok(numbered_files(&self.dir, SEG_PREFIX, SEG_SUFFIX)?
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
        // The frame prefix (length, CRC) is patched in once the payload
        // behind it is encoded.
        let frame = &mut self.frame;
        frame.clear();
        frame.resize(FRAME_LEN, 0);
        frame.reserve(21 + entries.len() * 16);
        let record = RecordHead {
            batch: head.batch,
            first_seq: base + head.seq,
            count: entries.len() as u32,
        };
        record.encode_into(frame);
        for (k, entry) in entries.iter().enumerate() {
            debug_assert_eq!(entry.seq, head.seq + k as u64, "entries not contiguous");
            let caller =
                u32::try_from(entry.caller.index()).expect("caller exceeds the u32 key space");
            caller.encode_into(frame);
            entry.op.encode_into(frame);
            entry.resp.encode_into(frame);
        }
        let (prefix, payload) = frame.split_at_mut(FRAME_LEN);
        prefix[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        prefix[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        self.file.write_all(frame)?;
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
    /// seals and replicated appends sync through the store's durability
    /// thread; this is the inline form for callers that must not proceed
    /// before the bytes are down — a snapshot publish (log before the
    /// snapshot that supersedes it), a store close.
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
        let (mut offset, mut end_seq, mut frames) = (0, self.next_seq, 0u64);
        while let Some((head, _, len)) =
            check_frame(&bytes[offset..]).filter(|(head, ..)| head.continues(end_seq))
        {
            (offset, end_seq, frames) = (offset + len, head.end_seq(), frames + 1);
        }
        if offset != bytes.len() {
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
        let path = Self::create_segment(&self.dir, &self.header(self.next_seq))?;
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
        let segs = numbered_files(&self.dir, SEG_PREFIX, SEG_SUFFIX)?;
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
        sync_dir(&self.dir)?;
        Ok(())
    }

    /// Total bytes currently on disk across all segments (diagnostic;
    /// the store bench records it).
    pub fn disk_bytes(&self) -> Result<u64, StoreError> {
        let mut total = 0;
        for (_, path) in numbered_files(&self.dir, SEG_PREFIX, SEG_SUFFIX)? {
            total += fs::metadata(path)?.len();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_dir_reports_a_removed_directory() {
        let dir = std::env::temp_dir().join(format!("tokensync-sync-dir-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        sync_dir(&dir).expect("sync a live directory");
        fs::remove_dir(&dir).unwrap();
        assert!(sync_dir(&dir).is_err());
    }
}
