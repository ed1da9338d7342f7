//! Shared helpers of the store's integration suites: temp directories
//! and crash injection on the WAL byte stream.
//!
//! Each integration binary compiles this module independently and uses
//! a different subset, so unused-helper warnings are suppressed.
#![allow(dead_code)]

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty scratch directory unique to this test + invocation.
pub fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tokensync-store-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The files of `dir` named `<prefix>…<suffix>`, sorted by name (the
/// store zero-pads the number in between, so that is numeric order).
fn store_files(dir: &Path, prefix: &str, suffix: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(suffix))
        })
        .collect();
    files.sort();
    files
}

/// The store's WAL segment files, sorted by first sequence number.
pub fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    store_files(dir, "wal-", ".seg")
}

/// Total bytes across all WAL segments.
pub fn wal_total_bytes(dir: &Path) -> u64 {
    wal_segments(dir)
        .iter()
        .map(|p| fs::metadata(p).expect("segment metadata").len())
        .sum()
}

/// Simulates a crash at byte `offset` of the concatenated WAL stream:
/// segments wholly before the offset survive, the segment containing it
/// is truncated there, segments after it are deleted (they were created
/// later, so at the crash instant they did not exist).
pub fn crash_wal_at(dir: &Path, offset: u64) {
    let mut remaining = offset;
    let mut killed = false;
    for path in wal_segments(dir) {
        if killed {
            fs::remove_file(&path).expect("remove post-crash segment");
            continue;
        }
        let len = fs::metadata(&path).expect("segment metadata").len();
        if remaining >= len {
            remaining -= len;
            continue;
        }
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open segment");
        file.set_len(remaining).expect("truncate segment");
        killed = true;
    }
}

/// The smallest offset of the concatenated WAL stream at which every
/// committed operation with sequence number below `seq` is contained in
/// a record lying wholly before it — i.e. truncating ("crashing") at or
/// past this offset can never lose an entry below `seq`. Returns the
/// total stream length if the log's records do not reach `seq`.
///
/// Parses the on-disk frame format directly (segment header of
/// `SEG_HEADER_LEN` bytes, then `len u32 · crc u32 · payload` with the
/// record's `first_seq` at payload bytes 9..17 and `count` at 17..21),
/// so the helper stays honest about what is physically on disk.
pub fn offset_of_seq(dir: &Path, seq: u64) -> u64 {
    use tokensync_store::wal::{FRAME_LEN, SEG_HEADER_LEN};
    if seq == 0 {
        return 0;
    }
    let mut base = 0u64;
    for path in wal_segments(dir) {
        let bytes = fs::read(&path).expect("read segment");
        let mut local = SEG_HEADER_LEN as usize;
        while local + FRAME_LEN <= bytes.len() {
            let len = u32::from_le_bytes(bytes[local..local + 4].try_into().unwrap()) as usize;
            let payload = local + FRAME_LEN;
            let end = payload + len;
            if end > bytes.len() || len < 21 {
                break; // torn tail
            }
            let first_seq =
                u64::from_le_bytes(bytes[payload + 9..payload + 17].try_into().unwrap());
            let count = u32::from_le_bytes(bytes[payload + 17..payload + 21].try_into().unwrap());
            if first_seq + u64::from(count) >= seq {
                return base + end as u64;
            }
            local = end;
        }
        base += bytes.len() as u64;
    }
    base
}

/// The store's delta-snapshot chain links, sorted by watermark.
pub fn delta_links(dir: &Path) -> Vec<PathBuf> {
    store_files(dir, "snap-", ".delta")
}

/// The store's full snapshots, sorted by watermark.
pub fn full_snapshots(dir: &Path) -> Vec<PathBuf> {
    store_files(dir, "snap-", ".snap")
}

/// Flips one bit of `path` at byte `offset` (wrapped into range).
pub fn flip_byte(path: &Path, offset: u64) {
    let mut bytes = fs::read(path).expect("read file");
    assert!(!bytes.is_empty());
    let at = (offset % bytes.len() as u64) as usize;
    bytes[at] ^= 0x40;
    fs::write(path, bytes).expect("rewrite file");
}
