//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
//! checksum every WAL record frame and snapshot payload carries.
//!
//! Implemented locally (std-only workspace): compile-time tables,
//! slicing-by-8 — eight bytes per step through eight 256-entry tables,
//! with the byte-at-a-time loop for the tail (and as the oracle the
//! tests check the fast path against). The serving path checksums
//! every frame four times (client and server, each way) and the WAL
//! every record, so this is per-request work. The constant is the
//! familiar one, so external tooling
//! (`python -c 'import zlib; zlib.crc32(...)'`) can verify artifacts.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Folds `bytes` into the running (pre-inverted) `crc`, one at a time.
fn bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    !bytewise(crc, chunks.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The sliced path agrees with the bytewise oracle on every
        /// length 0–4 KiB and every alignment of the slice's start.
        #[test]
        fn sliced_agrees_with_bytewise(
            data in proptest::collection::vec(0u8..=255, 0..4104),
            skew in 0usize..8,
        ) {
            let bytes = &data[skew.min(data.len())..];
            prop_assert_eq!(crc32(bytes), !bytewise(!0, bytes));
        }
    }

    #[test]
    fn known_answer_vectors() {
        // The classic check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn one_bit_flip_changes_the_sum() {
        let mut data = b"write-ahead".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
