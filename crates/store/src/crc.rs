//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
//! checksum every WAL record frame and snapshot payload carries.
//!
//! Implemented locally (std-only workspace, safe Rust) from `const fn`
//! tables, in two shapes chosen by length alone:
//!
//! * **Slicing-by-8** below `BRAID_MIN` (two 40-byte blocks): eight
//!   bytes per step through eight 256-entry tables, with the
//!   byte-at-a-time loop for the tail (and as the oracle the tests
//!   check both paths against). Wire frames are 19–64 bytes and the
//!   serving path checksums each one four times (client and server,
//!   each way), so short inputs keep this code: a braid would spend
//!   its set-up and its combining block on a frame that is barely one
//!   block long.
//! * **Braided** from `BRAID_MIN` up — zlib's braid with five 8-byte
//!   lanes. Each 40-byte block feeds word `j` into lane `j`'s own CRC,
//!   which the braid tables carry straight past the other four lanes'
//!   words, so the five table-lookup chains run independently instead
//!   of each step waiting on the last; the last block folds the lanes
//!   back into one register. Snapshot payloads (megabytes at a million accounts)
//!   and WAL records of large batches take this path: in a
//!   microbenchmark on a shared 2-vCPU x86-64 VM a 28 MB buffer took
//!   10–19 ms against 25–33 ms for slicing-by-8.
//!
//! Both shapes compute the same function; the constant is the familiar
//! one, so external tooling (`python -c 'import zlib;
//! zlib.crc32(...)'`) can verify artifacts.

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Lanes of the braid, one 8-byte word each per block.
const LANES: usize = 5;

/// Bytes of one braid block: one word per lane.
const BLOCK: usize = LANES * 8;

/// The shortest input the braid takes: two blocks, so at least one
/// block runs braided before the combining one.
const BRAID_MIN: usize = 2 * BLOCK;

/// Folds one zero byte into the register `crc` through the
/// byte-at-a-time table `t0`.
const fn zero_byte(t0: &[u32; 256], crc: u32) -> u32 {
    (crc >> 8) ^ t0[(crc & 0xFF) as usize]
}

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
                (crc >> 1) ^ POLY
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
            tables[k][i] = zero_byte(&tables[0], tables[k - 1][i]);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// `BRAID[k][b]` is the CRC of byte `b` followed by `BLOCK - 1 - k`
/// zero bytes: byte `k` of a lane's word, carried to the same lane's
/// word in the next block.
const fn build_braid() -> [[u32; 256]; 8] {
    let t0 = build_tables()[0];
    let mut braid = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = t0[i];
        let mut zeros = 0;
        while zeros < BLOCK - 1 {
            crc = zero_byte(&t0, crc);
            zeros += 1;
            if zeros >= BLOCK - 8 {
                braid[BLOCK - 1 - zeros][i] = crc;
            }
        }
        i += 1;
    }
    braid
}

static BRAID: [[u32; 256]; 8] = build_braid();

/// Folds `bytes` into the running (pre-inverted) `crc`, one at a time.
fn bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Folds `bytes` into the running (pre-inverted) `crc` eight bytes a
/// step, slicing-by-8, with the byte-at-a-time loop for the tail.
fn sliced(mut crc: u32, bytes: &[u8]) -> u32 {
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
    bytewise(crc, chunks.remainder())
}

/// Folds `bytes` (at least [`BRAID_MIN`] of them) into the register
/// `crc` through the braid: every block but the last advances the five
/// lane CRCs independently, the last folds them into one register, and
/// slicing-by-8 takes the bytes past the last whole block.
fn braided(crc: u32, bytes: &[u8]) -> u32 {
    debug_assert!(bytes.len() >= BRAID_MIN);
    let whole = bytes.len() / BLOCK;
    let (body, tail) = bytes.split_at(whole * BLOCK);
    let (braid, last) = body.split_at(body.len() - BLOCK);
    let mut lanes = [crc, 0, 0, 0, 0];
    for block in braid.chunks_exact(BLOCK) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word: [u8; 8] = word.try_into().expect("an 8-byte chunk");
            let w = u64::from_le_bytes(word) ^ u64::from(*lane);
            *lane = BRAID[0][(w & 0xFF) as usize]
                ^ BRAID[1][((w >> 8) & 0xFF) as usize]
                ^ BRAID[2][((w >> 16) & 0xFF) as usize]
                ^ BRAID[3][((w >> 24) & 0xFF) as usize]
                ^ BRAID[4][((w >> 32) & 0xFF) as usize]
                ^ BRAID[5][((w >> 40) & 0xFF) as usize]
                ^ BRAID[6][((w >> 48) & 0xFF) as usize]
                ^ BRAID[7][(w >> 56) as usize];
        }
    }
    // Each lane's CRC stands at its own word of the last block: fold
    // each in as the one register reaches that word.
    let combined = lanes
        .into_iter()
        .zip(last.chunks_exact(8))
        .fold(0, |reg, (lane, word)| sliced(reg ^ lane, word));
    sliced(combined, tail)
}

/// The CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    if bytes.len() >= BRAID_MIN {
        !braided(!0, bytes)
    } else {
        !sliced(!0, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Both paths agree with the bytewise oracle on every length
        /// 0–4 KiB and every alignment of the slice's start.
        #[test]
        fn crc32_agrees_with_bytewise(
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

    /// `len` bytes of a fixed pattern, preceded by `skew` bytes that
    /// shift its start off the allocation's alignment.
    fn pattern(skew: usize, len: usize) -> Vec<u8> {
        (0..skew + len).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// Lengths on either side of the braid threshold and of its block
    /// boundaries, a page less one and a mebibyte, at every start
    /// alignment: each sum equals zlib's for the pattern, computed as
    /// `zlib.crc32(bytes((i * 31 + 7) % 256 for i in range(skew, skew +
    /// len)))`, and the bytewise oracle's.
    #[test]
    fn known_answers_across_the_braid_threshold_at_every_alignment() {
        let zlib: [(usize, [u32; 8]); 8] = [
            (
                79,
                [
                    0x4426_6F40,
                    0x1206_2C32,
                    0x29BC_B70F,
                    0x3901_AA12,
                    0xD646_9C93,
                    0x519A_5878,
                    0xEDF9_9C10,
                    0xE6C2_FD29,
                ],
            ),
            (
                80,
                [
                    0x5A4E_9304,
                    0x4FC2_9E0E,
                    0x2D24_394A,
                    0xEC55_99FC,
                    0xA108_BF92,
                    0x335D_EDCD,
                    0x4A3D_36AD,
                    0xB754_F4B6,
                ],
            ),
            (
                81,
                [
                    0x8030_4328,
                    0x5A45_77F5,
                    0x89F1_65A9,
                    0x7C3F_D05E,
                    0x7372_744C,
                    0xB281_3CB5,
                    0x5D2D_4C44,
                    0x00B8_3E84,
                ],
            ),
            (
                119,
                [
                    0xFFDA_F9F5,
                    0x661B_29FC,
                    0x3566_D9BD,
                    0x71C9_6EDD,
                    0xEFBE_F668,
                    0x0DE5_E785,
                    0xEAE8_3332,
                    0xFA2D_A35F,
                ],
            ),
            (
                120,
                [
                    0x4F2F_42DB,
                    0x1B68_D422,
                    0x5689_C88A,
                    0xCFC4_3687,
                    0x3838_1642,
                    0xD80F_A44D,
                    0xC184_9FE8,
                    0x262C_777F,
                ],
            ),
            (
                121,
                [
                    0xBE4B_5522,
                    0x3617_4852,
                    0x3AEC_B276,
                    0x08AD_936B,
                    0xDD3A_2EAF,
                    0x010C_14D2,
                    0x7312_F86C,
                    0x51F7_463D,
                ],
            ),
            (
                4_095,
                [
                    0x7B3F_9134,
                    0x01B8_C22A,
                    0x116A_2A90,
                    0xC3E1_4350,
                    0x56FE_9708,
                    0x145C_09AE,
                    0xCFD7_7755,
                    0x1C4C_3605,
                ],
            ),
            (
                1 << 20,
                [
                    0xD424_BDC1,
                    0x6B3C_39AD,
                    0xE0B5_7B79,
                    0xEBA7_7BD2,
                    0x659A_6491,
                    0x8ACD_068E,
                    0xC818_2B3A,
                    0x8E71_16A6,
                ],
            ),
        ];
        for (len, answers) in zlib {
            for (skew, &answer) in answers.iter().enumerate() {
                let data = pattern(skew, len);
                let bytes = &data[skew..];
                assert_eq!(crc32(bytes), answer, "len {len}, skew {skew}");
                assert_eq!(
                    !bytewise(!0, bytes),
                    answer,
                    "oracle: len {len}, skew {skew}"
                );
            }
        }
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

    /// Flips in the braided blocks, the combining block and the tail of
    /// an input past the braid threshold.
    #[test]
    fn one_bit_flip_changes_the_braided_sum() {
        let mut data = pattern(0, 2 * BRAID_MIN + 3);
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
