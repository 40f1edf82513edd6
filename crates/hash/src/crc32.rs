//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the integrity
//! footer shared by every binary format in this workspace.
//!
//! Six formats close with a 4-byte CRC so truncation and bit-rot are
//! *detected* instead of silently decoding garbage:
//!
//! * `SCDTRC02` — binary traces;
//! * `SCDSKT02` — the sketch wire format;
//! * `SCDN` — distributed-plane frames;
//! * `SCDCKPT2` — detector checkpoints (and their version-1 layout);
//! * `SCDARCH1` — multi-resolution archives;
//! * `SCDQ` — serving-plane query frames.
//!
//! The checksum lives in this crate because it is the one crate every
//! other crate already depends on.
//!
//! The kernel is slicing-by-16: sixteen 256-entry tables, built at compile
//! time, fold 16 input bytes per step with independent lookups, and a
//! bytewise loop over the first table handles the tail. It is portable
//! code with no runtime dispatch, and its output is the same CRC as
//! zlib/PNG/Ethernet; `crc32(b"123456789")` is the classic check value
//! `0xCBF43926`.

/// Bytes folded per step of the sliced kernel.
const SLICE: usize = 16;

/// Lookup tables for slicing-by-16, built at compile time.
///
/// `TABLES[0]` is the classic bytewise table. `TABLES[k][i]` is the CRC
/// state after byte `i` followed by `k` zero bytes, so a byte standing
/// `k` places before the end of a 16-byte block indexes table `k`.
const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
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

static TABLES: [[u32; 256]; SLICE] = build_tables();

/// Computes the CRC-32 of `data` in one call.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finalize()
}

/// Incremental CRC-32 state, for writers that stream bytes out.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds more bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut c = self.state;
        let mut blocks = data.chunks_exact(SLICE);
        for b in &mut blocks {
            let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything fed so far.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    /// Bit-at-a-time CRC-32: the definition, with no tables to get wrong.
    fn reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn check_value() {
        // The universal CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"sketch-based change detection";
        let mut inc = Crc32::new();
        inc.update(&data[..7]);
        inc.update(&data[7..]);
        assert_eq!(inc.finalize(), crc32(data));
    }

    #[test]
    fn sliced_matches_bitwise_at_every_length_and_offset() {
        // Every length across the 16-byte block boundary and every start
        // alignment, so each block/tail split is exercised.
        let data = seeded_bytes(256 + SLICE, 0xC0C0);
        for offset in 0..SLICE {
            for len in 0..=256 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), reference(slice), "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn sliced_incremental_matches_bitwise_at_random_splits() {
        let data = seeded_bytes(4096, 0x5EED);
        let expect = reference(&data);
        let mut rng = SplitMix64::new(0x5417);
        for _ in 0..200 {
            let mut crc = Crc32::new();
            let mut at = 0;
            while at < data.len() {
                let step = (rng.next_u64() % 80) as usize;
                let end = (at + step).min(data.len());
                crc.update(&data[at..end]);
                at = end;
            }
            assert_eq!(crc.finalize(), expect);
        }
    }

    #[test]
    fn sliced_matches_bitwise_over_megabytes() {
        let data = seeded_bytes(3 << 20, 0xB16);
        assert_eq!(crc32(&data), reference(&data));
    }

    #[test]
    fn detects_any_single_byte_flip() {
        let data: Vec<u8> = (0..64u8).collect();
        let clean = crc32(&data);
        for pos in 0..data.len() {
            let mut corrupt = data.clone();
            corrupt[pos] ^= 0x01;
            assert_ne!(crc32(&corrupt), clean, "flip at {pos} undetected");
        }
    }
}
