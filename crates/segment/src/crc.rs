//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! guarding every region of a segment file and every manifest record.
//! Slice-by-16 table-driven, no external dependencies: verification is
//! on the catalog's cold-start path, so the checksum has to run at
//! memory speed, not byte-loop speed.

const POLY: u32 = 0xEDB8_8320;
const SLICES: usize = 16;

const fn make_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // tables[k][i] = crc of byte `i` followed by `k` zero bytes.
    let mut k = 1;
    while k < SLICES {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = make_tables();

/// Incremental CRC-32 state, for checksums over non-contiguous regions.
#[derive(Clone, Copy)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        let mut chunks = bytes.chunks_exact(SLICES);
        for chunk in &mut chunks {
            // Fold the running CRC into the first four bytes, then look
            // all sixteen up in parallel-friendly independent tables.
            let mut acc = 0u32;
            for (j, &b) in chunk.iter().enumerate() {
                let idx = if j < 4 {
                    (b as u32 ^ (c >> (8 * j as u32))) & 0xFF
                } else {
                    b as u32
                };
                acc ^= TABLES[SLICES - 1 - j][idx as usize];
            }
            c = acc;
        }
        for &b in chunks.remainder() {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    pub(crate) fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original byte-at-a-time loop, kept as the oracle for the
    /// sliced implementation.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length() {
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32(data), "split {split}");
        }
    }

    #[test]
    fn detects_single_byte_flips() {
        let data = b"segment body bytes";
        let base = crc32(data);
        let mut copy = *data;
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at byte {i} bit {bit}");
                copy[i] ^= 1 << bit;
            }
        }
    }
}
