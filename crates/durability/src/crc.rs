//! CRC-32 (IEEE 802.3 polynomial, reflected), implemented locally so the
//! crate stays dependency-free. Eight 256-entry tables are computed at
//! compile time for the slicing-by-8 form: each step folds eight input
//! bytes with eight independent table lookups, where the classic loop
//! chains one lookup per byte. A tail shorter than eight bytes takes the
//! byte-wise loop. The WAL is not defending against an adversary, only
//! against torn writes and bit rot, and it checksums every byte it
//! appends, replays or scans on open.

const fn make_tables() -> [[u32; 256]; 8] {
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
    // tables[k][i] is the CRC of byte i followed by k zero bytes.
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

static TABLES: [[u32; 256]; 8] = make_tables();

/// Folds `bytes` into the running (pre-inverted) `crc` one byte at a time.
fn bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 checksum of `bytes` (IEEE polynomial, as used by zlib/PNG).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    !bytewise(crc, chunks.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_any_flip() {
        let base = crc32(b"hello world");
        let mut bytes = b"hello world".to_vec();
        for i in 0..bytes.len() {
            bytes[i] ^= 1;
            assert_ne!(crc32(&bytes), base, "flip at {i} undetected");
            bytes[i] ^= 1;
        }
    }

    #[test]
    fn sliced_form_equals_the_bytewise_loop() {
        // A deterministic byte pattern that touches every table entry.
        let data: Vec<u8> = (0..1024 + 8)
            .map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in [0, 1, 3, 5, 7] {
            for len in 0..=1024 {
                let bytes = &data[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    !bytewise(!0, bytes),
                    "length {len} at offset {start}"
                );
            }
        }
    }
}
