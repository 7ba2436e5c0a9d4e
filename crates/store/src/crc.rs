//! CRC-32 (IEEE 802.3) checksums for log and snapshot integrity.
//!
//! Implemented in-crate to keep the store dependency-free. Uses the
//! standard reflected polynomial `0xEDB88320` with a lazily built lookup
//! table.

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Builds the 256-entry lookup table at compile time.
const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"some payload bytes".to_vec();
        let before = crc32(&data);
        data[5] ^= 0x04;
        assert_ne!(before, crc32(&data));
    }
}
