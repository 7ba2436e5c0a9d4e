//! Packed bit vectors with word-level Hamming distance.
//!
//! Sketches are `N`-bit vectors compared by Hamming distance "via XOR
//! operations" (paper §4.1.1). Bits are packed into `u64` words so the
//! Hamming distance of two sketches is a handful of `XOR` + `popcount`
//! instructions.

use crate::error::{CoreError, Result};

/// A fixed-length bit vector packed into 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Box<[u64]>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero bit vector with `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)].into_boxed_slice(),
            len,
        }
    }

    /// Creates a bit vector directly from packed words (little-endian bit
    /// order within each word). Bits at positions `>= len` must be zero;
    /// this is only debug-asserted, so the constructor stays crate-local.
    pub(crate) fn from_words(words: Box<[u64]>, len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        debug_assert!(
            len.is_multiple_of(64) || words.last().is_none_or(|w| w >> (len % 64) == 0),
            "bits beyond len must be zero"
        );
        Self { words, len }
    }

    /// Creates a bit vector from a boolean slice.
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut bv = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bv.set(i, true);
            }
        }
        bv
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Hamming distance to another bit vector of the same length.
    ///
    /// This is the hot loop of both `BruteForceSketch` ranking and the
    /// filtering scan; it compiles to XOR + popcount per word.
    #[inline]
    pub fn hamming(&self, other: &Self) -> Result<u32> {
        if self.len != other.len {
            return Err(CoreError::SketchLengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        Ok(self.hamming_unchecked(other))
    }

    /// Hamming distance without the length check.
    ///
    /// Lengths must match; only `debug_assert`ed.
    #[inline]
    pub fn hamming_unchecked(&self, other: &Self) -> u32 {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Hamming distance if it does not exceed `limit`, else `None`.
    ///
    /// Word-level popcount that exits as soon as the running count
    /// passes `limit`; the filtering scan uses it so dataset segments
    /// that cannot enter a full k-NN heap (or are past the weight
    /// threshold) stop being counted early. The limit check runs once
    /// per four-word chunk rather than per word: XOR + popcount of a
    /// chunk is cheaper than four conditional branches, and the exit
    /// is at most three words late.
    #[inline]
    pub fn hamming_within(&self, other: &Self, limit: u32) -> Result<Option<u32>> {
        if self.len != other.len {
            return Err(CoreError::SketchLengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        let a = &self.words;
        let b = &other.words;
        let mut acc = 0u32;
        let mut i = 0;
        while i + 4 <= a.len() {
            acc += (a[i] ^ b[i]).count_ones()
                + (a[i + 1] ^ b[i + 1]).count_ones()
                + (a[i + 2] ^ b[i + 2]).count_ones()
                + (a[i + 3] ^ b[i + 3]).count_ones();
            if acc > limit {
                return Ok(None);
            }
            i += 4;
        }
        while i < a.len() {
            acc += (a[i] ^ b[i]).count_ones();
            i += 1;
        }
        if acc > limit {
            return Ok(None);
        }
        Ok(Some(acc))
    }

    /// The underlying words (trailing bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Serializes to little-endian bytes: `len` as u64 then the words.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.words.len() * 8);
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for w in self.words.iter() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserializes from the [`BitVec::to_bytes`] format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 8 {
            return Err(CoreError::InvalidSketchParams(
                "bitvec bytes too short".into(),
            ));
        }
        let len = u64::from_le_bytes(bytes[..8].try_into().expect("checked len")) as usize;
        let nwords = len.div_ceil(64);
        if bytes.len() != 8 + nwords * 8 {
            return Err(CoreError::InvalidSketchParams(format!(
                "bitvec byte length {} does not match bit length {len}",
                bytes.len()
            )));
        }
        let mut words = vec![0u64; nwords];
        for (i, w) in words.iter_mut().enumerate() {
            let start = 8 + i * 8;
            *w = u64::from_le_bytes(bytes[start..start + 8].try_into().expect("checked len"));
        }
        // Reject junk in trailing bits so equality and hashing stay sound.
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last() {
                if *last >> (len % 64) != 0 {
                    return Err(CoreError::InvalidSketchParams(
                        "bitvec trailing bits not zero".into(),
                    ));
                }
            }
        }
        Ok(Self {
            words: words.into_boxed_slice(),
            len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut bv = BitVec::zeros(130);
        assert_eq!(bv.len(), 130);
        assert!(!bv.get(0));
        bv.set(0, true);
        bv.set(64, true);
        bv.set(129, true);
        assert!(bv.get(0) && bv.get(64) && bv.get(129));
        assert!(!bv.get(1) && !bv.get(65));
        assert_eq!(bv.count_ones(), 3);
        bv.set(64, false);
        assert_eq!(bv.count_ones(), 2);
    }

    #[test]
    fn from_bits_roundtrip() {
        let bits: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let bv = BitVec::from_bits(&bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(bv.get(i), b, "bit {i}");
        }
    }

    #[test]
    fn hamming_counts_differing_bits() {
        let a = BitVec::from_bits(&[true, false, true, false, true]);
        let b = BitVec::from_bits(&[true, true, false, false, true]);
        assert_eq!(a.hamming(&b).unwrap(), 2);
        assert_eq!(a.hamming(&a).unwrap(), 0);
    }

    #[test]
    fn hamming_across_word_boundaries() {
        let mut a = BitVec::zeros(200);
        let mut b = BitVec::zeros(200);
        for i in [0, 63, 64, 127, 128, 199] {
            a.set(i, true);
        }
        for i in [0, 63, 65, 127, 129, 199] {
            b.set(i, true);
        }
        assert_eq!(a.hamming(&b).unwrap(), 4);
    }

    #[test]
    fn hamming_within_matches_hamming_up_to_limit() {
        let mut a = BitVec::zeros(200);
        let mut b = BitVec::zeros(200);
        for i in (0..200).step_by(3) {
            a.set(i, true);
        }
        for i in (0..200).step_by(5) {
            b.set(i, true);
        }
        let full = a.hamming(&b).unwrap();
        for limit in [0, 1, full.saturating_sub(1), full, full + 1, u32::MAX] {
            let within = a.hamming_within(&b, limit).unwrap();
            if limit >= full {
                assert_eq!(within, Some(full), "limit {limit}");
            } else {
                assert_eq!(within, None, "limit {limit}");
            }
        }
    }

    #[test]
    fn hamming_within_exits_late_but_never_wrong() {
        // 600 bits = 9 words + remainder: exercises both the 4-word
        // chunks and the tail of the chunked early-exit loop.
        let mut a = BitVec::zeros(600);
        let mut b = BitVec::zeros(600);
        for i in (0..600).step_by(2) {
            a.set(i, true);
        }
        for i in (0..600).step_by(7) {
            b.set(i, true);
        }
        let full = a.hamming(&b).unwrap();
        for limit in 0..full + 5 {
            let within = a.hamming_within(&b, limit).unwrap();
            if limit >= full {
                assert_eq!(within, Some(full), "limit {limit}");
            } else {
                assert_eq!(within, None, "limit {limit}");
            }
        }
    }

    #[test]
    fn hamming_within_rejects_length_mismatch() {
        let a = BitVec::zeros(64);
        let b = BitVec::zeros(65);
        assert!(a.hamming_within(&b, 10).is_err());
    }

    #[test]
    fn hamming_rejects_length_mismatch() {
        let a = BitVec::zeros(64);
        let b = BitVec::zeros(65);
        assert!(matches!(
            a.hamming(&b),
            Err(CoreError::SketchLengthMismatch {
                left: 64,
                right: 65
            })
        ));
    }

    #[test]
    fn bytes_roundtrip() {
        for len in [0usize, 1, 63, 64, 65, 96, 600, 800] {
            let mut bv = BitVec::zeros(len);
            for i in (0..len).step_by(7) {
                bv.set(i, true);
            }
            let bytes = bv.to_bytes();
            let back = BitVec::from_bytes(&bytes).unwrap();
            assert_eq!(bv, back, "len {len}");
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(BitVec::from_bytes(&[1, 2, 3]).is_err());
        // Length says 8 bits but provides two words.
        let mut bytes = 8u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(BitVec::from_bytes(&bytes).is_err());
        // Trailing junk bits beyond the declared length.
        let mut bytes = 8u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(BitVec::from_bytes(&bytes).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let bv = BitVec::zeros(10);
        let _ = bv.get(10);
    }
}
