//! `STD_LOGIC_VECTOR`: fixed-width vectors of nine-value logic.
//!
//! Fig. 4 of the paper maps ATM cells onto `atmdata :
//! STD_LOGIC_VECTOR(7 DOWNTO 0)`. `LogicVector` is that type: a descending
//! bit vector (index 0 = least significant bit) with integer conversions,
//! slicing and element-wise resolution.
//!
//! # Representation
//!
//! Bits are nibble-packed: each [`Logic`] value is stored as its 4-bit
//! discriminant, sixteen bits per `u64` word, LSB in the lowest nibble.
//! Vectors of up to 64 bits — the `atmdata(7 DOWNTO 0)` case and every
//! other port this codebase models — live inline in four words with no
//! heap allocation; wider vectors spill to a `Vec<u64>`. Nibbles beyond
//! the vector width are always zero (`U`), which lets equality, hashing
//! and resolution work word-wise without masking.
//!
//! The packing is chosen so the hot queries are word-parallel:
//!
//! * a nibble holds a defined binary value (`0`, `1`, `L`, `H` — packed
//!   2, 3, 6, 7) exactly when `(nibble & 0b1010) == 0b0010`, so
//!   [`LogicVector::is_fully_defined`] and [`LogicVector::to_u64`] test
//!   sixteen bits per word with two masks;
//! * a defined nibble's LSB *is* its binary value (`L` packs as 6 → 0,
//!   `H` as 7 → 1), so integer reads compress `word & 0x1111…` with a
//!   Morton-style gather;
//! * IEEE 1164 resolution runs through a precomputed 256×256 byte table
//!   (two nibbles per lookup), eight lookups per word.

use crate::logic::{Logic, RESOLUTION};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Logic values (nibbles) per packed word.
const NIBS_PER_WORD: usize = 16;
/// Words of inline storage; `4 * 16 = 64` bits covers every narrow port.
const INLINE_WORDS: usize = 4;
/// Widths up to this stay heap-free.
const INLINE_BITS: usize = INLINE_WORDS * NIBS_PER_WORD;
/// `1` in every nibble.
const REP_1: u64 = 0x1111_1111_1111_1111;
/// `2` (`Logic::Zero`) in every nibble.
const REP_2: u64 = 0x2222_2222_2222_2222;
/// `0b1010` in every nibble: the "defined" test mask.
const REP_A: u64 = 0xAAAA_AAAA_AAAA_AAAA;
/// `0b1110` in every nibble: the "strong `0`/`1`" test mask (`L`/`H`
/// differ from `0`/`1` only in bit 2).
const REP_E: u64 = 0xEEEE_EEEE_EEEE_EEEE;

/// Spreads the 16 bits of `v` into the nibble LSBs of a word
/// (bit `i` → bit `4 * i`).
const fn spread16(v: u16) -> u64 {
    let mut x = v as u64;
    x = (x | (x << 24)) & 0x0000_00FF_0000_00FF;
    x = (x | (x << 12)) & 0x000F_000F_000F_000F;
    x = (x | (x << 6)) & 0x0303_0303_0303_0303;
    x = (x | (x << 3)) & 0x1111_1111_1111_1111;
    x
}

/// Inverse of [`spread16`]: gathers nibble LSBs into 16 contiguous bits.
const fn compress16(x: u64) -> u16 {
    let mut x = x & 0x1111_1111_1111_1111;
    x = (x | (x >> 3)) & 0x0303_0303_0303_0303;
    x = (x | (x >> 6)) & 0x000F_000F_000F_000F;
    x = (x | (x >> 12)) & 0x0000_00FF_0000_00FF;
    x = (x | (x >> 24)) & 0xFFFF;
    x as u16
}

const fn resolve_nibble(a: u8, b: u8) -> u8 {
    let a = if a > 8 { 8 } else { a } as usize;
    let b = if b > 8 { 8 } else { b } as usize;
    RESOLUTION[a][b] as u8
}

// The "local" array only exists during compile-time evaluation; at run
// time the table is a static.
#[allow(clippy::large_stack_arrays)]
const fn build_res_byte() -> [[u8; 256]; 256] {
    let mut table = [[0u8; 256]; 256];
    let mut a = 0;
    while a < 256 {
        let mut b = 0;
        while b < 256 {
            let lo = resolve_nibble((a & 0xF) as u8, (b & 0xF) as u8);
            let hi = resolve_nibble((a >> 4) as u8, (b >> 4) as u8);
            table[a][b] = lo | (hi << 4);
            b += 1;
        }
        a += 1;
    }
    table
}

/// IEEE 1164 resolution expanded to byte pairs: resolves two packed
/// nibbles per lookup, eight lookups per word.
static RES_BYTE: [[u8; 256]; 256] = build_res_byte();

/// Resolves two packed words nibble-wise via [`RES_BYTE`].
#[inline]
fn resolve_word(a: u64, b: u64) -> u64 {
    let mut out = 0u64;
    let mut shift = 0;
    while shift < 64 {
        let ab = ((a >> shift) & 0xFF) as usize;
        let bb = ((b >> shift) & 0xFF) as usize;
        out |= u64::from(RES_BYTE[ab][bb]) << shift;
        shift += 8;
    }
    out
}

/// Backing storage: inline words for narrow vectors, heap for wide ones.
/// The variant is a function of the width alone (≤ 64 bits ⇒ inline), so
/// equality never has to compare across variants.
#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// A fixed-width vector of [`Logic`] values, LSB at index 0
/// (`(N-1 DOWNTO 0)` in VHDL terms).
///
/// # Examples
///
/// ```
/// use castanet_rtl::vector::LogicVector;
///
/// let v = LogicVector::from_u64(0xA5, 8);
/// assert_eq!(v.to_u64(), Some(0xA5));
/// assert_eq!(v.to_string(), "10100101");
/// ```
#[derive(Clone)]
pub struct LogicVector {
    len: u32,
    words: Words,
}

impl LogicVector {
    /// Packed words backing a vector of `width` bits.
    #[inline]
    fn word_count(width: usize) -> usize {
        width.div_ceil(NIBS_PER_WORD)
    }

    /// Mask of the nibbles actually used in the *last* backing word.
    #[inline]
    fn used_mask(width: usize) -> u64 {
        let rem = width % NIBS_PER_WORD;
        if rem == 0 {
            u64::MAX
        } else {
            (1u64 << (4 * rem)) - 1
        }
    }

    /// All-`U` vector (every nibble zero).
    fn new_zeroed(width: usize) -> Self {
        assert!(width > 0, "logic vector width must be non-zero");
        let len = u32::try_from(width).expect("logic vector width exceeds u32::MAX");
        let words = if width <= INLINE_BITS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; Self::word_count(width)])
        };
        LogicVector { len, words }
    }

    /// The used backing words (trailing nibbles of the last one are zero).
    #[inline]
    fn words(&self) -> &[u64] {
        let n = Self::word_count(self.len as usize);
        match &self.words {
            Words::Inline(a) => &a[..n],
            Words::Heap(v) => &v[..n],
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        let n = Self::word_count(self.len as usize);
        match &mut self.words {
            Words::Inline(a) => &mut a[..n],
            Words::Heap(v) => &mut v[..n],
        }
    }

    /// A vector of `width` uninitialized (`U`) bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn uninitialized(width: usize) -> Self {
        Self::new_zeroed(width)
    }

    /// A vector of `width` bits, all `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn filled(value: Logic, width: usize) -> Self {
        let mut v = Self::new_zeroed(width);
        let pattern = (value as u64) * REP_1;
        let mask = Self::used_mask(width);
        let words = v.words_mut();
        let last = words.len() - 1;
        for (i, w) in words.iter_mut().enumerate() {
            *w = if i == last { pattern & mask } else { pattern };
        }
        v
    }

    /// A vector of `width` high-impedance bits (released bus).
    #[must_use]
    pub fn high_z(width: usize) -> Self {
        Self::filled(Logic::Z, width)
    }

    /// Encodes the low `width` bits of `value` (LSB at index 0).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero, exceeds 64, or `value` does not fit.
    #[must_use]
    pub fn from_u64(value: u64, width: usize) -> Self {
        assert!(
            (1..=64).contains(&width),
            "width must be 1..=64, got {width}"
        );
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value:#x} does not fit in {width} bits"
        );
        let mut words = [0u64; INLINE_WORDS];
        let n = Self::word_count(width);
        for (i, w) in words.iter_mut().enumerate().take(n) {
            let chunk = ((value >> (i * NIBS_PER_WORD)) & 0xFFFF) as u16;
            // 0-bit → nibble 2 (`Zero`), 1-bit → nibble 3 (`One`).
            *w = REP_2 | spread16(chunk);
        }
        words[n - 1] &= Self::used_mask(width);
        LogicVector {
            len: width as u32,
            words: Words::Inline(words),
        }
    }

    /// Builds a vector from bits, LSB first.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    #[must_use]
    pub fn from_bits(bits: &[Logic]) -> Self {
        assert!(!bits.is_empty(), "logic vector width must be non-zero");
        let mut v = Self::new_zeroed(bits.len());
        let words = v.words_mut();
        for (i, &b) in bits.iter().enumerate() {
            words[i / NIBS_PER_WORD] |= (b as u64) << ((i % NIBS_PER_WORD) * 4);
        }
        v
    }

    /// Width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.len as usize
    }

    /// Bit `index` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    #[must_use]
    pub fn bit(&self, index: usize) -> Logic {
        assert!(
            index < self.len as usize,
            "bit index {index} out of range for width {}",
            self.len
        );
        let word = self.words()[index / NIBS_PER_WORD];
        Logic::from_nibble(((word >> ((index % NIBS_PER_WORD) * 4)) & 0xF) as u8)
    }

    /// Sets bit `index` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn set_bit(&mut self, index: usize, value: Logic) {
        assert!(
            index < self.len as usize,
            "bit index {index} out of range for width {}",
            self.len
        );
        let shift = (index % NIBS_PER_WORD) * 4;
        let word = &mut self.words_mut()[index / NIBS_PER_WORD];
        *word = (*word & !(0xF << shift)) | ((value as u64) << shift);
    }

    /// Iterates the bits, LSB first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Logic> + ExactSizeIterator + '_ {
        (0..self.len as usize).map(move |i| self.bit(i))
    }

    /// The bits as a fresh vector, LSB first (unpacks the storage).
    #[must_use]
    pub fn to_bits(&self) -> Vec<Logic> {
        self.iter().collect()
    }

    /// Unsigned integer reading; `None` when any bit lacks a binary value or
    /// the width exceeds 64.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        self.gather(REP_A)
    }

    /// The value as a word when every bit is a strong `0` or `1` and the
    /// width is at most 64 — exactly when `self` equals
    /// `LogicVector::from_u64(word, self.width())`. Unlike
    /// [`LogicVector::to_u64`], weak `L`/`H` bits give `None`.
    #[must_use]
    pub(crate) fn to_two_state(&self) -> Option<u64> {
        self.gather(REP_E)
    }

    /// Integer reading of a vector of at most 64 bits whose every nibble
    /// `n` satisfies `n & t == 0b0010` (`t` the nibble of `test`), i.e.
    /// packs like `0` or `1` in the bits `test` selects; `None` otherwise.
    #[inline]
    fn gather(&self, test: u64) -> Option<u64> {
        let width = self.len as usize;
        if width > 64 {
            return None;
        }
        let words = self.words();
        let last = words.len() - 1;
        let mut out = 0u64;
        for (i, &w) in words.iter().enumerate() {
            let mask = if i == last {
                Self::used_mask(width)
            } else {
                u64::MAX
            };
            if w & test != REP_2 & mask {
                return None;
            }
            out |= u64::from(compress16(w & REP_1)) << (i * NIBS_PER_WORD);
        }
        Some(out)
    }

    /// `true` when every bit has a defined binary value.
    #[must_use]
    pub fn is_fully_defined(&self) -> bool {
        let words = self.words();
        let last = words.len() - 1;
        words.iter().enumerate().all(|(i, &w)| {
            let mask = if i == last {
                Self::used_mask(self.len as usize)
            } else {
                u64::MAX
            };
            w & REP_A == REP_2 & mask
        })
    }

    /// Bit slice `[lo, lo+width)` as a new vector (VHDL
    /// `v(lo+width-1 DOWNTO lo)`).
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds or `width` is zero.
    #[must_use]
    pub fn slice(&self, lo: usize, width: usize) -> LogicVector {
        assert!(width > 0, "slice width must be non-zero");
        assert!(lo + width <= self.len as usize, "slice out of range");
        let mut out = Self::new_zeroed(width);
        let src = self.words();
        let word_off = lo / NIBS_PER_WORD;
        let shift = (lo % NIBS_PER_WORD) * 4;
        let mask = Self::used_mask(width);
        let dst = out.words_mut();
        for (j, w) in dst.iter_mut().enumerate() {
            let mut v = src[word_off + j] >> shift;
            if shift != 0 {
                if let Some(&hi) = src.get(word_off + j + 1) {
                    v |= hi << (64 - shift);
                }
            }
            *w = v;
        }
        if let Some(last) = dst.last_mut() {
            *last &= mask;
        }
        out
    }

    /// Concatenates `high & self` (the VHDL `&` with `high` in the upper
    /// bits).
    #[must_use]
    pub fn concat_high(&self, high: &LogicVector) -> LogicVector {
        let low_width = self.len as usize;
        let total = low_width + high.len as usize;
        let mut out = Self::new_zeroed(total);
        let dst = out.words_mut();
        let low_words = self.words();
        dst[..low_words.len()].copy_from_slice(low_words);
        let word_off = low_width / NIBS_PER_WORD;
        let shift = (low_width % NIBS_PER_WORD) * 4;
        for (j, &hw) in high.words().iter().enumerate() {
            dst[word_off + j] |= hw << shift;
            if shift != 0 && word_off + j + 1 < dst.len() {
                dst[word_off + j + 1] |= hw >> (64 - shift);
            }
        }
        out
    }

    /// Element-wise resolution with another equal-width vector.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    #[must_use]
    pub fn resolve(&self, other: &LogicVector) -> LogicVector {
        let mut out = self.clone();
        out.resolve_assign(other);
        out
    }

    /// In-place element-wise resolution: `self = resolve(self, other)`.
    /// The allocation-free form the signal driver loop uses.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn resolve_assign(&mut self, other: &LogicVector) {
        assert_eq!(self.len, other.len, "resolution width mismatch");
        let theirs = other.words();
        for (w, &o) in self.words_mut().iter_mut().zip(theirs) {
            *w = resolve_word(*w, o);
        }
    }
}

impl PartialEq for LogicVector {
    fn eq(&self, other: &Self) -> bool {
        // Trailing nibbles (and unused inline words) are zero by
        // invariant, so word equality is exact bit equality. Comparing the
        // fixed-size inline arrays avoids the run-time-length slice
        // compare, which lowers to a `bcmp` call.
        self.len == other.len
            && match (&self.words, &other.words) {
                (Words::Inline(a), Words::Inline(b)) => a == b,
                _ => self.words() == other.words(),
            }
    }
}

impl Eq for LogicVector {}

impl Hash for LogicVector {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words().hash(state);
    }
}

impl fmt::Debug for LogicVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LogicVector(\"{self}\")")
    }
}

impl fmt::Display for LogicVector {
    /// MSB-first character form, as VHDL literals are written.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter().rev() {
            write!(f, "{}", b.to_char())?;
        }
        Ok(())
    }
}

impl From<Logic> for LogicVector {
    fn from(l: Logic) -> Self {
        let mut v = LogicVector::new_zeroed(1);
        v.set_bit(0, l);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        for (v, w) in [(0u64, 1), (1, 1), (0xFF, 8), (0x1234, 16), (u64::MAX, 64)] {
            let lv = LogicVector::from_u64(v, w);
            assert_eq!(lv.width(), w);
            assert_eq!(lv.to_u64(), Some(v), "value {v:#x} width {w}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let _ = LogicVector::from_u64(256, 8);
    }

    #[test]
    fn undefined_bits_block_integer_reading() {
        let mut v = LogicVector::from_u64(5, 4);
        assert!(v.is_fully_defined());
        v.set_bit(2, Logic::Z);
        assert!(!v.is_fully_defined());
        assert_eq!(v.to_u64(), None);
    }

    #[test]
    fn weak_values_still_read_as_integers() {
        let v = LogicVector::from_bits(&[Logic::H, Logic::L, Logic::H]);
        assert_eq!(v.to_u64(), Some(0b101));
        assert_eq!(v.to_two_state(), None, "weak bits are not two-state");
    }

    #[test]
    fn two_state_words_are_exactly_the_strong_vectors() {
        for (v, w) in [(0u64, 1), (1, 1), (0xA5, 8), (0x1234, 17), (u64::MAX, 64)] {
            assert_eq!(LogicVector::from_u64(v, w).to_two_state(), Some(v));
        }
        for &l in &Logic::ALL {
            let mut v = LogicVector::from_u64(0b1010, 4);
            v.set_bit(3, l);
            let strong = matches!(l, Logic::Zero | Logic::One);
            assert_eq!(v.to_two_state().is_some(), strong, "{l:?}");
        }
        assert_eq!(LogicVector::filled(Logic::One, 65).to_two_state(), None);
    }

    #[test]
    fn display_is_msb_first() {
        assert_eq!(LogicVector::from_u64(0b0110, 4).to_string(), "0110");
        assert_eq!(LogicVector::high_z(3).to_string(), "ZZZ");
        assert_eq!(LogicVector::uninitialized(2).to_string(), "UU");
    }

    #[test]
    fn slicing_matches_vhdl_downto() {
        // v = "10100101" (0xA5). v(7 downto 4) = "1010".
        let v = LogicVector::from_u64(0xA5, 8);
        assert_eq!(v.slice(4, 4).to_u64(), Some(0xA));
        assert_eq!(v.slice(0, 4).to_u64(), Some(0x5));
        assert_eq!(v.slice(0, 8), v);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slice_panics() {
        let _ = LogicVector::from_u64(0, 4).slice(2, 4);
    }

    #[test]
    fn concat_orders_bits() {
        let low = LogicVector::from_u64(0x5, 4);
        let high = LogicVector::from_u64(0xA, 4);
        assert_eq!(low.concat_high(&high).to_u64(), Some(0xA5));
    }

    #[test]
    fn elementwise_resolution() {
        let a = LogicVector::from_bits(&[Logic::Z, Logic::One, Logic::Zero]);
        let b = LogicVector::from_bits(&[Logic::Zero, Logic::Z, Logic::One]);
        let r = a.resolve(&b);
        assert_eq!(r.to_bits(), vec![Logic::Zero, Logic::One, Logic::X]);
    }

    #[test]
    fn scalar_conversion() {
        let v: LogicVector = Logic::One.into();
        assert_eq!(v.width(), 1);
        assert_eq!(v.to_u64(), Some(1));
    }

    #[test]
    fn bit_accessors() {
        let mut v = LogicVector::high_z(2);
        v.set_bit(1, Logic::One);
        assert_eq!(v.bit(1), Logic::One);
        assert_eq!(v.bit(0), Logic::Z);
    }

    #[test]
    fn wide_vectors_cross_the_inline_boundary() {
        // 65+ bits take the heap path; exercise every op across words.
        let mut v = LogicVector::uninitialized(130);
        assert_eq!(v.width(), 130);
        assert!(!v.is_fully_defined());
        assert_eq!(v.to_u64(), None);
        for i in 0..130 {
            v.set_bit(i, if i % 3 == 0 { Logic::One } else { Logic::Zero });
        }
        assert!(v.is_fully_defined());
        assert_eq!(v.bit(129), Logic::One);
        assert_eq!(v.slice(63, 4).to_u64(), Some(0b1001));
        let lo = v.slice(0, 64);
        let hi = v.slice(64, 66);
        assert_eq!(lo.concat_high(&hi), v);
    }

    #[test]
    fn packed_encoding_survives_every_value_and_alignment() {
        for &value in &Logic::ALL {
            for width in [1usize, 15, 16, 17, 64] {
                let v = LogicVector::filled(value, width);
                for i in 0..width {
                    assert_eq!(v.bit(i), value, "{value:?} at bit {i} width {width}");
                }
                assert_eq!(v, LogicVector::from_bits(&vec![value; width]));
            }
        }
    }
}
