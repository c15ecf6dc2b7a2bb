//! A packed validity bitmap used for NULL tracking in columns.

/// A fixed-length bitmap, one bit per row. Bit set means *valid* (non-NULL).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Create a bitmap of `len` bits, all set to `value`.
    pub fn new(len: usize, value: bool) -> Bitmap {
        let nwords = len.div_ceil(64);
        let fill = if value { u64::MAX } else { 0 };
        let mut words = vec![fill; nwords];
        if value && !len.is_multiple_of(64) {
            // clear the padding bits so count_ones stays exact
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        Bitmap { words, len }
    }

    /// An empty bitmap with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Bitmap {
        Bitmap {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Build from a boolean slice.
    pub fn from_bools(bits: &[bool]) -> Bitmap {
        let mut bm = Bitmap::new(bits.len(), false);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bm.set(i, true);
            }
        }
        bm
    }

    /// The bitmap of `pred` over a typed slice — the scan of the selection
    /// kernels of [`crate::ops`]. Sixty-four values at a time: the
    /// predicate fills a block of bytes in a fixed-length loop with no
    /// branch in it (which the compiler vectorises when `pred` is a
    /// comparison), and eight multiplications pack the block into a word.
    pub(crate) fn from_slice<T: Copy>(values: &[T], pred: impl Fn(T) -> bool) -> Bitmap {
        // the lowest bit of each of eight bytes, gathered into the top byte
        const GATHER: u64 = 0x0102_0408_1020_4080;
        let mut words = Vec::with_capacity(values.len().div_ceil(64));
        let mut block = [0u8; 64];
        for chunk in values.chunks(64) {
            // a short last chunk leaves the rest of the block clear
            block[chunk.len()..].fill(0);
            for (byte, &v) in block.iter_mut().zip(chunk) {
                *byte = pred(v) as u8;
            }
            let mut word = 0u64;
            for (k, eight) in block.chunks_exact(8).enumerate() {
                let eight = u64::from_le_bytes(eight.try_into().expect("eight bytes"));
                word |= (eight.wrapping_mul(GATHER) >> 56) << (k * 8);
            }
            words.push(word);
        }
        Bitmap {
            words,
            len: values.len(),
        }
    }

    /// Build from `len` booleans — [`Self::from_slice`] for sources that
    /// are not a slice. Each word is gathered in a register and stored
    /// once.
    pub(crate) fn from_bits(len: usize, bits: impl IntoIterator<Item = bool>) -> Bitmap {
        let mut bits = bits.into_iter();
        let mut words = Vec::with_capacity(len.div_ceil(64));
        for (_, n) in word_steps(len) {
            let mut word = 0u64;
            for j in 0..n {
                word |= (bits.next().expect("one boolean per bit") as u64) << j;
            }
            words.push(word);
        }
        Bitmap { words, len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Is bit `i` set? `false` past the end: the membership test of a
    /// bitmap used as a set of positions. Whether `i` is in range is data
    /// (half the keys of a semijoin probe may lie outside the other side's
    /// range), so it is not branched on: the word index is clamped, the
    /// word loaded regardless, and the range test ANDed in.
    #[inline]
    pub(crate) fn contains(&self, i: u64) -> bool {
        let last = self.words.len().wrapping_sub(1);
        let at = usize::try_from(i / 64).unwrap_or(usize::MAX).min(last);
        let word = self.words.get(at).copied().unwrap_or(0); // only empty misses
        (i < self.len as u64) & ((word >> (i % 64)) & 1 == 1)
    }

    /// Write bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set (valid) bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Up to 64 bits starting at bit `from`, right-aligned; bits past the
    /// end of the bitmap read as 0.
    #[inline]
    fn word_at(&self, from: usize) -> u64 {
        let (w, shift) = (from / 64, from % 64);
        let lo = self.words.get(w).copied().unwrap_or(0) >> shift;
        if shift == 0 {
            lo
        } else {
            lo | self.words.get(w + 1).copied().unwrap_or(0) << (64 - shift)
        }
    }

    /// Number of set bits in `[from, from + len)`, a word at a time.
    pub fn count_ones_in(&self, from: usize, len: usize) -> usize {
        assert!(from + len <= self.len, "bit range out of bounds");
        word_steps(len)
            .map(|(at, n)| (self.word_at(from + at) & low_mask(n)).count_ones() as usize)
            .sum()
    }

    /// Clear every bit that is clear in `[from, from + self.len())` of
    /// `other` — a word-wise AND against a window at any alignment.
    pub(crate) fn and_range(&mut self, other: &Bitmap, from: usize) {
        assert!(from + self.len <= other.len, "bit range out of bounds");
        for (i, word) in self.words.iter_mut().enumerate() {
            *word &= other.word_at(from + i * 64);
        }
    }

    /// Flip every bit.
    pub(crate) fn negate(&mut self) {
        for word in &mut self.words {
            *word = !*word;
        }
        if !self.len.is_multiple_of(64) {
            // keep the padding clear so counts stay exact
            *self.words.last_mut().expect("a partial last word") &= low_mask(self.len % 64);
        }
    }

    /// The positions of the set bits, ascending, in a vector allocated
    /// once at its exact size — a selection as row indices for
    /// [`crate::Column::gather`].
    pub(crate) fn ones(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (i, &word) in self.words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                out.push((i * 64) as u32 + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
        out
    }

    /// Are all bits set?
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Append a bit, growing the bitmap by one.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        let i = self.len - 1;
        if value {
            self.words[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Append `n` copies of `value`, a word at a time.
    pub fn extend_fill(&mut self, value: bool, n: usize) {
        let fill = if value { u64::MAX } else { 0 };
        for (_, n) in word_steps(n) {
            self.push_word(fill & low_mask(n), n);
        }
    }

    /// Append bits `[from, from + len)` of `other`, a word at a time
    /// whatever the two alignments are.
    pub fn extend_from_range(&mut self, other: &Bitmap, from: usize, len: usize) {
        assert!(from + len <= other.len, "bit range out of bounds");
        for (at, n) in word_steps(len) {
            self.push_word(other.word_at(from + at) & low_mask(n), n);
        }
    }

    /// Append the low `n` (≤ 64) bits of `bits`; the bits above must be 0.
    #[inline]
    fn push_word(&mut self, bits: u64, n: usize) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.push(bits);
        } else {
            *self.words.last_mut().expect("partial last word") |= bits << shift;
            if shift + n > 64 {
                self.words.push(bits >> (64 - shift));
            }
        }
        self.len += n;
    }

    /// Heap bytes used by the bitmap.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }

    /// Iterate over bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

/// `len` bits cut into `(offset, bits)` steps of 64 bits and a remainder.
fn word_steps(len: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len).step_by(64).map(move |at| (at, (len - at).min(64)))
}

/// The low `n` (≤ 64) bits set.
#[inline]
fn low_mask(n: usize) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_all_true_exact_count() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let bm = Bitmap::new(len, true);
            assert_eq!(bm.count_ones(), len, "len {len}");
            assert!(bm.all_set() || len == 0 && bm.all_set());
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bm = Bitmap::new(100, false);
        bm.set(0, true);
        bm.set(63, true);
        bm.set(64, true);
        bm.set(99, true);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(99));
        assert!(!bm.get(1) && !bm.get(65));
        assert_eq!(bm.count_ones(), 4);
        bm.set(63, false);
        assert!(!bm.get(63));
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn push_grows() {
        let mut bm = Bitmap::new(0, false);
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 200);
        assert_eq!(bm.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
    }

    /// A bitmap of `len` bits with an irregular but repeatable pattern.
    fn pattern(len: usize, salt: usize) -> Bitmap {
        Bitmap::from_bools(
            &(0..len)
                .map(|i| (i * 7 + salt) % 5 < 2 || i % 11 == salt % 11)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn range_append_equals_bitwise_push_at_every_alignment() {
        let src = pattern(300, 3);
        for head in [0usize, 1, 63, 64, 65, 127] {
            for from in [0usize, 1, 5, 63, 64, 100] {
                for len in [0usize, 1, 63, 64, 65, 130, 200] {
                    let mut fast = pattern(head, 1);
                    let mut slow = fast.clone();
                    fast.extend_from_range(&src, from, len);
                    for i in from..from + len {
                        slow.push(src.get(i));
                    }
                    assert_eq!(fast, slow, "head {head} from {from} len {len}");
                    assert_eq!(
                        src.count_ones_in(from, len),
                        (from..from + len).filter(|&i| src.get(i)).count()
                    );
                }
            }
        }
    }

    #[test]
    fn extend_fill_equals_bitwise_push() {
        for head in [0usize, 1, 63, 64, 70] {
            for n in [0usize, 1, 63, 64, 65, 200] {
                for value in [false, true] {
                    let mut fast = pattern(head, 2);
                    let mut slow = fast.clone();
                    fast.extend_fill(value, n);
                    for _ in 0..n {
                        slow.push(value);
                    }
                    assert_eq!(fast, slow, "head {head} n {n} value {value}");
                }
            }
        }
    }

    #[test]
    fn scans_equal_bitwise_pushes() {
        for len in [0usize, 1, 7, 8, 63, 64, 65, 128, 200] {
            let values: Vec<usize> = (0..len).map(|i| i * 7 + 3).collect();
            let pred = |v: usize| v % 5 < 2 || v % 11 == 3;
            let mut slow = Bitmap::new(0, false);
            values.iter().for_each(|&v| slow.push(pred(v)));
            assert_eq!(Bitmap::from_slice(&values, pred), slow, "len {len}");
            assert_eq!(
                Bitmap::from_bits(len, values.iter().map(|&v| pred(v))),
                slow
            );
            // every bit of every byte lane reaches its place in the word
            assert_eq!(
                Bitmap::from_slice(&values, |_| true),
                Bitmap::new(len, true)
            );
        }
    }

    #[test]
    fn and_negate_ones_contains() {
        let (a, b) = (pattern(200, 1), pattern(300, 4));
        for from in [0usize, 1, 63, 64, 100] {
            let mut and = a.clone();
            and.and_range(&b, from);
            let mut not = a.clone();
            not.negate();
            for i in 0..200 {
                assert_eq!(
                    and.get(i),
                    a.get(i) && b.get(from + i),
                    "from {from} bit {i}"
                );
                assert_eq!(not.get(i), !a.get(i));
            }
            // padding stays clear: counts stay exact
            assert_eq!(not.count_ones(), 200 - a.count_ones());
        }
        let ones = a.ones();
        assert_eq!(ones.len(), ones.capacity());
        assert_eq!(
            ones,
            (0..200u32)
                .filter(|&i| a.get(i as usize))
                .collect::<Vec<_>>()
        );
        for i in 0..200u64 {
            assert_eq!(a.contains(i), a.get(i as usize));
        }
        for past in [200, 255, 256, 1 << 40, u64::MAX] {
            assert!(!Bitmap::new(200, true).contains(past), "{past}");
        }
        assert!(!Bitmap::new(0, true).contains(0));
        let mut empty = Bitmap::new(0, false);
        empty.negate();
        assert!(empty.ones().is_empty());
    }

    #[test]
    fn from_bools_matches() {
        let bits: Vec<bool> = (0..77).map(|i| i % 2 == 0).collect();
        let bm = Bitmap::from_bools(&bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(bm.get(i), b);
        }
    }
}
