//! Compact string column storage: a shared byte arena with an offsets array.

/// Append-only string buffer: all string bytes live in one arena, with an
/// `offsets` array delimiting the individual values (Arrow-style layout).
///
/// This keeps string columns cache-friendly and makes the recycle pool's
/// memory accounting honest (one allocation per column, not per value).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrBuffer {
    bytes: Vec<u8>,
    offsets: Vec<u32>,
}

impl StrBuffer {
    /// New empty buffer.
    pub fn new() -> StrBuffer {
        StrBuffer {
            bytes: Vec::new(),
            offsets: vec![0],
        }
    }

    /// New buffer with room for exactly `n` strings holding `bytes` bytes
    /// in total — what the bulk kernels below size their output with.
    pub fn with_capacity(n: usize, bytes: usize) -> StrBuffer {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        StrBuffer {
            bytes: Vec::with_capacity(bytes),
            offsets,
        }
    }

    /// Build from an iterator of string slices.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<'a>(it: impl IntoIterator<Item = &'a str>) -> StrBuffer {
        let mut b = StrBuffer::new();
        for s in it {
            b.push(s);
        }
        b
    }

    /// Append a string.
    pub fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(self.bytes.len() as u32);
    }

    /// Arena bytes held by strings `[from, from + len)`.
    pub fn range_bytes(&self, from: usize, len: usize) -> usize {
        (self.offsets[from + len] - self.offsets[from]) as usize
    }

    /// Append strings `[from, from + len)` of `other`: one copy of their
    /// stretch of the arena, then their end offsets rebased onto this
    /// arena. No string is looked at.
    pub fn extend_from_range(&mut self, other: &StrBuffer, from: usize, len: usize) {
        let src_start = other.offsets[from];
        let src_end = other.offsets[from + len];
        let base =
            arena_offset(self.bytes.len() + other.range_bytes(from, len)) - (src_end - src_start);
        self.bytes
            .extend_from_slice(&other.bytes[src_start as usize..src_end as usize]);
        self.offsets.extend(
            other.offsets[from + 1..=from + len]
                .iter()
                .map(|&end| end - src_start + base),
        );
    }

    /// The strings at `offset + idx[..]`, in that order, in a buffer sized
    /// exactly once up front.
    pub fn gather(&self, offset: usize, idx: &[u32]) -> StrBuffer {
        let span = |i: u32| {
            let i = offset + i as usize;
            self.offsets[i] as usize..self.offsets[i + 1] as usize
        };
        let total: usize = idx.iter().map(|&i| span(i).len()).sum();
        let mut out = StrBuffer::with_capacity(idx.len(), total);
        arena_offset(total); // the last offset pushed below
        for &i in idx {
            out.bytes.extend_from_slice(&self.bytes[span(i)]);
            out.offsets.push(out.bytes.len() as u32);
        }
        out
    }

    /// Number of strings stored.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no strings are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch string `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        // SAFETY-free: we only ever store whole &str values, so slicing on
        // recorded offsets is valid UTF-8 by construction.
        std::str::from_utf8(self.get_bytes(i)).expect("strbuf stores valid utf8")
    }

    /// The bytes of string `i`, without the UTF-8 validation [`Self::get`]
    /// pays on every call. Byte order is `str` order, so equality, ordering
    /// and hashing kernels work on these.
    #[inline]
    pub fn get_bytes(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The bytes of strings `[from, from + len)`, in order — the offsets
    /// walked pairwise, for kernels that scan a whole column.
    pub(crate) fn iter_bytes(
        &self,
        from: usize,
        len: usize,
    ) -> impl Iterator<Item = &[u8]> + Clone {
        self.offsets[from..=from + len]
            .windows(2)
            .map(|w| &self.bytes[w[0] as usize..w[1] as usize])
    }

    /// Iterate all strings.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Heap bytes used.
    pub fn byte_size(&self) -> usize {
        self.bytes.len() + self.offsets.len() * 4
    }
}

/// An arena length as an offset; the bulk kernels check the end they are
/// about to reach once, instead of truncating per string.
fn arena_offset(len: usize) -> u32 {
    u32::try_from(len).expect("string arena exceeds 32-bit offsets")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get() {
        let mut b = StrBuffer::new();
        b.push("hello");
        b.push("");
        b.push("wörld");
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(0), "hello");
        assert_eq!(b.get(1), "");
        assert_eq!(b.get(2), "wörld");
    }

    #[test]
    fn from_iter_roundtrip() {
        let src = ["R", "A", "N", "R"];
        let b = StrBuffer::from_iter(src.iter().copied());
        let back: Vec<&str> = b.iter().collect();
        assert_eq!(back, src);
    }

    #[test]
    fn range_append_rebases_offsets() {
        let src = StrBuffer::from_iter(["skip", "", "wörld", "日本", "x", "tail"]);
        // onto a non-empty arena, from a non-zero source offset
        let mut dst = StrBuffer::from_iter(["héllo", ""]);
        dst.extend_from_range(&src, 1, 4);
        dst.extend_from_range(&src, 0, 0);
        dst.extend_from_range(&src, 5, 1);
        let back: Vec<&str> = dst.iter().collect();
        assert_eq!(back, ["héllo", "", "", "wörld", "日本", "x", "tail"]);
        assert_eq!(src.range_bytes(1, 4), "wörld日本x".len());
        // exactly what pushing one by one builds
        let pushed = StrBuffer::from_iter(back.iter().copied());
        assert_eq!(dst, pushed);
    }

    #[test]
    fn gather_presizes_exactly() {
        let src = StrBuffer::from_iter(["a", "", "wörld", "日本", "x"]);
        let g = src.gather(1, &[3, 1, 1, 0]);
        assert_eq!(g.iter().collect::<Vec<_>>(), ["x", "wörld", "wörld", ""]);
        assert_eq!(g.bytes.capacity(), g.bytes.len());
        assert_eq!(g.offsets.capacity(), g.offsets.len());
    }

    #[test]
    fn byte_size_counts_arena() {
        let b = StrBuffer::from_iter(["abc", "de"]);
        assert_eq!(b.byte_size(), 5 + 3 * 4);
    }
}
