//! A bit set over `u32` indices that stores only a range of its words.
//!
//! Transitive-closure rows, reachability frontiers, and uncovered-connection
//! sets in the 2-hop cover builder are all subsets of a known node universe,
//! packed 64 to a word. A closure row is not dense in that universe: an
//! element reaches its own document's subtree and what its links lead to,
//! and the walk numbers those close together, so a row's bits lie in a
//! narrow band of words. On the benchmark's collections the non-zero word
//! spans of the descendant rows cover 4–18% of a full-width row's words,
//! those of the ancestor rows 18–95%. A [`FixedBitSet`] therefore stores an
//! offset and the words from its first to its last possible non-zero word;
//! every word outside that range reads as zero. [`FixedBitSet::new`] stores
//! every word (the scratch sets of a traversal or a peel), and
//! [`FixedBitSet::with_span`] stores a given range: each closure row is
//! allocated once, at the span its bits will have. The closure of a
//! partition is bounded by the partitioner (paper §4.3) precisely so that
//! these rows fit in memory.

/// A half-open range `lo..hi` of word indices into a [`FixedBitSet`] (bit
/// `i` lives in word `i / 64`). The span operations read only the words a
/// span selects, clamped to the words a set stores: a span that is empty,
/// inverted (`lo >= hi`) or outside them selects nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WordSpan {
    /// First word selected.
    pub lo: u32,
    /// One past the last word selected.
    pub hi: u32,
}

impl WordSpan {
    /// The span that selects nothing; the `word_span` of an empty set.
    pub const EMPTY: WordSpan = WordSpan { lo: 0, hi: 0 };
    /// The span that selects every word of any set.
    pub const ALL: WordSpan = WordSpan {
        lo: 0,
        hi: u32::MAX,
    };

    /// The one word holding bit `i`.
    #[inline]
    pub fn of_bit(i: u32) -> WordSpan {
        WordSpan {
            lo: i / 64,
            hi: i / 64 + 1,
        }
    }

    /// Returns `true` if the span selects no word.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.lo >= self.hi
    }

    /// The words selected by both spans.
    #[inline]
    pub fn overlap(self, other: WordSpan) -> WordSpan {
        WordSpan {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// The smallest span selecting every word of both spans (an empty
    /// span adds nothing).
    #[inline]
    pub fn hull(self, other: WordSpan) -> WordSpan {
        match (self.is_empty(), other.is_empty()) {
            (_, true) => self,
            (true, false) => other,
            (false, false) => WordSpan {
                lo: self.lo.min(other.lo),
                hi: self.hi.max(other.hi),
            },
        }
    }

    /// Number of words selected (before clamping to a set's words).
    #[inline]
    pub fn len(self) -> u32 {
        self.hi.saturating_sub(self.lo)
    }

    /// Returns `true` if the span selects word `word`.
    #[inline]
    pub fn contains(self, word: u32) -> bool {
        self.lo <= word && word < self.hi
    }

    /// Returns `true` if every word `other` selects is selected here too.
    #[inline]
    fn covers(self, other: WordSpan) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }
}

/// A set of `u32` values in `0..len`, packed into 64-bit words, of which
/// only a range is stored (see the module docs). Two sets are equal when
/// they have the same universe and the same bits, however they store them.
#[derive(Clone, Default)]
pub struct FixedBitSet {
    /// Word `offset + i` of the set; every other word is zero.
    words: Box<[u64]>,
    offset: u32,
    /// Number of addressable bits.
    len: u32,
}

impl std::fmt::Debug for FixedBitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl PartialEq for FixedBitSet {
    fn eq(&self, other: &Self) -> bool {
        let words = self.stored_span().hull(other.stored_span());
        self.len == other.len && (words.lo..words.hi).all(|i| self.word(i) == other.word(i))
    }
}

impl Eq for FixedBitSet {}

/// The universe of `len` bits as the set stores it.
fn universe(len: usize) -> u32 {
    u32::try_from(len).expect("a bit set's universe fits u32 indices")
}

fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

impl FixedBitSet {
    /// Creates an empty set over `0..len` that stores every word.
    pub fn new(len: usize) -> Self {
        Self::with_span(len, WordSpan::ALL)
    }

    /// Creates an empty set over `0..len` that stores the words of `span`
    /// (clamped to the universe): the words a set's bits will lie in,
    /// when they are known before the bits are.
    pub fn with_span(len: usize, span: WordSpan) -> Self {
        let len = universe(len);
        let span = span.overlap(WordSpan {
            lo: 0,
            hi: len.div_ceil(64),
        });
        FixedBitSet {
            words: vec![0; span.len() as usize].into_boxed_slice(),
            offset: if span.is_empty() { 0 } else { span.lo },
            len,
        }
    }

    /// A copy of the bits inside `span`, stored over `span` clamped to
    /// the words this set stores.
    pub fn clone_in(&self, span: WordSpan) -> FixedBitSet {
        let (words, lo) = self.words_in(span);
        FixedBitSet {
            words: words.into(),
            offset: if words.is_empty() { 0 } else { lo },
            len: self.len,
        }
    }

    /// Number of addressable bits (the universe size, not the cardinality).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// The words this set stores; every word outside reads as zero.
    pub fn stored_span(&self) -> WordSpan {
        WordSpan {
            lo: self.offset,
            hi: self.offset + self.words.len() as u32,
        }
    }

    /// Returns `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Grows the universe to `new_len` bits, preserving existing content;
    /// the stored words stay as they are. Shrinking is a no-op.
    pub fn grow(&mut self, new_len: usize) {
        self.len = self.len.max(universe(new_len));
    }

    /// Stores the words of `span` too: one allocation at the hull of what
    /// is stored and `span`. A set that grows upward gets room for half its
    /// stored words again past that hull: the rows of a closure grown edge
    /// by edge gain words mostly upward, one at a time, as nodes are
    /// appended in ascending id order, and the room keeps the copies
    /// linear in a row's final length. Sets allocated at their final span
    /// never come here.
    #[cold]
    fn store(&mut self, span: WordSpan) {
        let have = self.stored_span();
        let mut want = have.hull(span);
        if want == have {
            return;
        }
        if want.hi > have.hi && !have.is_empty() {
            want.hi = want.hi.max(have.hi + have.len() / 2);
        }
        let mut words = vec![0; want.len() as usize].into_boxed_slice();
        if !self.words.is_empty() {
            let at = (have.lo - want.lo) as usize;
            words[at..at + self.words.len()].copy_from_slice(&self.words);
        }
        (self.words, self.offset) = (words, want.lo);
    }

    /// The index into `words` of word `i`, if it is stored.
    #[inline]
    fn slot(&self, i: u32) -> Option<usize> {
        let at = i.wrapping_sub(self.offset) as usize;
        (at < self.words.len()).then_some(at)
    }

    /// Sets bit `i`, storing its word first if need be. Returns `true` if
    /// the bit was previously clear.
    #[inline]
    pub fn insert(&mut self, i: u32) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        let at = match self.slot(i / 64) {
            Some(at) => at,
            None => {
                self.store(WordSpan::of_bit(i));
                (i / 64 - self.offset) as usize
            }
        };
        let mask = 1u64 << (i % 64);
        let was = self.words[at] & mask;
        self.words[at] |= mask;
        was == 0
    }

    /// Clears bit `i`. Returns `true` if the bit was previously set.
    #[inline]
    pub fn remove(&mut self, i: u32) -> bool {
        let Some(at) = self.slot(i / 64) else {
            return false;
        };
        let mask = 1u64 << (i % 64);
        let was = self.words[at] & mask;
        self.words[at] &= !mask;
        was != 0
    }

    /// Tests bit `i`.
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        self.word(i / 64) >> (i % 64) & 1 != 0
    }

    /// Word `i`: bit `i * 64 + b` is its bit `b`. Zero outside the stored
    /// words.
    #[inline]
    pub(crate) fn word(&self, i: u32) -> u64 {
        self.slot(i).map_or(0, |at| self.words[at])
    }

    /// ORs `bits` into word `i`, which must be stored.
    #[inline]
    pub(crate) fn or_word(&mut self, i: u32, bits: u64) {
        let at = self.slot(i).expect("word outside the stored span");
        self.words[at] |= bits;
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Clears the bits inside `span`.
    pub fn clear_in(&mut self, span: WordSpan) {
        let inside = span.overlap(self.stored_span());
        self.stored_mut(inside).fill(0);
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        popcount(&self.words)
    }

    /// Makes this set store the words where `other` has bits inside
    /// `span`, and widens its universe to `other`'s; returns the words
    /// both store inside `span`, which then hold every such bit.
    fn reserve_for(&mut self, other: &FixedBitSet, span: WordSpan) -> WordSpan {
        self.len = self.len.max(other.len);
        let theirs = span.overlap(other.stored_span());
        if !self.stored_span().covers(theirs) {
            self.store(other.word_span_in(theirs));
        }
        theirs.overlap(self.stored_span())
    }

    /// `self |= other` on the words inside `span`; returns the number of
    /// newly set bits. Stores the words this needs, widening upward by at
    /// least half the stored words again, and widens the universe to
    /// `other`'s.
    pub fn union_with_count_in(&mut self, other: &FixedBitSet, span: WordSpan) -> usize {
        let both = self.reserve_for(other, span);
        let mut added = 0;
        for (a, &b) in self.stored_mut(both).iter_mut().zip(other.stored(both)) {
            let new = *a | b;
            added += (new ^ *a).count_ones() as usize;
            *a = new;
        }
        added
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &FixedBitSet) {
        self.union_with_in(other, WordSpan::ALL);
    }

    /// `self |= other` on the words inside `span`, like
    /// [`FixedBitSet::union_with_count_in`] without the count.
    pub fn union_with_in(&mut self, other: &FixedBitSet, span: WordSpan) {
        self.union_with_count_in(other, span);
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: &FixedBitSet) {
        let offset = self.offset;
        for (i, a) in (offset..).zip(self.words.iter_mut()) {
            *a &= other.word(i);
        }
    }

    /// `self &= !other`.
    pub fn difference_with(&mut self, other: &FixedBitSet) {
        self.difference_with_in(other, WordSpan::ALL);
    }

    /// `self &= !other`, on the words inside `span` only. Returns the
    /// number of bits cleared and the span of the words that lost any.
    pub fn difference_with_in(&mut self, other: &FixedBitSet, span: WordSpan) -> (usize, WordSpan) {
        let both = self.overlap_with(other, span);
        let (mut cleared, mut first, mut last) = (0, None, 0);
        let theirs = other.stored(both);
        for ((i, a), &b) in (both.lo..).zip(self.stored_mut(both)).zip(theirs) {
            let lost = *a & b;
            if lost != 0 {
                cleared += lost.count_ones() as usize;
                first.get_or_insert(i);
                last = i;
                *a &= !b;
            }
        }
        let touched = first.map_or(WordSpan::EMPTY, |lo| WordSpan { lo, hi: last + 1 });
        (cleared, touched)
    }

    /// Returns `true` if `self ∩ other ≠ ∅` without materializing it.
    pub fn intersects(&self, other: &FixedBitSet) -> bool {
        let both = self.overlap_with(other, WordSpan::ALL);
        self.stored(both)
            .iter()
            .zip(other.stored(both))
            .any(|(&a, &b)| a & b != 0)
    }

    /// Cardinality of `self ∩ other` without materializing it.
    pub fn intersection_count(&self, other: &FixedBitSet) -> usize {
        self.intersection_count_in(other, WordSpan::ALL)
    }

    /// Cardinality of `self ∩ other` within the words of `span`.
    pub fn intersection_count_in(&self, other: &FixedBitSet, span: WordSpan) -> usize {
        let both = self.overlap_with(other, span);
        self.stored(both)
            .iter()
            .zip(other.stored(both))
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Cardinality of `self ∖ other` within the words of `span`.
    pub fn difference_count_in(&self, other: &FixedBitSet, span: WordSpan) -> usize {
        let mine = span.overlap(self.stored_span());
        let both = mine.overlap(other.stored_span());
        if both.is_empty() {
            return popcount(self.stored(mine));
        }
        let paired: usize = self
            .stored(both)
            .iter()
            .zip(other.stored(both))
            .map(|(&a, &b)| (a & !b).count_ones() as usize)
            .sum();
        let before = WordSpan {
            hi: both.lo,
            ..mine
        };
        let after = WordSpan {
            lo: both.hi,
            ..mine
        };
        popcount(self.stored(before)) + paired + popcount(self.stored(after))
    }

    /// The span of the words holding bits of `self ∖ other`, found by
    /// scanning inward from both ends; [`WordSpan::EMPTY`] if
    /// `self ⊆ other`.
    pub fn difference_span(&self, other: &FixedBitSet) -> WordSpan {
        let stored = self.stored_span();
        let left = |i: u32| self.word(i) & !other.word(i) != 0;
        let Some(first) = (stored.lo..stored.hi).find(|&i| left(i)) else {
            return WordSpan::EMPTY;
        };
        let last = (first..stored.hi).rfind(|&i| left(i)).unwrap_or(first);
        WordSpan {
            lo: first,
            hi: last + 1,
        }
    }

    /// Iterates over `self ∩ other` within the words of `span`, ascending,
    /// without materializing it.
    pub fn intersection_iter_in<'a>(
        &'a self,
        other: &'a FixedBitSet,
        span: WordSpan,
    ) -> Intersection<'a> {
        let both = self.overlap_with(other, span);
        let (a, b) = (self.stored(both), other.stored(both));
        Intersection {
            a,
            b,
            first_bit: both.lo as usize * 64,
            word_idx: 0,
            current: match (a.first(), b.first()) {
                (Some(&a), Some(&b)) => a & b,
                _ => 0,
            },
        }
    }

    /// The smallest span holding every set bit: from the first to one past
    /// the last non-zero word, [`WordSpan::EMPTY`] if no bit is set.
    pub fn word_span(&self) -> WordSpan {
        self.word_span_in(WordSpan::ALL)
    }

    /// [`FixedBitSet::word_span`] of the bits inside `span`, found by
    /// scanning inward from its two ends.
    pub fn word_span_in(&self, span: WordSpan) -> WordSpan {
        let (words, lo) = self.words_in(span);
        let Some(first) = words.iter().position(|&w| w != 0) else {
            return WordSpan::EMPTY;
        };
        let last = words.iter().rposition(|&w| w != 0).unwrap_or(first);
        WordSpan {
            lo: lo + first as u32,
            hi: lo + last as u32 + 1,
        }
    }

    /// The words both sets store inside `span`.
    #[inline]
    fn overlap_with(&self, other: &FixedBitSet, span: WordSpan) -> WordSpan {
        span.overlap(self.stored_span())
            .overlap(other.stored_span())
    }

    /// The stored words inside `span` and the index of the first of them.
    #[inline]
    fn words_in(&self, span: WordSpan) -> (&[u64], u32) {
        let inside = span.overlap(self.stored_span());
        (self.stored(inside), inside.lo)
    }

    /// The words of `span`, which lies inside the stored words or is
    /// empty.
    #[inline]
    fn stored(&self, span: WordSpan) -> &[u64] {
        if span.is_empty() {
            return &[];
        }
        &self.words[(span.lo - self.offset) as usize..(span.hi - self.offset) as usize]
    }

    #[inline]
    fn stored_mut(&mut self, span: WordSpan) -> &mut [u64] {
        if span.is_empty() {
            return &mut [];
        }
        &mut self.words[(span.lo - self.offset) as usize..(span.hi - self.offset) as usize]
    }

    /// Iterates over set bits in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        self.iter_in(WordSpan::ALL)
    }

    /// Iterates over the set bits inside the words of `span`, ascending.
    pub fn iter_in(&self, span: WordSpan) -> Iter<'_> {
        let (words, lo) = self.words_in(span);
        Iter {
            words,
            first_bit: lo as usize * 64,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }

    /// Collects the set bits into a sorted `Vec<u32>`.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }
}

impl FromIterator<u32> for FixedBitSet {
    /// Builds a set sized to the maximum element (+1).
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let items: Vec<u32> = iter.into_iter().collect();
        let len = items.iter().max().map_or(0, |&m| m as usize + 1);
        let mut set = FixedBitSet::new(len);
        for i in items {
            set.insert(i);
        }
        set
    }
}

/// Iterator over the set bits of a [`FixedBitSet`].
pub struct Iter<'a> {
    words: &'a [u64],
    /// The bit that the first word of `words` starts at.
    first_bit: usize,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some((self.first_bit + self.word_idx * 64) as u32 + bit)
    }
}

/// Iterator over the bits set in both of two [`FixedBitSet`]s, within the
/// words of a [`WordSpan`]. The default iterator is empty.
#[derive(Default)]
pub struct Intersection<'a> {
    /// The two sets' words inside the span.
    a: &'a [u64],
    b: &'a [u64],
    /// The bit that the first word of `a` and `b` starts at.
    first_bit: usize,
    word_idx: usize,
    current: u64,
}

impl Iterator for Intersection<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = self.a.get(self.word_idx)? & self.b.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some((self.first_bit + self.word_idx * 64) as u32 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = FixedBitSet::new(130);
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn iter_ascending() {
        let mut s = FixedBitSet::new(200);
        for i in [3u32, 64, 65, 127, 128, 199] {
            s.insert(i);
        }
        assert_eq!(s.to_vec(), vec![3, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn union_counts_new_bits() {
        let mut a = FixedBitSet::new(100);
        let mut b = FixedBitSet::new(100);
        a.insert(1);
        a.insert(50);
        b.insert(50);
        b.insert(99);
        assert_eq!(a.union_with_count_in(&b, WordSpan::ALL), 1);
        assert_eq!(a.count(), 3);
        assert_eq!(a.union_with_count_in(&b, WordSpan::ALL), 0);
    }

    #[test]
    fn set_algebra() {
        let mut a: FixedBitSet = [1u32, 2, 3, 64].into_iter().collect();
        let b: FixedBitSet = [2u32, 64, 65].into_iter().collect();
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_count(&b), 2);
        let mut c = a.clone();
        c.grow(b.len());
        c.intersect_with(&b);
        assert_eq!(c.to_vec(), vec![2, 64]);
        a.difference_with(&b);
        assert_eq!(a.to_vec(), vec![1, 3]);
    }

    #[test]
    fn intersection_iter_matches_materialized() {
        let a: FixedBitSet = [0u32, 5, 63, 64, 130, 199, 300].into_iter().collect();
        let b: FixedBitSet = [5u32, 64, 65, 199].into_iter().collect();
        // `b` is two words shorter than `a`: its missing words are empty.
        assert_eq!(
            a.intersection_iter_in(&b, WordSpan::ALL)
                .collect::<Vec<_>>(),
            vec![5, 64, 199]
        );
        assert_eq!(
            b.intersection_iter_in(&a, WordSpan::ALL)
                .collect::<Vec<_>>(),
            vec![5, 64, 199]
        );
        let mut c = a.clone();
        c.intersect_with(&b);
        assert_eq!(
            a.intersection_iter_in(&b, WordSpan::ALL)
                .collect::<Vec<_>>(),
            c.to_vec()
        );
        let empty = FixedBitSet::new(0);
        assert_eq!(a.intersection_iter_in(&empty, WordSpan::ALL).count(), 0);
        assert_eq!(empty.intersection_iter_in(&a, WordSpan::ALL).count(), 0);
    }

    /// `x` with only the bits inside `span` kept.
    fn restricted(x: &FixedBitSet, span: WordSpan) -> Vec<u32> {
        let inside = |i: &u32| span.lo <= i / 64 && i / 64 < span.hi;
        x.iter().filter(inside).collect()
    }

    fn set(len: usize, bits: &[u32]) -> FixedBitSet {
        let mut s = FixedBitSet::new(len);
        for &i in bits.iter().filter(|&&i| (i as usize) < len) {
            s.insert(i);
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On sets of unequal lengths and any span — empty, inverted or
        /// past the end included — the span forms equal the materialized
        /// intersection restricted to the span.
        #[test]
        fn span_forms_equal_the_restricted_intersection(
            (la, lb) in (0usize..320, 0usize..320),
            abits in proptest::collection::vec(0u32..320, 0..60),
            bbits in proptest::collection::vec(0u32..320, 0..60),
            (lo, hi) in (0u32..8, 0u32..8),
        ) {
            let (a, b) = (set(la, &abits), set(lb, &bbits));
            let mut both = a.clone();
            both.intersect_with(&b);
            for span in [WordSpan { lo, hi }, WordSpan::ALL, WordSpan::EMPTY] {
                let want = restricted(&both, span);
                let got: Vec<u32> = a.intersection_iter_in(&b, span).collect();
                prop_assert_eq!(got, want.clone());
                prop_assert_eq!(a.intersection_count_in(&b, span), want.len());
                let mut diff = a.clone();
                let (cleared, touched) = diff.difference_with_in(&b, span);
                let kept: Vec<u32> = a.iter().filter(|i| !want.contains(i)).collect();
                prop_assert_eq!(diff.to_vec(), kept);
                let inside = restricted(&a, span);
                let want_span = match (inside.first(), inside.last()) {
                    (Some(f), Some(l)) => WordSpan { lo: f / 64, hi: l / 64 + 1 },
                    _ => WordSpan::EMPTY,
                };
                prop_assert_eq!(a.word_span_in(span), want_span);
                prop_assert_eq!(a.iter_in(span).collect::<Vec<_>>(), inside.clone());
                let only_a: Vec<u32> = inside.iter().copied().filter(|&i| !b.contains(i)).collect();
                prop_assert_eq!(a.difference_count_in(&b, span), only_a.len());
                prop_assert_eq!(cleared, want.len());
                let want_touched = match (want.first(), want.last()) {
                    (Some(f), Some(l)) => WordSpan { lo: f / 64, hi: l / 64 + 1 },
                    _ => WordSpan::EMPTY,
                };
                prop_assert_eq!(touched, want_touched);
                let mut union = a.clone();
                union.grow(b.len());
                let mut union_in = union.clone();
                let added = union_in.union_with_count_in(&b, span);
                let from_b = restricted(&b, span);
                prop_assert_eq!(added, from_b.iter().filter(|&&i| !a.contains(i)).count());
                union.union_with_in(&b, span);
                prop_assert_eq!(&union, &union_in);
                let mut want_union = a.to_vec();
                want_union.extend(from_b);
                want_union.sort_unstable();
                want_union.dedup();
                prop_assert_eq!(union.to_vec(), want_union);
                let mut cleared = a.clone();
                cleared.clear_in(span);
                let outside: Vec<u32> = a.iter().filter(|i| !inside.contains(i)).collect();
                prop_assert_eq!(cleared.to_vec(), outside);
            }
            let only_a: Vec<u32> = a.iter().filter(|&i| !b.contains(i)).collect();
            let want_span = match (only_a.first(), only_a.last()) {
                (Some(f), Some(l)) => WordSpan { lo: f / 64, hi: l / 64 + 1 },
                _ => WordSpan::EMPTY,
            };
            prop_assert_eq!(a.difference_span(&b), want_span);
            let all: Vec<u32> = a.intersection_iter_in(&b, WordSpan::ALL).collect();
            prop_assert_eq!(all, both.to_vec());
            prop_assert_eq!(a.intersection_count(&b), both.count());
        }
    }

    /// `bits` inside the words of `stored`, as a set that stores only
    /// those words and as one that stores every word.
    fn twins(len: usize, stored: WordSpan, bits: &[u32]) -> (FixedBitSet, FixedBitSet) {
        let mut compact = FixedBitSet::with_span(len, stored);
        let mut dense = FixedBitSet::new(len);
        for &i in bits
            .iter()
            .filter(|&&i| (i as usize) < len && stored.contains(i / 64))
        {
            compact.insert(i);
            dense.insert(i);
        }
        (compact, dense)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A set that stores only a range of its words answers every
        /// operation as the same set stored over all of them, against
        /// either representation of the other operand and for any span:
        /// empty, inverted, outside the stored words or partly inside.
        #[test]
        fn compact_rows_match_dense(
            len in 0usize..400,
            (alo, ahi, blo, bhi) in (0u32..8, 0u32..8, 0u32..8, 0u32..8),
            abits in proptest::collection::vec(0u32..400, 0..80),
            bbits in proptest::collection::vec(0u32..400, 0..80),
            (lo, hi) in (0u32..9, 0u32..9),
            extra in 0u32..400,
        ) {
            let (ac, ad) = twins(len, WordSpan { lo: alo, hi: ahi }, &abits);
            let (bc, bd) = twins(len, WordSpan { lo: blo, hi: bhi }, &bbits);
            prop_assert!(ac.stored_span().len() <= WordSpan { lo: alo, hi: ahi }.len());
            prop_assert_eq!(&ac, &ad);
            prop_assert_eq!(ac.count(), ad.count());
            prop_assert_eq!(ac.is_empty(), ad.is_empty());
            for i in 0..len as u32 + 130 {
                prop_assert_eq!(ac.contains(i), ad.contains(i));
            }
            let spans = [
                WordSpan { lo, hi },
                WordSpan::ALL,
                WordSpan::EMPTY,
                ac.stored_span(),
                bc.stored_span(),
            ];
            for span in spans {
                prop_assert_eq!(ac.iter_in(span).collect::<Vec<_>>(), ad.iter_in(span).collect::<Vec<_>>());
                prop_assert_eq!(ac.word_span_in(span), ad.word_span_in(span));
                for (a, b) in [(&ac, &bc), (&ac, &bd), (&ad, &bc)] {
                    prop_assert_eq!(a.intersection_count_in(b, span), ad.intersection_count_in(&bd, span));
                    prop_assert_eq!(a.difference_count_in(b, span), ad.difference_count_in(&bd, span));
                    prop_assert_eq!(
                        a.intersection_iter_in(b, span).collect::<Vec<_>>(),
                        ad.intersection_iter_in(&bd, span).collect::<Vec<_>>()
                    );
                    let (mut got, mut want) = (a.clone(), ad.clone());
                    prop_assert_eq!(got.union_with_count_in(b, span), want.union_with_count_in(&bd, span));
                    prop_assert_eq!(&got, &want);
                    let (mut got, mut want) = (a.clone(), ad.clone());
                    prop_assert_eq!(got.difference_with_in(b, span), want.difference_with_in(&bd, span));
                    prop_assert_eq!(&got, &want);
                }
            }
            let same = ad.to_vec() == bd.to_vec();
            for (a, b) in [(&ac, &bc), (&ac, &bd), (&ad, &bc), (&bc, &ac), (&bd, &ac), (&bc, &ad)] {
                prop_assert_eq!(a == b, same);
            }
            for (a, b) in [(&ac, &bc), (&ac, &bd), (&ad, &bc)] {
                prop_assert_eq!(a.intersects(b), ad.intersects(&bd));
                prop_assert_eq!(a.difference_span(b), ad.difference_span(&bd));
                let (mut got, mut want) = (a.clone(), ad.clone());
                got.intersect_with(b);
                want.intersect_with(&bd);
                prop_assert_eq!(&got, &want);
            }
            // A bit outside the stored words is stored on insert.
            if (extra as usize) < len {
                let (mut got, mut want) = (ac.clone(), ad.clone());
                prop_assert_eq!(got.insert(extra), want.insert(extra));
                prop_assert_eq!(&got, &want);
                prop_assert!(got.stored_span().contains(extra / 64));
                prop_assert_eq!(got.remove(extra), want.remove(extra));
                prop_assert_eq!(&got, &want);
            }
            // Equality is of contents: a copy over the set's own span, or
            // over no words when it is empty, equals the original.
            prop_assert_eq!(&ac.clone_in(ac.word_span()), &ad);
            prop_assert_eq!(ac.clone_in(ac.word_span()).stored_span().len(), ad.word_span().len());
        }
    }

    #[test]
    fn span_hull_len_contains() {
        let (a, b) = (WordSpan { lo: 2, hi: 5 }, WordSpan { lo: 7, hi: 9 });
        assert_eq!(a.hull(b), WordSpan { lo: 2, hi: 9 });
        assert_eq!(b.hull(a), WordSpan { lo: 2, hi: 9 });
        assert_eq!(a.hull(WordSpan::EMPTY), a);
        assert_eq!(WordSpan::EMPTY.hull(b), b);
        // An inverted span is empty and adds nothing either.
        assert_eq!(WordSpan { lo: 6, hi: 1 }.hull(a), a);
        assert_eq!(WordSpan::EMPTY.hull(WordSpan::EMPTY), WordSpan::EMPTY);
        assert_eq!((a.len(), WordSpan::EMPTY.len()), (3, 0));
        assert_eq!(WordSpan { lo: 6, hi: 1 }.len(), 0);
        assert!(a.contains(2) && a.contains(4));
        assert!(!a.contains(1) && !a.contains(5) && !WordSpan::EMPTY.contains(0));
    }

    #[test]
    fn empty_and_clear() {
        let mut s = FixedBitSet::new(10);
        assert!(s.is_empty());
        s.insert(5);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn grow_preserves() {
        let mut s = FixedBitSet::new(10);
        s.insert(7);
        s.grow(1000);
        assert!(s.contains(7));
        s.insert(999);
        assert_eq!(s.to_vec(), vec![7, 999]);
        s.grow(5); // shrink is a no-op
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn zero_capacity() {
        let s = FixedBitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
    }
}
