//! A fixed-capacity bit set over `u32` indices.
//!
//! Transitive-closure rows, reachability frontiers, and uncovered-connection
//! sets in the 2-hop cover builder are all dense subsets of a known node
//! universe, which makes a word-packed bit set the natural representation.
//! The closure of a partition is bounded by the partitioner (paper §4.3)
//! precisely so that these rows fit in memory.

/// A half-open range `lo..hi` of word indices into a [`FixedBitSet`] (bit
/// `i` lives in word `i / 64`). The span operations read only the words a
/// span selects, clamped to the words a set has: a span that is empty,
/// inverted (`lo >= hi`) or past the end selects nothing.
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

    /// Number of words selected (before clamping to a set's length).
    #[inline]
    pub fn len(self) -> u32 {
        self.hi.saturating_sub(self.lo)
    }

    /// Returns `true` if the span selects word `word`.
    #[inline]
    pub fn contains(self, word: u32) -> bool {
        self.lo <= word && word < self.hi
    }
}

/// A fixed-capacity set of `u32` values in `0..len`, packed into 64-bit words.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct FixedBitSet {
    words: Vec<u64>,
    /// Number of addressable bits.
    len: usize,
}

impl std::fmt::Debug for FixedBitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FixedBitSet {
    /// Creates an empty set with capacity for values in `0..len`.
    pub fn new(len: usize) -> Self {
        FixedBitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The set over `0..len` whose packed words are `words`, laid out as
    /// [`FixedBitSet::new`] lays them out; bits at `len` and past it must
    /// be clear.
    pub fn from_words(len: usize, words: &[u64]) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count of {len} bits");
        debug_assert!(len.is_multiple_of(64) || words.last().is_none_or(|&w| w >> (len % 64) == 0));
        FixedBitSet {
            words: words.to_vec(),
            len,
        }
    }

    /// Number of addressable bits (the universe size, not the cardinality).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Grows the universe to `new_len` bits, preserving existing content.
    /// Shrinking is a no-op.
    pub fn grow(&mut self, new_len: usize) {
        if new_len > self.len {
            self.len = new_len;
            self.words.resize(new_len.div_ceil(64), 0);
        }
    }

    /// Sets bit `i`. Returns `true` if the bit was previously clear.
    #[inline]
    pub fn insert(&mut self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i as usize % 64);
        debug_assert!((i as usize) < self.len, "bit {i} out of range {}", self.len);
        let mask = 1u64 << b;
        let was = self.words[w] & mask;
        self.words[w] |= mask;
        was == 0
    }

    /// Clears bit `i`. Returns `true` if the bit was previously set.
    #[inline]
    pub fn remove(&mut self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i as usize % 64);
        let mask = 1u64 << b;
        let was = self.words[w] & mask;
        self.words[w] &= !mask;
        was != 0
    }

    /// Tests bit `i`.
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i as usize % 64);
        match self.words.get(w) {
            Some(word) => word & (1u64 << b) != 0,
            None => false,
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Clears the bits inside `span`.
    pub fn clear_in(&mut self, span: WordSpan) {
        self.words_in_mut(span).fill(0);
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self |= other` on the words inside `span`; returns the number of
    /// newly set bits.
    pub fn union_with_count_in(&mut self, other: &FixedBitSet, span: WordSpan) -> usize {
        debug_assert!(other.words.len() <= self.words.len());
        let mut added = 0;
        for (a, &b) in self.words_in_mut(span).iter_mut().zip(other.words_in(span)) {
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

    /// `self |= other` on the words inside `span`.
    pub fn union_with_in(&mut self, other: &FixedBitSet, span: WordSpan) {
        for (a, &b) in self.words_in_mut(span).iter_mut().zip(other.words_in(span)) {
            *a |= b;
        }
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: &FixedBitSet) {
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
        for a in self.words.iter_mut().skip(other.words.len()) {
            *a = 0;
        }
    }

    /// `self &= !other`.
    pub fn difference_with(&mut self, other: &FixedBitSet) {
        self.difference_with_in(other, WordSpan::ALL);
    }

    /// `self &= !other`, on the words inside `span` only. Returns the
    /// number of bits cleared and the span of the words that lost any.
    pub fn difference_with_in(&mut self, other: &FixedBitSet, span: WordSpan) -> (usize, WordSpan) {
        let theirs = other.words_in(span);
        let (mut cleared, mut first, mut last) = (0, None, 0);
        for ((i, a), &b) in (span.lo..).zip(self.words_in_mut(span)).zip(theirs) {
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
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(&a, &b)| a & b != 0)
    }

    /// Cardinality of `self ∩ other` without materializing it.
    pub fn intersection_count(&self, other: &FixedBitSet) -> usize {
        self.intersection_count_in(other, WordSpan::ALL)
    }

    /// Cardinality of `self ∩ other` within the words of `span`.
    pub fn intersection_count_in(&self, other: &FixedBitSet, span: WordSpan) -> usize {
        self.words_in(span)
            .iter()
            .zip(other.words_in(span))
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Cardinality of `self ∖ other` within the words of `span` (words
    /// beyond the end of `other` count as empty).
    pub fn difference_count_in(&self, other: &FixedBitSet, span: WordSpan) -> usize {
        let theirs = other.words_in(span);
        let mine = self.words_in(span);
        let (paired, rest) = mine.split_at(theirs.len().min(mine.len()));
        let paired: usize = paired
            .iter()
            .zip(theirs)
            .map(|(&a, &b)| (a & !b).count_ones() as usize)
            .sum();
        paired + rest.iter().map(|w| w.count_ones() as usize).sum::<usize>()
    }

    /// The span of the words holding bits of `self ∖ other`, found by
    /// scanning inward from both ends (words beyond the end of `other`
    /// count as empty); [`WordSpan::EMPTY`] if `self ⊆ other`.
    pub fn difference_span(&self, other: &FixedBitSet) -> WordSpan {
        let left = |i: usize| self.word(i) & !other.word(i);
        let Some(first) = (0..self.words.len()).find(|&i| left(i) != 0) else {
            return WordSpan::EMPTY;
        };
        let last = (first..self.words.len())
            .rfind(|&i| left(i) != 0)
            .unwrap_or(first);
        WordSpan {
            lo: first as u32,
            hi: last as u32 + 1,
        }
    }

    /// Word `i`, zero past the end.
    fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// Iterates over `self ∩ other` within the words of `span`, ascending,
    /// without materializing it (words beyond the shorter set count as
    /// empty).
    pub fn intersection_iter_in<'a>(
        &'a self,
        other: &'a FixedBitSet,
        span: WordSpan,
    ) -> Intersection<'a> {
        let (a, b) = (self.words_in(span), other.words_in(span));
        Intersection {
            a,
            b,
            first_bit: span.lo as usize * 64,
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
        let words = self.words_in(span);
        let Some(first) = words.iter().position(|&w| w != 0) else {
            return WordSpan::EMPTY;
        };
        let last = words.iter().rposition(|&w| w != 0).unwrap_or(first);
        WordSpan {
            lo: span.lo + first as u32,
            hi: span.lo + last as u32 + 1,
        }
    }

    /// The packed words: bit `i` is bit `i % 64` of word `i / 64`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// The words inside `span`, clamped to the set's length.
    fn words_in(&self, span: WordSpan) -> &[u64] {
        let hi = (span.hi as usize).min(self.words.len());
        self.words.get(span.lo as usize..hi).unwrap_or_default()
    }

    fn words_in_mut(&mut self, span: WordSpan) -> &mut [u64] {
        let hi = (span.hi as usize).min(self.words.len());
        self.words.get_mut(span.lo as usize..hi).unwrap_or_default()
    }

    /// Iterates over set bits in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        self.iter_in(WordSpan::ALL)
    }

    /// Iterates over the set bits inside the words of `span`, ascending.
    pub fn iter_in(&self, span: WordSpan) -> Iter<'_> {
        let words = self.words_in(span);
        Iter {
            words,
            first_bit: span.lo as usize * 64,
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
