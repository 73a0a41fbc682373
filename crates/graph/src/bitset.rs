//! A fixed-capacity bit set over `u32` indices.
//!
//! Transitive-closure rows, reachability frontiers, and uncovered-connection
//! sets in the 2-hop cover builder are all dense subsets of a known node
//! universe, which makes a word-packed bit set the natural representation.
//! The closure of a partition is bounded by the partitioner (paper §4.3)
//! precisely so that these rows fit in memory.

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

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self |= other`. Returns the number of *newly set* bits, which lets the
    /// incremental closure track its connection count without re-counting.
    pub fn union_with_count(&mut self, other: &FixedBitSet) -> usize {
        debug_assert!(other.words.len() <= self.words.len());
        let mut added = 0;
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            let new = *a | b;
            added += (new ^ *a).count_ones() as usize;
            *a = new;
        }
        added
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &FixedBitSet) {
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
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
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
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
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates over `self ∩ other` in ascending order without
    /// materializing it (words beyond the shorter set count as empty).
    pub fn intersection_iter<'a>(&'a self, other: &'a FixedBitSet) -> Intersection<'a> {
        Intersection {
            a: &self.words,
            b: &other.words,
            word_idx: 0,
            current: match (self.words.first(), other.words.first()) {
                (Some(&a), Some(&b)) => a & b,
                _ => 0,
            },
        }
    }

    /// Iterates over set bits in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
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
        Some((self.word_idx * 64) as u32 + bit)
    }
}

/// Iterator over the bits set in both of two [`FixedBitSet`]s.
pub struct Intersection<'a> {
    a: &'a [u64],
    b: &'a [u64],
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
        Some((self.word_idx * 64) as u32 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(a.union_with_count(&b), 1);
        assert_eq!(a.count(), 3);
        assert_eq!(a.union_with_count(&b), 0);
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
            a.intersection_iter(&b).collect::<Vec<_>>(),
            vec![5, 64, 199]
        );
        assert_eq!(
            b.intersection_iter(&a).collect::<Vec<_>>(),
            vec![5, 64, 199]
        );
        let mut c = a.clone();
        c.intersect_with(&b);
        assert_eq!(a.intersection_iter(&b).collect::<Vec<_>>(), c.to_vec());
        let empty = FixedBitSet::new(0);
        assert_eq!(a.intersection_iter(&empty).count(), 0);
        assert_eq!(empty.intersection_iter(&a).count(), 0);
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
