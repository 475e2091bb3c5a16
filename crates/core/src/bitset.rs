//! Fixed-capacity bitsets over a ground universe `[n] = {0, …, n-1}`.
//!
//! Every object in the paper — the sets `S_i`, `T_i`, the universe remainder
//! `U`, sampled element sets `U_smpl` — is a subset of a fixed universe, so a
//! word-packed bitset is the natural substrate. All set algebra used by the
//! solvers and the hard-distribution samplers lives here.

use std::fmt;

/// Number of bits in one storage word.
const WORD_BITS: usize = 64;

/// A subset of the fixed universe `{0, …, capacity-1}`, packed into `u64`
/// words.
///
/// The capacity is fixed at construction; all binary operations require both
/// operands to share a capacity (enforced with a panic, since mixing
/// universes is always a logic error in this codebase).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty subset of `{0, …, capacity-1}`.
    pub fn new(capacity: usize) -> Self {
        let nwords = capacity.div_ceil(WORD_BITS);
        BitSet {
            words: vec![0; nwords],
            capacity,
        }
    }

    /// Creates the full set `{0, …, capacity-1}`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// Creates a set from an iterator of elements.
    ///
    /// # Panics
    /// Panics if any element is `>= capacity`.
    pub fn from_iter(capacity: usize, elems: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::new(capacity);
        for e in elems {
            s.insert(e);
        }
        s
    }

    /// Creates a set over `[capacity]` from a pre-packed word slab (used by
    /// the dense arena backend of `SetStore`).
    ///
    /// # Panics
    /// Panics if `words` is not exactly `⌈capacity/64⌉` long.
    pub fn from_words(capacity: usize, words: &[u64]) -> Self {
        assert_eq!(
            words.len(),
            capacity.div_ceil(WORD_BITS),
            "word slab length mismatch for capacity {capacity}"
        );
        let mut s = BitSet {
            words: words.to_vec(),
            capacity,
        };
        s.trim();
        s
    }

    /// The packed word slab (dense kernel interface).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable packed word slab, for in-place dense kernels.
    ///
    /// Bits at positions `>= capacity` must be left zero.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// The universe size this set lives in.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Zeroes any bits at positions `>= capacity` (they must stay zero for
    /// `len`/`is_full`/equality to be correct).
    #[inline]
    fn trim(&mut self) {
        let rem = self.capacity % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Inserts element `e`. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `e >= capacity`.
    #[inline]
    pub fn insert(&mut self, e: usize) -> bool {
        assert!(
            e < self.capacity,
            "element {e} out of universe [{}]",
            self.capacity
        );
        let (w, b) = (e / WORD_BITS, e % WORD_BITS);
        let mask = 1u64 << b;
        let was = self.words[w] & mask != 0;
        self.words[w] |= mask;
        !was
    }

    /// Removes element `e`. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, e: usize) -> bool {
        assert!(
            e < self.capacity,
            "element {e} out of universe [{}]",
            self.capacity
        );
        let (w, b) = (e / WORD_BITS, e % WORD_BITS);
        let mask = 1u64 << b;
        let was = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, e: usize) -> bool {
        if e >= self.capacity {
            return false;
        }
        let (w, b) = (e / WORD_BITS, e % WORD_BITS);
        self.words[w] & (1u64 << b) != 0
    }

    /// Number of elements in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the set equals the whole universe.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    #[inline]
    fn assert_compat(&self, other: &Self) {
        assert_eq!(
            self.capacity, other.capacity,
            "bitset universe mismatch: {} vs {}",
            self.capacity, other.capacity
        );
    }

    /// In-place union: `self ∪= other`.
    pub fn union_with(&mut self, other: &Self) {
        self.assert_compat(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ∩= other`.
    pub fn intersect_with(&mut self, other: &Self) {
        self.assert_compat(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference: `self \= other`.
    pub fn difference_with(&mut self, other: &Self) {
        self.assert_compat(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// In-place symmetric difference: `self Δ= other`.
    pub fn symmetric_difference_with(&mut self, other: &Self) {
        self.assert_compat(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Returns `self ∪ other` as a new set.
    pub fn union(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns `self ∩ other` as a new set.
    pub fn intersection(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns `self \ other` as a new set.
    pub fn difference(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// Returns the complement `[capacity] \ self`.
    pub fn complement(&self) -> Self {
        let mut s = self.clone();
        for w in &mut s.words {
            *w = !*w;
        }
        s.trim();
        s
    }

    /// `|self ∩ other|` without allocating.
    pub fn intersection_len(&self, other: &Self) -> usize {
        self.assert_compat(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `|self ∪ other|` without allocating.
    pub fn union_len(&self, other: &Self) -> usize {
        self.assert_compat(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// `|self \ other|` without allocating.
    pub fn difference_len(&self, other: &Self) -> usize {
        self.assert_compat(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Hamming distance `Δ(self, other) = |self Δ other|` (used by GHD).
    pub fn hamming_distance(&self, other: &Self) -> usize {
        self.assert_compat(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Whether `self ∩ other = ∅` (the Disj predicate).
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.assert_compat(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &Self) -> bool {
        self.assert_compat(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Collects the elements into a `Vec`.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Number of bits of memory an algorithm is charged for storing this set
    /// *explicitly as a member list* (`len · ⌈log₂ n⌉` bits), the accounting
    /// convention used for streaming algorithms in the paper.
    pub fn stored_bits_sparse(&self) -> u64 {
        let logn = usize::BITS - (self.capacity.max(2) - 1).leading_zeros();
        self.len() as u64 * logn as u64
    }

    /// Number of bits for storing this set as a packed bitmap (`n` bits).
    pub fn stored_bits_dense(&self) -> u64 {
        self.capacity as u64
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + bit)
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSet[{}]{{", self.capacity)?;
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
            if i > 32 {
                write!(f, ",…")?;
                break;
            }
        }
        write!(f, "}}")
    }
}

/// Samples a uniformly random `size`-subset of `{0,…,capacity-1}` using
/// Floyd's algorithm (O(size) expected insertions).
pub fn random_subset<R: rand::Rng + ?Sized>(rng: &mut R, capacity: usize, size: usize) -> BitSet {
    BitSet::from_iter(
        capacity,
        random_subset_elems(rng, capacity, size)
            .into_iter()
            .map(|e| e as usize),
    )
}

/// Bitmap words per sampled element up to which [`random_subset_elems`]
/// samples on a word bitmap rather than a hash set.
const SAMPLE_BITMAP_WORDS_PER_ELEM: usize = 16;

/// [`random_subset`] as a sorted `u32` element list — the allocation-light
/// emitter the sparse arena builder consumes directly.
///
/// Floyd's sampler runs on a word bitmap, emitted sorted by a word scan,
/// unless the universe is so sparse in the sample that a bitmap would cost
/// more than 16 words per element; then it runs on a hash set and sorts. Both make the same RNG draws, so the
/// output depends only on the RNG state.
pub fn random_subset_elems<R: rand::Rng + ?Sized>(
    rng: &mut R,
    capacity: usize,
    size: usize,
) -> Vec<u32> {
    assert!(
        size <= capacity,
        "cannot sample {size}-subset of [{capacity}]"
    );
    // Floyd's sampling: for j = capacity-size .. capacity-1, insert a random
    // element of [0, j]; on collision insert j itself.
    let draws = (capacity - size)..capacity;
    if capacity.div_ceil(WORD_BITS) <= SAMPLE_BITMAP_WORDS_PER_ELEM * size {
        let mut s = BitSet::new(capacity);
        for j in draws {
            if !s.insert(rng.gen_range(0..=j)) {
                s.insert(j);
            }
        }
        let mut v = Vec::with_capacity(size);
        v.extend(s.iter().map(|e| e as u32));
        return v;
    }
    let mut s: std::collections::HashSet<usize> = std::collections::HashSet::with_capacity(size);
    for j in draws {
        if !s.insert(rng.gen_range(0..=j)) {
            s.insert(j);
        }
    }
    let mut v: Vec<u32> = s.into_iter().map(|e| e as u32).collect();
    v.sort_unstable();
    v
}

/// Samples a subset of `{0,…,capacity-1}` including each element
/// independently with probability `p` (the element-sampling primitive of
/// Algorithm 1, step 3a).
pub fn bernoulli_subset<R: rand::Rng + ?Sized>(rng: &mut R, capacity: usize, p: f64) -> BitSet {
    if p >= 1.0 {
        return BitSet::full(capacity);
    }
    BitSet::from_iter(
        capacity,
        bernoulli_elems(rng, capacity, p)
            .into_iter()
            .map(|e| e as usize),
    )
}

/// [`bernoulli_subset`] as a sorted `u32` element list.
pub fn bernoulli_elems<R: rand::Rng + ?Sized>(rng: &mut R, capacity: usize, p: f64) -> Vec<u32> {
    if p <= 0.0 {
        return Vec::new();
    }
    if p >= 1.0 {
        return (0..capacity as u32).collect();
    }
    let mut v = Vec::new();
    for e in 0..capacity {
        if rng.gen_bool(p) {
            v.push(e as u32);
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The hash-set-only sampler `random_subset_elems` replaced: the
    /// reference its output must match draw for draw.
    fn random_subset_elems_hashed<R: rand::Rng + ?Sized>(
        rng: &mut R,
        capacity: usize,
        size: usize,
    ) -> Vec<u32> {
        let mut s = std::collections::HashSet::with_capacity(size);
        for j in (capacity - size)..capacity {
            let x = rng.gen_range(0..=j);
            if !s.insert(x) {
                s.insert(j);
            }
        }
        let mut v: Vec<u32> = s.into_iter().map(|e| e as u32).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn subset_sampler_matches_hashed_reference() {
        let mut pick = StdRng::seed_from_u64(8);
        let mut cases: Vec<(usize, usize)> = vec![(0, 0), (1, 0), (1, 1), (64, 64), (4096, 0)];
        for _ in 0..300 {
            // Up to 2^21 with small samples reaches the hash-set path.
            let capacity = match pick.gen_range(0u32..3) {
                0 => pick.gen_range(1usize..200),
                1 => pick.gen_range(1usize..5_000),
                _ => pick.gen_range(1usize..1 << 21),
            };
            let size = match pick.gen_range(0u32..4) {
                0 => 0,
                1 => capacity.min(5_000),
                2 => pick.gen_range(0..=capacity.min(8)),
                _ => pick.gen_range(0..=capacity.min(1_000)),
            };
            cases.push((capacity, size));
        }
        for (t, &(capacity, size)) in cases.iter().enumerate() {
            let mut a = StdRng::seed_from_u64(t as u64);
            let mut b = StdRng::seed_from_u64(t as u64);
            let got = random_subset_elems(&mut a, capacity, size);
            let want = random_subset_elems_hashed(&mut b, capacity, size);
            assert_eq!(got, want, "capacity {capacity} size {size}");
            // Same draws: both generators end in the same state.
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "capacity {capacity}");
        }
    }

    #[test]
    fn new_is_empty() {
        let s = BitSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.capacity(), 100);
    }

    #[test]
    fn full_has_all() {
        for n in [1, 63, 64, 65, 128, 130] {
            let s = BitSet::full(n);
            assert_eq!(s.len(), n, "capacity {n}");
            assert!(s.is_full());
            assert!((0..n).all(|e| s.contains(e)));
        }
    }

    #[test]
    fn zero_capacity_is_degenerate_but_safe() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(s.is_full()); // vacuously: len == capacity == 0
        assert_eq!(s.iter().count(), 0);
        let f = BitSet::full(0);
        assert_eq!(s, f);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64)); // duplicate
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::full(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
    }

    #[test]
    fn set_algebra_small() {
        let a = BitSet::from_iter(10, [1, 2, 3, 4]);
        let b = BitSet::from_iter(10, [3, 4, 5, 6]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(a.intersection(&b).to_vec(), vec![3, 4]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 2]);
        assert_eq!(a.union_len(&b), 6);
        assert_eq!(a.intersection_len(&b), 2);
        assert_eq!(a.difference_len(&b), 2);
        assert_eq!(a.hamming_distance(&b), 4);
        assert!(!a.is_disjoint(&b));
        assert!(a.is_disjoint(&BitSet::from_iter(10, [7, 8])));
    }

    #[test]
    fn complement_roundtrip() {
        let a = BitSet::from_iter(70, [0, 69, 33]);
        let c = a.complement();
        assert_eq!(c.len(), 67);
        assert!(!c.contains(69));
        assert_eq!(c.complement(), a);
        // complement must not leak bits beyond capacity
        assert_eq!(a.union(&c), BitSet::full(70));
    }

    #[test]
    fn subset_relation() {
        let a = BitSet::from_iter(20, [1, 2]);
        let b = BitSet::from_iter(20, [1, 2, 3]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(BitSet::new(20).is_subset_of(&a));
    }

    #[test]
    fn iter_order_and_boundaries() {
        let elems = [0usize, 63, 64, 127, 128, 191];
        let s = BitSet::from_iter(192, elems);
        assert_eq!(s.to_vec(), elems.to_vec());
        assert_eq!(s.first(), Some(0));
    }

    #[test]
    fn random_subset_has_exact_size() {
        let mut rng = StdRng::seed_from_u64(7);
        for size in [0, 1, 10, 100, 256] {
            let s = random_subset(&mut rng, 256, size);
            assert_eq!(s.len(), size);
        }
    }

    #[test]
    fn random_subset_is_roughly_uniform() {
        // Each element should appear in ≈ trials·size/n samples.
        let mut rng = StdRng::seed_from_u64(42);
        let (n, size, trials) = (64, 16, 4000);
        let mut counts = vec![0u32; n];
        for _ in 0..trials {
            for e in random_subset(&mut rng, n, size).iter() {
                counts[e] += 1;
            }
        }
        let expected = trials as f64 * size as f64 / n as f64; // = 1000
        for (e, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < expected * 0.25,
                "element {e} appeared {c} times, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn bernoulli_subset_edge_probabilities() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(bernoulli_subset(&mut rng, 100, 0.0).is_empty());
        assert!(bernoulli_subset(&mut rng, 100, 1.0).is_full());
        let s = bernoulli_subset(&mut rng, 10_000, 0.3);
        let frac = s.len() as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.05, "got {frac}");
    }

    #[test]
    fn stored_bits_accounting() {
        let s = BitSet::from_iter(1024, [0, 1, 2, 3]);
        // ⌈log₂ 1024⌉ = 10 bits per element.
        assert_eq!(s.stored_bits_sparse(), 40);
        assert_eq!(s.stored_bits_dense(), 1024);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mixed_capacity_panics() {
        let a = BitSet::new(10);
        let b = BitSet::new(11);
        a.union_len(&b);
    }
}
