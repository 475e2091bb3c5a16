//! The hybrid sparse/dense/compressed set storage engine.
//!
//! The paper's own regime — `m` sets of size `≈ n^{1/α}` over a large
//! universe — makes a dense `Θ(m·n)`-bit `Vec<BitSet>` layout the wrong
//! substrate: almost every set is tiny. This module stores a whole set
//! system in one contiguous CSR-style arena ([`SetStore`]) where each set is
//! kept in one of four backends ([`SetRepr`]):
//!
//! * **Sparse** — a sorted `u32` element list (`|S|·32` bits of arena, and
//!   `|S|·⌈log₂ n⌉` bits under the paper's accounting);
//! * **Dense** — the classic word-packed bitmap (`n` bits);
//! * **Chunked** — Roaring-style 2^16-element containers, each
//!   independently array- / bitmap- / run-encoded, with 128-bit container
//!   descriptors in the `u32` arena (bitmap payloads live in the `u64`
//!   arena); charged at its *measured* encoded size;
//! * **EliasFano** — the monotone-list encoding (a low-bits array plus a
//!   unary high-bits bitmap, `≈ |S|·(2 + log₂(n/|S|))` bits), also charged
//!   at its measured size.
//!
//! The backend is chosen per set at insertion time by a [`ReprPolicy`]; the
//! default `Auto` cutover picks the cheapest of the four — the paper's
//! modeled cost for Sparse/Dense (`|S|·⌈log₂ n⌉` vs `n`) and the measured
//! encoded size for Chunked/EliasFano — so the stored layout *is* the cost
//! model the `SpaceMeter` charges.
//!
//! Reads go through [`SetRef`], a `Copy` borrowed view with the full set
//! algebra. Binary operations dispatch to kernels specialized per
//! representation pair: merge-walks for sparse×sparse, word ops for
//! dense×dense, probes for the mixed cases, container-aligned AND-popcounts
//! for chunked pairs, and block-decoded probes for Elias–Fano against word
//! slabs; the rare cold pairs (e.g. chunked × Elias–Fano) decode to a
//! scratch list and reuse the sparse kernels.
//!
//! Deletion is tombstoning ([`SetStore::remove`]): the slot reads as empty
//! while its arena bytes remain resident — and remain *charged* by
//! [`SetStore::stored_bits`] — until [`SetStore::compact`] rebuilds the
//! arenas, drops the garbage, and renumbers the survivors through a
//! [`CompactionMap`].

use crate::bitset::BitSet;
use crate::ceil_log2;
use std::fmt;

/// Storage backend of one set inside a [`SetStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SetRepr {
    /// Sorted `u32` element list.
    Sparse,
    /// Word-packed bitmap over the universe.
    Dense,
    /// Roaring-style 2^16-element containers (array / bitmap / run encoded
    /// per container), measured bit accounting.
    Chunked,
    /// Elias–Fano monotone-list encoding (low-bits array + unary high-bits
    /// bitmap), measured bit accounting.
    EliasFano,
}

/// How a [`SetStore`] chooses the representation of an inserted set.
///
/// `Auto` is a measured argmin over all four backends, so forcing a
/// representation can never beat it on stored bits — and the choice
/// never changes what readers see:
///
/// ```
/// use streamcover_core::{ReprPolicy, SetRepr, SetStore};
///
/// let policies = [
///     ReprPolicy::ForceSparse,
///     ReprPolicy::ForceDense,
///     ReprPolicy::ForceChunked,
///     ReprPolicy::ForceEliasFano,
/// ];
/// // A run-structured set over a 2^20 universe: two contiguous episodes.
/// let runs = [(4_096u32, 2_000u32), (700_000, 3_000)];
/// let mut bits = Vec::new();
/// for policy in policies {
///     let mut st = SetStore::with_policy(1 << 20, policy);
///     st.push_runs(&runs);
///     assert_eq!(st.get(0).len(), 5_000);               // same logical set
///     assert!(st.get(0).contains(4_096) && !st.get(0).contains(4_095));
///     bits.push(st.get(0).stored_bits());
/// }
/// let mut auto = SetStore::with_policy(1 << 20, ReprPolicy::Auto);
/// auto.push_runs(&runs);
/// // Runs compress: the measured argmin picks Chunked run containers
/// // (a few hundred bits) over the 100 KiB sparse list / 1 Mib bitmap.
/// assert_eq!(auto.get(0).repr(), SetRepr::Chunked);
/// assert!(bits.iter().all(|&b| auto.get(0).stored_bits() <= b));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReprPolicy {
    /// Pick the cheapest representation under the store's bit accounting:
    /// the modeled `|S|·⌈log₂ n⌉` (sparse) vs `n` (dense) costs of the
    /// paper, against the *measured* encoded sizes of the compressed
    /// backends (Chunked container sum, Elias–Fano word count). Ties break
    /// deterministically Sparse ≺ Dense ≺ Chunked ≺ EliasFano, so a layout
    /// is a pure function of the inserted set.
    #[default]
    Auto,
    /// Always store sorted element lists (testing / ablation).
    ForceSparse,
    /// Always store bitmaps (the pre-refactor layout; testing / ablation).
    ForceDense,
    /// Always store Roaring-style containers (testing / ablation).
    ForceChunked,
    /// Always store Elias–Fano encodings (testing / ablation).
    ForceEliasFano,
}

impl ReprPolicy {
    /// The representation this policy assigns to a set of `len` elements
    /// over `[universe]`, judged on cardinality alone: `Auto` here compares
    /// the sparse/dense models with the (cardinality-determined) Elias–Fano
    /// size. The Chunked candidate depends on the element *distribution*,
    /// so the store's push paths refine this decision with the measured
    /// container cost; `choose` is the distribution-blind planning rule.
    #[inline]
    pub fn choose(self, len: usize, universe: usize) -> SetRepr {
        self.choose_measured(len, universe, u64::MAX)
    }

    /// The full `Auto` cutover: like [`choose`](Self::choose) but with the
    /// measured Chunked encoding cost supplied by the caller.
    #[inline]
    fn choose_measured(self, len: usize, universe: usize, chunked_bits: u64) -> SetRepr {
        match self {
            ReprPolicy::ForceSparse => SetRepr::Sparse,
            ReprPolicy::ForceDense => SetRepr::Dense,
            ReprPolicy::ForceChunked => SetRepr::Chunked,
            ReprPolicy::ForceEliasFano => SetRepr::EliasFano,
            ReprPolicy::Auto => {
                let logn = u64::from(ceil_log2(universe.max(2)));
                // argmin with the documented deterministic tie-break order.
                let mut best = (len as u64 * logn, SetRepr::Sparse);
                if (universe as u64) < best.0 {
                    best = (universe as u64, SetRepr::Dense);
                }
                if chunked_bits < best.0 {
                    best = (chunked_bits, SetRepr::Chunked);
                }
                if ef_cost_bits(universe, len) < best.0 {
                    best = (ef_cost_bits(universe, len), SetRepr::EliasFano);
                }
                best.1
            }
        }
    }
}

/// Per-set descriptor: which arena(s), where, and the cached cardinality.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SetDesc {
    repr: SetRepr,
    /// Primary arena offset: `sparse` (elements) for Sparse, `dense`
    /// (words) for Dense and EliasFano, container metadata start in
    /// `sparse` for Chunked.
    off: usize,
    /// Number of elements in the set.
    card: usize,
    /// Chunked only: offset of this set's bitmap-container payload block in
    /// the `dense` arena.
    off2: usize,
    /// Chunked only: number of containers.
    aux: usize,
    /// Chunked only: `u32` payload words following the container metadata.
    len32: usize,
    /// Chunked: `u64` payload words at `off2`. EliasFano: total words
    /// (high + low) at `off`.
    len64: usize,
}

impl SetDesc {
    /// The all-zero empty sparse descriptor tombstoned slots read as.
    const EMPTY: SetDesc = SetDesc::sparse(0, 0);

    const fn sparse(off: usize, card: usize) -> SetDesc {
        SetDesc {
            repr: SetRepr::Sparse,
            off,
            card,
            off2: 0,
            aux: 0,
            len32: 0,
            len64: 0,
        }
    }

    const fn dense(off: usize, card: usize) -> SetDesc {
        SetDesc {
            repr: SetRepr::Dense,
            off,
            card,
            off2: 0,
            aux: 0,
            len32: 0,
            len64: 0,
        }
    }

    const fn elias_fano(off: usize, card: usize, len64: usize) -> SetDesc {
        SetDesc {
            repr: SetRepr::EliasFano,
            off,
            card,
            off2: 0,
            aux: 0,
            len32: 0,
            len64,
        }
    }
}

/// A contiguous CSR-style arena holding every set of a system.
///
/// Instead of one heap allocation per set (`Vec<BitSet>`), all sparse
/// element lists share one `Vec<u32>` and all dense bitmaps share one
/// `Vec<u64>`; a set is a descriptor `(repr, offset, cardinality)`.
/// Construction, iteration and cloning therefore touch two flat buffers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetStore {
    universe: usize,
    words_per_set: usize,
    policy: ReprPolicy,
    descs: Vec<SetDesc>,
    sparse: Vec<u32>,
    dense: Vec<u64>,
    /// Tombstone flag per descriptor (aligned with `descs`): `true` means
    /// the slot was [`remove`](Self::remove)d — it reads as empty but its
    /// arena bytes are still resident until [`compact`](Self::compact).
    tombstones: Vec<bool>,
    /// Paper-accounting bits of the tombstoned descriptors' *original*
    /// representations, charged by [`stored_bits`](Self::stored_bits)
    /// until compaction reclaims the arena.
    tombstone_bits: u64,
    /// Accounting bits of all *live* descriptors, maintained incrementally
    /// on push/remove so [`stored_bits`](Self::stored_bits) and
    /// [`live_ratio`](Self::live_ratio) are O(1) instead of an O(m) rescan.
    live_bits: u64,
}

impl SetStore {
    /// An empty store over `[universe]` with the [`ReprPolicy::Auto`]
    /// cutover.
    pub fn new(universe: usize) -> Self {
        Self::with_policy(universe, ReprPolicy::Auto)
    }

    /// An empty store with an explicit representation policy.
    pub fn with_policy(universe: usize, policy: ReprPolicy) -> Self {
        SetStore {
            universe,
            words_per_set: universe.div_ceil(64),
            policy,
            descs: Vec::new(),
            sparse: Vec::new(),
            dense: Vec::new(),
            tombstones: Vec::new(),
            tombstone_bits: 0,
            live_bits: 0,
        }
    }

    /// Universe size `n`.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of sets stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// Whether the store holds no sets.
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    /// The insertion policy.
    pub fn policy(&self) -> ReprPolicy {
        self.policy
    }

    /// Counts of stored representations, indexed
    /// `[sparse, dense, chunked, elias_fano]`.
    pub fn repr_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for d in &self.descs {
            counts[match d.repr {
                SetRepr::Sparse => 0,
                SetRepr::Dense => 1,
                SetRepr::Chunked => 2,
                SetRepr::EliasFano => 3,
            }] += 1;
        }
        counts
    }

    /// Appends a set given as a strictly increasing element list.
    ///
    /// # Panics
    /// Panics if any element is `>= universe` or the list is not strictly
    /// increasing.
    pub fn push_sorted(&mut self, elems: &[u32]) -> usize {
        // Both checks are real asserts: together they bound every element
        // (strictly increasing + last in range ⇒ all in range), and an
        // unsorted or out-of-universe list would otherwise corrupt the
        // merge kernels far from the cause. O(|S|), like the copy itself.
        assert!(
            elems.windows(2).all(|w| w[0] < w[1]),
            "push_sorted requires strictly increasing elements"
        );
        if let Some(&last) = elems.last() {
            assert!(
                (last as usize) < self.universe,
                "element {last} out of universe [{}]",
                self.universe
            );
        }
        // Only the policies that need the measured container cost (Auto's
        // argmin, or an actual Chunked encode) pay for the run scan.
        let repr = match self.policy {
            ReprPolicy::Auto | ReprPolicy::ForceChunked => {
                let runs = runs_from_sorted(elems);
                let chunked_bits = chunked_cost_bits(&runs, self.universe);
                let repr = self
                    .policy
                    .choose_measured(elems.len(), self.universe, chunked_bits);
                if repr == SetRepr::Chunked {
                    let desc = self.encode_chunked(elems.len(), &runs);
                    return self.push_desc(desc);
                }
                repr
            }
            p => p.choose(elems.len(), self.universe),
        };
        let desc = match repr {
            SetRepr::Sparse => {
                let off = self.sparse.len();
                self.sparse.extend_from_slice(elems);
                SetDesc::sparse(off, elems.len())
            }
            SetRepr::Dense => {
                let off = self.dense.len();
                self.dense.resize(off + self.words_per_set, 0);
                let words = &mut self.dense[off..];
                for &e in elems {
                    words[e as usize / 64] |= 1u64 << (e % 64);
                }
                SetDesc::dense(off, elems.len())
            }
            SetRepr::EliasFano => self.encode_ef(elems.len(), elems.iter().copied()),
            SetRepr::Chunked => unreachable!("Chunked is encoded above"),
        };
        self.push_desc(desc)
    }

    /// Appends a set given as an arbitrary element iterator (sorted and
    /// deduplicated internally).
    pub fn push_elems(&mut self, elems: impl IntoIterator<Item = usize>) -> usize {
        let mut v: Vec<u32> = elems.into_iter().map(|e| e as u32).collect();
        v.sort_unstable();
        v.dedup();
        self.push_sorted(&v)
    }

    /// Appends a copy of a [`BitSet`], choosing the representation by
    /// policy.
    ///
    /// # Panics
    /// Panics if the bitset's capacity differs from the store's universe.
    pub fn push_bitset(&mut self, set: &BitSet) -> usize {
        assert_eq!(
            set.capacity(),
            self.universe,
            "set universe mismatch: {} vs {}",
            set.capacity(),
            self.universe
        );
        let card = set.len();
        let repr = match self.policy {
            ReprPolicy::Auto | ReprPolicy::ForceChunked => {
                let runs = runs_from_words(set.words());
                let chunked_bits = chunked_cost_bits(&runs, self.universe);
                let repr = self
                    .policy
                    .choose_measured(card, self.universe, chunked_bits);
                if repr == SetRepr::Chunked {
                    let desc = self.encode_chunked(card, &runs);
                    return self.push_desc(desc);
                }
                repr
            }
            p => p.choose(card, self.universe),
        };
        let desc = match repr {
            SetRepr::Sparse => {
                let off = self.sparse.len();
                self.sparse.extend(set.iter().map(|e| e as u32));
                SetDesc::sparse(off, card)
            }
            SetRepr::Dense => {
                let off = self.dense.len();
                self.dense.extend_from_slice(set.words());
                debug_assert_eq!(self.dense.len() - off, self.words_per_set);
                SetDesc::dense(off, card)
            }
            SetRepr::EliasFano => self.encode_ef(card, set.iter().map(|e| e as u32)),
            SetRepr::Chunked => unreachable!("Chunked is encoded above"),
        };
        self.push_desc(desc)
    }

    /// Appends a set given as sorted, non-overlapping `(start, len)` runs of
    /// consecutive elements — the closed-form ingestion path for
    /// run-structured catalogs (episode blocks, planted partitions) and the
    /// `universe_2_30` demo: the representation decision and the Chunked /
    /// Dense / Elias–Fano encodings all stream straight off the runs, so a
    /// multi-million-element set never materializes an element list unless
    /// it is actually *stored* sparse. Adjacent runs are merged to the
    /// canonical form, so pushing runs and pushing the equivalent element
    /// list choose identical layouts.
    ///
    /// # Panics
    /// Panics if a run is empty, runs overlap or are out of order, or an
    /// element would fall outside the universe.
    pub fn push_runs(&mut self, runs: &[(u32, u32)]) -> usize {
        let mut clipped: Vec<(u32, u32)> = Vec::with_capacity(runs.len());
        let mut prev_end: u64 = 0;
        for &(start, len) in runs {
            assert!(len > 0, "push_runs: empty run at {start}");
            assert!(
                u64::from(start) >= prev_end,
                "push_runs: run {start}+{len} overlaps or precedes its predecessor"
            );
            assert!(
                u64::from(start) + u64::from(len) <= self.universe as u64,
                "push_runs: run {start}+{len} out of universe [{}]",
                self.universe
            );
            // Merge adjacency, then split at chunk boundaries so every
            // clipped run lives inside one 2^16-element chunk (the
            // canonical form runs_from_sorted produces).
            let (mut s, mut rem) = (start, len);
            if let Some(last) = clipped.last_mut() {
                if u64::from(last.0) + u64::from(last.1) == u64::from(s)
                    && s & CHUNK_MASK as u32 != 0
                {
                    let take = rem.min(CHUNK as u32 - (s & CHUNK_MASK as u32));
                    last.1 += take;
                    s += take;
                    rem -= take;
                }
            }
            while rem > 0 {
                let take = rem.min(CHUNK as u32 - (s & CHUNK_MASK as u32));
                clipped.push((s, take));
                s += take;
                rem -= take;
            }
            prev_end = u64::from(start) + u64::from(len);
        }
        let card: usize = clipped.iter().map(|&(_, l)| l as usize).sum();
        let run_elems = || clipped.iter().flat_map(|&(s, l)| s..s + l);
        let chunked_bits = chunked_cost_bits(&clipped, self.universe);
        let desc = match self
            .policy
            .choose_measured(card, self.universe, chunked_bits)
        {
            SetRepr::Chunked => self.encode_chunked(card, &clipped),
            SetRepr::EliasFano => self.encode_ef(card, run_elems()),
            SetRepr::Sparse => {
                let off = self.sparse.len();
                self.sparse.extend(run_elems());
                SetDesc::sparse(off, card)
            }
            SetRepr::Dense => {
                let off = self.dense.len();
                self.dense.resize(off + self.words_per_set, 0);
                for &(s, l) in &clipped {
                    set_bit_range(&mut self.dense[off..], s as usize, (s + l) as usize);
                }
                SetDesc::dense(off, card)
            }
        };
        self.push_desc(desc)
    }

    /// Encodes a set (given as chunk-clipped runs) as Roaring-style
    /// containers appended to the arenas: 4 `u32` metadata words per
    /// container (`[key, tag|nruns«8, card, payload offset]`) followed by
    /// the `u32` payloads (packed `u16` arrays, `(start, len-1)` run pairs),
    /// with bitmap payloads in the `u64` arena. Payload offsets are
    /// *relative* to the set's own payload blocks, so `push_ref`/`compact`
    /// copy a chunked set as two verbatim arena ranges.
    fn encode_chunked(&mut self, card: usize, clipped: &[(u32, u32)]) -> SetDesc {
        let off = self.sparse.len();
        let off2 = self.dense.len();
        // Group boundaries: clipped runs are sorted, so each chunk's runs
        // are one contiguous slice.
        let mut groups: Vec<(usize, usize)> = Vec::new();
        let mut g_start = 0usize;
        for i in 1..clipped.len() {
            if clipped[i].0 >> CHUNK_BITS != clipped[g_start].0 >> CHUNK_BITS {
                groups.push((g_start, i));
                g_start = i;
            }
        }
        if !clipped.is_empty() {
            groups.push((g_start, clipped.len()));
        }
        let nc = groups.len();
        self.sparse.resize(off + CONTAINER_META * nc, 0);
        let payload32 = off + CONTAINER_META * nc;
        for (g, &(gs, ge)) in groups.iter().enumerate() {
            let group = &clipped[gs..ge];
            let key = group[0].0 >> CHUNK_BITS;
            let base = (key as usize) << CHUNK_BITS;
            let gcard: usize = group.iter().map(|&(_, l)| l as usize).sum();
            let (tag, _) = container_choice(group, self.universe, key);
            let (tagw, rel) = match tag {
                TAG_ARRAY => {
                    let rel = self.sparse.len() - payload32;
                    let start = self.sparse.len();
                    self.sparse.resize(start + gcard.div_ceil(2), 0);
                    let mut i = 0usize;
                    for &(s, l) in group {
                        for e in s..s + l {
                            let local = e - base as u32;
                            self.sparse[start + i / 2] |= local << ((i % 2) * 16);
                            i += 1;
                        }
                    }
                    (TAG_ARRAY, rel)
                }
                TAG_RUNS => {
                    let rel = self.sparse.len() - payload32;
                    for &(s, l) in group {
                        self.sparse.push((s - base as u32) | (l - 1) << 16);
                    }
                    (TAG_RUNS | (group.len() as u32) << 8, rel)
                }
                _ => {
                    let rel = self.dense.len() - off2;
                    let start = self.dense.len();
                    self.dense
                        .resize(start + chunk_span_words(self.universe, key), 0);
                    for &(s, l) in group {
                        let lo = s as usize - base;
                        set_bit_range(&mut self.dense[start..], lo, lo + l as usize);
                    }
                    (TAG_BITMAP, rel)
                }
            };
            let m = off + CONTAINER_META * g;
            self.sparse[m] = key;
            self.sparse[m + 1] = tagw;
            self.sparse[m + 2] = gcard as u32;
            self.sparse[m + 3] = rel as u32;
        }
        SetDesc {
            repr: SetRepr::Chunked,
            off,
            card,
            off2,
            aux: nc,
            len32: self.sparse.len() - payload32,
            len64: self.dense.len() - off2,
        }
    }

    /// Encodes a sorted element stream as Elias–Fano words appended to the
    /// `u64` arena: `⌈(|S| + ⌈(n-1)/2^l⌉ + 1)/64⌉` high (unary) words
    /// followed by `⌈|S|·l/64⌉` low words, `l = ⌊log₂(n/|S|)⌋`. All sizes
    /// derive from `(universe, card)`, so the descriptor only records the
    /// total word count.
    fn encode_ef(&mut self, card: usize, elems: impl Iterator<Item = u32>) -> SetDesc {
        let l = ef_low_bits(self.universe, card);
        let hw = ef_high_words(self.universe, card, l);
        let lw = ef_low_words(card, l);
        let off = self.dense.len();
        self.dense.resize(off + hw + lw, 0);
        let (high, low) = self.dense[off..].split_at_mut(hw);
        for (i, e) in elems.enumerate() {
            let p = ((e as usize) >> l) + i;
            high[p / 64] |= 1u64 << (p % 64);
            if l > 0 {
                let bit = i * l as usize;
                let v = u64::from(e) & ((1u64 << l) - 1);
                low[bit / 64] |= v << (bit % 64);
                if bit % 64 + l as usize > 64 {
                    low[bit / 64 + 1] |= v >> (64 - bit % 64);
                }
            }
        }
        SetDesc::elias_fano(off, card, hw + lw)
    }

    /// Appends a copy of an existing view, preserving its representation
    /// verbatim (no policy re-evaluation — this is the cheap clone path).
    ///
    /// # Panics
    /// Panics if the view's universe differs from the store's.
    pub fn push_ref(&mut self, set: SetRef<'_>) -> usize {
        assert_eq!(
            set.universe(),
            self.universe,
            "set universe mismatch: {} vs {}",
            set.universe(),
            self.universe
        );
        let desc = match set {
            SetRef::Sparse { elems, .. } => {
                let off = self.sparse.len();
                self.sparse.extend_from_slice(elems);
                SetDesc::sparse(off, elems.len())
            }
            SetRef::Dense { words, .. } => {
                let off = self.dense.len();
                self.dense.extend_from_slice(words);
                SetDesc::dense(off, set.len())
            }
            SetRef::Chunked {
                meta,
                data32,
                data64,
                card,
                ..
            } => {
                // Payload offsets are relative to the set's own payload
                // blocks, so two verbatim range copies preserve the
                // encoding bit for bit.
                let off = self.sparse.len();
                self.sparse.extend_from_slice(meta);
                self.sparse.extend_from_slice(data32);
                let off2 = self.dense.len();
                self.dense.extend_from_slice(data64);
                SetDesc {
                    repr: SetRepr::Chunked,
                    off,
                    card,
                    off2,
                    aux: meta.len() / CONTAINER_META,
                    len32: data32.len(),
                    len64: data64.len(),
                }
            }
            SetRef::EliasFano {
                high, low, card, ..
            } => {
                let off = self.dense.len();
                self.dense.extend_from_slice(high);
                self.dense.extend_from_slice(low);
                SetDesc::elias_fano(off, card, high.len() + low.len())
            }
        };
        self.push_desc(desc)
    }

    /// Records a freshly built descriptor (every push path funnels through
    /// here so the tombstone flags and the incremental live-bits counter
    /// stay aligned with `descs`).
    fn push_desc(&mut self, desc: SetDesc) -> usize {
        self.descs.push(desc);
        self.tombstones.push(false);
        let id = self.descs.len() - 1;
        self.live_bits += self.get(id).stored_bits();
        id
    }

    /// Tombstones the set at `i`: its descriptor becomes the empty sparse
    /// set while its arena bytes stay in place until
    /// [`compact`](Self::compact) reclaims them. Every read path observes
    /// an empty set afterwards, so solvers simply never pick it, and the
    /// ids of all other sets are unchanged — the property the serving
    /// layer's `remove_set` mutation relies on. The removed
    /// representation's paper-accounting bits move into
    /// [`tombstone_bits`](Self::tombstone_bits) — still charged by
    /// [`stored_bits`](Self::stored_bits), because the arena still holds
    /// them. Idempotent (a second removal of the same slot charges
    /// nothing).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn remove(&mut self, i: usize) {
        assert!(
            i < self.descs.len(),
            "remove: set {i} out of range (m = {})",
            self.descs.len()
        );
        if !self.tombstones[i] {
            let bits = self.get(i).stored_bits();
            self.tombstone_bits += bits;
            self.live_bits -= bits;
            self.tombstones[i] = true;
        }
        self.descs[i] = SetDesc::EMPTY;
    }

    /// Whether the slot at `i` was [`remove`](Self::remove)d (it reads as
    /// empty either way; the flag distinguishes a tombstone from a
    /// genuinely pushed empty set).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn is_tombstoned(&self, i: usize) -> bool {
        self.tombstones[i]
    }

    /// Number of tombstoned slots.
    pub fn num_tombstones(&self) -> usize {
        self.tombstones.iter().filter(|&&t| t).count()
    }

    /// Paper-accounting bits still occupied by tombstoned descriptors'
    /// arena bytes (0 after [`compact`](Self::compact)).
    pub fn tombstone_bits(&self) -> u64 {
        self.tombstone_bits
    }

    /// Fraction of the stored bits that belong to live sets:
    /// `live / (live + tombstone)`, defined as `1.0` for a store with no
    /// stored bits at all. The garbage gauge compaction policies watch —
    /// O(1) off the incremental counter (the old O(m) rescan made every
    /// `CompactionPolicy` probe a full arena walk).
    pub fn live_ratio(&self) -> f64 {
        let total = self.live_bits + self.tombstone_bits;
        if total == 0 {
            1.0
        } else {
            self.live_bits as f64 / total as f64
        }
    }

    /// Rebuilds the element/word arenas, dropping every tombstoned
    /// descriptor and renumbering the survivors densely; returns the old →
    /// new id mapping. Live sets keep their representation verbatim (the
    /// [`push_ref`](Self::push_ref) path, no policy re-evaluation) and
    /// their relative order, so compacting a tombstone-free store is a
    /// structural no-op and answers computed after compaction are
    /// byte-identical to answers computed before, modulo the id remap.
    /// Afterwards [`tombstone_bits`](Self::tombstone_bits) is 0.
    pub fn compact(&mut self) -> CompactionMap {
        let mut out = SetStore::with_policy(self.universe, self.policy);
        out.descs.reserve(self.descs.len() - self.num_tombstones());
        out.sparse.reserve(self.sparse.len());
        out.dense.reserve(self.dense.len());
        let mut forward = Vec::with_capacity(self.descs.len());
        for i in 0..self.descs.len() {
            if self.tombstones[i] {
                forward.push(None);
            } else {
                forward.push(Some(out.push_ref(self.get(i))));
            }
        }
        let len_after = out.len();
        *self = out;
        CompactionMap { forward, len_after }
    }

    /// Borrowed view of the set at `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> SetRef<'_> {
        let d = self.descs[i];
        match d.repr {
            SetRepr::Sparse => SetRef::Sparse {
                elems: &self.sparse[d.off..d.off + d.card],
                universe: self.universe,
            },
            SetRepr::Dense => SetRef::Dense {
                words: &self.dense[d.off..d.off + self.words_per_set],
                universe: self.universe,
                card: d.card,
            },
            SetRepr::Chunked => {
                let meta_end = d.off + CONTAINER_META * d.aux;
                SetRef::Chunked {
                    meta: &self.sparse[d.off..meta_end],
                    data32: &self.sparse[meta_end..meta_end + d.len32],
                    data64: &self.dense[d.off2..d.off2 + d.len64],
                    universe: self.universe,
                    card: d.card,
                }
            }
            SetRepr::EliasFano => {
                let l = ef_low_bits(self.universe, d.card);
                let hw = ef_high_words(self.universe, d.card, l);
                let (high, low) = self.dense[d.off..d.off + d.len64].split_at(hw);
                SetRef::EliasFano {
                    high,
                    low,
                    low_bits: l,
                    universe: self.universe,
                    card: d.card,
                }
            }
        }
    }

    /// Internal borrowed container view of a chunked descriptor.
    fn chunk_view(&self, d: SetDesc) -> ChunkView<'_> {
        let meta_end = d.off + CONTAINER_META * d.aux;
        ChunkView {
            meta: &self.sparse[d.off..meta_end],
            data32: &self.sparse[meta_end..meta_end + d.len32],
            data64: &self.dense[d.off2..d.off2 + d.len64],
            universe: self.universe,
        }
    }

    /// Internal borrowed view of an Elias–Fano descriptor.
    fn ef_view(&self, d: SetDesc) -> EfView<'_> {
        let l = ef_low_bits(self.universe, d.card);
        let hw = ef_high_words(self.universe, d.card, l);
        let (high, low) = self.dense[d.off..d.off + d.len64].split_at(hw);
        EfView {
            high,
            low,
            l,
            card: d.card,
        }
    }

    /// Total elements across all sets, `Σ|S_i|`.
    pub fn total_incidences(&self) -> usize {
        self.descs.iter().map(|d| d.card).sum()
    }

    /// Sum over sets of the bits the *actual* representation costs —
    /// `|S|·⌈log₂ n⌉` sparse and `n` dense under the paper's model, the
    /// measured encoded size for Chunked/Elias–Fano — **plus** the bits of
    /// tombstoned descriptors whose arena bytes have not been reclaimed yet
    /// ([`tombstone_bits`](Self::tombstone_bits)) — removal alone must not
    /// make stored state look cheaper than the arena it still occupies.
    /// O(1) off the incremental live-bits counter.
    pub fn stored_bits(&self) -> u64 {
        self.live_bits + self.tombstone_bits
    }
}

/// The old → new id mapping returned by [`SetStore::compact`] /
/// `SetSystem::compact`: live sets keep their relative order and get dense
/// new ids; tombstoned slots map to `None`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactionMap {
    /// `forward[old] = Some(new)` for survivors, `None` for dropped slots.
    forward: Vec<Option<usize>>,
    len_after: usize,
}

impl CompactionMap {
    /// Number of slots before compaction (tombstones included).
    pub fn len_before(&self) -> usize {
        self.forward.len()
    }

    /// Number of live sets after compaction.
    pub fn len_after(&self) -> usize {
        self.len_after
    }

    /// The new id of old set `old`, or `None` if it was tombstoned and
    /// dropped.
    ///
    /// # Panics
    /// Panics if `old` is out of range.
    pub fn new_id(&self, old: usize) -> Option<usize> {
        self.forward[old]
    }

    /// Translates a solution stated in pre-compaction ids into
    /// post-compaction ids — solvers never pick a tombstoned (empty) set,
    /// so every id of a real solution survives.
    ///
    /// # Panics
    /// Panics if any id was dropped by the compaction or is out of range.
    pub fn remap_ids(&self, ids: &[usize]) -> Vec<usize> {
        ids.iter()
            .map(|&old| {
                self.forward[old]
                    .unwrap_or_else(|| panic!("set {old} was dropped by the compaction"))
            })
            .collect()
    }

    /// Whether the compaction changed nothing: every slot survived with
    /// its old id (the tombstone-free case).
    pub fn is_identity(&self) -> bool {
        self.forward
            .iter()
            .enumerate()
            .all(|(old, &new)| new == Some(old))
    }
}

/// Batched many-vs-one coverage sweep: the gain `|S_i ∩ R|` of every stored
/// set against one residual `R`, computed in a single walk over the arena.
///
/// The per-set path (`store.get(i).intersection_len(residual)`) pays an enum
/// dispatch, a universe assert, and a branchy `filter().count()` probe loop
/// per set. The sweep instead walks the `u32` element arena columnarly —
/// descriptors are laid out in insertion order, so the sparse arena is read
/// strictly sequentially — probing the residual bitmap branchlessly with
/// four independent accumulators (the probe chain is otherwise a serial
/// data dependency), and streams word-AND popcounts for dense sets. Against
/// a *sparse* residual view the sweep dispatches to the pairwise kernels,
/// reusing the SSE2 block merge for sparse×sparse. Kernels dispatch at
/// [`KernelTier::effective`] unless [`with_tier`](Self::with_tier) forces
/// one: `Avx2` swaps in the gather probe and the block merge, `Scalar` runs
/// the portable reference.
///
/// The gains buffer is owned by the sweep and reused across calls, so a
/// solver loop allocates once.
#[derive(Clone, Debug, Default)]
pub struct BatchedSweep {
    gains: Vec<usize>,
    /// Forced kernel tier, `None` for [`KernelTier::effective`] dispatch.
    tier: Option<KernelTier>,
}

impl BatchedSweep {
    /// A sweep with an empty scratch buffer, dispatching kernels at
    /// [`KernelTier::effective`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A sweep pinned to one kernel tier — the forced-tier knob the
    /// equivalence batteries use to pin `Avx2` byte-equal to the `Scalar`
    /// reference.
    ///
    /// # Panics
    /// Panics if the tier is not [supported](KernelTier::is_supported) on
    /// this CPU (callers skip unsupported tiers explicitly).
    pub fn with_tier(tier: KernelTier) -> Self {
        assert!(
            tier.is_supported(),
            "kernel tier {} not supported on this CPU",
            tier.name()
        );
        BatchedSweep {
            gains: Vec::new(),
            tier: Some(tier),
        }
    }

    /// The tier this sweep dispatches at.
    pub fn tier(&self) -> KernelTier {
        self.tier.unwrap_or_else(KernelTier::effective)
    }

    /// Gains of **all** stored sets against a dense residual, in id order.
    ///
    /// # Panics
    /// Panics if the residual's capacity differs from the store's universe.
    pub fn gains(&mut self, store: &SetStore, residual: &BitSet) -> &[usize] {
        self.gains_vs_ref(store, residual.as_set_ref())
    }

    /// Gains of the sets with the given ids (e.g. one worker's chunk of an
    /// arrival order), in the given order.
    ///
    /// # Panics
    /// Panics if the residual's capacity differs from the store's universe
    /// or any id is out of range.
    pub fn gains_for(&mut self, store: &SetStore, ids: &[usize], residual: &BitSet) -> &[usize] {
        assert_eq!(
            residual.capacity(),
            store.universe,
            "residual universe mismatch: {} vs {}",
            residual.capacity(),
            store.universe
        );
        let words = residual.words();
        let tier = self.tier();
        let kernel = sparse_sweep_kernel_for(tier);
        self.gains.clear();
        self.gains.reserve(ids.len());
        for &i in ids {
            self.gains
                .push(sweep_one(store, &store.descs[i], words, kernel));
        }
        &self.gains
    }

    /// Gains of a contiguous descriptor span `ids` against a dense
    /// residual, in span order — the shard-local sweep under
    /// [`crate::shard::StoreShard::gains`]. Unlike
    /// [`gains_for`](Self::gains_for) there is no per-id indirection: the
    /// walk reads `descs[span]` (and therefore the element arena)
    /// strictly sequentially, which is what lets one worker own one
    /// arena region without striding past its neighbours'.
    ///
    /// # Panics
    /// Panics if the residual's capacity differs from the store's universe
    /// or the span exceeds the store.
    pub fn gains_span(
        &mut self,
        store: &SetStore,
        span: std::ops::Range<usize>,
        residual: &BitSet,
    ) -> &[usize] {
        assert_eq!(
            residual.capacity(),
            store.universe,
            "residual universe mismatch: {} vs {}",
            residual.capacity(),
            store.universe
        );
        assert!(span.end <= store.len(), "span {span:?} out of store");
        let words = residual.words();
        let tier = self.tier();
        let kernel = sparse_sweep_kernel_for(tier);
        self.gains.clear();
        self.gains.reserve(span.len());
        for d in &store.descs[span] {
            self.gains.push(sweep_one(store, d, words, kernel));
        }
        &self.gains
    }

    /// Gains of all stored sets against a residual given as a [`SetRef`] of
    /// either representation. Dense views take the columnar fast path;
    /// sparse views dispatch to the pairwise kernels (SSE2 block merge for
    /// sparse×sparse).
    pub fn gains_vs_ref(&mut self, store: &SetStore, residual: SetRef<'_>) -> &[usize] {
        match residual {
            SetRef::Dense {
                words, universe, ..
            } => {
                assert_eq!(
                    universe, store.universe,
                    "residual universe mismatch: {universe} vs {}",
                    store.universe
                );
                let tier = self.tier();
                let kernel = sparse_sweep_kernel_for(tier);
                self.gains.clear();
                self.gains.reserve(store.len());
                for d in &store.descs {
                    self.gains.push(sweep_one(store, d, words, kernel));
                }
                &self.gains
            }
            // Sparse and compressed residual views dispatch to the pairwise
            // kernels per stored set (sparse×sparse keeps the SSE2 block
            // merge; chunked/EF pairs use their container/decode kernels).
            _ => {
                let tier = self.tier();
                self.gains.clear();
                self.gains.reserve(store.len());
                for i in 0..store.len() {
                    self.gains
                        .push(store.get(i).intersection_len_tier(residual, tier));
                }
                &self.gains
            }
        }
    }

    /// The last computed gains (empty before the first sweep).
    pub fn last(&self) -> &[usize] {
        &self.gains
    }

    /// `(position, gain)` of the best entry of the last sweep under the
    /// greedy selection rule — largest gain, ties to the smallest position —
    /// or `None` if every gain is zero.
    pub fn best(&self) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize)> = None;
        for (i, &g) in self.gains.iter().enumerate() {
            match best {
                Some((_, b)) if b >= g => {}
                _ if g > 0 => best = Some((i, g)),
                _ => {}
            }
        }
        best
    }
}

/// SIMD capability tier of the intersection/sweep kernels, ordered from
/// weakest to strongest. Dispatch picks `min(detected hardware, forced
/// override)` so a tier is never *selected* above what the CPU supports.
///
/// | tier     | sparse×dense probe         | dense×dense popcount  | sparse×sparse merge |
/// |----------|----------------------------|-----------------------|---------------------|
/// | `Scalar` | lane-striped scalar probe  | `u64::count_ones` zip | branchless merge    |
/// | `Avx2`   | 2× 4-lane `vpgatherqq`     | (as Scalar)           | SSE2 4×4 block compare |
///
/// Tests force a tier through [`BatchedSweep::with_tier`] and
/// [`SetRef::intersection_len_tier`] to pin both tiers byte-equal to the
/// scalar reference; production paths call the untiered methods, which
/// resolve [`KernelTier::effective`] (hardware detection, optionally
/// capped by the `STREAMCOVER_KERNEL_TIER` environment variable — read
/// once, like `STREAMCOVER_WORKERS`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// Portable scalar kernels (every target).
    Scalar,
    /// AVX2 4-lane gather probe plus the SSE2 block merge (`x86_64` with
    /// AVX2).
    Avx2,
}

impl KernelTier {
    /// Every tier, weakest first — the iteration order of the forced-tier
    /// equivalence batteries.
    pub const ALL: [KernelTier; 2] = [KernelTier::Scalar, KernelTier::Avx2];

    /// The strongest tier this CPU supports, detected once and cached.
    pub fn detect() -> KernelTier {
        static DETECTED: std::sync::OnceLock<KernelTier> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                return KernelTier::Avx2;
            }
            KernelTier::Scalar
        })
    }

    /// Whether this CPU can execute this tier's kernels.
    pub fn is_supported(self) -> bool {
        self <= KernelTier::detect()
    }

    /// The tier production dispatch uses: the detected hardware tier,
    /// capped by `STREAMCOVER_KERNEL_TIER` (`scalar`/`avx2`,
    /// case-insensitive) when set. The environment is read once and
    /// snapshotted, mirroring `STREAMCOVER_WORKERS`; an unrecognized value
    /// is ignored. The cap can only lower the tier — requesting `avx2` on
    /// a CPU without AVX2 still dispatches `scalar`.
    pub fn effective() -> KernelTier {
        static CAP: std::sync::OnceLock<Option<KernelTier>> = std::sync::OnceLock::new();
        let cap = *CAP.get_or_init(|| {
            std::env::var("STREAMCOVER_KERNEL_TIER")
                .ok()
                .and_then(|v| KernelTier::parse(&v))
        });
        match cap {
            Some(cap) => cap.min(KernelTier::detect()),
            None => KernelTier::detect(),
        }
    }

    /// Parses a tier name (`scalar`/`avx2`, any case).
    pub fn parse(v: &str) -> Option<KernelTier> {
        match v.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelTier::Scalar),
            "avx2" => Some(KernelTier::Avx2),
            _ => None,
        }
    }

    /// Lower-case display name (bench rows, skip logs).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
        }
    }
}

/// The sparse probe kernel of one tier. The caller must only pass a
/// [supported](KernelTier::is_supported) tier — the returned function
/// executes that tier's instructions unconditionally.
#[inline]
fn sparse_sweep_kernel_for(tier: KernelTier) -> fn(&[u32], &[u64]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if tier == KernelTier::Avx2 {
        debug_assert!(tier.is_supported(), "unsupported tier {tier:?} forced");
        // SAFETY: tier support was established by the caller (detection or
        // an is_supported()-gated force), so the instructions exist.
        return |elems, words| unsafe { sweep_sparse_avx2(elems, words) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier; // the only tier above Scalar is x86-only
    sweep_sparse
}

/// Portable dense word-AND popcount.
#[inline]
fn dense_and_popcount(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// Gain of one descriptor against a residual word slab (callers have
/// asserted the slab spans the store's universe). Chunked descriptors walk
/// their containers columnar-style — each container dispatches to the
/// dense word-AND popcount (bitmap), the tier's sparse probe over decoded
/// 256-element blocks (array), or masked range popcounts (runs); Elias–Fano
/// descriptors decode in 256-element blocks through the tier's sparse
/// probe.
#[inline(always)]
fn sweep_one(
    store: &SetStore,
    d: &SetDesc,
    words: &[u64],
    sparse_kernel: fn(&[u32], &[u64]) -> usize,
) -> usize {
    match d.repr {
        SetRepr::Sparse => sparse_kernel(&store.sparse[d.off..d.off + d.card], words),
        SetRepr::Dense => {
            dense_and_popcount(&store.dense[d.off..d.off + store.words_per_set], words)
        }
        SetRepr::Chunked => chunked_vs_words(store.chunk_view(*d), words, sparse_kernel),
        SetRepr::EliasFano => ef_vs_words(store.ef_view(*d), words, sparse_kernel),
    }
}

/// AVX2 columnar probe: 8 elements per iteration — two 4-lane `u64`
/// gathers of the residual words, variable right-shifts by `e mod 64`, and
/// a masked add into 4-lane accumulators. The gathers are independent, so
/// the walk is limited by gather throughput instead of the scalar chain.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX2 and that every element
/// satisfies `e / 64 < words.len()` (the store's insertion invariant).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_sparse_avx2(elems: &[u32], words: &[u64]) -> usize {
    use std::arch::x86_64::*;
    let base = words.as_ptr() as *const i64;
    let low6 = _mm256_set1_epi32(63);
    let one = _mm256_set1_epi64x(1);
    let mut acc = _mm256_setzero_si256();
    let mut blocks = elems.chunks_exact(8);
    for q in blocks.by_ref() {
        let ev = _mm256_loadu_si256(q.as_ptr() as *const __m256i);
        let idx = _mm256_srli_epi32(ev, 6);
        let sh = _mm256_and_si256(ev, low6);
        let g_lo = _mm256_i32gather_epi64(base, _mm256_castsi256_si128(idx), 8);
        let g_hi = _mm256_i32gather_epi64(base, _mm256_extracti128_si256(idx, 1), 8);
        let b_lo = _mm256_srlv_epi64(g_lo, _mm256_cvtepu32_epi64(_mm256_castsi256_si128(sh)));
        let b_hi = _mm256_srlv_epi64(g_hi, _mm256_cvtepu32_epi64(_mm256_extracti128_si256(sh, 1)));
        acc = _mm256_add_epi64(acc, _mm256_and_si256(b_lo, one));
        acc = _mm256_add_epi64(acc, _mm256_and_si256(b_hi, one));
    }
    let mut lanes = [0i64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    let mut total = lanes.iter().sum::<i64>() as usize;
    // Lane-striped scalar tail (≤ 7 elements).
    let mut c = [0usize; 8];
    for (lane, &e) in blocks.remainder().iter().enumerate() {
        c[lane] += (*words.get_unchecked((e >> 6) as usize) >> (e & 63) & 1) as usize;
    }
    total += c.iter().sum::<usize>();
    total
}

/// Branchless columnar probe of a sorted element slice against a residual
/// bitmap, with eight independent accumulators to break the serial
/// load→shift→add dependency chain of the naive loop (the loads are
/// independent, so the limit is issue width, not the L1 latency the naive
/// chain pays per element).
#[inline]
fn sweep_sparse(elems: &[u32], words: &[u64]) -> usize {
    // SAFETY: every stored element was validated `< universe` at insertion
    // time and `words` spans `⌈universe/64⌉` words, so `e / 64` is in
    // bounds for every probe.
    let probe =
        |e: u32| unsafe { (*words.get_unchecked((e >> 6) as usize) >> (e & 63) & 1) as usize };
    let mut blocks = elems.chunks_exact(8);
    let mut c = [0usize; 8];
    for q in blocks.by_ref() {
        for lane in 0..8 {
            c[lane] += probe(q[lane]);
        }
    }
    // The tail stays lane-striped so short sets (and short tails) keep the
    // accumulator chains independent instead of serializing.
    for (lane, &e) in blocks.remainder().iter().enumerate() {
        c[lane] += probe(e);
    }
    c.iter().sum()
}

// ---------------------------------------------------------------------------
// Chunked (Roaring-style) containers.
//
// A chunked set partitions the universe into 2^16-element chunks; each
// non-empty chunk is one container described by 4 u32 metadata words
// `[key, tag | nruns«8, card, payload offset]`. Array payloads pack two u16
// chunk-local elements per u32 word; run payloads store one
// `local | (len-1)«16` word per run; bitmap payloads are
// `⌈min(2^16, n - key·2^16)/64⌉` u64 words (the last chunk is ragged).
// Payload offsets are relative to the set's own payload blocks so the whole
// encoding copies verbatim.
// ---------------------------------------------------------------------------

/// log₂ of the chunk span.
const CHUNK_BITS: u32 = 16;
/// Elements per chunk.
const CHUNK: usize = 1 << CHUNK_BITS;
/// Low-bits mask extracting the chunk-local element.
const CHUNK_MASK: usize = CHUNK - 1;
/// `u32` metadata words per container descriptor.
const CONTAINER_META: usize = 4;
/// Container payload tags (low byte of the second metadata word).
const TAG_ARRAY: u32 = 0;
const TAG_BITMAP: u32 = 1;
const TAG_RUNS: u32 = 2;

/// Elements the chunk `key` actually spans (the last chunk is ragged).
#[inline]
fn chunk_span(universe: usize, key: u32) -> usize {
    CHUNK.min(universe - ((key as usize) << CHUNK_BITS))
}

/// Words of a bitmap payload for chunk `key`.
#[inline]
fn chunk_span_words(universe: usize, key: u32) -> usize {
    chunk_span(universe, key).div_ceil(64)
}

/// Borrowed pieces of one chunked set.
#[derive(Clone, Copy)]
struct ChunkView<'a> {
    meta: &'a [u32],
    data32: &'a [u32],
    data64: &'a [u64],
    universe: usize,
}

/// One decoded container descriptor.
#[derive(Clone, Copy)]
struct Container<'a> {
    key: u32,
    tag: u32,
    nruns: usize,
    card: usize,
    /// Array / run payload words (empty for bitmap containers).
    a32: &'a [u32],
    /// Bitmap payload words (empty for array / run containers).
    words: &'a [u64],
}

impl<'a> ChunkView<'a> {
    #[inline]
    fn ncontainers(self) -> usize {
        self.meta.len() / CONTAINER_META
    }

    #[inline]
    fn key(self, c: usize) -> u32 {
        self.meta[CONTAINER_META * c]
    }

    #[inline]
    fn container(self, c: usize) -> Container<'a> {
        let m = &self.meta[CONTAINER_META * c..CONTAINER_META * (c + 1)];
        let (key, tagw, card, off) = (m[0], m[1], m[2] as usize, m[3] as usize);
        let (tag, nruns) = (tagw & 0xff, (tagw >> 8) as usize);
        match tag {
            TAG_BITMAP => Container {
                key,
                tag,
                nruns: 0,
                card,
                a32: &[],
                words: &self.data64[off..off + chunk_span_words(self.universe, key)],
            },
            TAG_RUNS => Container {
                key,
                tag,
                nruns,
                card,
                a32: &self.data32[off..off + nruns],
                words: &[],
            },
            _ => Container {
                key,
                tag,
                nruns: 0,
                card,
                a32: &self.data32[off..off + card.div_ceil(2)],
                words: &[],
            },
        }
    }
}

impl Container<'_> {
    /// First element of this chunk in universe coordinates.
    #[inline]
    fn base(self) -> usize {
        (self.key as usize) << CHUNK_BITS
    }

    /// The `i`-th chunk-local element of an array container.
    #[inline]
    fn local(self, i: usize) -> u32 {
        self.a32[i >> 1] >> ((i & 1) * 16) & 0xffff
    }

    /// The `r`-th `(local start, len)` run of a run container.
    #[inline]
    fn run(self, r: usize) -> (u32, u32) {
        let w = self.a32[r];
        (w & 0xffff, (w >> 16) + 1)
    }
}

/// Maximal consecutive runs of a strictly sorted element list, split at
/// chunk boundaries (the canonical clipped-run form every chunked encode
/// path consumes).
fn runs_from_sorted(elems: &[u32]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    for &e in elems {
        match out.last_mut() {
            Some(last) if last.0 + last.1 == e && e as usize & CHUNK_MASK != 0 => last.1 += 1,
            _ => out.push((e, 1)),
        }
    }
    out
}

/// [`runs_from_sorted`] off a word slab, with an all-ones word fast path
/// (chunk boundaries are word-aligned, so a full word never straddles one
/// internally).
fn runs_from_words(words: &[u64]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    for (wi, &w) in words.iter().enumerate() {
        if w == 0 {
            continue;
        }
        let word_base = (wi * 64) as u32;
        if w == !0u64 {
            match out.last_mut() {
                Some(last)
                    if last.0 + last.1 == word_base && word_base as usize & CHUNK_MASK != 0 =>
                {
                    last.1 += 64
                }
                _ => out.push((word_base, 64)),
            }
            continue;
        }
        let mut x = w;
        while x != 0 {
            let e = word_base + x.trailing_zeros();
            x &= x - 1;
            match out.last_mut() {
                Some(last) if last.0 + last.1 == e && e as usize & CHUNK_MASK != 0 => last.1 += 1,
                _ => out.push((e, 1)),
            }
        }
    }
    out
}

/// The payload tag the encoder picks for one chunk's clipped runs, and its
/// payload bits: the minimum of `32·⌈card/2⌉` (array), `32·nruns` (runs)
/// and `64·span_words` (bitmap), ties breaking Array ≺ Runs ≺ Bitmap.
fn container_choice(group: &[(u32, u32)], universe: usize, key: u32) -> (u32, u64) {
    let card: usize = group.iter().map(|&(_, l)| l as usize).sum();
    let arr = 32 * card.div_ceil(2) as u64;
    let run = 32 * group.len() as u64;
    let bmp = 64 * chunk_span_words(universe, key) as u64;
    if arr <= run && arr <= bmp {
        (TAG_ARRAY, arr)
    } else if run <= bmp {
        (TAG_RUNS, run)
    } else {
        (TAG_BITMAP, bmp)
    }
}

/// Measured bits of the chunked encoding of a clipped-run list: 128
/// metadata bits per container plus the chosen payload.
fn chunked_cost_bits(clipped: &[(u32, u32)], universe: usize) -> u64 {
    let mut bits = 0u64;
    let mut g = 0usize;
    while g < clipped.len() {
        let key = clipped[g].0 >> CHUNK_BITS;
        let mut e = g + 1;
        while e < clipped.len() && clipped[e].0 >> CHUNK_BITS == key {
            e += 1;
        }
        bits += 32 * CONTAINER_META as u64 + container_choice(&clipped[g..e], universe, key).1;
        g = e;
    }
    bits
}

/// Popcount of `words` restricted to the bit range `[lo, hi)`.
#[inline]
fn popcount_range(words: &[u64], lo: usize, hi: usize) -> usize {
    if lo >= hi {
        return 0;
    }
    let (wl, wh) = (lo / 64, (hi - 1) / 64);
    let first = !0u64 << (lo % 64);
    let last = !0u64 >> (63 - (hi - 1) % 64);
    if wl == wh {
        (words[wl] & first & last).count_ones() as usize
    } else {
        (words[wl] & first).count_ones() as usize
            + words[wl + 1..wh]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
            + (words[wh] & last).count_ones() as usize
    }
}

/// Sets the bit range `[lo, hi)` of a word slab.
fn set_bit_range(words: &mut [u64], lo: usize, hi: usize) {
    if lo >= hi {
        return;
    }
    let (wl, wh) = (lo / 64, (hi - 1) / 64);
    let first = !0u64 << (lo % 64);
    let last = !0u64 >> (63 - (hi - 1) % 64);
    if wl == wh {
        words[wl] |= first & last;
    } else {
        words[wl] |= first;
        for w in &mut words[wl + 1..wh] {
            *w = !0;
        }
        words[wh] |= last;
    }
}

/// Clears the bit range `[lo, hi)` of a word slab.
fn clear_bit_range(words: &mut [u64], lo: usize, hi: usize) {
    if lo >= hi {
        return;
    }
    let (wl, wh) = (lo / 64, (hi - 1) / 64);
    let first = !0u64 << (lo % 64);
    let last = !0u64 >> (63 - (hi - 1) % 64);
    if wl == wh {
        words[wl] &= !(first & last);
    } else {
        words[wl] &= !first;
        for w in &mut words[wl + 1..wh] {
            *w = 0;
        }
        words[wh] &= !last;
    }
}

/// Gain of one chunked view against a residual word slab spanning the
/// universe: containers dispatch per payload kind, reusing the sweep
/// kernels on the chunk's word sub-slab.
fn chunked_vs_words(
    v: ChunkView<'_>,
    words: &[u64],
    sparse_kernel: fn(&[u32], &[u64]) -> usize,
) -> usize {
    let mut gain = 0;
    for c in 0..v.ncontainers() {
        let cont = v.container(c);
        let wbase = cont.base() / 64;
        let sub = &words[wbase..wbase + chunk_span_words(v.universe, cont.key)];
        gain += container_vs_words(cont, sub, sparse_kernel);
    }
    gain
}

/// Gain of one container against its chunk's word sub-slab.
fn container_vs_words(
    c: Container<'_>,
    sub: &[u64],
    sparse_kernel: fn(&[u32], &[u64]) -> usize,
) -> usize {
    match c.tag {
        TAG_BITMAP => dense_and_popcount(c.words, sub),
        TAG_RUNS => (0..c.nruns)
            .map(|r| {
                let (s, len) = c.run(r);
                popcount_range(sub, s as usize, (s + len) as usize)
            })
            .sum(),
        _ => {
            // Decode chunk-local elements in blocks and reuse the tier's
            // columnar probe against the sub-slab (locals are < span, so
            // the unchecked probe stays in bounds).
            let mut gain = 0;
            let mut buf = [0u32; 256];
            let mut i = 0;
            while i < c.card {
                let k = (c.card - i).min(256);
                for (j, slot) in buf[..k].iter_mut().enumerate() {
                    *slot = c.local(i + j);
                }
                gain += sparse_kernel(&buf[..k], sub);
                i += k;
            }
            gain
        }
    }
}

/// `|A ∩ B|` of two chunked views: containers merge by key; aligned pairs
/// dispatch per payload combination (bitmap×bitmap runs the dense
/// popcount, array/run × bitmap reuse [`container_vs_words`], the word-free
/// pairs merge in chunk-local coordinates).
fn chunked_vs_chunked(
    a: ChunkView<'_>,
    b: ChunkView<'_>,
    sparse_kernel: fn(&[u32], &[u64]) -> usize,
) -> usize {
    let (mut i, mut j, mut gain) = (0, 0, 0);
    while i < a.ncontainers() && j < b.ncontainers() {
        let (ka, kb) = (a.key(i), b.key(j));
        if ka < kb {
            i += 1;
        } else if kb < ka {
            j += 1;
        } else {
            gain += container_pair_gain(a.container(i), b.container(j), sparse_kernel);
            i += 1;
            j += 1;
        }
    }
    gain
}

/// `|X ∩ Y|` of two key-aligned containers.
fn container_pair_gain(
    x: Container<'_>,
    y: Container<'_>,
    sparse_kernel: fn(&[u32], &[u64]) -> usize,
) -> usize {
    match (x.tag, y.tag) {
        (TAG_BITMAP, TAG_BITMAP) => dense_and_popcount(x.words, y.words),
        (TAG_BITMAP, _) => container_vs_words(y, x.words, sparse_kernel),
        (_, TAG_BITMAP) => container_vs_words(x, y.words, sparse_kernel),
        (TAG_ARRAY, TAG_ARRAY) => {
            let (mut p, mut q, mut c) = (0, 0, 0);
            while p < x.card && q < y.card {
                let (u, v) = (x.local(p), y.local(q));
                c += usize::from(u == v);
                p += usize::from(u <= v);
                q += usize::from(v <= u);
            }
            c
        }
        (TAG_ARRAY, TAG_RUNS) => array_vs_runs(x, y),
        (TAG_RUNS, TAG_ARRAY) => array_vs_runs(y, x),
        _ => {
            // runs × runs: interval-overlap walk over disjoint sorted runs.
            let (mut p, mut q, mut c) = (0, 0, 0);
            while p < x.nruns && q < y.nruns {
                let (sa, la) = x.run(p);
                let (sb, lb) = y.run(q);
                let lo = sa.max(sb);
                let hi = (sa + la).min(sb + lb);
                if hi > lo {
                    c += (hi - lo) as usize;
                }
                if sa + la <= sb + lb {
                    p += 1;
                } else {
                    q += 1;
                }
            }
            c
        }
    }
}

/// `|array ∩ runs|` of two key-aligned containers, chunk-local coordinates.
fn array_vs_runs(arr: Container<'_>, runs: Container<'_>) -> usize {
    let (mut p, mut c) = (0, 0);
    for r in 0..runs.nruns {
        let (s, len) = runs.run(r);
        while p < arr.card && arr.local(p) < s {
            p += 1;
        }
        while p < arr.card && arr.local(p) < s + len {
            c += 1;
            p += 1;
        }
    }
    c
}

/// `|chunked ∩ sorted list|`: the list is cursored chunk group by chunk
/// group (a `partition_point` per container), each group intersecting its
/// key-aligned container in chunk-local coordinates.
fn chunked_vs_sorted(v: ChunkView<'_>, elems: &[u32]) -> usize {
    let (mut ci, mut p, mut gain) = (0, 0, 0);
    while ci < v.ncontainers() && p < elems.len() {
        let key = v.key(ci);
        let ekey = elems[p] >> CHUNK_BITS;
        if ekey < key {
            p += elems[p..].partition_point(|&e| e >> CHUNK_BITS < key);
            continue;
        }
        if ekey > key {
            ci += 1;
            continue;
        }
        let q = p + elems[p..].partition_point(|&e| e >> CHUNK_BITS == ekey);
        gain += container_vs_group(v.container(ci), &elems[p..q]);
        p = q;
        ci += 1;
    }
    gain
}

/// `|container ∩ group|` where `group` is the (absolute) slice of a sorted
/// list falling inside the container's chunk.
fn container_vs_group(c: Container<'_>, group: &[u32]) -> usize {
    match c.tag {
        TAG_BITMAP => group
            .iter()
            .filter(|&&e| {
                let local = e as usize & CHUNK_MASK;
                c.words[local / 64] >> (local % 64) & 1 == 1
            })
            .count(),
        TAG_RUNS => {
            let (mut p, mut gain) = (0, 0);
            for r in 0..c.nruns {
                let (s, len) = c.run(r);
                while p < group.len() && (group[p] as usize & CHUNK_MASK) < s as usize {
                    p += 1;
                }
                while p < group.len() && (group[p] as usize & CHUNK_MASK) < (s + len) as usize {
                    gain += 1;
                    p += 1;
                }
            }
            gain
        }
        _ => {
            let (mut p, mut q, mut gain) = (0, 0, 0);
            while p < c.card && q < group.len() {
                let (u, v) = (c.local(p), group[q] as usize as u32 & CHUNK_MASK as u32);
                gain += usize::from(u == v);
                p += usize::from(u <= v);
                q += usize::from(v <= u);
            }
            gain
        }
    }
}

// ---------------------------------------------------------------------------
// Elias–Fano encoding.
//
// With `l = ⌊log₂(n/|S|)⌋` low bits per element, element `i` contributes its
// low `l` bits to a packed array and one unary bit at position
// `(e_i >> l) + i` of the high bitmap. Every size below derives from
// `(universe, card)`, so views reconstruct without stored metadata.
// ---------------------------------------------------------------------------

/// Low bits per element.
#[inline]
fn ef_low_bits(universe: usize, card: usize) -> u32 {
    if card == 0 {
        return 0;
    }
    let q = universe / card;
    if q <= 1 {
        0
    } else {
        q.ilog2()
    }
}

/// Words of the unary high bitmap.
#[inline]
fn ef_high_words(universe: usize, card: usize, l: u32) -> usize {
    if card == 0 {
        0
    } else {
        (card + ((universe - 1) >> l) + 1).div_ceil(64)
    }
}

/// Words of the packed low-bits array.
#[inline]
fn ef_low_words(card: usize, l: u32) -> usize {
    (card * l as usize).div_ceil(64)
}

/// Measured bits of the Elias–Fano encoding (whole arena words).
#[inline]
fn ef_cost_bits(universe: usize, card: usize) -> u64 {
    let l = ef_low_bits(universe, card);
    64 * (ef_high_words(universe, card, l) + ef_low_words(card, l)) as u64
}

/// The `i`-th packed low value.
#[inline]
fn ef_low(low: &[u64], i: usize, l: u32) -> u64 {
    if l == 0 {
        return 0;
    }
    let bit = i * l as usize;
    let (w, b) = (bit / 64, bit % 64);
    let mut v = low[w] >> b;
    if b + l as usize > 64 {
        v |= low[w + 1] << (64 - b);
    }
    v & ((1u64 << l) - 1)
}

/// Borrowed pieces of one Elias–Fano set.
#[derive(Clone, Copy)]
struct EfView<'a> {
    high: &'a [u64],
    low: &'a [u64],
    l: u32,
    card: usize,
}

impl<'a> EfView<'a> {
    fn iter(self) -> EfIter<'a> {
        EfIter {
            high: self.high,
            low: self.low,
            l: self.l,
            card: self.card,
            i: 0,
            word: 0,
            cur: self.high.first().copied().unwrap_or(0),
        }
    }
}

/// Sequential Elias–Fano decoder: pops high-bitmap ones left to right; the
/// `i`-th one at bit position `p` decodes to `((p - i) << l) | low(i)`.
pub struct EfIter<'a> {
    high: &'a [u64],
    low: &'a [u64],
    l: u32,
    card: usize,
    i: usize,
    word: usize,
    cur: u64,
}

impl Iterator for EfIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.i == self.card {
            return None;
        }
        // The high bitmap holds exactly `card` ones, so with i < card a set
        // bit is guaranteed before the slab ends.
        while self.cur == 0 {
            self.word += 1;
            self.cur = self.high[self.word];
        }
        let p = self.word * 64 + self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        let e = (p - self.i) << self.l | ef_low(self.low, self.i, self.l) as usize;
        self.i += 1;
        Some(e)
    }
}

/// Gain of an Elias–Fano view against a residual word slab: decode in
/// 256-element blocks and reuse the tier's columnar probe.
fn ef_vs_words(v: EfView<'_>, words: &[u64], sparse_kernel: fn(&[u32], &[u64]) -> usize) -> usize {
    let mut it = v.iter();
    let mut buf = [0u32; 256];
    let mut gain = 0;
    loop {
        let mut k = 0;
        for slot in buf.iter_mut() {
            match it.next() {
                Some(e) => {
                    *slot = e as u32;
                    k += 1;
                }
                None => break,
            }
        }
        if k == 0 {
            break;
        }
        gain += sparse_kernel(&buf[..k], words);
        if k < buf.len() {
            break;
        }
    }
    gain
}

/// `|EF ∩ sorted list|`: sequential decode galloping a cursor through the
/// list with a `partition_point` per decoded element.
fn ef_vs_sorted(v: EfView<'_>, elems: &[u32]) -> usize {
    let (mut p, mut gain) = (0, 0);
    for e in v.iter() {
        p += elems[p..].partition_point(|&x| (x as usize) < e);
        if p == elems.len() {
            break;
        }
        if elems[p] as usize == e {
            gain += 1;
            p += 1;
        }
    }
    gain
}

/// `|A ∩ B|` of two Elias–Fano views: a sequential merge of the two
/// decoders.
fn ef_vs_ef(a: EfView<'_>, b: EfView<'_>) -> usize {
    let (mut ia, mut ib) = (a.iter(), b.iter());
    let (mut x, mut y) = (ia.next(), ib.next());
    let mut gain = 0;
    while let (Some(u), Some(v)) = (x, y) {
        match u.cmp(&v) {
            std::cmp::Ordering::Less => x = ia.next(),
            std::cmp::Ordering::Greater => y = ib.next(),
            std::cmp::Ordering::Equal => {
                gain += 1;
                x = ia.next();
                y = ib.next();
            }
        }
    }
    gain
}

/// A borrowed, `Copy` view of one stored set — any backend.
///
/// Binary operations dispatch to representation-specialized kernels:
/// merge-walk for sparse×sparse, word ops for dense×dense, probing for the
/// mixed pairs. Counting ops (`union_len`, `difference_len`,
/// `hamming_distance`) derive from one intersection kernel via
/// inclusion–exclusion.
#[derive(Clone, Copy)]
pub enum SetRef<'a> {
    /// Sorted element list.
    Sparse {
        /// Strictly increasing elements.
        elems: &'a [u32],
        /// Universe size `n`.
        universe: usize,
    },
    /// Word-packed bitmap.
    Dense {
        /// `⌈n/64⌉` words.
        words: &'a [u64],
        /// Universe size `n`.
        universe: usize,
        /// Cached cardinality, or [`CARD_UNKNOWN`] for lazily counted views
        /// (e.g. [`BitSet::as_set_ref`]).
        card: usize,
    },
    /// Roaring-style chunked containers (2^16-element chunks, each
    /// independently array / bitmap / run encoded).
    Chunked {
        /// 4 `u32` words per container: `[key, tag | nruns«8, card, off]`.
        meta: &'a [u32],
        /// Array and run payloads (offsets in `meta` index into this).
        data32: &'a [u32],
        /// Bitmap payloads (offsets in `meta` index into this).
        data64: &'a [u64],
        /// Universe size `n`.
        universe: usize,
        /// Total cardinality across containers.
        card: usize,
    },
    /// Elias–Fano monotone-list encoding (unary high bitmap + packed low
    /// bits); all sizes derive from `(universe, card)`.
    EliasFano {
        /// Unary high bitmap: one set bit per element at `(e >> l) + i`.
        high: &'a [u64],
        /// Packed low bits, `low_bits` per element.
        low: &'a [u64],
        /// Low bits per element `l`.
        low_bits: u32,
        /// Universe size `n`.
        universe: usize,
        /// Cardinality.
        card: usize,
    },
}

/// Sentinel cardinality for dense views built without a popcount (resolved
/// lazily by [`SetRef::len`]).
pub const CARD_UNKNOWN: usize = usize::MAX;

impl<'a> SetRef<'a> {
    /// The universe size this set lives in.
    #[inline]
    pub fn universe(self) -> usize {
        match self {
            SetRef::Sparse { universe, .. }
            | SetRef::Dense { universe, .. }
            | SetRef::Chunked { universe, .. }
            | SetRef::EliasFano { universe, .. } => universe,
        }
    }

    /// Which backend this view reads from.
    #[inline]
    pub fn repr(self) -> SetRepr {
        match self {
            SetRef::Sparse { .. } => SetRepr::Sparse,
            SetRef::Dense { .. } => SetRepr::Dense,
            SetRef::Chunked { .. } => SetRepr::Chunked,
            SetRef::EliasFano { .. } => SetRepr::EliasFano,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(self) -> usize {
        match self {
            SetRef::Sparse { elems, .. } => elems.len(),
            SetRef::Dense { words, card, .. } => {
                if card == CARD_UNKNOWN {
                    words.iter().map(|w| w.count_ones() as usize).sum()
                } else {
                    card
                }
            }
            SetRef::Chunked { card, .. } | SetRef::EliasFano { card, .. } => card,
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        match self {
            SetRef::Sparse { elems, .. } => elems.is_empty(),
            SetRef::Dense { words, card, .. } => {
                if card == CARD_UNKNOWN {
                    words.iter().all(|&w| w == 0)
                } else {
                    card == 0
                }
            }
            SetRef::Chunked { card, .. } | SetRef::EliasFano { card, .. } => card == 0,
        }
    }

    /// The container pieces of a [`SetRef::Chunked`] view.
    #[inline]
    fn chunk_pieces(self) -> ChunkView<'a> {
        match self {
            SetRef::Chunked {
                meta,
                data32,
                data64,
                universe,
                ..
            } => ChunkView {
                meta,
                data32,
                data64,
                universe,
            },
            _ => unreachable!("chunk_pieces on a non-chunked view"),
        }
    }

    /// The decoder pieces of a [`SetRef::EliasFano`] view.
    #[inline]
    fn ef_pieces(self) -> EfView<'a> {
        match self {
            SetRef::EliasFano {
                high,
                low,
                low_bits,
                card,
                ..
            } => EfView {
                high,
                low,
                l: low_bits,
                card,
            },
            _ => unreachable!("ef_pieces on a non-EF view"),
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, e: usize) -> bool {
        match self {
            SetRef::Sparse { elems, .. } => elems.binary_search(&(e as u32)).is_ok(),
            SetRef::Dense {
                words, universe, ..
            } => e < universe && words[e / 64] >> (e % 64) & 1 == 1,
            SetRef::Chunked { universe, .. } => {
                if e >= universe {
                    return false;
                }
                let v = self.chunk_pieces();
                let key = (e >> CHUNK_BITS) as u32;
                let (mut lo, mut hi) = (0, v.ncontainers());
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if v.key(mid) < key {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                if lo == v.ncontainers() || v.key(lo) != key {
                    return false;
                }
                let cont = v.container(lo);
                let local = (e & CHUNK_MASK) as u32;
                match cont.tag {
                    TAG_BITMAP => cont.words[local as usize / 64] >> (local % 64) & 1 == 1,
                    TAG_RUNS => (0..cont.nruns).any(|r| {
                        let (s, len) = cont.run(r);
                        (s..s + len).contains(&local)
                    }),
                    _ => {
                        let (mut a, mut b) = (0, cont.card);
                        while a < b {
                            let m = a + (b - a) / 2;
                            if cont.local(m) < local {
                                a = m + 1;
                            } else {
                                b = m;
                            }
                        }
                        a < cont.card && cont.local(a) == local
                    }
                }
            }
            // EF has no random access without a select structure: scan the
            // decoder with a monotone early exit. Fine for tests and the
            // occasional probe; hot paths use the sequential kernels.
            SetRef::EliasFano { .. } => {
                for x in self.ef_pieces().iter() {
                    if x >= e {
                        return x == e;
                    }
                }
                false
            }
        }
    }

    /// Iterates elements in increasing order.
    pub fn iter(self) -> SetRefIter<'a> {
        match self {
            SetRef::Sparse { elems, .. } => SetRefIter::Sparse(elems.iter()),
            SetRef::Dense { words, .. } => SetRefIter::Dense {
                words,
                word_idx: 0,
                current: words.first().copied().unwrap_or(0),
            },
            SetRef::Chunked { .. } => SetRefIter::Chunked(ChunkedIter {
                view: self.chunk_pieces(),
                ci: 0,
                cursor: None,
            }),
            SetRef::EliasFano { .. } => SetRefIter::EliasFano(self.ef_pieces().iter()),
        }
    }

    /// Collects the elements into a `Vec<usize>`.
    pub fn to_vec(self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Materializes the set as an owned [`BitSet`].
    pub fn to_bitset(self) -> BitSet {
        match self {
            SetRef::Sparse { elems, universe } => {
                BitSet::from_iter(universe, elems.iter().map(|&e| e as usize))
            }
            SetRef::Dense {
                words, universe, ..
            } => BitSet::from_words(universe, words),
            SetRef::Chunked { universe, .. } | SetRef::EliasFano { universe, .. } => {
                BitSet::from_iter(universe, self.iter())
            }
        }
    }

    /// `|self ∩ other|` — the coverage kernel. Specialized per
    /// representation pair; never allocates. Dispatches at
    /// [`KernelTier::effective`]; see
    /// [`intersection_len_tier`](Self::intersection_len_tier) to force a
    /// tier.
    pub fn intersection_len(self, other: SetRef<'_>) -> usize {
        self.intersection_len_tier(other, KernelTier::effective())
    }

    /// [`intersection_len`](Self::intersection_len) pinned to one kernel
    /// tier — the forced-tier knob of the equivalence batteries. The tier
    /// must be [supported](KernelTier::is_supported) on this CPU.
    pub fn intersection_len_tier(self, other: SetRef<'_>, tier: KernelTier) -> usize {
        self.assert_compat(other);
        match (self, other) {
            (SetRef::Sparse { elems: a, .. }, SetRef::Sparse { elems: b, .. }) => {
                merge_intersection_len_tier(a, b, tier)
            }
            (SetRef::Dense { words: a, .. }, SetRef::Dense { words: b, .. }) => {
                dense_and_popcount(a, b)
            }
            (SetRef::Sparse { elems, .. }, SetRef::Dense { words, .. })
            | (SetRef::Dense { words, .. }, SetRef::Sparse { elems, .. }) => {
                // Mixed pair: the same columnar probe the batched sweep
                // runs, so it shares the gather kernels. The probe reads
                // `words[e / 64]` unchecked — guard the (sorted) maximum
                // element against the slab, as the old checked loop did.
                assert!(
                    elems
                        .last()
                        .is_none_or(|&e| (e as usize) < words.len() * 64),
                    "sparse element out of the dense universe"
                );
                sparse_sweep_kernel_for(tier)(elems, words)
            }
            // Compressed hot pairs stay decode-free: containers dispatch
            // against word sub-slabs / sorted groups, EF decodes are
            // sequential merges. The tier's sparse probe and the dense
            // popcount do the inner counting, so the AVX2 gather still
            // applies.
            (c @ SetRef::Chunked { .. }, d @ SetRef::Chunked { .. }) => chunked_vs_chunked(
                c.chunk_pieces(),
                d.chunk_pieces(),
                sparse_sweep_kernel_for(tier),
            ),
            (c @ SetRef::Chunked { .. }, SetRef::Dense { words, .. })
            | (SetRef::Dense { words, .. }, c @ SetRef::Chunked { .. }) => {
                chunked_vs_words(c.chunk_pieces(), words, sparse_sweep_kernel_for(tier))
            }
            (c @ SetRef::Chunked { .. }, SetRef::Sparse { elems, .. })
            | (SetRef::Sparse { elems, .. }, c @ SetRef::Chunked { .. }) => {
                chunked_vs_sorted(c.chunk_pieces(), elems)
            }
            (a @ SetRef::EliasFano { .. }, b @ SetRef::EliasFano { .. }) => {
                ef_vs_ef(a.ef_pieces(), b.ef_pieces())
            }
            (e @ SetRef::EliasFano { .. }, SetRef::Dense { words, .. })
            | (SetRef::Dense { words, .. }, e @ SetRef::EliasFano { .. }) => {
                ef_vs_words(e.ef_pieces(), words, sparse_sweep_kernel_for(tier))
            }
            (e @ SetRef::EliasFano { .. }, SetRef::Sparse { elems, .. })
            | (SetRef::Sparse { elems, .. }, e @ SetRef::EliasFano { .. }) => {
                ef_vs_sorted(e.ef_pieces(), elems)
            }
            // The long-tail pair: decode the EF side to scratch once, then
            // run the chunked×sorted path (documented decode-to-scratch
            // fallback).
            (c @ SetRef::Chunked { .. }, e @ SetRef::EliasFano { .. })
            | (e @ SetRef::EliasFano { .. }, c @ SetRef::Chunked { .. }) => {
                let scratch: Vec<u32> = e.ef_pieces().iter().map(|x| x as u32).collect();
                chunked_vs_sorted(c.chunk_pieces(), &scratch)
            }
        }
    }

    /// `|self ∪ other|` (inclusion–exclusion over the intersection kernel).
    pub fn union_len(self, other: SetRef<'_>) -> usize {
        self.len() + other.len() - self.intersection_len(other)
    }

    /// `|self \ other|`.
    pub fn difference_len(self, other: SetRef<'_>) -> usize {
        self.len() - self.intersection_len(other)
    }

    /// Hamming distance `|self Δ other|`.
    pub fn hamming_distance(self, other: SetRef<'_>) -> usize {
        self.len() + other.len() - 2 * self.intersection_len(other)
    }

    /// Whether `self ∩ other = ∅`, with early exit.
    pub fn is_disjoint(self, other: SetRef<'_>) -> bool {
        self.assert_compat(other);
        match (self, other) {
            (SetRef::Sparse { elems: a, .. }, SetRef::Sparse { elems: b, .. }) => {
                merge_is_disjoint(a, b)
            }
            (SetRef::Dense { words: a, .. }, SetRef::Dense { words: b, .. }) => {
                a.iter().zip(b).all(|(x, y)| x & y == 0)
            }
            (SetRef::Sparse { elems, .. }, SetRef::Dense { words, .. })
            | (SetRef::Dense { words, .. }, SetRef::Sparse { elems, .. }) => elems
                .iter()
                .all(|&e| words[e as usize / 64] >> (e % 64) & 1 == 0),
            // Compressed pairs: the counting kernels already early-exit per
            // container / per merge step internally at worst linearly; an
            // exact-zero check through them is correct if not maximally
            // lazy.
            _ => self.intersection_len(other) == 0,
        }
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(self, other: SetRef<'_>) -> bool {
        self.assert_compat(other);
        match (self, other) {
            (SetRef::Dense { words: a, .. }, SetRef::Dense { words: b, .. }) => {
                a.iter().zip(b).all(|(x, y)| x & !y == 0)
            }
            (SetRef::Sparse { elems, .. }, _) => elems.iter().all(|&e| other.contains(e as usize)),
            _ => self.intersection_len(other) == self.len(),
        }
    }

    /// `self ∪ other` as an owned [`BitSet`].
    pub fn union(self, other: SetRef<'_>) -> BitSet {
        let mut out = self.to_bitset();
        out.union_with_ref(other);
        out
    }

    /// `self ∩ other` as an owned [`BitSet`].
    pub fn intersection(self, other: SetRef<'_>) -> BitSet {
        self.assert_compat(other);
        let mut out = BitSet::new(self.universe());
        for e in self.iter() {
            if other.contains(e) {
                out.insert(e);
            }
        }
        out
    }

    /// The sorted elements of `self ∩ domain` — the projection primitive
    /// (`S'_i = S_i ∩ U_smpl`) feeding [`SetStore::push_sorted`].
    pub fn intersection_elems(self, domain: &BitSet) -> Vec<u32> {
        assert_eq!(self.universe(), domain.capacity(), "universe mismatch");
        match self {
            SetRef::Sparse { elems, .. } => elems
                .iter()
                .copied()
                .filter(|&e| domain.contains(e as usize))
                .collect(),
            SetRef::Dense { words, .. } => {
                let mut out = Vec::new();
                for (wi, (w, dw)) in words.iter().zip(domain.words()).enumerate() {
                    let mut x = w & dw;
                    while x != 0 {
                        out.push((wi * 64) as u32 + x.trailing_zeros());
                        x &= x - 1;
                    }
                }
                out
            }
            SetRef::Chunked { .. } | SetRef::EliasFano { .. } => self
                .iter()
                .filter(|&e| domain.contains(e))
                .map(|e| e as u32)
                .collect(),
        }
    }

    /// Bits charged when this set is stored *as a member list*:
    /// `|S|·⌈log₂ n⌉`.
    pub fn stored_bits_sparse(self) -> u64 {
        self.len() as u64 * u64::from(ceil_log2(self.universe().max(2)))
    }

    /// Bits charged when this set is stored *as a bitmap*: `n`.
    pub fn stored_bits_dense(self) -> u64 {
        self.universe() as u64
    }

    /// Bits the *actual* representation costs — the accounting rule the
    /// refactored `SpaceMeter` call sites charge. For the compressed
    /// backends this is *measured* encoded size (every arena word the
    /// encoding occupies), not a model.
    pub fn stored_bits(self) -> u64 {
        match self {
            SetRef::Sparse { .. } => self.stored_bits_sparse(),
            SetRef::Dense { .. } => self.stored_bits_dense(),
            SetRef::Chunked {
                meta,
                data32,
                data64,
                ..
            } => 32 * (meta.len() + data32.len()) as u64 + 64 * data64.len() as u64,
            SetRef::EliasFano { high, low, .. } => 64 * (high.len() + low.len()) as u64,
        }
    }

    #[inline]
    fn assert_compat(self, other: SetRef<'_>) {
        assert_eq!(
            self.universe(),
            other.universe(),
            "set universe mismatch: {} vs {}",
            self.universe(),
            other.universe()
        );
    }
}

/// Merge-walk `|A ∩ B|` over strictly sorted slices.
///
/// On `x86_64` the walk runs in 4-element blocks: all 16 cross pairs of the
/// two current blocks are compared at once (SSE2 `cmpeq` against the three
/// rotations), then the block with the smaller maximum advances — the
/// classic vectorized sorted-set intersection. This matters because the
/// scalar walk's advance is a serial data-dependent chain (~3–4 ns per
/// element), which loses to the dense kernel's streaming word scan even at
/// `|A| + |B| ≪ n/64`; the block version restores the asymptotic win at
/// paper-regime sizes (`|S| ≈ n^{1/3}`, measured ≈ 2.2× faster than the
/// scalar walk and ≥ 3× faster than the dense kernel at `n = 2^14`).
/// The SSE2 block walk is gated on the tier (`Scalar` runs the branchless
/// walk end to end — the portable reference the forced-tier batteries
/// compare `Avx2` against).
fn merge_intersection_len_tier(a: &[u32], b: &[u32], tier: KernelTier) -> usize {
    // Skewed pairs (|A| ≪ |B|) gallop instead of merging: the block walk
    // still advances 4 elements of the *long* side per step, so a
    // `|A|·log|B|` exponential search beats the `O(|A|+|B|)` walk once the
    // ratio clears the crossover. 16 is conservative — at ratio 16 the
    // merge does ≥ 17·|A| lane advances vs ≈ |A|·(log₂ 16 + log₂(|B|/|A|))
    // probes for the gallop — and keeps balanced paper-regime pairs on the
    // SSE2 block path.
    const GALLOP_RATIO: usize = 16;
    if a.len() * GALLOP_RATIO < b.len() {
        return galloping_intersection_len(a, b);
    }
    if b.len() * GALLOP_RATIO < a.len() {
        return galloping_intersection_len(b, a);
    }
    let (mut i, mut j, mut c) = (0usize, 0usize, 0usize);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier; // the only tier above Scalar is x86-only
    #[cfg(target_arch = "x86_64")]
    if tier >= KernelTier::Avx2 {
        // SAFETY: SSE2 is part of the x86_64 baseline; loads stay in bounds
        // because the loop condition guarantees 4 readable lanes per side.
        unsafe {
            use std::arch::x86_64::*;
            while i + 4 <= a.len() && j + 4 <= b.len() {
                let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
                let vb = _mm_loadu_si128(b.as_ptr().add(j) as *const __m128i);
                let r0 = _mm_cmpeq_epi32(va, vb);
                let r1 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b00_11_10_01));
                let r2 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b01_00_11_10));
                let r3 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b10_01_00_11));
                let hits = _mm_or_si128(_mm_or_si128(r0, r1), _mm_or_si128(r2, r3));
                let mask = _mm_movemask_ps(_mm_castsi128_ps(hits));
                c += mask.count_ones() as usize;
                // Advance the side(s) whose block maximum is smaller; with
                // strictly increasing inputs no cross pair can span retired
                // blocks, so nothing is missed or double-counted.
                let amax = *a.get_unchecked(i + 3);
                let bmax = *b.get_unchecked(j + 3);
                i += 4 * usize::from(amax <= bmax);
                j += 4 * usize::from(bmax <= amax);
            }
        }
    }
    // Scalar branchless tail (and the whole walk on non-x86_64 targets):
    // cursors move by comparison results instead of a branchy three-way
    // match, keeping the loop free of unpredictable branches.
    while i < a.len() && j < b.len() {
        // SAFETY: the loop condition bounds both cursors; the compiler does
        // not eliminate the checks itself because the increments are
        // data-dependent.
        let (x, y) = unsafe { (*a.get_unchecked(i), *b.get_unchecked(j)) };
        c += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    c
}

/// Galloping `|small ∩ large|` over strictly sorted slices: for each
/// element of `small`, exponential search from a monotone cursor into
/// `large` (the cursor never rewinds, so the total work is
/// `O(|small|·log(|large|/|small|))` amortized). Only reached through the
/// crossover in [`merge_intersection_len_tier`]; the equivalence proptest pins
/// it against the merge walk.
fn galloping_intersection_len(small: &[u32], large: &[u32]) -> usize {
    let mut c = 0usize;
    let mut base = 0usize;
    for &x in small {
        if base >= large.len() {
            break;
        }
        if large[base] < x {
            // Gallop: double the step until large[base + step] ≥ x, then
            // binary-search the last doubled window for the lower bound.
            let mut step = 1usize;
            while base + step < large.len() && large[base + step] < x {
                step <<= 1;
            }
            let lo = base + (step >> 1);
            let hi = (base + step).min(large.len());
            base = lo + large[lo..hi].partition_point(|&v| v < x);
        }
        if let Some(&y) = large.get(base) {
            if y == x {
                c += 1;
                base += 1;
            }
        }
    }
    c
}

/// Early-exit merge-walk disjointness over sorted slices.
fn merge_is_disjoint(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// Iterator over a [`SetRef`]'s elements in increasing order.
pub enum SetRefIter<'a> {
    /// Sparse backend: walk the element slice.
    Sparse(std::slice::Iter<'a, u32>),
    /// Dense backend: scan words, popping set bits.
    Dense {
        /// The word slab.
        words: &'a [u64],
        /// Index of the word being drained.
        word_idx: usize,
        /// Remaining bits of the current word.
        current: u64,
    },
    /// Walks containers in key order, decoding each per its payload tag.
    Chunked(ChunkedIter<'a>),
    /// Sequential Elias–Fano decode.
    EliasFano(EfIter<'a>),
}

/// Container-by-container decoder behind [`SetRefIter::Chunked`].
pub struct ChunkedIter<'a> {
    view: ChunkView<'a>,
    ci: usize,
    cursor: Option<ChunkCursor>,
}

/// Decode position inside one container.
#[derive(Clone, Copy)]
enum ChunkCursor {
    /// Next array index.
    Array(usize),
    /// Current run index and offset inside it.
    Runs(usize, u32),
    /// Current bitmap word index and its remaining bits.
    Bitmap(usize, u64),
}

impl Iterator for ChunkedIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.ci >= self.view.ncontainers() {
                return None;
            }
            let c = self.view.container(self.ci);
            let state = self.cursor.get_or_insert_with(|| match c.tag {
                TAG_RUNS => ChunkCursor::Runs(0, 0),
                TAG_BITMAP => ChunkCursor::Bitmap(0, c.words.first().copied().unwrap_or(0)),
                _ => ChunkCursor::Array(0),
            });
            let local = match state {
                ChunkCursor::Array(i) => {
                    if *i < c.card {
                        let l = c.local(*i);
                        *i += 1;
                        Some(l as usize)
                    } else {
                        None
                    }
                }
                ChunkCursor::Runs(r, off) => {
                    if *r < c.nruns {
                        let (s, len) = c.run(*r);
                        let l = s + *off;
                        *off += 1;
                        if *off == len {
                            *r += 1;
                            *off = 0;
                        }
                        Some(l as usize)
                    } else {
                        None
                    }
                }
                ChunkCursor::Bitmap(w, cur) => loop {
                    if *cur != 0 {
                        let l = *w * 64 + cur.trailing_zeros() as usize;
                        *cur &= *cur - 1;
                        break Some(l);
                    }
                    *w += 1;
                    if *w >= c.words.len() {
                        break None;
                    }
                    *cur = c.words[*w];
                },
            };
            match local {
                Some(l) => return Some(c.base() + l),
                None => {
                    self.ci += 1;
                    self.cursor = None;
                }
            }
        }
    }
}

impl Iterator for SetRefIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            SetRefIter::Sparse(it) => it.next().map(|&e| e as usize),
            SetRefIter::Dense {
                words,
                word_idx,
                current,
            } => {
                while *current == 0 {
                    *word_idx += 1;
                    if *word_idx >= words.len() {
                        return None;
                    }
                    *current = words[*word_idx];
                }
                let bit = current.trailing_zeros() as usize;
                *current &= *current - 1;
                Some(*word_idx * 64 + bit)
            }
            SetRefIter::Chunked(it) => it.next(),
            SetRefIter::EliasFano(it) => it.next(),
        }
    }
}

impl<'a> IntoIterator for SetRef<'a> {
    type Item = usize;
    type IntoIter = SetRefIter<'a>;
    fn into_iter(self) -> SetRefIter<'a> {
        self.iter()
    }
}

impl PartialEq for SetRef<'_> {
    /// Semantic equality: same universe and same elements, regardless of
    /// representation.
    fn eq(&self, other: &Self) -> bool {
        if self.universe() != other.universe() || self.len() != other.len() {
            return false;
        }
        match (*self, *other) {
            (SetRef::Sparse { elems: a, .. }, SetRef::Sparse { elems: b, .. }) => a == b,
            (SetRef::Dense { words: a, .. }, SetRef::Dense { words: b, .. }) => a == b,
            (a, b) => a.iter().eq(b.iter()),
        }
    }
}

impl Eq for SetRef<'_> {}

impl PartialEq<BitSet> for SetRef<'_> {
    fn eq(&self, other: &BitSet) -> bool {
        *self == other.as_set_ref()
    }
}

impl PartialEq<&BitSet> for SetRef<'_> {
    fn eq(&self, other: &&BitSet) -> bool {
        *self == other.as_set_ref()
    }
}

impl PartialEq<SetRef<'_>> for BitSet {
    fn eq(&self, other: &SetRef<'_>) -> bool {
        self.as_set_ref() == *other
    }
}

impl fmt::Debug for SetRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.repr() {
            SetRepr::Sparse => "sparse",
            SetRepr::Dense => "dense",
            SetRepr::Chunked => "chunked",
            SetRepr::EliasFano => "ef",
        };
        write!(f, "SetRef<{tag}>[{}]{{", self.universe())?;
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

// In-place BitSet ⊕ SetRef operations (the working-set mutation kernels used
// by solvers and streaming algorithms, which keep their accumulators dense).
impl BitSet {
    /// In-place union with a stored set view: `self ∪= r`.
    pub fn union_with_ref(&mut self, r: SetRef<'_>) {
        assert_eq!(self.capacity(), r.universe(), "universe mismatch");
        match r {
            SetRef::Sparse { elems, .. } => {
                for &e in elems {
                    self.insert(e as usize);
                }
            }
            SetRef::Dense { words, .. } => {
                for (a, b) in self.words_mut().iter_mut().zip(words) {
                    *a |= b;
                }
            }
            SetRef::Chunked { .. } => {
                let v = r.chunk_pieces();
                for ci in 0..v.ncontainers() {
                    let c = v.container(ci);
                    let base = c.base();
                    match c.tag {
                        TAG_BITMAP => {
                            let wbase = base / 64;
                            for (wi, &w) in c.words.iter().enumerate() {
                                self.words_mut()[wbase + wi] |= w;
                            }
                        }
                        TAG_RUNS => {
                            for rn in 0..c.nruns {
                                let (s, len) = c.run(rn);
                                set_bit_range(
                                    self.words_mut(),
                                    base + s as usize,
                                    base + (s + len) as usize,
                                );
                            }
                        }
                        _ => {
                            for i in 0..c.card {
                                self.insert(base + c.local(i) as usize);
                            }
                        }
                    }
                }
            }
            SetRef::EliasFano { .. } => {
                for e in r.iter() {
                    self.insert(e);
                }
            }
        }
    }

    /// In-place difference with a stored set view: `self \= r`.
    pub fn difference_with_ref(&mut self, r: SetRef<'_>) {
        assert_eq!(self.capacity(), r.universe(), "universe mismatch");
        match r {
            SetRef::Sparse { elems, .. } => {
                for &e in elems {
                    self.remove(e as usize);
                }
            }
            SetRef::Dense { words, .. } => {
                for (a, b) in self.words_mut().iter_mut().zip(words) {
                    *a &= !b;
                }
            }
            SetRef::Chunked { .. } => {
                let v = r.chunk_pieces();
                for ci in 0..v.ncontainers() {
                    let c = v.container(ci);
                    let base = c.base();
                    match c.tag {
                        TAG_BITMAP => {
                            let wbase = base / 64;
                            for (wi, &w) in c.words.iter().enumerate() {
                                self.words_mut()[wbase + wi] &= !w;
                            }
                        }
                        TAG_RUNS => {
                            for rn in 0..c.nruns {
                                let (s, len) = c.run(rn);
                                clear_bit_range(
                                    self.words_mut(),
                                    base + s as usize,
                                    base + (s + len) as usize,
                                );
                            }
                        }
                        _ => {
                            for i in 0..c.card {
                                self.remove(base + c.local(i) as usize);
                            }
                        }
                    }
                }
            }
            SetRef::EliasFano { .. } => {
                for e in r.iter() {
                    self.remove(e);
                }
            }
        }
    }

    /// Borrows this bitset as a dense [`SetRef`] (cardinality resolved
    /// lazily, so the borrow itself is free).
    #[inline]
    pub fn as_set_ref(&self) -> SetRef<'_> {
        SetRef::Dense {
            words: self.words(),
            universe: self.capacity(),
            card: CARD_UNKNOWN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(policy: ReprPolicy, universe: usize, lists: &[&[u32]]) -> SetStore {
        let mut st = SetStore::with_policy(universe, policy);
        for l in lists {
            st.push_sorted(l);
        }
        st
    }

    #[test]
    fn auto_cutover_by_accounting_cost() {
        // n = 64 ⇒ ⌈log₂ 64⌉ = 6; sparse iff 6·|S| ≤ 64 ⇔ |S| ≤ 10.
        let mut st = SetStore::new(64);
        st.push_sorted(&(0..10).collect::<Vec<u32>>());
        st.push_sorted(&(0..11).collect::<Vec<u32>>());
        assert_eq!(st.get(0).repr(), SetRepr::Sparse);
        assert_eq!(st.get(1).repr(), SetRepr::Dense);
        assert_eq!(st.repr_counts(), [1, 1, 0, 0]);
    }

    #[test]
    fn forced_policies_override_auto() {
        let sp = store_with(ReprPolicy::ForceSparse, 16, &[&[0, 1, 2, 3, 4, 5, 6, 7]]);
        let de = store_with(ReprPolicy::ForceDense, 16, &[&[0]]);
        assert_eq!(sp.get(0).repr(), SetRepr::Sparse);
        assert_eq!(de.get(0).repr(), SetRepr::Dense);
    }

    #[test]
    fn views_agree_across_reprs() {
        let elems: Vec<u32> = vec![0, 3, 63, 64, 100, 127];
        let sp = store_with(ReprPolicy::ForceSparse, 128, &[&elems]);
        let de = store_with(ReprPolicy::ForceDense, 128, &[&elems]);
        let (a, b) = (sp.get(0), de.get(0));
        assert_eq!(a.len(), 6);
        assert_eq!(b.len(), 6);
        assert_eq!(a.to_vec(), b.to_vec());
        assert_eq!(a, b, "semantic equality across representations");
        assert!(a.contains(64) && b.contains(64));
        assert!(!a.contains(1) && !b.contains(1));
        assert_eq!(a.to_bitset(), b.to_bitset());
    }

    #[test]
    fn kernels_match_bitset_reference() {
        let xa: Vec<u32> = vec![1, 2, 3, 4, 70];
        let xb: Vec<u32> = vec![3, 4, 5, 6, 71];
        let n = 80;
        let ra = BitSet::from_iter(n, xa.iter().map(|&e| e as usize));
        let rb = BitSet::from_iter(n, xb.iter().map(|&e| e as usize));
        for pa in [ReprPolicy::ForceSparse, ReprPolicy::ForceDense] {
            for pb in [ReprPolicy::ForceSparse, ReprPolicy::ForceDense] {
                let sa = store_with(pa, n, &[&xa]);
                let sb = store_with(pb, n, &[&xb]);
                let (a, b) = (sa.get(0), sb.get(0));
                assert_eq!(a.intersection_len(b), ra.intersection_len(&rb));
                assert_eq!(a.union_len(b), ra.union_len(&rb));
                assert_eq!(a.difference_len(b), ra.difference_len(&rb));
                assert_eq!(a.hamming_distance(b), ra.hamming_distance(&rb));
                assert_eq!(a.is_disjoint(b), ra.is_disjoint(&rb));
                assert_eq!(a.is_subset_of(b), ra.is_subset_of(&rb));
                assert_eq!(a.union(b), ra.union(&rb));
                assert_eq!(a.intersection(b), ra.intersection(&rb));
            }
        }
    }

    #[test]
    fn bitset_ref_ops_and_as_set_ref() {
        let st = store_with(ReprPolicy::ForceSparse, 70, &[&[0, 5, 69]]);
        let r = st.get(0);
        let mut acc = BitSet::from_iter(70, [5, 6]);
        assert_eq!(r.intersection_len(acc.as_set_ref()), 1);
        acc.union_with_ref(r);
        assert_eq!(acc.to_vec(), vec![0, 5, 6, 69]);
        acc.difference_with_ref(r);
        assert_eq!(acc.to_vec(), vec![6]);
        assert_eq!(acc.as_set_ref().len(), 1, "lazy cardinality resolves");
    }

    #[test]
    fn intersection_elems_projects_sorted() {
        let dom = BitSet::from_iter(130, [0, 64, 65, 128]);
        for p in [ReprPolicy::ForceSparse, ReprPolicy::ForceDense] {
            let st = store_with(p, 130, &[&[0, 1, 64, 128, 129]]);
            assert_eq!(st.get(0).intersection_elems(&dom), vec![0, 64, 128]);
        }
    }

    #[test]
    fn push_ref_preserves_repr() {
        let src = store_with(ReprPolicy::ForceSparse, 512, &[&[1, 2, 3]]);
        let mut dst = SetStore::with_policy(512, ReprPolicy::ForceDense);
        dst.push_ref(src.get(0));
        assert_eq!(dst.get(0).repr(), SetRepr::Sparse, "repr copied verbatim");
        assert_eq!(dst.get(0), src.get(0));
    }

    #[test]
    fn stored_bits_accounting_rules() {
        // n = 1024 ⇒ 10 bits/element. Every other element is incompressible
        // structure: runs are singletons, EF needs 1536 bits, a chunked
        // bitmap 1152 — the plain 1024-bit bitmap wins the measured argmin.
        let mut st = SetStore::new(1024);
        st.push_sorted(&[0, 1, 2, 3]); // sparse: 40 bits
        st.push_sorted(&(0..1024).step_by(2).collect::<Vec<u32>>()); // dense
        assert_eq!(st.get(0).repr(), SetRepr::Sparse);
        assert_eq!(st.get(0).stored_bits(), 40);
        assert_eq!(st.get(1).repr(), SetRepr::Dense);
        assert_eq!(st.get(1).stored_bits(), 1024);
        assert_eq!(st.get(1).stored_bits_sparse(), 5120);
        assert_eq!(st.stored_bits(), 40 + 1024);
        assert_eq!(st.total_incidences(), 516);
    }

    #[test]
    fn remove_charges_tombstone_bits_until_compaction() {
        // Regression: tombstoned descriptors used to be invisible to
        // stored_bits — the arena still holds their bytes, so removal must
        // not make the store look cheaper until compact() reclaims them.
        let mut st = SetStore::new(1024);
        st.push_sorted(&[0, 1, 2, 3]); // sparse: 40 bits
        st.push_sorted(&(0..1024).step_by(2).collect::<Vec<u32>>()); // dense
        st.push_sorted(&[7, 9]); // sparse: 20 bits
        let before = st.stored_bits();
        assert_eq!(before, 40 + 1024 + 20);
        st.remove(1);
        assert!(st.is_tombstoned(1));
        assert!(!st.is_tombstoned(0));
        assert_eq!(st.tombstone_bits(), 1024);
        assert_eq!(st.num_tombstones(), 1);
        assert_eq!(
            st.stored_bits(),
            before,
            "removal alone reclaims nothing — the charge must persist"
        );
        // Idempotent: a second removal charges nothing more.
        st.remove(1);
        assert_eq!(st.tombstone_bits(), 1024);
        assert_eq!(st.num_tombstones(), 1);
        let lr = st.live_ratio();
        assert!((lr - 60.0 / 1084.0).abs() < 1e-12, "live_ratio = {lr}");
        // Compaction reclaims the arena and zeroes the charge.
        let map = st.compact();
        assert_eq!(st.stored_bits(), 60);
        assert_eq!(st.tombstone_bits(), 0);
        assert_eq!(st.num_tombstones(), 0);
        assert_eq!(st.live_ratio(), 1.0);
        assert_eq!(map.len_before(), 3);
        assert_eq!(map.len_after(), 2);
        assert_eq!(map.new_id(0), Some(0));
        assert_eq!(map.new_id(1), None);
        assert_eq!(map.new_id(2), Some(1));
        assert_eq!(map.remap_ids(&[2, 0]), vec![1, 0]);
        assert!(!map.is_identity());
        assert_eq!(st.get(1).to_vec(), vec![7, 9]);
    }

    #[test]
    fn compacting_a_tombstone_free_store_is_a_structural_noop() {
        for policy in [
            ReprPolicy::Auto,
            ReprPolicy::ForceSparse,
            ReprPolicy::ForceDense,
        ] {
            let mut st = SetStore::with_policy(300, policy);
            st.push_sorted(&[0, 1, 2]);
            st.push_sorted(&[]);
            st.push_sorted(&(0..250).collect::<Vec<u32>>());
            st.push_sorted(&[5, 70, 299]);
            let orig = st.clone();
            let map = st.compact();
            assert!(map.is_identity(), "{policy:?}");
            assert_eq!(map.len_before(), 4);
            assert_eq!(map.len_after(), 4);
            assert_eq!(
                st, orig,
                "{policy:?}: no-op compaction must be byte-identical (reprs \
                 copied verbatim, same arena layout)"
            );
        }
    }

    #[test]
    fn compaction_preserves_survivor_reprs_and_order() {
        // Force-sparse source stored into an Auto store keeps its repr
        // through compact() — the push_ref seam, not a policy re-choice.
        let src = store_with(
            ReprPolicy::ForceSparse,
            64,
            &[&(0..40).collect::<Vec<u32>>()],
        );
        let mut st = SetStore::new(64);
        st.push_ref(src.get(0)); // sparse despite Auto preferring dense
        st.push_sorted(&[1, 2]);
        st.push_sorted(&[3]);
        st.remove(1);
        let map = st.compact();
        assert_eq!(st.len(), 2);
        assert_eq!(st.get(0).repr(), SetRepr::Sparse, "repr survives verbatim");
        assert_eq!(st.get(0), src.get(0));
        assert_eq!(st.get(map.new_id(2).unwrap()).to_vec(), vec![3]);
    }

    #[test]
    #[should_panic(expected = "dropped by the compaction")]
    fn remap_of_a_dropped_id_panics() {
        let mut st = SetStore::new(8);
        st.push_sorted(&[0]);
        st.remove(0);
        st.compact().remap_ids(&[0]);
    }

    #[test]
    fn removing_a_pushed_empty_set_charges_nothing() {
        let mut st = SetStore::new(64);
        st.push_sorted(&[]);
        st.remove(0);
        assert!(st.is_tombstoned(0));
        assert_eq!(st.tombstone_bits(), 0, "an empty set occupies no arena");
        assert_eq!(st.live_ratio(), 1.0, "no stored bits at all");
        let map = st.compact();
        assert_eq!(st.len(), 0);
        assert_eq!(map.len_after(), 0);
    }

    #[test]
    fn empty_and_zero_universe() {
        let mut st = SetStore::new(0);
        st.push_sorted(&[]);
        assert!(st.get(0).is_empty());
        assert_eq!(st.get(0).len(), 0);
        assert_eq!(st.get(0).iter().count(), 0);
        assert_eq!(st.total_incidences(), 0);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_range_push_panics() {
        SetStore::new(8).push_sorted(&[8]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_push_panics() {
        // Must fail even though the *last* element is in range — otherwise
        // a rogue leading element would corrupt the merge kernels.
        SetStore::new(8).push_sorted(&[9, 2]);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mixed_universe_ops_panic() {
        let a = store_with(ReprPolicy::Auto, 8, &[&[1]]);
        let b = store_with(ReprPolicy::Auto, 9, &[&[1]]);
        a.get(0).intersection_len(b.get(0));
    }

    #[test]
    fn push_elems_sorts_and_dedups() {
        let mut st = SetStore::new(32);
        st.push_elems([5usize, 1, 5, 3, 1]);
        assert_eq!(st.get(0).to_vec(), vec![1, 3, 5]);
    }

    #[test]
    fn batched_sweep_matches_per_set_kernel() {
        let n = 200;
        let lists: [&[u32]; 4] = [
            &[0, 1, 2, 63, 64, 65, 127, 128, 199],
            &[],
            &[5, 70],
            &[9, 10, 11, 12, 13, 14, 15, 16, 17], // 9 elems → crosses chunks
        ];
        let residual = BitSet::from_iter(n, (0..n).filter(|e| e % 3 != 1));
        for policy in [
            ReprPolicy::ForceSparse,
            ReprPolicy::ForceDense,
            ReprPolicy::Auto,
        ] {
            let st = store_with(policy, n, &lists);
            let mut sweep = BatchedSweep::new();
            let expect: Vec<usize> = (0..st.len())
                .map(|i| st.get(i).intersection_len(residual.as_set_ref()))
                .collect();
            assert_eq!(sweep.gains(&st, &residual), &expect[..], "{policy:?}");
            // Subset sweeps agree on arbitrary id orders (with repeats).
            let ids = [3usize, 0, 0, 2];
            let expect_for: Vec<usize> = ids.iter().map(|&i| expect[i]).collect();
            assert_eq!(sweep.gains_for(&st, &ids, &residual), &expect_for[..]);
            // Sparse residual views go through the pairwise kernels.
            let mut rstore = SetStore::with_policy(n, ReprPolicy::ForceSparse);
            rstore.push_elems(residual.iter());
            assert_eq!(sweep.gains_vs_ref(&st, rstore.get(0)), &expect[..]);
            assert_eq!(sweep.gains_vs_ref(&st, residual.as_set_ref()), &expect[..]);
        }
    }

    #[test]
    fn batched_sweep_best_uses_greedy_tie_break() {
        let st = store_with(
            ReprPolicy::ForceSparse,
            16,
            &[&[0, 1], &[2, 3, 4], &[5, 6, 7], &[8]],
        );
        let mut sweep = BatchedSweep::new();
        sweep.gains(&st, &BitSet::full(16));
        // Sets 1 and 2 tie at gain 3; the smaller id wins.
        assert_eq!(sweep.best(), Some((1, 3)));
        sweep.gains(&st, &BitSet::new(16));
        assert_eq!(sweep.best(), None, "all-zero gains yield no pick");
        assert_eq!(sweep.last(), &[0, 0, 0, 0]);
    }

    #[test]
    fn gains_span_matches_full_sweep() {
        let n = 96;
        let st = store_with(
            ReprPolicy::Auto,
            n,
            &[&[0, 1, 2], &[], &[5, 70], &(0..90).collect::<Vec<u32>>()],
        );
        let residual = BitSet::from_iter(n, (0..n).filter(|e| e % 2 == 0));
        let mut sweep = BatchedSweep::new();
        let all = sweep.gains(&st, &residual).to_vec();
        assert_eq!(sweep.gains_span(&st, 0..4, &residual), &all[..]);
        assert_eq!(sweep.gains_span(&st, 1..3, &residual), &all[1..3]);
        assert_eq!(sweep.gains_span(&st, 2..2, &residual), &[] as &[usize]);
    }

    #[test]
    fn galloping_matches_merge_walk_on_skewed_pairs() {
        // |A| = 3 vs |B| = 64 crosses the ratio-16 crossover; the balanced
        // pair stays on the merge walk. Both must agree with a BitSet
        // reference.
        let a: Vec<u32> = vec![0, 63, 127];
        let b: Vec<u32> = (0..128).filter(|e| e % 2 == 1).collect();
        let n = 128;
        let sa = store_with(ReprPolicy::ForceSparse, n, &[&a]);
        let sb = store_with(ReprPolicy::ForceSparse, n, &[&b]);
        let expect = BitSet::from_iter(n, a.iter().map(|&e| e as usize))
            .intersection_len(&BitSet::from_iter(n, b.iter().map(|&e| e as usize)));
        assert_eq!(sa.get(0).intersection_len(sb.get(0)), expect);
        assert_eq!(sb.get(0).intersection_len(sa.get(0)), expect, "symmetric");
        assert_eq!(expect, 2); // 63 and 127
                               // Degenerate skews: empty small side, and small side past large.
        let empty = store_with(ReprPolicy::ForceSparse, n, &[&[]]);
        assert_eq!(empty.get(0).intersection_len(sb.get(0)), 0);
        let high = store_with(ReprPolicy::ForceSparse, n, &[&[126]]);
        let low: Vec<u32> = (0..64).collect();
        let slow = store_with(ReprPolicy::ForceSparse, n, &[&low]);
        assert_eq!(high.get(0).intersection_len(slow.get(0)), 0);
    }

    #[test]
    #[should_panic(expected = "residual universe mismatch")]
    fn batched_sweep_universe_mismatch_panics() {
        let st = store_with(ReprPolicy::Auto, 8, &[&[1]]);
        BatchedSweep::new().gains(&st, &BitSet::new(9));
    }

    #[test]
    fn kernel_tier_parse_order_and_detection() {
        assert_eq!(KernelTier::parse(" AVX2 "), Some(KernelTier::Avx2));
        assert_eq!(KernelTier::parse("scalar"), Some(KernelTier::Scalar));
        // The removed tiers' names parse like any other unknown value.
        assert_eq!(KernelTier::parse("sse2"), None);
        assert_eq!(KernelTier::parse("avx512"), None);
        assert_eq!(KernelTier::parse("neon"), None);
        assert_eq!(KernelTier::parse(""), None);
        assert!(KernelTier::Scalar < KernelTier::Avx2);
        assert_eq!(KernelTier::ALL, [KernelTier::Scalar, KernelTier::Avx2]);
        for tier in KernelTier::ALL {
            assert_eq!(KernelTier::parse(tier.name()), Some(tier));
        }
        // Scalar is always supported; effective() never exceeds detect().
        assert!(KernelTier::Scalar.is_supported());
        assert!(KernelTier::effective() <= KernelTier::detect());
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            KernelTier::Avx2.is_supported(),
            std::arch::is_x86_feature_detected!("avx2")
        );
    }

    #[test]
    fn every_supported_tier_sweeps_byte_equal() {
        // Direct pin of the forced-tier seam at the unit level (the
        // proptest batteries broaden this): sparse, dense, and mixed sets
        // against a residual with an odd word count (exercising the
        // gather probe's scalar tail), every supported tier vs Scalar.
        let n = 9 * 64 + 17; // 10 words, ragged last word
        let s0: Vec<u32> = (0..n as u32).step_by(3).collect();
        let s1: Vec<u32> = (0..n as u32).step_by(2).collect();
        let s2: Vec<u32> = vec![0, 1, 63, 64, 65, 127, 128, 576, (n - 1) as u32];
        let s3: Vec<u32> = (100..137).collect(); // 37 elems: 4 full blocks + tail 5
        let st = store_with(ReprPolicy::Auto, n, &[&s0, &s1, &s2, &s3, &[]]);
        let residual = BitSet::from_iter(n, (0..n).filter(|e| e % 5 != 0));
        let reference = BatchedSweep::with_tier(KernelTier::Scalar)
            .gains(&st, &residual)
            .to_vec();
        for tier in KernelTier::ALL {
            if !tier.is_supported() {
                eprintln!("skipping unsupported kernel tier {}", tier.name());
                continue;
            }
            let mut sweep = BatchedSweep::with_tier(tier);
            assert_eq!(sweep.tier(), tier);
            assert_eq!(sweep.gains(&st, &residual), &reference[..], "tier {tier:?}");
            // Pairwise kernels under the same forced tier.
            let r = residual.as_set_ref();
            for i in 0..st.len() {
                let v = st.get(i);
                assert_eq!(
                    v.intersection_len_tier(r, tier),
                    v.intersection_len_tier(r, KernelTier::Scalar),
                    "pairwise tier {tier:?}, set {i}"
                );
            }
        }
    }

    #[test]
    fn with_tier_panics_exactly_on_unsupported_tiers() {
        for tier in KernelTier::ALL {
            let forced = std::panic::catch_unwind(|| BatchedSweep::with_tier(tier));
            assert_eq!(forced.is_err(), !tier.is_supported(), "tier {tier:?}");
        }
    }

    /// A mixed-texture element list exercising all three container kinds in
    /// one chunked set: a long run (run container), a scattered tail
    /// (array container), and a half-full stretch (bitmap container).
    fn mixed_texture(n: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..3000).collect(); // chunk 0: run
        v.extend((CHUNK as u32..CHUNK as u32 + 4000).step_by(2)); // chunk 1: dense-ish scatter
        v.extend((2 * CHUNK as u32..n).step_by(997)); // tail chunks: sparse arrays
        v
    }

    #[test]
    fn chunked_and_ef_round_trip() {
        let n = 5 * CHUNK + 1234;
        let elems = mixed_texture(n as u32);
        for policy in [ReprPolicy::ForceChunked, ReprPolicy::ForceEliasFano] {
            let st = store_with(policy, n, &[&elems]);
            let s = st.get(0);
            assert_eq!(
                s.repr(),
                match policy {
                    ReprPolicy::ForceChunked => SetRepr::Chunked,
                    _ => SetRepr::EliasFano,
                }
            );
            assert_eq!(s.len(), elems.len());
            assert_eq!(
                s.to_vec(),
                elems.iter().map(|&e| e as usize).collect::<Vec<_>>(),
                "{policy:?} decode round-trip"
            );
            for &e in &[0u32, 2999, 3000, elems[elems.len() - 1]] {
                assert!(s.contains(e as usize) == elems.binary_search(&e).is_ok());
            }
            assert!(!s.contains(n), "out-of-universe probe");
        }
    }

    #[test]
    fn push_runs_equals_push_sorted() {
        // The run-native emitter must produce byte-identical descriptors to
        // the element-list path for the same set, under every policy.
        let n = 3 * CHUNK;
        let runs: &[(u32, u32)] = &[
            (0, 5000),                     // crosses nothing, long run
            (CHUNK as u32 - 10, 20),       // straddles the chunk 0/1 boundary
            (2 * CHUNK as u32 + 100, 1),   // singleton
            (2 * CHUNK as u32 + 200, 300), // mid-chunk run
        ];
        let elems: Vec<u32> = runs.iter().flat_map(|&(s, l)| s..s + l).collect();
        for policy in [
            ReprPolicy::Auto,
            ReprPolicy::ForceSparse,
            ReprPolicy::ForceDense,
            ReprPolicy::ForceChunked,
            ReprPolicy::ForceEliasFano,
        ] {
            let mut a = SetStore::with_policy(n, policy);
            a.push_runs(runs);
            let b = store_with(policy, n, &[&elems]);
            assert_eq!(a.get(0).repr(), b.get(0).repr(), "{policy:?}");
            assert_eq!(a.get(0), b.get(0), "{policy:?}");
            assert_eq!(a.stored_bits(), b.stored_bits(), "{policy:?}");
        }
    }

    #[test]
    fn push_runs_merges_adjacent_and_validates() {
        let mut st = SetStore::with_policy(CHUNK, ReprPolicy::ForceChunked);
        // Adjacent runs merge into one maximal run (canonical form).
        st.push_runs(&[(0, 10), (10, 10)]);
        let mut other = SetStore::with_policy(CHUNK, ReprPolicy::ForceChunked);
        other.push_runs(&[(0, 20)]);
        assert_eq!(st.stored_bits(), other.stored_bits());
        assert_eq!(st.get(0), other.get(0));
    }

    #[test]
    #[should_panic(expected = "overlaps or precedes its predecessor")]
    fn push_runs_rejects_overlap() {
        let mut st = SetStore::new(1024);
        st.push_runs(&[(0, 10), (5, 10)]);
    }

    #[test]
    fn auto_prefers_smallest_measured_encoding() {
        // One long run over a large universe: chunked run container (160
        // bits/chunk) beats sparse, dense, and EF by orders of magnitude.
        let n = 593 * 64; // ragged vs CHUNK on purpose
        let mut st = SetStore::new(n);
        st.push_sorted(&(100..137).collect::<Vec<u32>>());
        assert_eq!(st.get(0).repr(), SetRepr::Chunked);
        assert_eq!(st.get(0).stored_bits(), 160, "meta 128 + one run word 32");
        // Scattered far-apart elements: EF beats the 32-bit sparse list.
        let mut st = SetStore::new(1 << 22);
        let scattered: Vec<u32> = (0..4096).map(|i| i * 1024 + (i % 7)).collect();
        st.push_sorted(&scattered);
        assert_eq!(st.get(0).repr(), SetRepr::EliasFano);
        let s = st.get(0);
        assert!(
            s.stored_bits() < s.stored_bits_sparse() && s.stored_bits() < s.stored_bits_dense(),
            "EF measured {} vs sparse model {} / dense model {}",
            s.stored_bits(),
            s.stored_bits_sparse(),
            s.stored_bits_dense()
        );
        // Auto never exceeds any forcing (measured == charged argmin).
        let elems = mixed_texture((1 << 18) as u32);
        for policy in [
            ReprPolicy::ForceSparse,
            ReprPolicy::ForceDense,
            ReprPolicy::ForceChunked,
            ReprPolicy::ForceEliasFano,
        ] {
            let auto = store_with(ReprPolicy::Auto, 1 << 18, &[&elems]);
            let forced = store_with(policy, 1 << 18, &[&elems]);
            assert!(
                auto.stored_bits() <= forced.stored_bits(),
                "auto {} > {policy:?} {}",
                auto.stored_bits(),
                forced.stored_bits()
            );
        }
    }

    #[test]
    fn live_bits_counter_matches_rescan() {
        // Satellite pin: the O(1) counters must equal a full descriptor
        // rescan after every mutation kind (push × 4 reprs, push_runs,
        // push_ref, remove, compact).
        let rescan = |st: &SetStore| -> u64 {
            (0..st.len())
                .filter(|&i| !st.is_tombstoned(i))
                .map(|i| st.get(i).stored_bits())
                .sum()
        };
        let n = 2 * CHUNK;
        let mut st = SetStore::new(n);
        st.push_sorted(&[1, 2, 3]);
        st.push_sorted(&(0..(n as u32)).step_by(2).collect::<Vec<u32>>());
        st.push_sorted(&(500..9000).collect::<Vec<u32>>());
        st.push_runs(&[(40000, 2000), (70000, 9)]);
        let src = store_with(ReprPolicy::ForceEliasFano, n, &[&[7, 9000, 65000]]);
        st.push_ref(src.get(0));
        assert_eq!(st.stored_bits(), rescan(&st), "after pushes");
        st.remove(1);
        st.remove(3);
        assert_eq!(
            st.stored_bits(),
            rescan(&st) + st.tombstone_bits(),
            "tombstones stay charged"
        );
        st.compact();
        assert_eq!(st.stored_bits(), rescan(&st), "after compaction");
        assert_eq!(st.tombstone_bits(), 0);
    }

    #[test]
    fn compaction_preserves_compressed_reprs() {
        let n = 4 * CHUNK;
        let elems = mixed_texture(n as u32);
        let mut st = SetStore::new(n);
        let chunked_src = store_with(ReprPolicy::ForceChunked, n, &[&elems]);
        let ef_src = store_with(ReprPolicy::ForceEliasFano, n, &[&elems]);
        st.push_ref(chunked_src.get(0));
        st.push_sorted(&[3, 5]);
        st.push_ref(ef_src.get(0));
        st.remove(1);
        let before_chunked = st.get(0).stored_bits();
        let before_ef = st.get(2).stored_bits();
        let map = st.compact();
        assert_eq!(st.len(), 2);
        let c = st.get(map.new_id(0).unwrap());
        let e = st.get(map.new_id(2).unwrap());
        assert_eq!(c.repr(), SetRepr::Chunked, "chunked survives verbatim");
        assert_eq!(e.repr(), SetRepr::EliasFano, "EF survives verbatim");
        assert_eq!(c.stored_bits(), before_chunked);
        assert_eq!(e.stored_bits(), before_ef);
        assert_eq!(c, chunked_src.get(0));
        assert_eq!(e, ef_src.get(0));
    }
}
