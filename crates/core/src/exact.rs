//! Exact solvers, used to evaluate `opt(S, T)` on the paper's hard
//! distributions (Lemma 3.2, Lemma 4.3), as Algorithm 1's offline oracle
//! and as ground truth in tests.
//!
//! * [`cover_within`] — the one set-cover search: branch and bound over the
//!   least-covered-element rule, seeded with greedy's cover, pruned by the
//!   bound `⌈|uncovered| / max_i |S_i ∩ T|⌉` and capped at `k` picks. The
//!   wrappers [`exact_set_cover`], [`exact_cover_of`] and
//!   [`budgeted_cover_of`] run it uncapped; [`decide_opt_at_most`] — the
//!   decision variant `opt ≤ B` that Lemma 3.2's experiment needs
//!   (`opt ≤ 2α`?) — runs it capped at `B`.
//! * [`exact_max_coverage`] — exact max-k-cover by pruned enumeration, for
//!   the small `k` (the paper's hard instances use `k = 2`).
//!
//! At entry the search maps the target `T`'s elements to `0..|T|` in
//! increasing order and stores each set meeting `T` as one row `S_i ∩ T`
//! of `⌈|T|/64⌉` words: a bitmap-only system over `0..|T|` that greedy's
//! incumbent runs on unchanged. A CSR element→row index (offsets, then rows
//! in increasing set id) sits beside it. That costs at most
//! `m × ⌈|T|/64⌉` words per call — 4 MiB for 8192 sets over a 4096-element
//! target. After setup nothing reads the original sets. Each search depth
//! owns one residual buffer, written as `parent & !row`, and branch gains
//! are word-AND popcounts, so a node allocates nothing. A target element
//! in no row is the infeasibility witness, read off the index.
//!
//! These run in exponential time in the worst case; all experiment configs
//! keep the exact calls at sizes where they terminate in milliseconds.

use crate::bitset::BitSet;
use crate::greedy::greedy_cover_until;
use crate::store::{ReprPolicy, SetRef};
use crate::system::{SetId, SetSystem};
use std::cmp::Reverse;
use std::fmt;

#[cfg(test)]
mod reference;

/// Typed failure of a cover computation — the panic-free solver surface.
///
/// Callers used to unwrap `Option<usize>` sizes, which panicked without
/// context whenever some universe element was uncoverable; the error now
/// names a witness element instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoverError {
    /// No cover exists: `element` belongs to no set (the smallest such
    /// element of the requested target).
    Infeasible {
        /// A witness element outside `⋃_i S_i`.
        element: usize,
    },
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverError::Infeasible { element } => {
                write!(f, "no cover exists: element {element} belongs to no set")
            }
        }
    }
}

impl std::error::Error for CoverError {}

/// A minimum set cover found by the exact solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactCover {
    /// Ids of one minimum cover.
    pub ids: Vec<SetId>,
}

impl ExactCover {
    /// Minimum cover size.
    pub fn size(&self) -> usize {
        self.ids.len()
    }
}

/// The sets restricted to a target `T`, relabelled onto `0..|T|`.
struct Matrix {
    /// Words per row, `⌈|T|/64⌉`.
    w: usize,
    /// Row `r` is the relabelled `S_i ∩ T` of set `row_ids[r]`, stored as
    /// a bitmap over `0..|T|` so greedy runs on it as on any system.
    rows: SetSystem,
    /// Set id of each row, increasing (sets missing `T` get no row).
    row_ids: Vec<SetId>,
    /// CSR index: the rows containing element `c` are
    /// `rows_of[offsets[c]..offsets[c + 1]]`, in increasing order.
    offsets: Vec<u32>,
    rows_of: Vec<u32>,
    /// `max_i |S_i ∩ T|`.
    max_row: usize,
}

impl Matrix {
    /// Builds the rows and index for a nonempty `target`, or names the
    /// smallest target element that no set contains.
    fn build(sys: &SetSystem, target: &BitSet) -> Result<Matrix, CoverError> {
        let t = target.len();
        // Relabelling is a rank query: elements of T before word j, plus
        // the lower bits of word j.
        let tw = target.words();
        let mut before = Vec::with_capacity(tw.len());
        let mut acc = 0u32;
        for &word in tw {
            before.push(acc);
            acc += word.count_ones();
        }
        // One walk over the sets: relabelled elements per row, and each
        // element's frequency.
        let mut flat: Vec<u32> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        let mut row_ids = Vec::new();
        let mut offsets = vec![0u32; t + 1];
        for (i, s) in sys.iter() {
            let start = flat.len();
            for e in s.iter() {
                let word = tw[e / 64];
                let bit = 1u64 << (e % 64);
                if word & bit != 0 {
                    let c = before[e / 64] + (word & (bit - 1)).count_ones();
                    flat.push(c);
                    offsets[c as usize + 1] += 1;
                }
            }
            if flat.len() > start {
                starts.push(start);
                row_ids.push(i);
            }
        }
        starts.push(flat.len());
        if let Some(c) = (0..t).find(|&c| offsets[c + 1] == 0) {
            let element = target.iter().nth(c).expect("c < |T|");
            return Err(CoverError::Infeasible { element });
        }
        for c in 0..t {
            offsets[c + 1] += offsets[c];
        }
        // Fill rows and the index in increasing row order.
        let mut rows = SetSystem::with_policy(t, ReprPolicy::ForceDense);
        let mut rows_of = vec![0u32; flat.len()];
        let mut cursor = offsets[..t].to_vec();
        let mut max_row = 0;
        for (r, span) in starts.windows(2).enumerate() {
            let elems = &flat[span[0]..span[1]];
            rows.push_sorted(elems);
            for &c in elems {
                rows_of[cursor[c as usize] as usize] = r as u32;
                cursor[c as usize] += 1;
            }
            max_row = max_row.max(elems.len());
        }
        Ok(Matrix {
            w: t.div_ceil(64),
            rows,
            row_ids,
            offsets,
            rows_of,
            max_row,
        })
    }

    fn row(&self, r: u32) -> &[u64] {
        match self.rows.set(r as usize) {
            SetRef::Dense { words, .. } => words,
            _ => unreachable!("rows are stored dense"),
        }
    }
}

struct Searcher<'a> {
    mx: &'a Matrix,
    /// Best (smallest) cover of at most `cap` sets found so far.
    best: Option<Vec<SetId>>,
    /// Branches reaching this many picks are pruned.
    best_len: usize,
    /// Hard cap: never search deeper than this many picks.
    cap: usize,
    /// Level `d` is the residual after the `d` picks in `chosen`.
    resid: Vec<u64>,
    /// Rows picked on the current path.
    chosen: Vec<u32>,
    /// `(row, gain)` candidates of every open node, stacked by depth.
    cands: Vec<(u32, u32)>,
    nodes: u64,
    node_budget: u64,
    budget_hit: bool,
}

impl Searcher<'_> {
    /// Explores the node at `depth = chosen.len()` with `left` target
    /// elements uncovered.
    fn search(&mut self, depth: usize, left: usize) {
        self.nodes += 1;
        if self.nodes > self.node_budget {
            self.budget_hit = true;
            return;
        }
        if left == 0 {
            if depth < self.best_len {
                self.best_len = depth;
                self.best = Some(
                    self.chosen
                        .iter()
                        .map(|&r| self.mx.row_ids[r as usize])
                        .collect(),
                );
            }
            return;
        }
        let depth_limit = self
            .best_len
            .min(self.cap.saturating_add(1))
            .saturating_sub(1);
        // At best each further pick covers `max_row` elements (≥ 1: every
        // target element lies in some row).
        if depth >= depth_limit || depth + left.div_ceil(self.mx.max_row) > depth_limit {
            return;
        }
        let w = self.mx.w;
        let offsets = &self.mx.offsets;
        let freq = |c: usize| (offsets[c + 1] - offsets[c]) as usize;
        // Branch on an uncovered element contained in few sets: every cover
        // must include one of those sets, keeping the branching factor at
        // the element's (static) frequency. Scanning all uncovered elements
        // is O(n) per node; the first few hundred give an almost-minimal
        // pivot at a fraction of the cost on large universes.
        const PIVOT_SCAN: usize = 256;
        let residual = &self.resid[depth * w..(depth + 1) * w];
        let mut pivot = (usize::MAX, usize::MAX); // (element, frequency)
        let mut scanned = 0;
        'scan: for (j, &word) in residual.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let c = j * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if freq(c) < pivot.1 {
                    pivot = (c, freq(c));
                }
                scanned += 1;
                // A forced pick (frequency 1) cannot be beaten.
                if pivot.1 == 1 || scanned == PIVOT_SCAN {
                    break 'scan;
                }
            }
        }
        let elem = pivot.0;
        // Candidate sets containing the pivot, largest marginal gain first
        // (finds good solutions early ⇒ tighter pruning); the stable sort
        // keeps increasing ids among equal gains.
        let base = self.cands.len();
        for &r in &self.mx.rows_of[offsets[elem] as usize..offsets[elem + 1] as usize] {
            let gain: u32 = self
                .mx
                .row(r)
                .iter()
                .zip(residual)
                .map(|(a, b)| (a & b).count_ones())
                .sum();
            self.cands.push((r, gain));
        }
        self.cands[base..].sort_by_key(|&(_, gain)| Reverse(gain));
        for j in base..self.cands.len() {
            let (r, gain) = self.cands[j];
            let (parent, child) = self.resid.split_at_mut((depth + 1) * w);
            let parent = &parent[depth * w..];
            for ((c, p), s) in child[..w].iter_mut().zip(parent).zip(self.mx.row(r)) {
                *c = p & !s;
            }
            self.chosen.push(r);
            self.search(depth + 1, left - gain as usize);
            self.chosen.pop();
            if self.budget_hit {
                break;
            }
        }
        self.cands.truncate(base);
    }
}

/// Searches for a minimum cover of `target ⊆ [n]` using at most `k` sets —
/// the question Algorithm 1's step 3(c) asks of the stored projections
/// `S'_i = S_i ∩ U_smpl`, with `k = o͂pt`.
///
/// Returns the cover (`Ok(None)` if none of at most `k` sets was found)
/// and whether the search completed within `node_budget` nodes. A
/// completed search is exact: it returns a minimum cover iff `opt ≤ k`,
/// and then the same ids as the uncapped search. Returns
/// [`CoverError::Infeasible`] naming the smallest target element in no
/// set.
pub fn cover_within(
    sys: &SetSystem,
    target: &BitSet,
    k: usize,
    node_budget: u64,
) -> (Result<Option<Vec<SetId>>, CoverError>, bool) {
    if target.is_empty() {
        return (Ok(Some(Vec::new())), true);
    }
    let mx = match Matrix::build(sys, target) {
        Ok(mx) => mx,
        Err(e) => return (Err(e), true),
    };
    // Seed the incumbent with greedy's first k picks, when they cover.
    // Rows keep the sets' order, so greedy on the rows picks the same sets.
    let all = BitSet::full(target.len());
    let greedy = greedy_cover_until(&mx.rows, k, &all);
    let best = greedy
        .is_feasible()
        .then(|| greedy.ids.iter().map(|&r| mx.row_ids[r]).collect());
    let best_len = best.as_ref().map_or(usize::MAX, Vec::len);
    // Depth never exceeds the initial limit, which is at most |T|: greedy
    // covers T in at most |T| picks, or fails within k < |T| picks.
    let levels = best_len.min(k.saturating_add(1));
    let mut resid = vec![0u64; levels * mx.w];
    resid[..mx.w].copy_from_slice(all.words());
    let mut s = Searcher {
        mx: &mx,
        best,
        best_len,
        cap: k,
        resid,
        chosen: Vec::new(),
        cands: Vec::new(),
        nodes: 0,
        node_budget,
        budget_hit: false,
    };
    s.search(0, target.len());
    (Ok(s.best), !s.budget_hit)
}

/// Computes a minimum set cover exactly by branch and bound.
///
/// Returns [`CoverError::Infeasible`] (naming a witness element) instead of
/// panicking when the union of all sets does not cover the universe.
/// Worst-case exponential; intended for the small instances used to ground
/// the hard-distribution experiments and tests.
pub fn exact_set_cover(sys: &SetSystem) -> Result<ExactCover, CoverError> {
    exact_cover_of(sys, &BitSet::full(sys.universe()))
}

/// Computes a minimum collection of sets covering `target ⊆ [n]` exactly
/// (uncapped [`cover_within`]).
pub fn exact_cover_of(sys: &SetSystem, target: &BitSet) -> Result<ExactCover, CoverError> {
    budgeted_cover_of(sys, target, u64::MAX)
        .0
        .map(|ids| ExactCover { ids })
}

/// Budgeted variant of [`exact_cover_of`]: returns the best cover of
/// `target` found within `node_budget` search nodes plus whether the search
/// completed (`true` ⇒ the result is exactly optimal).
pub fn budgeted_cover_of(
    sys: &SetSystem,
    target: &BitSet,
    node_budget: u64,
) -> (Result<Vec<SetId>, CoverError>, bool) {
    let (best, complete) = cover_within(sys, target, usize::MAX, node_budget);
    let best = best.map(|ids| ids.expect("uncapped, greedy's cover is the incumbent"));
    (best, complete)
}

/// Answer of the bounded decision procedure [`decide_opt_at_most`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// A cover of size ≤ B exists (witnessed).
    Yes,
    /// Search exhausted: no cover of size ≤ B exists.
    No,
    /// Node budget exhausted before the search completed.
    Unknown,
}

/// Decides whether `opt(sys) ≤ bound`, with a node budget to keep hard
/// instances (which is the point: Lemma 3.2's instances are hard) bounded.
///
/// `Decision::No` is exact (full search completed); `Unknown` means the
/// budget ran out with no witness found.
pub fn decide_opt_at_most(sys: &SetSystem, bound: usize, node_budget: u64) -> Decision {
    // Fast path: greedy against the bound.
    let full = BitSet::full(sys.universe());
    if greedy_cover_until(sys, bound, &full).is_feasible() {
        return Decision::Yes;
    }
    match cover_within(sys, &full, bound, node_budget) {
        (Ok(Some(_)), _) => Decision::Yes,
        (_, false) => Decision::Unknown,
        _ => Decision::No,
    }
}

/// Exact maximum `k`-coverage by depth-first enumeration with a
/// sorted-marginals pruning bound. Returns the best ids and their coverage.
///
/// Complexity is `O(m choose k)` in the worst case — the paper's hard
/// maximum coverage instances use `k = 2`, where this is trivially fast.
pub fn exact_max_coverage(sys: &SetSystem, k: usize) -> (Vec<SetId>, usize) {
    let m = sys.len();
    if k == 0 || m == 0 {
        return (Vec::new(), 0);
    }
    // Order sets by decreasing size; the prefix sums of sizes upper-bound any
    // extension's additional coverage.
    let mut order: Vec<SetId> = (0..m).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(sys.set(i).len()));
    let sizes: Vec<usize> = order.iter().map(|&i| sys.set(i).len()).collect();
    // suffix_best[j][r] = max additional coverage achievable picking r sets
    // from order[j..] — bounded by sum of the r largest sizes there.
    let mut best_ids: Vec<SetId> = Vec::new();
    let mut best_cov = 0usize;

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        sys: &SetSystem,
        order: &[SetId],
        sizes: &[usize],
        j: usize,
        remaining: usize,
        covered: &BitSet,
        chosen: &mut Vec<SetId>,
        best_ids: &mut Vec<SetId>,
        best_cov: &mut usize,
    ) {
        let cov = covered.len();
        if cov > *best_cov {
            *best_cov = cov;
            *best_ids = chosen.clone();
        }
        if remaining == 0 || j >= order.len() {
            return;
        }
        // Optimistic bound: current coverage + sizes of next `remaining`.
        let bound: usize = cov + sizes[j..].iter().take(remaining).sum::<usize>();
        if bound <= *best_cov {
            return;
        }
        // Branch: include order[j] or skip it.
        let mut with = covered.clone();
        with.union_with_ref(sys.set(order[j]));
        chosen.push(order[j]);
        dfs(
            sys,
            order,
            sizes,
            j + 1,
            remaining - 1,
            &with,
            chosen,
            best_ids,
            best_cov,
        );
        chosen.pop();
        dfs(
            sys,
            order,
            sizes,
            j + 1,
            remaining,
            covered,
            chosen,
            best_ids,
            best_cov,
        );
    }

    dfs(
        sys,
        &order,
        &sizes,
        0,
        k.min(m),
        &BitSet::new(sys.universe()),
        &mut Vec::new(),
        &mut best_ids,
        &mut best_cov,
    );
    (best_ids, best_cov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_max_coverage, greedy_set_cover};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn demo() -> SetSystem {
        SetSystem::from_elements(6, &[vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![0, 5]])
    }

    #[test]
    fn exact_matches_known_opt() {
        let r = exact_set_cover(&demo()).expect("demo is coverable");
        assert_eq!(r.size(), 2);
        assert!(demo().is_cover(&r.ids));
    }

    /// Classic instance family where greedy uses Θ(log n) · opt sets.
    /// Universe 0..14; opt = 2 (two rows of 7). Columns of sizes 8,4,2
    /// bait greedy.
    fn trap() -> SetSystem {
        SetSystem::from_elements(
            14,
            &[
                (0..7).collect(),
                (7..14).collect(),
                vec![0, 1, 2, 3, 7, 8, 9, 10],
                vec![4, 5, 11, 12],
                vec![6, 13],
            ],
        )
    }

    #[test]
    fn exact_beats_greedy_on_trap() {
        let sys = trap();
        let g = greedy_set_cover(&sys);
        let e = exact_set_cover(&sys).expect("coverable");
        assert_eq!(e.size(), 2);
        assert!(g.size() >= 3, "greedy should take the bait: {:?}", g.ids);
    }

    #[test]
    fn exact_infeasible_names_a_witness() {
        let sys = SetSystem::from_elements(3, &[vec![0]]);
        let err = exact_set_cover(&sys).unwrap_err();
        assert_eq!(err, CoverError::Infeasible { element: 1 });
        assert!(err.to_string().contains("element 1"), "{err}");
    }

    #[test]
    fn exact_trivial_cases() {
        // Single full set.
        let sys = SetSystem::from_elements(4, &[vec![0, 1, 2, 3]]);
        assert_eq!(exact_set_cover(&sys).map(|c| c.size()), Ok(1));
        // Zero universe: empty cover is optimal.
        let sys0 = SetSystem::new(0);
        assert_eq!(exact_set_cover(&sys0).map(|c| c.size()), Ok(0));
    }

    #[test]
    fn decision_variants() {
        let sys = demo();
        assert_eq!(decide_opt_at_most(&sys, 2, 1 << 20), Decision::Yes);
        assert_eq!(decide_opt_at_most(&sys, 1, 1 << 20), Decision::No);
        let inf = SetSystem::from_elements(3, &[vec![0]]);
        assert_eq!(decide_opt_at_most(&inf, 3, 1 << 20), Decision::No);
    }

    #[test]
    fn decision_budget_exhaustion_reports_unknown() {
        // A moderately large random instance with a tiny node budget.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 64;
        let sets: Vec<Vec<usize>> = (0..40)
            .map(|_| (0..n).filter(|_| rng.gen_bool(0.08)).collect())
            .collect();
        let mut sys = SetSystem::from_elements(n, &sets);
        // Make it coverable. Bound 0 on a coverable instance: never Yes.
        sys.push(crate::bitset::BitSet::full(n));
        assert_ne!(decide_opt_at_most(&sys, 0, 10), Decision::Yes);
        // It must never claim No incorrectly when a cover exists.
        let d = decide_opt_at_most(&sys, 1, u64::MAX);
        assert_eq!(d, Decision::Yes, "full set exists ⇒ opt = 1");
        // On the trap greedy needs 3 sets and opt = 2, so the greedy fast
        // path fails and a 1-node budget trips before any witness of 2.
        assert_eq!(decide_opt_at_most(&trap(), 2, 1), Decision::Unknown);
        assert_eq!(decide_opt_at_most(&trap(), 2, u64::MAX), Decision::Yes);
        assert_eq!(decide_opt_at_most(&trap(), 1, u64::MAX), Decision::No);
    }

    #[test]
    fn cover_of_target_subset() {
        let sys = demo();
        // Target {4,5}: one set suffices.
        let t = crate::bitset::BitSet::from_iter(6, [4, 5]);
        assert_eq!(exact_cover_of(&sys, &t).map(|c| c.size()), Ok(1));
        // Empty target: empty cover.
        let r0 = exact_cover_of(&sys, &crate::bitset::BitSet::new(6));
        assert_eq!(r0.map(|c| c.size()), Ok(0));
        // Target containing an uncoverable element: the witness is the
        // smallest uncoverable element *of the target*.
        let sys2 = SetSystem::from_elements(3, &[vec![0]]);
        let t2 = crate::bitset::BitSet::from_iter(3, [0, 2]);
        assert_eq!(
            exact_cover_of(&sys2, &t2),
            Err(CoverError::Infeasible { element: 2 })
        );
    }

    #[test]
    fn budgeted_cover_reports_completion() {
        let sys = demo();
        let full = crate::bitset::BitSet::full(6);
        let (ids, complete) = budgeted_cover_of(&sys, &full, u64::MAX);
        assert!(complete);
        assert_eq!(ids.unwrap().len(), 2);
        // Tiny budget: may be incomplete but still returns greedy incumbent.
        let (ids2, _) = budgeted_cover_of(&sys, &full, 1);
        assert!(sys.is_cover(&ids2.unwrap()));
    }

    #[test]
    fn exact_max_coverage_small() {
        let sys = demo();
        let (ids, cov) = exact_max_coverage(&sys, 1);
        assert_eq!(cov, 3);
        assert_eq!(ids.len(), 1);
        let (ids2, cov2) = exact_max_coverage(&sys, 2);
        assert_eq!(cov2, 6);
        assert!(sys.coverage_len(&ids2) == 6);
        let (_, cov_all) = exact_max_coverage(&sys, 10);
        assert_eq!(cov_all, 6);
        let (ids0, cov0) = exact_max_coverage(&sys, 0);
        assert!(ids0.is_empty() && cov0 == 0);
    }

    #[test]
    fn exact_max_coverage_dominates_greedy_randomized() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..30 {
            let n = 24;
            let m = 10;
            let sets: Vec<Vec<usize>> = (0..m)
                .map(|_| (0..n).filter(|_| rng.gen_bool(0.25)).collect())
                .collect();
            let sys = SetSystem::from_elements(n, &sets);
            for k in 1..=3 {
                let (_, ex) = exact_max_coverage(&sys, k);
                let gr = greedy_max_coverage(&sys, k).coverage();
                assert!(ex >= gr, "trial {trial} k={k}: exact {ex} < greedy {gr}");
                // (1 - 1/e) guarantee with slack for integrality.
                assert!(
                    gr as f64 >= 0.63 * ex as f64 - 1e-9,
                    "trial {trial} k={k}: greedy {gr} below guarantee vs {ex}"
                );
            }
        }
    }

    #[test]
    fn exact_cover_randomized_agrees_with_bruteforce() {
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..25 {
            let n = 10;
            let m = 7;
            let sets: Vec<Vec<usize>> = (0..m)
                .map(|_| (0..n).filter(|_| rng.gen_bool(0.4)).collect())
                .collect();
            let sys = SetSystem::from_elements(n, &sets);
            // Brute force over all 2^m subsets.
            let mut brute: Option<usize> = None;
            for mask in 0u32..(1 << m) {
                let ids: Vec<usize> = (0..m).filter(|i| mask >> i & 1 == 1).collect();
                if sys.is_cover(&ids) {
                    brute = Some(brute.map_or(ids.len(), |b: usize| b.min(ids.len())));
                }
            }
            assert_eq!(
                exact_set_cover(&sys).ok().map(|c| c.size()),
                brute,
                "trial {trial}"
            );
        }
    }
    /// Random small instances for the differential test: a target that may
    /// be any subset of the universe (so sets stick out of it and it may be
    /// uncoverable), empty sets, and an optional duplicate of set 0. Sets
    /// are sparse, so greedy is often suboptimal and the search's branch
    /// order decides the ids.
    fn arb_instance() -> impl proptest::Strategy<Value = (SetSystem, BitSet)> {
        use proptest::prelude::*;
        (1usize..15, 0usize..11).prop_flat_map(|(n, m)| {
            (
                proptest::collection::vec(proptest::collection::vec(0usize..n, 0..n / 2 + 2), m),
                proptest::collection::vec(0u8..4, n),
                proptest::bool::ANY,
            )
                .prop_map(move |(mut lists, keep, dup)| {
                    if dup && !lists.is_empty() {
                        lists.push(lists[0].clone());
                    }
                    let sys = SetSystem::from_elements(n, &lists);
                    // Three in four elements are in the target.
                    let target = BitSet::from_iter(n, (0..n).filter(|&e| keep[e] != 0));
                    (sys, target)
                })
        })
    }

    /// Minimum number of sets covering `target`, by enumerating subsets.
    fn brute_opt(sys: &SetSystem, target: &BitSet) -> Option<usize> {
        (0u32..1 << sys.len())
            .filter_map(|mask| {
                let ids: Vec<SetId> = (0..sys.len()).filter(|i| mask >> i & 1 == 1).collect();
                target
                    .is_subset_of(&sys.coverage(&ids))
                    .then_some(ids.len())
            })
            .min()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn cover_within_matches_reference_and_bruteforce(inst in arb_instance()) {
            use proptest::{prop_assert, prop_assert_eq};
            let (sys, target) = inst;
            // Ids are byte-identical to the reference search.
            let (expect, _) = reference::run_search(&sys, &target, usize::MAX, u64::MAX);
            let got = exact_cover_of(&sys, &target).map(|c| c.ids);
            prop_assert_eq!(&got, &expect);
            // The size is the optimum.
            let opt = brute_opt(&sys, &target);
            prop_assert_eq!(got.as_ref().ok().map(Vec::len), opt);
            let full_opt = brute_opt(&sys, &BitSet::full(sys.universe()));
            // Capped at k: a cover of ≤ k sets iff opt ≤ k, and then the
            // uncapped ids.
            for k in 0..=sys.len() + 1 {
                let (within, complete) = cover_within(&sys, &target, k, u64::MAX);
                prop_assert!(complete);
                match (&got, within) {
                    (Err(e), within) => prop_assert_eq!(within, Err(*e)),
                    (Ok(ids), Ok(within)) => {
                        let fits = ids.len() <= k;
                        prop_assert_eq!(within.as_ref(), fits.then_some(ids), "k = {}", k);
                    }
                    (Ok(_), Err(e)) => prop_assert!(false, "k = {}: spurious {}", k, e),
                }
                // The decision variant over the whole universe.
                let yes = full_opt.is_some_and(|o| o <= k);
                let expect = if yes { Decision::Yes } else { Decision::No };
                prop_assert_eq!(decide_opt_at_most(&sys, k, u64::MAX), expect, "k = {}", k);
            }
        }
    }
}
