//! The set-cover search as it stood before the compact bit-matrix rewrite,
//! kept verbatim as the reference the differential property test in
//! `exact.rs` compares [`super::cover_within`] against: ids must be
//! byte-identical on every completed search.

use crate::bitset::BitSet;
use crate::exact::CoverError;
use crate::greedy::greedy_cover_until;
use crate::system::{SetId, SetSystem};

struct Searcher<'a> {
    sys: &'a SetSystem,
    /// Best (smallest) feasible solution found so far.
    best: Vec<SetId>,
    /// Upper bound on useful solution size: we prune branches ≥ this.
    best_len: usize,
    /// Hard cap: never search deeper than this many picks (decision mode).
    cap: usize,
    /// Sets sorted by decreasing size — used to lower-bound remaining picks.
    sizes_desc: Vec<usize>,
    /// `sets_containing[e]` = ids of the sets containing element `e`
    /// (static: picking sets never changes which sets exist).
    sets_containing: Vec<Vec<SetId>>,
    nodes: u64,
    node_budget: u64,
    budget_hit: bool,
}

impl<'a> Searcher<'a> {
    fn lower_bound(&self, uncovered: usize) -> usize {
        // At best each further pick covers max set size elements.
        let max_sz = *self.sizes_desc.first().unwrap_or(&0);
        if max_sz == 0 {
            return usize::MAX;
        }
        uncovered.div_ceil(max_sz)
    }

    fn search(&mut self, uncovered: &BitSet, chosen: &mut Vec<SetId>) {
        self.nodes += 1;
        if self.nodes > self.node_budget {
            self.budget_hit = true;
            return;
        }
        if uncovered.is_empty() {
            if chosen.len() < self.best_len {
                self.best_len = chosen.len();
                self.best = chosen.clone();
            }
            return;
        }
        let depth_limit = self
            .best_len
            .min(self.cap.saturating_add(1))
            .saturating_sub(1);
        if chosen.len() >= depth_limit {
            return;
        }
        if chosen
            .len()
            .saturating_add(self.lower_bound(uncovered.len()))
            > depth_limit
        {
            return;
        }
        // Branch on an uncovered element contained in few sets: every cover
        // must include one of those sets, keeping the branching factor at
        // the element's (static) frequency. Scanning all uncovered elements
        // is O(n) per node; the first few hundred give an almost-minimal
        // pivot at a fraction of the cost on large universes.
        const PIVOT_SCAN: usize = 256;
        let mut pivot: Option<(usize, usize)> = None; // (element, frequency)
        for e in uncovered.iter().take(PIVOT_SCAN) {
            let freq = self.sets_containing[e].len();
            if freq == 0 {
                return; // element uncoverable ⇒ dead end
            }
            match pivot {
                Some((_, f)) if f <= freq => {}
                _ => pivot = Some((e, freq)),
            }
            if freq == 1 {
                break; // cannot do better than a forced pick
            }
        }
        let (elem, _) = pivot.expect("uncovered nonempty");
        // Candidate sets containing the pivot, largest marginal gain first
        // (finds good solutions early ⇒ tighter pruning).
        let mut cands: Vec<(SetId, usize)> = self.sets_containing[elem]
            .iter()
            .map(|&i| (i, self.sys.set(i).intersection_len(uncovered.as_set_ref())))
            .collect();
        cands.sort_by_key(|&(_, gain)| std::cmp::Reverse(gain));
        for (i, _) in cands {
            let mut next = uncovered.clone();
            next.difference_with_ref(self.sys.set(i));
            chosen.push(i);
            self.search(&next, chosen);
            chosen.pop();
            if self.budget_hit {
                return;
            }
        }
    }
}

pub(super) fn run_search(
    sys: &SetSystem,
    target: &BitSet,
    cap: usize,
    node_budget: u64,
) -> (Result<Vec<SetId>, CoverError>, bool) {
    if target.is_empty() {
        return (Ok(Vec::new()), false);
    }
    let all: Vec<SetId> = (0..sys.len()).collect();
    let coverable = sys.coverage(&all);
    if !target.is_subset_of(&coverable) {
        let element = target
            .iter()
            .find(|&e| !coverable.contains(e))
            .expect("a witness element exists when target ⊄ coverage");
        return (Err(CoverError::Infeasible { element }), false);
    }
    // Seed the incumbent with greedy (feasible by coverability).
    let greedy = greedy_cover_until(sys, usize::MAX, target);
    let mut sizes_desc: Vec<usize> = sys.iter().map(|(_, s)| s.len()).collect();
    sizes_desc.sort_unstable_by(|a, b| b.cmp(a));
    let mut sets_containing: Vec<Vec<SetId>> = vec![Vec::new(); sys.universe()];
    for (i, s) in sys.iter() {
        for e in s.iter() {
            sets_containing[e].push(i);
        }
    }
    let mut s = Searcher {
        sys,
        best_len: greedy.ids.len(),
        best: greedy.ids,
        cap,
        sizes_desc,
        sets_containing,
        nodes: 0,
        node_budget,
        budget_hit: false,
    };
    s.search(target, &mut Vec::new());
    (Ok(s.best), s.budget_hit)
}
