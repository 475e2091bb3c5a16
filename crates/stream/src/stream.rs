//! The set-streaming model: sets arrive one at a time; algorithms may make
//! several passes; the substrate counts them.
//!
//! A [`SetStream`] wraps a [`SetSystem`] with an arrival order. Data is only
//! reachable through [`SetStream::pass`], which increments the pass counter
//! — a reported pass count therefore cannot lie. Random-arrival streams fix
//! one uniform permutation for the whole run (the model of Theorem 1);
//! an optional mode reshuffles between passes for ablations.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use streamcover_core::{SetId, SetRef, SetSystem};

/// Arrival order of a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// Sets arrive in instance order (worst case / adversary-chosen).
    Adversarial,
    /// Sets arrive in a uniformly random order fixed once per run,
    /// derived from the given seed.
    Random {
        /// Seed of the arrival permutation.
        seed: u64,
    },
    /// A fresh uniform order every pass (not a model in the paper; used by
    /// the arrival-order ablation E9).
    ReshuffledEachPass {
        /// Seed of the per-pass permutations.
        seed: u64,
    },
}

impl Arrival {
    /// Materializes the first-pass order for `m` sets.
    pub fn initial_order(self, m: usize) -> Vec<SetId> {
        let mut order: Vec<SetId> = (0..m).collect();
        match self {
            Arrival::Adversarial => {}
            Arrival::Random { seed } | Arrival::ReshuffledEachPass { seed } => {
                order.shuffle(&mut StdRng::seed_from_u64(seed));
            }
        }
        order
    }
}

/// A multi-pass stream over a set system.
pub struct SetStream<'a> {
    sys: &'a SetSystem,
    order: Vec<SetId>,
    passes: usize,
    reshuffler: Option<StdRng>,
}

impl<'a> SetStream<'a> {
    /// Creates a stream with the given arrival order.
    pub fn new(sys: &'a SetSystem, arrival: Arrival) -> Self {
        let order = arrival.initial_order(sys.len());
        let reshuffler = match arrival {
            Arrival::ReshuffledEachPass { seed } => Some(StdRng::seed_from_u64(seed ^ 0x5eed)),
            _ => None,
        };
        SetStream {
            sys,
            order,
            passes: 0,
            reshuffler,
        }
    }

    /// Universe size `n` (known to algorithms up front, as is standard).
    pub fn universe(&self) -> usize {
        self.sys.universe()
    }

    /// Number of sets `m` (also known up front).
    pub fn num_sets(&self) -> usize {
        self.sys.len()
    }

    /// Starts the next pass, yielding `(id, set)` in arrival order. The id
    /// is the set's identity in the underlying instance, so solutions are
    /// stated in instance coordinates regardless of arrival order.
    pub fn pass(&mut self) -> Pass<'_> {
        self.passes += 1;
        if let Some(rng) = &mut self.reshuffler {
            self.order.shuffle(rng);
        }
        Pass {
            sys: self.sys,
            order: &self.order,
            pos: 0,
        }
    }

    /// Number of passes started so far.
    pub fn passes_made(&self) -> usize {
        self.passes
    }

    /// The underlying instance, at the stream's own lifetime — this is what
    /// lets [`crate::parallel::ParallelPass`] workers read sets side by
    /// side during one shared pass (the borrow is not tied to `&self`, so
    /// it coexists with the arrival-order borrow). Crate-private on
    /// purpose: data must stay reachable only through [`SetStream::pass`]
    /// so a reported pass count cannot lie; the engine calls `pass()`
    /// exactly once per fan-out.
    pub(crate) fn system(&self) -> &'a SetSystem {
        self.sys
    }

    /// The current arrival permutation (exposed for tests/diagnostics).
    pub fn order(&self) -> &[SetId] {
        &self.order
    }
}

/// Iterator over one pass of the stream.
pub struct Pass<'a> {
    sys: &'a SetSystem,
    order: &'a [SetId],
    pos: usize,
}

impl<'a> Iterator for Pass<'a> {
    type Item = (SetId, SetRef<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let &id = self.order.get(self.pos)?;
        self.pos += 1;
        Some((id, self.sys.set(id)))
    }
}

impl ExactSizeIterator for Pass<'_> {
    fn len(&self) -> usize {
        self.order.len() - self.pos
    }
}

/// Draws a per-run seed from an `rng`, for building `Arrival::Random` values
/// inside randomized harnesses.
pub fn random_arrival<R: Rng + ?Sized>(rng: &mut R) -> Arrival {
    Arrival::Random { seed: rng.gen() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SetSystem {
        SetSystem::from_elements(4, &[vec![0], vec![1], vec![2], vec![3], vec![0, 1]])
    }

    #[test]
    fn adversarial_order_is_identity() {
        let s = sys();
        let mut st = SetStream::new(&s, Arrival::Adversarial);
        let ids: Vec<SetId> = st.pass().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(st.passes_made(), 1);
    }

    #[test]
    fn pass_counter_increments() {
        let s = sys();
        let mut st = SetStream::new(&s, Arrival::Adversarial);
        assert_eq!(st.passes_made(), 0);
        for _ in st.pass() {}
        for _ in st.pass() {}
        let _ = st.pass(); // starting a pass counts even if not consumed
        assert_eq!(st.passes_made(), 3);
    }

    #[test]
    fn random_order_is_a_permutation_and_stable_across_passes() {
        let s = sys();
        let mut st = SetStream::new(&s, Arrival::Random { seed: 9 });
        let p1: Vec<SetId> = st.pass().map(|(i, _)| i).collect();
        let p2: Vec<SetId> = st.pass().map(|(i, _)| i).collect();
        assert_eq!(p1, p2, "random arrival fixes one permutation per run");
        let mut sorted = p1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn random_orders_differ_across_seeds() {
        let _s = SetSystem::from_elements(2, &(0..50).map(|_| vec![0]).collect::<Vec<_>>());
        let o1 = Arrival::Random { seed: 1 }.initial_order(50);
        let o2 = Arrival::Random { seed: 2 }.initial_order(50);
        assert_ne!(o1, o2);
    }

    #[test]
    fn reshuffled_mode_changes_between_passes() {
        let s = SetSystem::from_elements(2, &(0..50).map(|_| vec![0]).collect::<Vec<_>>());
        let mut st = SetStream::new(&s, Arrival::ReshuffledEachPass { seed: 3 });
        let p1: Vec<SetId> = st.pass().map(|(i, _)| i).collect();
        let p2: Vec<SetId> = st.pass().map(|(i, _)| i).collect();
        assert_ne!(p1, p2, "reshuffled mode must re-permute (50 items)");
    }

    #[test]
    fn items_carry_instance_ids() {
        let s = sys();
        let mut st = SetStream::new(&s, Arrival::Random { seed: 4 });
        for (id, set) in st.pass() {
            assert_eq!(set, s.set(id), "payload must match instance set {id}");
        }
    }

    #[test]
    fn pass_len_is_exact() {
        let s = sys();
        let mut st = SetStream::new(&s, Arrival::Adversarial);
        let mut p = st.pass();
        assert_eq!(p.len(), 5);
        p.next();
        assert_eq!(p.len(), 4);
    }
}
