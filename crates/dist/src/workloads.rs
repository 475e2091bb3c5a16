//! Realistic and structured workloads the upper-bound experiments run on:
//! planted covers (known small optimum), uniform random systems, and the
//! Saha–Getoor style blog/topic catalogues.

use rand::seq::SliceRandom;
use rand::Rng;
use streamcover_core::{bernoulli_elems, random_subset_elems, BitSet, SetId, SetSystem};

/// A coverable instance with a known planted cover.
#[derive(Clone, Debug)]
pub struct PlantedWorkload {
    /// The instance.
    pub system: SetSystem,
    /// Ids of the planted cover (a partition of `[n]`, so it is feasible by
    /// construction).
    pub planted: Vec<SetId>,
    /// Size of the planted cover — an upper bound on the true optimum.
    pub opt: usize,
}

/// Builds a coverable instance over `[n]` with `m` sets and a planted cover
/// of `opt` sets hidden among decoys.
///
/// The planted sets are a random partition of `[n]` into `opt` near-equal
/// parts, placed at random positions; the other `m − opt` sets are random
/// decoys of `≈ n/(4·opt) … n/(2·opt)` elements each — individually smaller
/// than the planted parts, so the planted structure stays near-optimal
/// while greedy-style algorithms still find plenty of partial overlap to
/// chew on.
///
/// # Panics
/// Panics unless `1 ≤ opt ≤ m` and `n ≥ opt`.
pub fn planted_cover<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    m: usize,
    opt: usize,
) -> PlantedWorkload {
    assert!(opt >= 1, "planted cover needs opt ≥ 1");
    assert!(opt <= m, "cannot hide {opt} planted sets among {m}");
    assert!(
        n >= opt,
        "universe [{n}] cannot split into {opt} nonempty parts"
    );

    // Random partition of [n] into opt near-equal parts, emitted as sorted
    // element lists straight into the arena (no per-set bitmap temporaries).
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let (base, extra) = (n / opt, n % opt);
    let mut parts = Vec::with_capacity(opt);
    let mut pos = 0;
    for i in 0..opt {
        let size = base + usize::from(i < extra);
        let mut part: Vec<u32> = perm[pos..pos + size].iter().map(|&e| e as u32).collect();
        part.sort_unstable();
        parts.push(part);
        pos += size;
    }

    // Random positions for the planted sets among the m slots.
    let planted_pos: Vec<usize> = random_subset_elems(rng, m, opt)
        .into_iter()
        .map(|e| e as usize)
        .collect();
    let mut sets: Vec<Option<Vec<u32>>> = vec![None; m];
    for (part, &slot) in parts.into_iter().zip(&planted_pos) {
        sets[slot] = Some(part);
    }

    // Decoys: random sparse sets, at most half a planted part each.
    let hi = (n / (2 * opt)).max(1);
    let lo = (n / (4 * opt)).max(1);
    let mut system = SetSystem::new(n);
    for slot in sets {
        let elems = match slot {
            Some(part) => part,
            None => {
                let size = rng.gen_range(lo..=hi);
                random_subset_elems(rng, n, size)
            }
        };
        system.push_sorted(&elems);
    }
    PlantedWorkload {
        system,
        planted: planted_pos,
        opt,
    }
}

/// `m` independent Bernoulli(`p`) subsets of `[n]`. With `coverable =
/// true`, any element left uncovered is patched into a uniformly random
/// set, guaranteeing `⋃ S_i = [n]`; with `false` the system is left as
/// drawn (for small `p` it is uncoverable w.h.p., which is what the
/// feasibility-detection tests want).
///
/// # Panics
/// Panics unless `m ≥ 1` and `p ∈ [0, 1]`.
pub fn uniform_random<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    m: usize,
    p: f64,
    coverable: bool,
) -> SetSystem {
    assert!(m >= 1, "need at least one set");
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    let mut sets: Vec<Vec<u32>> = (0..m).map(|_| bernoulli_elems(rng, n, p)).collect();
    if coverable {
        let mut covered = BitSet::new(n);
        for s in &sets {
            for &e in s {
                covered.insert(e as usize);
            }
        }
        let mut patched = vec![false; m];
        for e in covered.complement().iter() {
            let slot = rng.gen_range(0..m);
            sets[slot].push(e as u32);
            patched[slot] = true;
        }
        for (s, p) in sets.iter_mut().zip(&patched) {
            if *p {
                s.sort_unstable();
            }
        }
    }
    let mut system = SetSystem::new(n);
    for s in &sets {
        system.push_sorted(s);
    }
    system
}

/// A blog/topic catalogue in the spirit of Saha–Getoor's blog-monitoring
/// application: the universe is `topics` topics with Zipf-like popularity,
/// and each of `blogs` blogs covers a few topics drawn by popularity — a
/// heavy-tailed coverage workload for the maximum coverage algorithms.
///
/// # Panics
/// Panics unless `topics ≥ 2` and `blogs ≥ 1`.
pub fn blog_watch<R: Rng + ?Sized>(rng: &mut R, topics: usize, blogs: usize) -> SetSystem {
    assert!(topics >= 2, "need at least two topics");
    assert!(blogs >= 1, "need at least one blog");
    // Zipf weights 1/(i+1) with cumulative table for sampling.
    let mut cumulative = Vec::with_capacity(topics);
    let mut total = 0.0f64;
    for i in 0..topics {
        total += 1.0 / (i + 1) as f64;
        cumulative.push(total);
    }
    let max_size = (topics / 4).max(2);
    let mut system = SetSystem::new(topics);
    for _ in 0..blogs {
        let size = rng.gen_range(1..=max_size);
        let mut set = BitSet::new(topics);
        // Weighted sampling with rejection of duplicates; bail out early if
        // the popular head is saturated.
        let mut attempts = 0;
        while set.len() < size && attempts < 20 * size {
            attempts += 1;
            let x = rng.gen::<f64>() * total;
            let topic = cumulative.partition_point(|&c| c < x).min(topics - 1);
            set.insert(topic);
        }
        system.push(set);
    }
    system
}

/// A heavy-tailed query workload for the serving layer: a fixed pool of
/// `distinct` subset targets with Zipf popularity weights `∝ 1/(rank+1)^s`
/// — rank 0 is drawn far more often than the tail, exactly the skew a
/// podcast-catalogue front end sees. Built once, then sampled cheaply via
/// [`draw`](ZipfQueryMix::draw); repeated draws of the popular head are
/// what the service's epoch cache is expected to absorb.
#[derive(Clone, Debug)]
pub struct ZipfQueryMix {
    targets: Vec<Vec<u32>>,
    /// Cumulative Zipf weights over `targets` (last entry = total mass).
    cumulative: Vec<f64>,
}

impl ZipfQueryMix {
    /// Number of distinct targets in the pool.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the pool is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The target at `rank` (0 = most popular), sorted and deduplicated.
    pub fn target(&self, rank: usize) -> &[u32] {
        &self.targets[rank]
    }

    /// Draws one query: the rank and target of a pool entry sampled with
    /// Zipf weights.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> (usize, &[u32]) {
        let total = *self.cumulative.last().expect("nonempty pool");
        let x = rng.gen::<f64>() * total;
        let rank = self
            .cumulative
            .partition_point(|&c| c < x)
            .min(self.targets.len() - 1);
        (rank, &self.targets[rank])
    }
}

/// Builds a [`ZipfQueryMix`] over the universe `[n]`: `distinct` targets of
/// `lo..=hi` elements each (uniform subsets, sorted), with popularity
/// exponent `s` (`s = 1.0` is the classic Zipf law; larger skews harder).
///
/// # Panics
/// Panics unless `distinct ≥ 1`, `1 ≤ lo ≤ hi ≤ n` and `s > 0`.
pub fn zipf_query_mix<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    distinct: usize,
    lo: usize,
    hi: usize,
    s: f64,
) -> ZipfQueryMix {
    assert!(distinct >= 1, "need at least one target");
    assert!(
        (1..=hi).contains(&lo) && hi <= n,
        "target sizes must satisfy 1 ≤ lo ≤ hi ≤ n (got {lo}..={hi} over [{n}])"
    );
    assert!(s > 0.0, "Zipf exponent must be positive");
    let mut targets = Vec::with_capacity(distinct);
    let mut cumulative = Vec::with_capacity(distinct);
    let mut total = 0.0f64;
    for rank in 0..distinct {
        let size = rng.gen_range(lo..=hi);
        targets.push(random_subset_elems(rng, n, size));
        total += 1.0 / ((rank + 1) as f64).powf(s);
        cumulative.push(total);
    }
    ZipfQueryMix {
        targets,
        cumulative,
    }
}

/// A podcast catalogue modeled on The Spotify Podcast Dataset's shape:
/// `shows` shows over a universe of `topics` episode-topics, with **both**
/// heavy tails the real catalogue exhibits —
///
/// * **Zipf-distributed set sizes**: the show at popularity rank `r`
///   (rank = set id) covers `max(1, max_size/(r+1)^size_s)` topics, so a
///   head show is a hub spanning a quarter of the topic space while the
///   median show covers a handful — the skew that exercises the sparse
///   galloping path against dense hubs and unbalances `BySetRange` shards.
/// * **Zipf topic popularity**: topics are drawn with weight `∝ 1/(i+1)`,
///   so head topics appear in many shows (dense residual churn) while the
///   tail is covered by few.
///
/// The full-scale instance perfbench's `podcast_dist` workload runs is
/// `podcast_catalog(rng, 100_000, topics)` — ~10⁵ shows, as in the
/// dataset.
///
/// # Panics
/// Panics unless `topics ≥ 2`, `shows ≥ 1` and `size_s > 0`.
pub fn podcast_catalog<R: Rng + ?Sized>(
    rng: &mut R,
    shows: usize,
    topics: usize,
    size_s: f64,
) -> SetSystem {
    assert!(topics >= 2, "need at least two topics");
    assert!(shows >= 1, "need at least one show");
    assert!(size_s > 0.0, "size exponent must be positive");

    // Cumulative Zipf table over topic popularity (weight 1/(i+1)).
    let mut cumulative = Vec::with_capacity(topics);
    let mut total = 0.0f64;
    for i in 0..topics {
        total += 1.0 / (i + 1) as f64;
        cumulative.push(total);
    }

    let max_size = (topics / 4).max(2);
    let mut system = SetSystem::new(topics);
    for rank in 0..shows {
        let size = ((max_size as f64 / ((rank + 1) as f64).powf(size_s)).floor() as usize).max(1);
        let mut set = BitSet::new(topics);
        // Weighted sampling with duplicate rejection; bail out if the
        // popular head saturates before `size` distinct topics land.
        let mut attempts = 0;
        while set.len() < size && attempts < 20 * size {
            attempts += 1;
            let x = rng.gen::<f64>() * total;
            let topic = cumulative.partition_point(|&c| c < x).min(topics - 1);
            set.insert(topic);
        }
        system.push(set);
    }
    system
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use streamcover_core::{exact_set_cover, greedy_set_cover};

    #[test]
    fn planted_cover_is_feasible_via_the_planted_ids() {
        let mut rng = StdRng::seed_from_u64(1);
        for (n, m, opt) in [(16, 4, 2), (128, 24, 4), (512, 48, 6), (100, 7, 7)] {
            let w = planted_cover(&mut rng, n, m, opt);
            assert_eq!(w.system.len(), m);
            assert_eq!(w.system.universe(), n);
            assert_eq!(w.planted.len(), opt);
            assert_eq!(w.opt, opt);
            assert!(
                w.system.is_cover(&w.planted),
                "planted ids must cover: n={n} m={m} opt={opt}"
            );
            // The planted sets partition [n]: coverage is exactly n with no
            // double counting.
            let total: usize = w.planted.iter().map(|&i| w.system.set(i).len()).sum();
            assert_eq!(total, n);
        }
    }

    #[test]
    fn planted_optimum_is_tight_for_solvers() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = planted_cover(&mut rng, 256, 24, 4);
        let exact = exact_set_cover(&w.system)
            .expect("planted instance is coverable")
            .size();
        assert!(exact <= 4);
        assert!(exact >= 2, "decoys are too powerful: opt = {exact}");
        assert!(greedy_set_cover(&w.system).is_feasible());
    }

    #[test]
    fn decoys_are_smaller_than_planted_parts() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = planted_cover(&mut rng, 240, 30, 4);
        let planted: std::collections::HashSet<usize> = w.planted.iter().copied().collect();
        for (i, s) in w.system.iter() {
            if !planted.contains(&i) {
                assert!(s.len() <= 240 / 8, "decoy {i} has {} elements", s.len());
            }
        }
    }

    #[test]
    fn uniform_random_coverable_flag_guarantees_coverage() {
        let mut rng = StdRng::seed_from_u64(4);
        let sys = uniform_random(&mut rng, 256, 20, 0.02, true);
        assert!(sys.is_coverable());
        // Sparse draw without patching is uncoverable w.h.p.
        let bare = uniform_random(&mut rng, 256, 20, 0.02, false);
        assert!(
            !bare.is_coverable(),
            "2%-density 20-set draw covered [256]?"
        );
    }

    #[test]
    fn uniform_random_density_is_close_to_p() {
        let mut rng = StdRng::seed_from_u64(5);
        let sys = uniform_random(&mut rng, 10_000, 8, 0.3, false);
        for (_, s) in sys.iter() {
            let frac = s.len() as f64 / 10_000.0;
            assert!((frac - 0.3).abs() < 0.05, "density {frac}");
        }
    }

    #[test]
    fn blog_watch_shape_and_popularity_skew() {
        let mut rng = StdRng::seed_from_u64(6);
        let sys = blog_watch(&mut rng, 64, 200);
        assert_eq!(sys.universe(), 64);
        assert_eq!(sys.len(), 200);
        let max_size = 64 / 4;
        let mut head = 0usize; // topic-0 appearances
        let mut tail = 0usize; // topic-63 appearances
        for (_, s) in sys.iter() {
            assert!(!s.is_empty());
            assert!(s.len() <= max_size);
            head += usize::from(s.contains(0));
            tail += usize::from(s.contains(63));
        }
        assert!(
            head >= 4 * tail.max(1),
            "popular topics must dominate: head {head} vs tail {tail}"
        );
    }

    #[test]
    fn podcast_catalog_shape_and_size_skew() {
        let mut rng = StdRng::seed_from_u64(11);
        let sys = podcast_catalog(&mut rng, 400, 128, 1.0);
        assert_eq!(sys.universe(), 128);
        assert_eq!(sys.len(), 400);
        let max_size = 128 / 4;
        for (i, s) in sys.iter() {
            assert!(!s.is_empty(), "show {i} covers nothing");
            assert!(s.len() <= max_size, "show {i} covers {} topics", s.len());
        }
        // Zipf sizes: the head show is a hub, the tail shows are singletons.
        assert!(
            sys.set(0).len() >= max_size / 2,
            "head show covers only {} topics",
            sys.set(0).len()
        );
        let tail_mean: f64 = (300..400).map(|i| sys.set(i).len() as f64).sum::<f64>() / 100.0;
        assert!(
            (sys.set(0).len() as f64) >= 8.0 * tail_mean,
            "size tail is not heavy: head {} vs tail mean {tail_mean}",
            sys.set(0).len()
        );
        // Rank-monotone sizes (up to the sampling-rejection slack).
        assert!(sys.set(0).len() >= sys.set(399).len());
    }

    #[test]
    fn podcast_catalog_topic_popularity_skew() {
        let mut rng = StdRng::seed_from_u64(12);
        let sys = podcast_catalog(&mut rng, 600, 64, 1.0);
        let mut head = 0usize; // topic-0 appearances
        let mut tail = 0usize; // topic-63 appearances
        for (_, s) in sys.iter() {
            head += usize::from(s.contains(0));
            tail += usize::from(s.contains(63));
        }
        assert!(
            head >= 4 * tail.max(1),
            "popular topics must dominate: head {head} vs tail {tail}"
        );
        // Well-formedness for the cover drivers: greedy runs and, with the
        // hub head shows present, the catalogue is coverable.
        let cover = greedy_set_cover(&sys);
        assert!(cover.is_feasible(), "600 Zipf shows left topics uncovered");
    }

    #[test]
    fn zipf_query_mix_shape() {
        let mut rng = StdRng::seed_from_u64(7);
        let mix = zipf_query_mix(&mut rng, 256, 32, 4, 16, 1.0);
        assert_eq!(mix.len(), 32);
        assert!(!mix.is_empty());
        for rank in 0..mix.len() {
            let t = mix.target(rank);
            assert!(
                (4..=16).contains(&t.len()),
                "rank {rank}: {} elems",
                t.len()
            );
            assert!(t.windows(2).all(|w| w[0] < w[1]), "sorted + deduplicated");
            assert!(t.iter().all(|&e| (e as usize) < 256));
        }
    }

    #[test]
    fn zipf_query_mix_draws_are_skewed_toward_the_head() {
        let mut rng = StdRng::seed_from_u64(8);
        let mix = zipf_query_mix(&mut rng, 128, 16, 2, 8, 1.0);
        let mut counts = vec![0usize; mix.len()];
        for _ in 0..4000 {
            let (rank, target) = mix.draw(&mut rng);
            assert_eq!(target, mix.target(rank));
            counts[rank] += 1;
        }
        // Zipf(1.0) over 16 ranks: rank 0 carries 1/H(16) ≈ 30% of the
        // mass, rank 15 about 1.9%.
        assert!(
            counts[0] >= 8 * counts[15].max(1),
            "head must dominate tail: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c > 0), "every rank is reachable");
        // A harder exponent skews harder.
        let mix2 = zipf_query_mix(&mut rng, 128, 16, 2, 8, 2.0);
        let mut head2 = 0usize;
        for _ in 0..4000 {
            head2 += usize::from(mix2.draw(&mut rng).0 == 0);
        }
        assert!(
            head2 > counts[0],
            "s=2 head share {head2} must beat s=1 share {}",
            counts[0]
        );
    }
}
