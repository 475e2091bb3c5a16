//! # streamcover-dist
//!
//! The input distributions of Assadi (PODS 2017, arXiv:1703.01847): the
//! hard distributions driving the lower bounds, and the realistic
//! workloads the upper-bound experiments run on.
//!
//! * [`disj`] — `D_Disj`, the promise set-disjointness distribution on
//!   `[t]` (`|A ∩ B| = 1` on the No branch), with the marginal/conditional
//!   samplers the Lemma 3.4 reduction embeds with.
//! * [`ghd`] — `D_GHD`, the balanced gap-hamming-distance gadget with
//!   deterministic promise (`Δ ≥ t/2+√t` vs `≤ t/2−√t`) and
//!   [`ghd::classify`].
//! * [`MappingExtension`] — random block partitions `f : [t] → 2^[n]`
//!   (§3.1) with `extend`/`co_extend`.
//! * [`ScParams`] / [`sample_dsc_with_theta`] — `D_SC` (Lemma 3.2): `θ = 1`
//!   plants a hidden size-2 cover, `θ = 0` forces `opt > 2α` w.h.p.
//! * [`McParams`] / [`sample_dmc_with_theta`] — `D_MC` (Lemma 4.3): the
//!   optimal 2-coverage lands on either side of `τ` according to `θ`.
//! * [`random_partition`] — the `D^rnd_SC` random re-split of Lemma 3.7.
//! * [`planted_cover`], [`uniform_random`], [`blog_watch`],
//!   [`podcast_catalog`] — coverable planted workloads, Bernoulli systems,
//!   and Zipf-flavoured blog/topic and podcast/episode catalogues for the
//!   algorithmic experiments.
//! * [`turnstile_catalog`] — scripted insert/delete mixes
//!   ([`TurnstileCatalog`]): Zipf-sized sets with configurable delete
//!   fraction and recency churn, the live-catalog workload behind the
//!   deletion-aware stack.
//! * [`check_cover_free`] — the `r`-cover-free diagnostic.
//!
//! ## Quickstart
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use streamcover_dist::{planted_cover, sample_dsc_with_theta, ScParams};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//!
//! // A coverable workload: the planted ids partition [n], so they cover.
//! let w = planted_cover(&mut rng, 512, 40, 5);
//! assert!(w.system.is_cover(&w.planted));
//!
//! // D_SC with θ = 1: a hidden matched pair covers the universe...
//! let p = ScParams::explicit(96, 4, 12);
//! let inst = sample_dsc_with_theta(&mut rng, p, true);
//! assert!(inst.pair_covers(inst.i_star.unwrap()));
//! // ...while under θ = 0 every pair misses exactly one block.
//! let inst = sample_dsc_with_theta(&mut rng, p, false);
//! assert!((0..p.m).all(|i| inst.pair_coverage(i) == p.n - p.n / p.t));
//! ```

pub mod coverfree;
pub mod disj;
pub mod ghd;
pub mod mapping;
pub mod maxcover;
pub mod partition;
pub mod setcover;
pub mod workloads;

pub use coverfree::{check_cover_free, CoverFreeness};
pub use ghd::{GhdAnswer, GhdParams};
pub use mapping::MappingExtension;
pub use maxcover::{sample_dmc, sample_dmc_with_theta, DmcInstance, McParams};
pub use partition::{random_partition, RandomPartition};
pub use setcover::{sample_dsc, sample_dsc_with_theta, DscInstance, ScParams};
pub use workloads::{
    blog_watch, planted_cover, podcast_catalog, turnstile_catalog, uniform_random, zipf_query_mix,
    CatalogOp, PlantedWorkload, TurnstileCatalog, ZipfQueryMix,
};
