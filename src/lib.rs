//! # streamcover
//!
//! A Rust reproduction of **“Tight Space-Approximation Tradeoff for the
//! Multi-Pass Streaming Set Cover Problem”** (Sepehr Assadi, PODS 2017,
//! arXiv:1703.01847).
//!
//! The paper settles the space complexity of streaming set cover: any
//! `α`-approximation algorithm — even with `polylog(n)` passes, even on
//! random-arrival streams — needs `Ω̃(m·n^{1/α})` bits, and a sharpened
//! variant of the Har-Peled et al. algorithm (Algorithm 1 here) matches the
//! bound in `2α+1` passes. This workspace builds everything the result
//! touches:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`] | bitsets, set systems, offline greedy/exact solvers |
//! | [`dist`] | the hard distributions `D_Disj`, `D_SC`, `D^rnd_SC`, `D_GHD`, `D_MC` and realistic workloads |
//! | [`stream`] | the streaming substrate (pass counting, bit metering, the resident `CoverService`) and the algorithms: Algorithm 1 with ablation knobs, threshold greedy, store-all, online-prune, and streaming max coverage |
//! | [`comm`] | the two-party communication model, concrete protocols, the executable reductions of Lemmas 3.4/4.5 + the Theorem 1 adapter, and the distributed shard-owner executor (`cluster`) whose wire traffic is metered by the same transcripts |
//! | [`info`] | entropy/MI estimators, the paper's concentration bounds, Facts A.1–A.4, information-cost estimation |
//!
//! ## Quickstart
//!
//! ```
//! use streamcover::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // A coverable workload with a planted optimum of 5 sets.
//! let workload = planted_cover(&mut rng, 512, 40, 5);
//!
//! // Algorithm 1: (α+ε)-approximation in ≤ 2α+1 passes, on a persistent
//! // worker pool. The ExecPolicy is the one place execution is
//! // configured; results are identical at every fan-out and pool size.
//! let rt = Runtime::new(2);
//! let policy = ExecPolicy::sequential().workers(2).guess_workers(2);
//! let algo = HarPeledAssadi::scaled(3, 0.5);
//! let run = algo.run_in(&rt, &policy, &workload.system, Arrival::Adversarial, &mut rng);
//!
//! assert!(run.feasible);
//! assert!(run.passes <= 7);
//! assert!(run.size() <= 3 * 5); // well within (α+ε)·opt
//! ```

pub use streamcover_comm as comm;
pub use streamcover_core as core;
pub use streamcover_dist as dist;
pub use streamcover_info as info;
pub use streamcover_stream as stream;

/// The items most programs need, re-exported flat.
pub mod prelude {
    pub use streamcover_comm::{
        ClusterError, DisjFromSetCover, DisjProtocol, DistCover, DistCoverRun, GhdFromMaxCover,
        ProcessCluster, SetCoverProtocol, StreamingAsProtocol, Transcript,
    };
    pub use streamcover_core::{
        exact_max_coverage, exact_set_cover, greedy_cover_until, greedy_max_coverage,
        greedy_set_cover, BatchedSweep, BitSet, CelfHeap, CompactionMap, CoverError, ExactCover,
        KernelTier, ReprPolicy, SetId, SetRepr, SetSystem, StoreShard,
    };
    pub use streamcover_dist::{
        blog_watch, planted_cover, podcast_catalog, sample_dmc, sample_dsc, uniform_random,
        zipf_query_mix, McParams, ScParams, ZipfQueryMix,
    };
    pub use streamcover_info::{
        dsc_lower_bound_bits, estimate_disj_icost, mutual_information, Empirical,
    };
    pub use streamcover_stream::DistBackend;
    pub use streamcover_stream::{
        Accounting, Arrival, CompactionPolicy, CoverAnswer, CoverRun, CoverService,
        ElementSampling, ExecPolicy, GuessDriver, HarPeledAssadi, MaxCoverRun, MaxCoverStreamer,
        Mutation, OnlinePrune, ParallelPass, Runtime, SahaGetoorSwap, ServiceStats,
        SetCoverStreamer, SetStream, SieveStream, SpaceMeter, StoreAll, ThresholdGreedy,
    };
}
