//! # streamcover-bench
//!
//! The experiment harness: every quantitative claim in Assadi (PODS 2017)
//! has an experiment id (E1–E12, README "Experiment tables") and a function
//! here that regenerates its table. `cargo run -p streamcover-bench --bin
//! tables --release` prints them all; `--full` uses the paper-scale
//! parameters.
//!
//! ## Quickstart
//!
//! ```
//! use streamcover_bench::{experiments, Scale};
//!
//! // Regenerate one table (E12: the GHD gadget geometry) at fast scale.
//! let table = experiments::e12_ghd_gadget(Scale::FAST, 42);
//! assert!(!table.rows.is_empty());
//! println!("{table}");
//! ```

pub mod experiments;
pub mod table;

pub use table::{fnum, Table};

/// Experiment scale: `full` runs the paper-scale parameters; fast mode
/// keeps CI and `cargo test` snappy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Use the full (paper-scale) parameters.
    pub full: bool,
}

impl Scale {
    /// Fast parameters.
    pub const FAST: Scale = Scale { full: false };
    /// Full parameters.
    pub const FULL: Scale = Scale { full: true };
}

/// An experiment entry: id + generator function.
pub type Experiment = (&'static str, fn(Scale, u64) -> Table);

/// All experiments in id order: `(id, function)`.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("e1", experiments::e1_tradeoff),
        ("e2", experiments::e2_hardness_gap),
        ("e3", experiments::e3_communication),
        ("e4", experiments::e4_coverage_concentration),
        ("e5", experiments::e5_reduction_fidelity),
        ("e6", experiments::e6_maxcover_gap),
        ("e7", experiments::e7_element_sampling),
        ("e8", experiments::e8_baselines),
        ("e9", experiments::e9_arrival_order),
        ("e10", experiments::e10_information_cost),
        ("e11", experiments::e11_ablation),
        ("e12", experiments::e12_ghd_gadget),
        ("mc", experiments::maxcover_algorithms),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every experiment must run in fast mode and produce rows. (Smoke-level
    /// integration test for the whole harness; correctness assertions live
    /// in the crates the experiments exercise.)
    #[test]
    fn fast_experiments_produce_tables() {
        for (id, f) in all_experiments() {
            // E10 is the slowest (MC sampling); trim nothing — fast mode is
            // designed to keep each under a few seconds.
            if matches!(id, "e10") {
                continue; // covered by its own test below
            }
            let t = f(Scale::FAST, 42);
            assert!(!t.rows.is_empty(), "{id} produced no rows");
            assert!(t.title.to_lowercase().starts_with(&id.to_string()) || !t.title.is_empty());
        }
    }

    #[test]
    fn information_cost_table_smoke() {
        let t = experiments::e10_information_cost(Scale::FAST, 7);
        assert_eq!(t.rows.len(), 9, "3 protocols × 3 ground sizes");
    }
}
