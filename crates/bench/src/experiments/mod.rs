//! One module per experiment family; every public function returns a
//! [`crate::table::Table`] and is indexed by experiment id in
//! [`crate::all_experiments`] (README "Experiment tables").

pub mod communication;
pub mod hardness;
pub mod maxcover;
pub mod tradeoff;

pub use communication::{e10_information_cost, e3_communication, e5_reduction_fidelity};
pub use hardness::{e12_ghd_gadget, e2_hardness_gap, e4_coverage_concentration};
pub use maxcover::{e6_maxcover_gap, e7_element_sampling, maxcover_algorithms};
pub use tradeoff::{e11_ablation, e1_tradeoff, e8_baselines, e9_arrival_order};
