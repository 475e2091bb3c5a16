//! Streaming set cover algorithms.

pub mod harpeled;
pub mod online_prune;
pub mod store_all;
pub mod threshold_greedy;

pub use harpeled::{HarPeledAssadi, Pruning, SamplingRate};
pub use online_prune::OnlinePrune;
pub use store_all::StoreAll;
pub use threshold_greedy::ThresholdGreedy;
