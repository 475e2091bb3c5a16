//! Prints every experiment table (E1–E12 and `mc`; README "Experiment
//! tables").
//!
//! Usage: `tables [--full] [--seed N] [e1 e2 …]`

use streamcover_bench::{all_experiments, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2017u64);
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--") && a.as_str() != seed.to_string())
        .map(|s| s.as_str())
        .collect();
    let scale = if full { Scale::FULL } else { Scale::FAST };
    println!(
        "# streamcover experiment tables (scale: {}, seed: {seed})\n",
        if full { "full" } else { "fast" }
    );
    for (id, f) in all_experiments() {
        if !wanted.is_empty() && !wanted.contains(&id) {
            continue;
        }
        let start = std::time::Instant::now();
        let table = f(scale, seed);
        println!("{table}");
        println!("  [{id} took {:.1?}]\n", start.elapsed());
    }
}
