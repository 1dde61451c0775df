//! Experiment harness: runs every experiment E1–E12 of `EXPERIMENTS.md` and
//! prints the paper-shaped tables.
//!
//! Multi-copy estimations execute through the parallel engine
//! (`degentri-engine`): E1 runs the paper's estimator as an engine job and
//! the baselines side by side on a worker pool, and the other estimator
//! experiments run their copies on the engine's worker pool. Estimates are
//! bit-identical to the sequential runner at any worker count.
//!
//! Usage:
//!   cargo run --release -p degentri-bench --bin harness            # all experiments
//!   cargo run --release -p degentri-bench --bin harness -- e3 e5   # a subset
//!   SCALE=2 cargo run --release -p degentri-bench --bin harness    # bigger graphs
//!   WORKERS=4 cargo run --release -p degentri-bench --bin harness  # engine pool size

use degentri_bench::*;

fn main() {
    let scale: usize = std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let seed: u64 = std::env::var("SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    println!(
        "degentri experiment harness (scale = {scale}, seed = {seed}, engine workers = {})",
        common::engine_workers()
    );
    println!("each table corresponds to one experiment in EXPERIMENTS.md / DESIGN.md §4");

    if want("e1") {
        e1_table1::print(&e1_table1::run(scale, seed));
    }
    if want("e2") {
        e2_space_scaling::print(&e2_space_scaling::run(scale, seed));
    }
    if want("e3") {
        e3_wheel::print(&e3_wheel::run(4 + scale.min(3), seed));
    }
    if want("e4") {
        e4_assignment_ablation::print(&e4_assignment_ablation::run(2000 * scale, 6000, seed));
    }
    if want("e5") {
        e5_lower_bound::print(&e5_lower_bound::run(10, 3, 9, seed));
    }
    if want("e6") {
        e6_concentration::print(&e6_concentration::run(1500 * scale, 10, seed));
    }
    if want("e7") {
        e7_oracle_ablation::print(&e7_oracle_ablation::run(seed));
    }
    if want("e8") {
        e8_degeneracy::print(&e8_degeneracy::run(scale, seed));
    }
    if want("e9") {
        e9_heavy_costly::print(&e9_heavy_costly::run(seed));
    }
    if want("e11") {
        e11_cliques::print(&e11_cliques::run(scale, seed));
    }
    if want("e12") {
        e12_dynamic::print(&e12_dynamic::run(scale, seed));
    }

    println!("\ndone. see EXPERIMENTS.md for the recorded paper-vs-measured discussion.");
}
