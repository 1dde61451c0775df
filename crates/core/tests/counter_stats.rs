//! Statistical regression suite for the counter-based randomness regime.
//!
//! Counter-based randomness (see `degentri_core::rng`) re-derives every
//! sampling rule (positional uniform picks, priority reservoirs,
//! Efraimidis–Spirakis weighted picks) from position-keyed hashes and
//! must draw from the distributions the paper's analysis assumes. This
//! suite sweeps the `gen` graphs the seed accuracy tests use — wheel,
//! triangle book, preferential attachment, complete — across copy counts
//! and seeds, for **both** estimators, and requires the estimates to meet
//! the seed suite's relative-error bounds.

use degentri_core::{
    estimate_triangles, estimate_triangles_with_oracle, EstimatorConfig, ExactDegreeOracle, RngMode,
};
use degentri_gen::{barabasi_albert, book, complete, wheel};
use degentri_graph::triangles::count_triangles;
use degentri_graph::CsrGraph;
use degentri_stream::{MemoryStream, StreamOrder};

/// The seed suite's configuration shape for the six-pass estimator, with
/// the randomness regime switched to counter mode.
fn counter_config(kappa: usize, t_hint: u64, copies: usize, seed: u64) -> EstimatorConfig {
    EstimatorConfig::builder()
        .epsilon(0.15)
        .kappa(kappa)
        .triangle_lower_bound(t_hint.max(1))
        .r_constant(30.0)
        .inner_constant(60.0)
        .assignment_constant(30.0)
        .copies(copies)
        .seed(seed)
        .rng_mode(RngMode::Counter)
        .try_build()
        .expect("test configuration is valid")
}

struct Case {
    name: &'static str,
    graph: CsrGraph,
    kappa: usize,
    /// The seed suite's relative-error bound for this graph family.
    bound: f64,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "wheel(1500)",
            graph: wheel(1500).unwrap(),
            kappa: 3,
            bound: 0.30,
        },
        Case {
            name: "book(700)",
            graph: book(700).unwrap(),
            kappa: 2,
            bound: 0.35,
        },
        Case {
            name: "barabasi_albert(1200, 6)",
            graph: barabasi_albert(1200, 6, 21).unwrap(),
            kappa: 6,
            bound: 0.35,
        },
        Case {
            name: "complete(35)",
            graph: complete(35).unwrap(),
            kappa: 34,
            bound: 0.30,
        },
    ]
}

#[test]
fn counter_mode_main_estimator_meets_seed_suite_error_bounds() {
    for case in cases() {
        let exact = count_triangles(&case.graph);
        let stream = MemoryStream::from_graph(&case.graph, StreamOrder::UniformRandom(1234));
        for copies in [5, 9] {
            for seed in [1000, 2024] {
                let config = counter_config(case.kappa, exact / 2, copies, seed);
                let result = estimate_triangles(&stream, &config).unwrap();
                assert_eq!(result.copies, copies);
                assert_eq!(result.passes_per_copy, 6);
                let err = result.relative_error(exact);
                assert!(
                    err < case.bound,
                    "{} copies {copies} seed {seed}: estimate {} vs exact {exact} (err {err:.3}, bound {})",
                    case.name,
                    result.estimate,
                    case.bound
                );
            }
        }
    }
}

#[test]
fn counter_mode_ideal_estimator_meets_seed_suite_error_bounds() {
    for case in cases() {
        let exact = count_triangles(&case.graph);
        let stream = MemoryStream::from_graph(&case.graph, StreamOrder::UniformRandom(99));
        let oracle = ExactDegreeOracle::build(&stream);
        for copies in [5, 7] {
            for seed in [7, 31] {
                // The ideal estimator's batch width is derived from
                // r_constant; keep the seed suite's 60x budget.
                let config = EstimatorConfig::builder()
                    .epsilon(0.15)
                    .kappa(case.kappa)
                    .triangle_lower_bound((exact / 2).max(1))
                    .r_constant(60.0)
                    .copies(copies)
                    .seed(seed)
                    .rng_mode(RngMode::Counter)
                    .try_build()
                    .expect("test configuration is valid");
                let result = estimate_triangles_with_oracle(&stream, &oracle, &config).unwrap();
                assert_eq!(result.passes_per_copy, 3);
                let err = result.relative_error(exact);
                assert!(
                    err < case.bound,
                    "{} copies {copies} seed {seed}: ideal estimate {} vs exact {exact} (err {err:.3}, bound {})",
                    case.name,
                    result.estimate,
                    case.bound
                );
            }
        }
    }
}

#[test]
fn counter_mode_mean_estimate_lands_on_target() {
    // The mean of several independent multi-copy runs must land within
    // the seed bound of the exact count.
    let graph = wheel(1200).unwrap();
    let exact = count_triangles(&graph) as f64;
    let stream = MemoryStream::from_graph(&graph, StreamOrder::UniformRandom(5));
    let runs = 5;
    let total: f64 = (0..runs)
        .map(|i| {
            let config = counter_config(3, (exact / 2.0) as u64, 7, 500 + i);
            estimate_triangles(&stream, &config).unwrap().estimate
        })
        .sum();
    let counter = total / runs as f64;
    assert!((counter / exact - 1.0).abs() < 0.2, "{counter} vs {exact}");
}
