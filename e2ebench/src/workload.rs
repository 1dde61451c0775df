//! The four workloads: set-up (graph → edge-list bytes → exact count) and
//! the end-to-end operation the closed loop repeats (bytes → parse →
//! snapshot → engine → checked estimate).

use std::time::Instant;

use degentri_core::{EstimatorConfig, RngMode};
use degentri_dynamic::DynamicEstimatorConfig;
use degentri_engine::{Engine, EngineConfig, EngineReport, JobSpec};
use degentri_graph::{degeneracy::degeneracy, io, triangles::count_triangles, CsrGraph};
use degentri_stream::{DynamicMemoryStream, MemoryStream, StreamOrder};

/// Engine workers of every timed op (the benchmark box has two cores).
pub const WORKERS: usize = 2;

/// Which estimator path a workload's op takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One six-pass job over an insert-only snapshot.
    Main,
    /// One turnstile job over an insert/delete snapshot.
    Turnstile,
    /// One six-pass job and one ideal (degree-oracle) job on one snapshot.
    Mixed,
}

/// A named workload: generator, sizes and job shape.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Generator: `random_ktree` when true, else `barabasi_albert`.
    pub ktree: bool,
    pub n: usize,
    pub k: usize,
    /// Estimator copies of each job.
    pub copies: usize,
    /// Fraction of edges inserted twice and deleted once (turnstile only).
    pub churn: f64,
    /// Accepted relative error of every job's estimate against exact T.
    pub band: f64,
}

/// Workload names in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "ktree_ingest",
    "ba_sparse",
    "turnstile_churn",
    "oracle_mixed",
];

/// The workload called `name`; `tiny` shrinks it for the self-test.
///
/// Sizes keep one op near 0.2 s on two workers, so a 20 s run holds
/// 60–120 ops and the tail percentile has ten samples beyond it. Each band
/// is at least six standard deviations of the single-op relative error
/// measured on that path (six-pass ≈ 0.06, turnstile ≈ 0.075, ideal ≈ 0.12),
/// so a correct program fails an op by chance far less than once in the
/// whole benchmark; a wrong count, a dropped deletion or an estimate of 0
/// falls outside it.
pub fn spec(name: &str, tiny: bool) -> Option<Spec> {
    let pick = |full: usize, small: usize| if tiny { small } else { full };
    let spec = match name {
        // T ≫ mκ, so the samples are small and parsing and snapshotting
        // carry about half of the op: the ingest path.
        "ktree_ingest" => Spec {
            name: "ktree_ingest",
            kind: Kind::Main,
            ktree: true,
            n: pick(60_000, 2_000),
            k: 5,
            copies: 8,
            churn: 0.0,
            band: 0.5,
        },
        // mκ/T near 100, so the samples are large and the engine's sweeps
        // and between-pass finish carry the op.
        "ba_sparse" => Spec {
            name: "ba_sparse",
            kind: Kind::Main,
            ktree: false,
            n: pick(15_000, 1_500),
            k: 8,
            copies: 8,
            churn: 0.0,
            band: 0.5,
        },
        // Deletions beside inserts; the op is almost all ℓ0-sketch folds.
        // Each stream update costs r sketch updates per copy, so a graph
        // of ~900 edges is what fits r = 256 in a 0.2 s op.
        "turnstile_churn" => Spec {
            name: "turnstile_churn",
            kind: Kind::Turnstile,
            ktree: false,
            n: pick(150, 100),
            k: 6,
            copies: 4,
            churn: 0.5,
            band: 0.6,
        },
        // The only path through the ideal estimator and the oracle stats;
        // its band is set by the ideal job, the noisier of the two.
        "oracle_mixed" => Spec {
            name: "oracle_mixed",
            kind: Kind::Mixed,
            ktree: false,
            n: pick(1_200, 400),
            k: 8,
            copies: 8,
            churn: 0.0,
            band: 0.75,
        },
        _ => return None,
    };
    Some(spec)
}

/// SplitMix64 finaliser: derives independent seeds from (seed, index).
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The estimator seed of op `i` of a run with workload seed `seed`.
pub fn op_seed(seed: u64, i: u64) -> u64 {
    mix(mix(seed, 3), i)
}

/// Everything set-up produces. The op sees only `bytes` and the
/// estimator configuration built from `kappa`, `t_hat` and the op seed.
#[derive(Debug, Clone)]
pub struct Input {
    pub spec: Spec,
    pub bytes: Vec<u8>,
    pub n: usize,
    pub m: usize,
    /// Exact triangle count of the (surviving) graph.
    pub exact: u64,
    pub kappa: usize,
    /// The triangle lower bound handed to the estimators: T/2.
    pub t_hat: u64,
    /// Seed of the stream order (insert-only) or churn schedule (turnstile).
    pub order_seed: u64,
    /// Items one op streams: edges, or updates for the turnstile workload.
    pub items: u64,
    pub deletions: u64,
}

/// Generates the workload's graph from `seed`, serialises it to edge-list
/// bytes and computes the exact reference count and degeneracy.
pub fn setup(spec: &Spec, seed: u64) -> Input {
    let graph_seed = mix(seed, 1);
    let g = if spec.ktree {
        degentri_gen::random_ktree(spec.n, spec.k, graph_seed)
    } else {
        degentri_gen::barabasi_albert(spec.n, spec.k, graph_seed)
    }
    .expect("workload generator parameters are valid");
    let mut bytes = Vec::new();
    io::write_edge_list(&g, &mut bytes).expect("writing to a Vec cannot fail");
    let order_seed = mix(seed, 2);
    let (exact, items, deletions) = match spec.kind {
        Kind::Turnstile => {
            let stream = DynamicMemoryStream::with_churn(&g, spec.churn, order_seed);
            let surviving = stream.surviving_graph();
            (
                count_triangles(&surviving),
                stream.updates().len() as u64,
                stream.num_deletions() as u64,
            )
        }
        Kind::Main | Kind::Mixed => (count_triangles(&g), g.num_edges() as u64, 0),
    };
    Input {
        spec: spec.clone(),
        n: g.num_vertices(),
        m: g.num_edges(),
        kappa: degeneracy(&g).max(1),
        t_hat: (exact / 2).max(1),
        exact,
        bytes,
        order_seed,
        items,
        deletions,
    }
}

/// The six-pass (and ideal) estimator configuration of op seed `seed`.
pub fn main_config(input: &Input, seed: u64) -> EstimatorConfig {
    EstimatorConfig::builder()
        .epsilon(0.1)
        .kappa(input.kappa)
        .triangle_lower_bound(input.t_hat)
        .copies(input.spec.copies)
        .seed(seed)
        .rng_mode(RngMode::Counter)
        .try_build()
        .expect("workload estimator configuration is valid")
}

/// The turnstile estimator configuration of op seed `seed`.
pub fn dynamic_config(input: &Input, seed: u64) -> DynamicEstimatorConfig {
    DynamicEstimatorConfig::new(input.kappa, input.t_hat)
        .with_epsilon(0.25)
        .with_copies(input.spec.copies)
        .with_seed(seed)
        // The 1/ε² oversampling makes r and ℓ hit this cap on every
        // workload graph, so the cap is the sample size.
        .with_constants(1.0, 2.0)
        .with_max_samples(256)
        .with_rng_mode(RngMode::Counter)
}

/// The insert-only snapshot of a parsed graph.
pub fn edge_snapshot(input: &Input, g: &CsrGraph) -> MemoryStream {
    MemoryStream::from_graph(g, StreamOrder::UniformRandom(input.order_seed))
}

/// The turnstile snapshot of a parsed graph.
pub fn update_snapshot(input: &Input, g: &CsrGraph) -> DynamicMemoryStream {
    DynamicMemoryStream::with_churn(g, input.spec.churn, input.order_seed)
}

/// Seconds spent in each span of one op; together they tile the op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    pub parse: f64,
    pub snapshot: f64,
    pub engine: f64,
    pub check: f64,
}

/// The outcome of one end-to-end op.
#[derive(Debug)]
pub struct Op {
    pub wall: f64,
    pub spans: Spans,
    /// `None` when the op succeeded, else why it failed.
    pub failure: Option<String>,
    /// Σ `space.peak_words` over the op's jobs.
    pub space_words: u64,
    /// Per job, in submission order: the aggregated estimate and the
    /// per-copy estimates.
    pub estimates: Vec<(f64, Vec<f64>)>,
    pub report: Option<EngineReport>,
}

/// One end-to-end estimation: parse `input.bytes`, snapshot, run the
/// engine with `workers` workers (recording when `recording`), and check
/// every job against the exact count. Never panics on a program failure:
/// errors, failed jobs and out-of-band estimates land in `Op::failure`.
pub fn run_op(input: &Input, seed: u64, workers: usize, recording: bool) -> Op {
    let started = Instant::now();
    let mut op = Op {
        wall: 0.0,
        spans: Spans::default(),
        failure: None,
        space_words: 0,
        estimates: Vec::new(),
        report: None,
    };
    op.failure = op_steps(input, seed, workers, recording, &mut op).err();
    op.wall = started.elapsed().as_secs_f64();
    op
}

/// The timed steps of [`run_op`], each recorded as a span of `op`.
fn op_steps(
    input: &Input,
    seed: u64,
    workers: usize,
    recording: bool,
    op: &mut Op,
) -> Result<(), String> {
    let mark = Instant::now();
    let g = io::read_edge_list(&input.bytes[..]).map_err(|e| format!("parse: {e}"))?;
    op.spans.parse = mark.elapsed().as_secs_f64();

    let mut engine = Engine::new(
        EngineConfig::builder()
            .workers(workers)
            .recording(recording)
            .try_build()
            .expect("engine configuration is valid"),
    );
    let mark = Instant::now();
    let result = match input.spec.kind {
        Kind::Main | Kind::Mixed => {
            let stream = edge_snapshot(input, &g);
            op.spans.snapshot = mark.elapsed().as_secs_f64();
            let mark = Instant::now();
            let config = main_config(input, seed);
            engine.submit(JobSpec::main("six-pass", config.clone()));
            if input.spec.kind == Kind::Mixed {
                engine.submit(JobSpec::ideal("ideal", config));
            }
            let result = engine.run(&stream);
            op.spans.engine = mark.elapsed().as_secs_f64();
            result
        }
        Kind::Turnstile => {
            let stream = update_snapshot(input, &g);
            op.spans.snapshot = mark.elapsed().as_secs_f64();
            let mark = Instant::now();
            engine.submit(JobSpec::dynamic("turnstile", dynamic_config(input, seed)));
            let result = engine.run_dynamic(&stream);
            op.spans.engine = mark.elapsed().as_secs_f64();
            result
        }
    };

    let mark = Instant::now();
    let report = result.map_err(|e| format!("engine: {e}"))?;
    let checked = check(input, &report, op);
    op.report = Some(report);
    op.spans.check = mark.elapsed().as_secs_f64();
    checked
}

/// Checks every job of `report`; fills `op`'s estimates and space.
fn check(input: &Input, report: &EngineReport, op: &mut Op) -> Result<(), String> {
    if report.jobs.is_empty() {
        return Err("engine returned no jobs".to_string());
    }
    let mut failure = Ok(());
    for job in &report.jobs {
        let Some(output) = job.output() else {
            failure = failure.and(Err(format!("job {}: {:?}", job.label, job.error())));
            continue;
        };
        let est = &output.estimation;
        op.space_words += est.space.peak_words;
        op.estimates
            .push((est.estimate, est.copy_estimates.clone()));
        let error = est.relative_error(input.exact);
        if error.is_nan() || error > input.spec.band {
            failure = failure.and(Err(format!(
                "job {}: estimate {} outside ±{} of T = {}",
                job.label, est.estimate, input.spec.band, input.exact
            )));
        }
    }
    failure
}
