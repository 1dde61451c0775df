//! The timed run (end-to-end metrics) and the traced run (per-layer
//! metrics) of one workload.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use degentri_core::{IdealCopyStages, MainCopyStages};
use degentri_dynamic::DynamicCopyStages;
use degentri_obs::RunReport;
use degentri_stream::StreamStats;

use crate::metrics::{median, peak_rss_mb, ratio, tail, Metrics};
use crate::stages::{drive_dynamic, drive_ideal, drive_main, reference, StageTimes};
use crate::workload::{
    dynamic_config, edge_snapshot, main_config, op_seed, run_op, setup, update_snapshot, Input,
    Kind, Op, Spec, WORKERS,
};

/// Where traced runs write each workload's `RunReport` and facts.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// A workload's input plus the median set-up time.
pub struct Prepared {
    pub input: Input,
    pub setup_s: f64,
}

/// What a run reports: the result-line fields and human-readable notes.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

/// Sets the workload up `SETUP_REPS` times — generate, serialise, exact
/// count, degeneracy, one warm-up op — and keeps the last input.
pub fn prepare(spec: &Spec, seed: u64) -> Prepared {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut input = None;
    for _ in 0..SETUP_REPS {
        drop(input.take());
        let mark = Instant::now();
        let fresh = setup(spec, seed);
        let warm = guarded_op(&fresh, op_seed(seed, u64::MAX), WORKERS, false);
        times.push(mark.elapsed().as_secs_f64());
        if let Some(why) = warm.failure {
            eprintln!("e2ebench: warm-up op failed: {why}");
        }
        input = Some(fresh);
    }
    Prepared {
        input: input.expect("at least one set-up"),
        setup_s: median(&times),
    }
}

/// [`run_op`] with panics caught and counted as a failed op.
pub fn guarded_op(input: &Input, seed: u64, workers: usize, recording: bool) -> Op {
    let started = Instant::now();
    catch_unwind(AssertUnwindSafe(|| run_op(input, seed, workers, recording))).unwrap_or_else(
        |panic| Op {
            wall: started.elapsed().as_secs_f64(),
            spans: Default::default(),
            failure: Some(format!("panic: {}", panic_message(&panic))),
            space_words: 0,
            estimates: Vec::new(),
            report: None,
        },
    )
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Runs ops until `seconds` have passed (at least one op).
fn closed_loop(seconds: f64, mut one: impl FnMut(u64)) {
    let started = Instant::now();
    let mut i = 0;
    while i == 0 || started.elapsed().as_secs_f64() < seconds {
        one(i);
        i += 1;
    }
}

/// Compares op 0's estimates with the standalone estimators, bit for bit.
fn reference_matches(input: &Input, seed: u64, op0: &Op, notes: &mut Vec<String>) -> bool {
    if op0.failure.is_some() {
        return false;
    }
    let engine: Vec<u64> = op0.estimates.iter().map(|(e, _)| e.to_bits()).collect();
    match reference(input, op_seed(seed, 0)) {
        Ok(standalone) => {
            let same = standalone.iter().map(|e| e.to_bits()).collect::<Vec<_>>() == engine;
            if !same {
                notes.push(format!(
                    "reference mismatch: standalone {standalone:?} vs engine {:?}",
                    op0.estimates.iter().map(|(e, _)| e).collect::<Vec<_>>()
                ));
            }
            same
        }
        Err(e) => {
            notes.push(format!("reference estimator failed: {e}"));
            false
        }
    }
}

fn failure_notes(label: &str, ops: &[Op], notes: &mut Vec<String>) {
    for (i, op) in ops.iter().enumerate() {
        if let Some(why) = &op.failure {
            notes.push(format!("{label} op {i} failed: {why}"));
        }
    }
}

/// The workload facts of a run as one JSON line.
fn facts(input: &Input, seed: u64) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"n\": {}, \"m\": {}, \"bytes\": {}, \"exact_t\": {}, \"kappa\": {}, \"t_hat\": {}, \"copies\": {}, \"m_kappa_over_t\": {}, \"items\": {}, \"deletions\": {}, \"band\": {}}}",
        input.spec.name,
        input.n,
        input.m,
        input.bytes.len(),
        input.exact,
        input.kappa,
        input.t_hat,
        input.spec.copies,
        ratio((input.m * input.kappa) as f64, input.exact as f64),
        input.items,
        input.deletions,
        input.spec.band,
    )
}

/// The timed run: closed loop with recording off; end-to-end metrics.
pub fn timed(prepared: &Prepared, seed: u64, seconds: f64) -> Outcome {
    let input = &prepared.input;
    let mut ops: Vec<Op> = Vec::new();
    closed_loop(seconds, |i| {
        let mut op = guarded_op(input, op_seed(seed, i), WORKERS, false);
        op.report = None;
        ops.push(op);
    });
    // Read before the single-threaded reference run, so the high-water
    // mark covers set-up and the timed ops only.
    let peak_rss = peak_rss_mb();
    let mut notes = vec![facts(input, seed)];
    let reference_ok = reference_matches(input, seed, &ops[0], &mut notes);
    failure_notes("timed", &ops, &mut notes);

    let walls: Vec<f64> = ops.iter().map(|op| op.wall).collect();
    let failed = ops.iter().filter(|op| op.failure.is_some()).count();
    let space: Vec<f64> = ops
        .iter()
        .filter(|op| op.failure.is_none())
        .map(|op| op.space_words as f64)
        .collect();
    let (tail_s, percentile, beyond) = tail(&walls);
    notes.push(format!(
        "e2e_s_p50 over {} ops; e2e_s_tail is p{percentile:.1} with {beyond} samples beyond",
        walls.len()
    ));

    let worst = ops
        .iter()
        .filter_map(|op| worst_error(input, op))
        .fold(0.0, f64::max);
    notes.push(format!(
        "worst relative error {worst:.4} (band ±{})",
        input.spec.band
    ));

    let mut m = Metrics::default();
    m.put("e2e_s_p50", median(&walls), "s");
    m.put("e2e_s_tail", tail_s, "s");
    m.put(
        "items_per_s",
        ratio((input.items * ops.len() as u64) as f64, walls.iter().sum()),
        "1/s",
    );
    m.put("setup_s", prepared.setup_s, "s");
    m.put("space_peak_words", median(&space), "words");
    m.put("peak_rss_mb", peak_rss, "MB");
    m.put(
        "ops_ok_frac",
        ratio((ops.len() - failed) as f64, ops.len() as f64),
        "ratio",
    );
    Outcome {
        correct: failed == 0 && reference_ok,
        attempted: ops.len(),
        failed,
        metrics: m,
        notes,
    }
}

/// Median over `ops` of `f`.
fn med(ops: &[Op], f: impl Fn(&Op) -> f64) -> f64 {
    median(&ops.iter().map(f).collect::<Vec<_>>())
}

fn stats_of(op: &Op) -> Option<&degentri_engine::EngineStats> {
    op.report.as_ref().map(|r| &r.stats)
}

fn run_report(op: &Op) -> Option<&RunReport> {
    op.report.as_ref().and_then(|r| r.run_report.as_ref())
}

/// The passes a `RunReport` can name: six-pass and turnstile cohorts
/// (ideal copies ride the six-pass sweeps of a mixed cohort).
fn report_pass_names() -> impl Iterator<Item = &'static str> {
    MainCopyStages::PASS_NAMES
        .into_iter()
        .chain(DynamicCopyStages::PASS_NAMES)
}

/// Per pass name: (plan s, sweep s, items / sweep ns) summed over cohorts.
fn pass_rows(report: &RunReport) -> BTreeMap<String, (f64, f64, f64)> {
    let mut sums: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for cohort in &report.cohorts {
        for pass in &cohort.passes {
            let row = sums.entry(pass.name.clone()).or_default();
            row.0 += pass.plan_nanos;
            row.1 += pass.sweep_nanos;
            row.2 += pass.items;
        }
    }
    sums.into_iter()
        .map(|(name, (plan, sweep, items))| {
            (
                name,
                (
                    plan as f64 / 1e9,
                    sweep as f64 / 1e9,
                    ratio(items as f64, sweep as f64),
                ),
            )
        })
        .collect()
}

/// Relative error of the op's worst job, or `None` for a failed op.
fn worst_error(input: &Input, op: &Op) -> Option<f64> {
    if op.failure.is_some() {
        return None;
    }
    op.estimates
        .iter()
        .map(|(e, _)| ratio((e - input.exact as f64).abs(), input.exact as f64))
        .reduce(f64::max)
}

/// Coefficient of variation of the first job's copy estimates.
fn copy_cv(op: &Op) -> Option<f64> {
    let copies = &op.estimates.first()?.1;
    let n = copies.len() as f64;
    let mean = copies.iter().sum::<f64>() / n;
    let var = copies.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / n;
    Some(ratio(var.sqrt(), mean.abs()))
}

fn put_stage_times(m: &mut Metrics, layer: &str, names: &[&str], times: Option<&StageTimes>) {
    for (p, name) in names.iter().enumerate() {
        m.put(
            format!("{layer}.fold_s.{name}"),
            times.map_or(0.0, |t| t.fold[p]),
            "s",
        );
    }
    for (p, name) in names.iter().enumerate() {
        m.put(
            format!("{layer}.finish_s.{name}"),
            times.map_or(0.0, |t| t.finish[p]),
            "s",
        );
    }
}

/// What the stage-driven attribution of one op found.
struct Attribution {
    main: Option<StageTimes>,
    ideal: Option<StageTimes>,
    dynamic: Option<StageTimes>,
    /// Median seconds of the benchmark's own `StreamStats::compute` calls.
    stats_s: f64,
    /// Whether every stage-driven copy reproduced the engine's copy
    /// estimates bit for bit.
    parity: bool,
}

/// Drives the stage objects of every job of op seed `seed` and compares
/// each copy with `engine_op`, the engine's run of the same op.
fn attribute(input: &Input, seed: u64, engine_op: &Op, notes: &mut Vec<String>) -> Attribution {
    let mut out = Attribution {
        main: None,
        ideal: None,
        dynamic: None,
        stats_s: 0.0,
        parity: false,
    };
    let g = match degentri_graph::io::read_edge_list(&input.bytes[..]) {
        Ok(g) => g,
        Err(e) => {
            notes.push(format!("attribution: parse failed: {e}"));
            return out;
        }
    };
    let mut parity = true;
    let mut check = |job: usize, label: &str, result: Result<StageTimes, String>| {
        let times = result
            .map_err(|e| notes.push(format!("attribution: {label} stages failed: {e}")))
            .ok();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let engine = engine_op.estimates.get(job).map(|(_, copies)| bits(copies));
        if times.is_none() || engine != times.as_ref().map(|t| bits(&t.estimates)) {
            notes.push(format!(
                "stage parity mismatch on {label}: stages {:?} vs engine {:?}",
                times.as_ref().map(|t| &t.estimates),
                engine_op.estimates.get(job)
            ));
            parity = false;
        }
        times
    };
    match input.spec.kind {
        Kind::Main | Kind::Mixed => {
            let stream = edge_snapshot(input, &g);
            let config = main_config(input, seed);
            out.main = check(0, "six-pass", drive_main(&stream, &config));
            if input.spec.kind == Kind::Mixed {
                let mut stats_times = Vec::new();
                let mut stats = None;
                for _ in 0..5 {
                    let mark = Instant::now();
                    stats = Some(StreamStats::compute(&stream));
                    stats_times.push(mark.elapsed().as_secs_f64());
                }
                out.stats_s = median(&stats_times);
                let stats = stats.expect("computed above");
                out.ideal = check(1, "ideal", drive_ideal(&stream, &stats, &config));
            }
        }
        Kind::Turnstile => {
            let stream = update_snapshot(input, &g);
            let config = dynamic_config(input, seed);
            out.dynamic = check(0, "turnstile", drive_dynamic(&stream, &config));
        }
    }
    out.parity = parity;
    out
}

fn write_artifacts(input: &Input, seed: u64, op: &Op, out_dir: &str, notes: &mut Vec<String>) {
    let dir = Path::new(out_dir);
    let name = input.spec.name;
    let facts = facts(input, seed) + "\n";
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{name}.facts.json")), facts))
        .and_then(|()| match run_report(op) {
            Some(report) => std::fs::write(
                dir.join(format!("{name}.run_report.json")),
                report.to_json(),
            ),
            None => Ok(()),
        });
    if let Err(e) = written {
        notes.push(format!("could not write artifacts to {out_dir}: {e}"));
    }
}

/// The traced run: each iteration runs one op three ways — untraced on
/// two workers, traced (recording on) on two workers, untraced on one
/// worker — then drives the stage objects for op 0's seed. Per-layer
/// metrics are medians over the traced ops unless stated.
pub fn traced(prepared: &Prepared, seed: u64, seconds: f64, out_dir: &str) -> Outcome {
    let input = &prepared.input;
    let (mut plain, mut traced, mut single) = (Vec::new(), Vec::new(), Vec::new());
    closed_loop(seconds, |i| {
        let s = op_seed(seed, i);
        let mut op = guarded_op(input, s, WORKERS, false);
        op.report = None;
        plain.push(op);
        traced.push(guarded_op(input, s, WORKERS, true));
        single.push(guarded_op(input, s, 1, false));
    });
    let mut notes = vec![facts(input, seed)];
    let reference_ok = reference_matches(input, seed, &traced[0], &mut notes);
    let attribution = attribute(input, op_seed(seed, 0), &traced[0], &mut notes);
    write_artifacts(input, seed, &traced[0], out_dir, &mut notes);
    let all: Vec<&Op> = plain.iter().chain(&traced).chain(&single).collect();
    let failed = all.iter().filter(|op| op.failure.is_some()).count();
    failure_notes("untraced", &plain, &mut notes);
    failure_notes("traced", &traced, &mut notes);
    failure_notes("one-worker", &single, &mut notes);

    let mut m = Metrics::default();
    let parse_s = med(&traced, |op| op.spans.parse);
    m.put("graph.parse_s", parse_s, "s");
    m.put(
        "graph.parse_mb_per_s",
        ratio(input.bytes.len() as f64 / 1e6, parse_s),
        "MB/s",
    );
    m.put(
        "stream.snapshot_s",
        med(&traced, |op| op.spans.snapshot),
        "s",
    );
    m.put("stream.stats_s", attribution.stats_s, "s");

    let stat = |f: fn(&degentri_engine::EngineStats) -> f64| {
        med(&traced, |op| stats_of(op).map_or(0.0, f))
    };
    m.put("engine.run_s", med(&traced, |op| op.spans.engine), "s");
    m.put("engine.sweeps", stat(|s| s.sweeps_executed as f64), "count");
    m.put(
        "engine.fused_sweeps",
        stat(|s| s.fused_sweeps as f64),
        "count",
    );
    m.put(
        "engine.fused_cohorts",
        stat(|s| s.fused_cohorts as f64),
        "count",
    );
    m.put(
        "engine.items_streamed",
        stat(|s| s.edges_streamed as f64),
        "count",
    );
    m.put("engine.busy_s", stat(|s| s.busy_seconds), "s");
    m.put(
        "engine.worker_utilization",
        stat(|s| s.worker_utilization),
        "ratio",
    );
    m.put(
        "engine.speedup_2w",
        ratio(
            med(&single, |op| op.spans.engine),
            med(&plain, |op| op.spans.engine),
        ),
        "ratio",
    );
    m.put(
        "engine.jobs_failed",
        stat(|s| s.jobs_failed as f64),
        "count",
    );
    m.put(
        "engine.copies_retried",
        stat(|s| s.copies_retried as f64),
        "count",
    );

    put_stage_times(
        &mut m,
        "core",
        &MainCopyStages::PASS_NAMES,
        attribution.main.as_ref(),
    );
    let share = attribution.main.as_ref().map_or(0.0, |t| {
        let finish: f64 = t.finish.iter().sum();
        ratio(finish, finish + t.fold.iter().sum::<f64>())
    });
    m.put("core.finish_share", share, "ratio");
    put_stage_times(
        &mut m,
        "ideal",
        &IdealCopyStages::<StreamStats>::PASS_NAMES,
        attribution.ideal.as_ref(),
    );
    put_stage_times(
        &mut m,
        "dynamic",
        &DynamicCopyStages::PASS_NAMES,
        attribution.dynamic.as_ref(),
    );
    let (updates, u1_fold) = attribution
        .dynamic
        .as_ref()
        .map_or((0, 0.0), |t| (t.first_pass_updates, t.fold[0]));
    m.put("sketch.updates", updates as f64, "count");
    m.put(
        "sketch.updates_per_s",
        ratio(updates as f64, u1_fold),
        "1/s",
    );

    let cohort_nanos = |r: &RunReport| r.cohorts.iter().map(|c| c.total_nanos()).sum::<u64>();
    m.put(
        "obs.cohort_cover",
        med(&traced, |op| {
            run_report(op).map_or(0.0, |r| ratio(cohort_nanos(r) as f64, r.wall_nanos as f64))
        }),
        "ratio",
    );
    m.put(
        "obs.unattributed_s",
        med(&traced, |op| {
            run_report(op).map_or(0.0, |r| {
                (r.wall_nanos as f64 - cohort_nanos(r) as f64) / 1e9
            })
        }),
        "s",
    );
    let rows: Vec<BTreeMap<String, (f64, f64, f64)>> = traced
        .iter()
        .map(|op| run_report(op).map(pass_rows).unwrap_or_default())
        .collect();
    for name in report_pass_names() {
        let col = |f: fn(&(f64, f64, f64)) -> f64| {
            median(
                &rows
                    .iter()
                    .map(|r| r.get(name).map_or(0.0, f))
                    .collect::<Vec<_>>(),
            )
        };
        m.put(format!("pass.{name}.plan_s"), col(|r| r.0), "s");
        m.put(format!("pass.{name}.sweep_s"), col(|r| r.1), "s");
        m.put(format!("pass.{name}.items_per_ns"), col(|r| r.2), "1/ns");
    }
    m.put(
        "trace.overhead",
        ratio(med(&traced, |op| op.wall), med(&plain, |op| op.wall)),
        "ratio",
    );
    let span_cover = traced
        .iter()
        .map(|op| {
            let s = op.spans;
            ratio(s.parse + s.snapshot + s.engine + s.check, op.wall)
        })
        .fold(f64::INFINITY, f64::min);
    m.put("trace.span_cover", span_cover, "ratio");

    let errors: Vec<f64> = all.iter().filter_map(|op| worst_error(input, op)).collect();
    let cvs: Vec<f64> = all.iter().filter_map(|op| copy_cv(op)).collect();
    m.put("est.rel_error", median(&errors), "ratio");
    m.put("est.copy_cv", median(&cvs), "ratio");
    m.put(
        "ops_failed_frac",
        ratio(failed as f64, all.len() as f64),
        "ratio",
    );
    notes.push(format!(
        "traced run: {} iterations of (untraced, traced, one-worker) ops",
        traced.len()
    ));
    Outcome {
        correct: failed == 0 && reference_ok && attribution.parity,
        attempted: all.len(),
        failed,
        metrics: m,
        notes,
    }
}
