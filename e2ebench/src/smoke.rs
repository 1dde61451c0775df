//! `--smoke`: every workload at a tiny size, in seconds. Checks that the
//! timed and traced runs emit exactly the metrics `BENCHMARK.json` names,
//! with its units, and that ops pushed outside their band or fed broken
//! bytes are counted as failed instead of panicking.

use std::process::ExitCode;

use crate::metrics::Metrics;
use crate::run::{guarded_op, prepare, timed, traced, OUT_DIR};
use crate::workload::{op_seed, spec, NAMES, WORKERS};

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// The `(name, unit)` pairs of the metric list under `key`; `unit` is
/// empty for entries without one (workloads).
fn entries(json: &str, key: &str) -> Vec<(String, String)> {
    let Some(start) = json.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let section = &json[start..];
    let section = &section[..section.find(']').unwrap_or(section.len())];
    section
        .split('{')
        .skip(1)
        .filter_map(|object| {
            let name = field(object, "name")?;
            Some((name, field(object, "unit").unwrap_or_default()))
        })
        .collect()
}

/// The string value of `"key": "value"` inside `object`.
fn field(object: &str, key: &str) -> Option<String> {
    let rest = &object[object.find(&format!("\"{key}\""))? + key.len() + 2..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn same_metrics(
    what: &str,
    expected: &[(String, String)],
    got: &Metrics,
    failures: &mut Vec<String>,
) {
    let got: Vec<(String, String)> = got
        .0
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    for e in expected {
        if !got.contains(e) {
            failures.push(format!("{what}: missing {} [{}]", e.0, e.1));
        }
    }
    for g in &got {
        if !expected.contains(g) {
            failures.push(format!("{what}: unlisted {} [{}]", g.0, g.1));
        }
    }
}

pub fn run() -> ExitCode {
    let mut failures = Vec::new();
    let json = match std::fs::read_to_string(BENCHMARK_JSON) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("smoke: cannot read {BENCHMARK_JSON}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let end_to_end = entries(&json, "end_to_end");
    let per_layer = entries(&json, "per_layer");
    let workloads: Vec<String> = entries(&json, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    if workloads != NAMES {
        failures.push(format!(
            "BENCHMARK.json workloads {workloads:?} != {NAMES:?}"
        ));
    }
    let seed = 7;
    let smoke_out = format!("{OUT_DIR}/smoke");
    for name in NAMES {
        let spec = spec(name, true).expect("listed workload");
        let prepared = prepare(&spec, seed);
        let t0 = timed(&prepared, seed, 0.2);
        same_metrics(
            &format!("{name} --trace 0"),
            &end_to_end,
            &t0.metrics,
            &mut failures,
        );
        let t1 = traced(&prepared, seed, 0.2, &smoke_out);
        same_metrics(
            &format!("{name} --trace 1"),
            &per_layer,
            &t1.metrics,
            &mut failures,
        );
        let cover = t1.metrics.0.iter().find(|m| m.name == "trace.span_cover");
        if !cover.is_some_and(|m| m.value >= 0.95) {
            failures.push(format!(
                "{name}: spans cover under 95% of the op: {cover:?}"
            ));
        }
        for (mode, outcome) in [("timed", &t0), ("traced", &t1)] {
            if !outcome.correct || outcome.failed > 0 {
                failures.push(format!("{name} {mode}: incorrect: {:?}", outcome.notes));
            }
        }

        // An op whose exact count is ten times the true one is outside every
        // band (all are below 0.9), so it must fail, not panic.
        let mut off_band = prepared.input.clone();
        off_band.exact = off_band.exact.saturating_mul(10);
        if guarded_op(&off_band, op_seed(seed, 0), WORKERS, false)
            .failure
            .is_none()
        {
            failures.push(format!("{name}: out-of-band op was not counted as failed"));
        }
        let mut broken = prepared.input.clone();
        broken.bytes = b"0 1\n1 two\n".to_vec();
        if guarded_op(&broken, op_seed(seed, 0), WORKERS, false)
            .failure
            .is_none()
        {
            failures.push(format!(
                "{name}: unparsable bytes were not counted as failed"
            ));
        }
        eprintln!(
            "smoke: {name}: {} timed ops, {} traced iterations",
            t0.attempted,
            t1.attempted / 3
        );
    }
    if failures.is_empty() {
        println!("smoke: ok");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            println!("smoke: FAIL {f}");
        }
        ExitCode::FAILURE
    }
}
