//! End-to-end benchmark: edge-list bytes in, checked triangle estimate out.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- --smoke
//! ```
//!
//! One client drives a closed loop: op *i + 1* starts when op *i* returns.
//! Each op parses the workload's edge-list bytes, snapshots them, runs the
//! engine on two workers and checks every job against the exact count.
//! `--trace 0` measures the end-to-end metrics with recording off;
//! `--trace 1` interleaves untraced, traced and one-worker ops, drives the
//! estimators' stage objects for per-pass attribution and writes the
//! `RunReport` under `e2ebench/out/`. The last stdout line is the JSON
//! result; `--smoke` runs every workload at a tiny size as a self-test.

mod metrics;
mod run;
mod smoke;
mod stages;
mod workload;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --smoke";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--smoke") {
        return smoke::run();
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload, false) else {
        eprintln!(
            "e2ebench: unknown workload {:?} (one of {:?})",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    let prepared = run::prepare(&spec, args.seed);
    let outcome = if args.trace {
        run::traced(&prepared, args.seed, args.seconds, run::OUT_DIR)
    } else {
        run::timed(&prepared, args.seed, args.seconds)
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "{}",
        metrics::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
