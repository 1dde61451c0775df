//! Hierarchical run reports: run → cohort → pass → shard, with self/total
//! times, an aligned text tree (`Display`) and stable-schema JSON in both
//! directions.
//!
//! The report is assembled by the engine *after* a run from the pass traces
//! of the fused driver, the per-job accounting of the scheduler and the
//! merged [`MetricsSnapshot`] — nothing here is consulted during execution,
//! so building (or not building) a report cannot perturb results.
//!
//! The JSON schema is hand-rolled and versioned
//! (`"schema": "degentri.run_report.v1"`), matching the `BENCH_PR*.json`
//! idiom: flat objects, snake_case keys, integers only. `from_json` parses
//! exactly what `to_json` writes so snapshots can be archived and reloaded
//! without a serde dependency.

use std::fmt;

use crate::json::{escape, parse, JsonValue};
use crate::metrics::{Log2Histogram, MetricsSnapshot};
use crate::recorder::{Counter, Hist, Span};

/// Fold-loop counters carried inside a stage accumulator and merged along
/// the existing shard-merge path: one bump per delivered chunk plus a few
/// on rare hit paths, so tallying is cheap enough to leave on always.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassTally {
    /// Stream items (edges or updates) delivered to this accumulator.
    pub items: u64,
    /// Probe-structure hits: tracked-endpoint bumps, neighbor-sample
    /// offers, closure-edge matches, gathered samples.
    pub hits: u64,
    /// Structure updates applied: ℓ₀-sketch updates in the turnstile
    /// folds, occurrence-counter increments in the assignment passes.
    pub updates: u64,
    /// Full `LANES`-wide blocks the fold processed through the lane-batched
    /// kernels. `kernel_batches × LANES` of `items` went through the
    /// SIMD-width path; the remainder is the scalar tail, so the report can
    /// show lane utilization per pass/shard. Zero for passes with no lane
    /// kernel (order-sensitive folds).
    pub kernel_batches: u64,
}

impl PassTally {
    /// Adds `other` into `self` (the shard/copy merge).
    pub fn merge(&mut self, other: PassTally) {
        self.items += other.items;
        self.hits += other.hits;
        self.updates += other.updates;
        self.kernel_batches += other.kernel_batches;
    }
}

/// One shard of one pass: how much stream it folded and for how long.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Items in the shard's slice.
    pub items: u64,
    /// Busy nanoseconds of the shard's fold.
    pub nanos: u64,
}

/// One shared pass of a fused cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// Stable pass name (e.g. `p4_closure`).
    pub name: String,
    /// Self time: building the union probe structures (the cohort plan).
    pub plan_nanos: u64,
    /// Wall time of the shared sweep over the snapshot.
    pub sweep_nanos: u64,
    /// Items in the snapshot (each copy of the cohort saw all of them).
    pub items: u64,
    /// Fold-loop tallies summed over the cohort's copies.
    pub tally: PassTally,
    /// Per-shard breakdown, in shard order. Never empty: a pass that ran
    /// copy by copy instead of sharded (one worker without shared probes,
    /// or the re-run after a shard panicked) carries one whole-snapshot
    /// entry.
    pub shards: Vec<ShardReport>,
}

impl PassReport {
    /// Total wall nanoseconds attributed to the pass (plan + sweep).
    pub fn total_nanos(&self) -> u64 {
        self.plan_nanos + self.sweep_nanos
    }
}

/// One fused cohort: `copies` staged copies driven by shared sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortReport {
    /// What the cohort ran (e.g. `six-pass` or `turnstile`).
    pub label: String,
    /// Copies fused into the cohort.
    pub copies: usize,
    /// Workers the cohort's sweeps ran on.
    pub workers: usize,
    /// Shards each sharded sweep was split into: the snapshot partition's
    /// actual count (fewer than requested on short snapshots; 1 on one
    /// worker).
    pub shards: usize,
    /// Self time: constructing the staged copies before the first sweep.
    pub formation_nanos: u64,
    /// The cohort's passes, in execution order.
    pub passes: Vec<PassReport>,
}

impl CohortReport {
    /// Total wall nanoseconds attributed to the cohort
    /// (formation + every pass).
    pub fn total_nanos(&self) -> u64 {
        self.formation_nanos + self.passes.iter().map(PassReport::total_nanos).sum::<u64>()
    }
}

/// One submitted job, from queue to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// The job's label.
    pub label: String,
    /// Estimator copies the job expanded into.
    pub tasks: usize,
    /// CPU-busy nanoseconds the job's tasks consumed across all workers.
    pub busy_nanos: u64,
    /// Nanoseconds from [`Engine::submit`](crate) to run completion
    /// (queueing + execution + aggregation).
    pub latency_nanos: u64,
}

/// The full hierarchical breakdown of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Wall nanoseconds of the whole run.
    pub wall_nanos: u64,
    /// Workers the run was scheduled on.
    pub workers: usize,
    /// Fused cohorts, in formation order.
    pub cohorts: Vec<CohortReport>,
    /// Per-job accounting, in submission order.
    pub jobs: Vec<JobReport>,
    /// Merged counters/spans/histograms from the run's recorder.
    pub metrics: MetricsSnapshot,
}

fn ms(nanos: u64) -> String {
    format!("{:.3}ms", nanos as f64 / 1e6)
}

impl fmt::Display for RunReport {
    /// Aligned text tree: run → cohort → pass → shard, then jobs, then a
    /// metrics summary. Self time is the level's own work (cohort
    /// formation, pass planning); total includes the children.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run · {} workers · wall {}",
            self.workers,
            ms(self.wall_nanos)
        )?;
        for cohort in &self.cohorts {
            writeln!(
                f,
                "├─ cohort {} · {} copies · {} workers × {} shards · total {} · self {} (formation)",
                cohort.label,
                cohort.copies,
                cohort.workers,
                cohort.shards,
                ms(cohort.total_nanos()),
                ms(cohort.formation_nanos),
            )?;
            let name_width = cohort
                .passes
                .iter()
                .map(|p| p.name.len())
                .max()
                .unwrap_or(0);
            for (pi, pass) in cohort.passes.iter().enumerate() {
                let last_pass = pi + 1 == cohort.passes.len();
                let tee = if last_pass { "└─" } else { "├─" };
                writeln!(
                    f,
                    "│  {tee} {:<name_width$} · total {} · self {} (plan) · items {} · hits {} · updates {} · batches {}",
                    pass.name,
                    ms(pass.total_nanos()),
                    ms(pass.plan_nanos),
                    pass.tally.items,
                    pass.tally.hits,
                    pass.tally.updates,
                    pass.tally.kernel_batches,
                )?;
                let bar = if last_pass { "   " } else { "│  " };
                for (si, shard) in pass.shards.iter().enumerate() {
                    let stee = if si + 1 == pass.shards.len() {
                        "└─"
                    } else {
                        "├─"
                    };
                    writeln!(
                        f,
                        "│  {bar}{stee} shard {si:>2} · items {:>8} · busy {}",
                        shard.items,
                        ms(shard.nanos),
                    )?;
                }
            }
        }
        let label_width = self.jobs.iter().map(|j| j.label.len()).max().unwrap_or(0);
        for job in &self.jobs {
            writeln!(
                f,
                "├─ job {:<label_width$} · {} tasks · busy {} · queue→done {}",
                job.label,
                job.tasks,
                ms(job.busy_nanos),
                ms(job.latency_nanos),
            )?;
        }
        writeln!(f, "└─ metrics")?;
        write!(f, "   ├─ counters")?;
        for c in Counter::ALL {
            write!(f, " · {} {}", c.name(), self.metrics.counter(c))?;
        }
        writeln!(f)?;
        write!(f, "   ├─ spans")?;
        for s in Span::ALL {
            write!(
                f,
                " · {} {}× {}",
                s.name(),
                self.metrics.span_count(s),
                ms(self.metrics.span_total_nanos(s))
            )?;
        }
        writeln!(f)?;
        write!(f, "   └─ histograms")?;
        for h in Hist::ALL {
            write!(f, " · {} n={}", h.name(), self.metrics.histogram(h).count())?;
        }
        writeln!(f)
    }
}

impl RunReport {
    /// Serializes the report as pretty-printed, stable-schema JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"degentri.run_report.v1\",\n");
        out.push_str(&format!("  \"wall_nanos\": {},\n", self.wall_nanos));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str("  \"cohorts\": [");
        for (i, cohort) in self.cohorts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"label\": {},\n", escape(&cohort.label)));
            out.push_str(&format!("      \"copies\": {},\n", cohort.copies));
            out.push_str(&format!("      \"workers\": {},\n", cohort.workers));
            out.push_str(&format!("      \"shards\": {},\n", cohort.shards));
            out.push_str(&format!(
                "      \"formation_nanos\": {},\n",
                cohort.formation_nanos
            ));
            out.push_str(&format!(
                "      \"total_nanos\": {},\n",
                cohort.total_nanos()
            ));
            out.push_str("      \"passes\": [");
            for (j, pass) in cohort.passes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        {");
                out.push_str(&format!("\"name\": {}, ", escape(&pass.name)));
                out.push_str(&format!("\"plan_nanos\": {}, ", pass.plan_nanos));
                out.push_str(&format!("\"sweep_nanos\": {}, ", pass.sweep_nanos));
                out.push_str(&format!("\"items\": {}, ", pass.items));
                out.push_str(&format!(
                    "\"tally\": {{\"items\": {}, \"hits\": {}, \"updates\": {}, \"kernel_batches\": {}}}, ",
                    pass.tally.items, pass.tally.hits, pass.tally.updates, pass.tally.kernel_batches
                ));
                out.push_str("\"shards\": [");
                for (k, shard) in pass.shards.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{{\"items\": {}, \"nanos\": {}}}",
                        shard.items, shard.nanos
                    ));
                }
                out.push_str("]}");
            }
            if !cohort.passes.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("]\n    }");
        }
        if !self.cohorts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"jobs\": [");
        for (i, job) in self.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"label\": {}, ", escape(&job.label)));
            out.push_str(&format!("\"tasks\": {}, ", job.tasks));
            out.push_str(&format!("\"busy_nanos\": {}, ", job.busy_nanos));
            out.push_str(&format!("\"latency_nanos\": {}}}", job.latency_nanos));
        }
        if !self.jobs.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"metrics\": {\n");
        out.push_str("    \"counters\": {");
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {}",
                escape(c.name()),
                self.metrics.counter(c)
            ));
        }
        out.push_str("},\n");
        out.push_str("    \"spans\": {");
        for (i, s) in Span::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {{\"count\": {}, \"total_nanos\": {}}}",
                escape(s.name()),
                self.metrics.span_count(s),
                self.metrics.span_total_nanos(s)
            ));
        }
        out.push_str("},\n");
        out.push_str("    \"histograms\": {");
        for (i, h) in Hist::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: [", escape(h.name())));
            for (j, (bucket, count)) in self.metrics.histogram(h).nonzero().into_iter().enumerate()
            {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{bucket}, {count}]"));
            }
            out.push(']');
        }
        out.push_str("}\n");
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }

    /// Parses a report previously written by [`RunReport::to_json`].
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let doc = parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing schema field")?;
        if schema != "degentri.run_report.v1" {
            return Err(format!("unsupported schema '{schema}'"));
        }
        let field_u64 = |v: &JsonValue, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing or non-integer field '{key}'"))
        };
        let mut report = RunReport {
            wall_nanos: field_u64(&doc, "wall_nanos")?,
            workers: field_u64(&doc, "workers")? as usize,
            cohorts: Vec::new(),
            jobs: Vec::new(),
            metrics: MetricsSnapshot::default(),
        };
        for cohort in doc
            .get("cohorts")
            .and_then(JsonValue::as_arr)
            .ok_or("missing cohorts array")?
        {
            let mut passes = Vec::new();
            for pass in pass_array(cohort)? {
                let tally = pass.get("tally").ok_or("missing tally")?;
                let mut shards = Vec::new();
                for shard in pass
                    .get("shards")
                    .and_then(JsonValue::as_arr)
                    .ok_or("missing shards array")?
                {
                    shards.push(ShardReport {
                        items: field_u64(shard, "items")?,
                        nanos: field_u64(shard, "nanos")?,
                    });
                }
                passes.push(PassReport {
                    name: pass
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or("missing pass name")?
                        .to_string(),
                    plan_nanos: field_u64(pass, "plan_nanos")?,
                    sweep_nanos: field_u64(pass, "sweep_nanos")?,
                    items: field_u64(pass, "items")?,
                    tally: PassTally {
                        items: field_u64(tally, "items")?,
                        hits: field_u64(tally, "hits")?,
                        updates: field_u64(tally, "updates")?,
                        // Absent in pre-lane reports; default keeps older
                        // artifacts parseable.
                        kernel_batches: tally
                            .get("kernel_batches")
                            .and_then(JsonValue::as_u64)
                            .unwrap_or(0),
                    },
                    shards,
                });
            }
            report.cohorts.push(CohortReport {
                label: cohort
                    .get("label")
                    .and_then(JsonValue::as_str)
                    .ok_or("missing cohort label")?
                    .to_string(),
                copies: field_u64(cohort, "copies")? as usize,
                workers: field_u64(cohort, "workers")? as usize,
                shards: field_u64(cohort, "shards")? as usize,
                formation_nanos: field_u64(cohort, "formation_nanos")?,
                passes,
            });
        }
        for job in doc
            .get("jobs")
            .and_then(JsonValue::as_arr)
            .ok_or("missing jobs array")?
        {
            report.jobs.push(JobReport {
                label: job
                    .get("label")
                    .and_then(JsonValue::as_str)
                    .ok_or("missing job label")?
                    .to_string(),
                tasks: field_u64(job, "tasks")? as usize,
                busy_nanos: field_u64(job, "busy_nanos")?,
                latency_nanos: field_u64(job, "latency_nanos")?,
            });
        }
        let metrics = doc.get("metrics").ok_or("missing metrics object")?;
        for (name, value) in metrics
            .get("counters")
            .and_then(JsonValue::fields)
            .ok_or("missing counters")?
        {
            // Unknown names are skipped so older readers survive new
            // counters.
            if let Some(c) = Counter::from_name(name) {
                report.metrics.counters[c.index()] = value.as_u64().ok_or("non-integer counter")?;
            }
        }
        for (name, value) in metrics
            .get("spans")
            .and_then(JsonValue::fields)
            .ok_or("missing spans")?
        {
            if let Some(s) = Span::from_name(name) {
                report.metrics.span_counts[s.index()] = field_u64(value, "count")?;
                report.metrics.span_nanos[s.index()] = field_u64(value, "total_nanos")?;
            }
        }
        for (name, value) in metrics
            .get("histograms")
            .and_then(JsonValue::fields)
            .ok_or("missing histograms")?
        {
            if let Some(h) = Hist::from_name(name) {
                let mut pairs = Vec::new();
                for pair in value.as_arr().ok_or("histogram is not an array")? {
                    let pair = pair.as_arr().ok_or("histogram entry is not a pair")?;
                    if pair.len() != 2 {
                        return Err("histogram entry is not a pair".into());
                    }
                    pairs.push((
                        pair[0].as_u64().ok_or("bad bucket index")? as usize,
                        pair[1].as_u64().ok_or("bad bucket count")?,
                    ));
                }
                report.metrics.histograms[h.index()] =
                    Log2Histogram::from_nonzero(&pairs).ok_or("bucket index out of range")?;
            }
        }
        Ok(report)
    }
}

fn pass_array(cohort: &JsonValue) -> Result<&[JsonValue], String> {
    cohort
        .get("passes")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| "missing passes array".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRecorder;
    use crate::recorder::Recorder;

    fn sample_report() -> RunReport {
        let recorder = MetricsRecorder::new(2);
        recorder.add(0, Counter::SweepsExecuted, 6);
        recorder.add(1, Counter::ItemsFolded, 4 * 1000);
        recorder.span(0, Span::FusedSweep, 1_000_000);
        recorder.span(0, Span::PlanBuild, 10_000);
        recorder.observe(0, Hist::ShardNanos, 250_000);
        recorder.observe(1, Hist::ShardNanos, 260_000);
        RunReport {
            wall_nanos: 2_000_000,
            workers: 2,
            cohorts: vec![CohortReport {
                label: "six-pass".into(),
                copies: 4,
                workers: 2,
                shards: 2,
                formation_nanos: 5_000,
                passes: vec![PassReport {
                    name: "p1_uniform_sample".into(),
                    plan_nanos: 10_000,
                    sweep_nanos: 1_000_000,
                    items: 1000,
                    tally: PassTally {
                        items: 4000,
                        hits: 12,
                        updates: 0,
                        kernel_batches: 62,
                    },
                    shards: vec![
                        ShardReport {
                            items: 500,
                            nanos: 250_000,
                        },
                        ShardReport {
                            items: 500,
                            nanos: 260_000,
                        },
                    ],
                }],
            }],
            jobs: vec![JobReport {
                label: "six-pass \"quoted\"".into(),
                tasks: 4,
                busy_nanos: 1_900_000,
                latency_nanos: 2_100_000,
            }],
            metrics: recorder.snapshot().unwrap(),
        }
    }

    #[test]
    fn totals_compose_from_children() {
        let report = sample_report();
        assert_eq!(report.cohorts[0].passes[0].total_nanos(), 1_010_000);
        assert_eq!(report.cohorts[0].total_nanos(), 1_015_000);
    }

    #[test]
    fn display_renders_the_full_tree() {
        let text = sample_report().to_string();
        for needle in [
            "run · 2 workers",
            "├─ cohort six-pass · 4 copies",
            "p1_uniform_sample",
            "shard  0",
            "shard  1",
            "├─ job six-pass",
            "queue→done",
            "└─ metrics",
            "sweeps_executed 6",
            "fused_sweep 1×",
            "shard_nanos n=2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn every_metric_name_appears_in_display_and_json() {
        // The schema assertion for the metrics tail: adding a counter,
        // span, or histogram without extending `ALL`/`name()` (or a JSON
        // writer that drops one) fails here, not in a downstream consumer.
        let report = sample_report();
        let text = report.to_string();
        let json = report.to_json();
        for c in Counter::ALL {
            assert!(text.contains(c.name()), "Display missing {}", c.name());
            assert!(
                json.contains(&format!("\"{}\"", c.name())),
                "JSON missing {}",
                c.name()
            );
        }
        for s in Span::ALL {
            assert!(text.contains(s.name()), "Display missing {}", s.name());
            assert!(json.contains(&format!("\"{}\"", s.name())));
        }
        for h in Hist::ALL {
            assert!(text.contains(h.name()), "Display missing {}", h.name());
            assert!(json.contains(&format!("\"{}\"", h.name())));
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"degentri.run_report.v1\""));
        let parsed = RunReport::from_json(&json).expect("parse own output");
        assert_eq!(parsed, report);
        // And the round trip is a fixed point of serialization.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn empty_report_round_trips_too() {
        let report = RunReport {
            wall_nanos: 0,
            workers: 1,
            cohorts: Vec::new(),
            jobs: Vec::new(),
            metrics: MetricsSnapshot::default(),
        };
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn from_json_rejects_other_schemas_and_garbage() {
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("not json").is_err());
        let wrong = sample_report()
            .to_json()
            .replace("run_report.v1", "run_report.v999");
        assert!(RunReport::from_json(&wrong).is_err());
    }
}
