//! Standalone references and stage-driven attribution.
//!
//! The reference check runs each job's standalone estimator over the same
//! snapshot; the attribution drives each copy's stage object through its
//! public `begin_pass → fold → finish_pass` protocol on one thread, timing
//! fold and finish per pass. Both must reproduce the engine's estimates
//! bit for bit, so the numbers describe the program the ops ran.

use std::time::Instant;

use degentri_core::{
    estimate_triangles, estimate_triangles_with_oracle, ideal_copy_seed, main_copy_seed,
    EstimatorConfig, IdealCopyStages, MainCopyStages,
};
use degentri_dynamic::{
    dynamic_copy_seed, DynamicCopyStages, DynamicEstimatorConfig, DynamicTriangleEstimator,
};
use degentri_graph::Edge;
use degentri_stream::{
    DynamicMemoryStream, EdgeUpdate, MemoryStream, StreamStats, DEFAULT_BATCH_SIZE,
};

use crate::workload::{dynamic_config, edge_snapshot, main_config, update_snapshot, Input, Kind};

/// Per-job estimates of the standalone estimators for op seed `seed`, in
/// the engine's job order.
pub fn reference(input: &Input, seed: u64) -> Result<Vec<f64>, String> {
    let g = degentri_graph::io::read_edge_list(&input.bytes[..]).map_err(|e| e.to_string())?;
    match input.spec.kind {
        Kind::Main | Kind::Mixed => {
            let stream = edge_snapshot(input, &g);
            let config = main_config(input, seed);
            let mut out = vec![
                estimate_triangles(&stream, &config)
                    .map_err(|e| e.to_string())?
                    .estimate,
            ];
            if input.spec.kind == Kind::Mixed {
                let stats = StreamStats::compute(&stream);
                out.push(
                    estimate_triangles_with_oracle(&stream, &stats, &config)
                        .map_err(|e| e.to_string())?
                        .estimate,
                );
            }
            Ok(out)
        }
        Kind::Turnstile => {
            let stream = update_snapshot(input, &g);
            let outcome = DynamicTriangleEstimator::new(dynamic_config(input, seed))
                .run(&stream)
                .map_err(|e| e.to_string())?;
            Ok(vec![outcome.estimate])
        }
    }
}

/// Fold and finish seconds per pass, summed over one job's copies.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    pub fold: Vec<f64>,
    pub finish: Vec<f64>,
    /// Per-copy estimates, in copy order.
    pub estimates: Vec<f64>,
    /// Sketch updates the first pass tallied (turnstile copies only).
    pub first_pass_updates: u64,
}

/// The stage protocol the three copy types share.
trait Staged: Sized {
    type Acc;
    type Item;
    const PASSES: usize;
    fn begin(&self) -> Self::Acc;
    fn fold_chunk(&self, acc: &mut Self::Acc, pos: u64, chunk: &[Self::Item]);
    fn finish_one(&mut self, acc: Self::Acc) -> Result<(), String>;
    fn tallied_updates(&self, _pass: usize) -> u64 {
        0
    }
    fn estimate(self) -> Result<f64, String>;
}

impl Staged for MainCopyStages {
    type Acc = degentri_core::MainStageAcc;
    type Item = Edge;
    const PASSES: usize = MainCopyStages::PASSES as usize;
    fn begin(&self) -> Self::Acc {
        self.begin_pass()
    }
    fn fold_chunk(&self, acc: &mut Self::Acc, pos: u64, chunk: &[Edge]) {
        self.fold(acc, pos, chunk)
    }
    fn finish_one(&mut self, acc: Self::Acc) -> Result<(), String> {
        self.finish_pass(vec![acc]).map_err(|e| e.to_string())
    }
    fn estimate(self) -> Result<f64, String> {
        self.finish().map(|o| o.estimate).map_err(|e| e.to_string())
    }
}

impl Staged for IdealCopyStages<'_, StreamStats> {
    type Acc = degentri_core::IdealStageAcc;
    type Item = Edge;
    const PASSES: usize = IdealCopyStages::<StreamStats>::PASSES as usize;
    fn begin(&self) -> Self::Acc {
        self.begin_pass()
    }
    fn fold_chunk(&self, acc: &mut Self::Acc, pos: u64, chunk: &[Edge]) {
        self.fold(acc, pos, chunk)
    }
    fn finish_one(&mut self, acc: Self::Acc) -> Result<(), String> {
        self.finish_pass(vec![acc]).map_err(|e| e.to_string())
    }
    fn estimate(self) -> Result<f64, String> {
        self.finish().map(|o| o.estimate).map_err(|e| e.to_string())
    }
}

impl Staged for DynamicCopyStages {
    type Acc = degentri_dynamic::DynamicStageAcc;
    type Item = EdgeUpdate;
    const PASSES: usize = DynamicCopyStages::PASSES as usize;
    fn begin(&self) -> Self::Acc {
        self.begin_pass()
    }
    fn fold_chunk(&self, acc: &mut Self::Acc, pos: u64, chunk: &[EdgeUpdate]) {
        self.fold(acc, pos, chunk)
    }
    fn finish_one(&mut self, acc: Self::Acc) -> Result<(), String> {
        self.finish_pass(vec![acc]).map_err(|e| e.to_string())
    }
    fn tallied_updates(&self, pass: usize) -> u64 {
        self.pass_tallies()[pass].updates
    }
    fn estimate(self) -> Result<f64, String> {
        self.finish().map(|o| o.estimate).map_err(|e| e.to_string())
    }
}

/// Drives every copy through all its passes over `items` as one unsharded
/// sweep per pass, in the engine's chunk size.
fn drive<S: Staged>(
    copies: impl Iterator<Item = Result<S, String>>,
    items: &[S::Item],
) -> Result<StageTimes, String> {
    let mut times = StageTimes {
        fold: vec![0.0; S::PASSES],
        finish: vec![0.0; S::PASSES],
        ..StageTimes::default()
    };
    for copy in copies {
        let mut copy = copy?;
        for pass in 0..S::PASSES {
            let mark = Instant::now();
            let mut acc = copy.begin();
            for (i, chunk) in items.chunks(DEFAULT_BATCH_SIZE).enumerate() {
                copy.fold_chunk(&mut acc, (i * DEFAULT_BATCH_SIZE) as u64, chunk);
            }
            times.fold[pass] += mark.elapsed().as_secs_f64();
            let mark = Instant::now();
            copy.finish_one(acc)?;
            times.finish[pass] += mark.elapsed().as_secs_f64();
            if pass == 0 {
                times.first_pass_updates += copy.tallied_updates(0);
            }
        }
        times.estimates.push(copy.estimate()?);
    }
    Ok(times)
}

/// Stage-driven six-pass copies of `config` over `stream`.
pub fn drive_main(stream: &MemoryStream, config: &EstimatorConfig) -> Result<StageTimes, String> {
    let (m, n) = (stream.edges().len(), num_vertices(stream));
    drive(
        (0..config.copies).map(|c| {
            MainCopyStages::new(config, m, n, main_copy_seed(config.seed, c))
                .map_err(|e| e.to_string())
        }),
        stream.edges(),
    )
}

/// Stage-driven ideal copies of `config` over `stream`, querying `stats`.
pub fn drive_ideal(
    stream: &MemoryStream,
    stats: &StreamStats,
    config: &EstimatorConfig,
) -> Result<StageTimes, String> {
    let (m, n) = (stream.edges().len(), num_vertices(stream));
    drive(
        (0..config.copies).map(|c| {
            IdealCopyStages::new(config, stats, m, n, ideal_copy_seed(config.seed, c))
                .map_err(|e| e.to_string())
        }),
        stream.edges(),
    )
}

/// Stage-driven turnstile copies of `config` over `stream`.
pub fn drive_dynamic(
    stream: &DynamicMemoryStream,
    config: &DynamicEstimatorConfig,
) -> Result<StageTimes, String> {
    let updates = stream.updates();
    let n = degentri_stream::DynamicEdgeStream::num_vertices(stream);
    drive(
        (0..config.copies).map(|c| {
            DynamicCopyStages::new(config, updates.len(), n, dynamic_copy_seed(config.seed, c))
                .map_err(|e| e.to_string())
        }),
        updates,
    )
}

fn num_vertices(stream: &MemoryStream) -> usize {
    degentri_stream::EdgeStream::num_vertices(stream)
}
