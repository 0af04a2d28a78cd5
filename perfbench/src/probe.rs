//! The traced pass's view of the `engine`, `nn` and `shard` layers,
//! measured from outside the program.
//!
//! [`TimedEngine`] is a `MatVecEngine` that serves a compiled model's
//! matrix-layer calls through the public `engine::run_batch_at_age`
//! kernel and times each call. Running it under `Graph::run_planned`
//! reproduces `CompiledModel::run_image`; [`profile`] checks that it does,
//! bit for bit, before it reports a single time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use raella::core::engine::run_batch_at_age;
use raella::core::{CompiledLayer, CompiledModel, CoreError, RunStats, ShardPlan};
use raella::nn::graph::ValueArena;
use raella::nn::layers::MatVecEngine;
use raella::nn::matrix::{Act, MatrixLayer};
use raella::nn::Tensor;

/// Accumulated work and time of one matrix layer.
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    pub name: String,
    pub time: Duration,
    pub vectors: u64,
    pub macs: u64,
}

struct TimedEngine<'m> {
    layers: &'m [Arc<CompiledLayer>],
    cursor: usize,
    noise_seed: u64,
    next_vector: u64,
    stats: RunStats,
    times: &'m mut [LayerTime],
}

impl MatVecEngine for TimedEngine<'_> {
    fn layer_outputs(&mut self, layer: &MatrixLayer, inputs: &[Act]) -> Vec<u8> {
        let node = self.cursor;
        self.cursor += 1;
        let mut local = RunStats::default();
        let start = Instant::now();
        let out = run_batch_at_age(
            &self.layers[node],
            inputs,
            &mut local,
            self.noise_seed,
            self.next_vector,
            0,
        );
        let t = &mut self.times[node];
        t.time += start.elapsed();
        t.vectors += local.vectors;
        t.macs += local.events.macs;
        self.stats.merge(&local);
        self.next_vector += (inputs.len() / layer.filter_len()) as u64;
        out
    }
}

/// The noise-stream seed `CompiledModel` derives from its configuration.
/// The bit-for-bit comparison in [`profile`] fails if the two ever part.
fn noise_seed(model: &CompiledModel) -> u64 {
    model.config().seed ^ 0xE61E
}

/// Per-layer times of a model over a set of images, next to the same
/// images' untraced time.
#[derive(Debug, Clone)]
pub struct Profile {
    pub layers: Vec<LayerTime>,
    /// Whole-image time with the timing wrapper in place.
    pub traced: Duration,
    /// Whole-image time of `CompiledModel::run_image_in`, no wrapper.
    pub untraced: Duration,
    /// Whether every traced output and statistics block equalled
    /// `CompiledModel::run_image`.
    pub exact: bool,
}

impl Profile {
    pub fn matrix_time(&self) -> Duration {
        self.layers.iter().map(|l| l.time).sum()
    }

    /// Share of traced image time spent outside the matrix layers.
    pub fn digital_share(&self) -> f64 {
        1.0 - self.matrix_time().as_secs_f64() / self.traced.as_secs_f64()
    }

    pub fn gmac_per_s(&self) -> f64 {
        let macs: u64 = self.layers.iter().map(|l| l.macs).sum();
        macs as f64 / self.matrix_time().as_secs_f64() / 1e9
    }

    pub fn trace_overhead(&self) -> f64 {
        self.traced.as_secs_f64() / self.untraced.as_secs_f64()
    }
}

/// Runs every image `reps` times traced and untraced, interleaved so
/// that a change in machine speed hits both sides alike.
pub fn profile(
    model: &CompiledModel,
    images: &[Tensor<u8>],
    reps: usize,
) -> Result<Profile, CoreError> {
    let graph = model.graph();
    let plan = graph.plan()?;
    let mut times: Vec<LayerTime> = model
        .compiled_layers()
        .iter()
        .map(|l| LayerTime {
            name: l.name().to_string(),
            ..LayerTime::default()
        })
        .collect();
    let mut arena = ValueArena::new();
    let mut traced = Duration::ZERO;
    let mut untraced = Duration::ZERO;
    let mut exact = true;
    for _ in 0..reps {
        for image in images {
            let mut engine = TimedEngine {
                layers: model.compiled_layers(),
                cursor: 0,
                noise_seed: noise_seed(model),
                next_vector: 0,
                stats: RunStats::default(),
                times: &mut times,
            };
            let start = Instant::now();
            let out = graph.run_planned(&plan, image, &mut engine, &mut arena)?;
            traced += start.elapsed();
            let stats = engine.stats;

            let start = Instant::now();
            let (reference, reference_stats) = model.run_image_in(image, &mut arena, false)?;
            untraced += start.elapsed();
            exact &= out == reference && stats == reference_stats;
        }
    }
    Ok(Profile {
        layers: times,
        traced,
        untraced,
        exact,
    })
}

/// Sharded ÷ unsharded image time of the same compiled model under
/// `plan`, and whether the sharded outputs equalled the unsharded ones.
pub fn shard_overhead(
    model: &CompiledModel,
    plan: &ShardPlan,
    images: &[Tensor<u8>],
    reps: usize,
) -> Result<(f64, bool), CoreError> {
    let mut arena = ValueArena::new();
    let mut sharded = Duration::ZERO;
    let mut whole = Duration::ZERO;
    let mut exact = true;
    for _ in 0..reps {
        for image in images {
            let start = Instant::now();
            let (a, _) = plan.run_image_in(model, image, &mut arena, false)?;
            sharded += start.elapsed();
            let start = Instant::now();
            let (b, _) = model.run_image_in(image, &mut arena, false)?;
            whole += start.elapsed();
            exact &= a == b;
        }
    }
    Ok((sharded.as_secs_f64() / whole.as_secs_f64(), exact))
}

/// Mean time of one `CompiledModel::energy_breakdown` call on `stats`.
pub fn price_time(model: &CompiledModel, stats: &RunStats, calls: usize) -> Duration {
    let start = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(model.energy_breakdown(std::hint::black_box(stats)));
    }
    start.elapsed() / calls.max(1) as u32
}
