//! The per-layer metric set every traced run prints.
//!
//! Each workload fills in the layers on its own serving path. A layer
//! metric that is not on a workload's path — the resnet kernel layers
//! under `tiny_gateway_open`, the gateway under the in-process resnet
//! workloads, sharding where the server is not sharded — prints as 0, so
//! that every traced run carries the same keys.

use crate::probe::Profile;
use crate::report::Outcome;

/// Exact simulated statistics over a workload's fixed request prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Simulated {
    pub energy_uj_per_request: f64,
    pub top1_agree: f64,
    pub adc_fraction: f64,
    pub vectors_per_request: f64,
    pub adc_converts_per_request: f64,
    pub spec_failure_rate: f64,
}

/// Server-side figures of one measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerFigures {
    pub admit_us: f64,
    pub queue_us_p50: f64,
    pub queue_us_p99: f64,
    pub compute_us_p50: f64,
    pub compute_us_p99: f64,
    pub batch_size_mean: f64,
    pub worker_busy_fraction: f64,
    pub rejected: f64,
    pub recalibrations: f64,
    pub recal_pause_ms: f64,
}

/// Wall-clock figures of the serving window. They print with the traced
/// pass, ungated: on a host shared with other tenants they swing between
/// runs by more than any bound a gate could hold.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wall {
    pub throughput_rps: f64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub latency_p99_ms: f64,
    pub max_rate_under_slo_rps: f64,
}

#[derive(Debug, Clone, Default)]
pub struct LayerReport {
    pub wall: Wall,
    /// Key names of the resnet matrix layers, `L<i>.<name>`, in
    /// execution order.
    pub resnet_layers: Vec<String>,
    pub profile: Option<Profile>,
    /// Sharded ÷ unsharded image time and the number of split layers.
    pub shard: Option<(f64, usize)>,
    pub compile_s: f64,
    pub reprogram_ms: f64,
    pub server: ServerFigures,
    /// Client latency minus wire queue and compute time, p50 and p99.
    pub gateway_overhead_us: Option<(f64, f64)>,
    /// Generator lateness against its schedule, p99 and max.
    pub generator_late_us: Option<(f64, f64)>,
    pub price_us: f64,
    pub simulated: Simulated,
}

/// Key names for the matrix layers of the resnet model.
pub fn resnet_layer_keys(graph: &raella::nn::graph::Graph) -> Vec<String> {
    graph
        .matrix_layers()
        .iter()
        .enumerate()
        .map(|(i, l)| format!("L{i}.{}", l.name()))
        .collect()
}

impl LayerReport {
    pub fn push_into(&self, out: &mut Outcome) {
        let w = &self.wall;
        out.push("throughput_rps", w.throughput_rps, "1/s");
        out.push("latency_p50_ms", w.latency_p50_ms, "ms");
        out.push("latency_p95_ms", w.latency_p95_ms, "ms");
        out.push("latency_p99_ms", w.latency_p99_ms, "ms");
        out.push("max_rate_under_slo_rps", w.max_rate_under_slo_rps, "1/s");
        for (i, key) in self.resnet_layers.iter().enumerate() {
            let (vec_per_s, share) = self
                .profile
                .as_ref()
                .and_then(|p| {
                    let l = p.layers.get(i)?;
                    (format!("L{i}.{}", l.name) == *key).then(|| {
                        (
                            l.vectors as f64 / l.time.as_secs_f64(),
                            l.time.as_secs_f64() / p.traced.as_secs_f64(),
                        )
                    })
                })
                .unwrap_or((0.0, 0.0));
            out.push(format!("engine.{key}.vec_per_s"), vec_per_s, "1/s");
            out.push(format!("engine.{key}.share"), share, "ratio");
        }
        let p = self.profile.as_ref();
        out.push(
            "engine.gmac_per_s",
            p.map_or(0.0, Profile::gmac_per_s),
            "GMAC/s",
        );
        out.push(
            "nn.digital_share",
            p.map_or(0.0, Profile::digital_share),
            "ratio",
        );
        out.push(
            "trace.overhead",
            p.map_or(0.0, Profile::trace_overhead),
            "ratio",
        );
        let (shard_overhead, split) = self.shard.unwrap_or((0.0, 0));
        out.push("shard.overhead", shard_overhead, "ratio");
        out.push("shard.split_layers", split as f64, "count");
        out.push("compiler.compile_s", self.compile_s, "s");
        out.push("compiler.reprogram_ms", self.reprogram_ms, "ms");
        let s = &self.server;
        out.push("server.admit_us", s.admit_us, "us");
        out.push("server.queue_us.p50", s.queue_us_p50, "us");
        out.push("server.queue_us.p99", s.queue_us_p99, "us");
        out.push("server.compute_us.p50", s.compute_us_p50, "us");
        out.push("server.compute_us.p99", s.compute_us_p99, "us");
        out.push("server.batch_size_mean", s.batch_size_mean, "count");
        out.push(
            "server.worker_busy_fraction",
            s.worker_busy_fraction,
            "ratio",
        );
        out.push("server.rejected", s.rejected, "count");
        out.push("server.recalibrations", s.recalibrations, "count");
        out.push("server.recal_pause_ms", s.recal_pause_ms, "ms");
        let (g50, g99) = self.gateway_overhead_us.unwrap_or((0.0, 0.0));
        out.push("gateway.overhead_us.p50", g50, "us");
        out.push("gateway.overhead_us.p99", g99, "us");
        let (l99, lmax) = self.generator_late_us.unwrap_or((0.0, 0.0));
        out.push("gateway.generator_late_us.p99", l99, "us");
        out.push("gateway.generator_late_us.max", lmax, "us");
        out.push("energy.price_us", self.price_us, "us");
        let sim = &self.simulated;
        out.push("energy.adc_fraction", sim.adc_fraction, "ratio");
        out.push(
            "engine.vectors_per_request",
            sim.vectors_per_request,
            "count",
        );
        out.push(
            "engine.adc_converts_per_request",
            sim.adc_converts_per_request,
            "count",
        );
        out.push("engine.spec_failure_rate", sim.spec_failure_rate, "ratio");
    }
}
