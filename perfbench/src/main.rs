//! The repository's benchmark: three serving workloads driven through the
//! public `raella` API, every output checked, every metric printed by name
//! with its unit.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload resnet_ideal_closed --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! pass and prints the per-layer metrics instead. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A wrong output makes `correct` false and the
//! exit code 1. Every output is checked outside the measured window: on
//! `resnet_ideal_closed` and `tiny_gateway_open` against
//! `CompiledModel::run_batch`, on the drift workload against an offline
//! replay at the response's `(layer_generations, age)`. The seed picks
//! the generated images only; the models are fixed. `RAELLA_THREADS` is
//! pinned to 1, and every workload pins its threads to one CPU before
//! its server starts (the drift replay check gets every CPU back).
//!
//! # Workloads
//!
//! * `resnet_ideal_closed` — `mini_resnet18(0xBE)`, ideal configuration
//!   with `search_vectors: 3`, a one-worker `RaellaServer` and one
//!   closed-loop in-process client. The `engine` matrix kernel takes
//!   about 94% of image time and the server's overhead is negligible,
//!   so a kernel change shows its full effect here. Stresses `engine`
//!   and `nn`.
//! * `resnet_noisy_drift_sharded` — the same model and loop with
//!   `with_noise(0.04)`, a drifting `DeviceLifetime`, 144-row crossbars
//!   placed on four 144×144 tiles (two layers split into row-group
//!   slices) and the fidelity watchdog on. The same engine runs
//!   differently: `xbar` noise draws and phase-2 conversion, `shard`
//!   partial sums, and `compiler`/`policy` reprogramming writes beside
//!   serving reads. A kernel change that helps whole-layer ideal runs
//!   but costs noisy or sliced runs shows here. Under noise every
//!   watchdog sample breaches the 0.3 error budget, so every tenth
//!   request follows a reprogram-and-swap. Before each submission the
//!   client waits until the worker has booked the previous batch, which
//!   it does only after the watchdog sample and any swap (the wait counts
//!   in that request's latency), so every request's `(generation, age)`
//!   and hence every simulated figure is a function of the seed.
//! * `tiny_gateway_open` — the microscopic model of `examples/gateway.rs`
//!   behind `RaellaServer` + `Gateway` on loopback. One generator thread
//!   drives 2 pipelined nonblocking connections on an open-loop schedule
//!   at a nominal 20k requests/s (and, in the traced pass, up a fixed
//!   rate ladder). Compute is about
//!   zero, so `server` admission, queue and waker delivery plus `gateway`
//!   framing set all the latency. Kernel changes must show no change
//!   here; per-request fixed costs (instrumentation, metering) show here
//!   first. A request crosses between threads four times, and spread
//!   over two CPUs what each cross-CPU wake-up costs swings with the
//!   host's other tenants; on one CPU the wakes stay local.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! * `cpu_ms_per_request`: CPU time of the server's threads (every
//!   thread but the client's) over the measured window, per completed
//!   request: what it costs to serve one request. The resnet workloads
//!   spend it in the kernel, `tiny_gateway_open` in admission, queueing,
//!   waking and framing. It is scaled to host speed: the client runs a
//!   pass of a fixed integer kernel (`report::Reference`) after each
//!   response in the closed loop, and every 250 ms in the open loop, on
//!   the server's CPU, and the figure is the server's CPU per request
//!   times `REFERENCE_PASS_MS` (1 ms) over the mean CPU time of a pass.
//!   The host's other tenants slow the guest down by up to half for
//!   minutes at a time; the kernel slows down with the requests, and on
//!   six runs across such a slow-down the scaling cut the spread of the
//!   figure from 0.23 to 0.09 (`resnet_ideal_closed`) and from 0.26 to
//!   0.14 (`tiny_gateway_open`). On `tiny_gateway_open` it is the median
//!   over ten equal sub-windows, each scaled by its own passes. The mean
//!   pass time, and in the closed loop the unscaled figure, print on
//!   standard error.
//! * `success_fraction`: 1 − (failed + refused + wrong outputs) /
//!   attempted. The same counts are the result line's `failed` and
//!   `attempted`.
//! * `setup_s`: from a fresh `SharedCompileCache` to the first request
//!   admitted (compile, server build, gateway bind); the median of
//!   several set-ups.
//! * `peak_rss_mb`: the process's resident high-water mark after the
//!   measured window.
//! * `energy_uj_per_request`, `top1_agree` (simulated): mean
//!   `Response::energy().total_pj()`, and the share of responses whose
//!   `predicted()` equals the argmax of `Graph::run_reference`, over a
//!   fixed prefix of the run's requests. They repeat exactly for a seed.
//!
//! # Wall-clock figures (`--trace 1`, ungated)
//!
//! `throughput_rps`, `latency_p50_ms`, `latency_p95_ms`,
//! `latency_p99_ms` and `max_rate_under_slo_rps` are what a client sees,
//! and they print first in the traced pass. On a host whose other
//! tenants take the CPU for seconds at a time they swing between runs by
//! more than the 25% any gate may allow (p50 by 20–30% on the resnet
//! workloads and several-fold on `tiny_gateway_open`), so no bound is
//! set on them; `cpu_ms_per_request`, which the scheduler does not charge
//! for stolen or waiting time, carries the gate instead.
//!
//! * `throughput_rps`: completed requests per second; in the closed loop
//!   the median rate of ten equal sub-windows, in the open loop the
//!   completion rate of the nominal phase.
//! * Latency is per request: in the closed loop from when the request
//!   was due (the previous response's arrival) to its response, in the
//!   open loop from its scheduled send time. Each percentile is the
//!   median over sub-windows of the sub-window's percentile.
//! * `max_rate_under_slo_rps`: on `tiny_gateway_open` the completion
//!   rate of the highest rung of a fixed ladder (15k to 60k/s) whose p99
//!   meets 10 ms with every request answered and no backlog beyond what
//!   the limit allows; on the closed-loop workloads, where one client
//!   builds no queue, the rate of requests that met 1 s.
//!
//! # Layer metrics and the end-to-end metrics they should move
//!
//! * `engine.L<i>.<layer>.vec_per_s` / `.share`, `engine.gmac_per_s`:
//!   `cpu_ms_per_request`, `throughput_rps` and `latency_p50_ms` on both
//!   resnet workloads, nothing on `tiny_gateway_open`. Measured by a `MatVecEngine` that
//!   times `engine::run_batch_at_age` per compiled layer under
//!   `Graph::run_planned`, checked bit for bit against
//!   `CompiledModel::run_image`.
//! * `nn.digital_share` (image time outside the matrix layers): the
//!   limit on `throughput_rps` once the kernel's share shrinks.
//! * `shard.overhead` (sharded ÷ unsharded image time, same model) and
//!   `shard.split_layers`: `latency_p50_ms` on
//!   `resnet_noisy_drift_sharded` only.
//! * `compiler.compile_s`: `setup_s`. `compiler.reprogram_ms`,
//!   `server.recalibrations`, `server.recal_pause_ms`: `latency_p95_ms`
//!   on the drift workload.
//! * `server.admit_us`, `server.queue_us.*`: latency on
//!   `tiny_gateway_open`, and admission cost in its `cpu_ms_per_request`. `server.compute_us.*`: latency on the resnet
//!   workloads. Also `server.batch_size_mean`,
//!   `server.worker_busy_fraction`, `server.rejected`.
//! * `gateway.overhead_us.*` (client latency minus wire queue and compute
//!   time): latency and `max_rate_under_slo_rps` on `tiny_gateway_open`.
//!   `gateway.generator_late_us.*` is the generator's own lateness; a run
//!   whose nominal-phase p99 lateness passes 2 ms is invalid.
//! * `energy.price_us` (one `CompiledModel::energy_breakdown` call):
//!   only on `tiny_gateway_open`. `energy.adc_fraction` is simulated.
//! * `engine.vectors_per_request`, `engine.adc_converts_per_request`,
//!   `engine.spec_failure_rate`: exact counts. A change that only speeds
//!   up the host leaves them identical.
//! * `trace.overhead`: traced ÷ untraced image time, the wrapper's cost.
//!
//! A layer not on a workload's path reports 0 in that workload's traced
//! run.

mod closed;
mod layers;
mod open;
mod probe;
mod report;

use std::process::ExitCode;

use report::Outcome;

/// The workloads, by the names `BENCHMARK.json` gives them.
pub const WORKLOADS: [&str; 3] = [
    "resnet_ideal_closed",
    "resnet_noisy_drift_sharded",
    "tiny_gateway_open",
];

/// The end-to-end metrics every untraced run prints.
pub struct EndToEnd {
    pub cpu_ms_per_request: f64,
    pub success_fraction: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub energy_uj_per_request: f64,
    pub top1_agree: f64,
}

impl EndToEnd {
    pub fn push_into(&self, out: &mut Outcome) {
        out.push("cpu_ms_per_request", self.cpu_ms_per_request, "ms");
        out.push("success_fraction", self.success_fraction, "ratio");
        out.push("setup_s", self.setup_s, "s");
        out.push("peak_rss_mb", self.peak_rss_mb, "MiB");
        out.push("energy_uj_per_request", self.energy_uj_per_request, "uJ");
        out.push("top1_agree", self.top1_agree, "ratio");
    }
}

/// Key names of the resnet model's matrix layers, for the traced runs of
/// workloads that do not serve it.
pub fn resnet_layer_names() -> Vec<String> {
    layers::resnet_layer_keys(&raella::nn::models::mini::mini_resnet18(0xBE).graph)
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs one workload and returns its result line, with the simulated
/// statistics behind it.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<(Outcome, layers::Simulated), Box<dyn std::error::Error>> {
    match workload {
        "resnet_ideal_closed" => closed::run(false, seed, seconds, trace),
        "resnet_noisy_drift_sharded" => closed::run(true, seed, seconds, trace),
        "tiny_gateway_open" => open::run(seed, seconds, trace),
        other => Err(format!("unknown workload {other}").into()),
    }
}

fn main() -> ExitCode {
    // Before any thread exists: every layer runs on one thread.
    std::env::set_var("RAELLA_THREADS", "1");
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok((outcome, _)) => {
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {} outputs failed their check", outcome.failed);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_arguments() {
        assert_eq!(
            args("--workload tiny_gateway_open --seed 7 --seconds 3 --trace 1"),
            Ok(Args {
                workload: "tiny_gateway_open".into(),
                seed: 7,
                seconds: 3,
                trace: true,
            })
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload tiny_gateway_open --seed").is_err());
    }

    /// The `name`s listed under `section` in `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    fn names(o: &Outcome) -> Vec<String> {
        o.metrics.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        assert_eq!(declared("workloads"), WORKLOADS.to_vec());
        let mut e2e = Outcome::default();
        EndToEnd {
            cpu_ms_per_request: 0.0,
            success_fraction: 0.0,
            setup_s: 0.0,
            peak_rss_mb: 0.0,
            energy_uj_per_request: 0.0,
            top1_agree: 0.0,
        }
        .push_into(&mut e2e);
        assert_eq!(names(&e2e), declared("end_to_end"));
        let mut per_layer = Outcome::default();
        layers::LayerReport {
            resnet_layers: resnet_layer_names(),
            ..layers::LayerReport::default()
        }
        .push_into(&mut per_layer);
        assert_eq!(names(&per_layer), declared("per_layer"));
    }

    /// Simulated statistics and exact counts are functions of the seed
    /// alone, whatever the host's timing.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "serves real traffic; run with --release")]
    fn simulated_statistics_repeat_for_a_seed() {
        std::env::set_var("RAELLA_THREADS", "1");
        let exact = [
            "energy.adc_fraction",
            "engine.vectors_per_request",
            "engine.adc_converts_per_request",
            "engine.spec_failure_rate",
        ];
        for workload in WORKLOADS {
            let (a, sim_a) = run(workload, 5, 1, true).expect("first run");
            let (b, sim_b) = run(workload, 5, 1, true).expect("second run");
            assert!(
                a.correct && b.correct,
                "{workload}: failed {} and {}",
                a.failed,
                b.failed
            );
            assert_eq!(sim_a, sim_b, "{workload}");
            for key in exact {
                assert_eq!(a.get(key), b.get(key), "{workload}: {key}");
            }
            assert!(sim_a.energy_uj_per_request > 0.0 && sim_a.top1_agree > 0.0);
        }
    }
}
