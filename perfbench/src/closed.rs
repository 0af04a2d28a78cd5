//! `resnet_ideal_closed` and `resnet_noisy_drift_sharded`: one in-process
//! client in a closed loop against a one-worker `RaellaServer` serving
//! `mini_resnet18`.

use std::collections::HashMap;
use std::error::Error;
use std::time::{Duration, Instant};

use raella::core::engine::RunStats;
use raella::nn::graph::argmax;
use raella::nn::models::mini::mini_resnet18;
use raella::prelude::*;

use crate::layers::{resnet_layer_keys, LayerReport, ServerFigures, Simulated, Wall};
use crate::probe;
use crate::report::{
    mean, median, ms, peak_rss_mb, percentile_of, pin_to_one_cpu, server_cpu_s, set_cpus, us,
    windowed_percentile, windowed_rate, Outcome, Reference, REFERENCE_PASS_MS,
};
use crate::EndToEnd;

/// Distinct images the client cycles through.
const IMAGES: usize = 200;
/// Images the traced pass profiles layer by layer.
const PROFILE_IMAGES: usize = 16;
/// Requests every run serves at least, whatever its window: p95 then has
/// at least 10 samples beyond it, and the simulated statistics are taken
/// over exactly these first requests, so they repeat for a fixed seed.
const MIN_REQUESTS: usize = 200;
/// Server builds per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Requests served after set-up and before the window opens.
const WARMUP: usize = 2;
/// The drift workload's fidelity-watchdog period, in served requests.
const WATCHDOG_INTERVAL: u64 = 10;
/// Latency limit of `max_rate_under_slo_rps` on the closed-loop workloads.
const SLO_MS: f64 = 1_000.0;

/// Sub-windows `throughput_rps` is the median rate of.
const RATE_WINDOWS: usize = 10;
/// Sub-windows the latency percentiles are medians over.
const LATENCY_WINDOWS: usize = 4;

/// The model's weights are fixed; only the images follow the seed.
const MODEL_SEED: u64 = 0xBE;

fn config(noisy: bool) -> RaellaConfig {
    let cfg = RaellaConfig {
        search_vectors: 3,
        ..RaellaConfig::default()
    };
    if !noisy {
        return cfg;
    }
    let mut cfg = RaellaConfig {
        crossbar_rows: 144,
        crossbar_cols: 144,
        ..cfg
    }
    .with_noise(0.04)
    .with_lifetime(DeviceLifetime::new(0.02, 0.01, 4096));
    cfg.error_budget = 0.3;
    cfg
}

fn builder(graph: &Graph, cfg: &RaellaConfig, noisy: bool) -> ServerBuilder {
    let b = RaellaServer::builder()
        .model(graph, cfg)
        .compile_cache(SharedCompileCache::new())
        .workers(1);
    if noisy {
        b.shards(4)
            .tile_spec(TileSpec::new(144, 144))
            .watchdog_interval(WATCHDOG_INTERVAL)
            .watchdog_vectors(4)
    } else {
        b
    }
}

fn image_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1)
}

struct Rec {
    image: usize,
    /// Response arrival, seconds after the window opened.
    done_s: f64,
    latency: Duration,
    admit: Duration,
    resp: Result<Response, CoreError>,
}

/// Blocks until the single worker's booked busy time moves past
/// `booked`, and returns the new total. The worker books a batch's time
/// only after the batch, the watchdog sample that may follow it and any
/// plan swap are done. A client that waits for each booking before its
/// next submission never races a swap, so every request's
/// `(generation, age)` is a function of the seed. The wait counts in the
/// next request's latency.
fn await_booking(server: &RaellaServer, booked: u64) -> Result<u64, CoreError> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let now_booked = server.metrics().worker_busy_ticks();
        if now_booked != booked {
            return Ok(now_booked);
        }
        if Instant::now() > deadline {
            return Err(CoreError::Server(
                "the worker never booked its batch".into(),
            ));
        }
        std::thread::sleep(Duration::from_micros(20));
    }
}

/// The closed loop: submit, wait, run one pass of `reference`, repeat.
/// Each request is due when the previous response arrived, plus the
/// reference pass. With `sync`, the caller guarantees that
/// every earlier batch is booked, and each iteration waits for its own
/// batch's booking.
fn closed_loop(
    server: &RaellaServer,
    images: &[Tensor<u8>],
    first: usize,
    window: Duration,
    min_requests: usize,
    sync: bool,
    reference: &mut Reference,
) -> Result<(Vec<Rec>, Duration), CoreError> {
    let mut recs = Vec::new();
    let mut booked = server.metrics().worker_busy_ticks();
    let start = Instant::now();
    let mut due = start;
    while recs.len() < min_requests || start.elapsed() < window {
        let image = (first + recs.len()) % images.len();
        let t = Instant::now();
        let handle = server.submit(images[image].clone());
        let admit = t.elapsed();
        let resp = handle.and_then(RequestHandle::wait);
        let done = Instant::now();
        recs.push(Rec {
            image,
            done_s: (done - start).as_secs_f64(),
            latency: done - due,
            admit,
            resp,
        });
        if sync {
            booked = await_booking(server, booked)?;
        }
        let pass = Instant::now();
        reference.pass();
        due = done + pass.elapsed();
    }
    Ok((recs, start.elapsed()))
}

/// Checks every response against an offline run; returns the verdict of
/// each record.
fn check(
    recs: &[Rec],
    images: &[Tensor<u8>],
    base: &CompiledModel,
    noisy: bool,
) -> Result<Vec<bool>, CoreError> {
    if !noisy {
        let expect = base.run_batch(images)?;
        return Ok(recs
            .iter()
            .map(|r| {
                r.resp
                    .as_ref()
                    .is_ok_and(|resp| resp.output() == &expect.outputs()[r.image])
            })
            .collect());
    }
    // Offline replay: reprogram to the response's per-layer generations,
    // run at its age.
    let mut replays: HashMap<Vec<u64>, CompiledModel> = HashMap::new();
    for resp in recs.iter().filter_map(|r| r.resp.as_ref().ok()) {
        let gens = resp.layer_generations();
        if !replays.contains_key(gens) {
            replays.insert(gens.to_vec(), base.reprogram_to(gens)?);
        }
    }
    let replay_one = |r: &Rec| -> Result<bool, CoreError> {
        let Ok(resp) = &r.resp else { return Ok(false) };
        let model = &replays[resp.layer_generations()];
        let (out, stats) = model.run_image_at_age(&images[r.image], resp.age())?;
        Ok(resp.output() == &out && resp.stats() == &stats)
    };
    let half = recs.len().div_ceil(2);
    let (a, b) = recs.split_at(half);
    let (ra, rb) = std::thread::scope(|s| {
        let ta = s.spawn(|| a.iter().map(replay_one).collect::<Result<Vec<_>, _>>());
        let rb = b.iter().map(replay_one).collect::<Result<Vec<_>, _>>();
        (ta.join().expect("replay thread panicked"), rb)
    });
    let mut verdicts = ra?;
    verdicts.extend(rb?);
    Ok(verdicts)
}

fn simulated(recs: &[Rec], reference_top1: &[usize]) -> Simulated {
    let prefix = &recs[..MIN_REQUESTS.min(recs.len())];
    let mut stats = RunStats::default();
    let mut energy = EnergyBreakdown::default();
    let mut agree = 0usize;
    for r in prefix {
        if let Ok(resp) = &r.resp {
            stats.merge(resp.stats());
            energy = energy.add(resp.energy());
            agree += usize::from(resp.predicted() == reference_top1[r.image]);
        }
    }
    let n = prefix.len() as f64;
    Simulated {
        energy_uj_per_request: energy.total_pj() / n / 1e6,
        top1_agree: agree as f64 / n,
        adc_fraction: energy.adc_fraction(),
        vectors_per_request: stats.vectors as f64 / n,
        adc_converts_per_request: stats.events.adc_converts as f64 / n,
        spec_failure_rate: stats.spec_failure_rate(),
    }
}

pub fn run(
    noisy: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<(Outcome, Simulated), Box<dyn Error>> {
    // Before the worker starts, so that it inherits it: the client then
    // runs its reference passes on the worker's CPU.
    let cpus = pin_to_one_cpu();
    if cpus.is_none() {
        eprintln!("could not pin to one CPU; the threads run unpinned");
    }
    let mini = mini_resnet18(MODEL_SEED);
    let graph = &mini.graph;
    let cfg = config(noisy);
    let images: Vec<Tensor<u8>> = (0..IMAGES)
        .map(|i| mini.sample_image(image_seed(seed, i)))
        .collect();

    // Set-up: fresh compile cache → compile → server → first admission.
    let mut setups = Vec::new();
    let mut server = None;
    let builds = if trace { 1 } else { SETUPS };
    for i in 0..builds {
        let start = Instant::now();
        let built = builder(graph, &cfg, noisy).build()?;
        let first = built.submit(images[0].clone())?;
        setups.push(start.elapsed().as_secs_f64());
        first.wait()?;
        if i + 1 < builds {
            built.shutdown();
        } else {
            server = Some(built);
        }
    }
    let server = server.expect("at least one set-up");
    // The drift workload keeps every batch booked before the next
    // submission (see `await_booking`), starting from this fresh server.
    let sync = noisy;
    if sync {
        await_booking(&server, 0)?;
    }
    let base = CompiledModel::compile_with_cache(graph, &cfg, server.compile_cache())?;
    let reference_top1 = images
        .iter()
        .map(|img| Ok(argmax(graph.run_reference(img)?.as_slice())))
        .collect::<Result<Vec<_>, CoreError>>()?;
    closed_loop(
        &server,
        &images,
        1,
        Duration::ZERO,
        WARMUP,
        sync,
        &mut Reference::new(),
    )?;

    let mut reference = Reference::new();
    let before = server.metrics();
    let cpu_before = server_cpu_s();
    let (recs, elapsed) = closed_loop(
        &server,
        &images,
        1 + WARMUP,
        Duration::from_secs(seconds),
        MIN_REQUESTS,
        sync,
        &mut reference,
    )?;
    let after = server.metrics();
    let rss = peak_rss_mb();
    let cpu_ms = (server_cpu_s() - cpu_before) * 1e3;

    // The drift replay runs on two threads: let them use every CPU.
    if let Some(cpus) = &cpus {
        set_cpus(cpus);
    }
    let verdicts = check(&recs, &images, &base, noisy)?;
    let failed = verdicts.iter().filter(|ok| !**ok).count() as u64;
    if failed > 0 {
        eprintln!("{failed} of {} responses failed their check", recs.len());
    }
    let mut out = Outcome {
        correct: failed == 0,
        attempted: recs.len() as u64,
        failed,
        metrics: Vec::new(),
    };
    let sim = simulated(&recs, &reference_top1);
    let latencies: Vec<f64> = recs.iter().map(|r| ms(r.latency)).collect();
    let done: Vec<f64> = recs.iter().map(|r| r.done_s).collect();
    let window = elapsed.as_secs_f64();
    eprintln!(
        "{} requests in {window:.2} s, {} recalibrations; server CPU {:.3} ms a request, \
         reference pass {:.3} ms",
        recs.len(),
        after.recalibrations() - before.recalibrations(),
        cpu_ms / recs.len() as f64,
        reference.pass_ms()
    );

    if !trace {
        EndToEnd {
            cpu_ms_per_request: cpu_ms / recs.len() as f64 * REFERENCE_PASS_MS
                / reference.pass_ms(),
            success_fraction: (recs.len() as u64 - failed) as f64 / recs.len() as f64,
            setup_s: median(&setups),
            peak_rss_mb: rss,
            energy_uj_per_request: sim.energy_uj_per_request,
            top1_agree: sim.top1_agree,
        }
        .push_into(&mut out);
        server.shutdown();
        return Ok((out, sim));
    }

    // Traced pass: the same window's server figures, then the layer
    // probes on the same compiled model.
    let ok: Vec<&Response> = recs.iter().filter_map(|r| r.resp.as_ref().ok()).collect();
    let queue: Vec<f64> = ok.iter().map(|r| r.queue_ticks() as f64).collect();
    let compute: Vec<f64> = ok.iter().map(|r| r.compute_ticks() as f64).collect();
    let recals = after.recalibrations() - before.recalibrations();
    let pause_ticks = after.recalibration_pause_ticks() - before.recalibration_pause_ticks();
    let server_figures = ServerFigures {
        admit_us: median(&recs.iter().map(|r| us(r.admit)).collect::<Vec<_>>()),
        queue_us_p50: percentile_of(&queue, 50.0),
        queue_us_p99: percentile_of(&queue, 99.0),
        compute_us_p50: percentile_of(&compute, 50.0),
        compute_us_p99: percentile_of(&compute, 99.0),
        batch_size_mean: mean(&ok.iter().map(|r| r.batch_size() as f64).collect::<Vec<_>>()),
        worker_busy_fraction: (after.worker_busy_ticks() - before.worker_busy_ticks()) as f64
            / (window * 1e6),
        rejected: (after.rejected() - before.rejected()) as f64,
        recalibrations: recals as f64,
        recal_pause_ms: if recals == 0 {
            0.0
        } else {
            pause_ticks as f64 / 1e3 / recals as f64
        },
    };
    server.shutdown();

    let profile = probe::profile(&base, &images[..PROFILE_IMAGES], 2)?;
    let shard = if noisy {
        let plan = ShardPlan::place(&base, 4, TileSpec::new(144, 144))?;
        let (overhead, exact) = probe::shard_overhead(&base, &plan, &images[..PROFILE_IMAGES], 1)?;
        if !exact {
            eprintln!("sharded outputs differ from the unsharded model");
            out.correct = false;
        }
        Some((overhead, plan.split_layer_count()))
    } else {
        None
    };
    if !profile.exact {
        eprintln!("traced outputs differ from CompiledModel::run_image");
        out.correct = false;
    }
    let start = Instant::now();
    CompiledModel::compile_with_cache(graph, &cfg, &SharedCompileCache::new())?;
    let compile_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    base.reprogram(1)?;
    let reprogram_ms = ms(start.elapsed());
    let one = ok.first().map_or_else(RunStats::default, |r| *r.stats());
    let within_slo: Vec<f64> = recs
        .iter()
        .zip(&verdicts)
        .filter(|(r, ok)| **ok && ms(r.latency) <= SLO_MS)
        .map(|(r, _)| r.done_s)
        .collect();
    let report = LayerReport {
        wall: Wall {
            throughput_rps: windowed_rate(&done, window, RATE_WINDOWS),
            latency_p50_ms: windowed_percentile(&done, &latencies, window, LATENCY_WINDOWS, 50.0),
            latency_p95_ms: windowed_percentile(&done, &latencies, window, LATENCY_WINDOWS, 95.0),
            latency_p99_ms: windowed_percentile(&done, &latencies, window, LATENCY_WINDOWS, 99.0),
            max_rate_under_slo_rps: windowed_rate(&within_slo, window, RATE_WINDOWS),
        },
        resnet_layers: resnet_layer_keys(graph),
        profile: Some(profile),
        shard,
        compile_s,
        reprogram_ms,
        server: server_figures,
        gateway_overhead_us: None,
        generator_late_us: None,
        price_us: us(probe::price_time(&base, &one, 20_000)),
        simulated: sim,
    };
    report.push_into(&mut out);
    Ok((out, sim))
}
