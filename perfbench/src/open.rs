//! `tiny_gateway_open`: an open-loop generator against `Gateway` +
//! `RaellaServer` on loopback, serving the microscopic model of
//! `examples/gateway.rs`.

use std::collections::VecDeque;
use std::error::Error;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use raella::core::engine::RunStats;
use raella::core::gateway::{decode_response, encode_request, next_frame};
use raella::nn::graph::argmax;
use raella::nn::rng::SynthRng;
use raella::prelude::*;

use crate::layers::{LayerReport, ServerFigures, Simulated, Wall};
use crate::probe;
use crate::report::{
    mean, median, ms, peak_rss_mb, percentile_of, pin_to_one_cpu, server_cpu_s, us,
    windowed_percentile, Outcome, Reference, REFERENCE_PASS_MS,
};
use crate::EndToEnd;

/// Distinct images the generator cycles through.
const IMAGES: usize = 64;
/// Pipelined connections the one generator thread drives.
const CONNECTIONS: usize = 2;
/// Server builds per untraced run; `setup_s` is their median.
const SETUPS: usize = 25;
/// The nominal offered rate, well below the knee of this server.
const NOMINAL_RPS: f64 = 20_000.0;
/// The fixed rate ladder `max_rate_under_slo_rps` climbs. Its top rung
/// sits below the knee of this server on the one CPU the run is pinned
/// to, so that the figure is steady: it reports the completion rate of
/// the highest rung that held.
const LADDER_RPS: [f64; 4] = [15_000.0, 30_000.0, 45_000.0, 60_000.0];
/// Sub-windows of a schedule its server CPU, and the nominal phase's
/// figures, are medians over.
const NOMINAL_WINDOWS: usize = 10;
/// Sub-windows of a ladder rung its p99 is the median over.
const RUNG_WINDOWS: usize = 4;
/// p99 limit a ladder rung must meet.
const SLO_P99_MS: f64 = 10.0;
/// Median generator lateness (against its own schedule) beyond which the
/// generator has fallen behind, the nominal phase does not measure the
/// server and the run is invalid. Its p99 and max are reported.
const LATE_LIMIT_US: f64 = 1_000.0;
/// Requests of the nominal phase, by tag, the simulated statistics cover.
const SIM_REQUESTS: usize = 2_000;
/// How often the generator runs a pass of the host-speed reference.
const REFERENCE_EVERY: Duration = Duration::from_millis(250);
/// Longest nap of the generator between sweeps of its connections.
const IDLE: Duration = Duration::from_micros(100);
/// How long after its schedule ends a phase may wait for responses.
const DRAIN: Duration = Duration::from_secs(10);

fn tiny_graph() -> Graph {
    let mut g = Graph::new();
    let input = g.input();
    let gap = g.global_avg_pool(input);
    let fc = g.linear(gap, SynthLayer::linear(2, 3, 7).build());
    g.set_output(fc);
    g
}

fn tiny_config() -> RaellaConfig {
    RaellaConfig {
        crossbar_rows: 64,
        crossbar_cols: 64,
        search_vectors: 2,
        ..RaellaConfig::default()
    }
}

fn tiny_images(seed: u64) -> Vec<Tensor<u8>> {
    let mut rng = SynthRng::new(seed ^ 0x6A7E_3A11);
    (0..IMAGES)
        .map(|_| {
            let px = vec![rng.uniform_int(0, 256) as u8, rng.uniform_int(0, 256) as u8];
            Tensor::from_vec(px, &[2, 1, 1]).expect("consistent image")
        })
        .collect()
}

struct Serving {
    server: Arc<RaellaServer>,
    gateway: Gateway,
}

impl Serving {
    /// Fresh compile cache → server → gateway bound → first admission.
    fn start(graph: &Graph, cfg: &RaellaConfig, first: &Tensor<u8>) -> io::Result<(Self, f64)> {
        let start = Instant::now();
        let server = RaellaServer::builder()
            .model(graph, cfg)
            .compile_cache(SharedCompileCache::new())
            .workers(1)
            .max_batch(64)
            .latency_budget_ticks(200)
            .build()
            .map_err(io::Error::other)?;
        let server = Arc::new(server);
        let gateway = Gateway::builder(Arc::clone(&server))
            .io_threads(1)
            .bind("127.0.0.1:0")?;
        let handle = server.submit(first.clone()).map_err(io::Error::other)?;
        let setup = start.elapsed().as_secs_f64();
        handle.wait().map_err(io::Error::other)?;
        Ok((Serving { server, gateway }, setup))
    }

    fn stop(self) {
        self.gateway.shutdown();
        self.server.shutdown();
    }
}

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    /// (offset in `wbuf` where a frame ends, its request index).
    boundaries: VecDeque<(usize, usize)>,
    rbuf: Vec<u8>,
}

/// What one phase of the generator saw. Times are per request index.
#[derive(Default)]
struct Phase {
    offered: usize,
    received: usize,
    failed: usize,
    /// Due time of each correct response, seconds into the schedule.
    due_s: Vec<f64>,
    /// Arrival of each correct response, seconds into the schedule.
    done_s: Vec<f64>,
    /// Due → response, ms.
    latency_ms: Vec<f64>,
    /// Client latency minus wire queue and compute, µs.
    overhead_us: Vec<f64>,
    /// Send → due, µs.
    late_us: Vec<f64>,
    queue_us: Vec<f64>,
    compute_us: Vec<f64>,
    /// Responses still missing when the last request was sent.
    backlog_at_end: usize,
    /// Prefix responses kept for the simulated statistics:
    /// (request index, predicted, energy).
    prefix: Vec<(usize, usize, EnergyBreakdown)>,
    vectors: u64,
    /// Length of the schedule.
    span: f64,
    /// Server CPU seconds at the start of each sub-window of the
    /// schedule, and at its end.
    cpu_marks: Vec<f64>,
    /// CPU ms of each reference pass run in each sub-window.
    reference_ms: Vec<Vec<f64>>,
}

impl Phase {
    /// Latency percentile over the phase, as the median of its
    /// sub-windows' percentiles.
    fn latency_ms(&self, p: f64, windows: usize) -> f64 {
        windowed_percentile(&self.due_s, &self.latency_ms, self.span, windows, p)
    }

    /// Server CPU per request, in ms at the reference's speed: the median
    /// over the schedule's sub-windows of their CPU time over the requests
    /// due in them, scaled by the reference passes run in them.
    fn cpu_ms_per_request(&self) -> f64 {
        let per_window = self.offered as f64 / NOMINAL_WINDOWS as f64;
        let all: Vec<f64> = self.reference_ms.concat();
        let costs: Vec<f64> = self
            .cpu_marks
            .windows(2)
            .zip(&self.reference_ms)
            .map(|(w, passes)| {
                let pass_ms = mean(if passes.is_empty() { &all } else { passes });
                (w[1] - w[0]) * 1e3 / per_window * REFERENCE_PASS_MS / pass_ms
            })
            .collect();
        median(&costs)
    }

    fn p99_ms(&self) -> f64 {
        self.latency_ms(99.0, RUNG_WINDOWS)
    }

    /// Completed requests per second, first to last response.
    fn completion_rate(&self) -> f64 {
        let first = self.done_s.iter().copied().fold(f64::INFINITY, f64::min);
        let last = self.done_s.iter().copied().fold(0.0, f64::max);
        (self.done_s.len() as f64 - 1.0) / (last - first)
    }

    /// A rung holds when every request came back correct, its p99 meets
    /// the limit and the backlog at the end is no more than the limit
    /// allows at this rate.
    fn holds(&self, rate: f64) -> bool {
        self.failed == 0
            && self.received == self.offered
            && self.p99_ms() <= SLO_P99_MS
            && (self.backlog_at_end as f64) <= rate * SLO_P99_MS / 1e3
    }
}

/// Offers `rate` requests per second for `duration` over `CONNECTIONS`
/// sockets, from one thread, on a fixed schedule: request `i` is due at
/// `start + i / rate` whether or not earlier ones have come back. The
/// server's CPU time is read at the start of each sub-window of the
/// schedule and at its end, and every `REFERENCE_EVERY` the generator
/// runs a pass of `reference` (its CPU, the server's, so the pass sees the
/// host as the server does; the requests it delays go out late, and
/// their lateness counts).
fn drive(
    addr: SocketAddr,
    rate: f64,
    duration: Duration,
    images: &[Tensor<u8>],
    expect: &[Vec<u8>],
    keep_prefix: usize,
    reference: &mut Reference,
) -> io::Result<Phase> {
    let total = ((rate * duration.as_secs_f64()).round() as usize).max(1);
    let mut conns = (0..CONNECTIONS)
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            Ok(Conn {
                stream,
                wbuf: Vec::new(),
                wpos: 0,
                boundaries: VecDeque::new(),
                rbuf: Vec::new(),
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    let mut phase = Phase {
        offered: total,
        span: duration.as_secs_f64(),
        ..Phase::default()
    };
    let mut sent_at: Vec<Option<Instant>> = vec![None; total];
    let mut done = vec![false; total];
    let mut tmp = vec![0u8; 64 * 1024];
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut next = 0usize;
    let deadline = start + duration + DRAIN;
    let window_start = |k: usize| start + duration.mul_f64(k as f64 / NOMINAL_WINDOWS as f64);
    let mut next_reference = start;
    while phase.received < total || phase.cpu_marks.len() <= NOMINAL_WINDOWS {
        let now = Instant::now();
        if now > deadline {
            break;
        }
        while phase.cpu_marks.len() <= NOMINAL_WINDOWS && now >= window_start(phase.cpu_marks.len())
        {
            phase.cpu_marks.push(server_cpu_s());
            phase.reference_ms.push(Vec::new());
        }
        if now >= next_reference && phase.cpu_marks.len() <= NOMINAL_WINDOWS {
            let pass_ms = reference.pass();
            phase
                .reference_ms
                .last_mut()
                .expect("a window is open")
                .push(pass_ms);
            next_reference += REFERENCE_EVERY;
        }
        let mut progress = false;
        while next < total && due(next) <= now {
            let conn = &mut conns[next % CONNECTIONS];
            encode_request(&mut conn.wbuf, next as u64, 0, &images[next % images.len()]);
            conn.boundaries.push_back((conn.wbuf.len(), next));
            next += 1;
        }
        for conn in &mut conns {
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => return Err(io::Error::other("gateway closed a connection")),
                    Ok(n) => {
                        conn.wpos += n;
                        progress = true;
                        let now = Instant::now();
                        while let Some(&(end, i)) = conn.boundaries.front() {
                            if end > conn.wpos {
                                break;
                            }
                            sent_at[i] = Some(now);
                            phase
                                .late_us
                                .push(us(now.saturating_duration_since(due(i))));
                            conn.boundaries.pop_front();
                            if i + 1 == total {
                                phase.backlog_at_end = total - phase.received;
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if conn.wpos == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
            loop {
                match conn.stream.read(&mut tmp) {
                    Ok(0) => return Err(io::Error::other("gateway closed a connection")),
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&tmp[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let arrived = Instant::now();
            let mut used_total = 0;
            while let Some((used, payload)) =
                next_frame(&conn.rbuf[used_total..]).map_err(io::Error::other)?
            {
                let range = used_total + payload.start..used_total + payload.end;
                used_total += used;
                let resp = decode_response(&conn.rbuf[range]).map_err(io::Error::other)?;
                let i = usize::try_from(resp.tag)
                    .ok()
                    .filter(|&i| i < total && !done[i])
                    .ok_or_else(|| io::Error::other("unexpected response tag"))?;
                done[i] = true;
                phase.received += 1;
                let Some(sent) = sent_at[i] else {
                    return Err(io::Error::other("response before its request was sent"));
                };
                let ok = match resp.result {
                    Ok(ok) if ok.output == expect[i % expect.len()] => ok,
                    _ => {
                        phase.failed += 1;
                        continue;
                    }
                };
                let client = arrived.saturating_duration_since(sent);
                phase.due_s.push(i as f64 / rate);
                phase.done_s.push((arrived - start).as_secs_f64());
                phase
                    .latency_ms
                    .push(ms(arrived.saturating_duration_since(due(i))));
                phase
                    .overhead_us
                    .push(us(client) - (ok.queue_ticks + ok.compute_ticks) as f64);
                phase.queue_us.push(ok.queue_ticks as f64);
                phase.compute_us.push(ok.compute_ticks as f64);
                if i < keep_prefix {
                    phase.vectors += ok.vectors;
                    phase.prefix.push((i, ok.predicted as usize, ok.energy));
                }
            }
            conn.rbuf.drain(..used_total);
        }
        if !progress {
            // Sleep rather than spin: the server's threads share the
            // host's cores with this one.
            let idle = if next < total {
                due(next).saturating_duration_since(Instant::now())
            } else {
                IDLE
            };
            std::thread::sleep(idle.min(IDLE));
        }
    }
    // Requests never answered by the deadline count as failed.
    phase.failed += total - phase.received;
    Ok(phase)
}

/// Submits in-process at `rate` for `duration`, timing each `submit`
/// call, and returns (submit times in µs, batch sizes, all outputs
/// correct).
fn admission_probe(
    server: &RaellaServer,
    rate: f64,
    duration: Duration,
    images: &[Tensor<u8>],
    expect: &[Vec<u8>],
) -> Result<(Vec<f64>, Vec<f64>, bool), CoreError> {
    let total = (rate * duration.as_secs_f64()).round() as usize;
    let mut admit = Vec::with_capacity(total);
    let mut handles = Vec::with_capacity(total);
    let start = Instant::now();
    for i in 0..total {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        while Instant::now() < due {
            std::thread::yield_now();
        }
        let t = Instant::now();
        handles.push((i, server.submit(images[i % images.len()].clone())?));
        admit.push(us(t.elapsed()));
    }
    let mut batch = Vec::with_capacity(total);
    let mut correct = true;
    for (i, h) in handles {
        let resp = h.wait()?;
        correct &= resp.output().as_slice() == expect[i % expect.len()].as_slice();
        batch.push(resp.batch_size() as f64);
    }
    Ok((admit, batch, correct))
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<(Outcome, Simulated), Box<dyn Error>> {
    // Before the first server thread starts, so that all of them inherit
    // it. Spread over two CPUs, each request crosses between them four
    // times (generator → IO thread → worker → IO thread), and what a
    // cross-CPU wake-up costs swings with what the host's other tenants
    // run beside it: on a shared two-vCPU host the middle half of ten
    // runs' server CPU per request spread over 40% of its median that
    // way. On one CPU the wakes stay local.
    if pin_to_one_cpu().is_none() {
        eprintln!("could not pin to one CPU; the threads run unpinned");
    }
    let graph = tiny_graph();
    let cfg = tiny_config();
    let images = tiny_images(seed);

    let mut setups = Vec::new();
    let mut serving = None;
    let builds = if trace { 1 } else { SETUPS };
    for i in 0..builds {
        let (s, setup) = Serving::start(&graph, &cfg, &images[0])?;
        setups.push(setup);
        if i + 1 < builds {
            s.stop();
        } else {
            serving = Some(s);
        }
    }
    let serving = serving.expect("at least one set-up");
    let addr = serving.gateway.local_addr();
    let base = CompiledModel::compile_with_cache(&graph, &cfg, serving.server.compile_cache())?;
    let expect: Vec<Vec<u8>> = base
        .run_batch(&images)?
        .outputs()
        .iter()
        .map(|o| o.as_slice().to_vec())
        .collect();
    let offline_stats = images
        .iter()
        .map(|img| Ok(base.run_image(img)?.1))
        .collect::<Result<Vec<_>, CoreError>>()?;
    let reference_top1 = images
        .iter()
        .map(|img| Ok(argmax(graph.run_reference(img)?.as_slice())))
        .collect::<Result<Vec<_>, CoreError>>()?;

    // Warm the connections, threads and allocator before timing.
    let mut reference = Reference::new();
    drive(
        addr,
        NOMINAL_RPS,
        Duration::from_millis(100),
        &images,
        &expect,
        0,
        &mut reference,
    )?;

    // The untraced pass spends the window at the nominal rate; the traced
    // pass spends half of it there and half on the ladder.
    let window = Duration::from_secs(seconds);
    let nominal_window = if trace { window / 2 } else { window };
    let before = serving.server.metrics();
    let mut nominal = drive(
        addr,
        NOMINAL_RPS,
        nominal_window,
        &images,
        &expect,
        SIM_REQUESTS,
        &mut reference,
    )?;
    let after = serving.server.metrics();
    eprintln!(
        "reference pass {:.3} ms",
        mean(&nominal.reference_ms.concat())
    );
    let late_p99 = percentile_of(&nominal.late_us, 99.0);
    let late_max = nominal.late_us.iter().copied().fold(0.0, f64::max);
    let late_p50 = percentile_of(&nominal.late_us, 50.0);
    let generator_kept_up = late_p50 <= LATE_LIMIT_US;
    if !generator_kept_up {
        eprintln!("generator fell behind: median lateness {late_p50:.0} µs; run invalid");
    }

    let mut attempted = nominal.offered;
    let mut failed = nominal.failed;
    let mut max_rate = 0.0;
    if trace {
        let rung = window / 2 / LADDER_RPS.len() as u32;
        for &rate in &LADDER_RPS {
            let phase = drive(addr, rate, rung, &images, &expect, 0, &mut reference)?;
            attempted += phase.offered;
            failed += phase.failed;
            eprintln!(
                "rung {rate:.0}/s: p99 {:.3} ms, backlog {}",
                phase.p99_ms(),
                phase.backlog_at_end
            );
            if !phase.holds(rate) {
                break;
            }
            max_rate = phase.completion_rate();
        }
    }
    let rss = peak_rss_mb();
    if failed > 0 {
        eprintln!("{failed} of {attempted} requests failed or came back wrong");
    }

    // Simulated statistics over the nominal phase's first requests.
    let n = nominal.prefix.len().max(1) as f64;
    let mut energy = EnergyBreakdown::default();
    let mut stats = RunStats::default();
    let mut agree = 0usize;
    // Summed in request order: floating-point sums depend on order, and
    // responses arrive in whatever order the connections deliver them.
    nominal.prefix.sort_by_key(|&(i, _, _)| i);
    for (i, predicted, e) in &nominal.prefix {
        energy = energy.add(e);
        stats.merge(&offline_stats[i % IMAGES]);
        agree += usize::from(*predicted == reference_top1[i % IMAGES]);
    }
    let sim = Simulated {
        energy_uj_per_request: energy.total_pj() / n / 1e6,
        top1_agree: agree as f64 / n,
        adc_fraction: energy.adc_fraction(),
        vectors_per_request: nominal.vectors as f64 / n,
        adc_converts_per_request: stats.events.adc_converts as f64 / n,
        spec_failure_rate: stats.spec_failure_rate(),
    };
    let window_s = nominal.span;

    if !trace {
        let mut out = Outcome {
            correct: failed == 0 && generator_kept_up,
            attempted: attempted as u64,
            failed: failed as u64,
            metrics: Vec::new(),
        };
        EndToEnd {
            cpu_ms_per_request: nominal.cpu_ms_per_request(),
            success_fraction: (attempted - failed) as f64 / attempted as f64,
            setup_s: median(&setups),
            peak_rss_mb: rss,
            energy_uj_per_request: sim.energy_uj_per_request,
            top1_agree: sim.top1_agree,
        }
        .push_into(&mut out);
        serving.stop();
        return Ok((out, sim));
    }

    let (admit, batch, probe_ok) = admission_probe(
        &serving.server,
        NOMINAL_RPS,
        Duration::from_millis(250),
        &images,
        &expect,
    )?;
    serving.stop();
    let profile = probe::profile(&base, &images, 20)?;
    if !probe_ok {
        eprintln!("in-process responses differ from CompiledModel::run_batch");
    }
    if !profile.exact {
        eprintln!("traced outputs differ from CompiledModel::run_image");
    }
    let mut out = Outcome {
        correct: failed == 0 && generator_kept_up && probe_ok && profile.exact,
        attempted: attempted as u64,
        failed: failed as u64,
        metrics: Vec::new(),
    };
    let start = Instant::now();
    CompiledModel::compile_with_cache(&graph, &cfg, &SharedCompileCache::new())?;
    let compile_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    base.reprogram(1)?;
    let reprogram_ms = ms(start.elapsed());
    let report = LayerReport {
        wall: Wall {
            throughput_rps: nominal.completion_rate(),
            latency_p50_ms: nominal.latency_ms(50.0, NOMINAL_WINDOWS),
            latency_p95_ms: nominal.latency_ms(95.0, NOMINAL_WINDOWS),
            latency_p99_ms: nominal.latency_ms(99.0, NOMINAL_WINDOWS),
            max_rate_under_slo_rps: max_rate,
        },
        resnet_layers: crate::resnet_layer_names(),
        profile: Some(profile),
        shard: None,
        compile_s,
        reprogram_ms,
        server: ServerFigures {
            admit_us: median(&admit),
            queue_us_p50: percentile_of(&nominal.queue_us, 50.0),
            queue_us_p99: percentile_of(&nominal.queue_us, 99.0),
            compute_us_p50: percentile_of(&nominal.compute_us, 50.0),
            compute_us_p99: percentile_of(&nominal.compute_us, 99.0),
            batch_size_mean: mean(&batch),
            worker_busy_fraction: (after.worker_busy_ticks() - before.worker_busy_ticks()) as f64
                / (window_s * 1e6),
            rejected: (after.rejected() - before.rejected()) as f64,
            recalibrations: 0.0,
            recal_pause_ms: 0.0,
        },
        gateway_overhead_us: Some((
            percentile_of(&nominal.overhead_us, 50.0),
            percentile_of(&nominal.overhead_us, 99.0),
        )),
        generator_late_us: Some((late_p99, late_max)),
        price_us: us(probe::price_time(&base, &offline_stats[0], 20_000)),
        simulated: sim,
    };
    report.push_into(&mut out);
    Ok((out, sim))
}
