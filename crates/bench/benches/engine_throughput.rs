//! Engine throughput baseline: vectors/second through the serial
//! `run_batch_at_age` and the parallel `run_batch_parallel_at_age` path, on the
//! paper's standard 512-row crossbar shape.
//!
//! Run with `cargo bench --bench engine_throughput`. Writes
//! `BENCH_engine.json` at the repository root with the observed rates,
//! speedups and thread count, then enforces two gates: every mode's
//! parallel speedup ≥ 2× on runners with ≥ 4 cores, and the ideal-mode
//! serial rate (`single_thread_vectors_per_sec`) above an absolute floor
//! on any core count, so a single-thread kernel regression can't hide
//! behind a proportional parallel slowdown.

use criterion::Criterion;

use raella_bench::{Bound, Cores, Record};
use raella_core::compiler::CompiledLayer;
use raella_core::engine::{run_batch_at_age, run_batch_parallel_at_age, RunStats};
use raella_core::parallel::worker_count;
use raella_core::RaellaConfig;
use raella_nn::synth::SynthLayer;
use raella_xbar::slicing::Slicing;

/// Vectors per measured batch (amortizes thread spawn, fits in cache).
const BATCH_VECTORS: usize = 32;
/// Parallel speedup floor per mode, enforced on ≥ 4 cores.
const MIN_SPEEDUP: f64 = 2.0;
/// Ideal-mode serial vectors/sec floor, enforced on any core count: the
/// panel kernel measures ~20k; the pre-panel kernel's ~4.4k fails by 2×.
const MIN_SINGLE_THREAD_VPS: f64 = 9000.0;

struct Measured {
    name: &'static str,
    serial_vps: f64,
    parallel_vps: f64,
}

fn bench_one(c: &mut Criterion, name: &'static str, noise: f64) -> Measured {
    let layer = SynthLayer::linear(512, 32, 0xBE).build();
    let cfg = RaellaConfig::default().with_noise(noise);
    let compiled = CompiledLayer::with_slicing(&layer, Slicing::raella_default_weights(), &cfg)
        .expect("valid");
    let inputs = layer.sample_inputs(BATCH_VECTORS, 1);

    // Sanity: the two paths must agree bit-for-bit before we time them.
    let mut s1 = RunStats::default();
    let mut s2 = RunStats::default();
    assert_eq!(
        run_batch_at_age(&compiled, &inputs, &mut s1, 7, 0, 0),
        run_batch_parallel_at_age(&compiled, &inputs, &mut s2, 7, 0, 0),
        "parallel engine diverged from serial"
    );
    assert_eq!(s1, s2, "parallel stats diverged from serial");

    c.bench_function(&format!("engine_serial_{name}"), |b| {
        b.iter(|| {
            let mut stats = RunStats::default();
            run_batch_at_age(&compiled, &inputs, &mut stats, 7, 0, 0)
        })
    });
    let serial = c.last_estimate().expect("serial estimate");

    c.bench_function(&format!("engine_parallel_{name}"), |b| {
        b.iter(|| {
            let mut stats = RunStats::default();
            run_batch_parallel_at_age(&compiled, &inputs, &mut stats, 7, 0, 0)
        })
    });
    let parallel = c.last_estimate().expect("parallel estimate");

    Measured {
        name,
        serial_vps: serial.iters_per_sec * BATCH_VECTORS as f64,
        parallel_vps: parallel.iters_per_sec * BATCH_VECTORS as f64,
    }
}

fn main() {
    let mut c = Criterion::default().sample_size(10);
    let runs = [
        bench_one(&mut c, "ideal", 0.0),
        bench_one(&mut c, "noisy", 0.04),
    ];
    let threads = worker_count(BATCH_VECTORS);

    let mut modes = Record::new();
    for m in &runs {
        let speedup = m.parallel_vps / m.serial_vps;
        let mode = Record::new()
            .num("serial_vectors_per_sec", m.serial_vps, 1)
            .num("parallel_vectors_per_sec", m.parallel_vps, 1)
            .num("speedup", speedup, 3)
            .gate(Bound::AtLeast(MIN_SPEEDUP), Cores::AtLeast4);
        modes = modes.obj(m.name, mode);
    }
    Record::new()
        .str("bench", "engine_throughput")
        .str("layer", "fc512x32")
        .int("batch_vectors", BATCH_VECTORS as u64)
        .int("threads", threads as u64)
        .num("single_thread_vectors_per_sec", runs[0].serial_vps, 1)
        .gate(Bound::AtLeast(MIN_SINGLE_THREAD_VPS), Cores::Any)
        .obj("modes", modes)
        .write("engine");
}
