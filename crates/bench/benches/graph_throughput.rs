//! Graph serving throughput baseline: images/second through a
//! `CompiledModel`, image-serial vs image-parallel, on the mini ResNet18
//! model (the serving workload the ROADMAP optimizes for).
//!
//! Run with `cargo bench --bench graph_throughput`. Writes
//! `BENCH_graph.json` at the repository root with the observed rates,
//! speedup and worker count, then enforces two gates: the serial rate
//! above an absolute floor on any core count, and the image-parallel
//! speedup ≥ 2× on runners with ≥ 4 cores.

use criterion::Criterion;

use raella_bench::{Bound, Cores, Record};
use raella_core::model::CompiledModel;
use raella_core::parallel::worker_count_for;
use raella_core::RaellaConfig;
use raella_nn::models::mini::mini_resnet18;
use raella_nn::tensor::Tensor;

/// Images per measured batch (amortizes worker spawn; divides evenly
/// across the 4 workers CI pins).
const BATCH_IMAGES: usize = 8;
/// Image-parallel speedup floor, enforced on ≥ 4 cores.
const MIN_SPEEDUP: f64 = 2.0;
/// Serial images/sec floor, enforced on any core count: under half the
/// 74–91 images/s measured on 1–2-core x86 machines, the same margin as
/// the engine's single-thread floor.
const MIN_SERIAL_IPS: f64 = 35.0;

fn main() {
    let mini = mini_resnet18(0xBE);
    let cfg = RaellaConfig {
        search_vectors: 3,
        ..RaellaConfig::default()
    };
    let model = CompiledModel::compile(&mini.graph, &cfg).expect("mini resnet compiles");
    let images: Vec<Tensor<u8>> = (0..BATCH_IMAGES)
        .map(|i| mini.sample_image(1 + i as u64))
        .collect();

    // Pin a fully serial reference (one worker, one vector at a time),
    // then restore the ambient thread policy for the parallel run.
    let ambient = std::env::var("RAELLA_THREADS").ok();
    std::env::set_var("RAELLA_THREADS", "1");
    let serial_ref = model.run_batch(&images).expect("runs");

    let mut c = Criterion::default().sample_size(10);
    c.bench_function("graph_serial", |b| {
        b.iter(|| model.run_batch(&images).expect("runs"))
    });
    let serial = c.last_estimate().expect("serial estimate");

    match &ambient {
        Some(v) => std::env::set_var("RAELLA_THREADS", v),
        None => std::env::remove_var("RAELLA_THREADS"),
    }
    let threads = worker_count_for(BATCH_IMAGES, 1);

    // Sanity: the parallel path must agree bit-for-bit before we time it.
    let parallel_ref = model.run_batch(&images).expect("runs");
    assert_eq!(
        serial_ref.outputs(),
        parallel_ref.outputs(),
        "parallel model serving diverged from serial"
    );
    assert_eq!(
        serial_ref.stats(),
        parallel_ref.stats(),
        "parallel serving stats diverged from serial"
    );

    c.bench_function("graph_parallel", |b| {
        b.iter(|| model.run_batch(&images).expect("runs"))
    });
    let parallel = c.last_estimate().expect("parallel estimate");

    let serial_ips = serial.iters_per_sec * BATCH_IMAGES as f64;
    let parallel_ips = parallel.iters_per_sec * BATCH_IMAGES as f64;
    let speedup = parallel_ips / serial_ips;
    let images_per_sec = Record::new()
        .num("serial", serial_ips, 1)
        .gate(Bound::AtLeast(MIN_SERIAL_IPS), Cores::Any)
        .num("parallel", parallel_ips, 1)
        .num("speedup", speedup, 3)
        .gate(Bound::AtLeast(MIN_SPEEDUP), Cores::AtLeast4);
    Record::new()
        .str("bench", "graph_throughput")
        .str("model", "mini_resnet18")
        .int("batch_images", BATCH_IMAGES as u64)
        .int("threads", threads as u64)
        .obj("images_per_sec", images_per_sec)
        .write("graph");
}
