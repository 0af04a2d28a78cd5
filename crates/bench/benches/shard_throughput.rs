//! Tile-sharding throughput baseline: images/second through a
//! `ShardedModel` whose dominant conv layer row-splits across simulated
//! tiles, at 1 / 2 / 4 tiles.
//!
//! Run with `cargo bench --bench shard_throughput`. Writes
//! `BENCH_shard.json` at the repository root. To isolate *tile-level*
//! scaling, the bench pins `RAELLA_THREADS=1` (no vector-level fan-out)
//! and runs one image worker, so the only parallelism is the per-tile
//! workers a split layer fans across. The gate holds the WORST
//! multi-tile config's speedup over the single tile above 1× on runners
//! with ≥ 4 cores; before timing anything, every configuration is
//! checked bit-identical to the unsharded engine.

use std::time::Instant;

use raella_arch::tile::TileSpec;
use raella_bench::{Bound, Cores, Record};
use raella_core::model::CompiledModel;
use raella_core::shard::ShardedModel;
use raella_core::{RaellaConfig, SharedCompileCache};
use raella_nn::graph::Graph;
use raella_nn::rng::SynthRng;
use raella_nn::synth::SynthLayer;
use raella_nn::tensor::Tensor;

/// Images per measured burst.
const IMAGES: usize = 6;
/// Measurement repetitions per configuration (best-of).
const REPS: usize = 3;
/// Crossbar/tile rows: 576-long conv filters split into exactly four row
/// groups, so 4 tiles are perfectly balanced and 2 tiles get two each.
const TILE_ROWS: usize = 144;
/// Worst multi-tile speedup floor over a single tile, enforced on ≥ 4
/// cores: sharding must beat one tile at all.
const MIN_SPEEDUP: f64 = 1.01;

/// A graph dominated by one long-filter conv: 64 in-channels × 3×3 =
/// 576-long filters over 8×8 feature maps (64 vectors/image).
fn shard_graph() -> Graph {
    let mut g = Graph::new();
    let input = g.input();
    let c = g
        .conv(
            input,
            SynthLayer::conv(64, 16, 3, 0xA7).build(),
            64,
            3,
            1,
            1,
        )
        .expect("consistent conv");
    let gap = g.global_avg_pool(c);
    let fc = g.linear(gap, SynthLayer::linear(16, 8, 0xB3).build());
    g.set_output(fc);
    g
}

fn images() -> Vec<Tensor<u8>> {
    let mut rng = SynthRng::new(0x5AD);
    (0..IMAGES)
        .map(|_| {
            let data: Vec<u8> = (0..64 * 8 * 8)
                .map(|_| rng.exponential(35.0).min(255.0) as u8)
                .collect();
            Tensor::from_vec(data, &[64, 8, 8]).expect("consistent image")
        })
        .collect()
}

fn main() {
    let cfg = RaellaConfig {
        crossbar_rows: TILE_ROWS,
        crossbar_cols: 256,
        search_vectors: 2,
        ..RaellaConfig::default()
    };
    let graph = shard_graph();
    let cache = SharedCompileCache::new();
    let images = images();

    // Pin out vector-level parallelism: this bench measures what the
    // tile placement alone buys.
    let ambient = std::env::var("RAELLA_THREADS").ok();
    std::env::set_var("RAELLA_THREADS", "1");

    let t0 = Instant::now();
    let model = CompiledModel::compile_with_cache(&graph, &cfg, &cache).expect("compiles");
    println!("compiled in {:.2}s", t0.elapsed().as_secs_f64());
    let expected = model
        .run_batch_threaded(&images, 1)
        .expect("unsharded runs");

    let mut entries = Vec::new();
    let mut single_ips = 0f64;
    let mut worst_speedup = f64::INFINITY;
    let mut best_speedup = 0f64;
    let mut pool = Some(model);
    for tiles in [1usize, 2, 4] {
        let sharded = ShardedModel::new(
            pool.take().expect("model pooled"),
            tiles,
            TileSpec::new(TILE_ROWS, 256),
        )
        .expect("placement fits");
        let split = sharded.plan().split_layer_count();

        // Sanity before timing: sharding must not change a single byte.
        let check = sharded
            .run_batch_threaded(&images, 1)
            .expect("sharded runs");
        assert_eq!(
            check.outputs(),
            expected.outputs(),
            "{tiles} tiles diverged"
        );
        assert_eq!(check.stats(), expected.stats(), "{tiles} tiles stat drift");

        let mut ips = 0f64;
        for _ in 0..REPS {
            let t = Instant::now();
            let result = sharded
                .run_batch_threaded(&images, 1)
                .expect("sharded runs");
            let elapsed = t.elapsed().as_secs_f64();
            assert_eq!(result.len(), IMAGES);
            ips = ips.max(IMAGES as f64 / elapsed);
        }
        if tiles == 1 {
            single_ips = ips;
            println!("1 tile ({split} split layers): {ips:.2} images/s (baseline)");
        } else {
            let speedup = ips / single_ips;
            worst_speedup = worst_speedup.min(speedup);
            best_speedup = best_speedup.max(speedup);
            println!("{tiles} tiles ({split} split layers): {ips:.2} images/s (x{speedup:.2})");
            entries.push(
                Record::new()
                    .int("tiles", tiles as u64)
                    .int("split_layers", split as u64)
                    .num("images_per_sec", ips, 2)
                    .num("speedup", speedup, 3),
            );
        }
        pool = Some(sharded.into_model());
    }

    match &ambient {
        Some(v) => std::env::set_var("RAELLA_THREADS", v),
        None => std::env::remove_var("RAELLA_THREADS"),
    }

    let images_per_sec = Record::new()
        .num("single_tile", single_ips, 2)
        .num("worst_speedup", worst_speedup, 3)
        .gate(Bound::AtLeast(MIN_SPEEDUP), Cores::AtLeast4)
        .num("best_speedup", best_speedup, 3);
    Record::new()
        .str("bench", "shard_throughput")
        .str("model", "conv576_fc")
        .int("images", IMAGES as u64)
        .int("tile_rows", TILE_ROWS as u64)
        .obj("images_per_sec", images_per_sec)
        .arr("tiles", entries)
        .write("shard");
}
