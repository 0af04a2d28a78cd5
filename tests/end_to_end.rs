//! Integration tests: full compile→simulate→verify pipelines spanning the
//! DNN substrate, the crossbar simulator, and the RAELLA engine.

use raella::core::engine::RaellaEngine;
use raella::core::{CompiledLayer, RaellaConfig};
use raella::nn::layers::MatVecEngine;
use raella::nn::models::mini::{self, MiniModel};
use raella::nn::quant::mean_error_nonzero;
use raella::nn::synth::SynthLayer;

fn fast_cfg() -> RaellaConfig {
    RaellaConfig {
        search_vectors: 3,
        ..RaellaConfig::default()
    }
}

#[test]
fn every_mini_family_keeps_its_predictions() {
    // Table 4's central claim: RAELLA with Center+Offset changes almost no
    // predictions, with zero retraining.
    for model in MiniModel::all_cnn_families(0xE2E) {
        let mut engine = RaellaEngine::new(fast_cfg());
        let rate = model.top1_match_rate(&mut engine, 5, 11);
        assert!(
            rate >= 0.8,
            "{}: top-1 match rate {rate} below 80%",
            model.name
        );
    }
}

#[test]
fn bert_chain_stays_faithful() {
    let layers = mini::mini_bert_ff(0xE2E1);
    let input = mini::sample_signed_input(layers[0].filter_len(), 3);
    let reference = mini::run_chain(&layers, &input, &mut raella::nn::layers::ReferenceEngine);
    let mut engine = RaellaEngine::new(fast_cfg());
    let analog = mini::run_chain(&layers, &input, &mut engine);
    let err = mean_error_nonzero(&reference, &analog);
    assert!(err < 2.0, "BERT chain error {err}");
}

#[test]
fn compiled_layers_meet_the_error_budget() {
    // §4.2: the adaptive search must hold the measured error under budget
    // across layer shapes.
    let cfg = fast_cfg();
    for (in_c, out_c, k, seed) in [(16, 8, 3, 1u64), (64, 16, 3, 2), (128, 8, 1, 3)] {
        let layer = SynthLayer::conv(in_c, out_c, k, seed).build();
        let compiled = CompiledLayer::compile(&layer, &cfg).expect("compiles");
        let report = compiled
            .check_fidelity_at_age(&layer, 5, 0)
            .expect("fidelity");
        assert!(
            report.mean_abs_error <= cfg.error_budget * 3.0 + 0.05,
            "layer {in_c}x{out_c}k{k}: runtime error {} vs budget {}",
            report.mean_abs_error,
            cfg.error_budget
        );
    }
}

#[test]
fn engine_is_deterministic_end_to_end() {
    let model = mini::mini_googlenet(5);
    let img = model.sample_image(9);
    let run = |_: ()| {
        let mut engine = RaellaEngine::new(fast_cfg());
        model.graph.run(&img, &mut engine).expect("runs")
    };
    assert_eq!(run(()), run(()));
}

#[test]
fn speculation_saves_converts_on_real_models() {
    // §4.3.2: ~60% fewer ADC converts than recovery-only on DNN layers.
    let model = mini::mini_resnet50(7);
    let img = model.sample_image(1);

    let mut spec = RaellaEngine::new(fast_cfg());
    model.graph.run(&img, &mut spec).expect("runs");
    let mut bits = RaellaEngine::new(fast_cfg().without_speculation());
    model.graph.run(&img, &mut bits).expect("runs");

    let s = spec.stats().events.adc_converts as f64;
    let b = bits.stats().events.adc_converts as f64;
    assert!(
        s < 0.7 * b,
        "speculation {s} converts vs bit-serial {b} — savings too small"
    );
}

#[test]
fn zero_offset_hurts_where_center_offset_does_not() {
    // The Fig. 5 / Table 4 mechanism end to end, measured on the logits
    // themselves (continuous, so a handful of images suffices).
    let model = mini::mini_inception_v3(0xE2E2);
    let mut co = RaellaEngine::new(fast_cfg());
    let mut zo = RaellaEngine::new(fast_cfg().zero_offset());
    let mut co_err = 0.0;
    let mut zo_err = 0.0;
    for i in 0..4 {
        let img = model.sample_image(100 + i);
        let reference = model.graph.run_reference(&img).expect("runs");
        let co_out = model.graph.run(&img, &mut co).expect("runs");
        let zo_out = model.graph.run(&img, &mut zo).expect("runs");
        co_err += mean_error_nonzero(reference.as_slice(), co_out.as_slice());
        zo_err += mean_error_nonzero(reference.as_slice(), zo_out.as_slice());
    }
    assert!(
        zo_err > 2.0 * co_err + 1.0,
        "zero+offset logit corruption {zo_err} must dwarf center+offset {co_err}"
    );
    // The causal mechanism: zero+offset saturates the ADC far more often.
    assert!(
        zo.stats().spec_failure_rate() > co.stats().spec_failure_rate(),
        "zero+offset should fail speculation more: {} vs {}",
        zo.stats().spec_failure_rate(),
        co.stats().spec_failure_rate()
    );
}

#[test]
fn layer_cache_distinguishes_same_shaped_layers() {
    // Two layers with identical names and shapes but different weights
    // must not collide in the engine's compile cache.
    let a = SynthLayer::linear(32, 4, 1).name("dup").build();
    let b = SynthLayer::linear(32, 4, 2).name("dup").build();
    let mut engine = RaellaEngine::new(fast_cfg());
    let inputs = a.sample_inputs(2, 3);
    let out_a = engine.layer_outputs(&a, &inputs);
    let out_b = engine.layer_outputs(&b, &inputs);
    assert_eq!(engine.compiled_layers(), 2, "both layers must be compiled");
    assert_eq!(out_a, a.reference_outputs(&inputs));
    assert_eq!(out_b, b.reference_outputs(&inputs));
}
