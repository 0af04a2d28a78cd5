//! Panel-kernel oracle: the cache-blocked column-panel kernel must be
//! bit-identical to the retained scalar kernel — accumulators *and* every
//! statistics counter — for any layer the compiler can produce.
//!
//! The property sweeps random layer shapes (rows crossing group
//! boundaries, filter counts crossing the 64-wide panel boundary, signed
//! and unsigned inputs) × weight slicings × ADC widths (including small
//! ones that force speculation recovery) × ideal/noisy × fresh/drifting
//! device × both input modes, and runs both kernels on the same vectors
//! with the same noise substream keys. Any divergence in ADC conversion order, noise draw
//! order, device-charge pricing, or event counting fails here against the
//! original code path.

use proptest::prelude::*;

use raella_core::compiler::CompiledLayer;
use raella_core::engine::{run_vector_groups_at_age, run_vector_groups_reference_at_age, RunStats};
use raella_core::scratch::VectorScratch;
use raella_core::{DeviceLifetime, RaellaConfig};
use raella_nn::synth::SynthLayer;
use raella_xbar::adc::AdcSpec;
use raella_xbar::slicing::Slicing;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any compiled layer, any group subrange, ideal or noisy, fresh or
    /// drifting, either input mode: panel and scalar kernels agree
    /// bit-for-bit.
    #[test]
    fn panel_kernel_is_bit_identical_to_scalar_kernel(
        rows in 1usize..200,
        filters in 1usize..90,
        seed in 0u64..500,
        slicing_pick in 0usize..3,
        adc_bits in 4u8..10,
        signed in any::<bool>(),
        bitserial in any::<bool>(),
        noisy in any::<bool>(),
        drifting in any::<bool>(),
    ) {
        let mut builder = SynthLayer::linear(rows, filters, seed);
        if signed {
            builder = builder.signed_inputs();
        }
        let layer = builder.build();

        let slicing = match slicing_pick {
            0 => Slicing::raella_default_weights(),
            1 => Slicing::new(&[4, 4], 8).expect("consistent slicing"),
            _ => Slicing::uniform(1, 8),
        };
        let mut cfg = RaellaConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            ..RaellaConfig::default()
        };
        cfg.adc = AdcSpec::new(adc_bits, true);
        if noisy {
            cfg = cfg.with_noise(0.05);
        }
        if bitserial {
            cfg = cfg.without_speculation();
        }
        // A drifting device read past its first epochs: vector 0 runs at
        // age 47 (epoch 2), vector 1 at age 48 (epoch 3), so the aged
        // kernels compound relaxation noise and re-key every substream.
        let base_age = if drifting {
            cfg = cfg.with_lifetime(DeviceLifetime::new(0.01, 0.02, 16));
            47
        } else {
            0
        };
        let compiled = CompiledLayer::with_slicing(&layer, slicing, &cfg)
            .expect("consistent layer");

        let inputs = layer.sample_inputs(2, seed ^ 0x0DDC0FFE);
        let full = 0..compiled.group_count();
        let partial = full.start..(full.end).min(1).max(full.end.saturating_sub(1));
        for groups in [full, partial] {
            let mut total_panel = RunStats::default();
            let mut total_scalar = RunStats::default();
            for (v, input) in inputs.chunks(compiled.filter_len()).enumerate() {
                let mut panel_scratch = VectorScratch::for_layer(&compiled);
                let mut scalar_scratch = VectorScratch::for_layer(&compiled);
                let ps = run_vector_groups_at_age(
                    &compiled, input, groups.clone(), &mut panel_scratch, seed, v as u64,
                    base_age,
                );
                let ss = run_vector_groups_reference_at_age(
                    &compiled, input, groups.clone(), &mut scalar_scratch, seed, v as u64,
                    base_age,
                );
                prop_assert_eq!(ps.drift_epoch > 0, drifting, "vector {} epoch", v);
                prop_assert_eq!(
                    panel_scratch.accumulators(), scalar_scratch.accumulators(),
                    "accumulators diverged: groups {:?} vector {}", &groups, v
                );
                prop_assert_eq!(
                    &ps, &ss,
                    "per-vector stats diverged: groups {:?} vector {}", &groups, v
                );
                total_panel.merge(&ps);
                total_scalar.merge(&ss);
            }
            prop_assert_eq!(total_panel, total_scalar);
        }
    }
}
