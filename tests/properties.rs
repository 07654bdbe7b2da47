//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary inputs, not just the unit-test fixtures.
//!
//! Inputs are drawn from the workspace's own `SeededRng` (the container has
//! no third-party property-testing crate), so every case is deterministic
//! and a failure message pins the exact case index for replay.

use two_in_one_accel::prelude::*;
use two_in_one_accel::quant::{fake_quant_affine_slice, fake_quant_symmetric_into};
use two_in_one_accel::tensor::{col2im, im2col, Conv2dGeometry};

const CASES: usize = 64;

#[test]
fn quantization_is_idempotent_and_bounded() {
    let mut rng = SeededRng::new(0x51AB);
    for case in 0..CASES {
        let n = 1 + rng.below(63);
        let bits = 2 + rng.below(15) as u8;
        let vals: Vec<f32> = (0..n).map(|_| rng.uniform_in(-10.0, 10.0)).collect();
        let t = Tensor::from_vec(vals, &[n]);
        let p = Precision::new(bits);
        let (mut q1, mut q2) = (vec![0.0; n], vec![0.0; n]);
        fake_quant_symmetric_into(t.data(), &mut q1, p);
        fake_quant_symmetric_into(&q1, &mut q2, p);
        // Idempotent (up to float noise).
        for (a, b) in q1.iter().zip(&q2) {
            assert!(
                (a - b).abs() < 1e-4,
                "case {}: not idempotent ({} vs {})",
                case,
                a,
                b
            );
        }
        // Error bounded by half a grid step.
        let qmax = ((1i64 << (bits - 1)) - 1) as f32;
        let step = t.abs_max() / qmax;
        for (a, b) in t.data().iter().zip(&q1) {
            assert!(
                (a - b).abs() <= step / 2.0 + 1e-5,
                "case {}: error above half step",
                case
            );
        }
    }
}

#[test]
fn affine_quantization_stays_in_range() {
    let mut rng = SeededRng::new(0xAFF1);
    for case in 0..CASES {
        let n = 1 + rng.below(63);
        let bits = 2 + rng.below(15) as u8;
        let vals: Vec<f32> = (0..n).map(|_| rng.uniform()).collect();
        let t = Tensor::from_vec(vals, &[n]);
        let mut q = vec![0.0; n];
        let params = fake_quant_affine_slice(t.data(), &mut q, Precision::new(bits));
        assert!(params.scale >= 0.0, "case {}", case);
        for &v in &q {
            assert!(
                v >= t.min() - params.scale && v <= t.max() + params.scale,
                "case {}: {} outside calibrated range",
                case,
                v
            );
        }
    }
}

#[test]
fn im2col_col2im_adjoint_property() {
    let mut rng = SeededRng::new(0xC01);
    for case in 0..CASES {
        let c = 1 + rng.below(3);
        let hw = 3 + rng.below(5);
        let k = 1 + rng.below(3);
        let stride = 1 + rng.below(2);
        if hw + 2 < k {
            continue;
        }
        let geo = Conv2dGeometry::new(c, 1, k, stride, 1);
        let x = Tensor::randn(&[c, hw, hw], 1.0, &mut rng);
        let cols = im2col(&x, &geo);
        let y = Tensor::randn(cols.shape(), 1.0, &mut rng);
        // <im2col(x), y> == <x, col2im(y)> — the operators are adjoint.
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &geo, hw, hw);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "case {}: adjoint mismatch {} vs {}",
            case,
            lhs,
            rhs
        );
    }
}

#[test]
fn random_dataflows_predict_validly() {
    use two_in_one_accel::dataflow::predict;
    use two_in_one_accel::nn::workload::LayerSpec;
    let mut rng = SeededRng::new(0xDF10);
    for case in 0..CASES {
        let k = 1 + rng.below(63);
        let cc = 1 + rng.below(63);
        let yx = (1 + rng.below(15)).max(3);
        let bits = 1 + rng.below(16) as u8;
        let layer = LayerSpec::conv("p", cc, k, 3, 1, 1, yx, yx);
        let wl = Workload::new(&layer, PrecisionPair::symmetric(bits));
        let arch = ArchConfig::with_mac_area_budget(MacKind::spatial_temporal(), 128.0);
        let df = Dataflow::random(wl.bounds, &mut rng);
        if let Some(perf) = predict(&arch, &wl, &df) {
            assert!(
                perf.total_cycles.is_finite() && perf.total_cycles > 0.0,
                "case {}",
                case
            );
            assert!(
                perf.total_energy().is_finite() && perf.total_energy() > 0.0,
                "case {}",
                case
            );
            assert!(perf.stall_cycles >= -1e-9, "case {}", case);
            assert!(
                perf.utilization > 0.0 && perf.utilization <= 1.0,
                "case {}",
                case
            );
        }
    }
}

#[test]
fn minimal_dataflow_always_valid() {
    use two_in_one_accel::dataflow::predict;
    use two_in_one_accel::nn::workload::LayerSpec;
    let mut rng = SeededRng::new(0xD31);
    for case in 0..CASES {
        let k = 1 + rng.below(127);
        let cc = 1 + rng.below(127);
        let yx = (1 + rng.below(31)).max(3);
        let bits = 1 + rng.below(16) as u8;
        let layer = LayerSpec::conv("p", cc, k, 3, 1, 1, yx, yx);
        let wl = Workload::new(&layer, PrecisionPair::symmetric(bits));
        let arch = ArchConfig::with_mac_area_budget(MacKind::Spatial, 64.0);
        let df = Dataflow::minimal(wl.bounds);
        assert!(
            predict(&arch, &wl, &df).is_some(),
            "case {}: minimal dataflow invalid",
            case
        );
    }
}

#[test]
fn mac_models_positive_and_finite() {
    for w in 1u8..=16 {
        for a in 1u8..=16 {
            let p = PrecisionPair::new(w, a);
            for kind in [
                MacKind::Temporal,
                MacKind::Spatial,
                MacKind::spatial_temporal(),
            ] {
                let u = MacUnit::new(kind);
                assert!(u.products_per_cycle(p) > 0.0, "{:?} w{} a{}", kind, w, a);
                assert!(u.energy_per_mac(p) > 0.0, "{:?} w{} a{}", kind, w, a);
                assert!(u.area() > 0.0, "{:?}", kind);
            }
        }
    }
}

#[test]
fn projection_invariant_under_any_gradient() {
    let mut rng = SeededRng::new(0x9201);
    for case in 0..24 {
        let eps = (1 + rng.below(31)) as f32 / 255.0;
        let mut net = zoo::preact_resnet18_lite(3, 2, 2, &mut rng);
        let x = Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, &mut rng);
        let adv = Fgsm::new(eps).perturb(&mut net, &x, &[0], &mut rng);
        assert!(
            x.sub(&adv).abs_max() <= eps + 1e-6,
            "case {}: left the eps ball",
            case
        );
        assert!(
            adv.data().iter().all(|&v| (0.0..=1.0).contains(&v)),
            "case {}: left [0,1]",
            case
        );
    }
}
