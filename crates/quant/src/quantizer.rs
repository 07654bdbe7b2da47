//! Fake quantization, the `f32` output form of the two linear grids (Jacob
//! et al., CVPR'18). The grids live in `packed`, beside the integer form.

use crate::packed::{AffineGrid, SymmetricGrid};
use crate::{LevelParams, Precision};

// tia-lint: hot-path(begin)
/// Symmetric fake quantization with one step for the whole slice: `dst[i]
/// = level · step`, returning the step (0 for a slice with no nonzero
/// value, which passes through unchanged). At one bit the grid is `{−s, 0,
/// +s}` with `s = max|x|` (binary-connect style sign quantization with
/// magnitude). `tia_nn::Conv2d` calls this when it memoizes its weights.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn fake_quant_symmetric_into(src: &[f32], dst: &mut [f32], precision: Precision) -> f32 {
    assert_eq!(
        src.len(),
        dst.len(),
        "fake_quant_symmetric_into length mismatch"
    );
    let Some(grid) = SymmetricGrid::calibrate(src, precision.bits()) else {
        dst.copy_from_slice(src);
        return 0.0;
    };
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = grid.level_of(v) * grid.step;
    }
    grid.step
}

/// Affine fake quantization with one `[min, max]` grid for the whole slice:
/// `dst[i] = (level − zero_point) · scale` with the levels of
/// [`crate::quantize_affine_levels`], a NaN kept. Returns the grid; an
/// all-zero slice passes through with `{ scale: 1.0, zero_point: 0 }`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn fake_quant_affine_slice(src: &[f32], dst: &mut [f32], precision: Precision) -> LevelParams {
    assert_eq!(
        src.len(),
        dst.len(),
        "fake_quant_affine_slice length mismatch"
    );
    let Some(grid) = AffineGrid::calibrate(src, precision) else {
        dst.copy_from_slice(src);
        return AffineGrid::UNIT.params();
    };
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = if v.is_nan() { v } else { grid.fake_quant(v) };
    }
    grid.params()
}
// tia-lint: hot-path(end)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::oracle::{self, assert_same};

    #[test]
    fn affine_fake_quant_matches_the_oracle_at_every_precision() {
        for bits in 1..=Precision::MAX_BITS {
            for (name, x) in oracle::cases(bits) {
                let (want, scale, zero_point) = match oracle::affine(&x, bits) {
                    Some((s, zp, qv)) => (qv.iter().map(|q| (q - zp) * s).collect(), s, zp),
                    None => (x.clone(), 1.0, 0.0),
                };
                let mut got = vec![f32::NAN; x.len()];
                let lp = fake_quant_affine_slice(&x, &mut got, Precision::new(bits));
                let what = format!("{bits} bits, {name}");
                assert_same(&got, &want, &what);
                assert_same(&[lp.scale], &[scale], &what);
                assert_eq!(lp.zero_point, zero_point as i32, "{what}");
            }
        }
    }

    #[test]
    fn symmetric_fake_quant_matches_the_oracle_at_every_precision() {
        for bits in 1..=Precision::MAX_BITS {
            for (name, x) in oracle::cases(bits) {
                let (want, step) = match oracle::symmetric(&x, bits) {
                    Some((s, levels)) => (levels.iter().map(|l| l * s).collect(), s),
                    None => (x.clone(), 0.0),
                };
                let mut got = vec![f32::NAN; x.len()];
                let s = fake_quant_symmetric_into(&x, &mut got, Precision::new(bits));
                let what = format!("{bits} bits, {name}");
                assert_same(&got, &want, &what);
                assert_same(&[s], &[step], &what);
            }
        }
    }

    #[test]
    fn symmetric_idempotent() {
        let x = [-1.0, -0.25, 0.0, 0.5, 1.0];
        let p = Precision::new(8);
        let (mut q1, mut q2) = ([0.0; 5], [0.0; 5]);
        fake_quant_symmetric_into(&x, &mut q1, p);
        fake_quant_symmetric_into(&q1, &mut q2, p);
        for (a, b) in q1.iter().zip(&q2) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn symmetric_error_bounded_by_half_step() {
        let x = [-0.9, -0.33, 0.12, 0.77, 0.9];
        let mut q = [0.0; 5];
        fake_quant_symmetric_into(&x, &mut q, Precision::new(6));
        let s = 0.9 / 31.0; // max|x| / (2^(6-1)-1)
        for (a, b) in x.iter().zip(&q) {
            assert!((a - b).abs() <= s / 2.0 + 1e-6);
        }
    }

    #[test]
    fn symmetric_preserves_zero_and_extremes() {
        let mut q = [0.0; 3];
        fake_quant_symmetric_into(&[-2.0, 0.0, 2.0], &mut q, Precision::new(4));
        assert_eq!(q[1], 0.0);
        assert!((q[0] + 2.0).abs() < 1e-6);
        assert!((q[2] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn higher_precision_lower_error() {
        let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut q = vec![0.0; x.len()];
        let mut prev = f32::INFINITY;
        for b in [2u8, 4, 6, 8, 12] {
            fake_quant_symmetric_into(&x, &mut q, Precision::new(b));
            let err: f32 = x.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
            assert!(err <= prev + 1e-9, "error should not grow with precision");
            prev = err;
        }
    }

    #[test]
    fn affine_covers_unsigned_range() {
        let x = [0.0, 0.1, 0.5, 1.0];
        let mut q = [0.0; 4];
        let params = fake_quant_affine_slice(&x, &mut q, Precision::new(8));
        assert!(params.scale > 0.0);
        // Endpoints representable.
        assert!((q[0] - 0.0).abs() < 1e-6);
        assert!((q[3] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn zero_tensor_passthrough() {
        let z = [0.0f32; 8];
        let mut dst = [1.0f32; 8];
        assert_eq!(
            fake_quant_symmetric_into(&z, &mut dst, Precision::new(4)),
            0.0
        );
        assert_eq!(dst, z);
    }

    #[test]
    fn affine_handles_constant_tensor() {
        let x = [0.0, 0.0];
        let mut q = [1.0; 2];
        let params = fake_quant_affine_slice(&x, &mut q, Precision::new(4));
        assert_eq!((params.scale, params.zero_point), (1.0, 0));
        assert_eq!(q, x);
    }

    #[test]
    fn different_precisions_give_different_grids() {
        // The core RPS mechanism: the same tensor lands on different values
        // under different precisions.
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.61).cos()).collect();
        let (mut q4, mut q5) = (vec![0.0; 32], vec![0.0; 32]);
        fake_quant_symmetric_into(&x, &mut q4, Precision::new(4));
        fake_quant_symmetric_into(&x, &mut q5, Precision::new(5));
        assert_ne!(q4, q5);
    }
}
