//! Linear (uniform) quantizers in the style of Jacob et al., CVPR'18.

use crate::Precision;
use tia_tensor::Tensor;

/// Scale/zero-point pair of an affine quantizer, exposed so accelerator-side
/// code can fold switchable-BN multiplications into the scale factor exactly
/// as §2.4 of the paper describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineParams {
    /// Grid step.
    pub scale: f32,
    /// Real value mapped to integer level 0.
    pub zero_point: f32,
}

/// Symmetric fake quantization with a per-tensor scale.
///
/// `s = max|x| / (2^{b-1} - 1)`; values round to `s * round(x/s)` and clamp to
/// the signed range. For `b = 1` the grid degenerates to `{-s, 0, +s}` with
/// `s = max|x|` (binary-connect style sign quantization with magnitude).
pub fn fake_quant_symmetric(x: &Tensor, precision: Precision) -> Tensor {
    let mut out = Tensor::zeros(x.shape());
    fake_quant_symmetric_into(x.data(), out.data_mut(), precision);
    out
}

/// Allocation-free core of [`fake_quant_symmetric`]: quantizes `src` into
/// `dst` with per-slice calibration, returning the grid step used (0 for an
/// all-zero input, which passes through unchanged). Hot paths (memoized
/// weight quantization in `tia_nn::Conv2d`) call this directly on
/// workspace buffers.
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
    let b = precision.bits() as i32;
    let qmax = if b <= 1 {
        1.0
    } else {
        ((1i64 << (b - 1)) - 1) as f32
    };
    let amax = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if amax == 0.0 {
        dst.copy_from_slice(src);
        return 0.0;
    }
    let s = amax / qmax;
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = ((v / s).round().clamp(-qmax, qmax)) * s;
    }
    s
}

/// Affine fake quantization with per-tensor `[min, max]` calibration.
///
/// Returns the quantized tensor and the `(scale, zero_point)` used, so BN
/// folding code can consume the parameters.
pub fn fake_quant_affine(x: &Tensor, precision: Precision) -> (Tensor, AffineParams) {
    let mut out = vec![0.0f32; x.len()];
    let params = fake_quant_affine_slice(x.data(), &mut out, precision);
    (Tensor::from_vec(out, x.shape()), params)
}

/// Allocation-free core of [`fake_quant_affine`]: quantizes `src` into
/// `dst` with per-slice calibration. Hot paths (per-row activation
/// quantization in `tia_nn::Conv2d`, one image at a time) call this
/// directly on sub-slices.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn fake_quant_affine_slice(src: &[f32], dst: &mut [f32], precision: Precision) -> AffineParams {
    assert_eq!(
        src.len(),
        dst.len(),
        "fake_quant_affine_slice length mismatch"
    );
    let b = precision.bits() as u32;
    let levels = ((1u64 << b) - 1) as f32;
    let lo = src.iter().copied().fold(f32::INFINITY, f32::min).min(0.0);
    let hi = src
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max)
        .max(0.0);
    if hi == lo {
        dst.copy_from_slice(src);
        return AffineParams {
            scale: 1.0,
            zero_point: 0.0,
        };
    }
    let scale = (hi - lo) / levels;
    let zero_point = (-lo / scale).round();
    for (d, &v) in dst.iter_mut().zip(src) {
        let qv = (v / scale + zero_point).round().clamp(0.0, levels);
        *d = (qv - zero_point) * scale;
    }
    AffineParams { scale, zero_point }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(v, &[n])
    }

    #[test]
    fn symmetric_idempotent() {
        let x = t(vec![-1.0, -0.25, 0.0, 0.5, 1.0]);
        let p = Precision::new(8);
        let q1 = fake_quant_symmetric(&x, p);
        let q2 = fake_quant_symmetric(&q1, p);
        for (a, b) in q1.data().iter().zip(q2.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn symmetric_error_bounded_by_half_step() {
        let x = t(vec![-0.9, -0.33, 0.12, 0.77, 0.9]);
        let p = Precision::new(6);
        let q = fake_quant_symmetric(&x, p);
        let s = x.abs_max() / 31.0; // 2^(6-1)-1
        for (a, b) in x.data().iter().zip(q.data()) {
            assert!((a - b).abs() <= s / 2.0 + 1e-6);
        }
    }

    #[test]
    fn symmetric_preserves_zero_and_extremes() {
        let x = t(vec![-2.0, 0.0, 2.0]);
        let q = fake_quant_symmetric(&x, Precision::new(4));
        assert_eq!(q.data()[1], 0.0);
        assert!((q.data()[0] + 2.0).abs() < 1e-6);
        assert!((q.data()[2] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn higher_precision_lower_error() {
        let x = t((0..64).map(|i| (i as f32 * 0.37).sin()).collect());
        let mut prev = f32::INFINITY;
        for b in [2u8, 4, 6, 8, 12] {
            let q = fake_quant_symmetric(&x, Precision::new(b));
            let err: f32 = x.sub(&q).data().iter().map(|v| v * v).sum();
            assert!(err <= prev + 1e-9, "error should not grow with precision");
            prev = err;
        }
    }

    #[test]
    fn affine_covers_unsigned_range() {
        let x = t(vec![0.0, 0.1, 0.5, 1.0]);
        let (q, params) = fake_quant_affine(&x, Precision::new(8));
        assert!(params.scale > 0.0);
        // Endpoints representable.
        assert!((q.data()[0] - 0.0).abs() < 1e-6);
        assert!((q.data()[3] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn affine_slice_matches_tensor_version() {
        let x = t((0..48).map(|i| (i as f32 * 0.23).sin()).collect());
        for bits in [2u8, 4, 8, 16] {
            let p = Precision::new(bits);
            let (q, params) = fake_quant_affine(&x, p);
            let mut dst = vec![0.0f32; x.len()];
            let params_s = fake_quant_affine_slice(x.data(), &mut dst, p);
            assert_eq!(q.data(), &dst[..], "{} bits", bits);
            assert_eq!(params, params_s);
        }
    }

    #[test]
    fn symmetric_into_matches_tensor_version() {
        let x = t((0..40).map(|i| (i as f32 * 0.41).sin()).collect());
        for bits in [1u8, 2, 4, 8, 16] {
            let p = Precision::new(bits);
            let q = fake_quant_symmetric(&x, p);
            let mut dst = vec![0.0f32; x.len()];
            let s = fake_quant_symmetric_into(x.data(), &mut dst, p);
            assert_eq!(q.data(), &dst[..], "{} bits", bits);
            assert!(s > 0.0);
        }
        // All-zero input passes through with zero step.
        let z = vec![0.0f32; 4];
        let mut dst = vec![1.0f32; 4];
        assert_eq!(
            fake_quant_symmetric_into(&z, &mut dst, Precision::new(4)),
            0.0
        );
        assert_eq!(dst, z);
    }

    #[test]
    fn affine_handles_constant_tensor() {
        let x = t(vec![0.0, 0.0]);
        let (q, _) = fake_quant_affine(&x, Precision::new(4));
        assert_eq!(q.data(), x.data());
    }

    #[test]
    fn different_precisions_give_different_grids() {
        // The core RPS mechanism: the same tensor lands on different values
        // under different precisions.
        let x = t((0..32).map(|i| (i as f32 * 0.61).cos()).collect());
        let q4 = fake_quant_symmetric(&x, Precision::new(4));
        let q5 = fake_quant_symmetric(&x, Precision::new(5));
        assert_ne!(q4.data(), q5.data());
    }

    #[test]
    fn zero_tensor_passthrough() {
        let x = t(vec![0.0; 8]);
        let q = fake_quant_symmetric(&x, Precision::new(4));
        assert_eq!(q.data(), x.data());
    }
}
