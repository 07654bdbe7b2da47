//! # tia-quant
//!
//! Linear quantization for the Random Precision Switch (RPS) algorithm.
//!
//! The paper quantizes both weights and activations with a linear quantizer
//! (Jacob et al., CVPR'18 style) to a precision drawn from a candidate set
//! (4–16 bit by default). Weights have a symmetric grid and activations an
//! affine one, each with one calibration and one rounding, and each grid has
//! two output forms. *Fake quantization* ([`fake_quant_symmetric_into`],
//! [`fake_quant_affine_slice`]) rounds values onto the b-bit grid but keeps
//! them in `f32`, exactly as quantization-aware training frameworks do; the
//! backward pass uses the straight-through estimator, which the `tia-nn`
//! layers implement by passing gradients through the quantization nodes
//! unchanged. *Integer levels* ([`QuantizedWeights::quantize_rows`],
//! [`quantize_affine_levels`]) feed the integer GEMM at 2–8 bits.
//!
//! The quantization *noise* — the gap between the grids of two different
//! precisions — is the mechanism the whole paper rests on: adversarial
//! perturbations crafted against the b₁-bit model are "shielded" by the noise
//! when the model is evaluated at b₂ bits.
//!
//! # Example
//!
//! ```
//! use tia_quant::{fake_quant_symmetric_into, Precision};
//!
//! let w = [-1.0, -0.4, 0.3, 0.9];
//! let (mut q4, mut q8) = ([0.0; 4], [0.0; 4]);
//! fake_quant_symmetric_into(&w, &mut q4, Precision::new(4));
//! fake_quant_symmetric_into(&w, &mut q8, Precision::new(8));
//! // Higher precision quantizes with smaller error.
//! let err = |q: &[f32]| -> f32 { w.iter().zip(q).map(|(a, b)| (a - b).abs()).sum() };
//! assert!(err(&q8) <= err(&q4));
//! ```

#![deny(missing_docs)]

mod packed;
mod precision;
mod quantizer;

pub use packed::{
    gemm_quant, gemm_quant_strided, quantize_affine_levels, quantize_affine_levels_hwc,
    LevelParams, OutStrides, QuantizedWeights,
};
pub use precision::{Precision, PrecisionSet};
pub use quantizer::{fake_quant_affine_slice, fake_quant_symmetric_into};
