//! # tia-quant
//!
//! Linear quantization for the Random Precision Switch (RPS) algorithm.
//!
//! The paper quantizes both weights and activations with a linear quantizer
//! (Jacob et al., CVPR'18 style) to a precision drawn from a candidate set
//! (4–16 bit by default). Quantization here is *fake quantization*: values are
//! rounded to the b-bit grid but kept in `f32`, exactly as quantization-aware
//! training frameworks do. The backward pass uses the straight-through
//! estimator, which the `tia-nn` layers implement by passing gradients through
//! the quantization nodes unchanged.
//!
//! The quantization *noise* — the gap between the grids of two different
//! precisions — is the mechanism the whole paper rests on: adversarial
//! perturbations crafted against the b₁-bit model are "shielded" by the noise
//! when the model is evaluated at b₂ bits.
//!
//! # Example
//!
//! ```
//! use tia_quant::{Precision, fake_quant_symmetric};
//! use tia_tensor::Tensor;
//!
//! let w = Tensor::from_vec(vec![-1.0, -0.4, 0.3, 0.9], &[4]);
//! let q4 = fake_quant_symmetric(&w, Precision::new(4));
//! let q8 = fake_quant_symmetric(&w, Precision::new(8));
//! // Higher precision quantizes with smaller error.
//! let e4: f32 = w.sub(&q4).data().iter().map(|v| v.abs()).sum();
//! let e8: f32 = w.sub(&q8).data().iter().map(|v| v.abs()).sum();
//! assert!(e8 <= e4);
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
pub use quantizer::{
    fake_quant_affine, fake_quant_affine_slice, fake_quant_symmetric, fake_quant_symmetric_into,
    AffineParams,
};
