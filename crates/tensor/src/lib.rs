//! # tia-tensor
//!
//! Dense `f32` tensor substrate for the 2-in-1 Accelerator reproduction.
//!
//! This crate provides the numerical kernels every other crate builds on:
//! n-dimensional row-major tensors, a blocked/tiled SGEMM (register-blocked
//! micro-kernel over packed cache-sized panels), im2col/col2im convolution
//! lowering, elementwise and reduction ops, and seeded random
//! initialisation.
//!
//! It is deliberately small and fully dependency-free: the paper's
//! algorithm side (Random Precision Switch adversarial training) only needs
//! forward/backward passes over moderately sized convolutional networks, and a
//! transparent from-scratch substrate keeps every code path inspectable.
//! The GEMM accumulates every output element in a fixed increasing-`k`
//! order, independent of the batch dimension — the foundation of the
//! serving engine's bitwise batched-vs-per-sample identity (see
//! `docs/ARCHITECTURE.md`).
//!
//! # Example
//!
//! ```
//! use tia_tensor::{gemm, Tensor};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let identity = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
//! let mut c = vec![0.0; 4];
//! gemm(2, 2, 2, a.data(), identity.data(), &mut c);
//! assert_eq!(c, a.data());
//! ```

#![deny(missing_docs)]

mod buf;
mod conv;
mod gemm;
mod ops;
mod rng;
pub mod simd;
mod tensor;
mod workspace;

pub use buf::{AlignedBuf, AlignedBytes, AlignedInts, Elem};
pub use conv::{
    col2im, col2im_add_into, conv2d_output_hw, im2col, im2col_into, im2col_levels_rows,
    Conv2dGeometry,
};
pub use gemm::{gemm, gemm_ws, matmul_a_bt_ws, matmul_at_b_ws, PackedMatrix};
pub use ops::{argmax, argmax_rows, count_top1_correct, log_softmax_rows, softmax_rows};
pub use rng::SeededRng;
pub use simd::KernelMode;
pub use tensor::Tensor;
pub use workspace::Workspace;
