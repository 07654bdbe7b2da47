//! NEON backend (`aarch64`, where NEON is baseline — no runtime probe).
//!
//! The f32 micro-kernel is vectorized as two 4-lane vectors per accumulator
//! row with one multiply and one add per term in increasing-`p` order — the
//! exact scalar rounding sequence, so it sits in the bitwise tier (no FMA:
//! `vmlaq_f32` may fuse on some cores, so `vmulq`/`vaddq` are used
//! explicitly). The integer tile and the transcendental tail delegate to
//! the scalar reference: integers are exact anyway, and keeping `exp`
//! scalar keeps this backend bitwise across the board.

#![allow(unsafe_code)]

use super::{scalar::ScalarOps, SimdOps, INT_KC, INT_MR, INT_NR, MR, NR};
use std::arch::aarch64::*;

/// The NEON implementation, selected for every `aarch64` host.
#[derive(Debug, Default, Clone, Copy)]
pub struct NeonOps;

// safety: NEON is part of the aarch64 baseline ISA; this module only
// compiles for `target_arch = "aarch64"`, so the intrinsics are always
// available.
#[target_feature(enable = "neon")]
unsafe fn micro_kernel(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let mut c: [[float32x4_t; 2]; MR] = [[vdupq_n_f32(0.0); 2]; MR];
    for (i, row) in acc.iter().enumerate() {
        c[i][0] = vld1q_f32(row.as_ptr());
        c[i][1] = vld1q_f32(row.as_ptr().add(4));
    }
    let (app, bpp) = (ap.as_ptr(), bp.as_ptr());
    for p in 0..kc {
        let b0 = vld1q_f32(bpp.add(p * NR));
        let b1 = vld1q_f32(bpp.add(p * NR + 4));
        for (i, ci) in c.iter_mut().enumerate() {
            let ai = vdupq_n_f32(*app.add(p * MR + i));
            ci[0] = vaddq_f32(ci[0], vmulq_f32(ai, b0));
            ci[1] = vaddq_f32(ci[1], vmulq_f32(ai, b1));
        }
    }
    for (i, row) in acc.iter_mut().enumerate() {
        vst1q_f32(row.as_mut_ptr(), c[i][0]);
        vst1q_f32(row.as_mut_ptr().add(4), c[i][1]);
    }
}

impl SimdOps for NeonOps {
    fn name(&self) -> &'static str {
        "neon"
    }

    fn micro_kernel_f32(&self, kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        // safety: NEON is baseline on aarch64 (the only arch this compiles for).
        unsafe { micro_kernel(kc, ap, bp, acc) }
    }

    fn pack_row_f32(&self, src: &[f32], dst: &mut [f32]) {
        ScalarOps.pack_row_f32(src, dst);
    }

    fn micro_kernel_i32(
        &self,
        kc: usize,
        a: &[[i16; INT_KC]; INT_MR],
        w: &[u8],
        acc: &mut [[i32; INT_NR]; INT_MR],
    ) {
        ScalarOps.micro_kernel_i32(kc, a, w, acc);
    }

    fn bn_row(&self, x: &[f32], y: &mut [f32], mean: f32, inv_std: f32, g: f32, b: f32) {
        ScalarOps.bn_row(x, y, mean, inv_std, g, b);
    }

    fn max_f32(&self, x: &[f32]) -> f32 {
        ScalarOps.max_f32(x)
    }

    fn exp_sub_sum(&self, x: &[f32], m: f32, out: &mut [f32]) -> f32 {
        ScalarOps.exp_sub_sum(x, m, out)
    }
}
