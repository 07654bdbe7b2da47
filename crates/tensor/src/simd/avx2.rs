//! AVX2 backend (`x86_64`, selected after `is_x86_feature_detected!`).
//!
//! Determinism tiers (see the module docs):
//!
//! * `micro_kernel_f32` vectorizes across the `NR` output columns — one
//!   256-bit lane vector per accumulator row — and performs exactly one
//!   `vmulps` + one `vaddps` per `(i, p)` term, in increasing-`p` order.
//!   Each output element therefore sees the *identical* rounding sequence
//!   as the scalar kernel: bitwise tier. FMA is deliberately not used
//!   (fused rounding would diverge from the reference).
//! * `bn_row` replays the scalar expression's operation order per lane:
//!   bitwise tier. `pack_row_f32` is a copy: bitwise trivially.
//! * `micro_kernel_i32` sign-extends each panel step to `i16` pairs
//!   (`vpmovsxbw`) and accumulates via `vpmaddwd` + `vpaddd` into `i32`
//!   lanes — exact integer arithmetic, so any summation order gives the
//!   same value: bitwise tier. (`vpmaddubsw` is avoided: it saturates at
//!   `255·127·2`.)
//! * `exp_sub_sum` uses a Cephes-style polynomial `exp` and a reassociated
//!   lane sum: tolerance tier, ULP-bounded against scalar by the
//!   differential suite.

#![allow(unsafe_code)]

use super::{int_panel_len, SimdOps, INT_KC, INT_MR, INT_NR, MR, NR};
use std::arch::x86_64::*;

/// The AVX2 implementation. Only constructed by `super::detect` after a
/// successful runtime feature probe, so every `unsafe` call below has its
/// target features present.
#[derive(Debug, Default, Clone, Copy)]
pub struct Avx2Ops;

// safety: callers guarantee AVX2 is available (enforced by construction:
// `detect` only hands out `Avx2Ops` after `is_x86_feature_detected!`).
#[target_feature(enable = "avx2")]
unsafe fn micro_kernel(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let mut c0 = _mm256_loadu_ps(acc[0].as_ptr());
    let mut c1 = _mm256_loadu_ps(acc[1].as_ptr());
    let mut c2 = _mm256_loadu_ps(acc[2].as_ptr());
    let mut c3 = _mm256_loadu_ps(acc[3].as_ptr());
    let (ap, bp) = (ap.as_ptr(), bp.as_ptr());
    for p in 0..kc {
        let b = _mm256_loadu_ps(bp.add(p * NR));
        let a = ap.add(p * MR);
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(*a), b));
        c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(*a.add(1)), b));
        c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(*a.add(2)), b));
        c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(*a.add(3)), b));
    }
    _mm256_storeu_ps(acc[0].as_mut_ptr(), c0);
    _mm256_storeu_ps(acc[1].as_mut_ptr(), c1);
    _mm256_storeu_ps(acc[2].as_mut_ptr(), c2);
    _mm256_storeu_ps(acc[3].as_mut_ptr(), c3);
}

// safety: same AVX2-availability contract as `micro_kernel`.
#[target_feature(enable = "avx2")]
unsafe fn pack_row(src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len();
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    let mut i = 0;
    while i + 8 <= n {
        _mm256_storeu_ps(dp.add(i), _mm256_loadu_ps(sp.add(i)));
        i += 8;
    }
    while i < n {
        *dp.add(i) = *sp.add(i);
        i += 1;
    }
}

// The integer tile: `INT_MR × INT_NR` `i32` accumulators held in eight
// 256-bit registers across the whole `K` loop. One step consumes one `K`
// pair: the panel's 32 bytes (16 columns × 2 depths) are sign-extended once
// into two vectors of `i16` pairs, and each activation row contributes one
// `vpbroadcastd` of its pre-widened level pair plus a `vpmaddwd` + `vpaddd`
// per vector — 128 MACs for 2 shuffle-port ops. An 8×8 tile would need 9
// loads per 8 `vpmaddwd` and is load-bound.
//
// safety: same AVX2-availability contract as `micro_kernel`; the caller
// additionally guarantees `kc <= INT_KC` and `w.len() >= int_panel_len(kc)`,
// which bound every pointer offset below.
#[target_feature(enable = "avx2")]
unsafe fn micro_kernel_i32(
    kc: usize,
    a: &[[i16; INT_KC]; INT_MR],
    w: &[u8],
    acc: &mut [[i32; INT_NR]; INT_MR],
) {
    let mut c = [[_mm256_setzero_si256(); 2]; INT_MR];
    for (ci, row) in c.iter_mut().zip(acc.iter()) {
        ci[0] = _mm256_loadu_si256(row.as_ptr().cast());
        ci[1] = _mm256_loadu_si256(row.as_ptr().add(8).cast());
    }
    let wp = w.as_ptr();
    // An odd depth rounds up to a whole pair: INT_KC is even, so the extra
    // level is inside the row, and the panel's extra weight is zero padding.
    for p in 0..kc.div_ceil(2) {
        let w0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(wp.add(p * 2 * INT_NR).cast()));
        let w1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(wp.add(p * 2 * INT_NR + 16).cast()));
        for (ci, row) in c.iter_mut().zip(a) {
            let pair = _mm256_set1_epi32(row.as_ptr().add(2 * p).cast::<i32>().read_unaligned());
            ci[0] = _mm256_add_epi32(ci[0], _mm256_madd_epi16(pair, w0));
            ci[1] = _mm256_add_epi32(ci[1], _mm256_madd_epi16(pair, w1));
        }
    }
    for (ci, row) in c.iter().zip(acc.iter_mut()) {
        _mm256_storeu_si256(row.as_mut_ptr().cast(), ci[0]);
        _mm256_storeu_si256(row.as_mut_ptr().add(8).cast(), ci[1]);
    }
}

// safety: same AVX2-availability contract as `micro_kernel`.
#[target_feature(enable = "avx2")]
unsafe fn bn_row(x: &[f32], y: &mut [f32], mean: f32, inv_std: f32, g: f32, b: f32) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let (vm, vi, vg, vb) = (
        _mm256_set1_ps(mean),
        _mm256_set1_ps(inv_std),
        _mm256_set1_ps(g),
        _mm256_set1_ps(b),
    );
    let mut i = 0;
    while i + 8 <= n {
        let xv = _mm256_loadu_ps(xp.add(i));
        // Same per-element op order as scalar: sub, mul, mul, add.
        let t = _mm256_mul_ps(_mm256_sub_ps(xv, vm), vi);
        _mm256_storeu_ps(yp.add(i), _mm256_add_ps(_mm256_mul_ps(vg, t), vb));
        i += 8;
    }
    while i < n {
        let xv = *xp.add(i);
        *yp.add(i) = g * ((xv - mean) * inv_std) + b;
        i += 1;
    }
}

// safety: same AVX2-availability contract as `micro_kernel`.
#[target_feature(enable = "avx2")]
unsafe fn max_f32(x: &[f32]) -> f32 {
    let n = x.len();
    let xp = x.as_ptr();
    let mut m = f32::NEG_INFINITY;
    let mut i = 0;
    if n >= 8 {
        let mut mv = _mm256_loadu_ps(xp);
        i = 8;
        while i + 8 <= n {
            mv = _mm256_max_ps(mv, _mm256_loadu_ps(xp.add(i)));
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), mv);
        for v in lanes {
            m = m.max(v);
        }
    }
    while i < n {
        m = m.max(*xp.add(i));
        i += 1;
    }
    m
}

// Cephes-style polynomial expf constants (as in the classic avx_mathfun).
const EXP_HI: f32 = 88.376_26;
const EXP_LO: f32 = -88.376_26;
const LOG2EF: f32 = std::f32::consts::LOG2_E;
const C1: f32 = 0.693_359_4;
const C2: f32 = -2.121_944_4e-4;
const P0: f32 = 1.987_569_1e-4;
const P1: f32 = 1.398_199_9e-3;
const P2: f32 = 8.333_452e-3;
const P3: f32 = 4.166_579_6e-2;
const P4: f32 = 1.666_666_5e-1;
const P5: f32 = 5.0e-1;

// safety: same AVX2-availability contract as `micro_kernel`.
#[target_feature(enable = "avx2")]
unsafe fn exp_ps(x: __m256) -> __m256 {
    let one = _mm256_set1_ps(1.0);
    let x = _mm256_min_ps(
        _mm256_max_ps(x, _mm256_set1_ps(EXP_LO)),
        _mm256_set1_ps(EXP_HI),
    );
    // n = floor(x * log2(e) + 0.5); r = x - n*ln2 (split high/low).
    let fx = _mm256_floor_ps(_mm256_add_ps(
        _mm256_mul_ps(x, _mm256_set1_ps(LOG2EF)),
        _mm256_set1_ps(0.5),
    ));
    let r = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(C1)));
    let r = _mm256_sub_ps(r, _mm256_mul_ps(fx, _mm256_set1_ps(C2)));
    // Degree-5 polynomial for exp(r) on r ∈ [-ln2/2, ln2/2].
    let mut y = _mm256_set1_ps(P0);
    y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P1));
    y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P2));
    y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P3));
    y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P4));
    y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P5));
    let r2 = _mm256_mul_ps(r, r);
    y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, r2), r), one);
    // Scale by 2^n via exponent-field arithmetic.
    let n = _mm256_add_epi32(_mm256_cvttps_epi32(fx), _mm256_set1_epi32(127));
    let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32(n, 23));
    _mm256_mul_ps(y, pow2n)
}

// safety: same AVX2-availability contract as `micro_kernel`.
#[target_feature(enable = "avx2")]
unsafe fn exp_sub_sum(x: &[f32], m: f32, out: &mut [f32]) -> f32 {
    debug_assert_eq!(x.len(), out.len());
    let n = x.len();
    let (xp, op) = (x.as_ptr(), out.as_mut_ptr());
    let vm = _mm256_set1_ps(m);
    let mut vsum = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        let e = exp_ps(_mm256_sub_ps(_mm256_loadu_ps(xp.add(i)), vm));
        _mm256_storeu_ps(op.add(i), e);
        vsum = _mm256_add_ps(vsum, e);
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), vsum);
    let mut sum = lanes.iter().sum::<f32>();
    while i < n {
        let e = (*xp.add(i) - m).exp();
        *op.add(i) = e;
        sum += e;
        i += 1;
    }
    sum
}

impl SimdOps for Avx2Ops {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn micro_kernel_f32(&self, kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        // safety: Avx2Ops exists only on hosts where the AVX2 probe passed.
        unsafe { micro_kernel(kc, ap, bp, acc) }
    }

    fn pack_row_f32(&self, src: &[f32], dst: &mut [f32]) {
        // safety: Avx2Ops exists only on hosts where the AVX2 probe passed.
        unsafe { pack_row(src, dst) }
    }

    fn micro_kernel_i32(
        &self,
        kc: usize,
        a: &[[i16; INT_KC]; INT_MR],
        w: &[u8],
        acc: &mut [[i32; INT_NR]; INT_MR],
    ) {
        assert!(kc <= INT_KC && w.len() >= int_panel_len(kc));
        // safety: Avx2Ops exists only on hosts where the AVX2 probe passed,
        // and the assert above is the kernel's bounds precondition.
        unsafe { micro_kernel_i32(kc, a, w, acc) }
    }

    fn bn_row(&self, x: &[f32], y: &mut [f32], mean: f32, inv_std: f32, g: f32, b: f32) {
        // safety: Avx2Ops exists only on hosts where the AVX2 probe passed.
        unsafe { bn_row(x, y, mean, inv_std, g, b) }
    }

    fn max_f32(&self, x: &[f32]) -> f32 {
        // safety: Avx2Ops exists only on hosts where the AVX2 probe passed.
        unsafe { max_f32(x) }
    }

    fn exp_sub_sum(&self, x: &[f32], m: f32, out: &mut [f32]) -> f32 {
        // safety: Avx2Ops exists only on hosts where the AVX2 probe passed.
        unsafe { exp_sub_sum(x, m, out) }
    }
}
