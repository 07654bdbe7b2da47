//! AVX2 backends (`x86_64`, selected after `is_x86_feature_detected!`).
//!
//! One type, [`Avx2Ops`], serves as both `avx2` and `avx2-vnni`: every `f32`
//! kernel is shared, and only the integer tile has two bodies, chosen once
//! at detection (`avx2-vnni` exists only after the `avxvnni` probe passed).
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
//! * `micro_kernel_i32` is exact integer arithmetic in both bodies, so any
//!   summation order gives the same value: bitwise tier.
//!   - The VNNI body multiplies each K quad with `vpdpbusd`: four
//!     `u8 × i8` products per `i32` lane, summed and added to the lane
//!     without saturation (the `vpdpbusds` form is the saturating one). Each
//!     product fits 16 bits and four of them 18, so the only rounding left
//!     is `i32` wrap-around, which the `2^16 · 255 · 127 < 2^31` depth bound
//!     rules out.
//!   - The plain body sign-extends the weights (`vpmovsxbw`), zero-extends a
//!     broadcast level quad (`vpshufb`) and accumulates `vpmaddwd` pair
//!     sums per column, folded to one sum per column by `vphaddd` at the
//!     end of the tile.
//!
//!   `vpmaddubsw` is avoided in both: it adds its two `u8 × i8` products in
//!   saturating `i16`, and `2 · 255 · 127` does not fit.
//! * `exp_sub_sum` uses a Cephes-style polynomial `exp` and a reassociated
//!   lane sum: tolerance tier, ULP-bounded against scalar by the
//!   differential suite.

#![allow(unsafe_code)]

use super::{int_panel_len, SimdOps, INT_KC, INT_MR, INT_NR, MR, NR};
use std::arch::x86_64::*;

// Both tile bodies split a row's 16 columns into two 8-column halves and
// keep `2 · INT_MR` = 8 accumulator vectors in registers.
const _: () = assert!(INT_NR == 16 && INT_MR == 4);

/// The AVX2 implementation. Only constructed by [`detected`], after a
/// successful runtime feature probe, so every `unsafe` call below has its
/// target features present.
#[derive(Debug, Clone, Copy)]
pub struct Avx2Ops {
    /// The integer tile runs the `vpdpbusd` body: set only on the instance
    /// [`detected`] hands out after the `avxvnni` probe passed.
    vnni: bool,
}

/// The AVX2 backends this host can run, worst first: none, `[avx2]`, or
/// `[avx2, avx2-vnni]`.
pub(super) fn detected() -> &'static [Avx2Ops] {
    static ALL: [Avx2Ops; 2] = [Avx2Ops { vnni: false }, Avx2Ops { vnni: true }];
    let found = if !is_x86_feature_detected!("avx2") {
        0
    } else if is_x86_feature_detected!("avxvnni") {
        2
    } else {
        1
    };
    &ALL[..found]
}

// safety: callers guarantee AVX2 is available (enforced by construction:
// `detected` only hands out `Avx2Ops` after `is_x86_feature_detected!`).
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

// The integer tile, VNNI body: `INT_MR × INT_NR` `i32` accumulators held
// in eight 256-bit registers across the whole `K` loop. One step consumes
// one `K` quad: the panel's 64 bytes (16 columns × 4 depths) are two loads,
// and each activation row contributes one `vpbroadcastd` of its four raw
// levels plus a `vpdpbusd` per vector — 256 MACs for 8 multiply-adds and no
// shuffle-port op.
//
// safety: callers guarantee AVX2 and AVX-VNNI are available (enforced by
// construction: only the instance `detected` returns after the `avxvnni`
// probe passed runs this body); the caller additionally guarantees
// `kc <= INT_KC` and `w.len() >= int_panel_len(kc)`, which bound every
// pointer offset below (a partial last quad reads at most to the quad's
// end, inside the row because INT_KC is a multiple of 4).
#[target_feature(enable = "avx2,avxvnni")]
unsafe fn micro_kernel_i32_vnni(
    kc: usize,
    a: &[[u8; INT_KC]; INT_MR],
    w: &[u8],
    acc: &mut [[i32; INT_NR]; INT_MR],
) {
    let mut c = [[_mm256_setzero_si256(); 2]; INT_MR];
    for (ci, row) in c.iter_mut().zip(acc.iter()) {
        ci[0] = _mm256_loadu_si256(row.as_ptr().cast());
        ci[1] = _mm256_loadu_si256(row.as_ptr().add(8).cast());
    }
    let wp = w.as_ptr();
    // A partial last quad multiplies the panel's zero padding against
    // whatever the row holds past `kc`.
    for q in 0..kc.div_ceil(4) {
        let w0 = _mm256_loadu_si256(wp.add(q * 4 * INT_NR).cast());
        let w1 = _mm256_loadu_si256(wp.add(q * 4 * INT_NR + 32).cast());
        for (ci, row) in c.iter_mut().zip(a) {
            let quad = _mm256_set1_epi32(row.as_ptr().add(4 * q).cast::<i32>().read_unaligned());
            ci[0] = _mm256_dpbusd_avx_epi32(ci[0], quad, w0);
            ci[1] = _mm256_dpbusd_avx_epi32(ci[1], quad, w1);
        }
    }
    for (ci, row) in c.iter().zip(acc.iter_mut()) {
        _mm256_storeu_si256(row.as_mut_ptr().cast(), ci[0]);
        _mm256_storeu_si256(row.as_mut_ptr().add(8).cast(), ci[1]);
    }
}

// The integer tile, plain-AVX2 body, over the same K-quad panel. Each of
// two passes walks the whole `K` range for all four activation rows and
// one 8-column half of the panel. Per quad the half's 32 bytes are
// sign-extended into two vectors of four columns × four `i16` depths, each
// row's level quad is broadcast and zero-extended, and `vpmaddwd` leaves
// two pair sums per column (depths 0+1 and 2+3) in eight accumulators.
// `vphaddd` folds each column's two pair sums at the end of the pass; a
// permute puts the columns back in order. Sixteen accumulators for both
// halves at once would leave no register for the weights. The
// zero-extension is a `vpshufb` rather than `vpmovzxbw`: on cores that
// issue `vpshufb` on two ports (Golden Cove and later) it stays off the
// one port that `vpmovzxbw` and the weights' `vpmovsxbw` share.
//
// safety: same AVX2-availability contract as `micro_kernel`; the caller
// additionally guarantees `kc <= INT_KC` and `w.len() >= int_panel_len(kc)`,
// which bound every pointer offset below.
#[target_feature(enable = "avx2")]
unsafe fn micro_kernel_i32_plain(
    kc: usize,
    a: &[[u8; INT_KC]; INT_MR],
    w: &[u8],
    acc: &mut [[i32; INT_NR]; INT_MR],
) {
    // Spreads levels 0..=3 of a broadcast quad over the four `u16` lanes of
    // every 64-bit unit (a negative index zeroes the high byte).
    #[rustfmt::skip]
    let zext = _mm256_setr_epi8(
        0, -1, 1, -1, 2, -1, 3, -1, 0, -1, 1, -1, 2, -1, 3, -1,
        0, -1, 1, -1, 2, -1, 3, -1, 0, -1, 1, -1, 2, -1, 3, -1,
    );
    let wp = w.as_ptr();
    for half in 0..2 {
        // c[i][t]: row i, columns 8·half + 4t .. +4, as (pair sum 0+1,
        // pair sum 2+3) per column.
        let mut c = [[_mm256_setzero_si256(); 2]; INT_MR];
        for q in 0..kc.div_ceil(4) {
            let wq = wp.add(q * 4 * INT_NR + 32 * half);
            let wt = [
                _mm256_cvtepi8_epi16(_mm_loadu_si128(wq.cast())),
                _mm256_cvtepi8_epi16(_mm_loadu_si128(wq.add(16).cast())),
            ];
            for (ci, row) in c.iter_mut().zip(a) {
                let levels = row.as_ptr().add(4 * q).cast::<i32>().read_unaligned();
                let quad = _mm256_shuffle_epi8(_mm256_set1_epi32(levels), zext);
                for (ct, w) in ci.iter_mut().zip(&wt) {
                    *ct = _mm256_add_epi32(*ct, _mm256_madd_epi16(quad, *w));
                }
            }
        }
        for (ci, row) in c.iter().zip(acc.iter_mut()) {
            // hadd gives columns (0, 1, 4, 5 | 2, 3, 6, 7) of the eight;
            // the permute swaps the middle two 64-bit units.
            let sums = _mm256_hadd_epi32(ci[0], ci[1]);
            let sums = _mm256_permute4x64_epi64::<0b11_01_10_00>(sums);
            let dst = row.as_mut_ptr().add(8 * half);
            let total = _mm256_add_epi32(_mm256_loadu_si256(dst.cast()), sums);
            _mm256_storeu_si256(dst.cast(), total);
        }
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
        if self.vnni {
            "avx2-vnni"
        } else {
            "avx2"
        }
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
        a: &[[u8; INT_KC]; INT_MR],
        w: &[u8],
        acc: &mut [[i32; INT_NR]; INT_MR],
    ) {
        assert!(kc <= INT_KC && w.len() >= int_panel_len(kc));
        if self.vnni {
            // safety: `vnni` is set only on the instance `detected` returns
            // after both the AVX2 and the `avxvnni` probe passed, and the
            // assert above is the kernel's bounds precondition.
            unsafe { micro_kernel_i32_vnni(kc, a, w, acc) }
        } else {
            // safety: Avx2Ops exists only on hosts where the AVX2 probe
            // passed, and the assert above is the kernel's bounds
            // precondition.
            unsafe { micro_kernel_i32_plain(kc, a, w, acc) }
        }
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
