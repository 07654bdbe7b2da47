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
//! * `int_tile` sums in exact integer arithmetic in both bodies, so any
//!   summation order gives the same value, and dequantizes with the scalar
//!   expression's operations lane by lane: bitwise tier.
//!   - The VNNI body multiplies each K quad with `vpdpbusd`: four
//!     `u8 × i8` products per `i32` lane, summed and added to the lane
//!     without saturation (the `vpdpbusds` form is the saturating one). Each
//!     product fits 16 bits and four of them 18, so the only rounding left
//!     is `i32` wrap-around, which the `2^16 · 255 · 128 < 2^31` depth bound
//!     rules out.
//!   - The plain body sign-extends the weights (`vpmovsxbw`), zero-extends a
//!     broadcast level quad (`vpshufb`) and accumulates `vpmaddwd` pair
//!     sums per column, folded to one sum per column by `vphaddd` at the
//!     end of each pass.
//!   - The epilogue is shared: `vpmulld`/`vpsubd` for the zero-point
//!     correction, `vcvtdq2ps` (round to nearest even, as `as f32`), then
//!     `vmulps` and `vaddps` in the scalar order — no FMA.
//!
//!   `vpmaddubsw` is avoided in both: it adds its two `u8 × i8` products in
//!   saturating `i16`, and `2 · 255 · 127` does not fit.
//! * `exp_sub_sum` uses a Cephes-style polynomial `exp` and a reassociated
//!   lane sum: tolerance tier, ULP-bounded against scalar by the
//!   differential suite.

#![allow(unsafe_code)]

use super::{check_int_tile, scalar, IntCols, IntRow, SimdOps, INT_MR, INT_NR, MR, NR};
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

/// The tile's row starts: row `i` of `a` for `i < mr`, the last row again
/// past it. A short tile computes sums for rows it never stores, from
/// levels it may read.
fn tile_rows(a: &[u8], k: usize, mr: usize) -> [*const u8; INT_MR] {
    std::array::from_fn(|i| a[i.min(mr - 1) * k..].as_ptr())
}

/// Each tile row's last, partial `K` quad (`k % 4 != 0`): its 1–3 valid
/// levels, zero above. Built from the row's own bytes, so the tile never
/// reads past a row's end — the last row ends the level matrix.
fn tail_quads(a: &[u8], k: usize, mr: usize) -> [i32; INT_MR] {
    let rem = k % 4;
    std::array::from_fn(|i| {
        let end = (i.min(mr - 1) + 1) * k;
        let mut quad = [0u8; 4];
        quad[..rem].copy_from_slice(&a[end - rem..end]);
        i32::from_le_bytes(quad)
    })
}

// The integer tile, VNNI body: `INT_MR × INT_NR` `i32` accumulators held
// in eight 256-bit registers across the whole depth, the activation rows
// read in place, then the shared vector epilogue.
//
// safety: callers guarantee AVX2 and AVX-VNNI are available (enforced by
// construction: only the instance `detected` returns after the `avxvnni`
// probe passed runs this body) and that `check_int_tile` passed for a
// non-empty tile, so `a` holds `rows.len() ≥ 1` rows of `k` levels and `w`
// a whole panel of depth `k`. Full quads end at byte `4·(k/4) ≤ k` of a
// row and at byte `64·(k/4)` of the panel; a partial last quad is read by
// `tail_quads`, in bounds.
#[target_feature(enable = "avx2,avxvnni")]
unsafe fn int_tile_vnni(
    k: usize,
    a: &[u8],
    w: &[u8],
    rows: &[IntRow],
    cols: &IntCols<'_>,
    out: &mut [f32],
) {
    let r = tile_rows(a, k, rows.len());
    let wp = w.as_ptr();
    let mut c = [[_mm256_setzero_si256(); 2]; INT_MR];
    let full = k / 4;
    for q in 0..full {
        let quads = r.map(|row| row.add(4 * q).cast::<i32>().read_unaligned());
        vnni_step(&mut c, wp.add(64 * q), quads);
    }
    if !k.is_multiple_of(4) {
        vnni_step(&mut c, wp.add(64 * full), tail_quads(a, k, rows.len()));
    }
    store_tile(&c, rows, cols, out);
}

// One `K` quad of the VNNI body: the panel's 64 bytes (16 columns × 4
// depths) are two loads, and each row's broadcast quad of levels meets
// them in two `vpdpbusd` — 256 MACs for 8 multiply-adds and no shuffle-port
// op.
//
// safety: AVX2 and AVX-VNNI are available, and `w` points at 64 readable
// panel bytes.
#[inline]
#[target_feature(enable = "avx2,avxvnni")]
unsafe fn vnni_step(c: &mut [[__m256i; 2]; INT_MR], w: *const u8, quads: [i32; INT_MR]) {
    let w0 = _mm256_loadu_si256(w.cast());
    let w1 = _mm256_loadu_si256(w.add(32).cast());
    for (ci, quad) in c.iter_mut().zip(quads) {
        let quad = _mm256_set1_epi32(quad);
        ci[0] = _mm256_dpbusd_avx_epi32(ci[0], quad, w0);
        ci[1] = _mm256_dpbusd_avx_epi32(ci[1], quad, w1);
    }
}

// The integer tile, plain-AVX2 body, over the same K-quad panel and the
// same in-place rows. Each of two passes walks the whole depth for all
// four rows and one 8-column half of the panel, leaving two pair sums per
// column (depths 0+1 and 2+3) in eight accumulators; `vphaddd` folds them
// at the end of the pass and a permute puts the columns back in order.
// Sixteen accumulators for both halves at once would leave no register for
// the weights.
//
// safety: same AVX2-availability contract as `micro_kernel`, and the same
// `check_int_tile` bounds as `int_tile_vnni`.
#[target_feature(enable = "avx2")]
unsafe fn int_tile_plain(
    k: usize,
    a: &[u8],
    w: &[u8],
    rows: &[IntRow],
    cols: &IntCols<'_>,
    out: &mut [f32],
) {
    let r = tile_rows(a, k, rows.len());
    let tail = (!k.is_multiple_of(4)).then(|| tail_quads(a, k, rows.len()));
    let full = k / 4;
    let mut sums = [[_mm256_setzero_si256(); 2]; INT_MR];
    for half in 0..2 {
        let wp = w.as_ptr().add(32 * half);
        // c[i][t]: row i, columns 8·half + 4t .. +4, as (pair sum 0+1,
        // pair sum 2+3) per column.
        let mut c = [[_mm256_setzero_si256(); 2]; INT_MR];
        for q in 0..full {
            let quads = r.map(|row| row.add(4 * q).cast::<i32>().read_unaligned());
            plain_step(&mut c, wp.add(64 * q), quads);
        }
        if let Some(quads) = tail {
            plain_step(&mut c, wp.add(64 * full), quads);
        }
        for (ci, s) in c.iter().zip(&mut sums) {
            // hadd gives columns (0, 1, 4, 5 | 2, 3, 6, 7) of the eight;
            // the permute swaps the middle two 64-bit units.
            let pairs = _mm256_hadd_epi32(ci[0], ci[1]);
            s[half] = _mm256_permute4x64_epi64::<0b11_01_10_00>(pairs);
        }
    }
    store_tile(&sums, rows, cols, out);
}

// One `K` quad of one half of the plain body: the half's 32 bytes are
// sign-extended into two vectors of four columns × four `i16` depths, each
// row's level quad is broadcast and zero-extended, and `vpmaddwd` adds its
// two pair sums per column. The zero-extension is a `vpshufb` rather than
// `vpmovzxbw`: on cores that issue `vpshufb` on two ports (Golden Cove and
// later) it stays off the one port that `vpmovzxbw` and the weights'
// `vpmovsxbw` share.
//
// safety: AVX2 is available, and `w` points at 32 readable panel bytes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn plain_step(c: &mut [[__m256i; 2]; INT_MR], w: *const u8, quads: [i32; INT_MR]) {
    // Spreads levels 0..=3 of a broadcast quad over the four `u16` lanes of
    // every 64-bit unit (a negative index zeroes the high byte).
    #[rustfmt::skip]
    let zext = _mm256_setr_epi8(
        0, -1, 1, -1, 2, -1, 3, -1, 0, -1, 1, -1, 2, -1, 3, -1,
        0, -1, 1, -1, 2, -1, 3, -1, 0, -1, 1, -1, 2, -1, 3, -1,
    );
    let wt = [
        _mm256_cvtepi8_epi16(_mm_loadu_si128(w.cast())),
        _mm256_cvtepi8_epi16(_mm_loadu_si128(w.add(16).cast())),
    ];
    for (ci, quad) in c.iter_mut().zip(quads) {
        let quad = _mm256_shuffle_epi8(_mm256_set1_epi32(quad), zext);
        for (ct, w) in ci.iter_mut().zip(&wt) {
            *ct = _mm256_add_epi32(*ct, _mm256_madd_epi16(quad, *w));
        }
    }
}

// The epilogue both tile bodies share: `c[i][h]` holds row `i`'s sums for
// columns `8h..8h + 8`. A full tile is dequantized in registers in the
// scalar expression's operation order — the exact `i32` correction
// (`vpmulld`, `vpsubd`), `vcvtdq2ps`, `s_a·s_w`, one multiply, the bias
// add — when its rows' outputs are neighbours (plane strides inside one
// group) and its columns at least four apart. It leaves through a 4×4
// transpose per four columns (`vunpcklps`/`vunpckhps`, `vshufps`), then one
// 16-byte store per column; each output is written once and no two
// coincide, so the order they are written in cannot change a bit.
//
// Any other tile — fewer rows or columns, plane rows straddling two
// groups, row-major or other strides — spills its sums and runs the scalar
// expression.
//
// safety: AVX2 is available and `check_int_tile` passed for this tile, so
// every index `rows[i].out + j·stride` (`i < rows.len()`, `j < nc`) is
// inside `out` and `cols`' slices hold `nc` entries.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store_tile(
    c: &[[__m256i; 2]; INT_MR],
    rows: &[IntRow],
    cols: &IntCols<'_>,
    out: &mut [f32],
) {
    let full = rows.len() == INT_MR && cols.scales.len() == INT_NR;
    let planes = cols.stride >= INT_MR
        && rows
            .iter()
            .enumerate()
            .all(|(i, r)| r.out == rows[0].out + i);
    if !full || !planes {
        let mut acc = [[0i32; INT_NR]; INT_MR];
        for (row, ci) in acc.iter_mut().zip(c) {
            _mm256_storeu_si256(row.as_mut_ptr().cast(), ci[0]);
            _mm256_storeu_si256(row.as_mut_ptr().add(8).cast(), ci[1]);
        }
        return scalar::dequantize(&acc, rows, cols, out);
    }
    let (sp, tp) = (cols.scales.as_ptr(), cols.row_sums.as_ptr());
    let s_w = [_mm256_loadu_ps(sp), _mm256_loadu_ps(sp.add(8))];
    let t_sum = [
        _mm256_loadu_si256(tp.cast()),
        _mm256_loadu_si256(tp.add(8).cast()),
    ];
    let bias = cols.bias.map(|b| {
        [
            _mm256_loadu_ps(b.as_ptr()),
            _mm256_loadu_ps(b.as_ptr().add(8)),
        ]
    });
    // v[h][i]: row i's outputs for columns 8h..8h + 8.
    let mut v = [[_mm256_setzero_ps(); INT_MR]; 2];
    for i in 0..INT_MR {
        let (s_a, z) = (
            _mm256_set1_ps(rows[i].scale),
            _mm256_set1_epi32(rows[i].zero_point),
        );
        for h in 0..2 {
            let corrected = _mm256_sub_epi32(c[i][h], _mm256_mullo_epi32(z, t_sum[h]));
            let x = _mm256_mul_ps(_mm256_mul_ps(s_a, s_w[h]), _mm256_cvtepi32_ps(corrected));
            v[h][i] = match bias {
                Some(b) => _mm256_add_ps(x, b[h]),
                None => x,
            };
        }
    }
    let base = out.as_mut_ptr().add(rows[0].out);
    for (h, [r0, r1, r2, r3]) in v.into_iter().enumerate() {
        // Rows 0/1 and 2/3 interleaved: (r0 r1) of columns 0, 1 | 4, 5 and
        // of columns 2, 3 | 6, 7, per 128-bit lane.
        let t0 = _mm256_unpacklo_ps(r0, r1);
        let t1 = _mm256_unpackhi_ps(r0, r1);
        let t2 = _mm256_unpacklo_ps(r2, r3);
        let t3 = _mm256_unpackhi_ps(r2, r3);
        // Column t of the half in the low lane, column t + 4 in the high.
        let columns = [
            _mm256_shuffle_ps::<0b01_00_01_00>(t0, t2),
            _mm256_shuffle_ps::<0b11_10_11_10>(t0, t2),
            _mm256_shuffle_ps::<0b01_00_01_00>(t1, t3),
            _mm256_shuffle_ps::<0b11_10_11_10>(t1, t3),
        ];
        for (t, col) in columns.into_iter().enumerate() {
            let j = 8 * h + t;
            _mm_storeu_ps(base.add(j * cols.stride), _mm256_castps256_ps128(col));
            _mm_storeu_ps(
                base.add((j + 4) * cols.stride),
                _mm256_extractf128_ps::<1>(col),
            );
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

    fn int_tile(
        &self,
        k: usize,
        a: &[u8],
        w: &[u8],
        rows: &[IntRow],
        cols: IntCols<'_>,
        out: &mut [f32],
    ) {
        if !check_int_tile(k, a, w, rows, &cols, out) {
            return;
        }
        if self.vnni {
            // safety: `vnni` is set only on the instance `detected` returns
            // after both the AVX2 and the `avxvnni` probe passed, and
            // `check_int_tile` above established the body's bounds.
            unsafe { int_tile_vnni(k, a, w, rows, &cols, out) }
        } else {
            // safety: Avx2Ops exists only on hosts where the AVX2 probe
            // passed, and `check_int_tile` above established the body's
            // bounds.
            unsafe { int_tile_plain(k, a, w, rows, &cols, out) }
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
