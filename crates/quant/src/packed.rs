//! The two quantization grids, and true integer storage and compute on them.
//!
//! Both grids, affine and symmetric, are defined once, here. The fake-quant
//! path (see [`crate::quantizer`]) writes a level's dequantized `f32`, which
//! is what training and the attack-side gradients need. On the serving path
//! (`Mode::Infer` at 2–8 bits, past the crossover depth), quantized layers
//! instead run *genuinely* quantized: weights are stored as signed integers
//! with per-row scales, prepacked into the [`INT_NR`]-wide panels of
//! [`tia_tensor::simd`]'s integer tile;
//! activations are unsigned levels with a per-sample affine grid; and the
//! matmul is a tiled GEMM that accumulates exactly in `i32` and dequantizes
//! each tile in registers.
//!
//! Every precision from 2 to 8 bits shares that one byte-wide panel format
//! and one compute kernel: a ≤ 4-bit row keeps its 4-bit grid and scale, but
//! each weight occupies a byte lane, because a CPU without a sub-byte
//! multiply has to widen nibbles before every multiply anyway — doing it
//! once, when the memo is filled, takes the decode off the serving path.
//! The panels interleave `K` quads — four consecutive depths of one column
//! are adjacent — which is the operand a byte dot-product instruction
//! (`vpdpbusd`) multiplies against four raw activation levels at once, so
//! the activations reach the tile as the `u8` levels the quantizer wrote.
//! (`tia-sim` and `tia-accel` model true sub-byte storage; this is the
//! software serving path's layout, not the accelerator's.)
//!
//! The arithmetic identity this rests on: with activations
//! `x_j = s_a · (q_j − z)` and weight row `w_j = s_w · t_j`,
//!
//! ```text
//! Σ_j x_j · w_j  =  s_a · s_w · (Σ_j q_j t_j  −  z · Σ_j t_j)
//! ```
//!
//! so one integer sum plus a precomputed weight-row sum replaces the f32
//! inner loop. Integer accumulation is exact, making the result independent
//! of summation order — tiling and the dispatched backend cannot change a
//! bit, and batched results are trivially equal to
//! per-sample results (an output element's value does not depend on which
//! tile computed it).

use crate::Precision;
use tia_tensor::simd::{
    int_panel_index, int_panel_len, IntCols, IntRow, SimdOps, INT_MAX_DEPTH, INT_MR, INT_NR,
};
use tia_tensor::AlignedBytes;

/// Affine grid of one quantized activation slice: the slice's values are
/// approximated by `scale · (level − zero_point)` with integer levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelParams {
    /// Grid step.
    pub scale: f32,
    /// Level that represents the real value `0.0` (in `0..=levels`).
    pub zero_point: i32,
}

/// Pixels per tile of the channel-interleaving writer: one tile of levels
/// is computed contiguously (so the arithmetic vectorizes), then scattered.
const TILE: usize = 64;

// tia-lint: hot-path(begin)
/// `(min, max)` of `src` and `0.0`, ignoring NaNs — the value
/// `fold(f32::min)` / `fold(f32::max)` give, computed over independent
/// lanes so the compiler can keep one vector of running minima and one of
/// maxima. `min`/`max` are order-independent up to the sign of a zero
/// result, which no grid can observe (`hi - lo`, `hi.max(-lo)`, and a zero
/// point whose sign only reaches a level that equals it).
fn min_max_with_zero(src: &[f32]) -> (f32, f32) {
    const LANES: usize = 16;
    let (mut lo, mut hi) = ([0.0f32; LANES], [0.0f32; LANES]);
    let mut chunks = src.chunks_exact(LANES);
    for chunk in &mut chunks {
        for ((l, h), &v) in lo.iter_mut().zip(&mut hi).zip(chunk) {
            // A NaN fails both comparisons and is skipped.
            *l = if v < *l { v } else { *l };
            *h = if v > *h { v } else { *h };
        }
    }
    let tail = chunks.remainder();
    (
        lo.iter().chain(tail).fold(0.0, |m, &v| v.min(m)),
        hi.iter().chain(tail).fold(0.0, |m, &v| v.max(m)),
    )
}

/// `t.round()` for a `t` already clamped to a grid's levels in `[0, 2^16]`,
/// without the `roundf` call; both grids round here. Clamping first is exact,
/// as rounding is monotone and the bounds are integers. `t + 2^23` rounds `t`
/// to the nearest integer, ties to even, and leaves it in the low mantissa
/// bits; `t - nearest` is exact, and it is `+0.5` precisely on the ties that
/// went down where `round` (ties away from zero) goes up.
#[inline(always)]
fn round_clamped(t: f32) -> i32 {
    const TWO_23: f32 = 8_388_608.0;
    let shifted = t + TWO_23;
    let tie_went_down = t - (shifted - TWO_23) == 0.5;
    (shifted.to_bits() - TWO_23.to_bits()) as i32 + tie_went_down as i32
}

/// The affine grid of one slice: `level = round(v / scale + zero_point)`
/// clamped to `0..=levels`, all three kept in `f32`.
#[derive(Clone, Copy)]
pub(crate) struct AffineGrid {
    scale: f32,
    zero_point: f32,
    levels: f32,
}

impl AffineGrid {
    /// The grid of a slice with no range (all zeros, NaNs aside): level 0.
    pub(crate) const UNIT: Self = Self {
        scale: 1.0,
        zero_point: 0.0,
        levels: 0.0,
    };

    /// The grid of `src` at `precision`: its range widened to hold `0.0`
    /// (NaNs ignored) in `2^b − 1` steps, `0.0` rounded onto a level. `None`
    /// for an empty range, which only an all-zero slice (NaNs aside) has.
    pub(crate) fn calibrate(src: &[f32], precision: Precision) -> Option<Self> {
        let levels = ((1u32 << precision.bits()) - 1) as f32;
        let (lo, hi) = min_max_with_zero(src);
        if hi == lo {
            return None;
        }
        let scale = (hi - lo) / levels;
        Some(Self {
            scale,
            zero_point: (-lo / scale).round(),
            levels,
        })
    }

    /// The grid as its callers see it.
    pub(crate) fn params(self) -> LevelParams {
        LevelParams {
            scale: self.scale,
            zero_point: self.zero_point as i32,
        }
    }

    /// The level of `v`: `(v / scale + zero_point).round().clamp(0.0,
    /// levels)` on every input (NaN gives level 0).
    #[inline(always)]
    pub(crate) fn level_of(self, v: f32) -> i32 {
        // `f32::max` drops a NaN for the 0.0, the level `NaN as u8` gives.
        round_clamped((v / self.scale + self.zero_point).max(0.0).min(self.levels))
    }

    /// `v` dequantized, `(level − zero_point) · scale`, for a `v` that is not
    /// NaN. The level takes the sign of `v`'s position, as `round` makes
    /// `(−0.5, 0]` level `−0.0` (a position below never meets a zero point 0).
    #[inline(always)]
    pub(crate) fn fake_quant(self, v: f32) -> f32 {
        let level = (self.level_of(v) as f32).copysign(v / self.scale + self.zero_point);
        (level - self.zero_point) * self.scale
    }
}

/// The symmetric grid of one slice: `level = round(v / step)` clamped to
/// `−qmax..=qmax`, both kept in `f32`.
#[derive(Clone, Copy)]
pub(crate) struct SymmetricGrid {
    pub(crate) step: f32,
    qmax: f32,
}

impl SymmetricGrid {
    /// The grid of `src` at `bits`: `step = max|x| / qmax` (NaNs ignored),
    /// `qmax = 2^{b−1} − 1` (1 at one bit). `None` if no value is nonzero.
    pub(crate) fn calibrate(src: &[f32], bits: u8) -> Option<Self> {
        let qmax = ((1i32 << (bits.max(2) - 1)) - 1) as f32;
        let (lo, hi) = min_max_with_zero(src);
        let amax = hi.max(-lo);
        (amax != 0.0).then(|| Self {
            step: amax / qmax,
            qmax,
        })
    }

    /// The level of `v`, `(v / step).round().clamp(−qmax, qmax)` (NaN for a
    /// NaN): `|v|`'s level with `v`'s sign, as `round` is odd (`−0.0` too).
    #[inline(always)]
    pub(crate) fn level_of(self, v: f32) -> f32 {
        let q = v / self.step;
        if q.is_nan() {
            return q;
        }
        (round_clamped(q.abs().min(self.qmax)) as f32).copysign(q)
    }
}

/// Quantizes `src` onto the same affine grid as
/// [`crate::fake_quant_affine_slice`], but emits the integer *levels*
/// instead of the dequantized values: `(level - zero_point) * scale` is the
/// fake quantizer's output, up to the sign of a zero (a NaN is level 0).
///
/// This is [`quantize_affine_levels_hwc`] over a single plane.
///
/// # Panics
///
/// Panics if the slice lengths differ or `precision` exceeds 8 bits (levels
/// must fit a byte).
pub fn quantize_affine_levels(src: &[f32], dst: &mut [u8], precision: Precision) -> LevelParams {
    quantize_affine_levels_hwc(src, 1, dst, precision)
}

/// Quantizes `channels` planes (`src` is `[C, H·W]`, one grid over all of
/// it) into a channel-last level image: `dst[s * C + c]` is the level of
/// `src[c * H·W + s]`. Grid and levels are those of
/// [`quantize_affine_levels`] on the same slice — only the position each
/// level is written to differs — so with `channels == 1` it *is* that
/// function. The channel-last image is what
/// [`tia_tensor::im2col_levels_rows`] lowers.
///
/// # Panics
///
/// Panics if the slice lengths differ, `channels` does not divide them
/// (zero included), or `precision` exceeds 8 bits.
pub fn quantize_affine_levels_hwc(
    src: &[f32],
    channels: usize,
    dst: &mut [u8],
    precision: Precision,
) -> LevelParams {
    assert_eq!(
        src.len(),
        dst.len(),
        "quantize_affine_levels length mismatch"
    );
    assert!(
        channels > 0 && src.len().is_multiple_of(channels),
        "quantize_affine_levels: channels must divide the slice"
    );
    let b = precision.bits();
    assert!(b <= 8, "activation levels beyond 8 bits do not fit a byte");
    let grid = AffineGrid::calibrate(src, precision).unwrap_or(AffineGrid::UNIT);
    let hw = src.len() / channels;
    let mut tile = [0u8; TILE];
    for s0 in (0..hw).step_by(TILE) {
        let t = TILE.min(hw - s0);
        for (ci, plane) in src.chunks_exact(hw).enumerate() {
            for (l, &v) in tile[..t].iter_mut().zip(&plane[s0..s0 + t]) {
                *l = grid.level_of(v) as u8;
            }
            let pixels = dst[s0 * channels + ci..].iter_mut().step_by(channels);
            for (d, &level) in pixels.zip(&tile[..t]) {
                *d = level;
            }
        }
    }
    grid.params()
}
// tia-lint: hot-path(end)

/// A weight matrix stored as true integers: `rows` rows of `k` symmetric
/// b-bit values with one scale per row, prepacked for the integer tile.
///
/// Each row is one output feature's reduction operand, in the feature
/// order of the activation rows it is multiplied against: `[k, kh·kw·c]`
/// (channels innermost, matching [`tia_tensor::im2col_levels_rows`]) for
/// conv, which at 1×1 is the linear layer's `[out_features,
/// in_features]`. Scales, row sums and every `i32` sum are invariant under
/// a permutation of a row's features, which is why the conv layer is free
/// to pick the order that makes its patch rows cheap to build.
///
/// Storage is `ceil(rows / INT_NR)` panels of [`INT_NR`] rows each, every
/// panel laid out by [`int_panel_index`]: one byte per weight at every
/// precision, `K` quads interleaved across the panel's rows, zero-padded to
/// a whole panel in `rows` and a whole quad in `k`. Packing happens here,
/// once per memo fill, so [`gemm_quant_strided`] never rearranges a weight.
#[derive(Debug, Clone)]
pub struct QuantizedWeights {
    rows: usize,
    k: usize,
    bits: u8,
    /// The panels, concatenated; 64-byte aligned for the tile's loads.
    data: AlignedBytes,
    /// Per-row symmetric grid step (`0.0` for an all-zero row).
    scales: Vec<f32>,
    /// Per-row integer sums `Σ_j t_j`, consumed by the zero-point
    /// correction in [`gemm_quant`].
    row_sums: Vec<i32>,
}

impl QuantizedWeights {
    /// Quantizes a row-major `rows x k` f32 matrix to symmetric `bits`-bit
    /// integers, one grid per row: each row's levels and step are those
    /// [`crate::fake_quant_symmetric_into`] gives that row alone, `t =
    /// round(w / s)` with `s = max|row| / (2^{b-1} − 1)`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ bits ≤ 8`, `w.len() == rows * k` and
    /// `k ≤` [`INT_MAX_DEPTH`].
    pub fn quantize_rows(w: &[f32], rows: usize, k: usize, bits: u8) -> Self {
        assert!((2..=8).contains(&bits), "integer path covers 2..=8 bits");
        assert_eq!(w.len(), rows * k, "quantize_rows shape mismatch");
        // Every integer operand is built here, so this is where the tile's
        // "no i32 overflow" precondition is enforced.
        assert!(
            k <= INT_MAX_DEPTH,
            "reduction depth {k} could overflow the i32 dot accumulator"
        );
        let panel_len = int_panel_len(k);
        let mut data = AlignedBytes::zeroed(rows.div_ceil(INT_NR) * panel_len);
        // An all-zero row keeps step 0, row sum 0 and zero panel bytes.
        let mut scales = vec![0.0; rows];
        let mut row_sums = vec![0; rows];
        // tia-lint: hot-path(begin)
        for r in 0..rows {
            let src = &w[r * k..(r + 1) * k];
            let Some(grid) = SymmetricGrid::calibrate(src, bits) else {
                continue;
            };
            let panel = &mut data[r / INT_NR * panel_len..][..panel_len];
            let mut sum = 0i32;
            for (p, &v) in src.iter().enumerate() {
                let t = grid.level_of(v) as i32;
                sum += t;
                panel[int_panel_index(p, r % INT_NR)] = t as i8 as u8;
            }
            scales[r] = grid.step;
            row_sums[r] = sum;
        }
        // tia-lint: hot-path(end)
        Self {
            rows,
            k,
            bits,
            data,
            scales,
            row_sums,
        }
    }

    /// Number of weight rows (output features).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reduction depth (input features).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Stored precision in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Bytes of panel storage (capacity planning / tests):
    /// `ceil(rows / 16) · 16 · ceil(k / 4) · 4` at every precision
    /// (`INT_NR = 16` rows per panel, `k` padded to a whole quad).
    pub fn packed_len(&self) -> usize {
        self.data.len()
    }

    /// Per-row grid steps.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Dequantizes row `r` element `j` (test/debug helper).
    pub fn dequant_at(&self, r: usize, j: usize) -> f32 {
        assert!(r < self.rows && j < self.k, "dequant_at out of range");
        let panel = &self.data[r / INT_NR * int_panel_len(self.k)..];
        let t = panel[int_panel_index(j, r % INT_NR)] as i8;
        self.scales[r] * t as f32
    }
}

/// Where the integer GEMM puts output element `(group g, row r of the
/// group, weight row j)`: at `g * group + r * row + j * col` in `out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutStrides {
    /// Distance between the first elements of consecutive groups.
    pub group: usize,
    /// Distance between consecutive activation rows of one group.
    pub row: usize,
    /// Distance between consecutive weight rows (output features).
    pub col: usize,
}

impl OutStrides {
    /// Plain row-major `[m, n]`: what [`gemm_quant`] writes.
    pub fn row_major(rows_per_group: usize, n: usize) -> Self {
        Self {
            group: rows_per_group * n,
            row: n,
            col: 1,
        }
    }

    /// One `[n, rows_per_group]` plane block per group — NCHW when a group
    /// is an image and its rows are the `oh·ow` output pixels.
    pub fn planes(rows_per_group: usize, n: usize) -> Self {
        Self {
            group: n * rows_per_group,
            row: 1,
            col: rows_per_group,
        }
    }
}

/// Row-major integer GEMM: [`gemm_quant_strided`] writing `out` as `[m,
/// rows]`.
///
/// # Panics
///
/// Panics on shape mismatches (see [`gemm_quant_strided`]), or if `out` is
/// not exactly `m · rows` long.
#[allow(clippy::too_many_arguments)] // a GEMM signature is its operand list
pub fn gemm_quant(
    ops: &dyn SimdOps,
    m: usize,
    k: usize,
    a_levels: &[u8],
    a_scales: &[f32],
    a_zps: &[i32],
    w: &QuantizedWeights,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    assert_eq!(out.len(), m * w.rows, "gemm_quant: out is not [m, rows]");
    // An empty grid list is the driver's to refuse; any stride will do.
    let rows_per_group = m.checked_div(a_scales.len()).unwrap_or(0);
    let strides = OutStrides::row_major(rows_per_group, w.rows);
    gemm_quant_strided(ops, m, k, a_levels, a_scales, a_zps, w, bias, out, strides);
}

/// The one integer GEMM driver: `out[i][j] = s_a(i) · s_w(j) · (acc − z·Σt)
/// (+ bias[j])` over `m` activation rows of `k` levels against the `n = rows`
/// quantized weight rows, each dequantized sum stored where `strides` says.
///
/// `a_scales`/`a_zps` hold one affine grid per *group* of consecutive
/// activation rows (`m` must be a multiple of their length): the conv
/// layer passes one grid per image covering all its `oh·ow` patch rows —
/// and [`OutStrides::planes`], so the tile writes NCHW directly (at 1×1, a
/// linear layer, that is one row per image written row-major). The
/// dequantization expression is the scalar backend's, which every backend
/// replays bit for bit (see [`SimdOps::int_tile`]), so every layer and
/// every backend agrees on it.
///
/// Tiling: the driver walks the activation rows in blocks of [`INT_MR`],
/// tracking each row's group and output offset as it goes, and makes one
/// [`SimdOps::int_tile`] call per (row block, weight panel). The tile reads
/// its rows in place from `a_levels` over the whole depth, keeps the
/// `INT_MR × INT_NR` sums in registers, then dequantizes and stores them.
/// Edge tiles (`m % INT_MR`, `rows % INT_NR`) are the same call over fewer
/// rows or columns.
///
/// # Panics
///
/// Panics unless `k == w.k()`, `a_levels.len() == m · k`, `a_scales` and
/// `a_zps` have one entry per group with `m` a multiple of the group count,
/// every zero point is a level (`0..=255`), `bias` (if any) has one entry
/// per weight row, and every index `strides` can produce is inside `out`.
// tia-lint: hot-path(begin)
#[allow(clippy::too_many_arguments)] // a GEMM signature is its operand list
pub fn gemm_quant_strided(
    ops: &dyn SimdOps,
    m: usize,
    k: usize,
    a_levels: &[u8],
    a_scales: &[f32],
    a_zps: &[i32],
    w: &QuantizedWeights,
    bias: Option<&[f32]>,
    out: &mut [f32],
    strides: OutStrides,
) {
    let n = w.rows;
    let groups = a_scales.len();
    assert_eq!(k, w.k, "gemm_quant: depth mismatch");
    assert_eq!(a_levels.len(), m * k, "gemm_quant: a_levels is not [m, k]");
    assert_eq!(groups, a_zps.len(), "gemm_quant: one zero point per scale");
    // The tile's exact `i32` correction `z·Σt` holds for a level only.
    assert!(
        a_zps.iter().all(|z| (0..=255).contains(z)),
        "gemm_quant: a zero point is not a level"
    );
    assert!(
        m == 0 || (groups > 0 && m.is_multiple_of(groups)),
        "gemm_quant: {m} rows do not group evenly under {groups} grids"
    );
    assert!(
        bias.is_none_or(|b| b.len() == n),
        "gemm_quant: one bias per weight row"
    );
    if m == 0 || n == 0 {
        return;
    }
    let rows_per_group = m / groups;
    let last = (groups - 1) * strides.group + (rows_per_group - 1) * strides.row;
    assert!(
        last + (n - 1) * strides.col < out.len(),
        "gemm_quant: out is too short for its strides"
    );
    let panel_len = int_panel_len(k);
    // The first tile row's group, its row in the group, and the group's
    // first output: advanced row by row, never divided out.
    let (mut g, mut r, mut group_base) = (0, 0, 0);
    for i0 in (0..m).step_by(INT_MR) {
        let mr = INT_MR.min(m - i0);
        let mut rows = [IntRow::default(); INT_MR];
        for row in &mut rows[..mr] {
            *row = IntRow {
                scale: a_scales[g],
                zero_point: a_zps[g],
                out: group_base + r * strides.row,
            };
            r += 1;
            if r == rows_per_group {
                (g, r, group_base) = (g + 1, 0, group_base + strides.group);
            }
        }
        let a = &a_levels[i0 * k..(i0 + mr) * k];
        for (panel, j0) in w.data.chunks_exact(panel_len).zip((0..n).step_by(INT_NR)) {
            let j1 = n.min(j0 + INT_NR);
            let cols = IntCols {
                scales: &w.scales[j0..j1],
                row_sums: &w.row_sums[j0..j1],
                bias: bias.map(|b| &b[j0..j1]),
                stride: strides.col,
            };
            let out = &mut out[j0 * strides.col..];
            ops.int_tile(k, a, panel, &rows[..mr], cols, out);
        }
    }
}
// tia-lint: hot-path(end)

/// The quantizers as written before the grids were shared — sequential
/// NaN-ignoring folds for calibration, then `round().clamp()` per element —
/// kept as the oracles both output forms are checked against bit for bit,
/// with the inputs that reach every branch of both grids.
#[cfg(test)]
pub(crate) mod oracle {
    use tia_tensor::SeededRng;

    /// The affine grid of `src` as `(scale, zero_point, levels)`, the levels
    /// in `f32` (NaN for a NaN), or `None` for a slice with no grid.
    pub(crate) fn affine(src: &[f32], bits: u8) -> Option<(f32, f32, Vec<f32>)> {
        let levels = ((1u64 << bits) - 1) as f32;
        let lo = src.iter().copied().fold(f32::INFINITY, f32::min).min(0.0);
        let hi = src
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
            .max(0.0);
        if hi == lo {
            return None;
        }
        let scale = (hi - lo) / levels;
        let zero_point = (-lo / scale).round();
        let qv = src
            .iter()
            .map(|&v| (v / scale + zero_point).round().clamp(0.0, levels))
            .collect();
        Some((scale, zero_point, qv))
    }

    /// The symmetric grid of `src` as `(step, levels)`, the levels in `f32`
    /// (NaN for a NaN), or `None` for a slice with no nonzero value.
    pub(crate) fn symmetric(src: &[f32], bits: u8) -> Option<(f32, Vec<f32>)> {
        let qmax = if bits <= 1 {
            1.0
        } else {
            ((1i64 << (bits - 1)) - 1) as f32
        };
        let amax = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if amax == 0.0 {
            return None;
        }
        let s = amax / qmax;
        let levels = src
            .iter()
            .map(|&v| (v / s).round().clamp(-qmax, qmax))
            .collect();
        Some((s, levels))
    }

    /// Non-NaN values must match bit for bit; a NaN must meet a NaN.
    pub(crate) fn assert_same(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if w.is_nan() {
                assert!(g.is_nan(), "{what} elem {i}: {g:e}, want NaN");
            } else {
                assert_eq!(g.to_bits(), w.to_bits(), "{what} elem {i}: {g:e} vs {w:e}");
            }
        }
    }

    /// Named slices that reach every branch of both grids at `bits`: normal
    /// draws (shorter and longer than the calibration's lanes), constant
    /// and all-zero slices, signed zeros, NaN and infinite entries, a
    /// negative fringe that rounds the zero point to 0, and values placed
    /// exactly on the `k + 0.5` ties of an affine grid at step 1 and 2⁻⁴.
    pub(crate) fn cases(bits: u8) -> Vec<(String, Vec<f32>)> {
        let mut rng = SeededRng::new(0x0A1D + bits as u64);
        let mut normal = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.normal()).collect() };
        let mut out = vec![
            ("normal 7".to_string(), normal(7)),
            ("normal 97".to_string(), normal(97)),
            ("constant".to_string(), vec![3.25; 20]),
            ("negative constant".to_string(), vec![-0.75; 20]),
            ("all zero".to_string(), vec![0.0; 19]),
            ("signed zeros".to_string(), vec![0.0, -0.0, -0.0, 0.0, -0.0]),
            ("zeros and NaN".to_string(), vec![-0.0, f32::NAN, 0.0]),
        ];
        let mut x = normal(40);
        x[3] = -0.0;
        x[17] = 0.0;
        out.push(("normal with signed zeros".to_string(), x.clone()));
        x[5] = f32::NAN;
        x[33] = f32::NAN;
        out.push(("normal with NaN".to_string(), x.clone()));
        for v in [f32::INFINITY, f32::NEG_INFINITY] {
            let mut y = x.clone();
            y[8] = v;
            out.push((format!("normal with {v}"), y));
        }
        let fringe = (0..50).map(|i| i as f32 * 0.02 - 0.0004).collect();
        out.push(("negative fringe".to_string(), fringe));
        let levels = ((1u32 << bits) - 1) as f32;
        for step in [1.0f32, 0.0625] {
            // lo = −3·step and hi = (levels − 3)·step give exactly this step
            // and zero point 3 (from 3 bits up); every k + 0.5 is a tie.
            let mut ties = vec![-3.0 * step, (levels - 3.0) * step];
            let count = (levels as usize).min(600);
            ties.extend((0..count).map(|k| (k as f32 - 2.5) * step));
            ties.extend((0..count).map(|k| (levels - k as f32 - 3.5) * step));
            out.push((format!("ties at step {step}"), ties));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{self, assert_same};
    use super::*;
    use crate::fake_quant_affine_slice;
    use tia_tensor::simd::{self, KernelMode};
    use tia_tensor::SeededRng;

    #[test]
    fn levels_reproduce_fake_quant_exactly() {
        // The byte form against the pre-change expression: the same grid,
        // each level the oracle's (a NaN at level 0), and no grid → level 0.
        for bits in 1..=8u8 {
            for (name, x) in oracle::cases(bits) {
                let mut lv = vec![0xAAu8; x.len()];
                let params = quantize_affine_levels(&x, &mut lv, Precision::new(bits));
                let what = format!("{bits} bits, {name}");
                let Some((scale, zero_point, qv)) = oracle::affine(&x, bits) else {
                    let unit = LevelParams {
                        scale: 1.0,
                        zero_point: 0,
                    };
                    assert_eq!(params, unit, "{what}");
                    assert!(lv.iter().all(|&l| l == 0), "{what}");
                    continue;
                };
                assert_same(&[params.scale], &[scale], &what);
                assert_eq!(params.zero_point, zero_point as i32, "{what}");
                let want: Vec<u8> = qv.iter().map(|&q| q as u8).collect();
                assert_eq!(lv, want, "{what}");
            }
        }
    }

    #[test]
    fn all_zero_slice_maps_to_level_zero() {
        let mut lv = vec![9u8; 5];
        let p = quantize_affine_levels(&[0.0; 5], &mut lv, Precision::new(4));
        assert_eq!(lv, vec![0; 5]);
        assert_eq!(p.zero_point, 0);
    }

    #[test]
    fn level_of_equals_round_then_clamp_on_a_dense_sweep() {
        // The reference is the expression the fast form replaced, at every
        // precision up to 16 bits (65535 levels). Sweep every half-integer
        // neighbourhood at the bottom and the top of each grid at 1-ulp
        // resolution, plus the values no image should hold but a peer can
        // send.
        let mut specials = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -0.0,
        ];
        let mut rng = SeededRng::new(31);
        specials.extend((0..20_000).map(|_| rng.normal() * 90.0 + 100.0));
        for bits in 1..=Precision::MAX_BITS {
            let levels = ((1u32 << bits) - 1) as f32;
            let top = 2 * levels as i32;
            let mut halves = Vec::new();
            for half in (-8..=520).chain((top - 520).max(521)..=top + 8) {
                let v = half as f32 * 0.5;
                halves.extend([
                    v.next_down().next_down(),
                    v.next_down(),
                    v,
                    v.next_up(),
                    v.next_up().next_up(),
                ]);
            }
            for (scale, zero_point) in [(1.0f32, 0.0f32), (1.0, 3.0), (0.37, 1.0), (2.5, 100.0)] {
                let g = AffineGrid {
                    scale,
                    zero_point,
                    levels,
                };
                for &v in specials.iter().chain(&halves) {
                    // Both the raw value and the one that lands `v` on `t`.
                    for x in [v, (v - zero_point) * scale] {
                        let want = (x / scale + zero_point).round().clamp(0.0, levels);
                        assert_eq!(
                            g.level_of(x),
                            want as i32,
                            "bits={bits} scale={scale} zp={zero_point} x={x:e}"
                        );
                    }
                }
            }
            // The f32 form on calibrated grids: the same neighbourhoods,
            // placed on a grid of step 1 and zero point 3 (from 3 bits up)
            // by its endpoints.
            let mut x = vec![-3.0, levels - 3.0, f32::NAN];
            x.extend(
                halves
                    .iter()
                    .map(|v| v - 3.0)
                    .filter(|v| (-3.0..=levels - 3.0).contains(v)),
            );
            let (scale, zero_point, qv) = oracle::affine(&x, bits).expect("a nonzero range");
            let want: Vec<f32> = qv.iter().map(|q| (q - zero_point) * scale).collect();
            let mut got = vec![0.0f32; x.len()];
            fake_quant_affine_slice(&x, &mut got, Precision::new(bits));
            assert_same(&got, &want, &format!("f32 form, {bits} bits"));
        }
    }

    #[test]
    fn min_max_matches_the_sequential_folds() {
        let mut rng = SeededRng::new(32);
        for len in [0usize, 1, 15, 16, 17, 97, 256] {
            for case in 0..4 {
                let mut x: Vec<f32> = (0..len).map(|_| rng.normal() - 0.3).collect();
                if case == 1 {
                    x.iter_mut().for_each(|v| *v = v.abs()); // lo clamps to 0
                }
                if case == 2 {
                    x.iter_mut().for_each(|v| *v = -v.abs()); // hi clamps to 0
                }
                if case == 3 && len > 2 {
                    x[len / 2] = f32::NAN;
                    x[len - 1] = f32::NAN;
                }
                let lo = x.iter().copied().fold(f32::INFINITY, f32::min).min(0.0);
                let hi = x.iter().copied().fold(f32::NEG_INFINITY, f32::max).max(0.0);
                assert_eq!(min_max_with_zero(&x), (lo, hi), "len {len} case {case}");
            }
        }
    }

    #[test]
    fn channel_last_writer_permutes_the_contiguous_levels() {
        let mut rng = SeededRng::new(33);
        // hw on both sides of TILE and not a multiple of it; c not a
        // multiple of anything.
        for (c, hw) in [(1usize, 50usize), (3, 7), (5, 64), (7, 65), (19, 200)] {
            let mut x: Vec<f32> = (0..c * hw).map(|_| rng.normal()).collect();
            x[c * hw / 2] = f32::NAN;
            for bits in 2u8..=8 {
                let p = Precision::new(bits);
                let mut flat = vec![0u8; c * hw];
                let want = quantize_affine_levels(&x, &mut flat, p);
                let mut hwc = vec![0xAAu8; c * hw];
                let got = quantize_affine_levels_hwc(&x, c, &mut hwc, p);
                assert_eq!(got, want);
                for ci in 0..c {
                    for s in 0..hw {
                        assert_eq!(
                            hwc[s * c + ci],
                            flat[ci * hw + s],
                            "c={c} hw={hw} ({ci},{s})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "could overflow the i32 dot accumulator")]
    fn quantize_rows_refuses_depths_the_i32_dot_cannot_hold() {
        let k = INT_MAX_DEPTH + 1;
        QuantizedWeights::quantize_rows(&vec![0.0; k], 1, k, 8);
    }

    #[test]
    fn deepest_allowed_sum_stays_inside_i32() {
        // Worst case at INT_MAX_DEPTH: every level 255 against every weight at
        // the i8 extreme the symmetric grid can produce (±127), in one tile
        // call.
        let k = INT_MAX_DEPTH;
        let q = QuantizedWeights::quantize_rows(&vec![-1.0; k], 1, k, 8);
        let a = vec![255u8; k];
        let want = q.scales()[0] * ((-255 * 127 * k as i64) as f32);
        for ops in simd::available() {
            let mut out = [0.0f32];
            gemm_quant(ops, 1, k, &a, &[1.0], &[0], &q, None, &mut out);
            assert_eq!(out[0].to_bits(), want.to_bits(), "{}", ops.name());
        }
    }

    /// A valid `m = 4, k = 3, n = 2` call with one operand swapped out.
    fn call_with(
        k: usize,
        levels: usize,
        scales: &[f32],
        zps: &[i32],
        bias: Option<&[f32]>,
        out: usize,
    ) {
        let q = QuantizedWeights::quantize_rows(&[0.5; 6], 2, 3, 8);
        gemm_quant_strided(
            simd::backend(KernelMode::Native),
            4,
            k,
            &vec![1u8; levels],
            scales,
            zps,
            &q,
            bias,
            &mut vec![0.0f32; out],
            OutStrides::planes(4 / scales.len().max(1), 2),
        );
    }

    #[test]
    fn call_with_matching_operands_passes() {
        call_with(3, 12, &[1.0, 1.0], &[0, 0], Some(&[0.0; 2]), 8);
    }

    #[test]
    #[should_panic(expected = "depth mismatch")]
    fn driver_refuses_a_depth_the_weights_do_not_have() {
        call_with(4, 16, &[1.0], &[0], None, 8);
    }

    #[test]
    #[should_panic(expected = "a_levels is not [m, k]")]
    fn driver_refuses_short_levels() {
        call_with(3, 11, &[1.0], &[0], None, 8);
    }

    #[test]
    #[should_panic(expected = "one zero point per scale")]
    fn driver_refuses_unpaired_grids() {
        call_with(3, 12, &[1.0, 1.0], &[0], None, 8);
    }

    #[test]
    #[should_panic(expected = "do not group evenly")]
    fn driver_refuses_rows_that_do_not_group_evenly() {
        call_with(3, 12, &[1.0; 3], &[0; 3], None, 8);
    }

    #[test]
    #[should_panic(expected = "do not group evenly")]
    fn rows_without_a_grid_are_a_shape_error_not_a_division_by_zero() {
        let q = QuantizedWeights::quantize_rows(&[0.5; 6], 2, 3, 8);
        let ops = simd::backend(KernelMode::Native);
        gemm_quant(ops, 4, 3, &[1u8; 12], &[], &[], &q, None, &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "a zero point is not a level")]
    fn driver_refuses_a_zero_point_that_is_not_a_level() {
        call_with(3, 12, &[1.0], &[256], None, 8);
    }

    #[test]
    #[should_panic(expected = "one bias per weight row")]
    fn driver_refuses_a_bias_of_the_wrong_length() {
        call_with(3, 12, &[1.0], &[0], Some(&[0.0; 3]), 8);
    }

    #[test]
    #[should_panic(expected = "too short for its strides")]
    fn driver_refuses_an_output_its_strides_overrun() {
        call_with(3, 12, &[1.0], &[0], None, 7);
    }

    #[test]
    #[should_panic(expected = "out is not [m, rows]")]
    fn row_major_wrapper_refuses_a_mis_sized_output() {
        let q = QuantizedWeights::quantize_rows(&[0.5; 6], 2, 3, 8);
        let ops = simd::backend(KernelMode::Native);
        gemm_quant(ops, 4, 3, &[1u8; 12], &[1.0], &[0], &q, None, &mut [0.0; 9]);
    }

    #[test]
    fn quantized_rows_roundtrip_within_half_step() {
        let mut rng = SeededRng::new(22);
        let (rows, k) = (6, 33);
        let w: Vec<f32> = (0..rows * k).map(|_| rng.normal()).collect();
        for bits in [2u8, 3, 4, 7, 8] {
            let q = QuantizedWeights::quantize_rows(&w, rows, k, bits);
            assert_eq!((q.rows(), q.k(), q.bits()), (rows, k, bits));
            // One byte per weight at every precision; 6 rows fill one
            // 16-row panel, 33 deep plus the quad's padding.
            assert_eq!(
                q.packed_len(),
                rows.div_ceil(INT_NR) * INT_NR * k.div_ceil(4) * 4
            );
            assert_eq!(q.packed_len(), 16 * 36);
            for r in 0..rows {
                let s = q.scales()[r];
                assert!(s > 0.0);
                for j in 0..k {
                    let err = (q.dequant_at(r, j) - w[r * k + j]).abs();
                    assert!(err <= s / 2.0 + 1e-6, "bits={} ({},{})", bits, r, j);
                }
            }
        }
    }

    #[test]
    fn quantize_rows_matches_the_oracle_row_by_row() {
        // Each row on its own symmetric grid, against the pre-change
        // expression: step, every level (a NaN at level 0) and the row sum.
        for bits in 2..=8u8 {
            let rows = oracle::cases(bits);
            let k = 40;
            let mut w = Vec::new();
            for (_, x) in &rows {
                w.extend(x.iter().cycle().take(k));
            }
            let q = QuantizedWeights::quantize_rows(&w, rows.len(), k, bits);
            for (r, (name, _)) in rows.iter().enumerate() {
                let what = format!("{bits} bits, row {r} ({name})");
                let (step, levels) =
                    oracle::symmetric(&w[r * k..(r + 1) * k], bits).unwrap_or((0.0, vec![0.0; k]));
                assert_same(&[q.scales[r]], &[step], &what);
                let panel = &q.data[r / INT_NR * int_panel_len(k)..];
                let got: Vec<i32> = (0..k)
                    .map(|j| panel[int_panel_index(j, r % INT_NR)] as i8 as i32)
                    .collect();
                let want: Vec<i32> = levels.iter().map(|&l| l as i32).collect();
                assert_eq!(got, want, "{what}");
                assert_eq!(q.row_sums[r], want.iter().sum::<i32>(), "{what}");
            }
        }
    }

    #[test]
    fn all_zero_row_has_zero_scale_and_contributes_nothing() {
        let mut w = vec![0.5f32; 2 * 8];
        w[8..].fill(0.0);
        let q = QuantizedWeights::quantize_rows(&w, 2, 8, 8);
        assert_eq!(q.scales()[1], 0.0);
        let a = vec![200u8; 8];
        let mut out = vec![9.0f32; 2];
        gemm_quant(
            simd::backend(KernelMode::Scalar),
            1,
            8,
            &a,
            &[0.01],
            &[3],
            &q,
            None,
            &mut out,
        );
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn gemm_quant_matches_dequantized_reference_on_every_backend() {
        // The integer driver against a plain f32 matmul over the
        // *dequantized* operands: exact up to f32 rounding of the reference.
        let mut rng = SeededRng::new(23);
        for bits in [3u8, 4, 6, 8] {
            let (m, k, n) = (5, 37, 4);
            let x: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let w: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect();
            let bias: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
            let q = QuantizedWeights::quantize_rows(&w, n, k, bits);
            let p = Precision::new(bits);
            let mut levels = vec![0u8; m * k];
            let mut scales = Vec::new();
            let mut zps = Vec::new();
            for i in 0..m {
                let lp = quantize_affine_levels(
                    &x[i * k..(i + 1) * k],
                    &mut levels[i * k..(i + 1) * k],
                    p,
                );
                scales.push(lp.scale);
                zps.push(lp.zero_point);
            }
            let mut want = vec![0.0f64; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f64;
                    for t in 0..k {
                        let a = (levels[i * k + t] as i32 - zps[i]) as f64 * scales[i] as f64;
                        acc += a * q.dequant_at(j, t) as f64;
                    }
                    want[i * n + j] = acc + bias[j] as f64;
                }
            }
            let scalar = simd::backend(KernelMode::Scalar);
            let mut out_scalar = vec![0.0f32; m * n];
            gemm_quant(
                scalar,
                m,
                k,
                &levels,
                &scales,
                &zps,
                &q,
                Some(&bias),
                &mut out_scalar,
            );
            for (got, want) in out_scalar.iter().zip(&want) {
                assert!(
                    (*got as f64 - want).abs() < 1e-3,
                    "bits={}: {} vs {}",
                    bits,
                    got,
                    want
                );
            }
            // Every backend the host can run must agree with scalar
            // *bitwise*.
            for ops in simd::available() {
                let mut out = vec![0.0f32; m * n];
                gemm_quant(ops, m, k, &levels, &scales, &zps, &q, Some(&bias), &mut out);
                assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    out_scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "bits={}: {} diverged from scalar",
                    bits,
                    ops.name()
                );
            }
        }
    }

    #[test]
    fn grouped_scales_cover_multiple_rows() {
        // One affine grid covering all rows of an "image" (the conv case)
        // must equal calling the driver per group.
        let mut rng = SeededRng::new(24);
        let (groups, rows_per, k, n) = (2, 3, 16, 2);
        let m = groups * rows_per;
        let w: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect();
        let q = QuantizedWeights::quantize_rows(&w, n, k, 8);
        let levels: Vec<u8> = (0..m * k).map(|_| rng.below(256) as u8).collect();
        let scales = [0.02f32, 0.05];
        let zps = [7i32, 130];
        let ops = simd::backend(KernelMode::Scalar);
        let mut all = vec![0.0f32; m * n];
        gemm_quant(ops, m, k, &levels, &scales, &zps, &q, None, &mut all);
        for g in 0..groups {
            let mut part = vec![0.0f32; rows_per * n];
            gemm_quant(
                ops,
                rows_per,
                k,
                &levels[g * rows_per * k..(g + 1) * rows_per * k],
                &scales[g..g + 1],
                &zps[g..g + 1],
                &q,
                None,
                &mut part,
            );
            assert_eq!(
                part.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                all[g * rows_per * n..(g + 1) * rows_per * n]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn plane_strides_write_the_transpose_of_row_major() {
        let mut rng = SeededRng::new(25);
        let (groups, rows_per, k, n) = (3, 5, 21, 6);
        let m = groups * rows_per;
        let w: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect();
        let bias: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let levels: Vec<u8> = (0..m * k).map(|_| rng.below(256) as u8).collect();
        let scales = [0.02f32, 0.05, 0.01];
        let zps = [7i32, 130, 0];
        let ops = simd::backend(KernelMode::Native);
        for bits in [4u8, 8] {
            let q = QuantizedWeights::quantize_rows(&w, n, k, bits);
            let mut rm = vec![0.0f32; m * n];
            gemm_quant(ops, m, k, &levels, &scales, &zps, &q, Some(&bias), &mut rm);
            let mut planes = vec![f32::NAN; m * n];
            gemm_quant_strided(
                ops,
                m,
                k,
                &levels,
                &scales,
                &zps,
                &q,
                Some(&bias),
                &mut planes,
                OutStrides::planes(rows_per, n),
            );
            for g in 0..groups {
                for r in 0..rows_per {
                    for j in 0..n {
                        assert_eq!(
                            planes[(g * n + j) * rows_per + r].to_bits(),
                            rm[(g * rows_per + r) * n + j].to_bits()
                        );
                    }
                }
            }
        }
    }
}
