//! The pinned scalar reference backend.
//!
//! These are the workspace's original portable loops, moved verbatim behind
//! [`SimdOps`]: every dispatched backend is verified against this one (see
//! the determinism tiers in the module docs), and `TIA_KERNEL=scalar`
//! routes all serving through it unchanged.

use super::{check_int_tile, int_panel_index, IntCols, IntRow, SimdOps, INT_MR, INT_NR, MR, NR};

/// The always-available, bitwise-pinned reference implementation.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScalarOps;

impl SimdOps for ScalarOps {
    fn name(&self) -> &'static str {
        "scalar"
    }

    // tia-lint: hot-path(begin)
    fn micro_kernel_f32(&self, kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        for p in 0..kc {
            let arow = &ap[p * MR..p * MR + MR];
            let brow = &bp[p * NR..p * NR + NR];
            for i in 0..MR {
                let ai = arow[i];
                for j in 0..NR {
                    acc[i][j] += ai * brow[j];
                }
            }
        }
    }

    fn pack_row_f32(&self, src: &[f32], dst: &mut [f32]) {
        dst.copy_from_slice(src);
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
        // Depth outermost, so the panel is streamed once per tile.
        let mut acc = [[0i32; INT_NR]; INT_MR];
        for p in 0..k {
            for (i, crow) in acc.iter_mut().enumerate().take(rows.len()) {
                let level = a[i * k + p] as i32;
                for (j, c) in crow.iter_mut().enumerate() {
                    *c += level * (w[int_panel_index(p, j)] as i8) as i32;
                }
            }
        }
        dequantize(&acc, rows, &cols, out);
    }

    fn bn_row(&self, x: &[f32], y: &mut [f32], mean: f32, inv_std: f32, g: f32, b: f32) {
        for (o, &xv) in y.iter_mut().zip(x) {
            *o = g * ((xv - mean) * inv_std) + b;
        }
    }

    fn max_f32(&self, x: &[f32]) -> f32 {
        x.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    fn exp_sub_sum(&self, x: &[f32], m: f32, out: &mut [f32]) -> f32 {
        let mut denom = 0.0;
        for (o, &v) in out.iter_mut().zip(x) {
            let e = (v - m).exp();
            *o = e;
            denom += e;
        }
        denom
    }
    // tia-lint: hot-path(end)
}

/// The dequantization expression of the integer tile — defined here once;
/// the vector backends replay it lane by lane and fall back to this loop
/// for the tiles their stores do not cover. Columns outermost: under plane
/// strides a column's sums are neighbours in memory, so each output line is
/// visited once per tile instead of once per row.
// tia-lint: hot-path(begin)
pub(super) fn dequantize(
    acc: &[[i32; INT_NR]; INT_MR],
    rows: &[IntRow],
    cols: &IntCols<'_>,
    out: &mut [f32],
) {
    for (j, (&s_w, &t_sum)) in cols.scales.iter().zip(cols.row_sums).enumerate() {
        for (row, sums) in rows.iter().zip(acc) {
            // Wrapping only matters past the documented operand ranges,
            // where it keeps every backend on the same bits.
            let corrected = sums[j].wrapping_sub(row.zero_point.wrapping_mul(t_sum));
            let v = (row.scale * s_w) * (corrected as f32);
            out[row.out + j * cols.stride] = match cols.bias {
                Some(b) => v + b[j],
                None => v,
            };
        }
    }
}
// tia-lint: hot-path(end)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::int_panel_len;

    /// One full tile over `a` (row-major `[INT_MR][k]` levels) and `w`
    /// (`w[p][j]`, `k × INT_NR` signed weights), packed the way the driver
    /// and the weight constructor do, stored row-major. Unit scales, zero
    /// points 0 and no bias leave each output the integer sum itself, exact
    /// in `f32` for every sum below `2^24`.
    fn tile_sums(k: usize, a: &[u8], w: &[i8]) -> [[f32; INT_NR]; INT_MR] {
        let mut panel = vec![0u8; int_panel_len(k)];
        for p in 0..k {
            for j in 0..INT_NR {
                panel[int_panel_index(p, j)] = w[p * INT_NR + j] as u8;
            }
        }
        let rows: Vec<IntRow> = (0..INT_MR)
            .map(|i| IntRow {
                scale: 1.0,
                zero_point: 0,
                out: i * INT_NR,
            })
            .collect();
        let cols = IntCols {
            scales: &[1.0; INT_NR],
            row_sums: &[0; INT_NR],
            bias: None,
            stride: 1,
        };
        let mut out = [[f32::NAN; INT_NR]; INT_MR];
        ScalarOps.int_tile(k, a, &panel, &rows, cols, out.as_flattened_mut());
        out
    }

    #[test]
    fn tile_matches_manual() {
        // Depth 5 (the last quad is three quarters padding), the u8 and i8
        // extremes, distinct rows and columns.
        let k = 5;
        let a: Vec<u8> = (0..INT_MR * k)
            .map(|v| [1u8, 2, 255, 0, 7][v % k].wrapping_sub((v / k) as u8))
            .collect();
        let w: Vec<i8> = (0..k * INT_NR)
            .map(|v| [1i8, -1, -128, 5, 3][v / INT_NR].wrapping_add((v % INT_NR) as i8))
            .collect();
        let got = tile_sums(k, &a, &w);
        for i in 0..INT_MR {
            for j in 0..INT_NR {
                let want: i32 = (0..k)
                    .map(|p| a[i * k + p] as i32 * w[p * INT_NR + j] as i32)
                    .sum();
                assert_eq!(got[i][j], want as f32, "({i},{j})");
            }
        }
        assert_eq!(got[0][0], (1 - 2 + 255 * (-128) + 21) as f32);
    }

    #[test]
    fn epilogue_is_the_dequantization_expression() {
        // Two rows of depth 2 (levels 3 and 4, weights -2 in every column)
        // in different grids, three columns strided 5 apart, with a bias:
        // each stored value is `(s_a·s_w)·((acc − z·Σt) as f32) + b`, and
        // nothing else in `out` is written. Depth 0 leaves `acc = 0`.
        let panel = vec![(-2i8) as u8; int_panel_len(2)];
        let rows = [
            IntRow {
                scale: 0.5,
                zero_point: 5,
                out: 0,
            },
            IntRow {
                scale: 0.3,
                zero_point: 255,
                out: 1,
            },
        ];
        let (s_w, t_sum, bias) = ([0.25f32, 0.7, 1.5], [-4, 9, 0], [0.125f32, -1.0, 3.0]);
        let cols = IntCols {
            scales: &s_w,
            row_sums: &t_sum,
            bias: Some(&bias),
            stride: 5,
        };
        for (k, acc) in [(2usize, [-12i32, -16]), (0, [0, 0])] {
            let mut out = [f32::NAN; 12];
            ScalarOps.int_tile(k, &[3, 3, 4, 4], &panel, &rows, cols, &mut out);
            for (i, row) in rows.iter().enumerate() {
                for j in 0..3 {
                    let v = (row.scale * s_w[j]) * ((acc[i] - row.zero_point * t_sum[j]) as f32);
                    assert_eq!(
                        out[i + 5 * j].to_bits(),
                        (v + bias[j]).to_bits(),
                        "k={k} ({i},{j})"
                    );
                }
            }
            let written = [0, 1, 5, 6, 10, 11];
            for (x, v) in out.iter().enumerate().filter(|(x, _)| !written.contains(x)) {
                assert!(v.is_nan(), "k={k}: out[{x}] written");
            }
        }
    }

    #[test]
    fn bn_row_matches_expression() {
        let x = [1.0f32, -2.0, 0.5];
        let mut y = [0.0f32; 3];
        ScalarOps.bn_row(&x, &mut y, 0.25, 2.0, 1.5, -0.5);
        for (o, xv) in y.iter().zip(x) {
            assert_eq!(*o, 1.5 * ((xv - 0.25) * 2.0) + -0.5);
        }
    }

    #[test]
    fn exp_sub_sum_is_softmax_numerator() {
        let x = [0.0f32, 1.0, -1.0];
        let mut out = [0.0f32; 3];
        let denom = ScalarOps.exp_sub_sum(&x, 1.0, &mut out);
        assert_eq!(out[1], 1.0);
        assert!((denom - (out[0] + out[1] + out[2])).abs() < 1e-6);
        assert_eq!(ScalarOps.max_f32(&x), 1.0);
        assert_eq!(ScalarOps.max_f32(&[]), f32::NEG_INFINITY);
    }
}
