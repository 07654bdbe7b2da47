//! The pinned scalar reference backend.
//!
//! These are the workspace's original portable loops, moved verbatim behind
//! [`SimdOps`]: every dispatched backend is verified against this one (see
//! the determinism tiers in the module docs), and `TIA_KERNEL=scalar`
//! routes all serving through it unchanged.

use super::{int_panel_index, int_panel_len, SimdOps, INT_KC, INT_MR, INT_NR, MR, NR};

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

    fn micro_kernel_i32(
        &self,
        kc: usize,
        a: &[[u8; INT_KC]; INT_MR],
        w: &[u8],
        acc: &mut [[i32; INT_NR]; INT_MR],
    ) {
        assert!(kc <= INT_KC && w.len() >= int_panel_len(kc));
        for p in 0..kc {
            for (arow, crow) in a.iter().zip(acc.iter_mut()) {
                let ai = arow[p] as i32;
                for (j, c) in crow.iter_mut().enumerate() {
                    *c += ai * (w[int_panel_index(p, j)] as i8) as i32;
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// One tile call over `a` (row-major `[INT_MR][kc]` levels) and `w`
    /// (`w[p][j]`, `kc × INT_NR` signed weights), packed the way the driver
    /// and the weight constructor do.
    fn tile(kc: usize, a: &[u8], w: &[i8], acc: &mut [[i32; INT_NR]; INT_MR]) {
        let mut rows = [[0u8; INT_KC]; INT_MR];
        let mut panel = vec![0u8; int_panel_len(kc)];
        for p in 0..kc {
            for (i, row) in rows.iter_mut().enumerate() {
                row[p] = a[i * kc + p];
            }
            for j in 0..INT_NR {
                panel[int_panel_index(p, j)] = w[p * INT_NR + j] as u8;
            }
        }
        ScalarOps.micro_kernel_i32(kc, &rows, &panel, acc);
    }

    #[test]
    fn tile_matches_manual() {
        // Depth 5 (the last quad is three quarters padding), the u8 and i8
        // extremes, distinct rows and columns.
        let kc = 5;
        let a: Vec<u8> = (0..INT_MR * kc)
            .map(|v| [1u8, 2, 255, 0, 7][v % kc].wrapping_sub((v / kc) as u8))
            .collect();
        let w: Vec<i8> = (0..kc * INT_NR)
            .map(|v| [1i8, -1, -128, 5, 3][v / INT_NR].wrapping_add((v % INT_NR) as i8))
            .collect();
        let mut acc = [[0i32; INT_NR]; INT_MR];
        tile(kc, &a, &w, &mut acc);
        for i in 0..INT_MR {
            for j in 0..INT_NR {
                let want: i32 = (0..kc)
                    .map(|p| a[i * kc + p] as i32 * w[p * INT_NR + j] as i32)
                    .sum();
                assert_eq!(acc[i][j], want, "({i},{j})");
            }
        }
        assert_eq!(acc[0][0], 1 - 2 + 255 * (-128) + 21);
    }

    #[test]
    fn tile_adds_into_its_accumulators_and_depth_zero_is_inert() {
        let mut acc = [[7i32; INT_NR]; INT_MR];
        tile(0, &[], &[], &mut acc);
        assert_eq!(acc, [[7; INT_NR]; INT_MR]);
        tile(2, &[3; INT_MR * 2], &[-2; 2 * INT_NR], &mut acc);
        assert_eq!(acc, [[7 - 12; INT_NR]; INT_MR]);
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
