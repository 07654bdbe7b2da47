//! Differential suite: every dispatched SIMD backend vs the pinned scalar
//! reference, kernel by kernel, across odd shapes straddling each vector
//! width and blocking boundary.
//!
//! Contract (see `tia_tensor::simd`): integer kernels and the f32
//! micro-kernel/pack/BN kernels must be **bitwise** equal to scalar on every
//! backend; only the transcendental tail (`exp_sub_sum`) is tolerance-tier,
//! bounded in ULPs.

use std::io::Write;
use std::sync::Once;
use tia_tensor::simd::{
    self, int_panel_index, int_panel_len, IntCols, IntRow, KernelMode, SimdOps, INT_MAX_DEPTH,
    INT_MR, INT_NR, MR, NR,
};
use tia_tensor::{gemm_ws, softmax_rows, SeededRng, Tensor, Workspace};

/// The backends under test: every one this host can run, the pinned
/// reference first (on a host with VNNI that includes the plain-AVX2 tile,
/// which `native` never dispatches to). Their names go to stderr once,
/// past the test harness's capture, so a CI log shows which bodies ran.
fn backends() -> Vec<&'static dyn SimdOps> {
    let all = simd::available();
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let names: Vec<_> = all.iter().map(|ops| ops.name()).collect();
        // A failed diagnostic write must not fail the suite.
        writeln!(std::io::stderr(), "simd_differential backends: {names:?}").ok();
    });
    all
}

fn ulp_distance(a: f32, b: f32) -> u32 {
    // Monotone map of finite floats onto a signed integer line.
    fn key(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        (if bits < 0 { i32::MIN - bits } else { bits }) as i64
    }
    (key(a) - key(b)).unsigned_abs() as u32
}

/// Lengths that straddle the 8/16/32-lane widths and leave ragged tails.
const LENS: &[usize] = &[
    1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 257,
];

#[test]
fn micro_kernel_is_bitwise_equal_across_backends() {
    let mut rng = SeededRng::new(101);
    for &kc in &[1usize, 2, 3, 7, 16, 37, 255, 256] {
        let ap: Vec<f32> = (0..kc * MR).map(|_| rng.normal()).collect();
        let bp: Vec<f32> = (0..kc * NR).map(|_| rng.normal()).collect();
        // Accumulators start non-zero: the kernel must add into them.
        let mut want = [[0.5f32; NR]; MR];
        simd::SCALAR.micro_kernel_f32(kc, &ap, &bp, &mut want);
        for ops in backends() {
            let mut acc = [[0.5f32; NR]; MR];
            ops.micro_kernel_f32(kc, &ap, &bp, &mut acc);
            for i in 0..MR {
                for j in 0..NR {
                    assert_eq!(
                        acc[i][j].to_bits(),
                        want[i][j].to_bits(),
                        "{}: micro_kernel kc={} acc[{}][{}]",
                        ops.name(),
                        kc,
                        i,
                        j
                    );
                }
            }
        }
    }
}

#[test]
fn pack_row_is_bitwise_equal_across_backends() {
    let mut rng = SeededRng::new(102);
    for &n in LENS {
        let src: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mut want = vec![0.0f32; n];
        simd::SCALAR.pack_row_f32(&src, &mut want);
        for ops in backends() {
            let mut dst = vec![-1.0f32; n];
            ops.pack_row_f32(&src, &mut dst);
            assert_eq!(
                dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{}: pack_row n={}",
                ops.name(),
                n
            );
        }
    }
}

/// Where a tile's outputs go: the offset of each row's column-0 output,
/// the column stride, and which of two grids each row is quantized on.
struct Layout {
    name: &'static str,
    outs: [usize; INT_MR],
    stride: usize,
    groups: [usize; INT_MR],
}

/// Every output arrangement the driver produces, and three it does not:
/// rows a row of outputs apart under a unit column stride (row-major, one
/// grid per row as a linear layer has), with and without padding; rows that
/// are neighbours in one plane (conv, one grid per image), with and without
/// padding between planes; a tile whose rows straddle two images' planes;
/// strides that are neither; and neighbouring rows at the tightest column
/// stride the transposed store may take (4) and one below it (2), whose
/// outputs coincide and must come out in the scalar write order.
const LAYOUTS: [Layout; 8] = [
    Layout {
        name: "row-major",
        outs: [0, 16, 32, 48],
        stride: 1,
        groups: [0, 1, 0, 1],
    },
    Layout {
        name: "row-major padded",
        outs: [5, 24, 43, 62],
        stride: 1,
        groups: [0, 0, 1, 1],
    },
    Layout {
        name: "planes",
        outs: [2, 3, 4, 5],
        stride: 7,
        groups: [0; INT_MR],
    },
    Layout {
        name: "planes padded",
        outs: [1, 2, 3, 4],
        stride: 9,
        groups: [0; INT_MR],
    },
    Layout {
        name: "planes straddling two groups",
        outs: [4, 5, 99, 100],
        stride: 6,
        groups: [0, 0, 1, 1],
    },
    Layout {
        name: "strided",
        outs: [0, 33, 66, 99],
        stride: 2,
        groups: [0, 1, 1, 0],
    },
    Layout {
        name: "planes at stride 4",
        outs: [3, 4, 5, 6],
        stride: 4,
        groups: [0; INT_MR],
    },
    Layout {
        name: "neighbours at stride 2",
        outs: [0, 1, 2, 3],
        stride: 2,
        groups: [0; INT_MR],
    },
];

/// One integer tile problem in the tile's own operand layout. The level
/// matrix is exactly `mr · k` bytes, so a read past the last row's end is
/// outside its allocation.
struct TileCase {
    k: usize,
    a: Vec<u8>,
    w: Vec<u8>,
    rows: Vec<IntRow>,
    scales: Vec<f32>,
    row_sums: Vec<i32>,
    bias: Option<Vec<f32>>,
    stride: usize,
}

impl TileCase {
    /// `level(i, p)` and `weight(p, j)` fill the valid depth; the panel's
    /// 1–3 padding weights of a partial last quad are zero.
    #[allow(clippy::too_many_arguments)] // a tile's operand list
    fn new(
        k: usize,
        nc: usize,
        layout: &Layout,
        mr: usize,
        grids: [(f32, i32); 2],
        with_bias: bool,
        mut level: impl FnMut(usize, usize) -> u8,
        mut weight: impl FnMut(usize, usize) -> i8,
    ) -> Self {
        let a = (0..mr * k).map(|x| level(x / k, x % k)).collect();
        let mut w = vec![0u8; int_panel_len(k)];
        let mut row_sums = vec![0i32; nc];
        for p in 0..k {
            for j in 0..INT_NR {
                let t = weight(p, j);
                w[int_panel_index(p, j)] = t as u8;
                if j < nc {
                    row_sums[j] += t as i32;
                }
            }
        }
        let rows = (0..mr)
            .map(|i| {
                let (scale, zero_point) = grids[layout.groups[i]];
                IntRow {
                    scale,
                    zero_point,
                    out: layout.outs[i],
                }
            })
            .collect();
        let scales = (0..nc).map(|j| 0.001 + 0.013 * j as f32).collect();
        let bias = with_bias.then(|| (0..nc).map(|j| j as f32 - 7.25).collect());
        Self {
            k,
            a,
            w,
            rows,
            scales,
            row_sums,
            bias,
            stride: layout.stride,
        }
    }

    fn cols(&self) -> IntCols<'_> {
        IntCols {
            scales: &self.scales,
            row_sums: &self.row_sums,
            bias: self.bias.as_deref(),
            stride: self.stride,
        }
    }

    /// Past the largest index any layout writes; the rest stays poison.
    const OUT_LEN: usize = 200;

    /// The plain loop in `i64`, reading operands by index, through the
    /// dequantization expression; poison everywhere else. Columns
    /// outermost, the scalar backend's write order, which decides outputs
    /// that coincide.
    fn naive(&self) -> Vec<u32> {
        let mut want = vec![POISON; Self::OUT_LEN];
        for (j, &s_w) in self.scales.iter().enumerate() {
            for (i, row) in self.rows.iter().enumerate() {
                let acc: i64 = (0..self.k)
                    .map(|p| {
                        let t = self.w[int_panel_index(p, j)] as i8;
                        self.a[i * self.k + p] as i64 * t as i64
                    })
                    .sum();
                let corrected = acc - row.zero_point as i64 * self.row_sums[j] as i64;
                let v = (row.scale * s_w) * (corrected as f32);
                let v = self.bias.as_ref().map_or(v, |b| v + b[j]);
                want[row.out + j * self.stride] = v.to_bits();
            }
        }
        want
    }

    /// Every backend's tile ≡ the naive loop, bit for bit, on every output
    /// and on every element no output reaches.
    fn check(&self, what: &str) {
        let want = self.naive();
        for ops in backends() {
            let mut out = vec![f32::from_bits(POISON); Self::OUT_LEN];
            ops.int_tile(self.k, &self.a, &self.w, &self.rows, self.cols(), &mut out);
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got,
                want,
                "{}: {what} k={} mr={} nc={}",
                ops.name(),
                self.k,
                self.rows.len(),
                self.scales.len()
            );
        }
    }
}

/// A value no dequantized sum produces.
const POISON: u32 = 0x7FC0_DEAD;

#[test]
fn integer_tile_is_exact_across_backends() {
    // Every tile shape, every output layout and depths on both sides of a
    // K quad, of the deepest served layer and of the old 1280-deep K block;
    // an empty reduction stores the bias alone.
    let mut rng = SeededRng::new(103);
    for k in [0usize, 1, 2, 3, 5, 146, 1152, 1279, 1280, 1281] {
        for mr in 1..=INT_MR {
            for nc in [1usize, 7, 8, 9, 15, 16] {
                for (l, layout) in LAYOUTS.iter().enumerate() {
                    // Full-range u8 levels against full-range i8 weights,
                    // on two random grids.
                    let grids = [0, 1].map(|_| (rng.uniform_in(0.001, 0.1), rng.below(256) as i32));
                    let seed = rng.next_u64();
                    let mut wrng = SeededRng::new(seed);
                    TileCase::new(
                        k,
                        nc,
                        layout,
                        mr,
                        grids,
                        (l + nc) % 2 == 0,
                        |_, _| rng.below(256) as u8,
                        |_, _| wrng.below(256) as u8 as i8,
                    )
                    .check(layout.name);
                }
            }
        }
    }
}

#[test]
fn deepest_allowed_accumulation_stays_inside_i32() {
    // The worst case the weight constructor admits: every level 255 against
    // every weight at ±127 over a depth of 2^16, in one tile call. Sign per
    // column, so both extremes are reached; with z = 255 the correction
    // `z·Σt` is as large and cancels the sums. Unit scales store the
    // corrected sum itself. Through the transposed store (planes) and the
    // scalar fall-back (row-major, strided).
    for z in [0, 255] {
        for layout in [&LAYOUTS[0], &LAYOUTS[2], &LAYOUTS[5]] {
            let mut case = TileCase::new(
                INT_MAX_DEPTH,
                INT_NR,
                layout,
                INT_MR,
                [(1.0, z); 2],
                false,
                |_, _| 255,
                |_, j| if j % 2 == 0 { 127 } else { -127 },
            );
            case.scales.fill(1.0);
            let want = case.naive();
            for row in &case.rows {
                for j in 0..INT_NR {
                    let sign = if j % 2 == 0 { 1 } else { -1 };
                    let sum = if z == 0 {
                        sign * 255 * 127 * INT_MAX_DEPTH as i64
                    } else {
                        0
                    };
                    let got = f32::from_bits(want[row.out + j * case.stride]);
                    assert_eq!(got as i64, sum, "reference z={z} {}", layout.name);
                }
            }
            case.check("deepest allowed accumulation");
        }
    }
}

#[test]
fn bn_row_is_bitwise_equal_across_backends() {
    let mut rng = SeededRng::new(104);
    for &n in LENS {
        let x: Vec<f32> = (0..n).map(|_| rng.normal() * 3.0).collect();
        let (mean, inv_std, g, b) = (
            rng.normal(),
            rng.normal().abs() + 0.1,
            rng.normal(),
            rng.normal(),
        );
        let mut want = vec![0.0f32; n];
        simd::SCALAR.bn_row(&x, &mut want, mean, inv_std, g, b);
        for ops in backends() {
            let mut y = vec![0.0f32; n];
            ops.bn_row(&x, &mut y, mean, inv_std, g, b);
            assert_eq!(
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{}: bn_row n={}",
                ops.name(),
                n
            );
        }
    }
}

#[test]
fn max_is_exact_and_exp_is_ulp_bounded() {
    let mut rng = SeededRng::new(105);
    for &n in LENS {
        // Post-max softmax inputs: x - m lands in [-80, 0].
        let x: Vec<f32> = (0..n).map(|_| -(rng.below(8000) as f32) / 100.0).collect();
        let m = 0.0f32;
        let mut want = vec![0.0f32; n];
        let want_denom = simd::SCALAR.exp_sub_sum(&x, m, &mut want);
        for ops in backends() {
            assert_eq!(
                ops.max_f32(&x).to_bits(),
                simd::SCALAR.max_f32(&x).to_bits(),
                "{}: max n={}",
                ops.name(),
                n
            );
            let mut out = vec![0.0f32; n];
            let denom = ops.exp_sub_sum(&x, m, &mut out);
            for (i, (got, want)) in out.iter().zip(&want).enumerate() {
                assert!(
                    ulp_distance(*got, *want) <= 8,
                    "{}: exp n={} elem {}: {} vs {} ({} ulp)",
                    ops.name(),
                    n,
                    i,
                    got,
                    want,
                    ulp_distance(*got, *want)
                );
            }
            let rel = (denom - want_denom).abs() / want_denom.max(f32::MIN_POSITIVE);
            assert!(
                rel <= 1e-5 * (n as f32).sqrt().max(1.0),
                "{}: denom n={}: {} vs {}",
                ops.name(),
                n,
                denom,
                want_denom
            );
        }
    }
}

#[test]
fn full_gemm_is_bitwise_equal_native_vs_scalar() {
    // The end-to-end check the engine's determinism rests on: an entire
    // blocked GEMM through the native workspace reproduces the scalar
    // workspace bit for bit, across fringe-heavy shapes.
    let mut rng = SeededRng::new(106);
    let mut ws_scalar = Workspace::new();
    ws_scalar.set_kernel(KernelMode::Scalar);
    let mut ws_native = Workspace::new();
    ws_native.set_kernel(KernelMode::Native);
    for (m, k, n) in [
        (1usize, 1usize, 1usize),
        (MR + 1, 3, NR + 1),
        (5, 257, 13),
        (17, 300, 33),
        (130, 259, 258),
    ] {
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let mut want = vec![0.0f32; m * n];
        gemm_ws(m, k, n, &a, &b, &mut want, &mut ws_scalar);
        let mut got = vec![0.0f32; m * n];
        gemm_ws(m, k, n, &a, &b, &mut got, &mut ws_native);
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "native gemm diverged from scalar at {}x{}x{}",
            m,
            k,
            n
        );
    }
}

#[test]
fn softmax_rows_native_within_tolerance_of_reference() {
    // softmax_rows dispatches via the process default; rather than fight
    // env ordering, compare directly against a hand-rolled scalar softmax.
    let mut rng = SeededRng::new(107);
    let (n, c) = (5, 37);
    let x = Tensor::rand_uniform(&[n, c], -10.0, 10.0, &mut rng);
    let s = softmax_rows(&x);
    for i in 0..n {
        let row = &x.data()[i * c..(i + 1) * c];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - m).exp()).collect();
        let denom: f32 = exps.iter().sum();
        for (j, e) in exps.iter().enumerate() {
            let want = e / denom;
            assert!(
                (s.at2(i, j) - want).abs() <= 1e-5,
                "row {} col {}: {} vs {}",
                i,
                j,
                s.at2(i, j),
                want
            );
        }
    }
}
