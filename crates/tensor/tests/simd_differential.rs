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
    self, int_panel_index, int_panel_len, KernelMode, SimdOps, INT_KC, INT_MR, INT_NR, MR, NR,
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

/// One integer tile problem in the kernel's own operand layout.
struct TileCase {
    kc: usize,
    a: Box<[[u8; INT_KC]; INT_MR]>,
    w: Vec<u8>,
    acc: [[i32; INT_NR]; INT_MR],
}

impl TileCase {
    /// `level(i, p)` and `weight(p, j)` fill the valid depth; everything
    /// past it — the rest of each activation row, and the panel's 1–3
    /// padding weights when `kc` is not a multiple of 4 — is `a_pad` and
    /// zero.
    fn new(
        kc: usize,
        a_pad: u8,
        acc: i32,
        mut level: impl FnMut(usize, usize) -> u8,
        mut weight: impl FnMut(usize, usize) -> i8,
    ) -> Self {
        let mut a = Box::new([[a_pad; INT_KC]; INT_MR]);
        let mut w = vec![0u8; int_panel_len(kc)];
        for p in 0..kc {
            for (i, row) in a.iter_mut().enumerate() {
                row[p] = level(i, p);
            }
            for j in 0..INT_NR {
                w[int_panel_index(p, j)] = weight(p, j) as u8;
            }
        }
        Self {
            kc,
            a,
            w,
            acc: [[acc; INT_NR]; INT_MR],
        }
    }

    /// The plain triple loop in `i64`, reading operands by index.
    fn naive(&self) -> [[i64; INT_NR]; INT_MR] {
        let mut want = [[0i64; INT_NR]; INT_MR];
        for (i, row) in want.iter_mut().enumerate() {
            for (j, c) in row.iter_mut().enumerate() {
                *c = self.acc[i][j] as i64;
                for p in 0..self.kc {
                    *c += self.a[i][p] as i64 * (self.w[int_panel_index(p, j)] as i8) as i64;
                }
            }
        }
        want
    }

    /// Every backend's tile ≡ the scalar tile ≡ the naive loop.
    fn check(&self, what: &str) {
        let want = self.naive();
        for ops in backends() {
            let mut acc = self.acc;
            ops.micro_kernel_i32(self.kc, &self.a, &self.w, &mut acc);
            for i in 0..INT_MR {
                for j in 0..INT_NR {
                    assert_eq!(
                        acc[i][j] as i64,
                        want[i][j],
                        "{}: {what} kc={} acc[{i}][{j}]",
                        ops.name(),
                        self.kc
                    );
                }
            }
        }
    }
}

#[test]
fn integer_tile_is_exact_across_backends() {
    let mut rng = SeededRng::new(103);
    for kc in [
        0usize,
        1,
        2,
        3,
        6,
        15,
        16,
        17,
        143,
        144,
        146,
        INT_KC - 2,
        INT_KC - 1,
        INT_KC,
    ] {
        // u8 levels against full-range i8 weights, extremes 255 and -128
        // included, into accumulators a previous K block already filled.
        for acc in [0, -1_000_003] {
            let mut wrng = SeededRng::new(kc as u64);
            TileCase::new(
                kc,
                0,
                acc,
                |_, _| rng.below(256) as u8,
                |_, _| wrng.below(256) as u8 as i8,
            )
            .check("random");
        }
        // 4-bit operands in byte lanes: levels 0..=15, weights -7..=7.
        let mut wrng = SeededRng::new(!(kc as u64));
        TileCase::new(
            kc,
            0,
            0,
            |_, _| rng.below(16) as u8,
            |_, _| wrng.below(15) as i8 - 7,
        )
        .check("4-bit");
    }
}

#[test]
fn odd_depth_padding_is_inert_on_every_backend() {
    // A depth 1–3 short of a quad ends in a partial quad: the panel's
    // padding weights are zero by layout, so whatever the activation row
    // holds past `kc` (here the largest level) must not reach any sum.
    for kc in [1usize, 2, 6, 7, 17, 143, 146, INT_KC - 2, INT_KC - 1] {
        TileCase::new(
            kc,
            255,
            5,
            |i, p| (i * 31 + p * 7) as u8,
            |p, j| (p * 13 + j * 5) as u8 as i8,
        )
        .check("poisoned padding level");
    }
}

#[test]
fn deepest_allowed_accumulation_stays_inside_i32() {
    // The worst case the weight constructor admits: every level 255 against
    // every weight at ±127 over a depth of 2^16, accumulated K block by K
    // block into one tile. Sign per column, so both extremes are reached.
    const MAX_DEPTH: usize = 1 << 16;
    let case = TileCase::new(
        INT_KC,
        0,
        0,
        |_, _| 255,
        |_, j| if j % 2 == 0 { 127 } else { -127 },
    );
    for ops in backends() {
        let mut acc = case.acc;
        for k0 in (0..MAX_DEPTH).step_by(INT_KC) {
            ops.micro_kernel_i32(INT_KC.min(MAX_DEPTH - k0), &case.a, &case.w, &mut acc);
        }
        for row in &acc {
            for (j, &c) in row.iter().enumerate() {
                let sign = if j % 2 == 0 { 1 } else { -1 };
                assert_eq!(
                    c as i64,
                    sign * 255 * 127 * MAX_DEPTH as i64,
                    "{}",
                    ops.name()
                );
            }
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
