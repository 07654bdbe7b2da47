//! Blocked/tiled SGEMM kernels.
//!
//! These are the compute workhorses of the convolution layer (via im2col;
//! a linear layer is a 1×1 convolution). All three entry points
//! (`C += A·B`, `C += Aᵀ·B`, `C += A·Bᵀ`) lower to one register-blocked
//! micro-kernel over cache-sized packed panels, in the classic Goto/BLIS
//! structure:
//!
//! * the innermost micro-kernel computes an `MR x NR` block of `C` held in
//!   registers, streaming through a packed depth-`kc` panel;
//! * `A` panels are packed into `MR`-row strips and `B` panels into
//!   `NR`-column strips, so the micro-kernel reads both operands
//!   contiguously regardless of the caller's layout (normal or transposed);
//! * outer loops tile `n` by `NC`, `k` by `KC` and `m` by `MC` so each
//!   packed panel stays cache-resident while it is reused.
//!
//! Determinism contract: for a fixed depth `k`, every output element
//! accumulates its `k` products in increasing-`k` order, with panel partial
//! sums added to `C` in increasing panel order. The order never depends on
//! `m` or `n`, so results are *batch-size invariant* — the property the
//! serving engine's bitwise batched-vs-per-sample identity rests on.
//!
//! Two hot-path amortisations sit on top of the kernel, both bit-exact:
//!
//! * [`PackedMatrix`] captures the packed panels of the left operand as a
//!   reusable artifact, so a weight matrix that multiplies every batch
//!   (the conv forward) is packed **once** and the per-call work reduces
//!   to packing the activation operand. The stored panels are byte-for-byte
//!   what `pack_a` would produce, so the micro-kernel consumes
//!   identical operands in the identical order — results are bitwise equal
//!   to the pack-every-call path.
//! * every entry point has a `_ws` variant taking a
//!   [`Workspace`](crate::Workspace) that backs the per-call pack scratch,
//!   eliminating the two `vec![0.0; …]` allocations per GEMM in steady
//!   state. The non-`_ws` wrappers behave exactly as before.

use crate::buf::AlignedBuf;
use crate::simd::{self, SimdOps, MR, NR};
use crate::workspace::Workspace;

/// Depth (`k`) cache block: one packed `A` strip of `MR x KC` and one packed
/// `B` strip of `KC x NR` together stay L1-resident.
const KC: usize = 256;
/// Row (`m`) cache block: the packed `MC x KC` block of `A` targets L2.
const MC: usize = 128;
/// Column (`n`) cache block: the packed `KC x NC` block of `B` targets L2/L3.
const NC: usize = 256;

/// How a logical `rows x cols` operand is stored.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `data[r * ld + c]`.
    RowMajor,
    /// Stored transposed: `data[c * ld + r]`.
    Transposed,
}

/// A logical matrix view over a caller slice (no copy).
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    ld: usize,
    layout: Layout,
}

impl View<'_> {
    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        match self.layout {
            Layout::RowMajor => self.data[r * self.ld + c],
            Layout::Transposed => self.data[c * self.ld + r],
        }
    }
}

// tia-lint: hot-path(begin)
/// Packs the `mc x kc` block of `a` at `(ic, pc)` into `MR`-row strips:
/// strip `r` holds rows `ic + r*MR ..`, stored depth-major so the
/// micro-kernel reads `MR` consecutive values per `k` step. Rows past `mc`
/// are zero-padded (they multiply into lanes that are never stored).
///
/// Packing is a pure reshuffle — the panel bytes are identical for every
/// backend; `ops` only accelerates the contiguous fast path (a transposed
/// view walks `MR` consecutive source elements per `k` step).
fn pack_a(ops: &dyn SimdOps, a: View, ic: usize, pc: usize, mc: usize, kc: usize, out: &mut [f32]) {
    let mut idx = 0;
    for ir in (0..mc).step_by(MR) {
        let mr = MR.min(mc - ir);
        if mr == MR && a.layout == Layout::Transposed {
            for p in 0..kc {
                let src = (pc + p) * a.ld + ic + ir;
                ops.pack_row_f32(&a.data[src..src + MR], &mut out[idx..idx + MR]);
                idx += MR;
            }
            continue;
        }
        for p in 0..kc {
            for i in 0..MR {
                out[idx] = if i < mr {
                    a.at(ic + ir + i, pc + p)
                } else {
                    0.0
                };
                idx += 1;
            }
        }
    }
}

/// Packs the `kc x nc` block of `b` at `(pc, jc)` into `NR`-column strips,
/// depth-major, zero-padding columns past `nc`. Same bytes on every backend;
/// the row-major full-strip case copies `NR` contiguous elements per step.
fn pack_b(ops: &dyn SimdOps, b: View, pc: usize, jc: usize, kc: usize, nc: usize, out: &mut [f32]) {
    let mut idx = 0;
    for jr in (0..nc).step_by(NR) {
        let nr = NR.min(nc - jr);
        if nr == NR && b.layout == Layout::RowMajor {
            for p in 0..kc {
                let src = (pc + p) * b.ld + jc + jr;
                ops.pack_row_f32(&b.data[src..src + NR], &mut out[idx..idx + NR]);
                idx += NR;
            }
            continue;
        }
        for p in 0..kc {
            for j in 0..NR {
                out[idx] = if j < nr {
                    b.at(pc + p, jc + jr + j)
                } else {
                    0.0
                };
                idx += 1;
            }
        }
    }
}
// tia-lint: hot-path(end)

/// The left operand of the GEMM, prepacked into the exact cache-block
/// panels the micro-kernel consumes.
///
/// Packing a matrix costs one pass over its elements; in serving, the
/// weight operand of every conv product is identical batch after batch, so
/// `Conv2d` memoizes a `PackedMatrix` per precision and a random precision
/// switch costs a lookup instead of a re-pack. The stored panels are
/// byte-identical to what the per-call packer produces, making prepacked
/// products bitwise equal to plain [`gemm`].
///
/// # Example
///
/// ```
/// use tia_tensor::{gemm, PackedMatrix, Workspace};
/// let (m, k, n) = (3, 5, 4);
/// let a: Vec<f32> = (0..m * k).map(|v| v as f32).collect();
/// let b: Vec<f32> = (0..k * n).map(|v| v as f32).collect();
/// let mut want = vec![0.0; m * n];
/// gemm(m, k, n, &a, &b, &mut want);
/// let packed = PackedMatrix::pack_lhs(m, k, &a);
/// let mut ws = Workspace::new();
/// let mut got = vec![0.0; m * n];
/// packed.gemm_lhs(n, &b, &mut got, &mut ws);
/// assert_eq!(got, want);
/// ```
#[derive(Debug, Clone)]
pub struct PackedMatrix {
    /// Logical row count `m`.
    rows: usize,
    /// Logical column count (the depth `k`).
    cols: usize,
    /// All panels, concatenated in `(depth block, m-block)` order,
    /// 64-byte aligned for split-free SIMD panel loads.
    data: AlignedBuf,
    /// Panel start offsets plus a trailing total, indexed
    /// `depth_block * m_blocks + m_block`.
    offsets: Vec<usize>,
    /// `m`-block count.
    m_blocks: usize,
}

impl PackedMatrix {
    /// Packs the left operand `A` (`m x k`, row-major).
    pub fn pack_lhs(m: usize, k: usize, a: &[f32]) -> Self {
        debug_assert_eq!(a.len(), m * k);
        let view = View {
            data: a,
            ld: k,
            layout: Layout::RowMajor,
        };
        // Blocking mirrors gemm_blocked exactly: outer blocks step the depth
        // by KC, inner blocks step m by MC.
        let m_blocks = m.div_ceil(MC).max(1);
        let mut data = AlignedBuf::new();
        let mut offsets = Vec::with_capacity(k.div_ceil(KC).max(1) * m_blocks + 1);
        // Panels are byte-identical whichever backend packs them; the pinned
        // scalar reference keeps prepacking off the dispatch surface.
        let ops: &dyn SimdOps = &simd::SCALAR;
        for pc in (0..k.max(1)).step_by(KC) {
            let kc = KC.min(k - pc.min(k));
            for ic in (0..m.max(1)).step_by(MC) {
                let mc = MC.min(m - ic.min(m));
                offsets.push(data.len());
                let start = data.len();
                data.resize(start + mc.div_ceil(MR) * MR * kc, 0.0);
                pack_a(ops, view, ic, pc, mc, kc, &mut data[start..]);
            }
        }
        offsets.push(data.len());
        Self {
            rows: m,
            cols: k,
            data,
            offsets,
            m_blocks,
        }
    }

    /// Logical row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bytes of packed panel storage (capacity planning / tests).
    pub fn packed_len(&self) -> usize {
        self.data.len()
    }

    /// The packed panel for `(depth block, m-block)`.
    fn panel(&self, depth_block: usize, m_block: usize) -> &[f32] {
        let i = depth_block * self.m_blocks + m_block;
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// `C += self · B` with `self` the packed `m x k` left operand and `b`
    /// the row-major `k x n` right operand.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on slice-length mismatches.
    pub fn gemm_lhs(&self, n: usize, b: &[f32], c: &mut [f32], ws: &mut Workspace) {
        let (m, k) = (self.rows, self.cols);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        gemm_blocked(
            m,
            k,
            n,
            Lhs::Packed(self),
            View {
                data: b,
                ld: n,
                layout: Layout::RowMajor,
            },
            c,
            ws,
        );
    }
}

/// The left operand as the blocked loop consumes it.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    View(View<'a>),
    Packed(&'a PackedMatrix),
}

/// `C += A · B` over logical `m x k` and `k x n` operands, tiled and packed.
/// Pack scratch for `B` and a non-prepacked `A` comes from `ws` (returned
/// when done), so steady-state callers allocate nothing.
// tia-lint: hot-path(begin)
fn gemm_blocked(m: usize, k: usize, n: usize, a: Lhs, b: View, c: &mut [f32], ws: &mut Workspace) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    // One dispatch per GEMM: the workspace carries the kernel mode, so every
    // micro-kernel and pack call below goes through the same backend.
    let ops = simd::backend(ws.kernel());
    // Scratch sized to the actual problem (capped at one cache block), so
    // the small GEMMs that dominate per-sample serving don't pay for the
    // full-block allocation. A prepacked `A` needs no scratch at all.
    let (mb, kb, nb) = (m.min(MC), k.min(KC), n.min(NC));
    let mut ap_buf = match a {
        Lhs::View(_) => Some(ws.take_spare(mb.div_ceil(MR) * MR * kb)),
        Lhs::Packed(_) => None,
    };
    let mut bp = ws.take_spare(nb.div_ceil(NR) * NR * kb);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for (pc_i, pc) in (0..k).step_by(KC).enumerate() {
            let kc = KC.min(k - pc);
            pack_b(ops, b, pc, jc, kc, nc, &mut bp);
            for (ic_i, ic) in (0..m).step_by(MC).enumerate() {
                let mc = MC.min(m - ic);
                let ap: &[f32] = match a {
                    Lhs::View(v) => {
                        let buf = ap_buf.as_mut().expect("scratch present for A view");
                        pack_a(ops, v, ic, pc, mc, kc, buf);
                        buf
                    }
                    Lhs::Packed(p) => p.panel(pc_i, ic_i),
                };
                for (js, jr) in (0..nc).step_by(NR).enumerate() {
                    let nr = NR.min(nc - jr);
                    let bs = &bp[js * NR * kc..(js + 1) * NR * kc];
                    for (is, ir) in (0..mc).step_by(MR).enumerate() {
                        let mr = MR.min(mc - ir);
                        let as_ = &ap[is * MR * kc..(is + 1) * MR * kc];
                        let mut acc = [[0.0f32; NR]; MR];
                        ops.micro_kernel_f32(kc, as_, bs, &mut acc);
                        for (i, acc_row) in acc.iter().enumerate().take(mr) {
                            let row = (ic + ir + i) * n + jc + jr;
                            let c_row = &mut c[row..row + nr];
                            for (cv, av) in c_row.iter_mut().zip(&acc_row[..nr]) {
                                *cv += av;
                            }
                        }
                    }
                }
            }
        }
    }
    if let Some(buf) = ap_buf {
        ws.recycle(buf);
    }
    ws.recycle(bp);
}
// tia-lint: hot-path(end)

/// `C += A * B` where `A` is `m x k`, `B` is `k x n`, `C` is `m x n`,
/// all row-major.
///
/// # Panics
///
/// Panics (in debug builds) if the slice lengths disagree with the dims.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_ws(m, k, n, a, b, c, &mut Workspace::new());
}

/// [`gemm`] with pack scratch drawn from (and returned to) `ws`.
pub fn gemm_ws(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    ws: &mut Workspace,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm_blocked(
        m,
        k,
        n,
        Lhs::View(View {
            data: a,
            ld: k,
            layout: Layout::RowMajor,
        }),
        View {
            data: b,
            ld: n,
            layout: Layout::RowMajor,
        },
        c,
        ws,
    );
}

/// `C += A^T * B` where `A` is `k x m`, `B` is `k x n`, `C` is `m x n`,
/// with pack scratch drawn from (and returned to) `ws`.
///
/// Used for the conv input gradient `dcols = Wᵀ · dY` without
/// materialising the transpose of the weight matrix.
pub fn matmul_at_b_ws(
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    ws: &mut Workspace,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm_blocked(
        m,
        k,
        n,
        Lhs::View(View {
            data: a,
            ld: m,
            layout: Layout::Transposed,
        }),
        View {
            data: b,
            ld: n,
            layout: Layout::RowMajor,
        },
        c,
        ws,
    );
}

/// `C += A * B^T` where `A` is `m x k`, `B` is `n x k`, `C` is `m x n`,
/// with pack scratch drawn from (and returned to) `ws`.
///
/// Used for the conv weight gradient `dW = dY · colsᵀ` without
/// materialising the transpose of the column matrix.
pub fn matmul_a_bt_ws(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    ws: &mut Workspace,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    gemm_blocked(
        m,
        k,
        n,
        Lhs::View(View {
            data: a,
            ld: k,
            layout: Layout::RowMajor,
        }),
        View {
            data: b,
            ld: k,
            layout: Layout::Transposed,
        },
        c,
        ws,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn assert_close(got: &[f32], want: &[f32], scale: f32, ctx: &str) {
        for (idx, (x, y)) in got.iter().zip(want).enumerate() {
            assert!(
                (x - y).abs() <= 1e-4 * scale.max(1.0),
                "{}: element {}: {} vs {}",
                ctx,
                idx,
                x,
                y
            );
        }
    }

    #[test]
    fn gemm_matches_naive() {
        let mut rng = SeededRng::new(1);
        let (m, k, n) = (5, 7, 3);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let mut c = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c);
        let expect = naive(m, k, n, &a, &b);
        assert_close(&c, &expect, (k as f32).sqrt(), "5x7x3");
    }

    #[test]
    fn tiled_matches_naive_property_sweep() {
        // Seeded property test across shapes straddling every blocking
        // boundary: micro-tile fringes (MR/NR), cache-block edges (MC/KC/NC
        // crossings) and degenerate 1-sized dims.
        let mut rng = SeededRng::new(42);
        let mut cases: Vec<(usize, usize, usize)> = vec![
            (1, 1, 1),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (MC + 3, 5, NC + 2),
            (2 * MR, 2 * KC + 7, 2 * NR),
            (1, 300, 1),
        ];
        for _ in 0..12 {
            cases.push((1 + rng.below(40), 1 + rng.below(300), 1 + rng.below(40)));
        }
        for (m, k, n) in cases {
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let expect = naive(m, k, n, &a, &b);
            let scale = (k as f32).sqrt();
            let ctx = format!("{}x{}x{}", m, k, n);

            let mut c = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            assert_close(&c, &expect, scale, &format!("gemm {}", ctx));

            // A^T * B with A stored k x m.
            let mut at = vec![0.0; k * m];
            for i in 0..m {
                for p in 0..k {
                    at[p * m + i] = a[i * k + p];
                }
            }
            let mut c = vec![0.0; m * n];
            matmul_at_b_ws(k, m, n, &at, &b, &mut c, &mut Workspace::new());
            assert_close(&c, &expect, scale, &format!("at_b {}", ctx));

            // A * B^T with B stored n x k.
            let mut bt = vec![0.0; n * k];
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            let mut c = vec![0.0; m * n];
            matmul_a_bt_ws(m, k, n, &a, &bt, &mut c, &mut Workspace::new());
            assert_close(&c, &expect, scale, &format!("a_bt {}", ctx));
        }
    }

    #[test]
    fn tiled_result_is_batch_size_invariant() {
        // Row i of C must be bitwise identical whether A has 1 row or many:
        // the serving engine's batched-vs-per-sample bitwise identity
        // depends on the k-accumulation order never depending on m.
        let mut rng = SeededRng::new(7);
        let (k, n) = (KC + 13, NR + 3);
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        for m in [2usize, MR + 1, 17] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let mut c_full = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut c_full);
            for i in 0..m {
                let mut c_row = vec![0.0; n];
                gemm(1, k, n, &a[i * k..(i + 1) * k], &b, &mut c_row);
                let got: Vec<u32> = c_full[i * n..(i + 1) * n]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let want: Vec<u32> = c_row.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "row {} of m={} not bitwise equal", i, m);
            }
        }
    }

    #[test]
    fn at_b_matches_naive() {
        let mut rng = SeededRng::new(2);
        let (k, m, n) = (4, 6, 5);
        let a: Vec<f32> = (0..k * m).map(|_| rng.normal()).collect(); // k x m
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect(); // k x n
        let mut c = vec![0.0; m * n];
        matmul_at_b_ws(k, m, n, &a, &b, &mut c, &mut Workspace::new());
        // naive: c[i,j] = sum_p a[p,i] * b[p,j]
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[p * m + i] * b[p * n + j];
                }
                assert!((c[i * n + j] - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn a_bt_matches_naive() {
        let mut rng = SeededRng::new(3);
        let (m, k, n) = (3, 8, 4);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect(); // m x k
        let b: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect(); // n x k
        let mut c = vec![0.0; m * n];
        matmul_a_bt_ws(m, k, n, &a, &b, &mut c, &mut Workspace::new());
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i * k + p] * b[j * k + p];
                }
                assert!((c[i * n + j] - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn prepacked_lhs_is_bitwise_identical_to_gemm() {
        // The prepacked path must not merely be close — the serving engine's
        // determinism contract needs the exact same accumulation, so results
        // must match bit for bit across blocking-boundary shapes.
        let mut rng = SeededRng::new(11);
        let mut ws = Workspace::new();
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (MR + 1, KC + 3, NR + 2),
            (MC + 5, 2 * KC + 1, NC + 7),
            (7, 300, 33),
        ] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let mut want = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut want);
            let packed = PackedMatrix::pack_lhs(m, k, &a);
            assert_eq!((packed.rows(), packed.cols()), (m, k));
            assert!(packed.packed_len() >= m * k);
            let mut got = vec![0.0; m * n];
            packed.gemm_lhs(n, &b, &mut got, &mut ws);
            let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, wb, "prepacked lhs diverged at {}x{}x{}", m, k, n);
        }
    }

    #[test]
    fn workspace_reuse_is_bitwise_stable() {
        // Re-running the same product through a warm workspace (dirty
        // recycled scratch) must reproduce the cold result exactly.
        let mut rng = SeededRng::new(14);
        let (m, k, n) = (MR + 3, KC + 17, NR * 2 + 3);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let mut cold = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut cold);
        let mut ws = Workspace::new();
        for round in 0..3 {
            let mut c = vec![0.0; m * n];
            gemm_ws(m, k, n, &a, &b, &mut c, &mut ws);
            assert_eq!(
                c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                cold.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "warm workspace diverged on round {}",
                round
            );
        }
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [2.0, 0.0, 0.0, 2.0];
        let mut c = vec![1.0; 4];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![3.0, 1.0, 1.0, 3.0]);
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c = vec![5.0; 0];
        gemm(0, 3, 0, &[], &[0.0; 0], &mut c);
        let mut c = vec![5.0; 4];
        gemm(2, 0, 2, &[], &[], &mut c);
        assert_eq!(c, vec![5.0; 4], "k = 0 must leave C untouched");
    }
}
