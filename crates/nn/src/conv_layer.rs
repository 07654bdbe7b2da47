//! Quantization-aware 2-D convolution layer.

use crate::layer::{Layer, Mode, Param};
use crate::pack_memo::{integer_path, PackMemo, PackedWeight};
use tia_quant::{
    fake_quant_affine_slice, fake_quant_symmetric_into, gemm_quant_strided,
    quantize_affine_levels_hwc, OutStrides, Precision, QuantizedWeights,
};
use tia_tensor::{
    col2im_add_into, im2col_into, im2col_levels_rows, matmul_a_bt_ws, matmul_at_b_ws, simd,
    Conv2dGeometry, PackedMatrix, SeededRng, Tensor, Workspace,
};

/// A 2-D convolution with optional fake quantization of weights and input
/// activations.
///
/// When a precision is set (via [`Layer::set_precision`]), the forward pass
/// computes with `Q_b(W)` and `Q_b(X)` — symmetric quantization for weights,
/// affine per-image quantization for activations — exactly the in-situ
/// precision switch of the paper. The f32 path gives the weights one grid
/// per tensor; the integer path below gives them one grid per output
/// channel (a weight row). Both paths round on the same grids of
/// `tia_quant`. The backward pass uses the straight-through estimator: the
/// quantized values participate in the products, but gradients flow
/// through the rounding unchanged.
///
/// # Hot-path structure
///
/// The forward pass is *batched*: all `n` images lower (per-image quantized)
/// into one `[C·KH·KW, N·OH·OW]` column matrix and multiply the weight in a
/// single GEMM — the GEMM's batch-size-invariant accumulation keeps each
/// sample's output bitwise identical to a batch-of-one forward. The
/// quantized + packed weight matrix is memoized per precision
/// ([`PackedMatrix`]), so a random precision switch costs a lookup; the memo
/// is invalidated whenever [`Layer::visit_params`] exposes the weights for
/// mutation. All scratch comes from the caller's [`Workspace`].
///
/// On the integer serving path (`Mode::Infer` at 2–8 bits past the
/// crossover depth, whatever the kernel mode) the same batching holds with a channel-last
/// lowering: each image becomes an `[H, W, C]` level image, its patch rows
/// are built in `(ki, kj, ci)` order (one contiguous copy per kernel row)
/// against weight rows memoized in the matching `[K, KH·KW·C]` order, and
/// the integer GEMM's epilogue writes NCHW directly.
#[derive(Debug, Clone)]
pub struct Conv2d {
    geo: Conv2dGeometry,
    weight: Param,
    bias: Option<Param>,
    precision: Option<Precision>,
    /// Per-precision quantized + prepacked weight memo (`None` = fp32).
    /// Cleared by `visit_params` — any caller holding `&mut Param` may have
    /// rewritten the master weights.
    packs: PackMemo,
    // Backward cache from the most recent forward (absent after `Infer`).
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    /// Quantized (or raw) input columns for the whole batch:
    /// `[C·KH·KW, N·OH·OW]`, sample `i` owning columns `i·OH·OW ..`.
    cols: Tensor,
    /// Snapshot of the quantized weight matrix `[K, C·KH·KW]` the forward
    /// ran with — backward must use *these* values even if the master
    /// weights (and hence the memo) change in between.
    wq: Tensor,
    input_h: usize,
    input_w: usize,
    batch: usize,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialised weights.
    pub fn new(geo: Conv2dGeometry, bias: bool, rng: &mut SeededRng) -> Self {
        let fan_in = geo.in_channels * geo.kernel_h * geo.kernel_w;
        let weight = Tensor::kaiming(
            &[
                geo.out_channels,
                geo.in_channels,
                geo.kernel_h,
                geo.kernel_w,
            ],
            fan_in,
            rng,
        );
        let bias = bias.then(|| Param::new(Tensor::zeros(&[geo.out_channels]), false));
        Self {
            geo,
            weight: Param::new(weight, true),
            bias,
            precision: None,
            packs: PackMemo::default(),
            cache: None,
        }
    }

    /// Number of precisions with a live prepacked weight (tests/diagnostics).
    pub fn packed_precisions(&self) -> usize {
        self.packs.len()
    }

    /// The memo entry for the active precision, quantizing + packing the
    /// weight matrix `[K, C·KH·KW]` on first use.
    fn packed_weight(&mut self) -> &PackedWeight {
        let k = self.geo.out_channels;
        let f = self.geo.in_channels * self.geo.kernel_h * self.geo.kernel_w;
        let p = self.precision;
        let weight = &self.weight;
        self.packs.entry_or_insert(p, || {
            let wq = match p {
                Some(prec) => {
                    let mut buf = vec![0.0f32; k * f];
                    fake_quant_symmetric_into(weight.value.data(), &mut buf, prec);
                    Tensor::from_vec(buf, &[k, f])
                }
                None => weight.value.reshape(&[k, f]),
            };
            let packed = PackedMatrix::pack_lhs(k, f, wq.data());
            PackedWeight { wq, packed }
        })
    }

    /// The integer memo entry for `p`: the master weights `[K, C, KH·KW]`
    /// permuted to channel-last rows `[K, KH·KW·C]` — the feature order of
    /// [`im2col_levels_rows`] — then quantized per-row and packed into integer
    /// panels, on first use. The permutation moves no scale, row sum or dot.
    fn int_weight(&mut self, p: Precision) -> &QuantizedWeights {
        let k = self.geo.out_channels;
        let (c, taps) = (self.geo.in_channels, self.geo.kernel_h * self.geo.kernel_w);
        let weight = &self.weight;
        self.packs.int_entry_or_insert(p, || {
            let mut rows = vec![0.0f32; k * taps * c];
            for (i, &v) in weight.value.data().iter().enumerate() {
                let (ki, ci, tap) = (i / (c * taps), i / taps % c, i % taps);
                rows[(ki * taps + tap) * c + ci] = v;
            }
            QuantizedWeights::quantize_rows(&rows, k, taps * c, p.bits())
        })
    }

    /// The true-integer inference forward: each image quantized to a
    /// channel-last level image and lowered patch-per-row, then one integer
    /// GEMM against the packed weight rows whose epilogue writes NCHW.
    /// Never caches (Infer only).
    fn forward_int(&mut self, x: &Tensor, p: Precision, ws: &mut Workspace) -> Tensor {
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.geo.output_hw(h, w);
        let k = self.geo.out_channels;
        let c = self.geo.in_channels;
        let f = c * self.geo.kernel_h * self.geo.kernel_w;
        let (ohw, chw) = (oh * ow, c * h * w);
        self.int_weight(p); // populate the memo for the active precision
        let wq = self.packs.get_int(p).expect("int_weight populated above");
        let ops = simd::backend(ws.kernel());

        // Per-image affine calibration (same grid as the fake-quant path),
        // kept per image so batching never changes a sample's grid.
        let mut img_levels = ws.take_bytes_spare(chw);
        let mut rows = ws.take_bytes_spare(n * ohw * f);
        let mut scales = ws.take_spare(n);
        let mut zps = ws.take_ints_spare(n);
        for ni in 0..n {
            let img = &x.data()[ni * chw..(ni + 1) * chw];
            let lp = quantize_affine_levels_hwc(img, c, &mut img_levels, p);
            scales[ni] = lp.scale;
            zps[ni] = lp.zero_point;
            im2col_levels_rows(
                &img_levels,
                &self.geo,
                h,
                w,
                lp.zero_point as u8,
                &mut rows[ni * ohw * f..(ni + 1) * ohw * f],
            );
        }

        // Each patch row dotted against every weight row; image `ni`'s dot
        // `(s, ki)` lands at `out[ni][ki][s]`.
        let mut out = ws.tensor_spare(&[n, k, oh, ow]);
        gemm_quant_strided(
            ops,
            n * ohw,
            f,
            &rows,
            &scales,
            &zps,
            wq,
            self.bias.as_ref().map(|b| b.value.data()),
            out.data_mut(),
            OutStrides::planes(ohw, k),
        );
        ws.recycle(scales);
        ws.recycle_ints(zps);
        ws.recycle_bytes(rows);
        ws.recycle_bytes(img_levels);
        if let Some(old) = self.cache.take() {
            ws.recycle_tensor(old.cols);
            ws.recycle_tensor(old.wq);
        }
        out
    }
}

impl Layer for Conv2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        assert_eq!(x.shape().len(), 4, "Conv2d expects NCHW input");
        assert_eq!(
            x.shape()[1],
            self.geo.in_channels,
            "Conv2d channel mismatch"
        );
        let depth = self.geo.in_channels * self.geo.kernel_h * self.geo.kernel_w;
        if let Some(p) = integer_path(mode, self.precision, depth) {
            return self.forward_int(x, p, ws);
        }
        let (n, _c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.geo.output_hw(h, w);
        let k = self.geo.out_channels;
        let f = self.geo.in_channels * self.geo.kernel_h * self.geo.kernel_w;
        let (ohw, chw) = (oh * ow, self.geo.in_channels * h * w);
        let cols_n = n * ohw;
        self.packed_weight(); // populate the memo for the active precision
        let pw = self
            .packs
            .get(self.precision)
            .expect("packed_weight populated above");

        // One shared column matrix for the whole batch; activations still
        // calibrate per image, preserving batched-vs-per-sample identity.
        let mut cols = ws.take_zeroed(f * cols_n);
        match self.precision {
            Some(p) => {
                let mut q = ws.take_spare(chw);
                for ni in 0..n {
                    fake_quant_affine_slice(&x.data()[ni * chw..(ni + 1) * chw], &mut q, p);
                    im2col_into(&q, &self.geo, h, w, &mut cols, cols_n, ni * ohw);
                }
                ws.recycle(q);
            }
            None => {
                for ni in 0..n {
                    im2col_into(
                        &x.data()[ni * chw..(ni + 1) * chw],
                        &self.geo,
                        h,
                        w,
                        &mut cols,
                        cols_n,
                        ni * ohw,
                    );
                }
            }
        }

        // out[k, n·oh·ow] = Wq [k,f] x cols [f, n·oh·ow] — one GEMM per
        // layer per batch, streaming the prepacked weight panels.
        let mut o = ws.take_zeroed(k * cols_n);
        pw.packed.gemm_lhs(cols_n, &cols, &mut o, ws);
        if let Some(b) = &self.bias {
            for ki in 0..k {
                let bv = b.value.data()[ki];
                for v in &mut o[ki * cols_n..(ki + 1) * cols_n] {
                    *v += bv;
                }
            }
        }

        // Scatter [k, n·oh·ow] into NCHW output.
        let mut out = ws.tensor_spare(&[n, k, oh, ow]);
        let od = out.data_mut();
        for ni in 0..n {
            for ki in 0..k {
                od[(ni * k + ki) * ohw..(ni * k + ki + 1) * ohw]
                    .copy_from_slice(&o[ki * cols_n + ni * ohw..ki * cols_n + (ni + 1) * ohw]);
            }
        }
        ws.recycle(o);

        if let Some(old) = self.cache.take() {
            ws.recycle_tensor(old.cols);
            ws.recycle_tensor(old.wq);
        }
        if mode.caches_backward() {
            self.cache = Some(Cache {
                cols: Tensor::from_buf(cols, &[f, cols_n]),
                // Snapshot the quantized weight the products actually used,
                // so backward stays correct even if the master weights (and
                // hence the memo) change in between.
                wq: ws.tensor_copy(&pw.wq, &[k, f]),
                input_h: h,
                input_w: w,
                batch: n,
            });
        } else {
            ws.recycle(cols);
        }
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("Conv2d::backward before forward");
        let (input_h, input_w) = (cache.input_h, cache.input_w);
        let (n, k) = (grad_out.shape()[0], grad_out.shape()[1]);
        assert_eq!(
            n, cache.batch,
            "batch mismatch between forward and backward"
        );
        let (oh, ow) = (grad_out.shape()[2], grad_out.shape()[3]);
        let f = self.geo.in_channels * self.geo.kernel_h * self.geo.kernel_w;
        let (ohw, chw) = (oh * ow, self.geo.in_channels * input_h * input_w);
        let cols_n = n * ohw;

        // Reorder grad_out [n,k,oh,ow] -> [k, n·oh·ow] to match the batched
        // column layout.
        let mut go = ws.take_spare(k * cols_n);
        for ni in 0..n {
            for ki in 0..k {
                go[ki * cols_n + ni * ohw..ki * cols_n + (ni + 1) * ohw].copy_from_slice(
                    &grad_out.data()[(ni * k + ki) * ohw..(ni * k + ki + 1) * ohw],
                );
            }
        }

        // dW += go [k, n·oh·ow] x cols^T — one batched product.
        let mut dw = ws.take_zeroed(k * f);
        matmul_a_bt_ws(k, cols_n, f, &go, cache.cols.data(), &mut dw, ws);
        // dcols = wq^T [f,k] x go [k, n·oh·ow], against the forward's own
        // weight snapshot.
        let mut dcols = ws.take_zeroed(f * cols_n);
        matmul_at_b_ws(k, f, cols_n, cache.wq.data(), &go, &mut dcols, ws);
        let mut grad_in = ws.tensor_zeroed(&[n, self.geo.in_channels, input_h, input_w]);
        for ni in 0..n {
            col2im_add_into(
                &dcols,
                cols_n,
                ni * ohw,
                &self.geo,
                input_h,
                input_w,
                &mut grad_in.data_mut()[ni * chw..(ni + 1) * chw],
            );
        }
        if let Some(b) = &mut self.bias {
            for ki in 0..k {
                for ni in 0..n {
                    let s: f32 = go[ki * cols_n + ni * ohw..ki * cols_n + (ni + 1) * ohw]
                        .iter()
                        .sum();
                    b.grad.data_mut()[ki] += s;
                }
            }
        }
        ws.recycle(go);
        ws.recycle(dcols);
        // Straight-through: gradient w.r.t. the fp32 master weights equals the
        // gradient w.r.t. the quantized weights.
        for (g, d) in self.weight.grad.data_mut().iter_mut().zip(&dw) {
            *g += d;
        }
        ws.recycle(dw);
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // Handing out `&mut Param` means the master weights may change under
        // the memo — every prepacked precision is stale.
        self.packs.clear();
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn set_precision(&mut self, p: Option<Precision>) {
        self.precision = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_quant::PrecisionSet;

    fn finite_diff_input_grad() -> (f32, f32) {
        // Compare analytic input gradient against finite differences on a
        // scalar loss sum(conv(x)).
        let mut rng = SeededRng::new(10);
        let geo = Conv2dGeometry::new(2, 3, 3, 1, 1);
        let mut conv = Conv2d::new(geo, true, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train);
        let g = Tensor::ones(y.shape());
        let gx = conv.backward(&g);
        // finite diff at a fixed coordinate
        let idx = 7;
        let eps = 1e-3;
        let mut xp = x.clone();
        xp.data_mut()[idx] += eps;
        let mut xm = x.clone();
        xm.data_mut()[idx] -= eps;
        let yp = conv.forward(&xp, Mode::Train).sum();
        let ym = conv.forward(&xm, Mode::Train).sum();
        ((yp - ym) / (2.0 * eps), gx.data()[idx])
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let (fd, an) = finite_diff_input_grad();
        assert!((fd - an).abs() < 1e-2, "fd {} vs analytic {}", fd, an);
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = SeededRng::new(11);
        let geo = Conv2dGeometry::new(1, 2, 3, 1, 1);
        let mut conv = Conv2d::new(geo, false, &mut rng);
        let x = Tensor::randn(&[2, 1, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train);
        conv.zero_grad();
        let g = Tensor::ones(y.shape());
        let _ = conv.backward(&g);
        let mut analytic = 0.0;
        conv.visit_params(&mut |p| {
            if p.decay {
                analytic = p.grad.data()[3];
            }
        });
        let eps = 1e-3;
        let get_loss = |delta: f32, conv: &mut Conv2d| {
            conv.visit_params(&mut |p| {
                if p.decay {
                    p.value.data_mut()[3] += delta;
                }
            });
            let l = conv.forward(&x, Mode::Train).sum();
            conv.visit_params(&mut |p| {
                if p.decay {
                    p.value.data_mut()[3] -= delta;
                }
            });
            l
        };
        let fd = (get_loss(eps, &mut conv) - get_loss(-eps, &mut conv)) / (2.0 * eps);
        assert!(
            (fd - analytic).abs() < 5e-2,
            "fd {} vs analytic {}",
            fd,
            analytic
        );
    }

    #[test]
    fn output_shape() {
        let mut rng = SeededRng::new(1);
        let geo = Conv2dGeometry::new(3, 8, 3, 2, 1);
        let mut conv = Conv2d::new(geo, true, &mut rng);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 8, 4, 4]);
    }

    #[test]
    fn quantized_forward_differs_from_full_precision() {
        let mut rng = SeededRng::new(5);
        let geo = Conv2dGeometry::new(3, 4, 3, 1, 1);
        let mut conv = Conv2d::new(geo, false, &mut rng);
        let x = Tensor::rand_uniform(&[1, 3, 6, 6], 0.0, 1.0, &mut rng);
        let y_fp = conv.forward(&x, Mode::Eval);
        conv.set_precision(Some(Precision::new(4)));
        let y_q4 = conv.forward(&x, Mode::Eval);
        conv.set_precision(Some(Precision::new(8)));
        let y_q8 = conv.forward(&x, Mode::Eval);
        let d4 = y_fp.sub(&y_q4).norm();
        let d8 = y_fp.sub(&y_q8).norm();
        assert!(
            d4 > d8,
            "lower precision should deviate more: {} vs {}",
            d4,
            d8
        );
        assert!(d8 > 0.0);
    }

    #[test]
    fn bias_gradient_sums_spatial() {
        let mut rng = SeededRng::new(2);
        let geo = Conv2dGeometry::new(1, 1, 1, 1, 0);
        let mut conv = Conv2d::new(geo, true, &mut rng);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv.forward(&x, Mode::Train);
        let _ = conv.backward(&Tensor::ones(y.shape()));
        let mut bias_grad = 0.0;
        conv.visit_params(&mut |p| {
            if !p.decay {
                bias_grad = p.grad.data()[0];
            }
        });
        assert_eq!(bias_grad, 4.0);
    }

    #[test]
    fn batched_forward_bitwise_equals_per_sample() {
        // The batched single-GEMM path must reproduce batch-of-one forwards
        // bit for bit at every candidate precision and fp32 — the conv-level
        // statement of the engine's batched-vs-per-sample identity.
        let mut rng = SeededRng::new(21);
        let geo = Conv2dGeometry::new(3, 5, 3, 2, 1);
        let mut conv = Conv2d::new(geo, true, &mut rng);
        let x = Tensor::rand_uniform(&[6, 3, 9, 9], 0.0, 1.0, &mut rng);
        let precisions: Vec<Option<Precision>> = std::iter::once(None)
            .chain(PrecisionSet::range(4, 8).iter().map(Some))
            .collect();
        for &p in &precisions {
            conv.set_precision(p);
            let batched = conv.forward(&x, Mode::Infer);
            for i in 0..x.shape()[0] {
                let img = x.index_axis0(i);
                let one = conv.forward(&img.reshape(&[1, 3, 9, 9]), Mode::Infer);
                let got: Vec<u32> = batched
                    .index_axis0(i)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let want: Vec<u32> = one.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "sample {} at {:?} not bitwise equal", i, p);
            }
        }
    }

    #[test]
    fn infer_mode_skips_backward_cache() {
        let mut rng = SeededRng::new(22);
        let geo = Conv2dGeometry::new(2, 2, 3, 1, 1);
        let mut conv = Conv2d::new(geo, false, &mut rng);
        let x = Tensor::rand_uniform(&[2, 2, 5, 5], 0.0, 1.0, &mut rng);
        let _ = conv.forward(&x, Mode::Infer);
        assert!(conv.cache.is_none(), "Infer must not retain columns");
        let _ = conv.forward(&x, Mode::Eval);
        assert!(conv.cache.is_some(), "Eval must retain columns for attacks");
    }

    #[test]
    fn prepacked_weights_memoize_per_precision_and_invalidate() {
        let mut rng = SeededRng::new(23);
        let geo = Conv2dGeometry::new(2, 3, 3, 1, 1);
        let mut conv = Conv2d::new(geo, false, &mut rng);
        let x = Tensor::rand_uniform(&[1, 2, 5, 5], 0.0, 1.0, &mut rng);
        for bits in [4u8, 6, 8, 4, 6, 8] {
            conv.set_precision(Some(Precision::new(bits)));
            let _ = conv.forward(&x, Mode::Infer);
        }
        assert_eq!(conv.packed_precisions(), 3, "one entry per precision");
        conv.set_precision(Some(Precision::new(4)));
        let before = conv.forward(&x, Mode::Infer);
        // Mutating the weights through visit_params must invalidate.
        conv.visit_params(&mut |p| {
            if p.decay {
                p.value.data_mut()[0] += 1.0;
            }
        });
        assert_eq!(conv.packed_precisions(), 0, "visit_params clears memo");
        let after = conv.forward(&x, Mode::Infer);
        assert!(
            before.sub(&after).norm() > 0.0,
            "stale packed weights served after mutation"
        );
    }
}
