//! Quantization-aware fully-connected layer.

use crate::layer::{Layer, Mode, Param};
use crate::pack_memo::{integer_path, PackMemo, PackedWeight};
use tia_quant::{
    fake_quant_affine_slice, fake_quant_symmetric_into, gemm_quant, quantize_affine_levels,
    Precision, QuantizedWeights,
};
use tia_tensor::{gemm_ws, matmul_at_b_ws, simd, PackedMatrix, SeededRng, Tensor, Workspace};

/// A fully-connected layer `y = x W^T + b` with optional fake quantization
/// (same straight-through scheme as [`crate::Conv2d`]).
///
/// Weight layout is `[out_features, in_features]` (row per output), which
/// maps directly to the `K x (C*R*S)` weight matrix view the accelerator
/// uses for FC workloads.
///
/// Like [`crate::Conv2d`], the quantized weight is memoized per precision as
/// a prepacked GEMM right operand (`W^T` panels), invalidated whenever
/// [`Layer::visit_params`] exposes the weights; activation quantization
/// writes into workspace buffers, so the steady-state forward allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Option<Param>,
    precision: Option<Precision>,
    /// Per-precision quantized + prepacked weight memo (`None` = fp32).
    packs: PackMemo,
    cache: Option<LinearCache>,
}

#[derive(Debug, Clone)]
struct LinearCache {
    /// Quantized (or raw) input `[n, in]`.
    xq: Tensor,
    /// Snapshot of the quantized weights `[out, in]` the forward ran with —
    /// backward must use *these* values even if the master weights (and
    /// hence the memo) change in between.
    wq: Tensor,
}

impl Linear {
    /// Creates a linear layer with Kaiming-initialised weights.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut SeededRng) -> Self {
        let weight = Tensor::kaiming(&[out_features, in_features], in_features, rng);
        let bias = bias.then(|| Param::new(Tensor::zeros(&[out_features]), false));
        Self {
            in_features,
            out_features,
            weight: Param::new(weight, true),
            bias,
            precision: None,
            packs: PackMemo::default(),
            cache: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Number of precisions with a live prepacked weight (tests/diagnostics).
    pub fn packed_precisions(&self) -> usize {
        self.packs.len()
    }

    /// The memo entry for the active precision, quantizing + packing the
    /// weights as the `W^T` right operand on first use.
    fn packed_weight(&mut self) -> &PackedWeight {
        let (out_f, in_f) = (self.out_features, self.in_features);
        let p = self.precision;
        let weight = &self.weight;
        self.packs.entry_or_insert(p, || {
            let wq = match p {
                Some(prec) => {
                    let mut buf = vec![0.0f32; weight.value.len()];
                    fake_quant_symmetric_into(weight.value.data(), &mut buf, prec);
                    Tensor::from_vec(buf, &[out_f, in_f])
                }
                None => weight.value.clone(),
            };
            let packed = PackedMatrix::pack_rhs_transposed(out_f, in_f, wq.data());
            PackedWeight { wq, packed }
        })
    }

    /// The integer memo entry for `p`: the master weights `[out, in]`
    /// quantized per-row and packed into integer panels on first use.
    fn int_weight(&mut self, p: Precision) -> &QuantizedWeights {
        let (out_f, in_f) = (self.out_features, self.in_features);
        let weight = &self.weight;
        self.packs.int_entry_or_insert(p, || {
            QuantizedWeights::quantize_rows(weight.value.data(), out_f, in_f, p.bits())
        })
    }

    /// The true-integer inference forward: each sample row quantized to its
    /// own affine level grid, then one integer GEMM against the packed
    /// weight rows produces `[n, out]` directly. Never caches (Infer only).
    fn forward_int(&mut self, x: &Tensor, p: Precision, ws: &mut Workspace) -> Tensor {
        let n = x.shape()[0];
        let in_f = self.in_features;
        self.int_weight(p); // populate the memo for the active precision
        let wq = self.packs.get_int(p).expect("int_weight populated above");
        let ops = simd::backend(ws.kernel());

        // Per-sample affine calibration (same grid as the fake-quant path):
        // one scale/zero-point pair per row, so batching never changes the
        // grid a sample lands on.
        let mut rows = ws.take_bytes_spare(n * in_f);
        let mut scales = ws.take_spare(n);
        let mut zps = ws.take_ints_spare(n);
        for ni in 0..n {
            let lp = quantize_affine_levels(
                &x.data()[ni * in_f..(ni + 1) * in_f],
                &mut rows[ni * in_f..(ni + 1) * in_f],
                p,
            );
            scales[ni] = lp.scale;
            zps[ni] = lp.zero_point;
        }

        let mut out = ws.tensor_spare(&[n, self.out_features]);
        gemm_quant(
            ops,
            n,
            in_f,
            &rows,
            &scales,
            &zps,
            wq,
            self.bias.as_ref().map(|b| b.value.data()),
            out.data_mut(),
        );
        ws.recycle(scales);
        ws.recycle_ints(zps);
        ws.recycle_bytes(rows);
        if let Some(old) = self.cache.take() {
            ws.recycle_tensor(old.xq);
            ws.recycle_tensor(old.wq);
        }
        out
    }
}

impl Layer for Linear {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        assert_eq!(x.shape().len(), 2, "Linear expects [N, F]");
        assert_eq!(x.shape()[1], self.in_features, "Linear feature mismatch");
        if let Some(p) = integer_path(mode, self.precision, self.in_features) {
            return self.forward_int(x, p, ws);
        }
        let n = x.shape()[0];
        self.packed_weight(); // populate the memo for the active precision
        let pw = self
            .packs
            .get(self.precision)
            .expect("packed_weight populated above");
        // Activations calibrate per sample (row), not per batch: the grid a
        // sample lands on must not depend on what it was batched with, so
        // micro-batched serving stays bitwise-identical to per-sample
        // inference (the tia-engine invariant).
        let xq_buf = match self.precision {
            Some(p) => {
                let mut data = ws.take_spare(n * self.in_features);
                for (dst, src) in data
                    .chunks_mut(self.in_features)
                    .zip(x.data().chunks(self.in_features))
                {
                    fake_quant_affine_slice(src, dst, p);
                }
                Some(data)
            }
            None => None,
        };
        let xq: &[f32] = xq_buf.as_deref().unwrap_or_else(|| x.data());
        // y[n, out] = xq [n, in] * wq^T [in, out], streaming prepacked W^T.
        let mut out = ws.tensor_zeroed(&[n, self.out_features]);
        pw.packed.gemm_rhs(n, xq, out.data_mut(), ws);
        if let Some(b) = &self.bias {
            for i in 0..n {
                for (o, &bv) in out.data_mut()[i * self.out_features..(i + 1) * self.out_features]
                    .iter_mut()
                    .zip(b.value.data())
                {
                    *o += bv;
                }
            }
        }
        if let Some(old) = self.cache.take() {
            ws.recycle_tensor(old.xq);
            ws.recycle_tensor(old.wq);
        }
        if mode.caches_backward() {
            let xq_t = match xq_buf {
                Some(buf) => Tensor::from_buf(buf, &[n, self.in_features]),
                None => ws.tensor_copy(x, &[n, self.in_features]),
            };
            self.cache = Some(LinearCache {
                xq: xq_t,
                // Snapshot the quantized weights the product actually used
                // (see LinearCache::wq).
                wq: ws.tensor_copy(&pw.wq, &[self.out_features, self.in_features]),
            });
        } else if let Some(buf) = xq_buf {
            ws.recycle(buf);
        }
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("Linear::backward before forward");
        let n = grad_out.shape()[0];
        // dW [out, in] += grad_out^T [out, n] * xq [n, in]
        let mut dw = ws.take_zeroed(self.out_features * self.in_features);
        matmul_at_b_ws(
            n,
            self.out_features,
            self.in_features,
            grad_out.data(),
            cache.xq.data(),
            &mut dw,
            ws,
        );
        if let Some(b) = &mut self.bias {
            for i in 0..n {
                for (g, &go) in b
                    .grad
                    .data_mut()
                    .iter_mut()
                    .zip(&grad_out.data()[i * self.out_features..(i + 1) * self.out_features])
                {
                    *g += go;
                }
            }
        }
        // dX [n, in] = grad_out [n, out] * wq [out, in], against the
        // forward's own weight snapshot.
        let mut dx = ws.tensor_zeroed(&[n, self.in_features]);
        gemm_ws(
            n,
            self.out_features,
            self.in_features,
            grad_out.data(),
            cache.wq.data(),
            dx.data_mut(),
            ws,
        );
        for (g, d) in self.weight.grad.data_mut().iter_mut().zip(&dw) {
            *g += d;
        }
        ws.recycle(dw);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // `&mut Param` escapes — every prepacked precision may be stale.
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

    #[test]
    fn forward_known_values() {
        let mut rng = SeededRng::new(0);
        let mut lin = Linear::new(2, 2, true, &mut rng);
        lin.visit_params(&mut |p| {
            if p.decay {
                p.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
            } else {
                p.value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
            }
        });
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = lin.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = SeededRng::new(3);
        let mut lin = Linear::new(4, 3, true, &mut rng);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let y = lin.forward(&x, Mode::Train);
        let gx = lin.backward(&Tensor::ones(y.shape()));
        let eps = 1e-3;
        for idx in [0usize, 5] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (lin.forward(&xp, Mode::Train).sum() - lin.forward(&xm, Mode::Train).sum())
                / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 1e-2,
                "idx {}: {} vs {}",
                idx,
                fd,
                gx.data()[idx]
            );
        }
    }

    #[test]
    fn weight_gradient_accumulates_over_calls() {
        let mut rng = SeededRng::new(4);
        let mut lin = Linear::new(2, 2, false, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let y = lin.forward(&x, Mode::Train);
        let g = Tensor::ones(y.shape());
        let _ = lin.backward(&g);
        let _ = lin.backward(&g);
        let mut total = 0.0;
        lin.visit_params(&mut |p| total = p.grad.sum());
        assert_eq!(total, 8.0); // each backward adds 1 per weight (4 weights)
    }

    #[test]
    fn quantization_changes_output() {
        let mut rng = SeededRng::new(9);
        let mut lin = Linear::new(16, 4, false, &mut rng);
        let x = Tensor::rand_uniform(&[1, 16], 0.0, 1.0, &mut rng);
        let fp = lin.forward(&x, Mode::Eval);
        lin.set_precision(Some(Precision::new(3)));
        let q = lin.forward(&x, Mode::Eval);
        assert!(fp.sub(&q).norm() > 0.0);
    }

    #[test]
    fn prepacked_weights_memoize_and_invalidate() {
        let mut rng = SeededRng::new(10);
        let mut lin = Linear::new(8, 4, false, &mut rng);
        let x = Tensor::rand_uniform(&[2, 8], 0.0, 1.0, &mut rng);
        for bits in [4u8, 8, 4, 8] {
            lin.set_precision(Some(Precision::new(bits)));
            let _ = lin.forward(&x, Mode::Infer);
        }
        assert_eq!(lin.packed_precisions(), 2);
        assert!(lin.cache.is_none(), "Infer must not retain activations");
        lin.set_precision(Some(Precision::new(4)));
        let before = lin.forward(&x, Mode::Infer);
        lin.visit_params(&mut |p| p.value.data_mut()[0] += 1.0);
        assert_eq!(lin.packed_precisions(), 0);
        let after = lin.forward(&x, Mode::Infer);
        assert!(before.sub(&after).norm() > 0.0);
    }
}
