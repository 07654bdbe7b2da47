//! Quantization-aware fully-connected layer.

use crate::conv_layer::Conv2d;
use crate::layer::{Layer, Mode, Param};
use tia_quant::Precision;
use tia_tensor::{Conv2dGeometry, SeededRng, Tensor, Workspace};

/// A fully-connected layer `y = x W^T + b`: a 1×1 [`Conv2d`] over the
/// input viewed as `[N, F, 1, 1]`, the way the accelerator runs an FC
/// workload through the convolution loop nest with `R = S = 1`.
///
/// Everything — fake quantization, the per-precision weight memo, the
/// true-integer `Infer` path past the crossover depth, backward — is the
/// convolution's. At 1×1 the conv's per-image activation grid is a
/// per-sample row grid, so batching never changes a sample's logits. The
/// weight is `[out_features, in_features, 1, 1]`, the `K x C` weight
/// matrix the accelerator uses for FC workloads.
#[derive(Debug, Clone)]
pub struct Linear(Conv2d);

impl Linear {
    /// Creates a linear layer with Kaiming-initialised weights.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut SeededRng) -> Self {
        let geo = Conv2dGeometry::new(in_features, out_features, 1, 1, 0);
        Self(Conv2d::new(geo, bias, rng))
    }

    /// Runs `x` `[N, F]` through the conv as `[N, F, 1, 1]` with `f`, and
    /// hands its `[N, C, 1, 1]` result back as `[N, C]` without a copy.
    fn as_conv(
        &mut self,
        x: &Tensor,
        ws: &mut Workspace,
        f: impl FnOnce(&mut Conv2d, &Tensor, &mut Workspace) -> Tensor,
    ) -> Tensor {
        assert_eq!(x.shape().len(), 2, "Linear expects [N, F]");
        let (n, features) = (x.shape()[0], x.shape()[1]);
        let x4 = ws.tensor_copy(x, &[n, features, 1, 1]);
        let y = f(&mut self.0, &x4, ws);
        ws.recycle_tensor(x4);
        let c = y.shape()[1];
        Tensor::from_buf(y.into_buf(), &[n, c])
    }
}

impl Layer for Linear {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        self.as_conv(x, ws, |conv, x, ws| conv.forward_ws(x, mode, ws))
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        self.as_conv(grad_out, ws, |conv, g, ws| conv.backward_ws(g, ws))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.0.visit_params(f);
    }

    fn set_precision(&mut self, p: Option<Precision>) {
        self.0.set_precision(p);
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
                p.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2, 1, 1]);
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
        assert_eq!(gx.shape(), x.shape());
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
        assert_eq!(lin.0.packed_precisions(), 2);
        lin.set_precision(Some(Precision::new(4)));
        let before = lin.forward(&x, Mode::Infer);
        lin.visit_params(&mut |p| p.value.data_mut()[0] += 1.0);
        assert_eq!(lin.0.packed_precisions(), 0);
        let after = lin.forward(&x, Mode::Infer);
        assert!(before.sub(&after).norm() > 0.0);
    }
}
