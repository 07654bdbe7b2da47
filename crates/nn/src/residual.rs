//! Pre-activation residual block (He et al., ECCV'16), the building block of
//! PreActResNet-18 and WideResNet used throughout the paper's algorithm
//! experiments.

use crate::act::ReLU;
use crate::conv_layer::Conv2d;
use crate::layer::{Layer, Mode, Param};
use tia_quant::Precision;
use tia_tensor::{Conv2dGeometry, SeededRng, Tensor, Workspace};

/// A pre-activation residual block:
///
/// ```text
/// y = conv2(relu(bn2(conv1(relu(bn1(x)))))) + shortcut
/// ```
///
/// where `shortcut` is the identity when shapes match, or a strided 1×1
/// convolution applied to the pre-activated input when downsampling /
/// widening (the PreActResNet convention).
#[derive(Debug, Clone)]
pub struct PreActBlock {
    bn1: Box<dyn Layer>,
    relu1: ReLU,
    conv1: Conv2d,
    bn2: Box<dyn Layer>,
    relu2: ReLU,
    conv2: Conv2d,
    shortcut: Option<Conv2d>,
}

impl PreActBlock {
    /// Creates a block mapping `in_ch -> out_ch` with the given stride.
    /// `bn` constructs the normalization layers (plain BN or SBN).
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        stride: usize,
        bn: &dyn Fn(usize) -> Box<dyn Layer>,
        rng: &mut SeededRng,
    ) -> Self {
        let conv1 = Conv2d::new(Conv2dGeometry::new(in_ch, out_ch, 3, stride, 1), false, rng);
        let conv2 = Conv2d::new(Conv2dGeometry::new(out_ch, out_ch, 3, 1, 1), false, rng);
        let shortcut = (stride != 1 || in_ch != out_ch)
            .then(|| Conv2d::new(Conv2dGeometry::new(in_ch, out_ch, 1, stride, 0), false, rng));
        Self {
            bn1: bn(in_ch),
            relu1: ReLU::new(),
            conv1,
            bn2: bn(out_ch),
            relu2: ReLU::new(),
            conv2,
            shortcut,
        }
    }
}

impl Layer for PreActBlock {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        let out1 = self.bn1.forward_ws(x, mode, ws);
        let a1 = self.relu1.forward_ws(&out1, mode, ws);
        ws.recycle_tensor(out1);
        let sc = self
            .shortcut
            .as_mut()
            .map(|conv_sc| conv_sc.forward_ws(&a1, mode, ws));
        let h = self.conv1.forward_ws(&a1, mode, ws);
        ws.recycle_tensor(a1);
        let out2 = self.bn2.forward_ws(&h, mode, ws);
        ws.recycle_tensor(h);
        let a2 = self.relu2.forward_ws(&out2, mode, ws);
        ws.recycle_tensor(out2);
        let mut main = self.conv2.forward_ws(&a2, mode, ws);
        ws.recycle_tensor(a2);
        match sc {
            Some(sc) => {
                main.add_assign(&sc);
                ws.recycle_tensor(sc);
            }
            None => main.add_assign(x), // identity shortcut, no clone
        }
        main
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        // Main path.
        let d_a2 = self.conv2.backward_ws(grad_out, ws);
        let d_out2 = self.relu2.backward_ws(&d_a2, ws);
        ws.recycle_tensor(d_a2);
        let d_h = self.bn2.backward_ws(&d_out2, ws);
        ws.recycle_tensor(d_out2);
        let d_a1_main = self.conv1.backward_ws(&d_h, ws);
        ws.recycle_tensor(d_h);
        match &mut self.shortcut {
            Some(conv_sc) => {
                let mut d_a1 = conv_sc.backward_ws(grad_out, ws);
                d_a1.add_assign(&d_a1_main);
                ws.recycle_tensor(d_a1_main);
                let d_out1 = self.relu1.backward_ws(&d_a1, ws);
                ws.recycle_tensor(d_a1);
                let out = self.bn1.backward_ws(&d_out1, ws);
                ws.recycle_tensor(d_out1);
                out
            }
            None => {
                let d_out1 = self.relu1.backward_ws(&d_a1_main, ws);
                ws.recycle_tensor(d_a1_main);
                let mut dx = self.bn1.backward_ws(&d_out1, ws);
                ws.recycle_tensor(d_out1);
                dx.add_assign(grad_out); // identity shortcut
                dx
            }
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.bn1.visit_params(f);
        self.conv1.visit_params(f);
        self.bn2.visit_params(f);
        self.conv2.visit_params(f);
        if let Some(sc) = &mut self.shortcut {
            sc.visit_params(f);
        }
    }

    fn set_precision(&mut self, p: Option<Precision>) {
        self.bn1.set_precision(p);
        self.conv1.set_precision(p);
        self.bn2.set_precision(p);
        self.conv2.set_precision(p);
        if let Some(sc) = &mut self.shortcut {
            sc.set_precision(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn::BatchNorm2d;

    fn plain_bn(c: usize) -> Box<dyn Layer> {
        Box::new(BatchNorm2d::new(c))
    }

    #[test]
    fn identity_block_shapes() {
        let mut rng = SeededRng::new(1);
        let mut b = PreActBlock::new(4, 4, 1, &plain_bn, &mut rng);
        assert!(b.shortcut.is_none());
        let x = Tensor::randn(&[2, 4, 6, 6], 1.0, &mut rng);
        let y = b.forward(&x, Mode::Train);
        assert_eq!(y.shape(), x.shape());
        let gx = b.backward(&Tensor::ones(y.shape()));
        assert_eq!(gx.shape(), x.shape());
    }

    #[test]
    fn downsample_block_shapes() {
        let mut rng = SeededRng::new(2);
        let mut b = PreActBlock::new(4, 8, 2, &plain_bn, &mut rng);
        assert!(b.shortcut.is_some());
        let x = Tensor::randn(&[1, 4, 8, 8], 1.0, &mut rng);
        let y = b.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[1, 8, 4, 4]);
        let gx = b.backward(&Tensor::ones(y.shape()));
        assert_eq!(gx.shape(), x.shape());
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = SeededRng::new(3);
        let mut b = PreActBlock::new(2, 2, 1, &plain_bn, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        // Use eval mode so BN is a per-sample-independent linear map and
        // finite differences are clean.
        let _ = b.forward(&x, Mode::Eval);
        let gx = b.backward(&w);
        let eps = 1e-3;
        for idx in [0usize, 9, 21] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = b.forward(&xp, Mode::Eval).mul(&w).sum();
            let lm = b.forward(&xm, Mode::Eval).mul(&w).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 3e-2,
                "idx {}: fd {} vs analytic {}",
                idx,
                fd,
                gx.data()[idx]
            );
        }
    }

    #[test]
    fn precision_propagates_to_subconvs() {
        let mut rng = SeededRng::new(4);
        let mut b = PreActBlock::new(2, 2, 1, &plain_bn, &mut rng);
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let y_fp = b.forward(&x, Mode::Eval);
        b.set_precision(Some(Precision::new(3)));
        let y_q = b.forward(&x, Mode::Eval);
        assert!(
            y_fp.sub(&y_q).norm() > 0.0,
            "quantization must change output"
        );
    }
}
