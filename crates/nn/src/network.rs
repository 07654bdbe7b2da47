//! Sequential network container.

use crate::layer::{Layer, Mode, Param};
use crate::loss::{cross_entropy, LossGrad};
use tia_quant::Precision;
use tia_tensor::{KernelMode, Tensor, Workspace};

/// A sequential network of layers (blocks are layers too).
///
/// Besides plain forward/backward, `Network` provides the two compound
/// operations the rest of the workspace is built on:
///
/// * [`Network::loss_and_input_grad`] — one forward + cross-entropy +
///   backward returning the gradient w.r.t. the *input*, the primitive for
///   every gradient-based adversarial attack, and
/// * [`Network::set_precision`] — the in-situ precision switch broadcast to
///   every quantization-aware layer and SBN.
///
/// The network owns a [`Workspace`] scratch arena threaded through every
/// layer's `forward_ws`/`backward_ws`; each intermediate activation is
/// recycled as soon as the next layer has consumed it, so a warm forward
/// pass at a seen shape/precision allocates nothing but the returned output
/// (and callers can hand even that back via [`Network::recycle`]). Cloning
/// a network — replicating a trained model across serving shards — clones
/// the layers but starts the replica with an empty workspace; each shard
/// warms its own.
#[derive(Debug, Default, Clone)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    precision: Option<Precision>,
    ws: Workspace,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self {
            layers: Vec::new(),
            precision: None,
            ws: Workspace::new(),
        }
    }

    /// Returns an output tensor's storage to the network's scratch arena.
    /// Serving loops that discard logits after reading them call this to
    /// close the reuse cycle and make steady-state inference allocation-free.
    pub fn recycle(&mut self, t: Tensor) {
        self.ws.recycle_tensor(t);
    }

    /// Appends a layer (builder style).
    pub fn push(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers (blocks count as one).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Currently active execution precision (None = full precision).
    pub fn precision(&self) -> Option<Precision> {
        self.precision
    }

    /// The kernel dispatch mode of the network's workspace.
    pub fn kernel(&self) -> KernelMode {
        self.ws.kernel()
    }

    /// Sets the kernel dispatch mode threaded to every layer via the
    /// workspace: `KernelMode::Scalar` runs the portable loops, `Native`
    /// the runtime-detected SIMD backend. A speed choice only — every
    /// forward, backward and served logit is the same bits under either.
    pub fn set_kernel(&mut self, k: KernelMode) {
        self.ws.set_kernel(k);
    }

    /// Runs the forward pass, returning logits. Intermediate activations
    /// live in (and return to) the network's workspace; the returned tensor
    /// is the caller's, ideally handed back via [`Network::recycle`].
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut iter = self.layers.iter_mut();
        let mut cur = match iter.next() {
            Some(first) => first.forward_ws(x, mode, &mut self.ws),
            None => return x.clone(),
        };
        for layer in iter {
            let next = layer.forward_ws(&cur, mode, &mut self.ws);
            self.ws.recycle_tensor(cur);
            cur = next;
        }
        cur
    }

    /// Backpropagates `grad_logits`, accumulating parameter gradients and
    /// returning the gradient w.r.t. the network input.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let mut iter = self.layers.iter_mut().rev();
        let mut cur = match iter.next() {
            Some(last) => last.backward_ws(grad_logits, &mut self.ws),
            None => return grad_logits.clone(),
        };
        for layer in iter {
            let next = layer.backward_ws(&cur, &mut self.ws);
            self.ws.recycle_tensor(cur);
            cur = next;
        }
        cur
    }

    /// Forward + cross-entropy + backward; returns `(loss, d loss/d input)`.
    pub fn loss_and_input_grad(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        mode: Mode,
    ) -> (f32, Tensor) {
        let logits = self.forward(x, mode);
        let LossGrad { loss, grad } = cross_entropy(&logits, labels);
        let gx = self.backward(&grad);
        (loss, gx)
    }

    /// Forward in eval mode and count of correct top-1 predictions.
    pub fn correct_count(&mut self, x: &Tensor, labels: &[usize]) -> usize {
        let logits = self.forward(x, Mode::Eval);
        tia_tensor::count_top1_correct(&logits, labels)
    }

    /// Broadcasts an execution precision to every layer.
    pub fn set_precision(&mut self, p: Option<Precision>) {
        self.precision = p;
        for layer in &mut self.layers {
            layer.set_precision(p);
        }
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Visits every parameter in the network.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Total scalar parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::ReLU;
    use crate::linear::Linear;
    use tia_tensor::SeededRng;

    fn tiny_mlp(rng: &mut SeededRng) -> Network {
        let mut net = Network::new();
        net.push(Box::new(Linear::new(8, 16, true, rng)));
        net.push(Box::new(ReLU::new()));
        net.push(Box::new(Linear::new(16, 3, true, rng)));
        net
    }

    #[test]
    fn forward_shape_and_param_count() {
        let mut rng = SeededRng::new(1);
        let mut net = tiny_mlp(&mut rng);
        let x = Tensor::randn(&[4, 8], 1.0, &mut rng);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[4, 3]);
        assert_eq!(net.param_count(), 8 * 16 + 16 + 16 * 3 + 3);
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = SeededRng::new(2);
        let mut net = tiny_mlp(&mut rng);
        let x = Tensor::randn(&[8, 8], 1.0, &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let (loss0, _) = net.loss_and_input_grad(&x, &labels, Mode::Train);
        // A few plain gradient-descent steps.
        for _ in 0..30 {
            net.zero_grad();
            let _ = net.loss_and_input_grad(&x, &labels, Mode::Train);
            net.visit_params(&mut |p| {
                let g = p.grad.clone();
                p.value.axpy(-0.1, &g);
            });
        }
        net.zero_grad();
        let (loss1, _) = net.loss_and_input_grad(&x, &labels, Mode::Train);
        assert!(
            loss1 < loss0 * 0.8,
            "loss did not drop: {} -> {}",
            loss0,
            loss1
        );
    }

    #[test]
    fn input_grad_flows_to_input() {
        let mut rng = SeededRng::new(3);
        let mut net = tiny_mlp(&mut rng);
        let x = Tensor::randn(&[2, 8], 1.0, &mut rng);
        let (_, gx) = net.loss_and_input_grad(&x, &[0, 1], Mode::Eval);
        assert_eq!(gx.shape(), x.shape());
        assert!(gx.norm() > 0.0, "input gradient must be non-zero");
    }

    #[test]
    fn correct_count_bounds() {
        let mut rng = SeededRng::new(4);
        let mut net = tiny_mlp(&mut rng);
        let x = Tensor::randn(&[5, 8], 1.0, &mut rng);
        let labels = vec![0, 1, 2, 0, 1];
        let c = net.correct_count(&x, &labels);
        assert!(c <= 5);
    }
}
