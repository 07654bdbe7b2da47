//! The `Layer` trait, training mode, and learnable parameters.

use tia_quant::Precision;
use tia_tensor::{Tensor, Workspace};

/// Forward-pass mode: training (update BN batch stats, cache for backward),
/// evaluation (use running stats), or pure inference serving.
///
/// Note that adversarial example *generation* runs in `Eval` mode but still
/// needs backward passes for input gradients; layers therefore cache
/// backward state in `Train` *and* `Eval`. `Infer` is the serving engine's
/// mode: frozen statistics like `Eval`, but layers skip every backward
/// cache — no im2col column retention, no activation masks — so
/// steady-state serving touches no training-only state and recycles every
/// intermediate. Calling `backward` after an `Infer` forward panics.
///
/// `Infer` is not numerically `Eval`: a quantized layer at 2–8 bits whose
/// reduction depth is past the crossover runs the true-integer GEMM in
/// `Infer` and the f32 fake-quant path in `Eval`, and the two grids round
/// differently (`pack_memo::integer_path` decides). Every other layer,
/// precision and depth computes `Eval`'s values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: batch statistics, running-stat updates.
    Train,
    /// Evaluation: frozen running statistics, backward caches retained
    /// (attacks differentiate through eval-mode forwards).
    Eval,
    /// Inference serving: frozen running statistics, **no** backward caches.
    Infer,
}

impl Mode {
    /// Whether layers must retain what `backward` needs.
    pub fn caches_backward(self) -> bool {
        !matches!(self, Mode::Infer)
    }
}

/// A learnable parameter: value, gradient accumulator and SGD momentum
/// buffer.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value (the fp32 "master copy" in quantization-aware training).
    pub value: Tensor,
    /// Accumulated gradient.
    pub grad: Tensor,
    /// SGD momentum buffer.
    pub velocity: Tensor,
    /// Whether weight decay applies (true for weights, false for BN/bias).
    pub decay: bool,
}

impl Param {
    /// Creates a parameter with zeroed gradient and momentum.
    pub fn new(value: Tensor, decay: bool) -> Self {
        let grad = Tensor::zeros(value.shape());
        let velocity = Tensor::zeros(value.shape());
        Self {
            value,
            grad,
            velocity,
            decay,
        }
    }

    /// Zeroes the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.map_in_place(|_| 0.0);
    }
}

/// A differentiable network layer.
///
/// Layers own their parameters and backward caches. `forward` must be called
/// before `backward`; `backward` consumes the cache of the most recent
/// forward and *accumulates* parameter gradients (callers zero them between
/// optimizer steps).
///
/// `Send` is a supertrait so a `Network` (a `Vec<Box<dyn Layer>>`) can move
/// onto a worker thread of the sharded serving runtime; layers are plain
/// owned data, so every implementation satisfies it for free.
pub trait Layer: std::fmt::Debug + Send {
    /// Computes the layer output, caching whatever `backward` needs (unless
    /// `mode` is [`Mode::Infer`]). Convenience wrapper over
    /// [`Layer::forward_ws`] with a throwaway workspace — hot paths
    /// (`Network`, the serving engine) call `forward_ws` with a long-lived
    /// arena instead.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_ws(x, mode, &mut Workspace::new())
    }

    /// Computes the layer output with scratch (and the output tensor's
    /// storage) drawn from `ws`. The returned tensor is the caller's to
    /// recycle; everything else the layer takes from `ws` it returns before
    /// this call ends, so a warm workspace makes the call allocation-free.
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor;

    /// Propagates `grad_out` to the layer input, accumulating parameter
    /// gradients along the way. Convenience wrapper over
    /// [`Layer::backward_ws`] with a throwaway workspace.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called without a preceding `forward`
    /// (which is always the case after a [`Mode::Infer`] forward).
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_ws(grad_out, &mut Workspace::new())
    }

    /// [`Layer::backward`] with scratch drawn from `ws`; the returned input
    /// gradient is the caller's to recycle.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called without a preceding `forward`.
    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor;

    /// Visits every learnable parameter (used by optimizers and grad-zeroing).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Sets the execution precision: `Some(p)` quantizes weights and
    /// activations at `p` bits — f32 fake quantization, or the integer GEMM
    /// where an `Infer` forward takes the integer path (see [`Mode`]);
    /// `None` runs full precision. Layers without quantized arithmetic
    /// ignore this, except switchable BN which selects its per-precision
    /// statistics.
    fn set_precision(&mut self, _p: Option<Precision>) {}

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }

    /// Clones the layer behind the trait object — what makes a trained
    /// `Network` replicable across the shards of the serving runtime.
    /// Implementations are one line: `Box::new(self.clone())`.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_new_zeroes_buffers() {
        let p = Param::new(Tensor::ones(&[3]), true);
        assert_eq!(p.grad.data(), &[0.0, 0.0, 0.0]);
        assert_eq!(p.velocity.data(), &[0.0, 0.0, 0.0]);
        assert!(p.decay);
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Param::new(Tensor::ones(&[2]), false);
        p.grad = Tensor::ones(&[2]);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }
}
