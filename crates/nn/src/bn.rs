//! Batch normalization, plain and switchable (SBN, paper §2.4).
//!
//! §2.4: "the multiplication and addition operations of SBN can be fused
//! into the scale factors of linear quantizers and the model bias". Eval
//! mode is that per-channel affine (a test below checks it); the serving
//! path does not fuse it yet and runs BN as its own pass.

use crate::layer::{Layer, Mode, Param};
use tia_quant::{Precision, PrecisionSet};
use tia_tensor::{simd, AlignedBuf, Tensor, Workspace};

const BN_EPS: f32 = 1e-5;
const BN_MOMENTUM: f32 = 0.2;

/// One set of BN statistics + affine parameters.
#[derive(Debug, Clone)]
struct BnCore {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
}

impl BnCore {
    fn new(channels: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::ones(&[channels]), false),
            beta: Param::new(Tensor::zeros(&[channels]), false),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
        }
    }
}

#[derive(Debug, Clone)]
struct BnCache {
    xhat: Tensor,
    inv_std: AlignedBuf,
    mode: Mode,
    count: usize, // N * H * W per channel
}

// tia-lint: hot-path(begin)
fn bn_forward(
    core: &mut BnCore,
    cache: &mut Option<BnCache>,
    x: &Tensor,
    mode: Mode,
    ws: &mut Workspace,
) -> Tensor {
    assert_eq!(x.shape().len(), 4, "BatchNorm expects NCHW");
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let count = n * h * w;
    // Recycle the previous forward's cache storage before building (or
    // skipping) this one.
    if let Some(old) = cache.take() {
        ws.recycle_tensor(old.xhat);
        ws.recycle(old.inv_std);
    }
    let hw = h * w;
    let mut out = ws.tensor_spare(x.shape());
    // In Infer mode the normalized activations are not retained — backward
    // is never coming, so the layer writes the output alone.
    let mut xhat = mode.caches_backward().then(|| ws.tensor_spare(x.shape()));
    let mut inv_stds = ws.take_zeroed(c);
    // The no-cache (Infer) rows dispatch to the SIMD backend; its `bn_row`
    // applies the operations in the exact order of the scalar expression
    // below, so every backend gives the scalar bits.
    let ops = simd::backend(ws.kernel());
    // All loops walk the contiguous per-(image, channel) rows of NCHW
    // directly — same element order (hence bitwise-identical accumulation)
    // as an elementwise traversal, without per-element index arithmetic.
    #[allow(clippy::needless_range_loop)] // ci indexes x, stats and inv_stds together
    for ci in 0..c {
        let (mean, var) = match mode {
            Mode::Train => {
                let mut s = 0.0;
                for ni in 0..n {
                    for &v in &x.data()[(ni * c + ci) * hw..(ni * c + ci + 1) * hw] {
                        s += v;
                    }
                }
                let mean = s / count as f32;
                let mut v = 0.0;
                for ni in 0..n {
                    for &xv in &x.data()[(ni * c + ci) * hw..(ni * c + ci + 1) * hw] {
                        let d = xv - mean;
                        v += d * d;
                    }
                }
                let var = v / count as f32;
                core.running_mean.data_mut()[ci] =
                    (1.0 - BN_MOMENTUM) * core.running_mean.data()[ci] + BN_MOMENTUM * mean;
                core.running_var.data_mut()[ci] =
                    (1.0 - BN_MOMENTUM) * core.running_var.data()[ci] + BN_MOMENTUM * var;
                (mean, var)
            }
            Mode::Eval | Mode::Infer => (core.running_mean.data()[ci], core.running_var.data()[ci]),
        };
        let inv_std = 1.0 / (var + BN_EPS).sqrt();
        inv_stds[ci] = inv_std;
        let g = core.gamma.value.data()[ci];
        let b = core.beta.value.data()[ci];
        for ni in 0..n {
            let (rs, re) = ((ni * c + ci) * hw, (ni * c + ci + 1) * hw);
            let xrow = &x.data()[rs..re];
            match xhat.as_mut() {
                Some(xhat) => {
                    let xhrow = &mut xhat.data_mut()[rs..re];
                    let orow = &mut out.data_mut()[rs..re];
                    for ((xh, o), &xv) in xhrow.iter_mut().zip(orow.iter_mut()).zip(xrow) {
                        let v = (xv - mean) * inv_std;
                        *xh = v;
                        *o = g * v + b;
                    }
                }
                None => {
                    let orow = &mut out.data_mut()[rs..re];
                    ops.bn_row(xrow, orow, mean, inv_std, g, b);
                }
            }
        }
    }
    match xhat {
        Some(xhat) => {
            *cache = Some(BnCache {
                xhat,
                inv_std: inv_stds,
                mode,
                count,
            });
        }
        None => ws.recycle(inv_stds),
    }
    out
}
// tia-lint: hot-path(end)

fn bn_backward(
    core: &mut BnCore,
    cache: &Option<BnCache>,
    grad_out: &Tensor,
    ws: &mut Workspace,
) -> Tensor {
    let cache = cache.as_ref().expect("BatchNorm::backward before forward");
    let (n, c, h, w) = (
        grad_out.shape()[0],
        grad_out.shape()[1],
        grad_out.shape()[2],
        grad_out.shape()[3],
    );
    let hw = h * w;
    let mut grad_in = ws.tensor_spare(grad_out.shape());
    let m = cache.count as f32;
    // Contiguous-row traversal, same element order as the elementwise loops
    // (see bn_forward).
    for ci in 0..c {
        let g = core.gamma.value.data()[ci];
        let inv_std = cache.inv_std[ci];
        // Accumulate the two reductions.
        let mut sum_dy = 0.0;
        let mut sum_dy_xhat = 0.0;
        for ni in 0..n {
            let row = (ni * c + ci) * hw..(ni * c + ci + 1) * hw;
            for (&dy, &xh) in grad_out.data()[row.clone()]
                .iter()
                .zip(&cache.xhat.data()[row])
            {
                sum_dy += dy;
                sum_dy_xhat += dy * xh;
            }
        }
        core.gamma.grad.data_mut()[ci] += sum_dy_xhat;
        core.beta.grad.data_mut()[ci] += sum_dy;
        match cache.mode {
            Mode::Train => {
                for ni in 0..n {
                    let row = (ni * c + ci) * hw..(ni * c + ci + 1) * hw;
                    let dyrow = &grad_out.data()[row.clone()];
                    let xhrow = &cache.xhat.data()[row.clone()];
                    for ((o, &dy), &xh) in grad_in.data_mut()[row].iter_mut().zip(dyrow).zip(xhrow)
                    {
                        *o = g * inv_std * (dy - sum_dy / m - xh * sum_dy_xhat / m);
                    }
                }
            }
            Mode::Eval | Mode::Infer => {
                // Running statistics are constants outside training (an
                // Infer cache never exists, so that arm is unreachable).
                for ni in 0..n {
                    let row = (ni * c + ci) * hw..(ni * c + ci + 1) * hw;
                    let dyrow = &grad_out.data()[row.clone()];
                    for (o, &dy) in grad_in.data_mut()[row].iter_mut().zip(dyrow) {
                        *o = g * inv_std * dy;
                    }
                }
            }
        }
    }
    grad_in
}

/// Plain batch normalization over NCHW (one set of statistics).
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    core: BnCore,
    cache: Option<BnCache>,
}

impl BatchNorm2d {
    /// Creates a BN layer for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        Self {
            core: BnCore::new(channels),
            cache: None,
        }
    }
}

impl Layer for BatchNorm2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        bn_forward(&mut self.core, &mut self.cache, x, mode, ws)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        bn_backward(&mut self.core, &self.cache, grad_out, ws)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.core.gamma);
        f(&mut self.core.beta);
    }
}

/// Switchable batch normalization: independent statistics and affine
/// parameters per candidate precision (paper §2.4, following AdaBits /
/// Switchable Precision Networks).
///
/// `set_precision(Some(p))` activates the slot whose precision is nearest to
/// `p` (exact match for members of the candidate set); `set_precision(None)`
/// activates the highest-precision slot. During inference the extra
/// multiplication/addition of SBN can be folded into the linear quantizer's
/// scale factors and the layer bias (paper §2.4), so SBN costs the
/// accelerator nothing — the simulator side therefore models no extra
/// modules for it.
#[derive(Debug, Clone)]
pub struct SwitchableBatchNorm {
    states: Vec<BnCore>,
    set: PrecisionSet,
    active: usize,
    cache: Option<BnCache>,
}

impl SwitchableBatchNorm {
    /// Creates an SBN layer with one state per precision in `set`.
    pub fn new(channels: usize, set: PrecisionSet) -> Self {
        let states = (0..set.len()).map(|_| BnCore::new(channels)).collect();
        let active = set.len() - 1;
        Self {
            states,
            set,
            active,
            cache: None,
        }
    }

    fn slot_for(&self, p: Precision) -> usize {
        let mut best = 0;
        let mut best_d = u8::MAX;
        for (i, cand) in self.set.iter().enumerate() {
            let d = cand.bits().abs_diff(p.bits());
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

impl Layer for SwitchableBatchNorm {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        bn_forward(&mut self.states[self.active], &mut self.cache, x, mode, ws)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        bn_backward(&mut self.states[self.active], &self.cache, grad_out, ws)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // Visit all slots so the optimizer can apply decay/zero-grad
        // uniformly; only the active slot accumulates gradients.
        for s in &mut self.states {
            f(&mut s.gamma);
            f(&mut s.beta);
        }
    }

    fn set_precision(&mut self, p: Option<Precision>) {
        self.active = match p {
            Some(p) => self.slot_for(p),
            None => self.states.len() - 1,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_tensor::SeededRng;

    #[test]
    fn train_forward_normalizes() {
        let mut rng = SeededRng::new(1);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[4, 2, 3, 3], 3.0, &mut rng);
        let y = bn.forward(&x, Mode::Train);
        // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
        for c in 0..2 {
            let mut vals = vec![];
            for n in 0..4 {
                for h in 0..3 {
                    for w in 0..3 {
                        vals.push(y.at4(n, c, h, w));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {}", mean);
            assert!((var - 1.0).abs() < 1e-2, "var {}", var);
        }
    }

    /// Eval-mode BN is the per-channel affine
    /// `x·γ/√(var+ε) + (β − γ·mean/√(var+ε))` that §2.4 folds away.
    #[test]
    fn eval_forward_is_the_folded_affine() {
        let mut rng = SeededRng::new(1);
        let mut bn = BatchNorm2d::new(3);
        // Burn in non-trivial running stats and random affine params.
        let x_train = Tensor::randn(&[8, 3, 4, 4], 2.0, &mut rng);
        for _ in 0..30 {
            let _ = bn.forward(&x_train, Mode::Train);
        }
        bn.visit_params(&mut |p| {
            let noise = Tensor::randn(p.value.shape(), 0.3, &mut rng);
            p.value.add_assign(&noise);
        });
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        let y_bn = bn.forward(&x, Mode::Eval);
        let c = &bn.core;
        let mut err = 0f32;
        for (i, (&v, &y)) in x.data().iter().zip(y_bn.data()).enumerate() {
            let ch = (i / 16) % 3;
            let scale = c.gamma.value.data()[ch] / (c.running_var.data()[ch] + BN_EPS).sqrt();
            let bias = c.beta.value.data()[ch] - scale * c.running_mean.data()[ch];
            err = err.max((scale * v + bias - y).abs());
        }
        assert!(
            err < 1e-4,
            "folded BN must match eval BN exactly, err {err}"
        );
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = SeededRng::new(2);
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::randn(&[8, 1, 2, 2], 1.0, &mut rng);
        // Burn in running stats.
        for _ in 0..50 {
            let _ = bn.forward(&x, Mode::Train);
        }
        let y_train = bn.forward(&x, Mode::Train);
        let y_eval = bn.forward(&x, Mode::Eval);
        // After burn-in they should be close.
        assert!(y_train.sub(&y_eval).abs_max() < 0.2);
    }

    #[test]
    fn train_backward_matches_finite_difference() {
        let mut rng = SeededRng::new(3);
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::randn(&[2, 1, 2, 2], 1.0, &mut rng);
        // Loss = sum(bn(x) * w) with fixed random w to break symmetry.
        let wvec = Tensor::randn(&[2, 1, 2, 2], 1.0, &mut rng);
        let y = bn.forward(&x, Mode::Train);
        let _ = y; // forward populates cache
        let gx = bn.backward(&wvec);
        let eps = 1e-3;
        for idx in [0usize, 3, 6] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp: f32 = bn.forward(&xp, Mode::Train).mul(&wvec).sum();
            let lm: f32 = bn.forward(&xm, Mode::Train).mul(&wvec).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 2e-2,
                "idx {}: {} vs {}",
                idx,
                fd,
                gx.data()[idx]
            );
        }
    }

    #[test]
    fn sbn_keeps_independent_statistics() {
        let set = PrecisionSet::new(&[4, 8]);
        let mut sbn = SwitchableBatchNorm::new(1, set);
        let x_low = Tensor::full(&[2, 1, 2, 2], 5.0);
        let x_high = Tensor::full(&[2, 1, 2, 2], -5.0);
        sbn.set_precision(Some(Precision::new(4)));
        for _ in 0..20 {
            let _ = sbn.forward(&x_low, Mode::Train);
        }
        sbn.set_precision(Some(Precision::new(8)));
        for _ in 0..20 {
            let _ = sbn.forward(&x_high, Mode::Train);
        }
        // Running means must differ strongly between slots.
        let m4 = sbn.states[0].running_mean.data()[0];
        let m8 = sbn.states[1].running_mean.data()[0];
        assert!(m4 > 2.0, "slot-4 mean {}", m4);
        assert!(m8 < -2.0, "slot-8 mean {}", m8);
    }

    #[test]
    fn sbn_nearest_slot_selection() {
        let set = PrecisionSet::new(&[4, 8, 16]);
        let mut sbn = SwitchableBatchNorm::new(1, set);
        sbn.set_precision(Some(Precision::new(5)));
        assert_eq!(sbn.active, 0); // 5 is nearest 4
        sbn.set_precision(Some(Precision::new(7)));
        assert_eq!(sbn.active, 1); // 7 is nearest 8
        sbn.set_precision(None);
        assert_eq!(sbn.active, 2); // full precision -> highest
    }

    #[test]
    fn eval_backward_is_linear_scaling() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let _ = bn.forward(&x, Mode::Eval);
        let g = Tensor::ones(&[1, 1, 2, 2]);
        let gx = bn.backward(&g);
        // gamma=1, running_var=1 -> inv_std ~ 1, so gradient passes scaled ~1.
        for v in gx.data() {
            assert!((v - 1.0).abs() < 1e-3);
        }
    }
}
