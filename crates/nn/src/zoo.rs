//! Model zoo: trainable (reduced-scale) versions of the paper's networks.
//!
//! The paper trains PreActResNet-18 and WideResNet-32 on CIFAR-scale data and
//! ResNet-50 on ImageNet. This reproduction keeps the *topologies*
//! (pre-activation residual stages, stride schedule, BN placement — including
//! switchable BN for RPS) but exposes width/depth scale knobs so adversarial
//! training runs at laptop scale. Full-size layer shapes for the accelerator
//! experiments live in [`crate::workload`] instead.
//!
//! ResNet-50's bottleneck blocks are substituted with pre-activation basic
//! blocks at matched depth-per-stage (see docs/ARCHITECTURE.md
//! "Substitutions"): the RPS algorithm is agnostic to the block flavour,
//! and the accelerator side uses the true bottleneck shape table.

use crate::bn::{BatchNorm2d, SwitchableBatchNorm};
use crate::conv_layer::Conv2d;
use crate::flatten::Flatten;
use crate::layer::Layer;
use crate::linear::Linear;
use crate::network::Network;
use crate::pool_layer::GlobalAvgPool;
use crate::residual::PreActBlock;
use crate::ReLU;
use tia_quant::PrecisionSet;
use tia_tensor::{Conv2dGeometry, SeededRng};

/// Which batch-norm flavour a model uses.
#[derive(Debug, Clone)]
pub enum BnKind {
    /// One set of statistics (standard adversarial training baselines).
    Plain,
    /// Switchable BN with one state per candidate precision (RPS training).
    Switchable(PrecisionSet),
}

impl BnKind {
    fn factory(&self) -> impl Fn(usize) -> Box<dyn Layer> + '_ {
        move |c: usize| -> Box<dyn Layer> {
            match self {
                BnKind::Plain => Box::new(BatchNorm2d::new(c)),
                BnKind::Switchable(set) => Box::new(SwitchableBatchNorm::new(c, set.clone())),
            }
        }
    }
}

/// Configuration of a pre-activation ResNet.
#[derive(Debug, Clone)]
pub struct PreActResNetConfig {
    /// Input channels (3 for the image profiles).
    pub in_channels: usize,
    /// Output classes.
    pub classes: usize,
    /// Width of the first stage; stage `i` has width `base_width << i`.
    pub base_width: usize,
    /// Residual blocks per stage.
    pub stage_blocks: Vec<usize>,
    /// Stride of the first block in each stage.
    pub stage_strides: Vec<usize>,
    /// BN flavour.
    pub bn: BnKind,
}

impl PreActResNetConfig {
    /// PreActResNet-18 topology (4 stages × 2 blocks) at a given width.
    pub fn resnet18(in_channels: usize, base_width: usize, classes: usize, bn: BnKind) -> Self {
        Self {
            in_channels,
            classes,
            base_width,
            stage_blocks: vec![2, 2, 2, 2],
            stage_strides: vec![1, 2, 2, 2],
            bn,
        }
    }

    /// A reduced-depth WideResNet-32 (3 stages × 2 blocks) for fast tests.
    pub fn wide_resnet32_lite(
        in_channels: usize,
        base_width: usize,
        classes: usize,
        bn: BnKind,
    ) -> Self {
        Self {
            in_channels,
            classes,
            base_width,
            stage_blocks: vec![2, 2, 2],
            stage_strides: vec![1, 2, 2],
            bn,
        }
    }

    /// ResNet-50-lite: 4 stages with `[3,4,6,3]` basic blocks (bottleneck
    /// substitution: docs/ARCHITECTURE.md "Substitutions").
    pub fn resnet50(in_channels: usize, base_width: usize, classes: usize, bn: BnKind) -> Self {
        Self {
            in_channels,
            classes,
            base_width,
            stage_blocks: vec![3, 4, 6, 3],
            stage_strides: vec![1, 2, 2, 2],
            bn,
        }
    }
}

/// Builds a pre-activation ResNet from a config.
///
/// # Panics
///
/// Panics if `stage_blocks` and `stage_strides` lengths differ or are empty.
pub fn preact_resnet(cfg: &PreActResNetConfig, rng: &mut SeededRng) -> Network {
    assert_eq!(
        cfg.stage_blocks.len(),
        cfg.stage_strides.len(),
        "stage_blocks/stage_strides mismatch"
    );
    assert!(!cfg.stage_blocks.is_empty(), "need at least one stage");
    let bn = cfg.bn.factory();
    let mut net = Network::new();
    // Stem: 3x3 conv, CIFAR-style (no max-pool).
    net.push(Box::new(Conv2d::new(
        Conv2dGeometry::new(cfg.in_channels, cfg.base_width, 3, 1, 1),
        false,
        rng,
    )));
    let mut ch = cfg.base_width;
    for (stage, (&blocks, &stride)) in cfg.stage_blocks.iter().zip(&cfg.stage_strides).enumerate() {
        let out_ch = cfg.base_width << stage;
        for b in 0..blocks {
            let s = if b == 0 { stride } else { 1 };
            net.push(Box::new(PreActBlock::new(ch, out_ch, s, &bn, rng)));
            ch = out_ch;
        }
    }
    // Head: BN + ReLU + GAP + Linear.
    net.push(bn(ch));
    net.push(Box::new(ReLU::new()));
    net.push(Box::new(GlobalAvgPool::new()));
    net.push(Box::new(Flatten::new()));
    net.push(Box::new(Linear::new(ch, cfg.classes, true, rng)));
    net
}

/// PreActResNet-18 with plain BN at a reduced width (trainable at laptop
/// scale). `base_width` 8–16 reproduces the paper's qualitative results.
pub fn preact_resnet18_lite(
    in_channels: usize,
    base_width: usize,
    classes: usize,
    rng: &mut SeededRng,
) -> Network {
    preact_resnet(
        &PreActResNetConfig::resnet18(in_channels, base_width, classes, BnKind::Plain),
        rng,
    )
}

/// PreActResNet-18 with switchable BN over `set` (for RPS training).
pub fn preact_resnet18_rps(
    in_channels: usize,
    base_width: usize,
    classes: usize,
    set: PrecisionSet,
    rng: &mut SeededRng,
) -> Network {
    preact_resnet(
        &PreActResNetConfig::resnet18(in_channels, base_width, classes, BnKind::Switchable(set)),
        rng,
    )
}

/// Reduced-depth WideResNet-32 with plain BN.
pub fn wide_resnet32_lite(
    in_channels: usize,
    base_width: usize,
    classes: usize,
    rng: &mut SeededRng,
) -> Network {
    preact_resnet(
        &PreActResNetConfig::wide_resnet32_lite(in_channels, base_width, classes, BnKind::Plain),
        rng,
    )
}

/// Reduced-depth WideResNet-32 with switchable BN over `set`.
pub fn wide_resnet32_rps(
    in_channels: usize,
    base_width: usize,
    classes: usize,
    set: PrecisionSet,
    rng: &mut SeededRng,
) -> Network {
    preact_resnet(
        &PreActResNetConfig::wide_resnet32_lite(
            in_channels,
            base_width,
            classes,
            BnKind::Switchable(set),
        ),
        rng,
    )
}

/// ResNet-50-lite with plain BN (ImageNet-lite experiments).
pub fn resnet50_lite(
    in_channels: usize,
    base_width: usize,
    classes: usize,
    rng: &mut SeededRng,
) -> Network {
    preact_resnet(
        &PreActResNetConfig::resnet50(in_channels, base_width, classes, BnKind::Plain),
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use tia_quant::Precision;
    use tia_tensor::Tensor;

    #[test]
    fn resnet18_lite_forward_shape() {
        let mut rng = SeededRng::new(1);
        let mut net = preact_resnet18_lite(3, 4, 10, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn resnet18_has_expected_block_count() {
        let mut rng = SeededRng::new(2);
        let net = preact_resnet18_lite(3, 4, 10, &mut rng);
        // stem + 8 blocks + head(BN, ReLU, GAP, Flatten, Linear) = 14
        assert_eq!(net.depth(), 14);
    }

    #[test]
    fn wrn_lite_forward_and_backward() {
        let mut rng = SeededRng::new(3);
        let mut net = wide_resnet32_lite(3, 4, 10, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let (loss, gx) = net.loss_and_input_grad(&x, &[1, 2], Mode::Train);
        assert!(loss.is_finite());
        assert_eq!(gx.shape(), x.shape());
        assert!(gx.norm() > 0.0);
    }

    #[test]
    fn rps_model_switches_precision_everywhere() {
        let mut rng = SeededRng::new(4);
        let set = PrecisionSet::new(&[4, 8]);
        let mut net = preact_resnet18_rps(3, 4, 10, set, &mut rng);
        let x = Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, &mut rng);
        net.set_precision(Some(Precision::new(4)));
        let y4 = net.forward(&x, Mode::Eval);
        net.set_precision(Some(Precision::new(8)));
        let y8 = net.forward(&x, Mode::Eval);
        assert!(y4.sub(&y8).norm() > 0.0, "different precisions must differ");
        assert_eq!(net.precision(), Some(Precision::new(8)));
    }

    #[test]
    fn generic_config_validates() {
        let cfg = PreActResNetConfig {
            in_channels: 3,
            classes: 2,
            base_width: 2,
            stage_blocks: vec![1],
            stage_strides: vec![1],
            bn: BnKind::Plain,
        };
        let mut rng = SeededRng::new(5);
        let mut net = preact_resnet(&cfg, &mut rng);
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 2]);
    }
}
