//! The two model sizes the workloads serve, their seed-derived inputs, and
//! their layer shapes (for kernel replay and for the accelerator simulator).

use tia_nn::zoo::{preact_resnet, BnKind, PreActResNetConfig};
use tia_nn::{LayerKind, LayerSpec, Network, NetworkSpec};
use tia_quant::PrecisionSet;
use tia_tensor::{Conv2dGeometry, SeededRng, Tensor};

pub const CLASSES: usize = 10;
pub const CHANNELS: usize = 3;

/// Seed of every precision-switch stream (the engines' policy RNG, the
/// attacker's and defender's draws in `robust_eval`). The schedule is the
/// deployment's secret, not an input of the workload, so it does not follow
/// `--seed`: every run serves the same schedule and differs in weights,
/// images and data. A seed-dependent schedule changes the batch mix and the
/// buffer sizes with it, which showed as run-to-run spread in throughput
/// and, most of all, in peak memory (±7 % on `engine_wide`).
pub const POLICY_SEED: u64 = 7;

/// The paper's RPS candidate set used throughout: 4 to 8 bit.
pub fn rps_set() -> PrecisionSet {
    PrecisionSet::range(4, 8)
}

/// A PreActResNet-18 (switchable BN over [`rps_set`]) at one width, input
/// size and burst length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSize {
    pub name: &'static str,
    pub width: usize,
    pub hw: usize,
    /// Images per `serve()` burst.
    pub burst: usize,
    /// Bursts served as warm-up during set-up (a fixed count).
    pub warmup_bursts: usize,
}

/// Width 4 on 16×16: most reductions sit below the integer crossover, so
/// engine and `nn` bookkeeping dominate.
pub const SMALL: ModelSize = ModelSize {
    name: "small",
    width: 4,
    hw: 16,
    burst: 64,
    warmup_bursts: 16,
};

/// Width 16 on 32×32: k = 144…1152, every block conv takes the integer
/// GEMM, so kernels dominate.
pub const WIDE: ModelSize = ModelSize {
    name: "wide",
    width: 16,
    hw: 32,
    burst: 32,
    warmup_bursts: 2,
};

/// The layer shapes of one model size, by layer class.
#[derive(Debug, Clone)]
pub struct Shapes {
    /// Every convolution in execution order (stem, block convs, shortcuts).
    pub convs: Vec<LayerSpec>,
    /// Every batch-norm as `(channels, spatial side)`.
    pub bns: Vec<(usize, usize)>,
    /// The classifier as `(in_features, out_features)`.
    pub fc: (usize, usize),
}

impl ModelSize {
    fn config(&self) -> PreActResNetConfig {
        PreActResNetConfig::resnet18(CHANNELS, self.width, CLASSES, BnKind::Switchable(rps_set()))
    }

    /// Builds the network with weights drawn from `seed`.
    pub fn build(&self, seed: u64) -> Network {
        preact_resnet(
            &self.config(),
            &mut SeededRng::new(seed ^ 0x6D6F_6465_6C00_0000),
        )
    }

    /// `n` input images in `[0, 1]` drawn from `seed`, as `[n, 3, hw, hw]`.
    pub fn images(&self, seed: u64, n: usize) -> Tensor {
        Tensor::rand_uniform(
            &[n, CHANNELS, self.hw, self.hw],
            0.0,
            1.0,
            &mut SeededRng::new(seed ^ 0x696D_6167_6573_0000),
        )
    }

    /// The layer shapes `zoo::preact_resnet` builds for this size, derived
    /// from the same config object so the two cannot drift apart.
    pub fn shapes(&self) -> Shapes {
        let cfg = self.config();
        let mut convs = vec![LayerSpec::conv(
            "stem", CHANNELS, self.width, 3, 1, 1, self.hw, self.hw,
        )];
        let mut bns = Vec::new();
        let (mut ch, mut hw) = (self.width, self.hw);
        for (stage, (&blocks, &stride)) in
            cfg.stage_blocks.iter().zip(&cfg.stage_strides).enumerate()
        {
            let out_ch = self.width << stage;
            for b in 0..blocks {
                let s = if b == 0 { stride } else { 1 };
                let tag = format!("s{}b{}", stage + 1, b + 1);
                let out_hw = (hw + 2 - 3) / s + 1;
                bns.push((ch, hw));
                if s != 1 || ch != out_ch {
                    convs.push(LayerSpec::conv(
                        format!("{tag}.sc"),
                        ch,
                        out_ch,
                        1,
                        s,
                        0,
                        hw,
                        hw,
                    ));
                }
                convs.push(LayerSpec::conv(
                    format!("{tag}.c1"),
                    ch,
                    out_ch,
                    3,
                    s,
                    1,
                    hw,
                    hw,
                ));
                bns.push((out_ch, out_hw));
                convs.push(LayerSpec::conv(
                    format!("{tag}.c2"),
                    out_ch,
                    out_ch,
                    3,
                    1,
                    1,
                    out_hw,
                    out_hw,
                ));
                (ch, hw) = (out_ch, out_hw);
            }
        }
        bns.push((ch, hw));
        Shapes {
            convs,
            bns,
            fc: (ch, CLASSES),
        }
    }

    /// The shapes as a simulator workload.
    pub fn spec(&self) -> NetworkSpec {
        let shapes = self.shapes();
        let mut layers = shapes.convs;
        layers.push(LayerSpec::fc("fc", shapes.fc.0, shapes.fc.1));
        NetworkSpec {
            name: format!("PreActResNet-18 w{} {}x{}", self.width, self.hw, self.hw),
            dataset: "synthetic".into(),
            layers,
        }
    }
}

/// A conv [`LayerSpec`] as the geometry `tia_nn::Conv2d` is built from,
/// with its reduction depth `c·kh·kw`.
pub fn conv_geometry(l: &LayerSpec) -> Option<(Conv2dGeometry, usize)> {
    match l.kind {
        LayerKind::Conv {
            c,
            k,
            r,
            s,
            stride,
            pad,
        } => Some((Conv2dGeometry::new(c, k, r, stride, pad), c * r * s)),
        LayerKind::Fc { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_nn::Mode;

    #[test]
    fn shapes_account_for_every_parameter_of_the_zoo_model() {
        for size in [SMALL, WIDE] {
            let shapes = size.shapes();
            // 1 stem + 8 blocks × 2 convs + 3 projection shortcuts.
            assert_eq!(shapes.convs.len(), 20);
            assert_eq!(shapes.bns.len(), 17);
            let conv_weights: u64 = shapes.convs.iter().map(|l| l.weight_elems()).sum();
            let bn_params: usize = shapes.bns.iter().map(|&(c, _)| 2 * c).sum();
            let fc_params = shapes.fc.0 * shapes.fc.1 + shapes.fc.1;
            let mut net = size.build(1);
            // Switchable BN keeps one (γ, β) pair per candidate precision.
            let expected = conv_weights as usize + bn_params * rps_set().len() + fc_params;
            assert_eq!(net.param_count(), expected, "{}", size.name);
            // And the last spatial size matches what the network produces.
            let y = net.forward(&size.images(1, 1), Mode::Infer);
            assert_eq!(y.shape(), &[1, CLASSES]);
        }
    }

    #[test]
    fn small_model_mostly_sits_below_the_integer_crossover() {
        let depth = |l: &LayerSpec| conv_geometry(l).map_or(0, |(_, f)| f);
        let small: Vec<usize> = SMALL.shapes().convs.iter().map(depth).collect();
        let wide: Vec<usize> = WIDE.shapes().convs.iter().map(depth).collect();
        assert!(small.iter().filter(|&&f| f < 96).count() >= 13);
        assert_eq!(
            *wide.iter().filter(|&&f| f >= 144).min().expect("deep"),
            144
        );
        assert_eq!(*wide.iter().max().expect("convs"), 1152);
    }
}
