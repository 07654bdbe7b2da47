//! Full-size layer-shape tables of the paper's six benchmark networks.
//!
//! The accelerator experiments (Figs. 2, 7–10) run on the *true* layer
//! geometries of WideResNet-32 / (PreAct)ResNet-18 on CIFAR (32×32 inputs)
//! and AlexNet / VGG-16 / ResNet-18 / ResNet-50 on ImageNet (224×224), even
//! though the trainable models in [`crate::zoo`] are width-reduced. These
//! specs carry no weights — only shapes — and are consumed by `tia-dataflow`
//! and `tia-sim`.

/// Layer flavour with the dimensions the accelerator cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolution: `c` input channels, `k` output channels, `r x s` kernel.
    Conv {
        /// Input channels.
        c: usize,
        /// Output channels.
        k: usize,
        /// Kernel height.
        r: usize,
        /// Kernel width.
        s: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// Fully connected: a GEMV of `out_f x in_f`.
    Fc {
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
    },
}

/// One layer of a network workload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerSpec {
    /// Layer name for reports, e.g. `"conv2_1a"`.
    pub name: String,
    /// Kind + dimensions.
    pub kind: LayerKind,
    /// Input feature-map height (1 for FC).
    pub in_h: usize,
    /// Input feature-map width (1 for FC).
    pub in_w: usize,
}

impl LayerSpec {
    /// Creates a conv layer spec.
    #[allow(clippy::too_many_arguments)] // a conv shape simply has this many dims
    pub fn conv(
        name: impl Into<String>,
        c: usize,
        k: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        in_h: usize,
        in_w: usize,
    ) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::Conv {
                c,
                k,
                r: kernel,
                s: kernel,
                stride,
                pad,
            },
            in_h,
            in_w,
        }
    }

    /// Creates an FC layer spec.
    pub fn fc(name: impl Into<String>, in_f: usize, out_f: usize) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::Fc { in_f, out_f },
            in_h: 1,
            in_w: 1,
        }
    }

    /// Output spatial size.
    pub fn out_hw(&self) -> (usize, usize) {
        match self.kind {
            LayerKind::Conv {
                r, s, stride, pad, ..
            } => (
                (self.in_h + 2 * pad - r) / stride + 1,
                (self.in_w + 2 * pad - s) / stride + 1,
            ),
            LayerKind::Fc { .. } => (1, 1),
        }
    }

    /// Multiply-accumulate count for batch 1.
    pub fn macs(&self) -> u64 {
        match self.kind {
            LayerKind::Conv { c, k, r, s, .. } => {
                let (oh, ow) = self.out_hw();
                (k * c * r * s) as u64 * (oh * ow) as u64
            }
            LayerKind::Fc { in_f, out_f } => (in_f * out_f) as u64,
        }
    }

    /// Weight element count.
    pub fn weight_elems(&self) -> u64 {
        match self.kind {
            LayerKind::Conv { c, k, r, s, .. } => (k * c * r * s) as u64,
            LayerKind::Fc { in_f, out_f } => (in_f * out_f) as u64,
        }
    }

    /// Input activation element count (batch 1).
    pub fn input_elems(&self) -> u64 {
        match self.kind {
            LayerKind::Conv { c, .. } => (c * self.in_h * self.in_w) as u64,
            LayerKind::Fc { in_f, .. } => in_f as u64,
        }
    }

    /// The 7 loop bounds `(N, K, C, R, S, Y, X)` the dataflow optimizer tiles
    /// (batch fixed at 1; FC maps to K=out, C=in, R=S=Y=X=1).
    pub fn loop_bounds(&self) -> [usize; 7] {
        match self.kind {
            LayerKind::Conv { c, k, r, s, .. } => {
                let (oh, ow) = self.out_hw();
                [1, k, c, r, s, oh, ow]
            }
            LayerKind::Fc { in_f, out_f } => [1, out_f, in_f, 1, 1, 1, 1],
        }
    }
}

/// A named sequence of layers forming one benchmark workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkSpec {
    /// Network name as used in the paper's figures.
    pub name: String,
    /// Dataset tag ("CIFAR-10" or "ImageNet").
    pub dataset: String,
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// Total MACs for batch 1.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs()).sum()
    }

    /// Total weight elements.
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_elems()).sum()
    }

    /// AlexNet on ImageNet (224×224).
    pub fn alexnet() -> Self {
        let layers = vec![
            LayerSpec::conv("conv1", 3, 64, 11, 4, 2, 224, 224),
            LayerSpec::conv("conv2", 64, 192, 5, 1, 2, 27, 27),
            LayerSpec::conv("conv3", 192, 384, 3, 1, 1, 13, 13),
            LayerSpec::conv("conv4", 384, 256, 3, 1, 1, 13, 13),
            LayerSpec::conv("conv5", 256, 256, 3, 1, 1, 13, 13),
            LayerSpec::fc("fc6", 256 * 6 * 6, 4096),
            LayerSpec::fc("fc7", 4096, 4096),
            LayerSpec::fc("fc8", 4096, 1000),
        ];
        Self {
            name: "AlexNet".into(),
            dataset: "ImageNet".into(),
            layers,
        }
    }

    /// VGG-16 on ImageNet (224×224).
    pub fn vgg16() -> Self {
        let mut layers = Vec::new();
        let cfg: &[(usize, usize, usize)] = &[
            // (in, out, spatial)
            (3, 64, 224),
            (64, 64, 224),
            (64, 128, 112),
            (128, 128, 112),
            (128, 256, 56),
            (256, 256, 56),
            (256, 256, 56),
            (256, 512, 28),
            (512, 512, 28),
            (512, 512, 28),
            (512, 512, 14),
            (512, 512, 14),
            (512, 512, 14),
        ];
        for (i, &(c, k, hw)) in cfg.iter().enumerate() {
            layers.push(LayerSpec::conv(
                format!("conv{}", i + 1),
                c,
                k,
                3,
                1,
                1,
                hw,
                hw,
            ));
        }
        layers.push(LayerSpec::fc("fc14", 512 * 7 * 7, 4096));
        layers.push(LayerSpec::fc("fc15", 4096, 4096));
        layers.push(LayerSpec::fc("fc16", 4096, 1000));
        Self {
            name: "VGG-16".into(),
            dataset: "ImageNet".into(),
            layers,
        }
    }

    /// ResNet-18 on ImageNet (basic blocks).
    pub fn resnet18_imagenet() -> Self {
        let mut layers = vec![LayerSpec::conv("conv1", 3, 64, 7, 2, 3, 224, 224)];
        // After maxpool: 56x56.
        let stages: &[(usize, usize, usize, usize)] = &[
            // (in_ch, out_ch, blocks, spatial at stage input)
            (64, 64, 2, 56),
            (64, 128, 2, 56),
            (128, 256, 2, 28),
            (256, 512, 2, 14),
        ];
        for (si, &(in_ch, out_ch, blocks, hw)) in stages.iter().enumerate() {
            push_basic_stage(&mut layers, si + 2, in_ch, out_ch, blocks, hw, si > 0);
        }
        layers.push(LayerSpec::fc("fc", 512, 1000));
        Self {
            name: "ResNet-18".into(),
            dataset: "ImageNet".into(),
            layers,
        }
    }

    /// ResNet-50 on ImageNet (bottleneck blocks).
    pub fn resnet50_imagenet() -> Self {
        let mut layers = vec![LayerSpec::conv("conv1", 3, 64, 7, 2, 3, 224, 224)];
        let stages: &[(usize, usize, usize, usize, usize, bool)] = &[
            // (in_ch, mid_ch, out_ch, blocks, spatial at stage input, downsample)
            (64, 64, 256, 3, 56, false),
            (256, 128, 512, 4, 56, true),
            (512, 256, 1024, 6, 28, true),
            (1024, 512, 2048, 3, 14, true),
        ];
        for (si, &(in_ch, mid, out_ch, blocks, hw, down)) in stages.iter().enumerate() {
            push_bottleneck_stage(&mut layers, si + 2, in_ch, mid, out_ch, blocks, hw, down);
        }
        layers.push(LayerSpec::fc("fc", 2048, 1000));
        Self {
            name: "ResNet-50".into(),
            dataset: "ImageNet".into(),
            layers,
        }
    }

    /// WideResNet-32 (×10) on CIFAR-10 (32×32).
    pub fn wide_resnet32_cifar() -> Self {
        let mut layers = vec![LayerSpec::conv("conv1", 3, 16, 3, 1, 1, 32, 32)];
        let stages: &[(usize, usize, usize, usize)] =
            &[(16, 160, 5, 32), (160, 320, 5, 32), (320, 640, 5, 16)];
        for (si, &(in_ch, out_ch, blocks, hw)) in stages.iter().enumerate() {
            push_basic_stage(&mut layers, si + 2, in_ch, out_ch, blocks, hw, si > 0);
        }
        layers.push(LayerSpec::fc("fc", 640, 10));
        Self {
            name: "WideResNet-32".into(),
            dataset: "CIFAR-10".into(),
            layers,
        }
    }

    /// PreActResNet-18 on CIFAR-10 (32×32).
    pub fn resnet18_cifar() -> Self {
        let mut layers = vec![LayerSpec::conv("conv1", 3, 64, 3, 1, 1, 32, 32)];
        let stages: &[(usize, usize, usize, usize)] = &[
            (64, 64, 2, 32),
            (64, 128, 2, 32),
            (128, 256, 2, 16),
            (256, 512, 2, 8),
        ];
        for (si, &(in_ch, out_ch, blocks, hw)) in stages.iter().enumerate() {
            push_basic_stage(&mut layers, si + 2, in_ch, out_ch, blocks, hw, si > 0);
        }
        layers.push(LayerSpec::fc("fc", 512, 10));
        Self {
            name: "ResNet-18".into(),
            dataset: "CIFAR-10".into(),
            layers,
        }
    }

    /// The six benchmark workloads of Figs. 7–9, in the paper's order.
    pub fn paper_six() -> Vec<NetworkSpec> {
        vec![
            Self::resnet18_cifar(),
            Self::wide_resnet32_cifar(),
            Self::resnet18_imagenet(),
            Self::resnet50_imagenet(),
            Self::vgg16(),
            Self::alexnet(),
        ]
    }
}

/// Appends one basic-block stage (two 3×3 convs per block, projection on the
/// first block when downsampling/widening).
fn push_basic_stage(
    layers: &mut Vec<LayerSpec>,
    stage_no: usize,
    in_ch: usize,
    out_ch: usize,
    blocks: usize,
    in_hw: usize,
    downsample: bool,
) {
    let stride = if downsample { 2 } else { 1 };
    let out_hw = if downsample { in_hw / 2 } else { in_hw };
    for b in 0..blocks {
        let (c_in, s, hw) = if b == 0 {
            (in_ch, stride, in_hw)
        } else {
            (out_ch, 1, out_hw)
        };
        layers.push(LayerSpec::conv(
            format!("conv{}_{}a", stage_no, b + 1),
            c_in,
            out_ch,
            3,
            s,
            1,
            hw,
            hw,
        ));
        layers.push(LayerSpec::conv(
            format!("conv{}_{}b", stage_no, b + 1),
            out_ch,
            out_ch,
            3,
            1,
            1,
            out_hw,
            out_hw,
        ));
        if b == 0 && (downsample || in_ch != out_ch) {
            layers.push(LayerSpec::conv(
                format!("conv{}_{}sc", stage_no, b + 1),
                in_ch,
                out_ch,
                1,
                stride,
                0,
                in_hw,
                in_hw,
            ));
        }
    }
}

/// Appends one bottleneck stage (1×1 reduce, 3×3, 1×1 expand per block).
#[allow(clippy::too_many_arguments)]
fn push_bottleneck_stage(
    layers: &mut Vec<LayerSpec>,
    stage_no: usize,
    in_ch: usize,
    mid: usize,
    out_ch: usize,
    blocks: usize,
    in_hw: usize,
    downsample: bool,
) {
    let stride = if downsample { 2 } else { 1 };
    let out_hw = if downsample { in_hw / 2 } else { in_hw };
    for b in 0..blocks {
        let (c_in, s, hw) = if b == 0 {
            (in_ch, stride, in_hw)
        } else {
            (out_ch, 1, out_hw)
        };
        layers.push(LayerSpec::conv(
            format!("conv{}_{}a", stage_no, b + 1),
            c_in,
            mid,
            1,
            1,
            0,
            hw,
            hw,
        ));
        layers.push(LayerSpec::conv(
            format!("conv{}_{}b", stage_no, b + 1),
            mid,
            mid,
            3,
            s,
            1,
            hw,
            hw,
        ));
        layers.push(LayerSpec::conv(
            format!("conv{}_{}c", stage_no, b + 1),
            mid,
            out_ch,
            1,
            1,
            0,
            out_hw,
            out_hw,
        ));
        if b == 0 {
            layers.push(LayerSpec::conv(
                format!("conv{}_{}sc", stage_no, b + 1),
                in_ch,
                out_ch,
                1,
                stride,
                0,
                in_hw,
                in_hw,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_macs_in_known_ballpark() {
        // AlexNet is ~0.7 GMACs (conv) + ~59 MMACs (fc).
        let net = NetworkSpec::alexnet();
        let macs = net.total_macs();
        assert!(macs > 600_000_000 && macs < 1_000_000_000, "{}", macs);
    }

    #[test]
    fn vgg16_macs_in_known_ballpark() {
        // VGG-16 is ~15.5 GMACs.
        let net = NetworkSpec::vgg16();
        let macs = net.total_macs();
        assert!(macs > 14_000_000_000 && macs < 16_500_000_000, "{}", macs);
    }

    #[test]
    fn resnet50_macs_in_known_ballpark() {
        // ResNet-50 is ~3.8-4.1 GMACs.
        let net = NetworkSpec::resnet50_imagenet();
        let macs = net.total_macs();
        assert!(macs > 3_300_000_000 && macs < 4_500_000_000, "{}", macs);
    }

    #[test]
    fn resnet18_imagenet_macs_in_known_ballpark() {
        // ResNet-18 is ~1.8 GMACs.
        let net = NetworkSpec::resnet18_imagenet();
        let macs = net.total_macs();
        assert!(macs > 1_500_000_000 && macs < 2_200_000_000, "{}", macs);
    }

    #[test]
    fn conv_layer_geometry() {
        let l = LayerSpec::conv("x", 3, 64, 11, 4, 2, 224, 224);
        assert_eq!(l.out_hw(), (55, 55));
        assert_eq!(l.weight_elems(), 64 * 3 * 11 * 11);
        assert_eq!(l.loop_bounds(), [1, 64, 3, 11, 11, 55, 55]);
    }

    #[test]
    fn fc_layer_geometry() {
        let l = LayerSpec::fc("fc", 4096, 1000);
        assert_eq!(l.macs(), 4096 * 1000);
        assert_eq!(l.loop_bounds(), [1, 1000, 4096, 1, 1, 1, 1]);
        assert_eq!(l.out_hw(), (1, 1));
    }

    #[test]
    fn paper_six_names() {
        let nets = NetworkSpec::paper_six();
        assert_eq!(nets.len(), 6);
        let names: Vec<&str> = nets.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "ResNet-18",
                "WideResNet-32",
                "ResNet-18",
                "ResNet-50",
                "VGG-16",
                "AlexNet"
            ]
        );
    }

    #[test]
    fn wrn32_is_wide() {
        let net = NetworkSpec::wide_resnet32_cifar();
        // WRN-32-10 has ~few hundred MMACs at CIFAR scale... actually several GMACs.
        assert!(net.total_macs() > 1_000_000_000, "{}", net.total_macs());
        assert!(net
            .layers
            .iter()
            .any(|l| matches!(l.kind, LayerKind::Conv { k: 640, .. })));
    }

    #[test]
    fn output_shapes_chain_consistently() {
        // For each network, conv layer inputs must equal previous main-path
        // conv output spatial dims after accounting for stride-2 stem/pool.
        for net in NetworkSpec::paper_six() {
            for l in &net.layers {
                let (oh, ow) = l.out_hw();
                assert!(
                    oh > 0 && ow > 0,
                    "{} {} produced empty output",
                    net.name,
                    l.name
                );
            }
        }
    }
}
