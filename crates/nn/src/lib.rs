//! # tia-nn
//!
//! From-scratch neural-network substrate for the 2-in-1 Accelerator
//! reproduction: layers with explicit forward/backward, quantization-aware
//! convolution/linear layers (straight-through estimator), **switchable
//! batch normalization** (the SBN of the paper's §2.4), residual model zoo
//! (PreActResNet-18, WideResNet-32, ResNet-50, AlexNet, VGG-16), SGD, and
//! full-size layer-shape workload tables consumed by the accelerator
//! simulator.
//!
//! The design is layer-graph (not tape autograd): each layer caches what its
//! backward needs, and [`Network::backward`] returns the gradient with
//! respect to the *input*, which is exactly what gradient-based adversarial
//! attacks (FGSM/PGD/CW) consume.
//!
//! # Example
//!
//! ```
//! use tia_nn::{Mode, zoo};
//! use tia_tensor::{Tensor, SeededRng};
//!
//! let mut rng = SeededRng::new(0);
//! let mut net = zoo::preact_resnet18_lite(3, 8, 4, &mut rng);
//! let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
//! let logits = net.forward(&x, Mode::Eval);
//! assert_eq!(logits.shape(), &[2, 4]);
//! ```

#![deny(missing_docs)]

mod act;
mod bn;
mod conv_layer;
mod layer;
mod linear;
mod loss;
mod network;
mod pack_memo;
mod pool_layer;
mod residual;
mod sgd;
pub mod workload;
pub mod zoo;

pub use act::ReLU;
pub use bn::{BatchNorm2d, SwitchableBatchNorm};
pub use conv_layer::Conv2d;
pub use layer::{Layer, Mode, Param};
pub use linear::Linear;
pub use loss::{cross_entropy, cw_margin_loss, LossGrad};
pub use network::Network;
pub use pool_layer::GlobalAvgPool;
pub use residual::PreActBlock;
pub use sgd::Sgd;
pub use workload::{LayerKind, LayerSpec, NetworkSpec};
