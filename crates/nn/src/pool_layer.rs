//! Global average pooling, the zoo's classifier head.

use crate::layer::{Layer, Mode, Param};
use tia_tensor::{Tensor, Workspace};

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
#[derive(Debug, Default, Clone)]
pub struct GlobalAvgPool {
    input_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average-pool layer.
    pub fn new() -> Self {
        Self { input_shape: None }
    }
}

impl Layer for GlobalAvgPool {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        assert_eq!(x.shape().len(), 4, "GlobalAvgPool expects NCHW");
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        if mode.caches_backward() {
            let shape = self.input_shape.get_or_insert_with(Vec::new);
            shape.clear();
            shape.extend_from_slice(x.shape());
        } else {
            self.input_shape = None;
        }
        let mut out = ws.tensor_zeroed(&[n, c]);
        let inv = 1.0 / (h * w) as f32;
        for ni in 0..n {
            for ci in 0..c {
                let mut acc = 0.0;
                for yi in 0..h {
                    for xi in 0..w {
                        acc += x.at4(ni, ci, yi, xi);
                    }
                }
                out.data_mut()[ni * c + ci] = acc * inv;
            }
        }
        out
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let shape = self
            .input_shape
            .clone()
            .expect("GlobalAvgPool::backward before forward");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let inv = 1.0 / (h * w) as f32;
        let mut gx = ws.tensor_zeroed(&shape);
        for ni in 0..n {
            for ci in 0..c {
                let g = grad_out.data()[ni * c + ci] * inv;
                for yi in 0..h {
                    for xi in 0..w {
                        *gx.at4_mut(ni, ci, yi, xi) = g;
                    }
                }
            }
        }
        gx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_avg_pool_shapes_and_values() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let y = gap.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[1.5, 5.5]);
        let gx = gap.backward(&Tensor::ones(&[1, 2]));
        assert!((gx.sum() - 2.0).abs() < 1e-6);
    }
}
