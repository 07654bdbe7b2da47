//! im2col / col2im convolution lowering.
//!
//! Convolutions are lowered to GEMM: the input patch matrix (`im2col`) is
//! multiplied by the flattened weight matrix. The backward pass uses the
//! transposed products plus `col2im` scatter-add. This mirrors how the paper's
//! accelerator views a conv layer — as a 7-dimensional loop nest over
//! (N, K, C, R, S, Y, X) — so the same layer geometry type is shared with the
//! dataflow crate's workload descriptions.

use crate::Tensor;

/// Geometry of a 2-D convolution: shapes, stride and padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channels (C).
    pub in_channels: usize,
    /// Output channels (K).
    pub out_channels: usize,
    /// Kernel height (R).
    pub kernel_h: usize,
    /// Kernel width (S).
    pub kernel_w: usize,
    /// Stride (same both dims).
    pub stride: usize,
    /// Zero padding (same both dims).
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Convenience constructor for square kernels.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self {
            in_channels,
            out_channels,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of `h x w`.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        conv2d_output_hw(
            h,
            w,
            self.kernel_h,
            self.kernel_w,
            self.stride,
            self.padding,
        )
    }

    /// Number of multiply-accumulates for a batch-1 forward pass on `h x w`.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.output_hw(h, w);
        (self.out_channels * self.in_channels * self.kernel_h * self.kernel_w * oh * ow) as u64
    }
}

/// Output spatial dims of a convolution.
pub fn conv2d_output_hw(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> (usize, usize) {
    let oh = (h + 2 * pad - kh) / stride + 1;
    let ow = (w + 2 * pad - kw) / stride + 1;
    (oh, ow)
}

/// Lowers one image `[C, H, W]` to the patch matrix `[C*KH*KW, OH*OW]`.
///
/// # Panics
///
/// Panics if `x` is not 3-D with `C` channels.
pub fn im2col(x: &Tensor, geo: &Conv2dGeometry) -> Tensor {
    assert_eq!(x.shape().len(), 3, "im2col expects [C,H,W]");
    let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    assert_eq!(c, geo.in_channels, "im2col channel mismatch");
    let (kh, kw) = (geo.kernel_h, geo.kernel_w);
    let (oh, ow) = geo.output_hw(h, w);
    let rows = c * kh * kw;
    let cols = oh * ow;
    let mut out = Tensor::zeros(&[rows, cols]);
    im2col_into(x.data(), geo, h, w, out.data_mut(), cols, 0);
    out
}

/// Lowers one image (flat `[C, H, W]` slice) into a *strided* destination:
/// patch row `r` lands at `dst[r * dst_stride + col_offset ..][.. oh*ow]`.
///
/// This is the batched-conv workhorse: every image of a batch writes its
/// `oh*ow` column block into one shared `[C*KH*KW, N*OH*OW]` matrix so the
/// whole batch runs as a single GEMM. The destination region must be
/// pre-zeroed — padded taps are *skipped*, not written.
///
/// # Panics
///
/// Panics if `img` does not match the geometry's channel count times
/// `h * w`, or (implicitly, via slice indexing) if `dst` is too small.
// tia-lint: hot-path(begin)
pub fn im2col_into(
    img: &[f32],
    geo: &Conv2dGeometry,
    h: usize,
    w: usize,
    dst: &mut [f32],
    dst_stride: usize,
    col_offset: usize,
) {
    let c = geo.in_channels;
    assert_eq!(img.len(), c * h * w, "im2col_into image size mismatch");
    let (kh, kw, stride, pad) = (geo.kernel_h, geo.kernel_w, geo.stride, geo.padding);
    let (oh, ow) = geo.output_hw(h, w);
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let start = row * dst_stride + col_offset;
                let orow = &mut dst[start..start + oh * ow];
                for oy in 0..oh {
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * stride + kj) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        orow[oy * ow + ox] = img[(ci * h + iy) * w + ix as usize];
                    }
                }
            }
        }
    }
}
// tia-lint: hot-path(end)

/// Lowers one channel-last image of quantized *levels* (flat `[H, W, C]` of
/// `u8`) to the patch matrix `[OH*OW, KH*KW*C]` — one patch per **row**, so
/// an integer GEMM can take each row as a contiguous dot-product operand
/// against a quantized weight row (see `tia-quant`).
///
/// Feature order within a row is `(ki * kw + kj) * c + ci`: with the
/// channels innermost on both sides, the in-bounds part of every kernel row
/// is one contiguous run of up to `kw * c` bytes in the image and is copied
/// as such. The weight rows must be permuted to the same `[K, KH*KW*C]`
/// order (see `tia-nn`'s integer memo); integer accumulation is exact, so
/// the order inside a dot product changes no result bit. Padded taps are
/// written as `zero_point` — the level that dequantizes to `0.0`, exactly
/// what the f32 path's zero-filled padding contributes.
///
/// `dst` must hold `oh * ow * kh * kw * c` bytes.
///
/// # Panics
///
/// Panics if `img` or `dst` disagree with the geometry.
// tia-lint: hot-path(begin)
pub fn im2col_levels_rows(
    img: &[u8],
    geo: &Conv2dGeometry,
    h: usize,
    w: usize,
    zero_point: u8,
    dst: &mut [u8],
) {
    let c = geo.in_channels;
    assert_eq!(
        img.len(),
        c * h * w,
        "im2col_levels_rows image size mismatch"
    );
    let (kh, kw, stride, pad) = (geo.kernel_h, geo.kernel_w, geo.stride, geo.padding);
    let (oh, ow) = geo.output_hw(h, w);
    let run = kw * c;
    let f = kh * run;
    assert_eq!(
        dst.len(),
        oh * ow * f,
        "im2col_levels_rows dst size mismatch"
    );
    if f == 0 {
        return;
    }
    for (o, prow) in dst.chunks_exact_mut(f).enumerate() {
        let (y0, x0) = (o / ow * stride, o % ow * stride);
        // Tap (ki, kj) reads image (y0 + ki - pad, x0 + kj - pad): the
        // kernel rows inside the image are ki_lo..ki_hi, likewise columns.
        let ki_lo = pad.saturating_sub(y0).min(kh);
        let ki_hi = (h + pad).saturating_sub(y0).min(kh);
        let kj_lo = pad.saturating_sub(x0).min(kw);
        let kj_hi = (w + pad).saturating_sub(x0).min(kw);
        let n = (kj_hi - kj_lo) * c;
        if (ki_hi - ki_lo) * n < f {
            // A border patch: padding everywhere the copies below skip.
            prow.fill(zero_point);
        }
        if n == 0 {
            continue;
        }
        for ki in ki_lo..ki_hi {
            let src = ((y0 + ki - pad) * w + x0 + kj_lo - pad) * c;
            prow[ki * run + kj_lo * c..][..n].copy_from_slice(&img[src..src + n]);
        }
    }
}
// tia-lint: hot-path(end)

/// Scatter-adds a patch-matrix gradient `[C*KH*KW, OH*OW]` back to an image
/// gradient `[C, H, W]` (the adjoint of [`im2col`]).
///
/// # Panics
///
/// Panics if shapes are inconsistent with the geometry.
pub fn col2im(cols: &Tensor, geo: &Conv2dGeometry, h: usize, w: usize) -> Tensor {
    let c = geo.in_channels;
    let (kh, kw) = (geo.kernel_h, geo.kernel_w);
    let (oh, ow) = geo.output_hw(h, w);
    assert_eq!(
        cols.shape(),
        &[c * kh * kw, oh * ow],
        "col2im shape mismatch"
    );
    let mut out = Tensor::zeros(&[c, h, w]);
    col2im_add_into(cols.data(), oh * ow, 0, geo, h, w, out.data_mut());
    out
}

/// Scatter-adds one image's patch-gradient columns from a *strided* source
/// (the adjoint of [`im2col_into`]): patch row `r` is read from
/// `cols[r * col_stride + col_offset ..][.. oh*ow]` and accumulated into the
/// flat `[C, H, W]` image gradient `out`.
///
/// # Panics
///
/// Panics if `out` does not match the geometry's channel count times
/// `h * w`, or (implicitly, via slice indexing) if `cols` is too small.
// tia-lint: hot-path(begin)
pub fn col2im_add_into(
    cols: &[f32],
    col_stride: usize,
    col_offset: usize,
    geo: &Conv2dGeometry,
    h: usize,
    w: usize,
    out: &mut [f32],
) {
    let c = geo.in_channels;
    assert_eq!(out.len(), c * h * w, "col2im_add_into image size mismatch");
    let (kh, kw, stride, pad) = (geo.kernel_h, geo.kernel_w, geo.stride, geo.padding);
    let (oh, ow) = geo.output_hw(h, w);
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let start = row * col_stride + col_offset;
                let crow = &cols[start..start + oh * ow];
                for oy in 0..oh {
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * stride + kj) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out[(ci * h + iy) * w + ix as usize] += crow[oy * ow + ox];
                    }
                }
            }
        }
    }
}
// tia-lint: hot-path(end)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn output_hw_basic() {
        assert_eq!(conv2d_output_hw(32, 32, 3, 3, 1, 1), (32, 32));
        assert_eq!(conv2d_output_hw(32, 32, 3, 3, 2, 1), (16, 16));
        assert_eq!(conv2d_output_hw(224, 224, 7, 7, 2, 3), (112, 112));
    }

    #[test]
    fn im2col_identity_kernel() {
        // A 1x1 kernel with stride 1 and no padding is a reshape.
        let x = Tensor::from_vec((0..2 * 3 * 3).map(|v| v as f32).collect(), &[2, 3, 3]);
        let geo = Conv2dGeometry::new(2, 4, 1, 1, 0);
        let cols = im2col(&x, &geo);
        assert_eq!(cols.shape(), &[2, 9]);
        assert_eq!(cols.data(), x.data());
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let x = Tensor::ones(&[1, 2, 2]);
        let geo = Conv2dGeometry::new(1, 1, 3, 1, 1);
        let cols = im2col(&x, &geo);
        // Center tap row (ki=1, kj=1) should be all ones.
        let row = 3 + 1;
        let ncols = 4;
        assert!(cols.data()[row * ncols..(row + 1) * ncols]
            .iter()
            .all(|&v| v == 1.0));
        // Top-left tap at output (0,0) reads padding -> zero.
        assert_eq!(cols.data()[0], 0.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y (adjoint test).
        let mut rng = SeededRng::new(42);
        let geo = Conv2dGeometry::new(3, 2, 3, 2, 1);
        let (h, w) = (5, 5);
        let x = Tensor::randn(&[3, h, w], 1.0, &mut rng);
        let cols = im2col(&x, &geo);
        let y = Tensor::randn(cols.shape(), 1.0, &mut rng);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &geo, h, w);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{} vs {}", lhs, rhs);
    }

    #[test]
    fn im2col_levels_rows_is_transposed_im2col() {
        // With levels equal to the f32 values and zero_point 0, the level
        // patch matrix of the channel-last image must be im2col's transpose
        // with each row's features permuted (ci, ki, kj) -> (ki, kj, ci).
        let mut rng = SeededRng::new(9);
        let geo = Conv2dGeometry::new(2, 1, 3, 2, 1);
        let (c, h, w) = (2, 5, 4);
        let x = Tensor::from_vec(
            (0..c * h * w).map(|_| rng.below(200) as f32).collect(),
            &[c, h, w],
        );
        let mut hwc = vec![0u8; c * h * w];
        for (i, &v) in x.data().iter().enumerate() {
            hwc[i % (h * w) * c + i / (h * w)] = v as u8;
        }
        let cols = im2col(&x, &geo);
        let (oh, ow) = geo.output_hw(h, w);
        let (kh, kw) = (3, 3);
        let f = c * kh * kw;
        let mut rows = vec![0u8; oh * ow * f];
        im2col_levels_rows(&hwc, &geo, h, w, 0, &mut rows);
        for ci in 0..c {
            for tap in 0..kh * kw {
                for col in 0..oh * ow {
                    assert_eq!(
                        rows[col * f + tap * c + ci] as f32,
                        cols.data()[(ci * kh * kw + tap) * (oh * ow) + col],
                        "channel {} tap {} patch {}",
                        ci,
                        tap,
                        col
                    );
                }
            }
        }
        // A nonzero zero_point must land on every padded tap.
        let mut rows_zp = vec![0u8; oh * ow * f];
        im2col_levels_rows(&hwc, &geo, h, w, 7, &mut rows_zp);
        for (a, b) in rows.iter().zip(&rows_zp) {
            assert!(*b == *a || (*a == 0 && *b == 7));
        }
    }

    #[test]
    fn macs_count() {
        let geo = Conv2dGeometry::new(3, 8, 3, 1, 1);
        // 8*3*3*3*4*4 for a 4x4 input with same padding
        assert_eq!(geo.macs(4, 4), 8 * 3 * 9 * 16);
    }
}
