//! Seeded differential loop over the integer conv lowering, one layer below
//! the engine-level identities of `engine_semantics.rs`.
//!
//! The serving path builds its patch rows channel-last — features ordered
//! `(ki, kj, ci)` over an `[H, W, C]` level image — because that order makes
//! every kernel row one contiguous copy. The oracle here is the order it
//! replaced: `(ci, ki, kj)` over a `[C, H, W]` image, written the obvious
//! way, one bounds-checked byte at a time. Integer accumulation is exact, so
//! the two must agree on every patch byte up to that permutation and on
//! every output bit after the GEMM. Geometries are drawn to hit what a fixed
//! model never does: 1/3/5 kernels, stride 2 with odd sizes, padding wider
//! than the kernel reach, `H != W`, channel counts that are no multiple of a
//! vector, and odd depths (the `i4` rows' dangling nibble).

use two_in_one_accel::nn::{Conv2d, Layer};
use two_in_one_accel::prelude::*;
use two_in_one_accel::quant::{
    gemm_quant, quantize_affine_levels, quantize_affine_levels_hwc, QuantizedWeights,
};
use two_in_one_accel::tensor::{im2col_levels_rows, simd, Conv2dGeometry, Workspace};

/// The reference lowering: `[C, H, W]` levels to rows in `(ci, ki, kj)`
/// feature order, padded taps as `zero_point`.
fn reference_rows(chw: &[u8], geo: &Conv2dGeometry, h: usize, w: usize, zero_point: u8) -> Vec<u8> {
    let (c, kh, kw) = (geo.in_channels, geo.kernel_h, geo.kernel_w);
    let (oh, ow) = geo.output_hw(h, w);
    let mut rows = Vec::with_capacity(oh * ow * c * kh * kw);
    for oy in 0..oh {
        for ox in 0..ow {
            for ci in 0..c {
                for ki in 0..kh {
                    for kj in 0..kw {
                        let iy = (oy * geo.stride + ki) as isize - geo.padding as isize;
                        let ix = (ox * geo.stride + kj) as isize - geo.padding as isize;
                        let inside = (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix);
                        rows.push(if inside {
                            chw[(ci * h + iy as usize) * w + ix as usize]
                        } else {
                            zero_point
                        });
                    }
                }
            }
        }
    }
    rows
}

/// One random conv problem. `min_depth` keeps `c·kh·kw` past an integer
/// crossover when the case is meant to take the integer path.
struct Case {
    geo: Conv2dGeometry,
    h: usize,
    w: usize,
}

fn draw_case(rng: &mut SeededRng, min_depth: usize) -> Case {
    let kernel = [1, 3, 5][rng.below(3)];
    let stride = 1 + rng.below(2);
    let padding = rng.below(3);
    // Odd or even channel counts, never a multiple of 16.
    let mut c = min_depth.div_ceil(kernel * kernel) + rng.below(23);
    if c.is_multiple_of(16) {
        c += 1;
    }
    let k = 1 + rng.below(9); // quad rows plus a 0..3 tail
    let h = kernel.max(2) + rng.below(8);
    let w = kernel.max(2) + rng.below(8);
    Case {
        geo: Conv2dGeometry::new(c, k, kernel, stride, padding),
        h: if h == w { h + 1 } else { h },
        w,
    }
}

#[test]
fn patch_rows_equal_reference_lowering_under_the_feature_permutation() {
    let mut rng = SeededRng::new(0x1A7E);
    for case in 0..200 {
        let Case { geo, h, w } = draw_case(&mut rng, 1);
        let (c, kh, kw) = (geo.in_channels, geo.kernel_h, geo.kernel_w);
        let (oh, ow) = geo.output_hw(h, w);
        let zero_point = rng.below(256) as u8;
        let chw: Vec<u8> = (0..c * h * w).map(|_| rng.below(256) as u8).collect();
        let mut hwc = vec![0u8; chw.len()];
        for (i, &v) in chw.iter().enumerate() {
            hwc[i % (h * w) * c + i / (h * w)] = v;
        }
        let want = reference_rows(&chw, &geo, h, w, zero_point);
        let f = c * kh * kw;
        let mut got = vec![zero_point.wrapping_add(1); oh * ow * f];
        im2col_levels_rows(&hwc, &geo, h, w, zero_point, &mut got);
        for o in 0..oh * ow {
            for ci in 0..c {
                for tap in 0..kh * kw {
                    assert_eq!(
                        got[o * f + tap * c + ci],
                        want[o * f + ci * kh * kw + tap],
                        "case {case} {geo:?} {h}x{w}: patch {o} channel {ci} tap {tap}"
                    );
                }
            }
        }
    }
}

#[test]
fn levels_equal_round_then_clamp_through_the_public_quantizer() {
    // 0.0 and 255.0 pin the 8-bit grid to scale 1, zero point 0, so each
    // input is its own pre-rounding value: every half-integer in range with
    // its neighbours 1 ulp either side, and NaNs in between.
    let mut x = vec![0.0f32, 255.0, f32::NAN];
    for half in 0..=510 {
        let v = half as f32 * 0.5;
        x.extend([v.next_down().max(0.0), v, v.next_up().min(255.0), f32::NAN]);
    }
    for bits in 2u8..=8 {
        let mut levels = vec![0xAAu8; x.len()];
        let lp = quantize_affine_levels(&x, &mut levels, Precision::new(bits));
        if bits == 8 {
            assert_eq!((lp.scale, lp.zero_point), (1.0, 0));
        }
        let top = ((1u32 << bits) - 1) as f32;
        for (&v, &got) in x.iter().zip(&levels) {
            let want = (v / lp.scale + lp.zero_point as f32)
                .round()
                .clamp(0.0, top) as u8;
            assert_eq!(got, want, "bits={bits} v={v:e}");
        }
    }
}

#[test]
fn integer_conv_forward_equals_reference_lowering_and_per_sample() {
    let mut rng = SeededRng::new(0xC0DE);
    let mut ws = Workspace::new();
    ws.set_kernel(KernelMode::Native);
    let ops = simd::backend(KernelMode::Native);
    for case in 0..40 {
        // Past the sub-byte crossover (96), so 2..=8 bits all go integer.
        let Case { geo, h, w } = draw_case(&mut rng, 96);
        let (c, k) = (geo.in_channels, geo.out_channels);
        let f = c * geo.kernel_h * geo.kernel_w;
        let (oh, ow) = geo.output_hw(h, w);
        let (ohw, chw) = (oh * ow, c * h * w);
        let n = 1 + rng.below(4);
        let mut conv = Conv2d::new(geo, case % 2 == 0, &mut rng);
        let (mut weights, mut bias) = (Vec::new(), None);
        conv.visit_params(&mut |p| {
            if p.decay {
                weights = p.value.data().to_vec();
            } else {
                for b in p.value.data_mut() {
                    *b = rng.normal();
                }
                bias = Some(p.value.data().to_vec());
            }
        });
        let x = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
        for bits in 2u8..=8 {
            let p = Precision::new(bits);
            conv.set_precision(Some(p));
            let batched = conv.forward_ws(&x, Mode::Infer, &mut ws);
            assert_eq!(batched.shape(), &[n, k, oh, ow]);

            // Oracle: the (ci, ki, kj) path end to end on unpermuted weights.
            let wq = QuantizedWeights::quantize_rows(&weights, k, f, bits);
            for ni in 0..n {
                let img = &x.data()[ni * chw..(ni + 1) * chw];
                let mut levels = vec![0u8; chw];
                let lp = quantize_affine_levels(img, &mut levels, p);
                let mut hwc = vec![0u8; chw];
                assert_eq!(quantize_affine_levels_hwc(img, c, &mut hwc, p), lp);
                let rows = reference_rows(&levels, &geo, h, w, lp.zero_point as u8);
                let mut o = vec![0.0f32; ohw * k];
                gemm_quant(
                    ops,
                    ohw,
                    f,
                    &rows,
                    &[lp.scale],
                    &[lp.zero_point],
                    &wq,
                    bias.as_deref(),
                    &mut o,
                );
                let got = &batched.data()[ni * k * ohw..(ni + 1) * k * ohw];
                for ki in 0..k {
                    for s in 0..ohw {
                        assert_eq!(
                            got[ki * ohw + s].to_bits(),
                            o[s * k + ki].to_bits(),
                            "case {case} {geo:?} {h}x{w} bits={bits}: image {ni} out ({ki},{s})"
                        );
                    }
                }

                // Batched ≡ per-sample through the layer itself.
                let one = Tensor::from_vec(img.to_vec(), &[1, c, h, w]);
                let single = conv.forward_ws(&one, Mode::Infer, &mut ws);
                assert!(
                    single
                        .data()
                        .iter()
                        .zip(got)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "case {case} bits={bits}: image {ni} batched != per-sample"
                );
                ws.recycle_tensor(single);
            }
            ws.recycle_tensor(batched);
        }
    }
}
