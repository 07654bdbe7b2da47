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
//! vector, and depths that end in a partial `K` quad (its padding weights).
//!
//! One tier further down, `gemm_quant_strided_matches_naive_on_tile_edges`
//! fuzzes the tiled GEMM driver itself on shapes chosen to straddle its
//! tile, panel and `K`-quad edges, at depths from 1 to past twice the
//! deepest served layer, against a reference that knows nothing of tiles,
//! on every backend the host can run.

use std::io::Write;
use two_in_one_accel::nn::{Conv2d, Layer};
use two_in_one_accel::prelude::*;
use two_in_one_accel::quant::{
    gemm_quant, gemm_quant_strided, quantize_affine_levels, quantize_affine_levels_hwc, OutStrides,
    QuantizedWeights,
};
use two_in_one_accel::tensor::simd::{INT_MR, INT_NR};
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

/// A value no dequantized sum produces: what `out` holds wherever the
/// strides do not reach.
const POISON: u32 = 0x7FC0_DEAD;

/// One seeded driver problem: the shape is drawn from `seed` alone, so the
/// line a failure prints (`tile_edge_case(0x…)`) replays it by itself.
fn tile_edge_case(seed: u64) {
    let mut rng = SeededRng::new(seed);
    // Groups of 1, 3 or 9 rows straddle the INT_MR-row blocks; widths and
    // depths sit on both sides of a panel and a K quad, and depths run past
    // the deepest served layer (1152) to twice and more of 1280.
    let groups = 1 + rng.below(4);
    let rpg = *rng.choose(&[1, 1, 3, 3, 9, INT_MR, 2 * INT_MR + 1]);
    let n = *rng.choose(&[1, 2, 10, INT_NR - 1, INT_NR, INT_NR + 1, 2 * INT_NR + 3]);
    let k = *rng.choose(&[
        1, 2, 3, 6, 7, 16, 17, 33, 144, 145, 146, 1279, 1280, 1281, 1282, 2561,
    ]);
    let bits = 2 + rng.below(7) as u8;
    let with_bias = rng.below(2) == 0;
    let planes = rng.below(2) == 0;
    // Gaps between rows / planes and between groups: memory the driver has
    // no business writing.
    let (pad, gap) = (rng.below(3), rng.below(5));
    let strides = if planes {
        OutStrides {
            group: n * (rpg + pad) + gap,
            row: 1,
            col: rpg + pad,
        }
    } else {
        OutStrides {
            group: rpg * (n + pad) + gap,
            row: n + pad,
            col: 1,
        }
    };
    let shape = format!(
        "tile_edge_case({seed:#x}): groups={groups} rows_per_group={rpg} k={k} n={n} \
         bits={bits} bias={with_bias} {strides:?}"
    );

    let m = groups * rpg;
    let weights: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect();
    let bias: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
    let bias = with_bias.then_some(&bias[..]);
    let levels: Vec<u8> = (0..m * k).map(|_| rng.below(1 << bits) as u8).collect();
    let scales: Vec<f32> = (0..groups).map(|_| rng.uniform_in(0.001, 0.1)).collect();
    let zps: Vec<i32> = (0..groups).map(|_| rng.below(1 << bits) as i32).collect();
    let q = QuantizedWeights::quantize_rows(&weights, n, k, bits);

    // The reference: the constructor's grid, an i64 sum per output, and the
    // driver's dequantization expression applied to it.
    let qmax = ((1i32 << (bits - 1)) - 1) as f32;
    let span = strides.group * (groups - 1) + strides.row * (rpg - 1) + strides.col * (n - 1) + 1;
    let mut want = vec![f32::from_bits(POISON); span + 7];
    for j in 0..n {
        let row = &weights[j * k..(j + 1) * k];
        let s_w = row.iter().fold(0.0f32, |a, &v| a.max(v.abs())) / qmax;
        assert_eq!(q.scales()[j].to_bits(), s_w.to_bits(), "{shape}: scale {j}");
        let t: Vec<i64> = row
            .iter()
            .map(|&v| (v / s_w).round().clamp(-qmax, qmax) as i64)
            .collect();
        for (p, &tp) in t.iter().enumerate() {
            assert_eq!(
                q.dequant_at(j, p),
                s_w * tp as f32,
                "{shape}: weight ({j},{p})"
            );
        }
        let t_sum: i64 = t.iter().sum();
        for i in 0..m {
            let (g, r) = (i / rpg, i % rpg);
            let sum: i64 = levels[i * k..(i + 1) * k]
                .iter()
                .zip(&t)
                .map(|(&a, &tp)| a as i64 * tp)
                .sum();
            let v = (scales[g] * s_w) * ((sum - zps[g] as i64 * t_sum) as f32);
            want[g * strides.group + r * strides.row + j * strides.col] = match bias {
                Some(b) => v + b[j],
                None => v,
            };
        }
    }
    let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();

    for ops in simd::available() {
        let name = ops.name();
        // The whole call: every reached element equals the reference, every
        // other element (gaps, tail, and so whatever a padded lane of an
        // edge tile computed) still holds the poison.
        let mut out = vec![f32::from_bits(POISON); want.len()];
        gemm_quant_strided(
            ops, m, k, &levels, &scales, &zps, &q, bias, &mut out, strides,
        );
        let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{shape} [{name}]");

        // Whole call ≡ one call per group: where a row falls in a block of
        // INT_MR cannot matter.
        let mut out = vec![f32::from_bits(POISON); want.len()];
        for g in 0..groups {
            gemm_quant_strided(
                ops,
                rpg,
                k,
                &levels[g * rpg * k..(g + 1) * rpg * k],
                &scales[g..g + 1],
                &zps[g..g + 1],
                &q,
                bias,
                &mut out[g * strides.group..],
                strides,
            );
        }
        let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{shape} [{name}, one call per group]");
    }
}

#[test]
fn gemm_quant_strided_matches_naive_on_tile_edges() {
    // Which tile bodies this run covers, written past the harness's capture.
    let names: Vec<_> = simd::available().iter().map(|ops| ops.name()).collect();
    writeln!(std::io::stderr(), "tile edge fuzz backends: {names:?}").ok();
    for case in 0..320u64 {
        tile_edge_case(0x71E5_ED6E ^ (case << 32));
    }
}
