//! Standalone per-layer probes of the traced run: `nn` forwards and layer
//! classes, and the model's layer shapes replayed through the public
//! `quant` and `tensor` kernels at batch 8, the wire codec, and the
//! accelerator simulator. Every number is the median of repeated calls on
//! warm state; "per request" divides a batch-8 call by 8.
//!
//! The replay runs at 8 bit. Which layers take the integer GEMM there is
//! decided by `tia-nn`'s crossover (reduction depth ≥ 48); the replay
//! applies the same rule, and a unit test pins it to the crate's behaviour.

use crate::clock::now_ns;
use crate::engine_wl::EngineWorkload;
use crate::harness::{median_ns, Workload};
use crate::model::{conv_geometry, rps_set, ModelSize, CLASSES, POLICY_SEED};
use crate::report::Metrics;
use tia_accel::PrecisionPair;
use tia_dataflow::{EvoSearch, SearchMode};
use tia_engine::{Backend, EngineConfig, PrecisionPolicy, ShardedEngine, SimBacked};
use tia_nn::{Conv2d, Layer, Linear, Mode, SwitchableBatchNorm};
use tia_quant::{
    fake_quant_symmetric_into, gemm_quant, quantize_affine_levels, Precision, QuantizedWeights,
};
use tia_serve::{infer_frame, Frame, InferResponse, WirePolicy};
use tia_sim::Accelerator;
use tia_tensor::{
    gemm_ws, im2col_levels_rows, matmul_a_bt_ws, matmul_at_b_ws, simd, softmax_rows, KernelMode,
    PackedMatrix, SeededRng, Tensor, Workspace,
};

/// Batch the layer probes run at (the engine's `max_batch`).
const BATCH: usize = 8;
/// Reduction depth from which an 8-bit layer takes the integer GEMM
/// (`INT_CROSSOVER_K` in crates/nn/src/pack_memo.rs).
const INT_CROSSOVER_K: usize = 48;
/// The fixed GEMM problem of the throughput figures, as in
/// crates/bench/benches/rps.rs.
const GEMM: (usize, usize, usize) = (64, 256, 64);

fn p8() -> Precision {
    Precision::new(8)
}

fn us_per_req(batch_ns: f64) -> f64 {
    batch_ns / 1e3 / BATCH as f64
}

/// `nn.*`: whole-network forwards per precision, layer classes summed
/// over the model's shapes, the precision switch, the memo fill, and the
/// eval / backward passes that attacks use. `budget_ms` is the time each
/// of the longer probes may take.
pub fn nn_probes(size: ModelSize, seed: u64, budget_ms: f64) -> Metrics {
    let mut m = Metrics::default();
    let set = rps_set();
    let x = size.images(seed, BATCH);

    // Memo fill: the first forward at each precision on a fresh network
    // quantizes and packs every layer's weights.
    let one = size.images(seed, 1);
    let mut fills = Vec::new();
    for _ in 0..3 {
        let mut net = size.build(seed);
        let t = now_ns();
        for p in set.iter() {
            let y = Backend::infer_batch(&mut net, &one, Some(p));
            net.recycle(y);
        }
        fills.push(now_ns() - t);
    }
    m.put("nn.memo_fill_ms", crate::stats::median_u64(&fills) / 1e6);

    let mut net = size.build(seed);
    let mut per_precision = Vec::new();
    for p in set.iter() {
        let ns = median_ns(5, budget_ms / 5.0, || {
            let y = Backend::infer_batch(&mut net, &x, Some(p));
            net.recycle(y);
        });
        per_precision.push((p.bits(), us_per_req(ns)));
    }
    let at = |bits: u8| {
        per_precision
            .iter()
            .find(|(b, _)| *b == bits)
            .map_or(f64::NAN, |&(_, v)| v)
    };
    m.put(
        "nn.infer_us_per_req",
        per_precision.iter().map(|&(_, v)| v).sum::<f64>() / per_precision.len() as f64,
    );
    m.put("nn.infer_us_per_req_p4", at(4));
    m.put("nn.infer_us_per_req_p8", at(8));

    // The random precision switch on a memo hit: set_precision alone.
    let ps: Vec<Precision> = set.iter().collect();
    let mut i = 0;
    let switch_ns = median_ns(50, budget_ms / 10.0, || {
        for _ in 0..20 {
            i = (i + 1) % ps.len();
            net.set_precision(Some(ps[i]));
        }
    });
    m.put("nn.switch_us", switch_ns / 20.0 / 1e3);

    // Layer classes, each layer standalone at its shape in the model.
    let shapes = size.shapes();
    let mut rng = SeededRng::new(seed ^ 0x6C61_7965_7273);
    let mut ws = Workspace::new();
    let per_layer = budget_ms / 2.0 / (shapes.convs.len() + shapes.bns.len() + 1) as f64;
    let time_layer = |layer: &mut dyn Layer, input: &Tensor, ws: &mut Workspace| {
        layer.set_precision(Some(p8()));
        median_ns(3, per_layer, || {
            let y = layer.forward_ws(input, Mode::Infer, ws);
            ws.recycle_tensor(y);
        })
    };
    let mut conv_ns = 0.0;
    for spec in &shapes.convs {
        let Some((geo, _)) = conv_geometry(spec) else {
            continue;
        };
        let input = Tensor::rand_uniform(
            &[BATCH, geo.in_channels, spec.in_h, spec.in_w],
            0.0,
            1.0,
            &mut rng,
        );
        conv_ns += time_layer(&mut Conv2d::new(geo, false, &mut rng), &input, &mut ws);
    }
    let mut bn_ns = 0.0;
    for &(c, hw) in &shapes.bns {
        let input = Tensor::rand_uniform(&[BATCH, c, hw, hw], -1.0, 1.0, &mut rng);
        bn_ns += time_layer(
            &mut SwitchableBatchNorm::new(c, set.clone()),
            &input,
            &mut ws,
        );
    }
    let (fc_in, fc_out) = shapes.fc;
    let input = Tensor::rand_uniform(&[BATCH, fc_in], 0.0, 1.0, &mut rng);
    let linear_ns = time_layer(
        &mut Linear::new(fc_in, fc_out, true, &mut rng),
        &input,
        &mut ws,
    );
    m.put("nn.conv_us_per_req", us_per_req(conv_ns));
    m.put("nn.bn_us_per_req", us_per_req(bn_ns));
    m.put("nn.linear_us_per_req", us_per_req(linear_ns));

    // What every attack runs: Mode::Eval forward, and forward + backward
    // to the input gradient, on a 24-image batch through f32 fake-quant.
    let x24 = size.images(seed ^ 24, 24);
    let labels: Vec<usize> = (0..24).map(|i| i % CLASSES).collect();
    net.set_precision(Some(p8()));
    let eval_ns = median_ns(3, budget_ms / 2.0, || {
        let y = net.forward(&x24, Mode::Eval);
        net.recycle(y);
    });
    let bwd_ns = median_ns(3, budget_ms / 2.0, || {
        net.zero_grad();
        let (_, gx) = net.loss_and_input_grad(&x24, &labels, Mode::Eval);
        net.recycle(gx);
    });
    m.put("nn.eval_fwd_ms_b24", eval_ns / 1e6);
    m.put("nn.fwd_bwd_ms_b24", bwd_ns / 1e6);
    m
}

/// `quant.*` and `tensor.*`: the model's layer shapes replayed through the
/// public kernels at batch 8 and 8 bit, plus fixed-size kernel throughput.
/// `infer_p8_us` is `nn.infer_us_per_req_p8`, the base of the GEMM share.
pub fn kernel_probes(size: ModelSize, seed: u64, budget_ms: f64, infer_p8_us: f64) -> Metrics {
    let mut m = Metrics::default();
    let mut rng = SeededRng::new(seed ^ 0x6B65_726E);
    let ops = simd::backend(KernelMode::global_default());
    let mut ws = Workspace::new();
    let shapes = size.shapes();
    let per_layer = budget_ms / 2.0 / (shapes.convs.len() + 1) as f64;

    let (mut quantize_ns, mut im2col_ns, mut gemm_q_ns, mut gemm_f_ns, mut build_ns) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    // Every GEMM of the model: the convs, then the classifier (`None`).
    for spec in shapes.convs.iter().map(Some).chain([None]) {
        let conv = spec.and_then(|s| Some((s, conv_geometry(s)?.0)));
        // Rows per image, reduction depth, outputs, input elements per image.
        let (rows, depth, outputs, chw) = match &conv {
            Some((s, geo)) => {
                let (oh, ow) = s.out_hw();
                let depth = geo.in_channels * geo.kernel_h * geo.kernel_w;
                (oh * ow, depth, geo.out_channels, s.input_elems() as usize)
            }
            None => (1, shapes.fc.0, shapes.fc.1, shapes.fc.0),
        };
        let m_rows = BATCH * rows;
        let weights = Tensor::randn(&[outputs * depth], 0.1, &mut rng);
        let mut out = vec![0.0f32; m_rows * outputs];
        if depth < INT_CROSSOVER_K {
            // Shallow layer: f32 fake-quant columns against packed f32 panels.
            let packed = PackedMatrix::pack_lhs(outputs, depth, weights.data());
            let cols = Tensor::rand_uniform(&[depth * m_rows], 0.0, 1.0, &mut rng);
            gemm_f_ns += median_ns(3, per_layer, || {
                out.fill(0.0);
                packed.gemm_lhs(m_rows, cols.data(), &mut out, &mut ws);
            });
            continue;
        }
        let image = Tensor::rand_uniform(&[chw], 0.0, 1.0, &mut rng);
        let mut levels = vec![0u8; chw];
        let mut lp = quantize_affine_levels(image.data(), &mut levels, p8());
        quantize_ns += median_ns(3, per_layer / 4.0, || {
            for _ in 0..BATCH {
                lp = quantize_affine_levels(image.data(), &mut levels, p8());
            }
        });
        let mut patch_rows = vec![0u8; m_rows * depth];
        match &conv {
            Some((s, geo)) => {
                im2col_ns += median_ns(3, per_layer / 4.0, || {
                    for b in 0..BATCH {
                        im2col_levels_rows(
                            &levels,
                            geo,
                            s.in_h,
                            s.in_w,
                            lp.zero_point as u8,
                            &mut patch_rows[b * rows * depth..(b + 1) * rows * depth],
                        );
                    }
                });
            }
            // The classifier's rows are the quantized features themselves.
            None => patch_rows.copy_from_slice(&levels.repeat(BATCH)),
        }
        let t = now_ns();
        let wq = QuantizedWeights::quantize_rows(weights.data(), outputs, depth, 8);
        build_ns += (now_ns() - t) as f64;
        let (scales, zps) = (vec![lp.scale; BATCH], vec![lp.zero_point; BATCH]);
        gemm_q_ns += median_ns(3, per_layer / 2.0, || {
            gemm_quant(
                ops,
                m_rows,
                depth,
                &patch_rows,
                &scales,
                &zps,
                &wq,
                None,
                &mut out,
            );
        });
    }
    m.put("quant.act_quantize_us_per_req", us_per_req(quantize_ns));
    m.put("quant.gemm_quant_us_per_req", us_per_req(gemm_q_ns));
    m.put("quant.weights_build_ms", build_ns / 1e6);
    m.put("tensor.gemm_f32_us_per_req", us_per_req(gemm_f_ns));
    m.put("tensor.im2col_us_per_req", us_per_req(im2col_ns));
    m.put(
        "tensor.gemm_share",
        us_per_req(gemm_f_ns + gemm_q_ns) / infer_p8_us,
    );

    // Fixed-size kernel throughput.
    let (gm, gk, gn) = GEMM;
    let ops_per_call = 2.0 * (gm * gk * gn) as f64;
    let a = Tensor::rand_uniform(&[gm, gk], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[gk, gn], -1.0, 1.0, &mut rng);
    let mut c = vec![0.0f32; gm * gn];
    let each = budget_ms / 10.0;
    let f32_ns = median_ns(5, each, || {
        c.fill(0.0);
        gemm_ws(gm, gk, gn, a.data(), b.data(), &mut c, &mut ws);
    });
    m.put("tensor.gemm_f32_gflops", ops_per_call / f32_ns);
    let mut levels = vec![0u8; gm * gk];
    let (mut scales, mut zps) = (vec![0.0f32; gm], vec![0i32; gm]);
    for (bits, name) in [(8u8, "quant.gemm_i8_gops"), (4u8, "quant.gemm_i4_gops")] {
        for i in 0..gm {
            let lp = quantize_affine_levels(
                &a.data()[i * gk..(i + 1) * gk],
                &mut levels[i * gk..(i + 1) * gk],
                Precision::new(bits),
            );
            (scales[i], zps[i]) = (lp.scale, lp.zero_point);
        }
        let w = QuantizedWeights::quantize_rows(b.data(), gn, gk, bits);
        let ns = median_ns(5, each, || {
            gemm_quant(ops, gm, gk, &levels, &scales, &zps, &w, None, &mut c);
        });
        m.put(name, ops_per_call / ns);
    }
    // Computed, not measured: activation levels and packed i8 weights read
    // once, f32 outputs written once, per multiply-accumulate pair.
    m.put(
        "quant.gemm_i8_bytes_per_op",
        (gm * gk + gn * gk + 4 * gm * gn) as f64 / ops_per_call,
    );
    let bwd_ns = median_ns(5, each, || {
        c.fill(0.0);
        matmul_at_b_ws(gk, gm, gn, a.data(), b.data(), &mut c, &mut ws);
        c.fill(0.0);
        matmul_a_bt_ws(gm, gk, gn, a.data(), b.data(), &mut c, &mut ws);
    });
    m.put("tensor.matmul_bwd_gflops", 2.0 * ops_per_call / bwd_ns);

    let src = Tensor::randn(&[64 * 64 * 9], 1.0, &mut rng);
    let mut dst = vec![0.0f32; src.len()];
    let fq_ns = median_ns(5, each, || {
        fake_quant_symmetric_into(src.data(), &mut dst, p8());
    });
    m.put("quant.fake_quant_ns_per_elem", fq_ns / src.len() as f64);

    let logits = Tensor::randn(&[256, CLASSES], 1.0, &mut rng);
    let sm_ns = median_ns(5, each, || {
        std::hint::black_box(softmax_rows(&logits));
    });
    m.put("tensor.softmax_ns_per_row", sm_ns / 256.0);

    let cycle_ns = median_ns(5, each, || {
        for _ in 0..1_000 {
            let buf = ws.take_spare(4_096);
            ws.recycle(std::hint::black_box(buf));
        }
    });
    m.put("tensor.ws_cycle_ns", cycle_ns / 1_000.0);
    m
}

/// `serve.wire_*`: `Frame::encode` / `Frame::decode` standalone, on the
/// request and response frames `tcp_closed` exchanges.
pub fn wire_probes(seed: u64, budget_ms: f64) -> Metrics {
    let mut m = Metrics::default();
    let image = crate::model::SMALL.images(seed, 1).index_axis0(0);
    let infer = infer_frame(7, &image, WirePolicy::Server);
    let logits = Frame::Logits(InferResponse {
        id: 7,
        precision: Some(p8()),
        top1: 3,
        logits: (0..CLASSES).map(|i| i as f32 * 0.25 - 1.0).collect(),
    });
    const REPS: usize = 100;
    for (frame, encode, decode) in [
        (
            &infer,
            "serve.wire_encode_infer_ns",
            "serve.wire_decode_infer_ns",
        ),
        (
            &logits,
            "serve.wire_encode_logits_ns",
            "serve.wire_decode_logits_ns",
        ),
    ] {
        let bytes = frame.encode();
        let enc_ns = median_ns(5, budget_ms / 4.0, || {
            for _ in 0..REPS {
                std::hint::black_box(std::hint::black_box(frame).encode());
            }
        });
        let dec_ns = median_ns(5, budget_ms / 4.0, || {
            for _ in 0..REPS {
                std::hint::black_box(Frame::decode(std::hint::black_box(&bytes)).is_ok());
            }
        });
        m.put(encode, enc_ns / REPS as f64);
        m.put(decode, dec_ns / REPS as f64);
    }
    m
}

/// `sim.*`: the modelled side. One burst of the workload's RPS schedule is
/// served through a `SimBacked` replica and the merged ledger read back
/// (simulated cycles, energy and frames per second: exact per seed), and
/// the simulator's own host time over the five precisions is measured.
pub fn sim_probes(engine: &EngineWorkload, seed: u64) -> Result<Metrics, String> {
    let size = engine.size;
    let spec = size.spec();
    let accel = || {
        Accelerator::ours().with_search(EvoSearch {
            population: 8,
            cycles: 3,
            mode: SearchMode::Full,
        })
    };
    let t = now_ns();
    let mut standalone = accel();
    for p in rps_set().iter() {
        std::hint::black_box(
            standalone.simulate_network(&spec, PrecisionPair::symmetric(p.bits())),
        );
    }
    let host_ms = (now_ns() - t) as f64 / 1e6;

    let mut sim_engine = ShardedEngine::with_factory(
        1,
        |_| SimBacked::new(size.build(seed), accel(), spec.clone()),
        PrecisionPolicy::Random(rps_set()),
        EngineConfig::default()
            .with_max_batch(8)
            .with_seed(POLICY_SEED),
    );
    let served = sim_engine.serve(&size.images(seed, size.burst));
    let cost = sim_engine.stats().cost;
    drop(sim_engine.shutdown());
    if served.len() != size.burst || !cost.modeled {
        return Err(format!(
            "{}: the simulated burst was not served and priced",
            engine.name()
        ));
    }
    let mut m = Metrics::default();
    m.put("sim.cycles_per_frame", cost.cycles_per_frame());
    m.put("sim.energy_per_frame", cost.energy_per_frame());
    m.put("sim.fps", cost.fps);
    m.put("sim.host_ms", host_ms);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_tensor::Conv2dGeometry;

    /// Whether an 8-bit serving forward of a conv of this depth differs
    /// from its fake-quant eval forward, i.e. took the integer path.
    fn takes_integer_path(in_channels: usize) -> bool {
        let mut rng = SeededRng::new(5);
        let mut conv = Conv2d::new(
            Conv2dGeometry::new(in_channels, 4, 3, 1, 1),
            false,
            &mut rng,
        );
        conv.set_precision(Some(p8()));
        let x = Tensor::rand_uniform(&[1, in_channels, 6, 6], 0.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        ws.set_kernel(KernelMode::Native);
        let infer = conv.forward_ws(&x, Mode::Infer, &mut ws);
        let eval = conv.forward_ws(&x, Mode::Eval, &mut ws);
        infer
            .data()
            .iter()
            .zip(eval.data())
            .any(|(a, b)| a.to_bits() != b.to_bits())
    }

    #[test]
    fn replay_crossover_is_the_crates_crossover() {
        // Depth c·9: 5 channels = 45 stays f32, 6 channels = 54 goes integer.
        const { assert!(5 * 9 < INT_CROSSOVER_K && 6 * 9 >= INT_CROSSOVER_K) };
        assert!(!takes_integer_path(5));
        assert!(takes_integer_path(6));
    }

    #[test]
    fn probes_report_every_metric_they_own() {
        let size = crate::model::SMALL;
        let mut all = nn_probes(size, 1, 2.0);
        let p8_us = all.get("nn.infer_us_per_req_p8").expect("p8");
        all.extend(kernel_probes(size, 1, 2.0, p8_us));
        all.extend(wire_probes(1, 1.0));
        for (name, _, _) in crate::report::PER_LAYER {
            let standalone = ["nn.", "quant.", "tensor.", "serve.wire_"];
            if standalone.iter().any(|p| name.starts_with(p)) {
                let v = all.get(name).unwrap_or_else(|| panic!("{name} missing"));
                assert!(v.is_finite() && v > 0.0, "{name} = {v}");
            }
        }
    }
}
