//! Golden-fingerprint regression: one table per model and forward mode,
//! every row asserted under both `KernelMode`s.
//!
//! The kernel mode chooses speed only. Every dispatched kernel gives the
//! scalar backend's bits, the integer serving path accumulates exactly in
//! `i32`, and which layers take that path depends on the mode of the
//! forward (`Infer` or `Eval`), never on the kernel mode. So each model has
//! two tables — the logits an engine serves (`Infer`) and the logits a
//! batched `Eval` forward gives the attacker — and each must hold under
//! `scalar` and `native` alike. The fingerprints hash every logit bit, so a
//! single flipped mantissa bit anywhere in the stack (quantizer grids, GEMM
//! accumulation order, BN expression shape) fails the test. A kernel
//! rewrite may reorder the features inside an integer dot product or change
//! how bytes are arranged, never a logit bit.

use two_in_one_accel::prelude::*;

/// FNV-1a over the little-endian bytes of each logit's bit pattern, in
/// response order.
fn fingerprint(logits: &[Tensor]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in logits {
        for v in t.data() {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// One pinned model: `zoo::preact_resnet18_rps(3, width, classes, 4..=8)`
/// from `model_seed`, a uniform `[0, 1)` input batch of shape `input` from
/// `input_seed`, served through an engine forming batches of `max_batch`.
struct Model {
    width: usize,
    classes: usize,
    model_seed: u64,
    input: [usize; 4],
    input_seed: u64,
    max_batch: usize,
}

type Table = [(Option<u8>, u64); 6];

/// Asserts every row of both tables under both kernel modes: `infer` for
/// the engine's pinned-precision bursts, `eval` for one batched
/// `Network::forward(.., Mode::Eval)` per precision.
fn check(m: &Model, infer: &Table, eval: &Table) {
    let net = || {
        zoo::preact_resnet18_rps(
            3,
            m.width,
            m.classes,
            PrecisionSet::range(4, 8),
            &mut SeededRng::new(m.model_seed),
        )
    };
    let x = Tensor::rand_uniform(&m.input, 0.0, 1.0, &mut SeededRng::new(m.input_seed));
    for kernel in [KernelMode::Scalar, KernelMode::Native] {
        let cfg = EngineConfig::default()
            .with_max_batch(m.max_batch)
            .with_seed(7)
            .with_kernel(kernel);
        let mut eng = Engine::new(net(), PrecisionPolicy::Fixed(None), cfg);
        for &(bits, want) in infer {
            let p = bits.map(Precision::new);
            for i in 0..x.shape()[0] {
                eng.try_submit_pinned(x.index_axis0(i), p)
                    .expect("submission is a valid image");
            }
            let logits: Vec<Tensor> = eng.flush().into_iter().map(|r| r.logits).collect();
            assert_eq!(
                fingerprint(&logits),
                want,
                "width {}: Infer logits drifted at precision {bits:?} under {kernel}",
                m.width
            );
        }
        let mut attacked = net();
        attacked.set_kernel(kernel);
        for &(bits, want) in eval {
            attacked.set_precision(bits.map(Precision::new));
            let logits = attacked.forward(&x, Mode::Eval);
            assert_eq!(
                fingerprint(&[logits]),
                want,
                "width {}: Eval logits drifted at precision {bits:?} under {kernel}",
                m.width
            );
        }
    }
}

#[test]
fn width4_model_reproduces_pinned_logits() {
    let model = Model {
        width: 4,
        classes: 3,
        model_seed: 1,
        input: [8, 3, 8, 8],
        input_seed: 2,
        max_batch: 8,
    };
    // Served: the integer network past the crossovers. Captured under
    // `native` on the commit before `scalar` began serving it too.
    let infer: Table = [
        (None, 0x587f_e254_c4df_8c20),
        (Some(4), 0x339b_ef2e_0751_7d17),
        (Some(5), 0x748e_e307_c662_d621),
        (Some(6), 0x04fb_6b4d_65fe_53a1),
        (Some(7), 0xd320_80b9_04f9_a7a6),
        (Some(8), 0x588c_3675_29aa_58f8),
    ];
    // Attacked: the f32 fake-quant network. Captured on the commit that
    // introduced the SIMD dispatch layer, with the engine pinned to scalar
    // kernels, which served this function until they took the integer
    // path as well. Do not regenerate casually: a change here means the
    // function every attack differentiates has moved.
    let eval: Table = [
        (None, 0x587f_e254_c4df_8c20),
        (Some(4), 0xb5f8_182b_3ac9_78be),
        (Some(5), 0xdb2c_09fa_646d_c06c),
        (Some(6), 0x6fae_0ca0_3ec8_8183),
        (Some(7), 0x349e_da3a_52bc_5e1b),
        (Some(8), 0x43ed_97e4_8b45_cb6f),
    ];
    check(&model, &infer, &eval);
}

#[test]
fn width16_model_reproduces_pinned_logits() {
    // Width 16 puts every block conv (depth 144..1152) past both integer
    // crossovers; the 1x1 shortcuts (depth 16/32/64) straddle them, so f32
    // and integer layers alternate inside one served forward. The 12x16
    // input keeps H != W.
    let model = Model {
        width: 16,
        classes: 10,
        model_seed: 11,
        input: [6, 3, 12, 16],
        input_seed: 12,
        max_batch: 4,
    };
    // Captured under `native` on the commit *before* the channel-last
    // integer conv lowering.
    let infer: Table = [
        (None, 0x9025_4e1e_6939_0a97),
        (Some(4), 0xb5fc_1fbf_e4aa_ac60),
        (Some(5), 0xcc0c_c940_bfc7_cd3a),
        (Some(6), 0x2eae_0643_260e_1cd2),
        (Some(7), 0xf30f_0130_079f_a64c),
        (Some(8), 0xf403_766c_ebca_692e),
    ];
    let eval: Table = [
        (None, 0x9025_4e1e_6939_0a97),
        (Some(4), 0x9aa0_18db_55b3_a347),
        (Some(5), 0x827c_fbbc_f8f6_9732),
        (Some(6), 0x709e_2a71_9044_2784),
        (Some(7), 0xf29a_bb73_e8ea_9c45),
        (Some(8), 0xba3d_fe13_1c79_b493),
    ];
    check(&model, &infer, &eval);
}
