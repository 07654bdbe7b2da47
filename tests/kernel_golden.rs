//! Golden-fingerprint regression for both kernel tiers.
//!
//! `KernelMode::Scalar` is the repo's bitwise reference: whatever SIMD
//! backends are added or retuned, an engine pinned to scalar kernels must
//! keep reproducing the exact logits it produced when these fingerprints
//! were captured. The fingerprints hash every response logit bit produced
//! by a fixed seeded engine run, so a single flipped mantissa bit anywhere
//! in the serving stack (quantizer grids, GEMM accumulation order, BN
//! expression shape, softmax tiers) fails the test.
//!
//! `KernelMode::Native` is fingerprinted the same way: its f32 kernels are
//! bitwise-tier on every backend and its integer serving path accumulates
//! exactly in `i32`, so the logits are one fixed function of the inputs on
//! AVX2 and the scalar fallback alike. A kernel rewrite may reorder
//! the features inside an integer dot product or change how bytes are
//! arranged, never a logit bit.

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

#[test]
fn scalar_kernel_reproduces_pinned_logits() {
    // Captured on the commit that introduced the SIMD dispatch layer, with
    // the engine pinned to scalar kernels — the numerics every prior
    // release served. Do not regenerate casually: a change here means the
    // scalar tier broke bitwise compatibility.
    let golden: [(Option<u8>, u64); 6] = [
        (None, 0x587f_e254_c4df_8c20),
        (Some(4), 0xb5f8_182b_3ac9_78be),
        (Some(5), 0xdb2c_09fa_646d_c06c),
        (Some(6), 0x6fae_0ca0_3ec8_8183),
        (Some(7), 0x349e_da3a_52bc_5e1b),
        (Some(8), 0x43ed_97e4_8b45_cb6f),
    ];
    let net = zoo::preact_resnet18_rps(3, 4, 3, PrecisionSet::range(4, 8), &mut SeededRng::new(1));
    let cfg = EngineConfig::default()
        .with_max_batch(8)
        .with_seed(7)
        .with_kernel(KernelMode::Scalar);
    let mut eng = Engine::new(net, PrecisionPolicy::Fixed(None), cfg);
    let x = Tensor::rand_uniform(&[8, 3, 8, 8], 0.0, 1.0, &mut SeededRng::new(2));
    for (bits, want) in golden {
        let p = bits.map(Precision::new);
        for i in 0..x.shape()[0] {
            eng.try_submit_pinned(x.index_axis0(i), p)
                .expect("submission is a valid image");
        }
        let logits: Vec<Tensor> = eng.flush().into_iter().map(|r| r.logits).collect();
        assert_eq!(
            fingerprint(&logits),
            want,
            "scalar-tier logits drifted at precision {bits:?}"
        );
    }
}

#[test]
fn native_kernel_reproduces_pinned_logits() {
    // Captured on the commit *before* the channel-last integer conv
    // lowering, with the engine pinned to native kernels. Width 16 puts
    // every block conv (depth 144..1152) past both integer crossovers; the
    // 1x1 shortcuts (depth 16/32/64) straddle them, so f32 and integer
    // layers alternate inside one forward. The 12x16 input keeps H != W.
    let golden: [(Option<u8>, u64); 6] = [
        (None, 0x9025_4e1e_6939_0a97),
        (Some(4), 0xb5fc_1fbf_e4aa_ac60),
        (Some(5), 0xcc0c_c940_bfc7_cd3a),
        (Some(6), 0x2eae_0643_260e_1cd2),
        (Some(7), 0xf30f_0130_079f_a64c),
        (Some(8), 0xf403_766c_ebca_692e),
    ];
    let net = zoo::preact_resnet18_rps(
        3,
        16,
        10,
        PrecisionSet::range(4, 8),
        &mut SeededRng::new(11),
    );
    let cfg = EngineConfig::default()
        .with_max_batch(4)
        .with_seed(7)
        .with_kernel(KernelMode::Native);
    let mut eng = Engine::new(net, PrecisionPolicy::Fixed(None), cfg);
    let x = Tensor::rand_uniform(&[6, 3, 12, 16], 0.0, 1.0, &mut SeededRng::new(12));
    for (bits, want) in golden {
        let p = bits.map(Precision::new);
        for i in 0..x.shape()[0] {
            eng.try_submit_pinned(x.index_axis0(i), p)
                .expect("submission is a valid image");
        }
        let logits: Vec<Tensor> = eng.flush().into_iter().map(|r| r.logits).collect();
        assert_eq!(
            fingerprint(&logits),
            want,
            "native-tier logits drifted at precision {bits:?}"
        );
    }
}
