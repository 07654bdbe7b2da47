//! The gap between the function an engine serves (`Mode::Infer`) and the
//! function an attacker differentiates (`Mode::Eval`), printed and bounded.
//!
//! Both modes quantize on the same two grids of `tia_quant`. Below the
//! crossover depth `Infer` runs `Eval`'s f32 path, so a model whose every
//! reduction is that shallow serves `Eval`'s bits at every precision. Past
//! it `Infer` takes the integer path: weights on one grid per output
//! channel instead of one per tensor, and an exact `i32` sum instead of an
//! `f32` sum of dequantized products. Those two differences are all this
//! gap measures. The bounds sit at today's values, so the gap cannot
//! silently widen; closing it tightens them to full top-1 agreement and a
//! zero logit difference.

use two_in_one_accel::nn::zoo::{preact_resnet, BnKind, PreActResNetConfig};
use two_in_one_accel::prelude::*;

/// The first `stages` stages of the zoo's PreActResNet-18 (all four are
/// `zoo::preact_resnet18_rps`), its input batch, and per precision the
/// `(top-1 agreement, max |Δlogit|)` measured over that batch, the logit
/// bound rounded up in its sixth decimal. A logit bound of 0 asks for
/// bitwise-equal logits.
struct Case {
    width: usize,
    classes: usize,
    stages: usize,
    model_seed: u64,
    input: [usize; 4],
    input_seed: u64,
    bounds: Vec<(Option<u8>, f32, f32)>,
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

fn check(case: &Case) {
    let set = BnKind::Switchable(PrecisionSet::range(4, 8));
    let mut cfg = PreActResNetConfig::resnet18(3, case.width, case.classes, set);
    cfg.stage_blocks.truncate(case.stages);
    cfg.stage_strides.truncate(case.stages);
    let mut net = preact_resnet(&cfg, &mut SeededRng::new(case.model_seed));
    let x = Tensor::rand_uniform(&case.input, 0.0, 1.0, &mut SeededRng::new(case.input_seed));
    for &(bits, min_agree, max_delta) in &case.bounds {
        net.set_precision(bits.map(Precision::new));
        let eval = net.forward(&x, Mode::Eval);
        let infer = net.forward(&x, Mode::Infer);
        let rows = eval
            .data()
            .chunks(case.classes)
            .zip(infer.data().chunks(case.classes));
        let agree = rows.clone().filter(|(e, i)| argmax(e) == argmax(i)).count() as f32
            / case.input[0] as f32;
        let delta = rows
            .flat_map(|(e, i)| e.iter().zip(i).map(|(a, b)| (a - b).abs()))
            .fold(0.0f32, f32::max);
        let at = bits.map_or("fp32".to_string(), |b| format!("{b} bit"));
        let what = format!("width {}, {} stage(s), at {at}", case.width, case.stages);
        eprintln!("{what}: top-1 agreement {agree:.4}, max |Δlogit| {delta:.9}");
        assert!(
            agree >= min_agree,
            "{what}: top-1 agreement {agree} fell below {min_agree}"
        );
        assert!(
            delta <= max_delta,
            "{what}: max |Δlogit| {delta} grew past {max_delta}"
        );
        if max_delta == 0.0 {
            let mut pairs = eval.data().iter().zip(infer.data());
            assert!(
                pairs.all(|(e, i)| e.to_bits() == i.to_bits()),
                "{what}: Infer logits are not Eval's bits"
            );
        }
    }
}

#[test]
fn width4_eval_infer_gap_stays_within_todays_bounds() {
    check(&Case {
        width: 4,
        classes: 3,
        stages: 4,
        model_seed: 1,
        input: [32, 3, 8, 8],
        input_seed: 2,
        bounds: vec![
            (Some(4), 27.0 / 32.0, 1.551_768),
            (Some(5), 30.0 / 32.0, 1.212_693),
            (Some(6), 1.0, 0.487_852),
            (Some(7), 31.0 / 32.0, 0.463_135),
            (Some(8), 1.0, 0.149_129),
        ],
    });
}

#[test]
fn width16_eval_infer_gap_stays_within_todays_bounds() {
    check(&Case {
        width: 16,
        classes: 10,
        stages: 4,
        model_seed: 11,
        input: [16, 3, 12, 16],
        input_seed: 12,
        bounds: vec![
            (Some(4), 15.0 / 16.0, 3.352_974),
            (Some(5), 1.0, 1.853_562),
            (Some(6), 15.0 / 16.0, 0.856_633),
            (Some(7), 1.0, 0.429_859),
            (Some(8), 1.0, 0.189_256),
        ],
    });
}

#[test]
fn below_the_crossover_infer_serves_eval_bits_at_every_precision() {
    // One stage at width 4: depths 27 (stem) and 36 (block convs), and the
    // classifier's 4 features, all below the integer crossover (48).
    let mut bounds: Vec<_> = (2..=16).map(|b| (Some(b), 1.0, 0.0)).collect();
    bounds.push((None, 1.0, 0.0));
    check(&Case {
        width: 4,
        classes: 3,
        stages: 1,
        model_seed: 1,
        input: [32, 3, 8, 8],
        input_seed: 2,
        bounds,
    });
}
