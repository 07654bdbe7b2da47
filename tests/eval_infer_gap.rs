//! The gap between the function an engine serves (`Mode::Infer`) and the
//! function an attacker differentiates (`Mode::Eval`), printed and bounded.
//!
//! Both modes quantize on the same two grids of `tia_quant`, but past the
//! crossover depth `Infer` takes the integer path: weights on one grid per
//! output channel instead of one per tensor, and an exact `i32` sum instead
//! of an `f32` sum of dequantized products. Those two differences are all
//! this gap measures. The bounds sit at today's values, so the gap cannot
//! silently widen; closing it tightens them to full top-1 agreement and a
//! zero logit difference.

use two_in_one_accel::prelude::*;

/// One zoo model, its input batch, and per precision (4..=8 bit) the
/// `(top-1 agreement, max |Δlogit|)` measured over that batch, the logit
/// bound rounded up in its sixth decimal.
struct Case {
    width: usize,
    classes: usize,
    model_seed: u64,
    input: [usize; 4],
    input_seed: u64,
    bounds: [(u8, f32, f32); 5],
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
    let mut net = zoo::preact_resnet18_rps(
        3,
        case.width,
        case.classes,
        PrecisionSet::range(4, 8),
        &mut SeededRng::new(case.model_seed),
    );
    let x = Tensor::rand_uniform(&case.input, 0.0, 1.0, &mut SeededRng::new(case.input_seed));
    for &(bits, min_agree, max_delta) in &case.bounds {
        net.set_precision(Some(Precision::new(bits)));
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
        eprintln!(
            "width {} at {bits} bit: top-1 agreement {agree:.4}, max |Δlogit| {delta:.6}",
            case.width
        );
        assert!(
            agree >= min_agree,
            "width {} at {bits} bit: top-1 agreement {agree} fell below {min_agree}",
            case.width
        );
        assert!(
            delta <= max_delta,
            "width {} at {bits} bit: max |Δlogit| {delta} grew past {max_delta}",
            case.width
        );
    }
}

#[test]
fn width4_eval_infer_gap_stays_within_todays_bounds() {
    check(&Case {
        width: 4,
        classes: 3,
        model_seed: 1,
        input: [32, 3, 8, 8],
        input_seed: 2,
        bounds: [
            (4, 27.0 / 32.0, 1.551_768),
            (5, 30.0 / 32.0, 1.212_693),
            (6, 1.0, 0.487_852),
            (7, 31.0 / 32.0, 0.463_135),
            (8, 1.0, 0.149_129),
        ],
    });
}

#[test]
fn width16_eval_infer_gap_stays_within_todays_bounds() {
    check(&Case {
        width: 16,
        classes: 10,
        model_seed: 11,
        input: [16, 3, 12, 16],
        input_seed: 12,
        bounds: [
            (4, 15.0 / 16.0, 3.352_974),
            (5, 1.0, 1.853_562),
            (6, 15.0 / 16.0, 0.856_633),
            (7, 1.0, 0.429_859),
            (8, 1.0, 0.189_256),
        ],
    });
}
