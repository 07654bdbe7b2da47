//! Softmax-family ops and small utilities operating on 2-D batches.

use crate::Tensor;

/// Row-wise softmax of a `[n, c]` tensor (numerically stable).
///
/// One scalar expression on every host and under every `KernelMode`: the
/// row maximum, then `exp(x − max)` through libm's `f32::exp` summed left
/// to right, then a divide. A softmax over tens of classes is no hot
/// kernel, so nothing here is dispatched.
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.shape().len(), 2, "softmax_rows expects 2-D");
    let (n, c) = (x.shape()[0], x.shape()[1]);
    let mut out = Tensor::zeros(&[n, c]);
    for i in 0..n {
        let row = &x.data()[i * c..(i + 1) * c];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let orow = &mut out.data_mut()[i * c..(i + 1) * c];
        let mut denom = 0.0;
        for (o, &v) in orow.iter_mut().zip(row) {
            *o = (v - m).exp();
            denom += *o;
        }
        for o in orow.iter_mut() {
            *o /= denom;
        }
    }
    out
}

/// Row-wise log-softmax of a `[n, c]` tensor (numerically stable).
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn log_softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.shape().len(), 2, "log_softmax_rows expects 2-D");
    let (n, c) = (x.shape()[0], x.shape()[1]);
    let mut out = Tensor::zeros(&[n, c]);
    for i in 0..n {
        let row = &x.data()[i * c..(i + 1) * c];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
        let orow = &mut out.data_mut()[i * c..(i + 1) * c];
        for (o, &v) in orow.iter_mut().zip(row) {
            *o = v - lse;
        }
    }
    out
}

/// Index of the maximum element of a slice (first on ties).
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn argmax(row: &[f32]) -> usize {
    assert!(!row.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Row-wise argmax of a `[n, c]` logits tensor: the top-1 class per row.
///
/// # Panics
///
/// Panics if `logits` is not 2-D or has zero columns.
pub fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    assert_eq!(logits.shape().len(), 2, "argmax_rows expects 2-D logits");
    let (n, c) = (logits.shape()[0], logits.shape()[1]);
    (0..n)
        .map(|i| argmax(&logits.data()[i * c..(i + 1) * c]))
        .collect()
}

/// Number of rows of `logits` whose top-1 prediction matches its label —
/// the single accuracy-counting primitive shared by `tia-nn`, `tia-engine`
/// and the evaluation harness in `tia-core`.
///
/// # Panics
///
/// Panics if `logits` is not `[labels.len(), c]`.
pub fn count_top1_correct(logits: &Tensor, labels: &[usize]) -> usize {
    assert_eq!(
        logits.shape().len(),
        2,
        "count_top1_correct expects 2-D logits"
    );
    assert_eq!(
        logits.shape()[0],
        labels.len(),
        "logit rows must match label count"
    );
    let c = logits.shape()[1];
    labels
        .iter()
        .enumerate()
        .filter(|&(i, &y)| argmax(&logits.data()[i * c..(i + 1) * c]) == y)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = softmax_rows(&x);
        for i in 0..2 {
            let sum: f32 = s.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Monotone: larger logit -> larger prob.
        assert!(s.at2(0, 2) > s.at2(0, 1));
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let x = Tensor::from_vec(vec![0.5, -0.5, 2.0], &[1, 3]);
        let s = softmax_rows(&x);
        let ls = log_softmax_rows(&x);
        for (a, b) in s.data().iter().zip(ls.data()) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(vec![100.0, 101.0, 102.0], &[1, 3]);
        let y = Tensor::from_vec(vec![0.0, 1.0, 2.0], &[1, 3]);
        let sx = softmax_rows(&x);
        let sy = softmax_rows(&y);
        for (a, b) in sx.data().iter().zip(sy.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_first_on_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    fn argmax_rows_per_row() {
        let x = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.2, 2.0, -1.0], &[2, 3]);
        assert_eq!(argmax_rows(&x), vec![1, 1]);
    }

    #[test]
    fn count_top1_matches_manual() {
        let x = Tensor::from_vec(vec![0.1, 0.9, 2.0, -1.0], &[2, 2]);
        assert_eq!(count_top1_correct(&x, &[1, 0]), 2);
        assert_eq!(count_top1_correct(&x, &[0, 1]), 0);
        assert_eq!(count_top1_correct(&x, &[1, 1]), 1);
    }
}
