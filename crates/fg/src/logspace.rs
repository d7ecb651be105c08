//! Log-domain numerics for belief propagation.
//!
//! Messages and beliefs are kept as log-potentials so that products become
//! sums and long chains of small probabilities never underflow.
//!
//! Every shifted exponential here goes through `exp_shifted`, which
//! returns the literal `1.0` for a row's maximum instead of calling
//! `exp(0.0)`. IEEE subtraction gives `x − x = +0.0` and `exp(±0.0)` is
//! exactly `1.0`, so the shortcut changes no bit of any sum it feeds — it
//! only saves one libm call per row (half of them on binary variables).

/// `exp(x − max)` for an entry `x` of a row whose maximum is `max`. The
/// row's maximum itself gives `x − max = ±0.0`, and its exponential is
/// the literal `1.0` without a libm call: bitwise what `exp` returns.
#[inline]
pub(crate) fn exp_shifted(x: f64, max: f64) -> f64 {
    let d = x - max;
    if d == 0.0 {
        1.0
    } else {
        d.exp()
    }
}

/// `log(Σ exp(x_i))` of a row given as a re-iterable sequence: one pass
/// for the maximum, one for the shifted sum. An empty row yields `-∞`.
#[inline]
fn logsumexp_iter(xs: impl Iterator<Item = f64> + Clone) -> f64 {
    let max = xs.clone().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let sum: f64 = xs.map(|x| exp_shifted(x, max)).sum();
    max + sum.ln()
}

/// `log(Σ exp(x_i))` computed stably. An empty slice yields `-∞`.
pub fn logsumexp(xs: &[f64]) -> f64 {
    logsumexp_iter(xs.iter().copied())
}

/// Overwrite `dst` with the normalized log-message whose raw entries are
/// `row(i, dst[i])`, and return the largest absolute change of an entry.
///
/// This is one fused pass per message: the raw entries are recomputed
/// from `row` for the maximum, the shifted sum and the write instead of
/// being stored, so the caller keeps no copy of either the raw or the old
/// message. A row that is entirely `-∞` (contradictory evidence) is reset
/// to uniform, the standard LBP recovery behaviour. `row` must be a pure
/// function of its arguments: it is called three times per entry.
#[inline]
pub(crate) fn normalize_into(dst: &mut [f64], row: impl Fn(usize, f64) -> f64) -> f64 {
    let z = logsumexp_iter(dst.iter().enumerate().map(|(i, &old)| row(i, old)));
    if z == f64::NEG_INFINITY {
        return reset_uniform(dst);
    }
    let mut delta = 0.0f64;
    for (i, x) in dst.iter_mut().enumerate() {
        let new = row(i, *x) - z;
        delta = delta.max((new - *x).abs());
        *x = new;
    }
    delta
}

/// The uniform reset of [`normalize_into`]. Out of line and cold, so the
/// optimizer cannot hoist its `ln` onto the hot path of every message.
#[cold]
#[inline(never)]
fn reset_uniform(dst: &mut [f64]) -> f64 {
    let uniform = -(dst.len() as f64).ln();
    let mut delta = 0.0f64;
    for x in dst.iter_mut() {
        delta = delta.max((uniform - *x).abs());
        *x = uniform;
    }
    delta
}

/// Normalize a log-message in place so the entries represent a
/// distribution (`logsumexp == 0`); an entirely `-∞` message is reset to
/// uniform (see `normalize_into`).
pub fn log_normalize(xs: &mut [f64]) {
    normalize_into(xs, |_, x| x);
}

/// Convert a normalized log-distribution to linear probabilities.
pub fn to_probs(xs: &[f64]) -> Vec<f64> {
    let z = logsumexp(xs);
    xs.iter().map(|&x| (x - z).exp()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logsumexp_matches_naive_on_small_values() {
        let xs = [0.1, 0.5, -0.3];
        let naive: f64 = xs.iter().map(|x: &f64| x.exp()).sum::<f64>().ln();
        assert!((logsumexp(&xs) - naive).abs() < 1e-12);
    }

    #[test]
    fn logsumexp_is_stable_for_large_magnitudes() {
        let xs = [1000.0, 1000.0];
        assert!((logsumexp(&xs) - (1000.0 + 2f64.ln())).abs() < 1e-9);
        let xs = [-1000.0, -1000.0];
        assert!((logsumexp(&xs) - (-1000.0 + 2f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn logsumexp_empty_and_neg_inf() {
        assert_eq!(logsumexp(&[]), f64::NEG_INFINITY);
        assert_eq!(logsumexp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
        assert!((logsumexp(&[f64::NEG_INFINITY, 0.0]) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_produces_distribution() {
        let mut xs = [1.0, 2.0, 3.0];
        log_normalize(&mut xs);
        let p = to_probs(&xs);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((logsumexp(&xs)).abs() < 1e-12);
    }

    #[test]
    fn normalize_recovers_from_contradiction() {
        let mut xs = [f64::NEG_INFINITY, f64::NEG_INFINITY];
        log_normalize(&mut xs);
        let p = to_probs(&xs);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn to_probs_ordering_preserved() {
        let p = to_probs(&[0.0, 1.0, -1.0]);
        assert!(p[1] > p[0] && p[0] > p[2]);
    }

    #[test]
    fn exp_of_zero_is_exactly_one() {
        // The premise of `exp_shifted`'s shortcut, on this platform's libm.
        assert_eq!(0f64.exp().to_bits(), 1f64.to_bits());
        assert_eq!((-0f64).exp().to_bits(), 1f64.to_bits());
        assert_eq!(exp_shifted(-0.0, 0.0).to_bits(), 1f64.to_bits());
        assert_eq!(exp_shifted(-1.5, 0.5).to_bits(), (-2f64).exp().to_bits());
        assert!(exp_shifted(f64::INFINITY, f64::INFINITY).is_nan());
    }

    /// The formula `log_normalize` used before the `exp(0)` shortcut and
    /// the fused pass: `logsumexp` with an `exp` per entry, then a
    /// subtraction, or a uniform reset when the sum is `-∞`.
    fn reference_normalize(xs: &mut [f64]) {
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let z = if max == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            let sum: f64 = xs.iter().map(|&x| (x - max).exp()).sum();
            max + sum.ln()
        };
        if z == f64::NEG_INFINITY {
            let uniform = -(xs.len() as f64).ln();
            xs.fill(uniform);
            return;
        }
        for x in xs.iter_mut() {
            *x -= z;
        }
    }

    /// The entry values the bitwise tests draw from: ties at the maximum,
    /// both zeros, the clamp floor, `-∞` and ordinary magnitudes.
    fn draw(rng: &mut proptest::test_runner::TestRng) -> f64 {
        match rng.below(8) {
            0 => 0.0,
            1 => -0.0,
            2 => crate::lbp::LOG_ZERO,
            3 => f64::NEG_INFINITY,
            4 => -0.75,
            5 => 3.25,
            _ => 60.0 * rng.unit_f64() - 30.0,
        }
    }

    #[test]
    fn log_normalize_is_bitwise_the_reference_formula() {
        let mut rng = proptest::test_runner::TestRng::new(0x5eed);
        let mut rows: Vec<Vec<f64>> = vec![
            vec![f64::NEG_INFINITY; 3],
            vec![0.0, -0.0],
            vec![-0.0, 0.0, -0.0],
            vec![crate::lbp::LOG_ZERO, 0.0],
            vec![crate::lbp::LOG_ZERO; 4],
            vec![2.0, 2.0, 2.0, 1.0],
        ];
        for len in 1..=8 {
            for _ in 0..500 {
                rows.push((0..len).map(|_| draw(&mut rng)).collect());
            }
        }
        for row in rows {
            let (mut got, mut want) = (row.clone(), row.clone());
            log_normalize(&mut got);
            reference_normalize(&mut want);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "row {row:?}");
        }
    }

    /// `normalize_into` is the old two-step commit — write the raw row,
    /// `log_normalize` it, then take the largest absolute difference to
    /// the previous message — bit for bit, delta included.
    #[test]
    fn normalize_into_is_bitwise_the_write_normalize_diff_sequence() {
        let mut rng = proptest::test_runner::TestRng::new(0xd1ff);
        for len in 1..=8 {
            for _ in 0..500 {
                let old: Vec<f64> = (0..len).map(|_| draw(&mut rng)).collect();
                let raw: Vec<f64> = (0..len).map(|_| draw(&mut rng)).collect();
                let mut want = raw.clone();
                reference_normalize(&mut want);
                let want_delta =
                    want.iter().zip(&old).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max);
                let mut got = old.clone();
                let delta = normalize_into(&mut got, |i, prev| {
                    assert_eq!(prev.to_bits(), old[i].to_bits(), "row sees the old entry");
                    raw[i]
                });
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "raw {raw:?}");
                assert_eq!(delta.to_bits(), want_delta.to_bits(), "raw {raw:?} old {old:?}");
            }
        }
        let mut xs = [1.0, 2.0];
        assert_eq!(normalize_into(&mut xs, |_, _| 0.0), 2.0 + 2f64.ln());
        assert_eq!(normalize_into(&mut [], |_, _| 0.0), 0.0);
    }
}
