//! Exact inference by brute-force enumeration.
//!
//! Only feasible for tiny graphs; used to validate LBP in unit and
//! property tests (LBP is exact on trees and approximate on loopy
//! graphs).

use crate::graph::{FactorGraph, FactorId, VarId};
use crate::lbp::Marginals;
use crate::logspace::logsumexp;
use crate::params::Params;

/// Hard cap on the joint configuration count (2^22) to catch accidental
/// use on large graphs.
const MAX_CONFIGS: usize = 1 << 22;

/// Compute exact marginals, optionally conditioning on clamped variables.
///
/// # Panics
/// Panics if the joint space exceeds `MAX_CONFIGS` (2^22) configurations.
pub fn exact_marginals(graph: &FactorGraph, params: &Params, clamps: &[(VarId, u32)]) -> Marginals {
    let n = graph.num_vars();
    let cards: Vec<usize> = (0..n).map(|v| graph.cardinality(VarId(v as u32)) as usize).collect();
    let total: usize = cards
        .iter()
        .try_fold(1usize, |acc, &c| {
            let next = acc.checked_mul(c)?;
            (next <= MAX_CONFIGS).then_some(next)
        })
        .expect("joint space too large for exact inference");

    let clamp_map: std::collections::HashMap<usize, u32> =
        clamps.iter().map(|&(v, s)| (v.idx(), s)).collect();

    // Accumulate log-weights per (var, state).
    let mut state = vec![0u32; n];
    let mut log_weights: Vec<Vec<Vec<f64>>> = (0..n).map(|v| vec![Vec::new(); cards[v]]).collect();
    let mut all_logw = Vec::with_capacity(total);
    'outer: for _ in 0..total {
        // Respect clamps: skip configurations contradicting evidence.
        let consistent = clamp_map.iter().all(|(&v, &s)| state[v] == s);
        if consistent {
            let mut lw = 0.0;
            for f in 0..graph.num_factors() {
                let f = FactorId(f as u32);
                let states: Vec<u32> =
                    graph.factor_vars(f).iter().map(|v| state[v.idx()]).collect();
                lw += graph.factor_potential(f).log_phi(params, graph.flat_index(f, &states));
            }
            for v in 0..n {
                log_weights[v][state[v] as usize].push(lw);
            }
            all_logw.push(lw);
        }
        // Advance mixed-radix counter.
        for v in 0..n {
            state[v] += 1;
            if (state[v] as usize) < cards[v] {
                continue 'outer;
            }
            state[v] = 0;
        }
        break;
    }
    let log_z = logsumexp(&all_logw);
    let probs: Vec<Vec<f64>> = log_weights
        .into_iter()
        .map(|per_state| {
            per_state
                .into_iter()
                .map(|lws| {
                    if lws.is_empty() || log_z == f64::NEG_INFINITY {
                        0.0
                    } else {
                        (logsumexp(&lws) - log_z).exp()
                    }
                })
                .collect()
        })
        .collect();
    Marginals::from_probs(probs)
}

impl Marginals {
    /// Construct from raw probability vectors (used by [`exact_marginals`]
    /// and tests).
    pub fn from_probs(probs: Vec<Vec<f64>>) -> Self {
        // Private-field constructor lives here to keep `lbp` the owner of
        // the type's invariants.
        Self::new_internal(probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Potential;
    use crate::lbp::{run_lbp, LbpOptions};

    #[test]
    fn exact_matches_lbp_on_tree() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(3);
        let c = g.add_var(2);
        let mut params = Params::new();
        let g1 = params.add_group_with(vec![1.3]);
        g.add_factor(&[a], Potential::Scores { group: g1, scores: vec![0.2, 0.9] }, 0);
        g.add_factor(
            &[a, b],
            Potential::Scores { group: g1, scores: vec![0.3, 0.1, 0.0, 0.7, 0.2, 0.5] },
            0,
        );
        g.add_factor(
            &[b, c],
            Potential::Scores { group: g1, scores: vec![0.0, 0.4, 0.9, 0.2, 0.6, 0.1] },
            0,
        );
        let exact = exact_marginals(&g, &params, &[]);
        let (lbp, res) =
            run_lbp(&g, &params, &[], &LbpOptions { tol: 1e-10, ..Default::default() });
        assert!(res.converged);
        for v in [a, b, c] {
            for s in 0..g.cardinality(v) {
                assert!(
                    (exact.prob(v, s) - lbp.prob(v, s)).abs() < 1e-6,
                    "var {v:?} state {s}: exact {} lbp {}",
                    exact.prob(v, s),
                    lbp.prob(v, s)
                );
            }
        }
    }

    #[test]
    fn exact_respects_clamps() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(2);
        let mut params = Params::new();
        let g1 = params.add_group_with(vec![1.0]);
        g.add_factor(&[a, b], Potential::Scores { group: g1, scores: vec![1.0, 0.0, 0.0, 1.0] }, 0);
        let m = exact_marginals(&g, &params, &[(a, 1)]);
        assert_eq!(m.prob(a, 1), 1.0);
        assert!(m.prob(b, 1) > 0.5);
    }

    #[test]
    fn marginals_sum_to_one() {
        let mut g = FactorGraph::new();
        let a = g.add_var(4);
        let mut params = Params::new();
        let g1 = params.add_group_with(vec![1.0]);
        g.add_factor(&[a], Potential::Scores { group: g1, scores: vec![0.0, 1.0, 2.0, 3.0] }, 0);
        let m = exact_marginals(&g, &params, &[]);
        let total: f64 = m.of(a).iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
