//! Maximum-likelihood weight learning (paper §3.4, Eq. 5–6).
//!
//! The objective is the log-likelihood of the labeled configuration
//! `O(ω) = log P(Y_L)` with gradient
//!
//! ```text
//! ∂O/∂ω = E_{p_ω(Y | Y_L)}[Q] − E_{p_ω(Y)}[Q]
//! ```
//!
//! where `Q = Σ_j h_j(C_j)` is the total feature vector. Both expectations
//! are intractable exactly, so — as in the paper — they are approximated
//! with LBP: the first from a run with the labeled variables **clamped**,
//! the second from a **free** run. Per factor, `E[h_j]` is computed from
//! the factor belief. Weights are updated by gradient ascent (the paper's
//! learning rate is 0.05); convergence is declared when the gradient norm
//! falls below `grad_tol`.
//!
//! The clamped and free runs of one epoch share nothing but the graph
//! and the weights, so [`train`] runs them concurrently: the free half
//! runs on a scoped helper thread while the clamped half runs on the
//! caller. Each LBP run is serial and deterministic, and the gradient is
//! combined in a fixed order, so the learned weights are bitwise the
//! ones the two halves give when run one after the other.
//!
//! Tracing: `train` opens one `learn` span whose count is the number of
//! epochs run. The clamped half's `lbp_sweep` spans are its children;
//! the helper thread's free-half `lbp_sweep` spans are roots on that
//! thread (the span stack is per thread).

use crate::graph::{FactorGraph, FactorId, Potential, VarId};
use crate::lbp::{LbpEngine, LbpOptions, Scratch};
use crate::params::Params;

/// Options for [`train`].
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Gradient-ascent learning rate (paper §4.1: 0.05).
    pub learning_rate: f64,
    /// Maximum epochs (each epoch = one clamped + one free LBP run).
    pub max_epochs: usize,
    /// Stop when the gradient L2 norm drops below this.
    pub grad_tol: f64,
    /// L2 regularization strength (subtracts `l2 · ω` from the gradient).
    pub l2: f64,
    /// LBP configuration used for both runs.
    pub lbp: LbpOptions,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            max_epochs: 30,
            grad_tol: 1e-3,
            l2: 0.0,
            lbp: LbpOptions::default(),
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs executed.
    pub epochs: usize,
    /// Final gradient norm.
    pub final_grad_norm: f64,
    /// Whether `grad_tol` was reached.
    pub converged: bool,
    /// Gradient norm per epoch (diagnostic / convergence figure).
    pub grad_norms: Vec<f64>,
}

/// One half of an epoch's gradient: an LBP engine (clamped or free) and
/// the belief buffers it reuses across factors and epochs.
struct Half<'g> {
    engine: LbpEngine<'g>,
    scratch: Scratch,
    belief: Vec<f64>,
}

impl<'g> Half<'g> {
    fn new(engine: LbpEngine<'g>) -> Self {
        Self { engine, scratch: Scratch::default(), belief: Vec::new() }
    }

    /// Run LBP, then return the expected total feature vector
    /// `Σ_j Σ_c b_j(c) · h_j(c)` under the resulting messages.
    fn expectation(&mut self, graph: &FactorGraph, params: &Params, lbp: &LbpOptions) -> Params {
        self.engine.run(params, lbp);
        let mut acc = params.zeros_like();
        for fi in 0..graph.num_factors() {
            let f = FactorId(fi as u32);
            self.engine.factor_belief_into(params, f, &mut self.scratch, &mut self.belief);
            let belief = &self.belief;
            let potential = graph.factor_potential(f);
            match potential {
                Potential::Features { group, feats } => {
                    let out = acc.group_mut(*group);
                    for (flat, b) in belief.iter().enumerate() {
                        for (o, x) in out.iter_mut().zip(&feats[flat]) {
                            *o += b * x;
                        }
                    }
                }
                Potential::Scores { group, .. } | Potential::TwoLevelScores { group, .. } => {
                    let scores = potential.scores().expect("score potential");
                    let e: f64 = belief.iter().zip(scores).map(|(b, u)| b * u).sum();
                    acc.group_mut(*group)[0] += e;
                }
            }
        }
        acc
    }
}

/// Train `params` in place to maximize the likelihood of `labels`
/// (variable, observed state). Returns a [`TrainReport`].
pub fn train(
    graph: &FactorGraph,
    params: &mut Params,
    labels: &[(VarId, u32)],
    opts: &TrainOptions,
) -> TrainReport {
    let mut span = jocl_obs::span!("learn");
    let mut clamped = LbpEngine::new(graph);
    for &(v, s) in labels {
        clamped.set_clamp(v, Some(s));
    }
    let mut clamped = Half::new(clamped);
    let mut free = Half::new(LbpEngine::new(graph));
    let mut report = TrainReport {
        epochs: 0,
        final_grad_norm: f64::INFINITY,
        converged: false,
        grad_norms: Vec::new(),
    };
    for epoch in 0..opts.max_epochs {
        let weights: &Params = params;
        let (e_clamped, e_free) = std::thread::scope(|s| {
            let helper = s.spawn(|| free.expectation(graph, weights, &opts.lbp));
            let e_clamped = clamped.expectation(graph, weights, &opts.lbp);
            let e_free = helper.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            (e_clamped, e_free)
        });

        // grad = E_clamped − E_free − l2·ω
        let mut grad = e_clamped;
        grad.step(&e_free, -1.0);
        if opts.l2 > 0.0 {
            grad.step(params, -opts.l2);
        }
        let norm = grad.l2_norm();
        report.epochs = epoch + 1;
        report.final_grad_norm = norm;
        report.grad_norms.push(norm);
        if norm < opts.grad_tol {
            report.converged = true;
            break;
        }
        params.step(&grad, opts.learning_rate);
    }
    span.add_count(report.epochs as u64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Potential;
    use crate::lbp::run_lbp;

    /// A single binary variable with a unary feature factor. Clamping it to
    /// state 1 should push the weight of the state-1 feature up until the
    /// model predicts state 1.
    #[test]
    fn learns_unary_preference() {
        let mut g = FactorGraph::new();
        let v = g.add_var(2);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![0.0]);
        g.add_factor(
            &[v],
            Potential::Features { group: grp, feats: vec![vec![0.0], vec![1.0]] },
            0,
        );
        let report = train(&g, &mut params, &[(v, 1)], &TrainOptions::default());
        assert!(params.group(grp)[0] > 0.3, "weight should grow: {:?}", params.group(grp));
        let (m, _) = run_lbp(&g, &params, &[], &LbpOptions::default());
        assert!(m.prob(v, 1) > 0.55);
        assert!(report.epochs > 0);
    }

    /// Pairwise agreement learning: labels put two chained variables in
    /// the same state; the agreement weight should become positive.
    #[test]
    fn learns_agreement_weight() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(2);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![0.0]);
        // scores = agreement indicator.
        g.add_factor(
            &[a, b],
            Potential::Scores { group: grp, scores: vec![1.0, 0.0, 0.0, 1.0] },
            0,
        );
        train(
            &g,
            &mut params,
            &[(a, 1), (b, 1)],
            &TrainOptions { max_epochs: 60, ..Default::default() },
        );
        assert!(
            params.group(grp)[0] > 0.1,
            "agreement weight should grow: {}",
            params.group(grp)[0]
        );
    }

    /// Gradient is ~zero when the labels already match the model's
    /// expectation (symmetric uninformative case).
    #[test]
    fn symmetric_labels_give_small_gradient() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(2);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![0.0]);
        g.add_factor(
            &[a, b],
            Potential::Scores { group: grp, scores: vec![1.0, 0.0, 0.0, 1.0] },
            0,
        );
        // One label only: clamping `a` alone does not change the expected
        // agreement statistic (0.5 either way), so training converges
        // immediately.
        let report = train(
            &g,
            &mut params,
            &[(a, 0)],
            &TrainOptions { max_epochs: 5, ..Default::default() },
        );
        assert!(report.converged, "grad norms: {:?}", report.grad_norms);
        assert!(params.group(grp)[0].abs() < 1e-6);
    }

    /// L2 regularization pulls weights back toward zero.
    #[test]
    fn l2_shrinks_weights() {
        let mut g = FactorGraph::new();
        let v = g.add_var(2);
        let mut params_plain = Params::new();
        let grp = params_plain.add_group_with(vec![0.0]);
        g.add_factor(
            &[v],
            Potential::Features { group: grp, feats: vec![vec![0.0], vec![1.0]] },
            0,
        );
        let mut params_l2 = params_plain.clone();
        let base = TrainOptions { max_epochs: 40, ..Default::default() };
        train(&g, &mut params_plain, &[(v, 1)], &base);
        train(&g, &mut params_l2, &[(v, 1)], &TrainOptions { l2: 0.5, ..base });
        assert!(params_l2.group(grp)[0] < params_plain.group(grp)[0]);
    }

    /// Multi-feature factor: only the discriminative feature should move
    /// appreciably; a constant feature has zero gradient.
    #[test]
    fn constant_feature_keeps_weight() {
        let mut g = FactorGraph::new();
        let v = g.add_var(2);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![0.0, 0.0]);
        // Feature 0 is constant 1 for both states; feature 1 indicates
        // state 1.
        g.add_factor(
            &[v],
            Potential::Features { group: grp, feats: vec![vec![1.0, 0.0], vec![1.0, 1.0]] },
            0,
        );
        train(&g, &mut params, &[(v, 1)], &TrainOptions::default());
        let w = params.group(grp);
        assert!(w[0].abs() < 1e-9, "constant feature moved: {}", w[0]);
        assert!(w[1] > 0.2, "indicator feature should grow: {}", w[1]);
    }

    /// Running the halves concurrently changes nothing: under both
    /// schedule modes, `train` gives bitwise the weights, epoch count and
    /// gradient trajectory of a plain loop that runs the same two
    /// [`Half`]s one after the other on one thread.
    #[test]
    fn train_is_thread_invariant_bitwise() {
        use crate::lbp::ScheduleMode;

        // Twelve 3-state variables on a ring with chords (loopy), each
        // with a unary feature factor; pairwise agreement scores on edges.
        let mut g = FactorGraph::new();
        let mut params = Params::new();
        let unary = params.add_group_with(vec![0.0, 0.0]);
        let pair = params.add_group_with(vec![0.5]);
        let vars: Vec<VarId> = (0..12).map(|_| g.add_var(3)).collect();
        for (i, &v) in vars.iter().enumerate() {
            let feats = (0..3).map(|s| vec![f64::from(s == i % 3), 0.1 * (i + s) as f64]).collect();
            g.add_factor(&[v], Potential::Features { group: unary, feats }, 0);
        }
        let edges = (0..12).map(|i| (i, (i + 1) % 12)).chain([(0, 6), (3, 9), (2, 7)]);
        for (i, j) in edges {
            let scores = (0..9).map(|c| if c % 4 == 0 { 1.0 } else { 0.1 * (c % 3) as f64 });
            g.add_factor(
                &[vars[i], vars[j]],
                Potential::Scores { group: pair, scores: scores.collect() },
                0,
            );
        }
        let labels = [(vars[0], 2), (vars[5], 1), (vars[6], 2), (vars[10], 0)];
        let bits = |p: &Params| -> Vec<Vec<u64>> {
            (0..p.num_groups()).map(|k| p.group(k).iter().map(|w| w.to_bits()).collect()).collect()
        };

        for mode in [ScheduleMode::Synchronous, ScheduleMode::Residual] {
            let opts = TrainOptions {
                max_epochs: 6,
                l2: 1e-3,
                lbp: LbpOptions { mode, ..Default::default() },
                ..Default::default()
            };
            let mut p = params.clone();
            let report = train(&g, &mut p, &labels, &opts);
            let norms: Vec<u64> = report.grad_norms.iter().map(|n| n.to_bits()).collect();
            let concurrent = (bits(&p), report.epochs, norms);

            let mut p = params.clone();
            let mut clamped = LbpEngine::new(&g);
            for &(v, s) in &labels {
                clamped.set_clamp(v, Some(s));
            }
            let (mut clamped, mut free) = (Half::new(clamped), Half::new(LbpEngine::new(&g)));
            let mut norms = Vec::new();
            for _ in 0..opts.max_epochs {
                let mut grad = clamped.expectation(&g, &p, &opts.lbp);
                grad.step(&free.expectation(&g, &p, &opts.lbp), -1.0);
                grad.step(&p, -opts.l2);
                let norm = grad.l2_norm();
                norms.push(norm.to_bits());
                if norm < opts.grad_tol {
                    break;
                }
                p.step(&grad, opts.learning_rate);
            }
            let sequential = (bits(&p), norms.len(), norms);

            assert!(sequential.1 > 1, "{mode:?}: fixture must train for several epochs");
            assert_ne!(sequential.0, bits(&params), "{mode:?}: weights must move");
            assert_eq!(concurrent, sequential, "{mode:?}: concurrent halves differ from serial");
        }
    }

    #[test]
    fn empty_labels_converge_instantly() {
        let mut g = FactorGraph::new();
        let v = g.add_var(2);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![0.0]);
        g.add_factor(
            &[v],
            Potential::Features { group: grp, feats: vec![vec![0.0], vec![1.0]] },
            0,
        );
        // No labels: clamped run == free run, gradient is exactly 0.
        let report = train(&g, &mut params, &[], &TrainOptions::default());
        assert!(report.converged);
        assert_eq!(report.epochs, 1);
        assert!(params.group(grp)[0].abs() < 1e-12);
    }
}
