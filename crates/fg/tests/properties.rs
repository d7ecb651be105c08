//! Property tests: LBP against brute-force exact inference.

use jocl_fg::exact::exact_marginals;
use jocl_fg::lbp::run_lbp;
use jocl_fg::{FactorGraph, LbpOptions, MessageStore, Params, Potential, VarId};
use proptest::prelude::*;

/// A random tree-structured pairwise model over binary variables.
/// Variable i > 0 connects to a random parent j < i.
fn tree_model() -> impl Strategy<Value = (FactorGraph, Params)> {
    (2usize..7)
        .prop_flat_map(|n| {
            let parents = (1..n).map(|i| 0..i).collect::<Vec<_>>();
            (
                Just(n),
                parents,
                proptest::collection::vec(-1.5f64..1.5, n), // unary scores for state 1
                proptest::collection::vec(-1.0f64..1.0, n - 1), // pairwise agreement scores
            )
        })
        .prop_map(|(n, parents, unary, pair)| {
            let mut g = FactorGraph::new();
            let vars: Vec<VarId> = (0..n).map(|_| g.add_var(2)).collect();
            let mut params = Params::new();
            let grp = params.add_group_with(vec![1.0]);
            for (i, &u) in unary.iter().enumerate() {
                g.add_factor(&[vars[i]], Potential::Scores { group: grp, scores: vec![0.0, u] }, 0);
            }
            for (i, (&p, &w)) in parents.iter().zip(&pair).enumerate() {
                g.add_factor(
                    &[vars[p], vars[i + 1]],
                    Potential::Scores { group: grp, scores: vec![w, 0.0, 0.0, w] },
                    0,
                );
            }
            (g, params)
        })
}

/// A random (possibly loopy) model: n binary vars, m random pairwise
/// factors, a few unary factors.
fn loopy_model() -> impl Strategy<Value = (FactorGraph, Params)> {
    (3usize..6, 2usize..8)
        .prop_flat_map(|(n, m)| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n, -0.8f64..0.8), m),
                proptest::collection::vec(-1.0f64..1.0, n),
            )
        })
        .prop_map(|(n, edges, unary)| {
            let mut g = FactorGraph::new();
            let vars: Vec<VarId> = (0..n).map(|_| g.add_var(2)).collect();
            let mut params = Params::new();
            let grp = params.add_group_with(vec![1.0]);
            for (i, &u) in unary.iter().enumerate() {
                g.add_factor(&[vars[i]], Potential::Scores { group: grp, scores: vec![0.0, u] }, 0);
            }
            for (a, b, w) in edges {
                if a == b {
                    continue;
                }
                g.add_factor(
                    &[vars[a], vars[b]],
                    Potential::Scores { group: grp, scores: vec![w, 0.0, 0.0, w] },
                    0,
                );
            }
            (g, params)
        })
}

fn tight_opts() -> LbpOptions {
    LbpOptions { tol: 1e-10, max_iters: 1000, damping: 0.0, ..Default::default() }
}

/// A random mixed model exercising everything the factor update handles:
/// variables of mixed cardinality and scheduling class, dense pairwise
/// factors, sparse ternary two-level factors, plus a random clamp set
/// and a random phased schedule.
#[allow(clippy::type_complexity)]
fn mixed_model(
) -> impl Strategy<Value = (FactorGraph, Params, Vec<(VarId, u32)>, jocl_fg::Schedule)> {
    (4usize..9, 3usize..10, 0usize..3, 0u8..2)
        .prop_flat_map(|(n, m, n_clamps, phased)| {
            (
                proptest::collection::vec((2u32..4, 0u8..2), n), // (card, class)
                proptest::collection::vec((0..n, 0..n, -0.9f64..0.9, 0u8..3), m), // pair factors
                proptest::collection::vec((0..n, 0..n, 0..n, 0u64..1000), 2), // two-level factors
                proptest::collection::vec((0..n, 0u32..2), n_clamps),
                Just(phased == 1),
            )
        })
        .prop_map(|(vars_spec, pairs, two_levels, clamps, phased)| {
            let mut g = FactorGraph::new();
            let vars: Vec<VarId> =
                vars_spec.iter().map(|&(c, cl)| g.add_var_with_class(c, cl)).collect();
            let mut params = Params::new();
            let grp = params.add_group_with(vec![1.0]);
            let tl_grp = params.add_group_with(vec![1.3]);
            for (a, b, w, class) in pairs {
                if a == b {
                    continue;
                }
                let size = (g.cardinality(vars[a]) * g.cardinality(vars[b])) as usize;
                let scores: Vec<f64> = (0..size).map(|i| w * (i % 3) as f64).collect();
                g.add_factor(&[vars[a], vars[b]], Potential::Scores { group: grp, scores }, class);
            }
            for (a, b, c, seed) in two_levels {
                if a == b || b == c || a == c {
                    continue;
                }
                let size = (g.cardinality(vars[a])
                    * g.cardinality(vars[b])
                    * g.cardinality(vars[c])) as usize;
                let high: Vec<u32> = (0..size as u32)
                    .filter(|x| (x.wrapping_mul(2654435761) ^ seed as u32).is_multiple_of(3))
                    .collect();
                g.add_factor(
                    &[vars[a], vars[b], vars[c]],
                    Potential::two_level(tl_grp, size, high, 0.9, 0.1),
                    2,
                );
            }
            let clamps: Vec<(VarId, u32)> =
                clamps.into_iter().map(|(v, s)| (vars[v], s % g.cardinality(vars[v]))).collect();
            let schedule = if phased {
                jocl_fg::Schedule {
                    factor_phases: vec![vec![0], vec![1, 2]],
                    var_phases: vec![vec![0], vec![1]],
                }
            } else {
                jocl_fg::Schedule::default()
            };
            (g, params, clamps, schedule)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On trees, LBP is exact.
    #[test]
    fn lbp_exact_on_trees((g, params) in tree_model()) {
        let exact = exact_marginals(&g, &params, &[]);
        let (lbp, res) = run_lbp(&g, &params, &[], &tight_opts());
        prop_assert!(res.converged);
        for v in 0..g.num_vars() {
            let v = VarId(v as u32);
            prop_assert!(
                (exact.prob(v, 1) - lbp.prob(v, 1)).abs() < 1e-6,
                "var {:?}: exact {} vs lbp {}", v, exact.prob(v, 1), lbp.prob(v, 1)
            );
        }
    }

    /// On trees with evidence, clamped LBP matches conditional exact
    /// marginals.
    #[test]
    fn lbp_exact_on_trees_with_evidence((g, params) in tree_model()) {
        let clamp = [(VarId(0), 1u32)];
        let exact = exact_marginals(&g, &params, &clamp);
        let (lbp, _) = run_lbp(&g, &params, &clamp, &tight_opts());
        for v in 0..g.num_vars() {
            let v = VarId(v as u32);
            prop_assert!(
                (exact.prob(v, 1) - lbp.prob(v, 1)).abs() < 1e-5,
                "var {:?}: exact {} vs lbp {}", v, exact.prob(v, 1), lbp.prob(v, 1)
            );
        }
    }

    /// On loopy graphs LBP is approximate, but the marginals must always
    /// be valid distributions.
    #[test]
    fn lbp_valid_on_loopy((g, params) in loopy_model()) {
        let (m, _) = run_lbp(&g, &params, &[], &tight_opts());
        for v in 0..g.num_vars() {
            let p = m.of(VarId(v as u32));
            let total: f64 = p.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        }
    }

    /// A sparse two-level potential is exactly equivalent to the dense
    /// Scores table it abbreviates.
    #[test]
    fn two_level_matches_dense(
        cards in proptest::collection::vec(2u32..5, 2..4),
        high_fraction in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let size: usize = cards.iter().map(|&c| c as usize).product();
        // Deterministic pseudo-random subset of high configs.
        let mut high_configs = Vec::new();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for flat in 0..size {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if (state % 1000) as f64 / 1000.0 < high_fraction {
                high_configs.push(flat as u32);
            }
        }
        let dense_scores: Vec<f64> = (0..size)
            .map(|f| if high_configs.contains(&(f as u32)) { 0.9 } else { 0.1 })
            .collect();

        let build = |potential: Potential| -> (FactorGraph, Params) {
            let mut g = FactorGraph::new();
            let vars: Vec<VarId> = cards.iter().map(|&c| g.add_var(c)).collect();
            let mut params = Params::new();
            let grp = params.add_group_with(vec![1.7]);
            let potential = match potential {
                Potential::Scores { scores, .. } => Potential::Scores { group: grp, scores },
                Potential::TwoLevelScores { size, high_configs, high, low, .. } =>
                    Potential::TwoLevelScores { group: grp, size, high_configs, high, low },
                other => other,
            };
            g.add_factor(&vars, potential, 0);
            (g, params)
        };
        let (gd, pd) = build(Potential::Scores { group: 0, scores: dense_scores });
        let (gs, ps) = build(Potential::two_level(0, size, high_configs, 0.9, 0.1));
        let (md, _) = run_lbp(&gd, &pd, &[], &tight_opts());
        let (ms, _) = run_lbp(&gs, &ps, &[], &tight_opts());
        for v in 0..gd.num_vars() {
            let v = VarId(v as u32);
            for s in 0..gd.cardinality(v) {
                prop_assert!((md.prob(v, s) - ms.prob(v, s)).abs() < 1e-12);
            }
        }
        let _ = gs;
    }

    /// Residual-scheduled LBP must reach the same fixed point as the
    /// synchronous sweeps — same marginals within tolerance — on random
    /// mixed graphs (dense + two-level potentials, clamps, phased and
    /// flooding schedules).
    #[test]
    fn residual_schedule_matches_synchronous(
        (g, params, clamps, schedule) in mixed_model()
    ) {
        let sync_opts = LbpOptions {
            max_iters: 500,
            tol: 1e-9,
            schedule,
            ..Default::default()
        };
        let (ms, rs) = run_lbp(&g, &params, &clamps, &sync_opts);
        let residual_opts = LbpOptions { mode: jocl_fg::ScheduleMode::Residual, ..sync_opts };
        let (mr, rr) = run_lbp(&g, &params, &clamps, &residual_opts);
        prop_assert_eq!(rs.converged, rr.converged);
        if rs.converged {
            for v in 0..g.num_vars() {
                let v = VarId(v as u32);
                for s in 0..g.cardinality(v) {
                    prop_assert!(
                        (ms.prob(v, s) - mr.prob(v, s)).abs() < 1e-5,
                        "var {:?} state {}: sync {} vs residual {}",
                        v, s, ms.prob(v, s), mr.prob(v, s)
                    );
                }
            }
        }
    }

    /// Damping changes the trajectory but not the fixed point on trees.
    #[test]
    fn damping_invariant_fixed_point((g, params) in tree_model()) {
        let (m0, _) = run_lbp(&g, &params, &[], &tight_opts());
        let damped = LbpOptions { damping: 0.4, ..tight_opts() };
        let (m1, _) = run_lbp(&g, &params, &[], &damped);
        for v in 0..g.num_vars() {
            let v = VarId(v as u32);
            prop_assert!((m0.prob(v, 1) - m1.prob(v, 1)).abs() < 1e-6);
        }
    }

    /// The memory-wall certification gate: on random mixed graphs, under
    /// both schedule modes, the quantized committed arena decodes within
    /// the **explicit tolerance** the store documents — per slot,
    /// `|x - anchor| · ε_f32` against the block's anchor (the block's
    /// first finite value), with a small absolute floor for the
    /// `anchor + r` rounding step.
    #[test]
    fn quantized_commit_within_tolerance_across_schedules(
        (g, params, clamps, schedule) in mixed_model(),
        residual_mode in 0usize..2,
    ) {
        use jocl_fg::lbp::LbpEngine;
        use jocl_fg::store::QUANT_BLOCK;

        let mode = if residual_mode == 1 {
            jocl_fg::ScheduleMode::Residual
        } else {
            jocl_fg::ScheduleMode::Synchronous
        };
        let opts = LbpOptions { max_iters: 60, tol: 1e-8, mode, schedule, ..Default::default() };
        let mut eng = LbpEngine::new(&g);
        for &(v, s) in &clamps {
            eng.set_clamp(v, Some(s));
        }
        eng.run(&params, &opts);
        let state = eng.into_state();
        let exact = state.export_messages(MessageStore::Exact);
        let quant = state.export_messages(MessageStore::Quantized);

        // Explicit tolerance gate, one direction (fv — vf is the
        // same code path): decode error is bounded by the residual's
        // f32 rounding against the block anchor.
        for (exact_arena, quant_arena) in [(exact.fv(), quant.fv()), (exact.vf(), quant.vf())] {
            let xs = exact_arena.to_vec();
            let ys = quant_arena.to_vec();
            prop_assert_eq!(xs.len(), ys.len());
            for (block_idx, block) in xs.chunks(QUANT_BLOCK).enumerate() {
                let anchor = block.iter().copied().find(|x| x.is_finite()).unwrap_or(0.0);
                for (i, &x) in block.iter().enumerate() {
                    let y = ys[block_idx * QUANT_BLOCK + i];
                    if x.is_nan() {
                        prop_assert!(y.is_nan());
                    } else if x.is_infinite() {
                        prop_assert_eq!(x, y);
                    } else {
                        let tol = (x - anchor).abs() * f32::EPSILON as f64 + 1e-12;
                        prop_assert!(
                            (x - y).abs() <= tol,
                            "block {} slot {} ({:?}): {} decoded as {} (tolerance {:e})",
                            block_idx, i, mode, x, y, tol
                        );
                    }
                }
            }
        }
    }
}
