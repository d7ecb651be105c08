//! Acceptance gate for residual-scheduled message passing at CI scale:
//! on the `JOCL_SCALE=0.02` factor graph (the scale-smoke world, ≈900
//! triples), residual mode must reach the same marginals as the
//! synchronous sweeps within tolerance while performing **at least 2×
//! fewer message updates**.
//!
//! Guarded behind `--ignored` like `bin_smoke` (it builds a full
//! experiment-scale graph):
//!
//! ```text
//! cargo test -p jocl_bench --release --test schedule_scale -- --ignored
//! ```

use jocl_core::signals::build_signals;
use jocl_core::{block_pairs, build_graph, JoclConfig, ScheduleMode};
use jocl_datagen::reverb45k_like;
use jocl_embed::SgnsOptions;
use jocl_fg::lbp::LbpEngine;
use jocl_fg::VarId;

#[test]
#[ignore = "experiment-scale graph; run with -- --ignored"]
fn residual_halves_message_updates_at_scale_002() {
    let scale = jocl_bench::env_scale();
    let seed = jocl_bench::env_seed();
    let dataset = reverb45k_like(seed, scale);
    let signals = build_signals(
        &dataset.okb,
        &dataset.ckb,
        &dataset.ppdb,
        &dataset.corpus,
        &SgnsOptions { dim: 24, epochs: 2, seed, ..Default::default() },
    );
    let config = JoclConfig::default();
    let blocking = block_pairs(&dataset.okb, &signals, &config);
    let plan = build_graph(&dataset.okb, &dataset.ckb, &signals, &blocking, &config);
    println!(
        "graph at scale {scale}: {} vars, {} factors, total table size {}",
        plan.graph.num_vars(),
        plan.graph.num_factors(),
        plan.graph.total_table_size()
    );

    // The pipeline's inference settings (paper schedule, default damping),
    // with the tolerance tightened a notch so "same fixed point within
    // tol" is measured where both engines genuinely converge.
    let mut opts = config.lbp.clone();
    opts.tol = 1e-4;
    opts.max_iters = 100;

    let mut sync_engine = LbpEngine::new(&plan.graph);
    opts.mode = ScheduleMode::Synchronous;
    let sync = sync_engine.run(&plan.params, &opts);
    let sync_marginals = sync_engine.marginals();

    let mut residual_engine = LbpEngine::new(&plan.graph);
    opts.mode = ScheduleMode::Residual;
    let residual = residual_engine.run(&plan.params, &opts);
    let residual_marginals = residual_engine.marginals();

    println!(
        "synchronous: {} updates over {} iters (converged={})",
        sync.message_updates, sync.iterations, sync.converged
    );
    println!(
        "residual:    {} updates ({} sweep-eq, converged={})",
        residual.message_updates, residual.iterations, residual.converged
    );
    assert!(sync.converged, "synchronous LBP must converge at this scale");
    assert!(residual.converged, "residual LBP must converge at this scale");

    // Same fixed point: every marginal entry within a small multiple of
    // the convergence tolerance.
    let mut max_diff = 0.0f64;
    for v in 0..plan.graph.num_vars() {
        let v = VarId(v as u32);
        for (a, b) in sync_marginals.of(v).iter().zip(residual_marginals.of(v)) {
            max_diff = max_diff.max((a - b).abs());
        }
    }
    println!("max marginal difference: {max_diff:.3e}");
    assert!(max_diff < 1e-2, "residual mode diverged from the synchronous fixed point: {max_diff}");

    // The headline claim: ≥2× fewer message updates.
    assert!(
        residual.message_updates * 2 <= sync.message_updates,
        "residual mode must halve message updates at scale {scale}: {} vs {}",
        residual.message_updates,
        sync.message_updates
    );
}
