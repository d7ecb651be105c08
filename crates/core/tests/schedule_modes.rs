//! Residual-scheduled LBP through the full pipeline: on the paper's
//! Figure 1(a) worked example, `ScheduleMode::Residual` must decode the
//! same joint result as the synchronous sweeps while performing strictly
//! fewer message updates (the counter the bench-regression gate watches).

use jocl_core::example::figure1;
use jocl_core::{Jocl, JoclConfig, ScheduleMode};

fn run_with_mode(mode: ScheduleMode) -> jocl_core::JoclOutput {
    let ex = figure1();
    let mut config: JoclConfig = ex.config();
    config.lbp.mode = mode;
    Jocl::new(config).run(ex.input(), None)
}

#[test]
fn residual_mode_reproduces_figure1_with_strictly_fewer_updates() {
    let sync = run_with_mode(ScheduleMode::Synchronous);
    let residual = run_with_mode(ScheduleMode::Residual);

    // Identical decode: links and clusters, not just close marginals.
    assert_eq!(residual.np_links, sync.np_links);
    assert_eq!(residual.rp_links, sync.rp_links);
    assert_eq!(residual.np_clustering.num_clusters(), sync.np_clustering.num_clusters());
    assert_eq!(residual.rp_clustering.num_clusters(), sync.rp_clustering.num_clusters());

    // Both converge under the figure1 config…
    assert!(sync.diagnostics.lbp.converged);
    assert!(residual.diagnostics.lbp.converged);

    // …and the residual schedule does strictly less message work.
    let (s, r) = (sync.diagnostics.lbp.message_updates, residual.diagnostics.lbp.message_updates);
    assert!(r > 0, "counter must be wired through the pipeline");
    assert!(r < s, "residual mode must update strictly fewer messages on figure1: {r} vs {s}");
}

#[test]
fn residual_mode_counter_survives_training() {
    // Training runs clamped + free LBP per epoch; the mode (and counter)
    // must flow through `TrainOptions::lbp` unchanged.
    use jocl_core::pipeline::ValidationLabels;
    use jocl_kb::{NpMention, NpSlot, RpMention, TripleId};

    let ex = figure1();
    let mut labels = ValidationLabels::empty(&ex.okb);
    labels.np_entity[NpMention { triple: TripleId(0), slot: NpSlot::Subject }.dense()] =
        Some(ex.e_umd);
    labels.rp_relation[RpMention(TripleId(0)).dense()] = Some(ex.r_location);

    let mut config = ex.config();
    config.train_epochs = 2;
    config.lbp.mode = ScheduleMode::Residual;
    let out = Jocl::new(config).run(ex.input(), Some(&labels));
    assert!(out.diagnostics.train_epochs > 0, "fixture must actually train");
    assert!(out.diagnostics.lbp.message_updates > 0);
}

#[test]
fn training_is_thread_invariant_through_the_pipeline() {
    // Learning runs its clamped and free LBP halves concurrently and the
    // graph build shards its per-key work over the hardware's threads;
    // the learned weights and everything decoded from them must not
    // depend on how those threads interleave, so two runs agree bitwise.
    // (`learn::tests::train_is_thread_invariant_bitwise` pins learning
    // against a sequential loop; `builder::tests::
    // build_is_identical_for_any_thread_count` pins the build's shards.)
    use jocl_core::pipeline::ValidationLabels;
    use jocl_kb::{NpMention, NpSlot, RpMention, TripleId};

    let ex = figure1();
    let mut labels = ValidationLabels::empty(&ex.okb);
    for (t, e) in [(0, ex.e_umd), (1, ex.e_umd)] {
        let m = NpMention { triple: TripleId(t), slot: NpSlot::Subject };
        labels.np_entity[m.dense()] = Some(e);
        labels.np_cluster[m.dense()] = Some(0);
    }
    labels.rp_relation[RpMention(TripleId(0)).dense()] = Some(ex.r_location);

    for mode in [ScheduleMode::Synchronous, ScheduleMode::Residual] {
        let run = || {
            let mut config = ex.config();
            config.train_epochs = 2;
            config.lbp.mode = mode;
            Jocl::new(config).run(ex.input(), Some(&labels))
        };
        let (first, second) = (run(), run());
        assert!(first.diagnostics.train_epochs > 0, "{mode:?}: fixture must actually train");
        let bits = |out: &jocl_core::JoclOutput| {
            let p = out.learned_params.as_ref().expect("learned params");
            (0..p.num_groups())
                .map(|g| p.group(g).iter().map(|w| w.to_bits()).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&second), bits(&first), "{mode:?}: learned weights differ");
        assert_eq!(second.np_links, first.np_links, "{mode:?}");
        assert_eq!(second.rp_links, first.rp_links, "{mode:?}");
        assert_eq!(second.np_clustering.assignment(), first.np_clustering.assignment());
        assert_eq!(second.rp_clustering.assignment(), first.rp_clustering.assignment());
        assert_eq!(
            second.diagnostics.lbp.message_updates, first.diagnostics.lbp.message_updates,
            "{mode:?}"
        );
    }
}
