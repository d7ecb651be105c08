//! Learning is traced layer by layer: every epoch of `train` records,
//! on each half's thread, an `lbp_sweep` span followed by an
//! `expectation` span for the factor-belief walk. Tracing is
//! process-global, so this file holds a single test.

use jocl_fg::{train, FactorGraph, Params, Potential, TrainOptions, VarId};

#[test]
fn train_records_one_expectation_span_per_half_and_epoch() {
    let mut g = FactorGraph::new();
    let mut params = Params::new();
    let unary = params.add_group_with(vec![0.0]);
    let pair = params.add_group_with(vec![0.0]);
    let vars: Vec<VarId> = (0..4).map(|_| g.add_var(2)).collect();
    for &v in &vars {
        g.add_factor(
            &[v],
            Potential::Features { group: unary, feats: vec![vec![0.0], vec![1.0]] },
            0,
        );
    }
    for w in vars.windows(2) {
        let scores = vec![1.0, 0.0, 0.0, 1.0];
        g.add_factor(&[w[0], w[1]], Potential::Scores { group: pair, scores }, 0);
    }
    let epochs = 3;
    let opts = TrainOptions { max_epochs: epochs, grad_tol: 0.0, ..Default::default() };

    jocl_obs::clear_trace();
    jocl_obs::set_trace_enabled(true);
    let report = train(&g, &mut params, &[(vars[0], 1), (vars[3], 1)], &opts);
    jocl_obs::set_trace_enabled(false);
    let tsv = jocl_obs::take_trace_tsv();
    assert_eq!(report.epochs, epochs);

    // (span id, parent id, thread, name) per row.
    let rows: Vec<[String; 4]> = tsv
        .lines()
        .skip(1)
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            [f[0], f[1], f[2], f[3]].map(str::to_string)
        })
        .collect();
    let learn: Vec<&[String; 4]> = rows.iter().filter(|r| r[3] == "learn").collect();
    assert_eq!(learn.len(), 1, "one learn span:\n{tsv}");
    let (learn_id, caller) = (&learn[0][0], &learn[0][2]);
    let spans = |name: &str, on_caller: bool| -> Vec<&[String; 4]> {
        rows.iter().filter(|r| r[3] == name && (r[2] == *caller) == on_caller).collect()
    };
    // The clamped half runs on the caller, under `learn`.
    for name in ["lbp_sweep", "expectation"] {
        let clamped = spans(name, true);
        assert_eq!(clamped.len(), epochs, "{name}: one clamped span per epoch:\n{tsv}");
        assert!(clamped.iter().all(|r| r[1] == *learn_id), "{name} outside learn:\n{tsv}");
    }
    // The free half runs on each epoch's helper thread, one sweep and
    // then one expectation per thread.
    let free = spans("expectation", false);
    assert_eq!(free.len(), epochs, "one free expectation span per epoch:\n{tsv}");
    for r in free {
        let on_thread: Vec<&str> =
            rows.iter().filter(|s| s[2] == r[2]).map(|s| s[3].as_str()).collect();
        assert_eq!(on_thread, ["lbp_sweep", "expectation"], "thread {}:\n{tsv}", r[2]);
    }
}
