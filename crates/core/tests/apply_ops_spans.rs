//! The warm write path is traced layer by layer: every span a traced
//! `apply_ops` opens for its own stages — ingest, blocking, graph build,
//! the LBP sweep, the marginal refresh and the decode — is a direct
//! child of that `apply_ops` span, so per-layer totals add up under it.
//! Tracing is process-global, so this file holds a single test.

use jocl_core::example::figure1;
use jocl_core::signals::build_signals;
use jocl_core::IncrementalJocl;

#[test]
fn apply_ops_stages_are_child_spans_of_apply_ops() {
    let ex = figure1();
    let config = ex.config();
    let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &config.sgns);
    let triples: Vec<_> = ex.okb.triples().map(|(_, t)| t.clone()).collect();
    let mut session = IncrementalJocl::new(config, &ex.ckb, &signals);

    jocl_obs::clear_trace();
    jocl_obs::set_trace_enabled(true);
    // A cold delta, then a warm one.
    session.apply_delta(&triples[..2]);
    session.apply_delta(&triples[2..]);
    jocl_obs::set_trace_enabled(false);
    let tsv = jocl_obs::take_trace_tsv();

    // (span id, parent id, name) per row.
    let rows: Vec<(String, String, String)> = tsv
        .lines()
        .skip(1)
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            (f[0].to_string(), f[1].to_string(), f[3].to_string())
        })
        .collect();
    let apply_ops: Vec<&String> =
        rows.iter().filter(|(_, _, name)| name == "apply_ops").map(|(id, _, _)| id).collect();
    assert_eq!(apply_ops.len(), 2, "one apply_ops span per delta:\n{tsv}");
    for stage in ["ingest", "blocking", "graph_build", "lbp_sweep", "marginal_refresh", "decode"] {
        let parents: Vec<&String> =
            rows.iter().filter(|(_, _, name)| name == stage).map(|(_, parent, _)| parent).collect();
        assert_eq!(parents.len(), 2, "{stage}: one span per delta:\n{tsv}");
        for parent in parents {
            assert!(apply_ops.contains(&parent), "{stage} is not a child of apply_ops:\n{tsv}");
        }
    }
}
