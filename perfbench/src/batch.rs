//! `batch`: the paper's own path — a cold `Jocl::run_with_signals` with
//! weight learning on the validation labels (the signals are prebuilt in
//! set-up, which is all `Jocl::run` adds). Signals, blocking, graph
//! build, learning, LBP and decode do all the work; the incremental and
//! serving layers do none.
//!
//! The traced run times each public stage from outside (`block_pairs`,
//! `build_graph`, `jocl_fg::train`, `LbpEngine::run`, `decode`) and
//! checks that the staged decode equals the pipeline's.

use crate::common::{median, peak_rss_mb, percentile, secs, world_seeds, Quality, Report};
use crate::spans::{parse_tsv, Fold};
use crate::{Layers, Opts};
use jocl_bench::runner::validation_labels;
use jocl_bench::ExperimentContext;
use jocl_core::builder::GraphPlan;
use jocl_core::config::paper_schedule;
use jocl_core::decode::{decode, Diagnostics};
use jocl_core::pipeline::ValidationLabels;
use jocl_core::{
    block_pairs, build_graph, build_signals, Jocl, JoclConfig, JoclOutput, ScheduleMode,
};
use jocl_datagen::reverb45k_like;
use jocl_embed::SgnsOptions;
use jocl_fg::lbp::LbpEngine;
use jocl_fg::{train, LbpOptions, TrainOptions, VarId};
use jocl_kb::{NpMention, NpSlot, Okb, RpMention};
use std::time::Instant;

/// ~900 triples. A cold run with six learning epochs costs ~3.5 s on
/// two hardware threads here (~26 s at the paper-like 0.1), so a
/// measured window holds several runs.
const SCALE: f64 = 0.02;
const TINY_SCALE: f64 = 0.004;
/// Worlds drawn from the seed per run: the metrics pool their runs, so
/// one unusual world moves them less.
const WORLDS: usize = 5;

/// `JoclConfig` defaults on the residual schedule, with the embedding
/// settings the experiment harness uses.
fn config() -> JoclConfig {
    let mut config = JoclConfig {
        sgns: SgnsOptions { dim: 48, epochs: 4, ..Default::default() },
        ..Default::default()
    };
    config.lbp.mode = ScheduleMode::Residual;
    config
}

/// Set-up of one world: generate it, build its signals, split it.
/// Returns the context and the seconds spent in `build_signals`.
fn setup(opts: &Opts, seed: u64) -> (ExperimentContext, f64) {
    let dataset = reverb45k_like(seed, if opts.tiny { TINY_SCALE } else { SCALE });
    let sgns = SgnsOptions { dim: 48, epochs: 4, seed, ..Default::default() };
    let t0 = Instant::now();
    let signals = build_signals(&dataset.okb, &dataset.ckb, &dataset.ppdb, &dataset.corpus, &sgns);
    let signals_s = secs(t0);
    let (validation, test) = dataset.entity_split(0.2, seed);
    let labels = validation_labels(&dataset, &validation);
    (ExperimentContext { dataset, signals, validation, test, labels }, signals_s)
}

fn run(ctx: &ExperimentContext, config: &JoclConfig) -> JoclOutput {
    Jocl::new(config.clone()).run_with_signals(ctx.input(), &ctx.signals, Some(&ctx.labels))
}

/// Wall time and work counts of each pipeline stage.
#[derive(Debug, Default)]
struct Stages {
    blocking_s: f64,
    pairs: usize,
    builder_s: f64,
    vars: usize,
    factors: usize,
    triangles: usize,
    learn_s: f64,
    epochs: usize,
    lbp_s: f64,
    message_updates: u64,
    decode_s: f64,
    /// Wall time of the whole staged run.
    total_s: f64,
}

impl Stages {
    fn sum_s(&self) -> f64 {
        self.blocking_s + self.builder_s + self.learn_s + self.lbp_s + self.decode_s
    }
}

/// The pipeline, one public stage call at a time, each timed from
/// outside. Mirrors `Jocl::run_with_signals`; the run checks that both
/// decode identically.
fn staged(ctx: &ExperimentContext, config: &JoclConfig) -> (JoclOutput, Stages) {
    let okb = &ctx.dataset.okb;
    let mut st = Stages::default();
    let lbp_opts = LbpOptions { schedule: paper_schedule(), ..config.lbp.clone() };
    let t_run = Instant::now();

    let t0 = Instant::now();
    let blocking = block_pairs(okb, &ctx.signals, config);
    st.blocking_s = secs(t0);
    let pair_counts =
        (blocking.subj_pairs.len(), blocking.pred_pairs.len(), blocking.obj_pairs.len());
    st.pairs = pair_counts.0 + pair_counts.1 + pair_counts.2;

    let t0 = Instant::now();
    let mut plan = build_graph(okb, &ctx.dataset.ckb, &ctx.signals, &blocking, config);
    st.builder_s = secs(t0);
    st.vars = plan.graph.num_vars();
    st.factors = plan.graph.num_factors();
    st.triangles = plan.stats.triangles;

    let t0 = Instant::now();
    let clamps = clamps(okb, &plan, &ctx.labels);
    let mut train_grad_norm = f64::NAN;
    if config.train_epochs > 0 && !clamps.is_empty() {
        let train_opts = TrainOptions {
            learning_rate: config.learning_rate,
            max_epochs: config.train_epochs,
            grad_tol: 1e-2,
            l2: 1e-3,
            lbp: lbp_opts.clone(),
        };
        let report = train(&plan.graph, &mut plan.params, &clamps, &train_opts);
        st.epochs = report.epochs;
        train_grad_norm = report.final_grad_norm;
    }
    st.learn_s = secs(t0);

    let t0 = Instant::now();
    let mut engine = LbpEngine::new(&plan.graph);
    let lbp = engine.run(&plan.params, &lbp_opts);
    let marginals = engine.marginals();
    st.lbp_s = secs(t0);
    st.message_updates = lbp.message_updates;

    let t0 = Instant::now();
    let diagnostics = Diagnostics {
        lbp,
        num_vars: st.vars,
        num_factors: st.factors,
        pair_counts,
        triangles: st.triangles,
        train_epochs: st.epochs,
        train_grad_norm,
    };
    let out = decode(okb, &plan, &marginals, config, diagnostics);
    st.decode_s = secs(t0);
    st.total_s = secs(t_run);
    (out, st)
}

/// Gold labels → variable clamps, as the pipeline's learning step builds
/// them (its own builder is private to `jocl_core::pipeline`): link
/// variables clamp to the gold candidate, pair variables to
/// same/different where both mentions are labeled. The staged-decode
/// check fails if the two ever drift apart.
fn clamps(okb: &Okb, plan: &GraphPlan, labels: &ValidationLabels) -> Vec<(VarId, u32)> {
    let mut out = Vec::new();
    for m in okb.np_mentions() {
        let d = m.dense();
        if let (Some(var), Some(gold)) = (plan.np_link_vars[d], labels.np_entity[d]) {
            if let Some(i) = plan.np_candidates[d].iter().position(|&e| e == gold) {
                out.push((var, i as u32));
            }
        }
    }
    for m in okb.rp_mentions() {
        let d = m.dense();
        if let (Some(var), Some(gold)) = (plan.rp_link_vars[d], labels.rp_relation[d]) {
            if let Some(i) = plan.rp_candidates[d].iter().position(|&r| r == gold) {
                out.push((var, i as u32));
            }
        }
    }
    let np = |t, slot| labels.np_cluster[NpMention { triple: t, slot }.dense()];
    let families = [
        (&plan.subj_pair_vars, Some(NpSlot::Subject)),
        (&plan.obj_pair_vars, Some(NpSlot::Object)),
        (&plan.pred_pair_vars, None),
    ];
    for (pairs, slot) in families {
        for &(ti, tj, var) in pairs {
            let (a, b) = match slot {
                Some(slot) => (np(ti, slot), np(tj, slot)),
                None => (
                    labels.rp_cluster[RpMention(ti).dense()],
                    labels.rp_cluster[RpMention(tj).dense()],
                ),
            };
            if let (Some(a), Some(b)) = (a, b) {
                out.push((var, u32::from(a == b)));
            }
        }
    }
    out
}

/// Links and both clustering assignments must agree exactly.
fn same_decode(a: &JoclOutput, b: &JoclOutput) -> bool {
    a.np_links == b.np_links
        && a.rp_links == b.rp_links
        && a.np_clustering.assignment() == b.np_clustering.assignment()
        && a.rp_clustering.assignment() == b.rp_clustering.assignment()
}

pub fn measure(opts: &Opts) -> Report {
    let mut r = Report::default();
    let config = config();
    let mut setup_s = Vec::new();
    let mut ctxs = Vec::new();
    for seed in world_seeds(opts.seed, WORLDS) {
        let t0 = Instant::now();
        ctxs.push(setup(opts, seed).0);
        setup_s.push(secs(t0));
    }

    // Rounds of one cold run per world until the window is spent. Every
    // repeat run of a world must decode like its first.
    let t_window = Instant::now();
    let mut run_s = Vec::new();
    let mut firsts: Vec<Option<JoclOutput>> = vec![None; ctxs.len()];
    while run_s.is_empty() || secs(t_window) < opts.seconds {
        for (ctx, first) in ctxs.iter().zip(firsts.iter_mut()) {
            let t0 = Instant::now();
            let out = run(ctx, &config);
            run_s.push(secs(t0));
            match first {
                None => *first = Some(out),
                Some(f) => r.check(same_decode(f, &out), || {
                    "a repeated cold run decoded differently".to_string()
                }),
            }
        }
    }
    let outs: Vec<JoclOutput> = firsts.into_iter().map(|o| o.expect("one run per world")).collect();
    r.attempted = run_s.len() as u64;

    let (staged_out, _) = staged(&ctxs[0], &config);
    r.check(same_decode(&staged_out, &outs[0]), || {
        "staged pipeline decode differs from Jocl::run_with_signals".to_string()
    });

    let quality: Vec<Quality> = ctxs
        .iter()
        .zip(&outs)
        .map(|(ctx, out)| Quality {
            np_avg_f1: ctx.score_np(&out.np_clustering).average_f1(),
            entity_link_acc: ctx.score_entity_linking(&out.np_links),
            relation_link_acc: ctx.score_relation_linking(&out.rp_links),
        })
        .collect();
    let run_ms: Vec<f64> = run_s.iter().map(|s| s * 1e3).collect();
    for (ctx, out) in ctxs.iter().zip(&outs) {
        let d = &out.diagnostics;
        r.line(format!(
            "batch world: {} triples, {} vars, {} factors, {} train epochs, lbp converged={} ({} updates)",
            ctx.dataset.okb.len(),
            d.num_vars,
            d.num_factors,
            d.train_epochs,
            d.lbp.converged,
            d.lbp.message_updates
        ));
    }
    r.line(format!("batch_s = {} s (median of {} cold runs)", median(&run_s), run_s.len()));

    r.metric("setup_s", median(&setup_s), "s");
    r.metric("peak_rss_mb", peak_rss_mb("self"), "MB");
    r.metric("op_p50_ms", median(&run_ms), "ms");
    r.metric("op_p95_ms", percentile(&run_ms, 0.95), "ms");
    r.metric("ops_per_s", run_s.len() as f64 / run_s.iter().sum::<f64>(), "1/s");
    Quality::mean(&quality).report(&mut r);
    r
}

pub fn trace(opts: &Opts) -> Report {
    let mut r = Report::default();
    let config = config();
    let (ctx, signals_s) = setup(opts, world_seeds(opts.seed, WORLDS)[0]);

    // Untraced, then traced, end-to-end runs: the overhead ratio.
    let t0 = Instant::now();
    let plain = run(&ctx, &config);
    let plain_s = secs(t0);
    jocl_obs::clear_trace();
    jocl_obs::set_trace_enabled(true);
    let t0 = Instant::now();
    let traced = run(&ctx, &config);
    let traced_s = secs(t0);
    let run_spans = parse_tsv(&jocl_obs::take_trace_tsv());
    let (staged_out, st) = staged(&ctx, &config);
    jocl_obs::set_trace_enabled(false);
    let staged_spans = parse_tsv(&jocl_obs::take_trace_tsv());
    r.attempted = 3;
    r.check(same_decode(&plain, &traced), || "tracing changed the decode".to_string());
    r.check(same_decode(&staged_out, &traced), || {
        "staged pipeline decode differs from Jocl::run_with_signals".to_string()
    });

    let attributed = st.sum_s() / st.total_s;
    r.line(format!(
        "batch_s: untraced run {plain_s} s, traced run {traced_s} s, traced staged run {} s",
        st.total_s
    ));
    r.line(format!(
        "stage times from outside: blocking {:.4} s, builder {:.4} s, learn {:.4} s, lbp {:.4} s, \
         decode {:.4} s = {:.4} s ({:.1}% of the staged run)",
        st.blocking_s,
        st.builder_s,
        st.learn_s,
        st.lbp_s,
        st.decode_s,
        st.sum_s(),
        attributed * 100.0
    ));
    r.check(attributed >= 0.95, || {
        format!("stages attribute only {:.1}% of batch_s", attributed * 100.0)
    });
    r.lines.extend(Fold::of(&run_spans).table("spans inside Jocl::run_with_signals"));
    r.lines.extend(Fold::of(&staged_spans).table("spans inside the staged run"));

    Layers {
        signals_s,
        blocking_s: st.blocking_s,
        blocking_pairs: st.pairs as f64,
        builder_s: st.builder_s,
        builder_vars: st.vars as f64,
        builder_factors: st.factors as f64,
        builder_triangles: st.triangles as f64,
        learn_s: st.learn_s,
        learn_epochs: st.epochs as f64,
        lbp_s: st.lbp_s,
        lbp_message_updates: st.message_updates as f64,
        decode_s: st.decode_s,
        attributed_share: attributed,
        overhead_ratio: traced_s / plain_s,
        ..Layers::default()
    }
    .report(&mut r);
    r
}
