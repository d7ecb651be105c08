//! `stream`: a warm `IncrementalJocl` session (warmed in set-up) takes a
//! fixed plan of small `apply_ops` deltas. Most add 8 new triples; some
//! retract or revise the most recent live arrival.
//!
//! A pass clones the warm session and applies the whole plan, timing
//! each delta; passes repeat until the measured window is spent, so
//! every pass does identical work, and every pass must end in the same
//! decode. The first pass's live decode is compared with a cold
//! `Jocl::run_with_signals` on the survivors: the count of mentions that
//! differ is reported, and more than [`MAX_PARITY_DIFF`] of them fails
//! the run. Exact equality is not demanded because later arrivals keep
//! arriving after a retraction here, so a retracted triple can hold a
//! blocking-cap slot a survivor would have taken in the batch run (the
//! cap caveat of `jocl_core::incremental`).

use crate::common::{
    distinct_triples, mean, median, peak_rss_mb, percentile, secs, world_seeds, LiveDecode,
    Quality, Report, Rng, TestSplit,
};
use crate::spans::{parse_tsv, Fold};
use crate::{Layers, Opts};
use jocl_core::{build_signals, DeltaOp, IncrementalJocl, JoclConfig, ScheduleMode, Signals};
use jocl_datagen::{reverb45k_like, Dataset};
use jocl_embed::SgnsOptions;
use jocl_kb::{Okb, Triple};
use std::collections::HashSet;
use std::time::Instant;

/// World, warm-up and plan sizes: (scale, warm triples, deltas).
const SIZES: (f64, usize, usize) = (0.06, 1500, 100);
/// Worlds drawn from the seed per run: the metrics pool their deltas,
/// so one unusual world moves them less.
const WORLDS: usize = 4;
const TINY_SIZES: (f64, usize, usize) = (0.006, 100, 20);
/// Triples per add delta.
const ADD: usize = 8;
/// The warm-up ingests its triples in this many arrival batches.
const WARM_BATCHES: usize = 4;
/// Largest share of mentions whose decode may differ from the batch run
/// on the survivors.
const MAX_PARITY_DIFF: f64 = 0.05;

/// `JoclConfig` defaults on the residual schedule, untrained (a session
/// does not learn), with the iteration budget the serving gates give LBP
/// so every delta converges.
fn config() -> JoclConfig {
    let mut config = JoclConfig { train_epochs: 0, ..Default::default() };
    config.lbp.mode = ScheduleMode::Residual;
    config.lbp.max_iters = 100;
    config
}

/// The generated world and its frozen signals.
struct World {
    seed: u64,
    dataset: Dataset,
    signals: Signals,
    pool: Vec<Triple>,
}

impl World {
    /// Returns the world and the seconds spent in `build_signals`.
    fn new(opts: &Opts, seed: u64) -> (Self, f64) {
        let scale = if opts.tiny { TINY_SIZES.0 } else { SIZES.0 };
        let dataset = reverb45k_like(seed, scale);
        let pool = distinct_triples(&dataset);
        let mut union = Okb::new();
        for t in &pool {
            union.ingest_triple(t.clone());
        }
        let sgns = SgnsOptions { dim: 24, epochs: 2, seed, ..Default::default() };
        let t0 = Instant::now();
        let signals = build_signals(&union, &dataset.ckb, &dataset.ppdb, &dataset.corpus, &sgns);
        let signals_s = secs(t0);
        (Self { seed, dataset, signals, pool }, signals_s)
    }

    fn warm(&self, warm: usize) -> IncrementalJocl<'_> {
        let mut session = IncrementalJocl::new(config(), &self.dataset.ckb, &self.signals);
        let prefix = &self.pool[..warm.min(self.pool.len())];
        for chunk in prefix.chunks(prefix.len().div_ceil(WARM_BATCHES).max(1)) {
            session.apply_delta(chunk);
        }
        session
    }

    /// The delta plan: drawn from the seed alone. Every add is new
    /// content; a retract or revise targets the newest live arrival.
    fn plan(&self, warm: usize, deltas: usize) -> Vec<Vec<DeltaOp>> {
        let mut rng = Rng::new(self.seed, 1);
        let mut content: HashSet<Triple> = self.pool.iter().cloned().collect();
        let mut recent: Vec<Triple> = Vec::new();
        let mut cursor = warm;
        let mut plan = Vec::with_capacity(deltas);
        while plan.len() < deltas {
            let roll = rng.unit();
            if roll < 0.8 || recent.is_empty() {
                assert!(cursor + ADD <= self.pool.len(), "world too small for the delta plan");
                let adds = &self.pool[cursor..cursor + ADD];
                cursor += ADD;
                recent.extend(adds.iter().cloned());
                plan.push(adds.iter().cloned().map(DeltaOp::Add).collect());
            } else if roll < 0.9 {
                let old = recent.pop().expect("recent arrival");
                plan.push(vec![DeltaOp::Retract(old)]);
            } else {
                let old = recent.pop().expect("recent arrival");
                // Same subject and relation, the object of a warm triple:
                // known phrases, content the world does not hold yet.
                let new = loop {
                    let donor = &self.pool[rng.below(warm)];
                    let t = Triple::new(&old.subject, &old.predicate, &donor.object);
                    if content.insert(t.clone()) {
                        break t;
                    }
                };
                recent.push(new.clone());
                plan.push(vec![DeltaOp::Revise { old, new }]);
            }
        }
        plan
    }
}

/// What one pass measured.
struct Pass {
    delta_ms: Vec<f64>,
    message_updates: u64,
    affected_share: Vec<f64>,
    unconverged: usize,
    /// Whether the session ran out of `max_triangles` budget (batch
    /// parity is not promised past that point).
    budget_exhausted: bool,
    decode: LiveDecode,
    heap_bytes: usize,
}

fn pass(warm: &IncrementalJocl<'_>, plan: &[Vec<DeltaOp>]) -> Pass {
    let mut session = warm.clone();
    let mut delta_ms = Vec::with_capacity(plan.len());
    let mut message_updates = 0;
    let mut affected_share = Vec::with_capacity(plan.len());
    let mut unconverged = 0;
    let mut last = None;
    for ops in plan {
        let t0 = Instant::now();
        let out = session.apply_ops(ops);
        delta_ms.push(secs(t0) * 1e3);
        let s = &out.stats;
        message_updates += s.lbp.message_updates;
        affected_share.push(s.affected_components as f64 / s.total_components.max(1) as f64);
        unconverged += usize::from(!s.lbp.converged);
        last = Some(out);
    }
    let out = last.expect("a non-empty plan");
    Pass {
        delta_ms,
        message_updates,
        affected_share,
        unconverged,
        budget_exhausted: out.stats.triangle_budget_exhausted,
        decode: LiveDecode::of_session(&session, &out.output),
        heap_bytes: session.heap_bytes(),
    }
}

/// Checks one pass: converged, within the triangle budget, and close to
/// a cold batch run on the survivors. Returns the number of mentions
/// whose decode differs from that run.
fn check_pass(r: &mut Report, world: &World, p: &Pass) -> usize {
    r.check(p.unconverged == 0, || format!("{} deltas did not converge", p.unconverged));
    r.check(!p.budget_exhausted, || "the session exhausted its triangle budget".to_string());
    let mentions = p.decode.mentions();
    match p.decode.batch_differences(&world.dataset, &world.signals, config()) {
        Ok(n) => {
            r.line(format!("parity: {n} of {mentions} mentions differ from the batch run"));
            r.check(n as f64 <= MAX_PARITY_DIFF * mentions as f64, || {
                format!("{n} of {mentions} mentions differ from the batch run on the survivors")
            });
            n
        }
        Err(e) => {
            r.check(false, || format!("streamed and batch decodes disagree: {e}"));
            mentions
        }
    }
}

fn sizes(opts: &Opts) -> (usize, usize) {
    let s = if opts.tiny { TINY_SIZES } else { SIZES };
    (s.1, s.2)
}

pub fn measure(opts: &Opts) -> Report {
    let mut r = Report::default();
    let (warm_n, deltas) = sizes(opts);
    // Set-up per world: generate, build signals, warm the session.
    let mut setup_s = Vec::new();
    let worlds: Vec<World> = world_seeds(opts.seed, WORLDS)
        .into_iter()
        .map(|seed| {
            let t0 = Instant::now();
            let (world, _) = World::new(opts, seed);
            setup_s.push(secs(t0));
            world
        })
        .collect();
    let warms: Vec<IncrementalJocl<'_>> = worlds
        .iter()
        .zip(setup_s.iter_mut())
        .map(|(world, s)| {
            let t0 = Instant::now();
            let warm = world.warm(warm_n);
            *s += secs(t0);
            warm
        })
        .collect();
    let plans: Vec<_> = worlds.iter().map(|w| w.plan(warm_n, deltas)).collect();

    // Rounds of one pass per world until the window is spent.
    let t_window = Instant::now();
    let mut passes: Vec<Vec<Pass>> = worlds.iter().map(|_| Vec::new()).collect();
    while passes[0].is_empty() || secs(t_window) < opts.seconds {
        for ((warm, plan), done) in warms.iter().zip(&plans).zip(passes.iter_mut()) {
            let p = pass(warm, plan);
            if let Some(first) = done.first() {
                let diff = p.decode.differences(&first.decode);
                r.check(diff == Ok(0), || {
                    format!("a repeated pass ended in a different decode: {diff:?}")
                });
            }
            done.push(p);
        }
    }
    let mut quality = Vec::new();
    for (world, done) in worlds.iter().zip(&passes) {
        check_pass(&mut r, world, &done[0]);
        quality.push(TestSplit::new(&world.dataset, world.seed).score(&done[0].decode));
    }

    let delta_ms: Vec<f64> =
        passes.iter().flatten().flat_map(|p| p.delta_ms.iter().copied()).collect();
    r.attempted = delta_ms.len() as u64;
    let (p50, p95) = (median(&delta_ms), percentile(&delta_ms, 0.95));
    let ops_per_s = delta_ms.len() as f64 / (delta_ms.iter().sum::<f64>() / 1e3);
    r.line(format!(
        "stream: {} worlds, warm sessions of {} triples, {} deltas per pass, {} passes per world",
        worlds.len(),
        warm_n,
        deltas,
        passes[0].len()
    ));
    r.line(format!(
        "delta_p50_ms = {p50} ms, delta_p95_ms = {p95} ms, stream_ops_per_s = {ops_per_s} 1/s"
    ));

    r.metric("setup_s", median(&setup_s), "s");
    r.metric("peak_rss_mb", peak_rss_mb("self"), "MB");
    r.metric("op_p50_ms", p50, "ms");
    r.metric("op_p95_ms", p95, "ms");
    r.metric("ops_per_s", ops_per_s, "1/s");
    Quality::mean(&quality).report(&mut r);
    r
}

pub fn trace(opts: &Opts) -> Report {
    let mut r = Report::default();
    let (warm_n, deltas) = sizes(opts);
    let (world, signals_s) = World::new(opts, world_seeds(opts.seed, WORLDS)[0]);
    let warm = world.warm(warm_n);
    let plan = world.plan(warm_n, deltas);

    let plain = pass(&warm, &plan);
    jocl_obs::clear_trace();
    jocl_obs::set_trace_enabled(true);
    let traced = pass(&warm, &plan);
    jocl_obs::set_trace_enabled(false);
    let fold = Fold::of(&parse_tsv(&jocl_obs::take_trace_tsv()));
    r.attempted = 2 * plan.len() as u64;
    let diff = traced.decode.differences(&plain.decode);
    r.check(diff == Ok(0), || format!("tracing changed the decode: {diff:?}"));
    let parity_diff = check_pass(&mut r, &world, &traced);
    r.check(fold.spans("apply_ops") == plan.len() as u64, || {
        format!("expected {} apply_ops spans, found {}", plan.len(), fold.spans("apply_ops"))
    });

    let (plain_s, traced_s) =
        (plain.delta_ms.iter().sum::<f64>() / 1e3, traced.delta_ms.iter().sum::<f64>() / 1e3);
    r.lines.extend(fold.table("one traced pass of the delta plan"));
    r.line(format!(
        "apply_ops: {:.4} s, of which lbp_sweep {:.4} s ({:.1}%); unattributed {:.1}%",
        fold.total_s("apply_ops"),
        fold.total_s("lbp_sweep"),
        fold.coverage("apply_ops") * 100.0,
        (1.0 - fold.coverage("apply_ops")) * 100.0
    ));
    Layers {
        signals_s,
        lbp_s: fold.total_s("lbp_sweep"),
        lbp_message_updates: traced.message_updates as f64,
        incremental_s: fold.total_s("apply_ops"),
        incremental_self_s: fold.self_s("apply_ops"),
        incremental_updates_per_op: traced.message_updates as f64 / plan.len() as f64,
        incremental_affected_share: mean(&traced.affected_share),
        incremental_heap_mb: traced.heap_bytes as f64 / (1024.0 * 1024.0),
        parity_diff: parity_diff as f64,
        attributed_share: fold.coverage("apply_ops"),
        overhead_ratio: traced_s / plain_s,
        ..Layers::default()
    }
    .report(&mut r);
    r
}
