//! Criterion microbenchmarks for the performance-critical kernels:
//! similarity signals, LBP sweeps (dense vs sparse U4 tables, synchronous
//! vs residual), HAC, blocking and candidate generation, plus an
//! end-to-end pipeline scaling series.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jocl_core::signals::build_signals;
use jocl_core::{block_pairs, build_graph, Jocl, JoclConfig};
use jocl_datagen::reverb45k_like;
use jocl_embed::SgnsOptions;
use jocl_fg::lbp::LbpEngine;
use jocl_fg::{FactorGraph, LbpOptions, Params, Potential, VarId};
use jocl_kb::{CandidateGen, CandidateOptions};
use jocl_text::sim::{jaro_winkler, levenshtein_sim, ngram_jaccard};
use jocl_text::IdfIndex;
use std::hint::black_box;

fn bench_similarities(c: &mut Criterion) {
    let idf = IdfIndex::build([
        "university of maryland",
        "university of virginia",
        "the oracle of omaha",
        "warren buffett",
    ]);
    let a = "the university of maryland at college park";
    let b = "university of maryland";
    let mut g = c.benchmark_group("similarity");
    g.bench_function("idf_token_overlap", |bench| {
        bench.iter(|| black_box(idf.sim(black_box(a), black_box(b))))
    });
    g.bench_function("jaro_winkler", |bench| {
        bench.iter(|| black_box(jaro_winkler(black_box(a), black_box(b))))
    });
    g.bench_function("levenshtein", |bench| {
        bench.iter(|| black_box(levenshtein_sim(black_box(a), black_box(b))))
    });
    g.bench_function("ngram_jaccard", |bench| {
        bench.iter(|| black_box(ngram_jaccard(black_box(a), black_box(b))))
    });
    g.finish();
}

/// LBP over a ring with ternary factors: dense Scores vs sparse TwoLevel.
fn bench_lbp_tables(c: &mut Criterion) {
    let build = |sparse: bool| -> (FactorGraph, Params) {
        let mut g = FactorGraph::new();
        let mut params = Params::new();
        let grp = params.add_group_with(vec![1.5]);
        let k = 8u32;
        let vars: Vec<VarId> = (0..60).map(|_| g.add_var(k)).collect();
        for w in vars.windows(3) {
            let size = (k * k * k) as usize;
            let high: Vec<u32> = (0..size as u32).filter(|x| x % 37 == 0).collect();
            let pot = if sparse {
                Potential::two_level(grp, size, high, 0.9, 0.1)
            } else {
                let mut scores = vec![0.1; size];
                for &h in &high {
                    scores[h as usize] = 0.9;
                }
                Potential::Scores { group: grp, scores }
            };
            g.add_factor(&[w[0], w[1], w[2]], pot, 0);
        }
        (g, params)
    };
    let opts = LbpOptions { max_iters: 5, ..Default::default() };
    let mut group = c.benchmark_group("lbp_u4_table");
    for (name, sparse) in [("dense", false), ("sparse_two_level", true)] {
        let (g, params) = build(sparse);
        group.bench_function(name, |bench| {
            bench.iter(|| {
                let mut eng = LbpEngine::new(&g);
                black_box(eng.run(&params, &opts))
            })
        });
    }
    group.finish();
}

/// Synchronous sweeps vs residual-scheduled message passing over
/// unevenly-converging graphs (a strong evidence head driving a long
/// weakly-coupled tail — the shape where priority scheduling pays):
/// wall-clock for both modes, plus a message-update crossover sweep over
/// graph sizes printing the counter ratio the scale CI gate relies on.
fn bench_lbp_schedule(c: &mut Criterion) {
    use jocl_fg::ScheduleMode;
    // A "comet": a dense clique head (strong potentials, slow to settle)
    // towing a long chain tail (settles after a few updates). Synchronous
    // sweeps keep re-updating the tail; residual scheduling stops
    // touching it once its residuals die.
    let build_comet = |n_tail: usize| -> (FactorGraph, Params) {
        let mut g = FactorGraph::new();
        let mut params = Params::new();
        let grp = params.add_group_with(vec![1.2]);
        let head: Vec<VarId> = (0..6).map(|_| g.add_var(4)).collect();
        for i in 0..head.len() {
            for j in i + 1..head.len() {
                let scores: Vec<f64> = (0..16).map(|x| ((x % 5) as f64) * 0.3).collect();
                g.add_factor(&[head[i], head[j]], Potential::Scores { group: grp, scores }, 0);
            }
        }
        let mut prev = head[0];
        for k in 0..n_tail {
            let v = g.add_var(4);
            let w = 0.05 + 0.1 * ((k % 3) as f64);
            let scores: Vec<f64> = (0..16).map(|x| if x % 5 == 0 { w } else { 0.0 }).collect();
            g.add_factor(&[prev, v], Potential::Scores { group: grp, scores }, 0);
            prev = v;
        }
        (g, params)
    };
    let opts =
        |mode: ScheduleMode| LbpOptions { max_iters: 50, tol: 1e-6, mode, ..Default::default() };
    let mut group = c.benchmark_group("lbp_schedule");
    for (name, mode) in
        [("synchronous", ScheduleMode::Synchronous), ("residual", ScheduleMode::Residual)]
    {
        let (g, params) = build_comet(400);
        let opts = opts(mode);
        group.bench_function(name, |bench| {
            bench.iter(|| {
                let mut eng = LbpEngine::new(&g);
                black_box(eng.run(&params, &opts))
            })
        });
    }
    group.finish();

    // Crossover sweep on the message-update counter: deterministic (no
    // timing noise), so it prints under `cargo test --benches` too.
    println!("\ngroup: lbp_schedule_crossover (message updates, sync vs residual)");
    for n_tail in [50usize, 100, 200, 400, 800] {
        let (g, params) = build_comet(n_tail);
        let run_mode = |mode: ScheduleMode| {
            let mut eng = LbpEngine::new(&g);
            eng.run(&params, &opts(mode))
        };
        let sync = run_mode(ScheduleMode::Synchronous);
        let residual = run_mode(ScheduleMode::Residual);
        let ratio = sync.message_updates as f64 / residual.message_updates.max(1) as f64;
        println!(
            "  tail {n_tail:>4}: sync {:>9} updates ({} iters)  residual {:>9} updates ({} sweep-eq)  ratio {ratio:.2}x",
            sync.message_updates, sync.iterations, residual.message_updates, residual.iterations
        );
    }
}

fn bench_pipeline_stages(c: &mut Criterion) {
    let dataset = reverb45k_like(5, 0.005);
    let signals = build_signals(
        &dataset.okb,
        &dataset.ckb,
        &dataset.ppdb,
        &dataset.corpus,
        &SgnsOptions { dim: 24, epochs: 2, ..Default::default() },
    );
    let config = JoclConfig::default();
    let mut group = c.benchmark_group("pipeline_stages");
    group.sample_size(10);
    group.bench_function("blocking", |bench| {
        bench.iter(|| black_box(block_pairs(&dataset.okb, &signals, &config)))
    });
    let blocking = block_pairs(&dataset.okb, &signals, &config);
    group.bench_function("graph_build", |bench| {
        bench.iter(|| {
            black_box(build_graph(&dataset.okb, &dataset.ckb, &signals, &blocking, &config))
        })
    });
    // Shard-count sweep: the built graph is identical for any value;
    // the timing shows how construction scales with workers (flat on a
    // 1-thread machine, where `build_threads` clamps to the hardware).
    for build_threads in [1usize, 2, 4, 8] {
        let sharded = JoclConfig { build_threads, ..config.clone() };
        group.bench_with_input(
            BenchmarkId::new("graph_build_shards", build_threads),
            &sharded,
            |bench, cfg| {
                bench.iter(|| {
                    black_box(build_graph(&dataset.okb, &dataset.ckb, &signals, &blocking, cfg))
                })
            },
        );
    }
    group.bench_function("candidate_generation", |bench| {
        let gen = CandidateGen::new(&dataset.ckb, CandidateOptions::default());
        bench.iter(|| {
            for (_, t) in dataset.okb.triples().take(50) {
                black_box(gen.entity_candidates(&t.subject));
            }
        })
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("jocl_end_to_end");
    group.sample_size(10);
    for scale in [0.002f64, 0.005] {
        let dataset = reverb45k_like(5, scale);
        let signals = build_signals(
            &dataset.okb,
            &dataset.ckb,
            &dataset.ppdb,
            &dataset.corpus,
            &SgnsOptions { dim: 24, epochs: 2, ..Default::default() },
        );
        let input = jocl_core::JoclInput {
            okb: &dataset.okb,
            ckb: &dataset.ckb,
            ppdb: &dataset.ppdb,
            corpus: &dataset.corpus,
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}triples", dataset.okb.len())),
            &(),
            |bench, ()| {
                let config = JoclConfig { train_epochs: 0, ..Default::default() };
                bench.iter(|| {
                    black_box(Jocl::new(config.clone()).run_with_signals(input, &signals, None))
                })
            },
        );
    }
    group.finish();
}

/// Warm delta ingestion vs cold rebuild (ROADMAP "streaming ingestion").
/// Wall-clock benches on the shared microbench world, then the
/// deterministic message-update comparison at `JOCL_SCALE` (default
/// 0.02 — the scale the `stream_scale` CI gate asserts ≥3× on).
fn bench_delta_ingest(c: &mut Criterion) {
    use jocl_bench::runner::env_scale;
    use jocl_core::{IncrementalJocl, ScheduleMode};
    use jocl_kb::{Okb, Triple};

    let prepare = |scale: f64, seed: u64| {
        let dataset = reverb45k_like(seed, scale);
        let triples: Vec<Triple> = dataset.okb.triples().map(|(_, t)| t.clone()).collect();
        let mut union = Okb::new();
        for t in &triples {
            union.ingest_triple(t.clone());
        }
        let signals = build_signals(
            &union,
            &dataset.ckb,
            &dataset.ppdb,
            &dataset.corpus,
            &SgnsOptions { dim: 24, epochs: 2, seed, ..Default::default() },
        );
        (dataset, triples, union, signals)
    };
    let mut config = JoclConfig { train_epochs: 0, ..Default::default() };
    config.lbp.mode = ScheduleMode::Residual;

    let (dataset, triples, union, signals) = prepare(0.005, 5);
    let tail = 24usize.min(triples.len() / 4).max(1);
    let split = triples.len() - tail;
    let mut warm_base = IncrementalJocl::new(config.clone(), &dataset.ckb, &signals);
    warm_base.apply_delta(&triples[..split]);
    let mut group = c.benchmark_group("delta_ingest");
    group.sample_size(10);
    group.bench_function(format!("warm_delta_{tail}"), |bench| {
        bench.iter(|| {
            // Fork the warm session so every iteration ingests the same
            // delta against identical warm state.
            let mut session = warm_base.clone();
            black_box(session.apply_delta(&triples[split..]))
        })
    });
    let input = jocl_core::JoclInput {
        okb: &union,
        ckb: &dataset.ckb,
        ppdb: &dataset.ppdb,
        corpus: &dataset.corpus,
    };
    group.bench_function("cold_rebuild", |bench| {
        bench.iter(|| black_box(Jocl::new(config.clone()).run_with_signals(input, &signals, None)))
    });
    group.finish();

    // Deterministic update-count comparison (no timing noise) at the
    // acceptance scale; prints under `cargo test --benches` too.
    let scale = env_scale();
    let (dataset, triples, union, signals) = prepare(scale, 42);
    let input = jocl_core::JoclInput {
        okb: &union,
        ckb: &dataset.ckb,
        ppdb: &dataset.ppdb,
        corpus: &dataset.corpus,
    };
    let cold = Jocl::new(config.clone())
        .run_with_signals(input, &signals, None)
        .diagnostics
        .lbp
        .message_updates;
    println!(
        "\ngroup: delta_ingest_updates (scale {scale}, residual; warm delta vs cold rebuild = \
         {cold} updates)"
    );
    for tail in [16usize, 48, triples.len() / 4] {
        if tail == 0 || tail >= triples.len() {
            continue;
        }
        let split = triples.len() - tail;
        let mut session = IncrementalJocl::new(config.clone(), &dataset.ckb, &signals);
        session.apply_delta(&triples[..split]);
        let out = session.apply_delta(&triples[split..]);
        let updates = out.stats.lbp.message_updates;
        println!(
            "  tail {tail:>4} triples: warm {updates:>9} updates  ({:.2}x fewer than cold)",
            cold as f64 / updates.max(1) as f64
        );
    }
}

fn bench_hac(c: &mut Criterion) {
    use jocl_cluster::{hac_threshold, Linkage};
    let n = 2000usize;
    let edges: Vec<(usize, usize, f64)> =
        (0..n).flat_map(|i| [(i, (i + 1) % n, 0.8), (i, (i + 7) % n, 0.4)]).collect();
    let mut group = c.benchmark_group("hac");
    for linkage in [Linkage::Single, Linkage::Average, Linkage::Complete] {
        group.bench_function(format!("{linkage:?}"), |bench| {
            bench.iter(|| black_box(hac_threshold(n, &edges, linkage, 0.6)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_similarities,
    bench_lbp_tables,
    bench_lbp_schedule,
    bench_pipeline_stages,
    bench_end_to_end,
    bench_delta_ingest,
    bench_hac
);
criterion_main!(benches);
