//! **Table 1** — Performance on the NP canonicalization task.
//!
//! Reproduces the paper's 8-method × 2-dataset comparison (macro, micro,
//! pairwise and average F1). Expected shape: JOCL > SIST > CESI >
//! string-similarity baselines in average F1 on both datasets.

use jocl_baselines as baselines;
use jocl_bench::{env_cesi_threshold, env_scale, env_seed, env_sist_threshold, ExperimentContext};
use jocl_core::{FeatureSet, Variant};
use jocl_datagen::{nytimes2018_like, reverb45k_like};
use jocl_eval::Table;

fn main() {
    let (scale, seed) = (env_scale(), env_seed());
    for dataset in [reverb45k_like(seed, scale), nytimes2018_like(seed, scale)] {
        let name = dataset.name.clone();
        let ctx = ExperimentContext::prepare(dataset, seed);
        let mut table = Table::new(
            format!("Table 1 — NP canonicalization on {name} (scale {scale})"),
            &["Method", "Macro F1", "Micro F1", "Pairwise F1", "Average F1"],
        );
        let cesi_t: f64 = env_cesi_threshold();
        let sist_t: f64 = env_sist_threshold();
        let mut add = |label: &str, c: &jocl_cluster::Clustering| {
            let s = ctx.score_np(c);
            table.row_scores(label, &[s.macro_.f1, s.micro.f1, s.pairwise.f1, s.average_f1()]);
        };
        add("Morph Norm", &baselines::morph_norm(&ctx.dataset.okb));
        add(
            "Wikidata Integrator",
            &baselines::wikidata_integrator(&ctx.dataset.okb, &ctx.dataset.ckb).0,
        );
        add("Text Similarity", &baselines::text_similarity(&ctx.dataset.okb, &ctx.signals, 0.92));
        add(
            "IDF Token Overlap",
            &baselines::idf_token_overlap(&ctx.dataset.okb, &ctx.signals, 0.55),
        );
        add(
            "Attribute Overlap",
            &baselines::attribute_overlap(&ctx.dataset.okb, &ctx.signals, 0.35),
        );
        add("CESI", &baselines::cesi(&ctx.dataset.okb, &ctx.dataset.ckb, &ctx.signals, cesi_t));
        add("SIST", &baselines::sist(&ctx.dataset.okb, &ctx.dataset.ckb, &ctx.signals, sist_t));
        let jocl = ctx.run_jocl(Variant::Full, FeatureSet::All);
        add("JOCL", &jocl.np_clustering);
        print!("{}", table.render());
        println!(
            "  [jocl: {} vars, {} factors, lbp {:?} {} iters, {} message updates, converged={}]\n",
            jocl.diagnostics.num_vars,
            jocl.diagnostics.num_factors,
            ctx.jocl_config().lbp.mode,
            jocl.diagnostics.lbp.iterations,
            jocl.diagnostics.lbp.message_updates,
            jocl.diagnostics.lbp.converged
        );
    }
}
