//! The end-to-end JOCL pipeline.
//!
//! ```text
//! OKB + CKB + resources
//!   → build signals (IDF, SGNS embeddings, PPDB, AMIE, KBP)     §3.1/§3.2
//!   → block canonicalization pairs (Sim_idf ≥ 0.5)              §4.1
//!   → build the factor graph (F1–F6, U1–U7)                     §3.1–§3.3
//!   → learn weights on the validation labels (clamped vs free)  §3.4
//!   → phased LBP                                                §3.4
//!   → decode + conflict resolution                              §3.5
//! ```

use crate::blocking::block_pairs;
use crate::builder::{build_graph, GraphPlan};
use crate::config::JoclConfig;
use crate::decode::{decode, Diagnostics, JoclOutput};
use crate::incremental::assert_paper_schedule;
use crate::signals::{build_signals, Signals};
use jocl_fg::lbp::LbpEngine;
use jocl_fg::{train, TrainOptions, VarId};
use jocl_kb::{Ckb, EntityId, NpMention, NpSlot, Okb, RelationId, RpMention};
use jocl_rules::ParaphraseStore;

/// Borrowed view of everything a JOCL run consumes.
#[derive(Clone, Copy)]
pub struct JoclInput<'a> {
    /// The OIE triples.
    pub okb: &'a Okb,
    /// The curated KB.
    pub ckb: &'a Ckb,
    /// Paraphrase database resource.
    pub ppdb: &'a ParaphraseStore,
    /// Tokenized corpus for embedding training.
    pub corpus: &'a [Vec<String>],
}

/// Sparse gold labels used for weight learning (paper §4.1: the triples
/// of 20% of entities act as the validation set). `None` = unlabeled.
#[derive(Debug, Clone, Default)]
pub struct ValidationLabels {
    /// Gold entity per dense NP mention.
    pub np_entity: Vec<Option<EntityId>>,
    /// Gold relation per dense RP mention.
    pub rp_relation: Vec<Option<RelationId>>,
    /// Gold cluster label per dense NP mention (for pair variables).
    pub np_cluster: Vec<Option<u32>>,
    /// Gold cluster label per dense RP mention.
    pub rp_cluster: Vec<Option<u32>>,
}

impl ValidationLabels {
    /// An all-unlabeled instance shaped for `okb`.
    pub fn empty(okb: &Okb) -> Self {
        Self {
            np_entity: vec![None; okb.num_np_mentions()],
            rp_relation: vec![None; okb.num_rp_mentions()],
            np_cluster: vec![None; okb.num_np_mentions()],
            rp_cluster: vec![None; okb.num_rp_mentions()],
        }
    }

    /// Number of labeled items across all four views.
    pub fn num_labeled(&self) -> usize {
        self.np_entity.iter().flatten().count()
            + self.rp_relation.iter().flatten().count()
            + self.np_cluster.iter().flatten().count()
            + self.rp_cluster.iter().flatten().count()
    }

    /// The labels as variable clamps on `plan`, the graph built for `okb`
    /// (the clamped half of weight learning, paper §3.4). A link variable
    /// clamps to its gold candidate's index when the gold item is a
    /// candidate; a pair variable clamps to gold same (1) / different (0)
    /// where both mentions are labeled.
    pub fn clamps(&self, okb: &Okb, plan: &GraphPlan) -> Vec<(VarId, u32)> {
        let mut clamps = Vec::new();
        // Linking variables: clamp to the gold candidate index when present.
        for m in okb.np_mentions() {
            let d = m.dense();
            let (Some(var), Some(gold)) =
                (plan.np_link_vars[d], self.np_entity.get(d).copied().flatten())
            else {
                continue;
            };
            if let Some(idx) = plan.np_candidates[d].iter().position(|&e| e == gold) {
                clamps.push((var, idx as u32));
            }
        }
        for m in okb.rp_mentions() {
            let d = m.dense();
            let (Some(var), Some(gold)) =
                (plan.rp_link_vars[d], self.rp_relation.get(d).copied().flatten())
            else {
                continue;
            };
            if let Some(idx) = plan.rp_candidates[d].iter().position(|&r| r == gold) {
                clamps.push((var, idx as u32));
            }
        }
        // Pair variables: clamp to gold same/different where both mentions are
        // labeled.
        let np_label = |m: NpMention| self.np_cluster.get(m.dense()).copied().flatten();
        for &(ti, tj, var) in &plan.subj_pair_vars {
            let a = np_label(NpMention { triple: ti, slot: NpSlot::Subject });
            let b = np_label(NpMention { triple: tj, slot: NpSlot::Subject });
            if let (Some(a), Some(b)) = (a, b) {
                clamps.push((var, u32::from(a == b)));
            }
        }
        for &(ti, tj, var) in &plan.obj_pair_vars {
            let a = np_label(NpMention { triple: ti, slot: NpSlot::Object });
            let b = np_label(NpMention { triple: tj, slot: NpSlot::Object });
            if let (Some(a), Some(b)) = (a, b) {
                clamps.push((var, u32::from(a == b)));
            }
        }
        for &(ti, tj, var) in &plan.pred_pair_vars {
            let a = self.rp_cluster.get(RpMention(ti).dense()).copied().flatten();
            let b = self.rp_cluster.get(RpMention(tj).dense()).copied().flatten();
            if let (Some(a), Some(b)) = (a, b) {
                clamps.push((var, u32::from(a == b)));
            }
        }
        clamps
    }
}

/// The JOCL system.
pub struct Jocl {
    config: JoclConfig,
}

impl Jocl {
    /// Create with a configuration.
    ///
    /// # Panics
    /// Panics if `config.lbp.schedule` is not
    /// [`crate::config::paper_schedule`].
    pub fn new(config: JoclConfig) -> Self {
        assert_paper_schedule(&config);
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &JoclConfig {
        &self.config
    }

    /// Full run: build signals, then [`Jocl::run_with_signals`].
    pub fn run(&self, input: JoclInput<'_>, labels: Option<&ValidationLabels>) -> JoclOutput {
        let signals =
            build_signals(input.okb, input.ckb, input.ppdb, input.corpus, &self.config.sgns);
        self.run_with_signals(input, &signals, labels)
    }

    /// Run with prebuilt signals (lets benchmarks share one SGNS model
    /// across variants).
    pub fn run_with_signals(
        &self,
        input: JoclInput<'_>,
        signals: &Signals,
        labels: Option<&ValidationLabels>,
    ) -> JoclOutput {
        let config = &self.config;
        let blocking = block_pairs(input.okb, signals, config);
        let pair_counts =
            (blocking.subj_pairs.len(), blocking.pred_pairs.len(), blocking.obj_pairs.len());
        let mut plan = build_graph(input.okb, input.ckb, signals, &blocking, config);

        // --- learning (§3.4) -------------------------------------------------
        let mut train_epochs = 0;
        let mut train_grad_norm = f64::NAN;
        // Serving mode: `build_graph` installed persisted weights (see
        // `crate::persist`), so training is skipped entirely.
        if config.pretrained_params.is_none() && config.train_epochs > 0 {
            if let Some(labels) = labels {
                let clamp_list = labels.clamps(input.okb, &plan);
                if !clamp_list.is_empty() {
                    let opts = TrainOptions {
                        learning_rate: config.learning_rate,
                        max_epochs: config.train_epochs,
                        grad_tol: 1e-2,
                        l2: 1e-3,
                        lbp: config.lbp.clone(),
                    };
                    let report = train(&plan.graph, &mut plan.params, &clamp_list, &opts);
                    train_epochs = report.epochs;
                    train_grad_norm = report.final_grad_norm;
                }
            }
        }

        // --- inference (§3.4) -----------------------------------------------
        let mut engine = LbpEngine::new(&plan.graph);
        let lbp_result = engine.run(&plan.params, &config.lbp);
        let marginals = engine.marginals();

        let diagnostics = Diagnostics {
            lbp: lbp_result,
            num_vars: plan.graph.num_vars(),
            num_factors: plan.graph.num_factors(),
            pair_counts,
            triangles: plan.stats.triangles,
            train_epochs,
            train_grad_norm,
        };
        let mut out = decode(input.okb, &plan, &marginals, config, diagnostics);
        out.learned_params = Some(plan.params);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::figure1;

    #[test]
    fn empty_labels_shape() {
        let ex = figure1();
        let l = ValidationLabels::empty(&ex.okb);
        assert_eq!(l.np_entity.len(), 6);
        assert_eq!(l.rp_relation.len(), 3);
        assert_eq!(l.num_labeled(), 0);
    }

    #[test]
    fn pipeline_runs_on_figure1() {
        let ex = figure1();
        let jocl = Jocl::new(ex.config());
        let out = jocl.run(ex.input(), None);
        assert_eq!(out.np_links.len(), 6);
        assert_eq!(out.rp_links.len(), 3);
        assert!(out.diagnostics.num_vars > 0);
        assert!(out.diagnostics.lbp.iterations > 0);
    }

    /// Weights persisted under another feature set fail fast instead of
    /// mis-inferring.
    #[test]
    #[should_panic(expected = "pretrained group 0 has a different shape")]
    fn wrong_shape_pretrained_params_panic() {
        let ex = figure1();
        let single = JoclConfig { features: crate::FeatureSet::Single, ..ex.config() };
        let (stale, _) = crate::builder::init_params(&single);
        let config = JoclConfig { pretrained_params: Some(stale), ..ex.config() };
        Jocl::new(config).run(ex.input(), None);
    }

    /// The paper's phases are validated, not silently installed: a
    /// flooding schedule (one phase of every class) fails at `Jocl::new`.
    #[test]
    #[should_panic(expected = "lbp.schedule")]
    fn batch_rejects_a_flooding_schedule() {
        let config = figure1().config();
        let lbp = jocl_fg::LbpOptions { schedule: jocl_fg::Schedule::default(), ..config.lbp };
        Jocl::new(JoclConfig { lbp, ..config });
    }
}
