//! Shared experiment plumbing: dataset setup, label construction,
//! method execution, scoring.

use jocl_cluster::Clustering;
use jocl_core::pipeline::ValidationLabels;
use jocl_core::signals::{build_signals, Signals};
use jocl_core::{FeatureSet, Jocl, JoclConfig, JoclInput, Variant};
use jocl_datagen::Dataset;
use jocl_embed::SgnsOptions;
use jocl_eval::clustering::{evaluate_clustering_on, ClusteringScores};
use jocl_eval::linking_accuracy;
use jocl_kb::{EntityId, NpMention, NpSlot, RelationId, RpMention, TripleId};

// The `JOCL_*` env knobs historically lived here; they are consolidated
// in [`crate::env`] (PR-6 satellite) and re-exported so every
// `jocl_bench::runner::env_*` import keeps working.
pub use crate::env::{
    env_compact_threshold, env_listen, env_message_store, env_scale, env_seed, env_snapshot_dir,
    env_stream_batches,
};

/// One method's clustering scores plus a label.
pub struct MethodScores {
    /// Display name (matches the paper's row labels).
    pub name: &'static str,
    /// Macro/micro/pairwise scores.
    pub scores: ClusteringScores,
}

/// A prepared dataset with shared signals and the paper's validation /
/// test split (§4.1).
pub struct ExperimentContext {
    /// The dataset.
    pub dataset: Dataset,
    /// Shared signal resources (SGNS trained once per dataset).
    pub signals: Signals,
    /// Validation triples (20% of entities).
    pub validation: Vec<TripleId>,
    /// Test triples.
    pub test: Vec<TripleId>,
    /// Sparse labels for weight learning.
    pub labels: ValidationLabels,
}

impl ExperimentContext {
    /// Prepare a context from a generated dataset.
    pub fn prepare(dataset: Dataset, seed: u64) -> Self {
        let sgns = SgnsOptions { dim: 48, epochs: 4, seed, ..Default::default() };
        let signals =
            build_signals(&dataset.okb, &dataset.ckb, &dataset.ppdb, &dataset.corpus, &sgns);
        let (validation, test) = dataset.entity_split(0.2, seed);
        let labels = validation_labels(&dataset, &validation);
        Self { dataset, signals, validation, test, labels }
    }

    /// Borrowed JOCL input view.
    pub fn input(&self) -> JoclInput<'_> {
        JoclInput {
            okb: &self.dataset.okb,
            ckb: &self.dataset.ckb,
            ppdb: &self.dataset.ppdb,
            corpus: &self.dataset.corpus,
        }
    }

    /// Default JOCL configuration for experiments at the current scale
    /// (residual LBP, the one schedule).
    pub fn jocl_config(&self) -> JoclConfig {
        JoclConfig {
            sgns: SgnsOptions { dim: 48, epochs: 4, ..Default::default() },
            train_epochs: crate::env::env_train_epochs(),
            ..Default::default()
        }
    }

    /// Run JOCL with a variant/feature-set override, reusing the shared
    /// signals.
    pub fn run_jocl(&self, variant: Variant, features: FeatureSet) -> jocl_core::JoclOutput {
        let config = JoclConfig { variant, features, ..self.jocl_config() };
        Jocl::new(config).run_with_signals(self.input(), &self.signals, Some(&self.labels))
    }

    /// Dense NP mention indexes of the test triples (evaluation universe).
    pub fn test_np_mentions(&self) -> Vec<usize> {
        self.test
            .iter()
            .flat_map(|&t| {
                [
                    NpMention { triple: t, slot: NpSlot::Subject }.dense(),
                    NpMention { triple: t, slot: NpSlot::Object }.dense(),
                ]
            })
            .collect()
    }

    /// Dense RP mention indexes of the test triples.
    pub fn test_rp_mentions(&self) -> Vec<usize> {
        self.test.iter().map(|&t| RpMention(t).dense()).collect()
    }

    /// Score an NP clustering on the test mentions.
    pub fn score_np(&self, predicted: &Clustering) -> ClusteringScores {
        evaluate_clustering_on(
            predicted,
            &self.dataset.gold.np_clustering(),
            &self.test_np_mentions(),
        )
    }

    /// Score an RP clustering on the test mentions.
    pub fn score_rp(&self, predicted: &Clustering) -> ClusteringScores {
        evaluate_clustering_on(
            predicted,
            &self.dataset.gold.rp_clustering(),
            &self.test_rp_mentions(),
        )
    }

    /// Entity linking accuracy on test mentions with gold links.
    pub fn score_entity_linking(&self, predicted: &[Option<EntityId>]) -> f64 {
        let idx = self.test_np_mentions();
        let p: Vec<Option<EntityId>> = idx.iter().map(|&i| predicted[i]).collect();
        let g: Vec<Option<EntityId>> =
            idx.iter().map(|&i| self.dataset.gold.np_entity[i]).collect();
        linking_accuracy(&p, &g).accuracy()
    }

    /// Relation linking accuracy on test mentions.
    pub fn score_relation_linking(&self, predicted: &[Option<RelationId>]) -> f64 {
        let idx = self.test_rp_mentions();
        let p: Vec<Option<RelationId>> = idx.iter().map(|&i| predicted[i]).collect();
        let g: Vec<Option<RelationId>> =
            idx.iter().map(|&i| self.dataset.gold.rp_relation[i]).collect();
        linking_accuracy(&p, &g).accuracy()
    }
}

/// Restrict the dataset's gold labels to the validation triples (paper
/// §4.1: the validation set trains the framework's parameters).
pub fn validation_labels(dataset: &Dataset, validation: &[TripleId]) -> ValidationLabels {
    let mut labels = ValidationLabels::empty(&dataset.okb);
    for &t in validation {
        for slot in [NpSlot::Subject, NpSlot::Object] {
            let d = NpMention { triple: t, slot }.dense();
            labels.np_entity[d] = dataset.gold.np_entity[d];
            labels.np_cluster[d] = Some(dataset.gold.np_cluster_labels[d]);
        }
        let d = RpMention(t).dense();
        labels.rp_relation[d] = dataset.gold.rp_relation[d];
        labels.rp_cluster[d] = Some(dataset.gold.rp_cluster_labels[d]);
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use jocl_datagen::reverb45k_like;

    #[test]
    fn context_prepares_consistent_split() {
        let ctx = ExperimentContext::prepare(reverb45k_like(3, 0.004), 3);
        assert_eq!(ctx.validation.len() + ctx.test.len(), ctx.dataset.okb.len());
        assert!(ctx.labels.num_labeled() > 0);
        // Labels only on validation triples.
        for &t in &ctx.test {
            let d = NpMention { triple: t, slot: NpSlot::Subject }.dense();
            assert!(ctx.labels.np_cluster[d].is_none());
        }
    }

    #[test]
    fn scoring_pipeline_runs() {
        let ctx = ExperimentContext::prepare(reverb45k_like(3, 0.004), 3);
        let c = jocl_baselines::morph_norm(&ctx.dataset.okb);
        let s = ctx.score_np(&c);
        assert!(s.average_f1() > 0.0 && s.average_f1() <= 1.0);
    }
}
