//! JOCL configuration: variants, feature sets, and all hyperparameters.

use jocl_embed::SgnsOptions;
use jocl_fg::LbpOptions;
use jocl_kb::candidates::CandidateOptions;

/// Which parts of the model are active — reproduces the paper's Table 4
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The full joint model (F1–F6, U1–U7).
    Full,
    /// `JOCLcano`: canonicalization factors only (F1–F3, U1–U3).
    CanoOnly,
    /// `JOCLlink`: linking factors only (F4–F6, U4).
    LinkOnly,
    /// Full structure minus the consistency factors U5–U7 — the two tasks
    /// share one graph but cannot interact (used to isolate the
    /// interaction effect).
    NoConsistency,
}

/// Which feature functions each F factor uses — reproduces the paper's
/// Table 5 variants (JOCL-single / JOCL-double / JOCL-all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSet {
    /// F1/F3: f_idf; F2: f_idf; F4/F6: f_pop; F5: f_ngram.
    Single,
    /// F1/F3: f_idf, f_emb; F2: f_idf, f_emb; F4/F6: f_pop, f'_emb;
    /// F5: f_ngram, f'_emb.
    Double,
    /// The full vectors of §3.1.3/§3.1.4/§3.2.3/§3.2.4.
    All,
}

impl FeatureSet {
    /// Number of features for the NP canonicalization factors F1/F3.
    pub fn np_canon_len(self) -> usize {
        match self {
            FeatureSet::Single => 1,
            FeatureSet::Double => 2,
            FeatureSet::All => 3,
        }
    }

    /// Number of features for the RP canonicalization factor F2.
    pub fn rp_canon_len(self) -> usize {
        match self {
            FeatureSet::Single => 1,
            FeatureSet::Double => 2,
            FeatureSet::All => 5,
        }
    }

    /// Number of features for the entity linking factors F4/F6.
    pub fn entity_link_len(self) -> usize {
        match self {
            FeatureSet::Single => 1,
            FeatureSet::Double => 2,
            FeatureSet::All => 3,
        }
    }

    /// Number of features for the relation linking factor F5.
    pub fn relation_link_len(self) -> usize {
        match self {
            FeatureSet::Single => 1,
            FeatureSet::Double => 2,
            FeatureSet::All => 4,
        }
    }
}

/// Full configuration of a JOCL run.
#[derive(Debug, Clone)]
pub struct JoclConfig {
    /// Model variant (ablations).
    pub variant: Variant,
    /// Feature combination (Table 5).
    pub features: FeatureSet,
    /// IDF-token-overlap blocking threshold for canonicalization pair
    /// generation (paper §4.1: 0.5).
    pub blocking_threshold: f64,
    /// Candidate generation options (top-K etc.).
    pub candidates: CandidateOptions,
    /// LBP options, used as they are by batch runs, training and
    /// sessions. `schedule` must be the phased schedule of §3.4,
    /// [`paper_schedule`] (the default): [`crate::Jocl::new`] and the
    /// incremental session panic on anything else. The update-selection
    /// `mode` defaults to [`jocl_fg::ScheduleMode::Residual`], the one
    /// schedule sessions and serving run (an incremental session panics
    /// on anything else). A batch run still honors
    /// [`jocl_fg::ScheduleMode::Synchronous`], kept as the full-sweep
    /// reference oracle: same fixed point within `tol`, more message
    /// updates (see `Diagnostics::lbp.message_updates`).
    pub lbp: LbpOptions,
    /// Learning rate for weight training (paper §4.1: 0.05).
    pub learning_rate: f64,
    /// Training epochs (clamped+free LBP per epoch); 0 disables learning.
    pub train_epochs: usize,
    /// Cap on transitivity triangles (U1–U3) per variable type.
    pub max_triangles: usize,
    /// Identical-phrase mention groups up to this size become cliques;
    /// larger groups are chained (keeps blocking near-linear).
    pub max_group_clique: usize,
    /// Cross-phrase pair cap: at most this many mentions per side.
    pub cross_cap: usize,
    /// Merge final clusters through shared link targets (Assumption 1
    /// applied at decode time).
    pub merge_by_link: bool,
    /// SGNS options for the embedding signal.
    pub sgns: SgnsOptions,
    /// Committed-message representation a long-lived session keeps
    /// between deltas ([`jocl_fg::MessageStore`]). `Exact` (the default)
    /// commits the engine's f64 arenas bit-for-bit; `Quantized` halves
    /// their resident bytes (per-block f64 anchors + f32 residuals) at
    /// the cost of a bounded quantization error on resume. Restart and
    /// replica parity hold under either value, but a snapshot taken
    /// under one store cannot restore into a session configured with
    /// the other (the serve envelope fingerprints this field).
    pub message_store: jocl_fg::MessageStore,
    /// Previously learned weights (see `crate::persist`). When set,
    /// training is skipped and these weights drive inference directly —
    /// the serving-mode path. The batch pipeline and the incremental
    /// session **panic** if their shape does not match the parameter
    /// groups of `features` (e.g. a weight file persisted under a
    /// different `FeatureSet`): stale weights should fail fast, not
    /// silently retrain or mis-infer.
    pub pretrained_params: Option<jocl_fg::Params>,
    /// Imported external-KB side information (alias tables, link
    /// dictionaries — [`jocl_kb::SideKb`]). When set, every surface form
    /// with an imported link gains an extra unary potential on its
    /// linking variable (classes [`classes::S1`]/[`classes::S2`],
    /// parameter group γ), and imported targets missing from the
    /// retrieved candidate list are appended to it. `None` — or an
    /// **empty** table — leaves inference bitwise-identical to the
    /// side-info-free pipeline. Shared by `Arc` so batch, incremental
    /// and serving planes pin the same table; the serve snapshot
    /// fingerprint records its [`jocl_kb::SideKb::fingerprint`].
    pub side_info: Option<std::sync::Arc<jocl_kb::SideKb>>,
}

impl Default for JoclConfig {
    fn default() -> Self {
        Self {
            variant: Variant::Full,
            features: FeatureSet::All,
            blocking_threshold: 0.5,
            candidates: CandidateOptions::default(),
            lbp: LbpOptions {
                max_iters: 20,
                tol: 1e-3,
                damping: 0.1,
                schedule: paper_schedule(),
                mode: jocl_fg::ScheduleMode::Residual,
            },
            learning_rate: 0.05,
            train_epochs: 6,
            max_triangles: 50_000,
            max_group_clique: 5,
            cross_cap: 3,
            merge_by_link: true,
            sgns: SgnsOptions::default(),
            message_store: jocl_fg::MessageStore::Exact,
            pretrained_params: None,
            side_info: None,
        }
    }
}

/// Factor scheduling classes, mirroring the paper's message-passing order
/// (§3.4).
pub mod classes {
    /// F1: subject canonicalization.
    pub const F1: u8 = 1;
    /// F2: predicate canonicalization.
    pub const F2: u8 = 2;
    /// F3: object canonicalization.
    pub const F3: u8 = 3;
    /// U1: subject transitivity.
    pub const U1: u8 = 4;
    /// U2: predicate transitivity.
    pub const U2: u8 = 5;
    /// U3: object transitivity.
    pub const U3: u8 = 6;
    /// F4: subject linking.
    pub const F4: u8 = 7;
    /// F5: predicate linking.
    pub const F5: u8 = 8;
    /// F6: object linking.
    pub const F6: u8 = 9;
    /// U4: fact inclusion.
    pub const U4: u8 = 10;
    /// U5: subject consistency.
    pub const U5: u8 = 11;
    /// U6: predicate consistency.
    pub const U6: u8 = 12;
    /// U7: object consistency.
    pub const U7: u8 = 13;
    /// S1: NP side-information potentials (imported alias/link tables on
    /// entity-linking variables).
    pub const S1: u8 = 14;
    /// S2: RP side-information potentials.
    pub const S2: u8 = 15;

    /// Variable class of canonicalization variables.
    pub const VAR_CANON: u8 = 0;
    /// Variable class of linking variables.
    pub const VAR_LINK: u8 = 1;
}

/// The paper's phased LBP schedule (§3.4): canonicalization factors →
/// transitivity → linking factors (side-information potentials ride in
/// the same phase — they are extra unary evidence on the same linking
/// variables) → fact inclusion → consistency; then canonicalization
/// variables → linking variables. A class with no factors is a no-op, so
/// runs without side information are untouched by S1/S2.
pub fn paper_schedule() -> jocl_fg::Schedule {
    use classes::*;
    jocl_fg::Schedule {
        factor_phases: vec![
            vec![F1, F2, F3],
            vec![U1, U2, U3],
            vec![F4, F5, F6, S1, S2],
            vec![U4],
            vec![U5, U6, U7],
        ],
        var_phases: vec![vec![VAR_CANON], vec![VAR_LINK]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_lengths_match_paper_vectors() {
        assert_eq!(FeatureSet::All.np_canon_len(), 3); // idf, emb, ppdb
        assert_eq!(FeatureSet::All.rp_canon_len(), 5); // + amie, kbp
        assert_eq!(FeatureSet::All.entity_link_len(), 3); // pop, emb, ppdb
        assert_eq!(FeatureSet::All.relation_link_len(), 4); // ngram, ld, emb, ppdb
        assert_eq!(FeatureSet::Single.rp_canon_len(), 1);
        assert_eq!(FeatureSet::Double.relation_link_len(), 2);
    }

    #[test]
    fn default_config_matches_paper_constants() {
        let c = JoclConfig::default();
        assert_eq!(c.blocking_threshold, 0.5); // §4.1
        assert_eq!(c.learning_rate, 0.05); // §4.1
        assert_eq!(c.lbp.max_iters, 20); // §3.4 "within twenty iterations"
        assert_eq!(c.lbp.mode, jocl_fg::ScheduleMode::Residual, "the serving schedule");
        assert_eq!(c.lbp.schedule, paper_schedule(), "§3.4 phases");
        assert_eq!(c.variant, Variant::Full);
    }

    #[test]
    fn schedule_contains_all_classes_in_order() {
        use classes::*;
        let jocl_fg::Schedule { factor_phases, var_phases } = paper_schedule();
        assert_eq!(factor_phases.len(), 5);
        assert_eq!(factor_phases[0], vec![F1, F2, F3]);
        assert_eq!(
            factor_phases[2],
            vec![F4, F5, F6, S1, S2],
            "side-information potentials ride the linking phase"
        );
        assert_eq!(factor_phases[4], vec![U5, U6, U7]);
        assert_eq!(var_phases, vec![vec![VAR_CANON], vec![VAR_LINK]]);
    }
}
