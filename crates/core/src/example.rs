//! The paper's running example (Figure 1a), as a self-contained fixture.
//!
//! Three OIE triples:
//!
//! ```text
//! <s1: University of Maryland, p1: locate in,              o1: Maryland>
//! <s2: UMD,                    p2: be a member of,         o2: Universitas 21>
//! <s3: University of Virginia, p3: be an early member of,  o3: U21>
//! ```
//!
//! and a CKB with entities e1 "maryland", e2 "universitas 21",
//! e3 "university of virginia", e4 "university of maryland" and relations
//! r1 "location.containedby", r2 "organizations_founded".
//!
//! The expected joint result (Figure 1a, blue):
//! * NP groups {s1, s2}, {s3}, {o1}, {o2, o3};
//! * links s1,s2 → e4; s3 → e3; o1 → e1; o2,o3 → e2;
//! * RP groups {p1}, {p2, p3}; links p1 → r1; p2,p3 → r2.
//!
//! Used by the quickstart example, the integration tests and the docs.

use crate::config::JoclConfig;
use crate::pipeline::JoclInput;
use jocl_embed::SgnsOptions;
use jocl_kb::{Ckb, CkbRelation, Entity, EntityId, Okb, RelationId, Triple};
use jocl_rules::ParaphraseStore;

/// The assembled fixture.
pub struct Figure1 {
    /// The three OIE triples.
    pub okb: Okb,
    /// The CKB of Figure 1(a).
    pub ckb: Ckb,
    /// A small PPDB covering the aliases.
    pub ppdb: ParaphraseStore,
    /// A small corpus for embedding training.
    pub corpus: Vec<Vec<String>>,
    /// e1 "maryland".
    pub e_maryland: EntityId,
    /// e2 "universitas 21".
    pub e_u21: EntityId,
    /// e3 "university of virginia".
    pub e_uva: EntityId,
    /// e4 "university of maryland".
    pub e_umd: EntityId,
    /// r1 "location.containedby".
    pub r_location: RelationId,
    /// r2 "organizations_founded".
    pub r_member: RelationId,
}

impl Figure1 {
    /// Borrowed input view for [`crate::Jocl::run`].
    pub fn input(&self) -> JoclInput<'_> {
        JoclInput { okb: &self.okb, ckb: &self.ckb, ppdb: &self.ppdb, corpus: &self.corpus }
    }

    /// A configuration suited to this tiny instance (no training data, a
    /// small embedding model, exact-ish LBP).
    pub fn config(&self) -> JoclConfig {
        JoclConfig {
            train_epochs: 0,
            sgns: SgnsOptions { dim: 16, epochs: 10, ..Default::default() },
            lbp: jocl_fg::LbpOptions {
                max_iters: 30,
                tol: 1e-6,
                damping: 0.1,
                ..JoclConfig::default().lbp
            },
            ..Default::default()
        }
    }
}

/// Build the Figure 1(a) fixture.
pub fn figure1() -> Figure1 {
    let mut ckb = Ckb::new();
    let e_maryland = ckb.add_entity(Entity {
        name: "maryland".into(),
        aliases: vec!["Maryland".into()],
        types: vec!["place".into()],
    });
    let e_u21 = ckb.add_entity(Entity {
        name: "universitas 21".into(),
        aliases: vec!["Universitas 21".into(), "U21".into()],
        types: vec!["organization".into()],
    });
    let e_uva = ckb.add_entity(Entity {
        name: "university of virginia".into(),
        aliases: vec!["University of Virginia".into(), "UVA".into()],
        types: vec!["organization".into(), "university".into()],
    });
    let e_umd = ckb.add_entity(Entity {
        name: "university of maryland".into(),
        aliases: vec!["University of Maryland".into(), "UMD".into()],
        types: vec!["organization".into(), "university".into()],
    });
    let r_location = ckb.add_relation(CkbRelation {
        name: "location.containedby".into(),
        surface_forms: vec!["locate in".into(), "be located in".into()],
        category: "location".into(),
    });
    let r_member = ckb.add_relation(CkbRelation {
        name: "organizations_founded".into(),
        surface_forms: vec!["be a member of".into(), "belong to".into()],
        category: "membership".into(),
    });
    // Facts of Figure 1(a): arrows in the CKB panel.
    ckb.add_fact(e_umd, r_location, e_maryland);
    ckb.add_fact(e_umd, r_member, e_u21);
    ckb.add_fact(e_uva, r_member, e_u21);
    // Wikipedia-style anchor statistics. "Maryland" is ambiguous between
    // the state (dominant) and the university.
    ckb.add_anchor("Maryland", e_maryland, 90);
    ckb.add_anchor("Maryland", e_umd, 10);
    ckb.add_anchor("University of Maryland", e_umd, 80);
    ckb.add_anchor("UMD", e_umd, 40);
    ckb.add_anchor("University of Virginia", e_uva, 70);
    ckb.add_anchor("UVA", e_uva, 30);
    ckb.add_anchor("Universitas 21", e_u21, 50);
    ckb.add_anchor("U21", e_u21, 25);

    let mut okb = Okb::new();
    okb.add_triple(Triple::new("University of Maryland", "locate in", "Maryland"));
    okb.add_triple(Triple::new("UMD", "be a member of", "Universitas 21"));
    okb.add_triple(Triple::new("University of Virginia", "be an early member of", "U21"));

    let ppdb = ParaphraseStore::from_groups([
        vec!["University of Maryland", "UMD"],
        vec!["Universitas 21", "U21"],
        vec!["be a member of", "be an early member of", "belong to"],
    ]);

    // A corpus in which aliases share contexts, as the real Common Crawl
    // would provide.
    let raw: &[&str] = &[
        "university of maryland locate in maryland",
        "umd locate in maryland",
        "umd be a member of universitas 21",
        "university of maryland be a member of u21",
        "university of virginia be a member of universitas 21",
        "university of virginia be an early member of u21",
        "universitas 21 include umd",
        "u21 include university of virginia",
    ];
    let corpus: Vec<Vec<String>> = raw.iter().map(|s| jocl_text::tokenize(s)).collect();

    Figure1 { okb, ckb, ppdb, corpus, e_maryland, e_u21, e_uva, e_umd, r_location, r_member }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_matches_figure_1a() {
        let ex = figure1();
        assert_eq!(ex.okb.len(), 3);
        assert_eq!(ex.ckb.num_entities(), 4);
        assert_eq!(ex.ckb.num_relations(), 2);
        assert_eq!(ex.ckb.num_facts(), 3);
        assert!(ex.ckb.has_fact(ex.e_umd, ex.r_member, ex.e_u21));
    }

    #[test]
    fn candidate_generation_finds_gold_entities() {
        let ex = figure1();
        let gen = jocl_kb::CandidateGen::new(&ex.ckb, Default::default());
        for (surface, gold) in [
            ("University of Maryland", ex.e_umd),
            ("UMD", ex.e_umd),
            ("Maryland", ex.e_maryland),
            ("U21", ex.e_u21),
            ("University of Virginia", ex.e_uva),
        ] {
            let cands = gen.entity_candidates(surface);
            assert!(
                cands.iter().any(|c| c.id == gold),
                "{surface} should have its gold entity among candidates"
            );
        }
    }
}
