//! Dataset assembly: world → (CKB, OKB, gold, resources).

use crate::options::WorldOptions;
use crate::words::Zipf;
use crate::world::World;
use jocl_cluster::Clustering;
use jocl_kb::{
    Ckb, CkbRelation, Entity, EntityId, Okb, RelationId, SideInfo, SideKb, Triple, TripleId,
};
use jocl_rules::ParaphraseStore;
use jocl_text::tokenize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gold annotations for one dataset.
#[derive(Debug, Clone)]
pub struct Gold {
    /// Per NP mention (dense index): the CKB entity it refers to, or
    /// `None` for out-of-KB mentions.
    pub np_entity: Vec<Option<EntityId>>,
    /// Per RP mention (dense index): the CKB relation.
    pub rp_relation: Vec<Option<RelationId>>,
    /// Per NP mention: gold cluster label (world entity index — includes
    /// shadow entities, so OOV mentions cluster correctly too).
    pub np_cluster_labels: Vec<u32>,
    /// Per RP mention: gold cluster label (world relation index).
    pub rp_cluster_labels: Vec<u32>,
}

impl Gold {
    /// Gold clustering of NP mentions.
    pub fn np_clustering(&self) -> Clustering {
        Clustering::from_labels(&self.np_cluster_labels)
    }

    /// Gold clustering of RP mentions.
    pub fn rp_clustering(&self) -> Clustering {
        Clustering::from_labels(&self.rp_cluster_labels)
    }
}

/// A complete synthetic benchmark: the inputs JOCL and every baseline
/// consume, plus gold labels.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (for reports).
    pub name: String,
    /// The curated KB.
    pub ckb: Ckb,
    /// The OIE triples.
    pub okb: Okb,
    /// Gold labels.
    pub gold: Gold,
    /// Synthetic PPDB (covers NP aliases and RP base forms, with
    /// configurable recall and noise).
    pub ppdb: ParaphraseStore,
    /// PATTY-style RP synsets (independent coverage draw).
    pub synsets: ParaphraseStore,
    /// Tokenized sentences for embedding training.
    pub corpus: Vec<Vec<String>>,
    /// The underlying world (kept for diagnostics and oracle experiments).
    pub world: World,
}

impl Dataset {
    /// Generate a dataset from options.
    pub fn generate(name: &str, opts: &WorldOptions) -> Dataset {
        let world = World::generate(opts);
        let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));

        // --- CKB -----------------------------------------------------------
        let mut ckb = Ckb::new();
        for e in &world.entities[..world.num_ckb_entities()] {
            // CKB alias coverage is incomplete: the canonical alias is
            // always known, every other alias is dropped with probability
            // `ckb_alias_gap` (text keeps using it — that is precisely
            // the hard case motivating joint canonicalization+linking).
            let aliases: Vec<String> = e
                .aliases
                .iter()
                .enumerate()
                .filter(|&(ai, _)| ai == 0 || !rng.gen_bool(opts.ckb_alias_gap))
                .map(|(_, a)| a.clone())
                .collect();
            ckb.add_entity(Entity { name: e.name.clone(), aliases, types: e.types.clone() });
        }
        for rel in &world.relations {
            // Like entity aliases, the CKB's surface-form inventory for a
            // relation is incomplete: paraphrases beyond the first are
            // dropped with probability `ckb_alias_gap`. RP mentions using
            // an uncovered paraphrase cannot be linked by string match.
            let surface_forms: Vec<String> = rel
                .surface_forms()
                .into_iter()
                .enumerate()
                .filter(|&(si, _)| si == 0 || !rng.gen_bool(opts.ckb_alias_gap))
                .map(|(_, sf)| sf)
                .collect();
            ckb.add_relation(CkbRelation {
                name: rel.canonical_name(),
                surface_forms,
                category: format!("cat{}", rel.category),
            });
        }
        for f in &world.facts {
            // CKB incompleteness: only `fact_coverage` of true facts are
            // recorded.
            if !rng.gen_bool(opts.fact_coverage) {
                continue;
            }
            ckb.add_fact(
                EntityId(f.subject as u32),
                RelationId(f.relation as u32),
                EntityId(f.object as u32),
            );
        }
        // Anchors: Zipf-weighted per entity, split across aliases
        // (canonical gets half). Ambiguous alias strings naturally split
        // their totals across the entities sharing them.
        for i in 0..world.num_ckb_entities() {
            let aliases = ckb.entity(EntityId(i as u32)).aliases.clone();
            let w = world.zipf.weight(i);
            let total = 5 + (w * world.num_ckb_entities() as f64 * 60.0).round() as u64;
            let others = aliases.len().saturating_sub(1).max(1) as u64;
            for (ai, alias) in aliases.iter().enumerate() {
                let count =
                    if ai == 0 { (total / 2).max(1) } else { (total / (2 * others)).max(1) };
                ckb.add_anchor(alias, EntityId(i as u32), count);
                // Anchor noise: the same surface form also points at a
                // wrong entity some of the time, as real anchors do.
                if rng.gen_bool(opts.anchor_noise) {
                    let wrong = rng.gen_range(0..world.num_ckb_entities());
                    if wrong != i {
                        // Noise magnitude comparable to the true counts so
                        // popularity alone cannot decide.
                        ckb.add_anchor(alias, EntityId(wrong as u32), count.max(2));
                    }
                }
            }
        }

        // --- OKB + gold ------------------------------------------------------
        let mut okb = Okb::new();
        let mut gold = Gold {
            np_entity: Vec::new(),
            rp_relation: Vec::new(),
            np_cluster_labels: Vec::new(),
            rp_cluster_labels: Vec::new(),
        };
        let n_ckb_pool: Vec<usize> = (0..world.num_ckb_entities()).collect();
        let fact_zipf = Zipf::new(world.facts.len().max(1), 0.6);
        for _ in 0..opts.num_triples {
            let use_shadow = !world.shadow_facts.is_empty() && rng.gen_bool(opts.oov_rate);
            let f = if use_shadow {
                world.shadow_facts[rng.gen_range(0..world.shadow_facts.len())]
            } else if world.facts.is_empty() {
                continue;
            } else {
                world.facts[fact_zipf.sample(&mut rng)]
            };
            let subject = world.render_np(&mut rng, f.subject, opts);
            let predicate = world.render_rp(&mut rng, f.relation, opts);
            let object = world.render_np(&mut rng, f.object, opts);
            // SIST-style side information: gold candidates + confusers.
            let side = SideInfo {
                subject_candidates: side_candidates(&mut rng, &world, f.subject, &n_ckb_pool, opts),
                object_candidates: side_candidates(&mut rng, &world, f.object, &n_ckb_pool, opts),
                domain: format!("domain{}", world.relations[f.relation].category),
            };
            okb.add_triple_with_side_info(Triple { subject, predicate, object }, side);
            // Gold.
            gold.np_entity.push(world.is_ckb(f.subject).then_some(EntityId(f.subject as u32)));
            gold.np_entity.push(world.is_ckb(f.object).then_some(EntityId(f.object as u32)));
            gold.np_cluster_labels.push(f.subject as u32);
            gold.np_cluster_labels.push(f.object as u32);
            gold.rp_relation.push(Some(RelationId(f.relation as u32)));
            gold.rp_cluster_labels.push(f.relation as u32);
        }

        // --- PPDB + synsets ---------------------------------------------------
        let mut ppdb = ParaphraseStore::new();
        let mut stray: Vec<String> = Vec::new();
        for e in &world.entities {
            let mut group: Vec<String> = Vec::new();
            for a in &e.aliases {
                if !rng.gen_bool(opts.ppdb_recall) {
                    continue;
                }
                if rng.gen_bool(opts.ppdb_noise) {
                    stray.push(a.clone());
                } else {
                    group.push(a.clone());
                }
            }
            if group.len() >= 2 {
                ppdb.add_group(group.iter().map(String::as_str));
            }
        }
        for rel in &world.relations {
            let group: Vec<String> = rel
                .surface_forms()
                .into_iter()
                .filter(|_| rng.gen_bool(opts.ppdb_recall))
                .collect();
            if group.len() >= 2 {
                ppdb.add_group(group.iter().map(String::as_str));
            }
        }
        // Noise: stray phrases get attached to random groups.
        if !stray.is_empty() {
            for chunk in stray.chunks(2) {
                ppdb.add_group(chunk.iter().map(String::as_str));
            }
        }
        let mut synsets = ParaphraseStore::new();
        for rel in &world.relations {
            let group: Vec<String> = rel
                .surface_forms()
                .into_iter()
                .filter(|_| rng.gen_bool((opts.ppdb_recall + 0.2).min(1.0)))
                .collect();
            if group.len() >= 2 {
                synsets.add_group(group.iter().map(String::as_str));
            }
        }

        // --- corpus -----------------------------------------------------------
        let mut corpus = Vec::new();
        for f in world.facts.iter().chain(&world.shadow_facts) {
            for _ in 0..opts.corpus_sentences_per_fact {
                let mut sent = tokenize(&world.render_np(&mut rng, f.subject, opts));
                sent.extend(tokenize(&world.render_rp(&mut rng, f.relation, opts)));
                sent.extend(tokenize(&world.render_np(&mut rng, f.object, opts)));
                corpus.push(sent);
            }
        }

        Dataset { name: name.to_string(), ckb, okb, gold, ppdb, synsets, corpus, world }
    }

    /// Split triples by gold subject entity: triples whose subject belongs
    /// to a sampled `frac` of entities form the validation set (paper
    /// §4.1: "the triples associated with 20% selected Freebase entities
    /// of ReVerb45K as the validation set").
    pub fn entity_split(&self, frac: f64, seed: u64) -> (Vec<TripleId>, Vec<TripleId>) {
        let mut entity_ids: Vec<u32> = self
            .gold
            .np_entity
            .iter()
            .flatten()
            .map(|e| e.0)
            .collect::<std::collections::BTreeSet<u32>>()
            .into_iter()
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..entity_ids.len()).rev() {
            let j = rng.gen_range(0..=i);
            entity_ids.swap(i, j);
        }
        let take = ((entity_ids.len() as f64 * frac).round() as usize).min(entity_ids.len());
        let validation_entities: std::collections::HashSet<u32> =
            entity_ids.into_iter().take(take).collect();
        let mut validation = Vec::new();
        let mut test = Vec::new();
        for (tid, _) in self.okb.triples() {
            let subj_gold = self.gold.np_entity[tid.idx() * 2];
            let in_val = subj_gold.is_some_and(|e| validation_entities.contains(&e.0));
            if in_val {
                validation.push(tid);
            } else {
                test.push(tid);
            }
        }
        (validation, test)
    }

    /// The **alias-dictionary preset**: an external side-information
    /// table that recovers exactly the aliases and relation paraphrases
    /// `ckb_alias_gap` dropped from the curated KB. The world knows the
    /// full inventory; the CKB kept an incomplete subset; the diff is
    /// what a CESI-style imported dictionary (Wikipedia redirects, PPDB)
    /// would contribute — surface forms the OKB keeps using that string
    /// match against the CKB can no longer resolve. Every row maps the
    /// dropped surface to the entity's (relation's) canonical CKB name
    /// with confidence `weight`.
    ///
    /// # Panics
    /// Panics unless `weight` is finite and in `(0, 1]` (the
    /// [`SideKb`] row contract).
    pub fn alias_side_kb(&self, weight: f64) -> SideKb {
        let mut side = SideKb::new();
        for i in 0..self.world.num_ckb_entities() {
            let id = EntityId(i as u32);
            let kept: std::collections::HashSet<String> =
                self.ckb.entity(id).aliases.iter().map(|a| a.to_lowercase()).collect();
            let name = &self.ckb.entity(id).name;
            for alias in &self.world.entities[i].aliases {
                if !kept.contains(&alias.to_lowercase()) {
                    side.add_entity_link(alias, name, weight);
                }
            }
        }
        for (r, rel) in self.world.relations.iter().enumerate() {
            let id = RelationId(r as u32);
            let kept: std::collections::HashSet<String> =
                self.ckb.relation(id).surface_forms.iter().map(|s| s.to_lowercase()).collect();
            let name = &self.ckb.relation(id).name;
            for sf in rel.surface_forms() {
                if !kept.contains(&sf.to_lowercase()) {
                    side.add_relation_link(&sf, name, weight);
                }
            }
        }
        side
    }
}

fn side_candidates(
    rng: &mut StdRng,
    world: &World,
    gold: usize,
    ckb_pool: &[usize],
    opts: &WorldOptions,
) -> Vec<EntityId> {
    let mut out = Vec::new();
    if world.is_ckb(gold) {
        out.push(EntityId(gold as u32));
    }
    for _ in 0..opts.side_info_confusers {
        if ckb_pool.is_empty() {
            break;
        }
        let pick = ckb_pool[rng.gen_range(0..ckb_pool.len())];
        let id = EntityId(pick as u32);
        if !out.contains(&id) {
            out.push(id);
        }
    }
    out
}

/// ReVerb45K-like preset: Freebase-annotated regime — low OOV, full gold
/// links. `scale = 1.0` ≈ the paper's 45K triples.
pub fn reverb45k_like(seed: u64, scale: f64) -> Dataset {
    let opts = WorldOptions {
        seed,
        num_entities: 7000,
        num_relations: 700,
        num_facts: 30_000,
        num_triples: 45_000,
        zipf_exponent: 1.05,
        typo_rate: 0.03,
        determiner_rate: 0.10,
        modifier_rate: 0.10,
        oov_rate: 0.06,
        anchor_noise: 0.55,
        ckb_alias_gap: 0.35,
        fact_coverage: 0.55,
        ppdb_recall: 0.7,
        ppdb_noise: 0.02,
        corpus_sentences_per_fact: 2,
        num_categories: 180,
        side_info_confusers: 2,
    }
    .scaled(scale);
    Dataset::generate("ReVerb45K-like", &opts)
}

/// Stress preset: the ReVerb45K-like regime blown up to **millions of
/// triples** (`scale = 1.0` ≈ 2.25M triples, ~350K entities) for
/// memory-wall profiling. The corpus knob is turned down — at this size
/// the embedding corpus would dominate generation time without changing
/// what the storage layer is being stressed on — and the rates stay the
/// paper regime's, so the per-triple arena shapes match the benchmark
/// presets. Sub-sample with `scale` like the other presets
/// (`stress_like(seed, 0.5)` ≈ 1.1M triples).
pub fn stress_like(seed: u64, scale: f64) -> Dataset {
    let opts = WorldOptions {
        seed,
        num_entities: 350_000,
        num_relations: 5_000,
        num_facts: 1_500_000,
        num_triples: 2_250_000,
        zipf_exponent: 1.05,
        typo_rate: 0.03,
        determiner_rate: 0.10,
        modifier_rate: 0.10,
        oov_rate: 0.06,
        anchor_noise: 0.55,
        ckb_alias_gap: 0.35,
        fact_coverage: 0.55,
        ppdb_recall: 0.7,
        ppdb_noise: 0.02,
        corpus_sentences_per_fact: 1,
        num_categories: 400,
        side_info_confusers: 2,
    }
    .scaled(scale);
    Dataset::generate("Stress", &opts)
}

/// NYTimes2018-like preset: unannotated-news regime — high OOV, noisier
/// surface forms, sparser resources. `scale = 1.0` ≈ 34K triples.
pub fn nytimes2018_like(seed: u64, scale: f64) -> Dataset {
    let opts = WorldOptions {
        seed,
        num_entities: 5000,
        num_relations: 500,
        num_facts: 20_000,
        num_triples: 34_000,
        zipf_exponent: 1.1,
        typo_rate: 0.05,
        determiner_rate: 0.15,
        modifier_rate: 0.15,
        oov_rate: 0.30,
        anchor_noise: 0.65,
        ckb_alias_gap: 0.45,
        fact_coverage: 0.45,
        ppdb_recall: 0.55,
        ppdb_noise: 0.04,
        corpus_sentences_per_fact: 2,
        num_categories: 120,
        side_info_confusers: 3,
    }
    .scaled(scale);
    Dataset::generate("NYTimes2018-like", &opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jocl_kb::NpMention;

    fn tiny() -> Dataset {
        Dataset::generate("tiny", &WorldOptions::tiny(3))
    }

    #[test]
    fn shapes_are_consistent() {
        let d = tiny();
        assert_eq!(d.gold.np_entity.len(), d.okb.num_np_mentions());
        assert_eq!(d.gold.rp_relation.len(), d.okb.num_rp_mentions());
        assert_eq!(d.gold.np_cluster_labels.len(), d.okb.num_np_mentions());
        assert_eq!(d.gold.rp_cluster_labels.len(), d.okb.num_rp_mentions());
        assert!(d.ckb.num_entities() > 0);
        assert!(d.ckb.num_facts() > 0);
        assert!(!d.corpus.is_empty());
    }

    #[test]
    fn gold_links_point_to_alias_holders() {
        let d = tiny();
        // For every linked NP mention, the mention surface must be
        // derived from the gold entity's alias set (up to noise tokens).
        let mut checked = 0;
        for m in d.okb.np_mentions() {
            let Some(gold) = d.gold.np_entity[m.dense()] else { continue };
            let phrase = d.okb.np_phrase(m).to_lowercase();
            let entity = d.ckb.entity(gold);
            let overlap = entity.aliases.iter().any(|a| {
                let a = a.to_lowercase();
                phrase.contains(&a)
                    || a.contains(phrase.trim_start_matches("the "))
                    || tokenize(&a).iter().any(|t| phrase.contains(t.as_str()))
            });
            if overlap {
                checked += 1;
            }
        }
        // Typos can break containment for a few mentions, but the vast
        // majority must match.
        let total = d.gold.np_entity.iter().flatten().count();
        assert!(
            checked as f64 > total as f64 * 0.9,
            "only {checked}/{total} mentions match their gold alias"
        );
    }

    #[test]
    fn oov_mentions_have_no_link_but_cluster() {
        let d = tiny();
        let oov: Vec<usize> =
            (0..d.gold.np_entity.len()).filter(|&i| d.gold.np_entity[i].is_none()).collect();
        assert!(!oov.is_empty(), "tiny world should contain OOV mentions");
        // Cluster labels exist for them (shadow entity ids).
        for &i in &oov {
            assert!(d.gold.np_cluster_labels[i] as usize >= d.world.num_ckb_entities());
        }
    }

    #[test]
    fn gold_clusterings_are_consistent_with_links() {
        let d = tiny();
        let c = d.gold.np_clustering();
        for i in 0..d.gold.np_entity.len() {
            for j in (i + 1)..d.gold.np_entity.len() {
                if let (Some(a), Some(b)) = (d.gold.np_entity[i], d.gold.np_entity[j]) {
                    assert_eq!(a == b, c.same(i, j), "link/cluster mismatch at {i},{j}");
                }
            }
        }
    }

    #[test]
    fn ppdb_helps_but_is_imperfect() {
        let d = tiny();
        // PPDB should contain some groups and cover some aliases.
        assert!(d.ppdb.num_groups() > 0);
        assert!(d.ppdb.num_phrases() > 0);
    }

    #[test]
    fn entity_split_partitions_triples() {
        let d = tiny();
        let (val, test) = d.entity_split(0.2, 9);
        assert_eq!(val.len() + test.len(), d.okb.len());
        assert!(!val.is_empty(), "20% split of tiny world should be nonempty");
        let vs: std::collections::HashSet<u32> = val.iter().map(|t| t.0).collect();
        assert!(test.iter().all(|t| !vs.contains(&t.0)));
    }

    #[test]
    fn popularity_is_usable_for_gold_entities() {
        let d = tiny();
        // For most linked mentions, the gold entity should have nonzero
        // anchor popularity under at least its canonical alias.
        let mut ok = 0;
        let mut total = 0;
        for m in d.okb.np_mentions() {
            if let Some(gold) = d.gold.np_entity[m.dense()] {
                total += 1;
                let canon = &d.ckb.entity(gold).aliases[0];
                if d.ckb.popularity(canon, gold) > 0.0 {
                    ok += 1;
                }
            }
        }
        assert!(ok as f64 > total as f64 * 0.95, "{ok}/{total}");
    }

    #[test]
    fn presets_scale() {
        let d = reverb45k_like(1, 0.01);
        assert_eq!(d.name, "ReVerb45K-like");
        assert_eq!(d.okb.len(), 450);
        let d = nytimes2018_like(1, 0.01);
        assert_eq!(d.okb.len(), 340);
        // NYTimes regime: more OOV.
        let oov = d.gold.np_entity.iter().filter(|e| e.is_none()).count();
        assert!(oov as f64 / d.gold.np_entity.len() as f64 > 0.1);
    }

    #[test]
    fn alias_side_kb_recovers_exactly_the_gap() {
        let d = reverb45k_like(5, 0.01);
        let side = d.alias_side_kb(0.9);
        assert!(!side.is_empty(), "gap 0.35 must drop some aliases at this scale");
        for (kind, surface, target, weight) in side.canonical_rows() {
            assert_eq!(weight, 0.9);
            if kind == 'e' {
                let id = d.ckb.entity_by_name(target).expect("targets are canonical CKB names");
                // Recovered rows are exactly the dropped aliases: known to
                // the world, absent from the CKB inventory.
                assert!(
                    d.ckb.entity(id).aliases.iter().all(|a| a.to_lowercase() != surface),
                    "{surface:?} was not dropped from {target:?}"
                );
                assert!(
                    d.world.entities[id.idx()].aliases.iter().any(|a| a.to_lowercase() == surface),
                    "{surface:?} is not a world alias of {target:?}"
                );
            } else {
                let id = d.ckb.relation_by_name(target).expect("canonical relation names");
                assert!(d
                    .ckb
                    .relation(id)
                    .surface_forms
                    .iter()
                    .all(|s| s.to_lowercase() != surface));
            }
        }
        // Deterministic: the dictionary is a pure function of the dataset.
        assert_eq!(side.fingerprint(), d.alias_side_kb(0.9).fingerprint());
        assert_ne!(side.fingerprint(), d.alias_side_kb(0.5).fingerprint());
    }

    #[test]
    fn determinism_across_generations() {
        let a = Dataset::generate("d", &WorldOptions::tiny(77));
        let b = Dataset::generate("d", &WorldOptions::tiny(77));
        assert_eq!(a.okb.len(), b.okb.len());
        for (ta, tb) in a.okb.triples().zip(b.okb.triples()) {
            assert_eq!(ta.1, tb.1);
        }
        assert_eq!(a.gold.np_cluster_labels, b.gold.np_cluster_labels);
    }

    #[test]
    fn subject_mention_dense_indexing_matches() {
        let d = tiny();
        for (tid, _) in d.okb.triples() {
            let m = NpMention { triple: tid, slot: jocl_kb::NpSlot::Subject };
            assert_eq!(m.dense(), tid.idx() * 2);
        }
    }
}
