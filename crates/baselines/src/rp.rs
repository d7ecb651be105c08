//! RP canonicalization baselines (paper §4.2.2, Table 2).

use jocl_cluster::{Clustering, UnionFind};
use jocl_kb::Okb;
use jocl_rules::{AmieOptions, ParaphraseStore};
use jocl_text::fx::FxHashMap;
use jocl_text::normalize::{morph_normalize, morph_normalize_rp};

/// **AMIE** (Galárraga et al. 2013): RPs connected by mutual implication
/// rules merge; everything else stays singleton (modulo shared normal
/// form). This mirrors the paper's observation that "AMIE only covers
/// very few RPs" because most fall under the support threshold.
pub fn amie_baseline(okb: &Okb, opts: AmieOptions) -> Clustering {
    let rules = jocl_rules::amie::mine(okb, opts);
    cluster_rp_by(okb, |a, b| rules.sim(a, b) == 1.0)
}

/// **PATTY** (Nakashole et al. 2012): merge RPs that (a) belong to the
/// same synset or (b) connect the same normalized NP pair in multiple
/// triples.
pub fn patty(okb: &Okb, synsets: &ParaphraseStore) -> Clustering {
    // (a) synset equivalence over normal forms and raw forms.
    let mut clustering = cluster_rp_by(okb, |a, b| {
        synsets.sim(a, b) == 1.0 || synsets.sim(&base_form(a), &base_form(b)) == 1.0
    });
    // (b) same NP-pair support: triples with identical (subject, object)
    // normal forms merge their RPs.
    let mut by_pair: FxHashMap<(String, String), Vec<usize>> = FxHashMap::default();
    for (t, tr) in okb.triples() {
        by_pair
            .entry((morph_normalize(&tr.subject), morph_normalize(&tr.object)))
            .or_default()
            .push(t.idx());
    }
    let mut uf = UnionFind::new(okb.num_rp_mentions());
    for i in 0..okb.num_rp_mentions() {
        for j in (i + 1)..okb.num_rp_mentions() {
            if clustering.same(i, j) {
                uf.union(i, j);
            }
        }
    }
    for triples in by_pair.values() {
        for w in triples.windows(2) {
            uf.union(w[0], w[1]);
        }
    }
    clustering = uf.into_clustering();
    clustering
}

/// **SIST** for RPs (Lin & Chen 2019): morphological normalization plus
/// synset/paraphrase side information from the source text.
pub fn sist_rp(okb: &Okb, synsets: &ParaphraseStore, ppdb: &ParaphraseStore) -> Clustering {
    cluster_rp_by(okb, |a, b| {
        let (na, nb) = (morph_normalize_rp(a), morph_normalize_rp(b));
        na == nb
            || synsets.sim(&base_form(a), &base_form(b)) == 1.0
            || ppdb.sim(&base_form(a), &base_form(b)) == 1.0
    })
}

/// The "base form" used to look up relation surface forms in resources:
/// normalized, then re-expanded to the resource convention `be a X of` is
/// approximated by the normal form itself.
fn base_form(rp: &str) -> String {
    morph_normalize_rp(rp)
}

/// Cluster RP mentions: mentions with the same normal form always merge;
/// additionally `same(a, b)` merges distinct normal forms. Works on
/// distinct phrases to stay subquadratic in mentions.
fn cluster_rp_by(okb: &Okb, mut same: impl FnMut(&str, &str) -> bool) -> Clustering {
    // Distinct raw phrases.
    let mut distinct: Vec<String> = Vec::new();
    let mut phrase_of_mention: Vec<usize> = Vec::with_capacity(okb.num_rp_mentions());
    {
        let mut index: FxHashMap<String, usize> = FxHashMap::default();
        for m in okb.rp_mentions() {
            let p = okb.rp_phrase(m).to_lowercase();
            let next = distinct.len();
            let id = *index.entry(p.clone()).or_insert_with(|| {
                distinct.push(p.clone());
                next
            });
            phrase_of_mention.push(id);
        }
    }
    // Union distinct phrases by predicate.
    let mut uf = UnionFind::new(distinct.len());
    for i in 0..distinct.len() {
        for j in (i + 1)..distinct.len() {
            if uf.connected(i, j) {
                continue;
            }
            if same(&distinct[i], &distinct[j]) {
                uf.union(i, j);
            }
        }
    }
    let labels: Vec<u32> = phrase_of_mention.iter().map(|&p| uf.find(p) as u32).collect();
    Clustering::from_labels(&labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jocl_kb::Triple;
    use jocl_rules::AmieOptions;

    fn okb() -> Okb {
        let mut okb = Okb::new();
        // Two RPs sharing several NP pairs (AMIE-minable) plus morphology
        // variants.
        for (s, o) in [("rome", "italy"), ("paris", "france"), ("berlin", "germany")] {
            okb.add_triple(Triple::new(s, "is the capital of", o));
            okb.add_triple(Triple::new(s, "is the capital city of", o));
        }
        okb.add_triple(Triple::new("london", "is bigger than", "oxford"));
        okb.add_triple(Triple::new("madrid", "was the capital of", "spain"));
        okb
    }

    #[test]
    fn amie_merges_mutual_implications() {
        let c = amie_baseline(&okb(), AmieOptions::default());
        // Triples 0 and 1 use the two paraphrases.
        assert!(c.same(0, 1));
        // "is bigger than" stays alone.
        assert!(!c.same(0, 6));
    }

    #[test]
    fn amie_morphology_variants_merge_via_normal_form() {
        let c = amie_baseline(&okb(), AmieOptions::default());
        // "was the capital of" normalizes to the same form as
        // "is the capital of".
        assert!(c.same(0, 7));
    }

    #[test]
    fn patty_uses_np_pair_support() {
        let okb = okb();
        let empty = ParaphraseStore::new();
        let c = patty(&okb, &empty);
        // Triples 0 and 1 share the NP pair (rome, italy) → merged even
        // without synsets.
        assert!(c.same(0, 1));
        // The singleton RP remains alone.
        assert!(!c.same(0, 6));
    }

    #[test]
    fn patty_uses_synsets() {
        let mut okb = Okb::new();
        okb.add_triple(Triple::new("a", "be the head of", "b"));
        okb.add_triple(Triple::new("c", "be the leader of", "d"));
        let synsets = ParaphraseStore::from_groups([vec![
            morph_normalize_rp("be the head of"),
            morph_normalize_rp("be the leader of"),
        ]]);
        let c = patty(&okb, &synsets);
        assert!(c.same(0, 1));
    }

    #[test]
    fn sist_rp_combines_normalization_and_resources() {
        let okb = okb();
        let empty = ParaphraseStore::new();
        let c = sist_rp(&okb, &empty, &empty);
        // Normal-form merge works without any resource.
        assert!(c.same(0, 7));
        // Distinct forms without resources stay apart.
        assert!(!c.same(0, 1));
        // With PPDB knowledge they merge.
        let ppdb = ParaphraseStore::from_groups([vec![
            morph_normalize_rp("is the capital of"),
            morph_normalize_rp("is the capital city of"),
        ]]);
        let c = sist_rp(&okb, &empty, &ppdb);
        assert!(c.same(0, 1));
    }

    #[test]
    fn identical_predicates_always_merge() {
        let mut okb = Okb::new();
        okb.add_triple(Triple::new("a", "works at", "b"));
        okb.add_triple(Triple::new("c", "works at", "d"));
        let c = amie_baseline(&okb, AmieOptions::default());
        assert!(c.same(0, 1));
    }
}
