//! NP canonicalization baselines (paper §4.2.1, Table 1).
//!
//! The classical baselines (Galárraga et al., CESI, SIST) cluster
//! **distinct noun phrases** and then project the result onto mentions;
//! identical surface forms are a single node. Candidate phrase pairs come
//! from a shared-token index (the same blocking idea the paper applies to
//! JOCL), and clustering is HAC with average linkage.
//!
//! All functions return a [`Clustering`] over the dense NP mention index
//! (2 mentions per triple).

use jocl_cluster::{hac_threshold, Clustering, Linkage, UnionFind};
use jocl_core::signals::Signals;
use jocl_embed::{retrofit, EmbeddingStore, RetrofitOptions};
use jocl_kb::{Ckb, NpMention, NpSlot, Okb};
use jocl_text::fx::{FxHashMap, FxHashSet};
use jocl_text::morph_normalize;
use jocl_text::sim::{jaccard_slices, jaro_winkler};
use jocl_text::tokenize;

/// Distinct lowercase NP phrases plus the phrase id of every mention.
pub struct PhraseIndex {
    /// Distinct phrases, sorted.
    pub phrases: Vec<String>,
    /// Phrase id per dense mention index.
    pub of_mention: Vec<usize>,
}

/// Build the phrase index of an OKB.
pub fn phrase_index(okb: &Okb) -> PhraseIndex {
    let mut ids: FxHashMap<String, usize> = FxHashMap::default();
    let mut phrases: Vec<String> = Vec::new();
    let of_mention: Vec<usize> = okb
        .np_mentions()
        .map(|m| {
            let p = okb.np_phrase(m).to_lowercase();
            *ids.entry(p.clone()).or_insert_with(|| {
                phrases.push(p);
                phrases.len() - 1
            })
        })
        .collect();
    PhraseIndex { phrases, of_mention }
}

/// Candidate phrase pairs sharing at least one non-hub token.
pub fn phrase_pair_candidates(phrases: &[String]) -> Vec<(usize, usize)> {
    const MAX_TOKEN_DF: usize = 150;
    let mut token_index: FxHashMap<String, Vec<u32>> = FxHashMap::default();
    for (pi, p) in phrases.iter().enumerate() {
        let mut toks = tokenize(p);
        toks.sort_unstable();
        toks.dedup();
        for t in toks {
            token_index.entry(t).or_default().push(pi as u32);
        }
    }
    let mut pairs: FxHashSet<(u32, u32)> = FxHashSet::default();
    for list in token_index.values() {
        if list.len() > MAX_TOKEN_DF {
            continue;
        }
        for (i, &a) in list.iter().enumerate() {
            for &b in &list[i + 1..] {
                pairs.insert((a.min(b), a.max(b)));
            }
        }
    }
    let mut out: Vec<(usize, usize)> =
        pairs.into_iter().map(|(a, b)| (a as usize, b as usize)).collect();
    out.sort_unstable();
    out
}

/// HAC over phrase nodes, projected back to mentions.
fn hac_phrases(index: &PhraseIndex, edges: &[(usize, usize, f64)], threshold: f64) -> Clustering {
    let phrase_clusters = hac_threshold(index.phrases.len(), edges, Linkage::Average, threshold);
    let labels: Vec<u32> =
        index.of_mention.iter().map(|&p| phrase_clusters.cluster_of(p)).collect();
    Clustering::from_labels(&labels)
}

fn weighted_edges(
    index: &PhraseIndex,
    mut sim: impl FnMut(&str, &str) -> f64,
) -> Vec<(usize, usize, f64)> {
    phrase_pair_candidates(&index.phrases)
        .into_iter()
        .map(|(a, b)| {
            let s = sim(&index.phrases[a], &index.phrases[b]);
            (a, b, s)
        })
        .collect()
}

/// **Morph Norm** (Fader et al. 2011): group mentions sharing one
/// morphological normal form.
pub fn morph_norm(okb: &Okb) -> Clustering {
    let mut groups: FxHashMap<String, u32> = FxHashMap::default();
    let mut labels = Vec::with_capacity(okb.num_np_mentions());
    for m in okb.np_mentions() {
        let norm = morph_normalize(okb.np_phrase(m));
        let next = groups.len() as u32;
        labels.push(*groups.entry(norm).or_insert(next));
    }
    Clustering::from_labels(&labels)
}

/// **Text Similarity** (Galárraga et al. 2014): Jaro-Winkler + HAC.
pub fn text_similarity(okb: &Okb, _signals: &Signals, threshold: f64) -> Clustering {
    let index = phrase_index(okb);
    let edges = weighted_edges(&index, jaro_winkler);
    hac_phrases(&index, &edges, threshold)
}

/// **IDF Token Overlap** (Galárraga et al. 2014): `Sim_idf` + HAC.
pub fn idf_token_overlap(okb: &Okb, signals: &Signals, threshold: f64) -> Clustering {
    let index = phrase_index(okb);
    let edges = weighted_edges(&index, |a, b| signals.sim_idf_np(a, b));
    hac_phrases(&index, &edges, threshold)
}

/// **Attribute Overlap** (Galárraga et al. 2014): Jaccard over the
/// phrases' `(RP, other-NP)` attribute sets + HAC.
pub fn attribute_overlap(okb: &Okb, _signals: &Signals, threshold: f64) -> Clustering {
    let index = phrase_index(okb);
    let mut attrs: FxHashMap<&str, Vec<String>> = FxHashMap::default();
    for m in okb.np_mentions() {
        let p = &index.phrases[index.of_mention[m.dense()]];
        attrs.entry(p.as_str()).or_default().push(okb.np_attribute(m).to_lowercase());
    }
    let edges = weighted_edges(&index, |a, b| jaccard_slices(&attrs[a], &attrs[b]));
    hac_phrases(&index, &edges, threshold)
}

/// **Wikidata Integrator**: link every mention independently (an
/// entity-linking tool), then group mentions linked to the same entity.
pub fn wikidata_integrator(okb: &Okb, ckb: &Ckb) -> (Clustering, Vec<Option<jocl_kb::EntityId>>) {
    // The real tool resolves by exact label/alias lookup; mentions whose
    // surface form is not an exact alias (typos, determiners) stay
    // unlinked — that is its characteristic weakness.
    let mut cache: FxHashMap<String, Option<jocl_kb::EntityId>> = FxHashMap::default();
    let links: Vec<Option<jocl_kb::EntityId>> = okb
        .np_mentions()
        .map(|m| {
            let phrase = okb.np_phrase(m);
            *cache.entry(phrase.to_lowercase()).or_insert_with(|| {
                ckb.entities_by_alias(phrase).iter().copied().max_by(|a, b| {
                    ckb.popularity(phrase, *a)
                        .partial_cmp(&ckb.popularity(phrase, *b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| b.cmp(a))
                })
            })
        })
        .collect();
    let mut uf = UnionFind::new(okb.num_np_mentions());
    let mut first: FxHashMap<u32, usize> = FxHashMap::default();
    // Unlinked mentions still group by identical phrase.
    let mut first_phrase: FxHashMap<String, usize> = FxHashMap::default();
    for (m, link) in links.iter().enumerate() {
        match link {
            Some(e) => match first.entry(e.0) {
                std::collections::hash_map::Entry::Occupied(o) => {
                    uf.union(*o.get(), m);
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(m);
                }
            },
            None => {
                let p = okb.np_phrase(NpMention::from_dense(m)).to_lowercase();
                match first_phrase.entry(p) {
                    std::collections::hash_map::Entry::Occupied(o) => {
                        uf.union(*o.get(), m);
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(m);
                    }
                }
            }
        }
    }
    (uf.into_clustering(), links)
}

/// **CESI** (Vashishth et al. 2018): phrase embeddings refined with side
/// information (PPDB equivalences and shared entity-candidate hints,
/// injected by retrofitting), HAC over cosine.
pub fn cesi(okb: &Okb, ckb: &Ckb, signals: &Signals, threshold: f64) -> Clustering {
    let index = phrase_index(okb);
    let dim = signals.embeddings.dim();
    let mut store = EmbeddingStore::new(dim);
    for p in &index.phrases {
        match signals.embeddings.phrase(p) {
            Some(v) => store.insert(p, &v),
            None => {
                let hashed = EmbeddingStore::hashed(dim, &[p.as_str()], 17);
                store.insert(p, hashed.get(p).expect("hashed store contains p"));
            }
        }
    }
    // Side-information edges. Entity hints come from exact alias lookup
    // (CESI's original side information used crude surface matching, not
    // a full entity linker).
    let mut best_entity: FxHashMap<usize, u32> = FxHashMap::default();
    for (pi, p) in index.phrases.iter().enumerate() {
        let best = ckb.entities_by_alias(p).iter().copied().max_by(|a, b| {
            ckb.popularity(p, *a)
                .partial_cmp(&ckb.popularity(p, *b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.cmp(a))
        });
        if let Some(e) = best {
            best_entity.insert(pi, e.0);
        }
    }
    let mut by_entity: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
    for (&pi, &e) in &best_entity {
        by_entity.entry(e).or_default().push(pi);
    }
    let mut side_edges: Vec<(String, String)> = Vec::new();
    let mut extra_pairs: Vec<(usize, usize)> = Vec::new();
    for group in by_entity.values_mut() {
        group.sort_unstable();
        for w in group.windows(2) {
            side_edges.push((index.phrases[w[0]].clone(), index.phrases[w[1]].clone()));
            extra_pairs.push((w[0], w[1]));
        }
    }
    // PPDB edges among token-sharing candidates plus entity-hint pairs.
    let mut candidates = phrase_pair_candidates(&index.phrases);
    candidates.extend(extra_pairs.iter().copied());
    for &(a, b) in &candidates {
        if signals.sim_ppdb(&index.phrases[a], &index.phrases[b]) == 1.0 {
            side_edges.push((index.phrases[a].clone(), index.phrases[b].clone()));
        }
    }
    retrofit(&mut store, &side_edges, &RetrofitOptions::default());
    candidates.sort_unstable();
    candidates.dedup();
    let edges: Vec<(usize, usize, f64)> = candidates
        .into_iter()
        .map(|(a, b)| {
            let s = match (store.get(&index.phrases[a]), store.get(&index.phrases[b])) {
                (Some(x), Some(y)) => jocl_embed::vector::cosine01(x, y),
                _ => 0.0,
            };
            (a, b, s)
        })
        .collect();
    hac_phrases(&index, &edges, threshold)
}

/// **SIST** (Lin & Chen 2019): string similarity combined with
/// source-text side information — candidate entities seen in context,
/// their type compatibility, and the document domain — then HAC.
pub fn sist(okb: &Okb, ckb: &Ckb, signals: &Signals, threshold: f64) -> Clustering {
    let index = phrase_index(okb);
    // Aggregate side info per phrase over its mentions.
    let mut side_cands: Vec<FxHashSet<u32>> = vec![FxHashSet::default(); index.phrases.len()];
    let mut side_domains: Vec<FxHashSet<String>> = vec![FxHashSet::default(); index.phrases.len()];
    for m in okb.np_mentions() {
        let pi = index.of_mention[m.dense()];
        if let Some(si) = okb.side_info(m.triple) {
            let cands = match m.slot {
                NpSlot::Subject => &si.subject_candidates,
                NpSlot::Object => &si.object_candidates,
            };
            side_cands[pi].extend(cands.iter().map(|e| e.0));
            if !si.domain.is_empty() {
                side_domains[pi].insert(si.domain.clone());
            }
        }
    }
    let types_of = |ids: &FxHashSet<u32>| -> Vec<String> {
        ids.iter().flat_map(|&e| ckb.entity(jocl_kb::EntityId(e)).types.clone()).collect()
    };
    let edges: Vec<(usize, usize, f64)> = phrase_pair_candidates(&index.phrases)
        .into_iter()
        .map(|(a, b)| {
            let (pa, pb) = (&index.phrases[a], &index.phrases[b]);
            let string_sim = 0.5 * signals.sim_idf_np(pa, pb) + 0.5 * jaro_winkler(pa, pb);
            let (ca, cb) = (&side_cands[a], &side_cands[b]);
            // Candidate containment: how much of the smaller context
            // candidate set recurs in the other. This is SIST's strongest
            // signal — two phrases whose source sentences mention the
            // same entities are likely co-referent.
            let cand_overlap = if ca.is_empty() || cb.is_empty() {
                0.0
            } else {
                let inter = ca.intersection(cb).count();
                inter as f64 / ca.len().min(cb.len()) as f64
            };
            let type_overlap = if ca.is_empty() || cb.is_empty() {
                0.0
            } else {
                jaccard_slices(&types_of(ca), &types_of(cb))
            };
            let domain = f64::from(
                !side_domains[a].is_empty()
                    && side_domains[a].intersection(&side_domains[b]).count() > 0,
            );
            let s = 0.4 * string_sim + 0.45 * cand_overlap + 0.05 * type_overlap + 0.1 * domain;
            (a, b, s)
        })
        .collect();
    hac_phrases(&index, &edges, threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jocl_core::example::figure1;
    use jocl_core::signals::build_signals;
    use jocl_embed::SgnsOptions;
    use jocl_kb::TripleId;

    fn fig() -> (jocl_core::example::Figure1, Signals) {
        let ex = figure1();
        let signals = build_signals(
            &ex.okb,
            &ex.ckb,
            &ex.ppdb,
            &ex.corpus,
            &SgnsOptions { dim: 16, epochs: 10, ..Default::default() },
        );
        (ex, signals)
    }

    fn np(t: u32, slot: NpSlot) -> usize {
        NpMention { triple: TripleId(t), slot }.dense()
    }

    /// Group NP mentions of identical phrases.
    fn identical_phrase_clustering(okb: &Okb) -> Clustering {
        let index = phrase_index(okb);
        let labels: Vec<u32> = index.of_mention.iter().map(|&p| p as u32).collect();
        Clustering::from_labels(&labels)
    }

    #[test]
    fn phrase_index_dedups() {
        let (ex, _) = fig();
        let idx = phrase_index(&ex.okb);
        assert_eq!(idx.phrases.len(), 6);
        assert_eq!(idx.of_mention.len(), 6);
    }

    #[test]
    fn identical_phrases_share_cluster() {
        let mut okb = Okb::new();
        okb.add_triple(jocl_kb::Triple::new("Same NP", "r", "x"));
        okb.add_triple(jocl_kb::Triple::new("same np", "r", "y"));
        let c = identical_phrase_clustering(&okb);
        assert!(c.same(0, 2)); // the two subjects
    }

    #[test]
    fn morph_norm_groups_identical_forms_only() {
        let (ex, _) = fig();
        let c = morph_norm(&ex.okb);
        assert!(!c.same(np(0, NpSlot::Subject), np(1, NpSlot::Subject)));
        assert!(!c.same(np(1, NpSlot::Object), np(2, NpSlot::Object)));
    }

    #[test]
    fn text_similarity_does_not_merge_distinct_universities() {
        let (ex, signals) = fig();
        let c = text_similarity(&ex.okb, &signals, 0.93);
        assert!(!c.same(np(0, NpSlot::Subject), np(2, NpSlot::Subject)));
    }

    #[test]
    fn idf_token_overlap_separates_universities() {
        let (ex, signals) = fig();
        let c = idf_token_overlap(&ex.okb, &signals, 0.6);
        assert!(!c.same(np(0, NpSlot::Subject), np(2, NpSlot::Subject)));
    }

    #[test]
    fn wikidata_integrator_groups_by_link() {
        let (ex, _) = fig();
        let (c, links) = wikidata_integrator(&ex.okb, &ex.ckb);
        assert_eq!(links[np(0, NpSlot::Subject)], Some(ex.e_umd));
        assert_eq!(links[np(1, NpSlot::Subject)], Some(ex.e_umd));
        assert!(c.same(np(0, NpSlot::Subject), np(1, NpSlot::Subject)));
    }

    #[test]
    fn cesi_uses_ppdb_side_information() {
        let (ex, signals) = fig();
        let c = cesi(&ex.okb, &ex.ckb, &signals, 0.9);
        assert!(
            c.same(np(0, NpSlot::Subject), np(1, NpSlot::Subject)),
            "CESI should merge the PPDB-equivalent phrases"
        );
    }

    #[test]
    fn attribute_overlap_runs() {
        let (ex, signals) = fig();
        let c = attribute_overlap(&ex.okb, &signals, 0.5);
        assert_eq!(c.len(), ex.okb.num_np_mentions());
    }

    #[test]
    fn sist_without_side_info_degrades_to_strings() {
        let (ex, signals) = fig();
        let c = sist(&ex.okb, &ex.ckb, &signals, 0.45);
        assert_eq!(c.len(), 6);
        assert!(!c.same(np(0, NpSlot::Subject), np(2, NpSlot::Subject)));
    }
}
