//! Canonicalization-pair blocking.
//!
//! Paper §4.1: "As it is unnecessary and impractical to generate
//! canonicalization variables for all pairs of NPs and RPs in the factor
//! graph, we generate canonicalization variables only for NP (RP) pairs
//! with a relatively high similarity based on IDF token overlap …, whose
//! threshold is set to 0.5."
//!
//! Pairs are generated per variable family — subject×subject (`x_ij`),
//! predicate×predicate (`y_ij`), object×object (`z_ij`) — never across
//! families, matching the variable definitions of §3.1.1.
//!
//! To keep the graph near-linear in the OKB size, two caps apply:
//! mentions sharing an *identical* phrase form a clique only up to
//! `max_group_clique` (later members chain onto their predecessor —
//! union-find closure recovers the full cluster at decode time), and
//! cross-phrase pairs take at most `cross_cap` mentions from each side.
//!
//! Blocking is defined **streamingly**: [`BlockingIndex`] consumes one
//! triple at a time and emits exactly the new pairs that triple creates,
//! and [`block_pairs`] is nothing but a replay of the whole OKB through
//! that index. The pair set is therefore a *monotone* function of the
//! triple sequence — appending triples only ever adds pairs — which is
//! what lets the incremental pipeline (`crate::incremental`) extend a
//! live factor graph without ever retracting a variable. The caps are
//! applied against the state at arrival time:
//!
//! * an identical-phrase group forms a clique while it has at most
//!   `max_group_clique` members; each member beyond the cap chains onto
//!   the previous one;
//! * a mention participates in cross-phrase pairs only while its phrase
//!   has fewer than `cross_cap` owners, and pairs against the first
//!   `cross_cap` owners of the other phrase;
//! * a token stops proposing candidate phrase pairs once
//!   `MAX_TOKEN_DF` phrases carry it (pairs it proposed earlier
//!   persist).
//!
//! # Memory layout
//!
//! At paper scale the blocking index dominated resident memory when it
//! stored tokens as owned strings. The index is therefore ID-compressed:
//!
//! * all tokens live once in a shared [`jocl_text::Interner`] owned by
//!   [`BlockingIndex`]; per-phrase token lists are `Vec<Sym>` sorted by
//!   symbol id, and similarity is a linear merge over two sorted symbol
//!   runs;
//! * per-family IDF weights are cached per symbol (`Vec<f64>`, NaN =
//!   not yet computed) — sound because a session's [`Signals`] are
//!   frozen, so a token's weight never changes;
//! * emitted pairs are not kept: each append returns its pairs to the
//!   caller, whose pair-variable registries already hold them.

use crate::config::JoclConfig;
use crate::signals::Signals;
use jocl_kb::{Okb, Triple, TripleId};
use jocl_text::fx::FxHashMap;
use jocl_text::tokenize;
use jocl_text::{Interner, Sym};

/// Blocked mention pairs for the three canonicalization variable
/// families. Pairs are ordered (`t_i < t_j`) and deduplicated.
#[derive(Debug, Clone, Default)]
pub struct Blocking {
    /// Subject–subject pairs (variables `x_ij`).
    pub subj_pairs: Vec<(TripleId, TripleId)>,
    /// Predicate–predicate pairs (variables `y_ij`).
    pub pred_pairs: Vec<(TripleId, TripleId)>,
    /// Object–object pairs (variables `z_ij`).
    pub obj_pairs: Vec<(TripleId, TripleId)>,
}

impl Blocking {
    /// Total number of blocked pairs.
    pub fn len(&self) -> usize {
        self.subj_pairs.len() + self.pred_pairs.len() + self.obj_pairs.len()
    }

    /// True when no pairs were generated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `other`'s pairs to the matching family lists (no re-sort).
    pub fn extend(&mut self, other: Blocking) {
        self.subj_pairs.extend(other.subj_pairs);
        self.pred_pairs.extend(other.pred_pairs);
        self.obj_pairs.extend(other.obj_pairs);
    }
}

/// Generate blocked pairs for an OKB under `config`: a full replay of
/// the OKB through a fresh [`BlockingIndex`], each family sorted. Every
/// pair is emitted exactly once, by the append of its later triple.
pub fn block_pairs(okb: &Okb, signals: &Signals, config: &JoclConfig) -> Blocking {
    let sw = jocl_obs::Stopwatch::start();
    let _span = jocl_obs::span!("blocking");
    let mut index = BlockingIndex::new(config);
    let mut blocking = Blocking::default();
    for (t, triple) in okb.triples() {
        blocking.extend(index.append_triple(t, triple, signals));
    }
    for pairs in [&mut blocking.subj_pairs, &mut blocking.pred_pairs, &mut blocking.obj_pairs] {
        pairs.sort_unstable();
    }
    blocking_ns().record(sw.ns());
    blocking
}

/// Cached handle for the blocking-phase latency histogram (registered
/// once; never locks on the replay path).
fn blocking_ns() -> &'static std::sync::Arc<jocl_obs::Histogram> {
    static H: std::sync::OnceLock<std::sync::Arc<jocl_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| jocl_obs::registry().histogram("jocl_blocking_ns", &[]))
}

/// Cap on how many distinct phrases a token may touch before it is
/// considered a non-discriminative hub and skipped during candidate pair
/// retrieval (IDF would score such pairs near zero anyway).
const MAX_TOKEN_DF: usize = 100;

/// Append-only blocking state for the three variable families.
///
/// `append_triple` must be called with consecutive [`TripleId`]s in OKB
/// order; batch [`block_pairs`] and the incremental session both replay
/// through this type, so the emitted pairs are identical by construction
/// no matter how arrivals are batched.
#[derive(Debug, Clone)]
pub struct BlockingIndex {
    /// Token arena shared by all three families (subjects and objects
    /// draw from the same NP vocabulary, so sharing roughly halves the
    /// distinct-string count versus per-family arenas).
    interner: Interner,
    subj: FamilyIndex,
    pred: FamilyIndex,
    obj: FamilyIndex,
    blocking_threshold: f64,
    max_group_clique: usize,
    cross_cap: usize,
}

impl BlockingIndex {
    /// Empty index under `config`'s caps and threshold.
    pub fn new(config: &JoclConfig) -> Self {
        Self {
            interner: Interner::new(),
            subj: FamilyIndex::default(),
            pred: FamilyIndex::default(),
            obj: FamilyIndex::default(),
            blocking_threshold: config.blocking_threshold,
            max_group_clique: config.max_group_clique,
            cross_cap: config.cross_cap,
        }
    }

    /// Append one triple; returns the pairs it newly creates (each list
    /// ordered `t_i < t_j`, sorted and duplicate-free). Subjects
    /// and objects block on the lowercase phrase; predicates block on
    /// their morphological normal form (tense, auxiliaries, determiners
    /// and modifiers stripped): OIE relation phrases are conventionally
    /// pre-normalized this way (ReVerb emits normalized RPs; AMIE's
    /// input is "morphological normalized OIE triples", §3.1.4), and raw
    /// IDF overlap between function words would otherwise dominate the
    /// blocking decision.
    pub fn append_triple(&mut self, t: TripleId, triple: &Triple, signals: &Signals) -> Blocking {
        let caps = Caps {
            threshold: self.blocking_threshold,
            clique: self.max_group_clique,
            cross: self.cross_cap,
        };
        Blocking {
            subj_pairs: self.subj.append(
                t,
                triple.subject.to_lowercase(),
                &signals.idf_np,
                &mut self.interner,
                caps,
            ),
            pred_pairs: self.pred.append(
                t,
                jocl_text::normalize::morph_normalize_rp(&triple.predicate),
                &signals.idf_rp,
                &mut self.interner,
                caps,
            ),
            obj_pairs: self.obj.append(
                t,
                triple.object.to_lowercase(),
                &signals.idf_np,
                &mut self.interner,
                caps,
            ),
        }
    }

    /// Serialize the full blocking state into a snapshot section. The
    /// shared token interner **is** written: symbol-id assignment depends
    /// on how arrivals interleaved across the three families, so
    /// re-interning on import would reassign ids and break the
    /// restored-versus-uninterrupted parity contract. Per-phrase token
    /// lists, the token inverted indexes and the IDF weight caches are
    /// *not* written — they are pure functions of the phrase texts and
    /// the restored interner — but owners and threshold-passing links are
    /// arrival-time decisions and are part of the state.
    pub fn export_state(&self, w: &mut jocl_kb::snap::SnapWriter) {
        w.tag("BLK");
        w.usize(self.interner.len());
        for (_, s) in self.interner.iter() {
            w.str(s);
        }
        for fam in [&self.subj, &self.pred, &self.obj] {
            fam.export_state(w);
        }
    }

    /// Rebuild a blocking index from [`BlockingIndex::export_state`]
    /// bytes under `config`'s caps. `num_triples` bounds the owner ids
    /// for validation.
    pub fn import_state(
        r: &mut jocl_kb::snap::SnapReader<'_>,
        config: &JoclConfig,
        num_triples: usize,
    ) -> Result<Self, jocl_kb::KbError> {
        r.expect_tag("BLK")?;
        let n = r.seq_len(8)?;
        let mut interner = Interner::with_capacity(n);
        for i in 0..n {
            let s = r.str()?;
            if interner.intern(&s).idx() != i {
                return Err(r.corrupt(format!("duplicate interned token {s:?}")));
            }
        }
        let subj = FamilyIndex::import_state(r, &interner, num_triples)?;
        let pred = FamilyIndex::import_state(r, &interner, num_triples)?;
        let obj = FamilyIndex::import_state(r, &interner, num_triples)?;
        Ok(Self {
            interner,
            subj,
            pred,
            obj,
            blocking_threshold: config.blocking_threshold,
            max_group_clique: config.max_group_clique,
            cross_cap: config.cross_cap,
        })
    }

    /// Resident heap bytes: the shared token interner plus the three
    /// family indexes (phrase entries, text map, token inverted index and
    /// lazy IDF weight caches).
    pub fn heap_bytes(&self) -> usize {
        self.interner.heap_bytes()
            + self.subj.heap_bytes()
            + self.pred.heap_bytes()
            + self.obj.heap_bytes()
    }
}

#[derive(Clone, Copy)]
struct Caps {
    threshold: f64,
    clique: usize,
    cross: usize,
}

/// One distinct blocking phrase.
#[derive(Debug, Clone)]
struct PhraseEntry {
    /// Triples carrying the phrase, in arrival (= id) order.
    owners: Vec<TripleId>,
    /// Deduplicated tokens, sorted by symbol id (similarity is a merge
    /// over two such runs).
    tokens: Vec<Sym>,
    /// Phrase ids whose IDF similarity passed the threshold when one of
    /// the two phrases arrived. Ascending by construction: a phrase's
    /// initial links are sorted earlier ids, and every later link is
    /// pushed by a newly arriving phrase with a larger id.
    links: Vec<u32>,
}

/// Append-only blocking state of one variable family.
#[derive(Debug, Clone, Default)]
struct FamilyIndex {
    phrases: Vec<PhraseEntry>,
    by_text: FxHashMap<String, u32>,
    /// token symbol → phrase ids carrying it (arrival order).
    token_index: FxHashMap<Sym, Vec<u32>>,
    /// Lazy per-symbol IDF weight cache (NaN = not yet computed).
    /// Transient: sound because the session's signals are frozen, and
    /// rebuilt on demand after an import.
    weights: Vec<f64>,
}

impl FamilyIndex {
    /// Serialize this family: phrase texts (in id order) with owners and
    /// links.
    fn export_state(&self, w: &mut jocl_kb::snap::SnapWriter) {
        let mut texts: Vec<Option<&str>> = vec![None; self.phrases.len()];
        for (text, &pi) in &self.by_text {
            texts[pi as usize] = Some(text);
        }
        w.usize(self.phrases.len());
        let mut ids: Vec<u32> = Vec::new();
        for (pi, p) in self.phrases.iter().enumerate() {
            w.str(texts[pi].expect("every phrase id has a by_text entry"));
            ids.clear();
            ids.extend(p.owners.iter().map(|t| t.0));
            w.u32_slice_delta(&ids);
            w.u32_slice_delta(&p.links);
        }
    }

    /// Inverse of [`FamilyIndex::export_state`]; tokens, the token
    /// inverted index and the weight cache are recomputed from the
    /// phrase texts and the restored interner.
    fn import_state(
        r: &mut jocl_kb::snap::SnapReader<'_>,
        interner: &Interner,
        num_triples: usize,
    ) -> Result<Self, jocl_kb::KbError> {
        let n = r.seq_len(10)?;
        let mut fam = FamilyIndex::default();
        for pi in 0..n {
            let text = r.str()?;
            let owner_ids = r.u32_vec_delta()?;
            let links = r.u32_vec_delta()?;
            if let Some(&bad) = owner_ids.iter().find(|&&t| t as usize >= num_triples) {
                return Err(r.corrupt(format!("owner triple {bad} out of range")));
            }
            if owner_ids.windows(2).any(|w| w[0] == w[1]) {
                return Err(r.corrupt(format!("duplicate owner in phrase {pi}")));
            }
            if let Some(&bad) = links.iter().find(|&&l| l as usize >= n) {
                return Err(r.corrupt(format!("phrase link {bad} out of range")));
            }
            if links.windows(2).any(|w| w[0] == w[1]) {
                return Err(r.corrupt(format!("duplicate link in phrase {pi}")));
            }
            let mut tokens = Vec::new();
            for tok in tokenize(&text) {
                match interner.get(&tok) {
                    Some(sym) => tokens.push(sym),
                    None => return Err(r.corrupt(format!("phrase token {tok:?} not interned"))),
                }
            }
            tokens.sort_unstable();
            tokens.dedup();
            for &tok in &tokens {
                fam.token_index.entry(tok).or_default().push(pi as u32);
            }
            if fam.by_text.insert(text, pi as u32).is_some() {
                return Err(r.corrupt(format!("duplicate phrase text for id {pi}")));
            }
            let owners = owner_ids.into_iter().map(TripleId).collect();
            fam.phrases.push(PhraseEntry { owners, tokens, links });
        }
        Ok(fam)
    }

    /// Append one mention; returns the new pairs, sorted.
    fn append(
        &mut self,
        t: TripleId,
        key: String,
        idf: &jocl_text::IdfIndex,
        interner: &mut Interner,
        caps: Caps,
    ) -> Vec<(TripleId, TripleId)> {
        let ordered = |a: TripleId, b: TripleId| if a.0 < b.0 { (a, b) } else { (b, a) };
        let mut fresh: Vec<(TripleId, TripleId)> = Vec::new();
        match self.by_text.get(&key).copied() {
            Some(pi) => {
                let pi = pi as usize;
                let k = self.phrases[pi].owners.len();
                // Identical-phrase group: clique while small, chain after.
                if k < caps.clique {
                    for &b in &self.phrases[pi].owners {
                        fresh.push(ordered(t, b));
                    }
                } else if let Some(&last) = self.phrases[pi].owners.last() {
                    fresh.push(ordered(t, last));
                }
                // Cross-phrase pairs: only while this phrase is below the
                // cross cap, against the first `cross` owners of each
                // linked phrase.
                if k < caps.cross {
                    for li in self.phrases[pi].links.clone() {
                        for &b in self.phrases[li as usize].owners.iter().take(caps.cross) {
                            fresh.push(ordered(t, b));
                        }
                    }
                }
                self.phrases[pi].owners.push(t);
            }
            None => {
                let mut tokens: Vec<Sym> =
                    tokenize(&key).iter().map(|tok| interner.intern(tok)).collect();
                tokens.sort_unstable();
                tokens.dedup();
                // Candidate phrases through shared non-hub tokens. A
                // token is consulted only while its phrase list is below
                // MAX_TOKEN_DF at arrival time (monotone hub-out).
                let mut cands: Vec<u32> = Vec::new();
                for tok in &tokens {
                    if let Some(list) = self.token_index.get(tok) {
                        if list.len() < MAX_TOKEN_DF {
                            cands.extend_from_slice(list);
                        }
                    }
                }
                cands.sort_unstable();
                cands.dedup();
                let pi = self.phrases.len() as u32;
                let mut links: Vec<u32> = Vec::new();
                for pb in cands {
                    let sim = sim_cached(
                        &tokens,
                        &self.phrases[pb as usize].tokens,
                        &mut self.weights,
                        interner,
                        idf,
                    );
                    if sim < caps.threshold {
                        continue;
                    }
                    links.push(pb);
                    let other = &mut self.phrases[pb as usize];
                    other.links.push(pi);
                    for &b in other.owners.iter().take(caps.cross) {
                        fresh.push(ordered(t, b));
                    }
                }
                for &tok in &tokens {
                    self.token_index.entry(tok).or_default().push(pi);
                }
                self.by_text.insert(key, pi);
                self.phrases.push(PhraseEntry { owners: vec![t], tokens, links });
            }
        }
        fresh.sort_unstable();
        fresh.dedup();
        fresh
    }

    /// Resident heap bytes of this family.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let phrase_heap: usize = self
            .phrases
            .iter()
            .map(|p| {
                p.owners.capacity() * size_of::<TripleId>()
                    + p.tokens.capacity() * size_of::<Sym>()
                    + p.links.capacity() * size_of::<u32>()
            })
            .sum();
        self.phrases.capacity() * size_of::<PhraseEntry>()
            + phrase_heap
            + self.by_text.capacity() * (size_of::<String>() + size_of::<u32>() + 1)
            + self.by_text.keys().map(|k| k.capacity()).sum::<usize>()
            + self.token_index.capacity() * (size_of::<Sym>() + size_of::<Vec<u32>>() + 1)
            + self.token_index.values().map(|v| v.capacity() * size_of::<u32>()).sum::<usize>()
            + self.weights.capacity() * size_of::<f64>()
    }
}

/// `Sim_idf` over two symbol runs sorted by id: a linear merge, reading
/// per-token weights through the family's lazy cache. Matches
/// [`jocl_text::IdfIndex::sim_tokens`] up to floating-point summation
/// order (the merge sums in symbol order, not lexicographic order).
fn sim_cached(
    wa: &[Sym],
    wb: &[Sym],
    weights: &mut Vec<f64>,
    interner: &Interner,
    idf: &jocl_text::IdfIndex,
) -> f64 {
    if wa.is_empty() || wb.is_empty() {
        return 0.0;
    }
    let mut w = |s: Sym| {
        if s.idx() >= weights.len() {
            weights.resize(s.idx() + 1, f64::NAN);
        }
        if weights[s.idx()].is_nan() {
            weights[s.idx()] = idf.weight(interner.resolve(s));
        }
        weights[s.idx()]
    };
    let (mut inter, mut union) = (0.0, 0.0);
    let (mut i, mut j) = (0, 0);
    while i < wa.len() && j < wb.len() {
        match wa[i].cmp(&wb[j]) {
            std::cmp::Ordering::Less => {
                union += w(wa[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                union += w(wb[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let x = w(wa[i]);
                inter += x;
                union += x;
                i += 1;
                j += 1;
            }
        }
    }
    for &s in &wa[i..] {
        union += w(s);
    }
    for &s in &wb[j..] {
        union += w(s);
    }
    if union <= 0.0 {
        0.0
    } else {
        inter / union
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::build_signals;
    use jocl_embed::SgnsOptions;
    use jocl_kb::{Ckb, Triple};
    use jocl_rules::ParaphraseStore;

    fn okb() -> Okb {
        let mut okb = Okb::new();
        okb.add_triple(Triple::new("University of Maryland", "locate in", "Maryland"));
        okb.add_triple(Triple::new("University of Maryland", "be a member of", "Universitas 21"));
        okb.add_triple(Triple::new("University of Virginia", "be an early member of", "U21"));
        okb.add_triple(Triple::new("Warren Buffett", "live in", "Omaha"));
        okb
    }

    fn signals(okb: &Okb) -> Signals {
        build_signals(
            okb,
            &Ckb::new(),
            &ParaphraseStore::new(),
            &[],
            &SgnsOptions { dim: 4, epochs: 1, ..Default::default() },
        )
    }

    #[test]
    fn identical_subjects_pair_up() {
        let okb = okb();
        let s = signals(&okb);
        let b = block_pairs(&okb, &s, &JoclConfig::default());
        assert!(
            b.subj_pairs.contains(&(TripleId(0), TripleId(1))),
            "identical subjects must pair: {:?}",
            b.subj_pairs
        );
    }

    #[test]
    fn similar_subjects_pair_dissimilar_do_not() {
        let okb = okb();
        let s = signals(&okb);
        let b = block_pairs(&okb, &s, &JoclConfig::default());
        // "University of Maryland" vs "University of Virginia" share
        // "university of" — above threshold with IDF weighting? They share
        // 2 of 4 tokens; either way "Warren Buffett" must not pair with
        // universities.
        assert!(!b.subj_pairs.iter().any(|&(a, b2)| { (a == TripleId(3)) ^ (b2 == TripleId(3)) }));
    }

    #[test]
    fn predicates_block_within_family_only() {
        let okb = okb();
        let s = signals(&okb);
        let b = block_pairs(&okb, &s, &JoclConfig::default());
        // "be a member of" vs "be an early member of" share most tokens.
        assert!(b.pred_pairs.contains(&(TripleId(1), TripleId(2))), "{:?}", b.pred_pairs);
    }

    #[test]
    fn pairs_are_ordered_and_unique() {
        let okb = okb();
        let s = signals(&okb);
        let b = block_pairs(&okb, &s, &JoclConfig::default());
        for list in [&b.subj_pairs, &b.pred_pairs, &b.obj_pairs] {
            let mut seen = std::collections::HashSet::new();
            for &(a, b2) in list.iter() {
                assert!(a.0 < b2.0, "pairs must be ordered");
                assert!(seen.insert((a, b2)), "duplicate pair");
            }
        }
    }

    #[test]
    fn threshold_one_keeps_only_identical() {
        let okb = okb();
        let s = signals(&okb);
        let config = JoclConfig { blocking_threshold: 1.0 + 1e-9, ..Default::default() };
        let b = block_pairs(&okb, &s, &config);
        // Only the duplicated "University of Maryland" subject pair
        // (identical phrases bypass the similarity check).
        assert_eq!(b.subj_pairs, vec![(TripleId(0), TripleId(1))]);
    }

    #[test]
    fn chain_cap_limits_identical_groups() {
        let mut okb = Okb::new();
        for i in 0..20 {
            okb.add_triple(Triple::new("Same Phrase", "rel", &format!("obj{i}")));
        }
        let s = signals(&okb);
        let config = JoclConfig { max_group_clique: 5, ..Default::default() };
        let b = block_pairs(&okb, &s, &config);
        // A clique over all 20 would be C(20,2)=190 pairs; the streaming
        // cap forms a clique over the first 5 (C(5,2)=10) and chains each
        // of the remaining 15 onto its predecessor.
        assert_eq!(b.subj_pairs.len(), 10 + 15);
        // Connectivity is preserved: the pairs chain all 20 triples.
        let edges: Vec<(usize, usize)> =
            b.subj_pairs.iter().map(|&(a, b2)| (a.idx(), b2.idx())).collect();
        let c = jocl_cluster::Clustering::from_edges(20, edges);
        assert_eq!(c.num_clusters(), 1);
    }

    #[test]
    fn empty_okb_blocks_nothing() {
        let okb = Okb::new();
        let s = signals(&okb);
        let b = block_pairs(&okb, &s, &JoclConfig::default());
        assert!(b.is_empty());
    }

    /// The monotonicity contract behind incremental ingestion: the
    /// per-append deltas concatenate (as sets) to exactly the batch pair
    /// set, so replaying in any batching reproduces `block_pairs`.
    #[test]
    fn append_deltas_concatenate_to_batch_blocking() {
        let okb = okb();
        let s = signals(&okb);
        let config = JoclConfig::default();
        let batch = block_pairs(&okb, &s, &config);
        let mut index = BlockingIndex::new(&config);
        let mut collected = Blocking::default();
        for (t, triple) in okb.triples() {
            collected.extend(index.append_triple(t, triple, &s));
        }
        for (mut got, want) in [
            (collected.subj_pairs, &batch.subj_pairs),
            (collected.pred_pairs, &batch.pred_pairs),
            (collected.obj_pairs, &batch.obj_pairs),
        ] {
            got.sort_unstable();
            assert_eq!(&got, want, "deltas must concatenate to the batch pair set");
        }
    }

    /// An appended delta only ever involves the new triple — the contract
    /// the incremental graph builder relies on (old pair variables never
    /// need revisiting).
    #[test]
    fn append_delta_only_pairs_the_new_triple() {
        let okb = okb();
        let s = signals(&okb);
        let mut index = BlockingIndex::new(&JoclConfig::default());
        for (t, triple) in okb.triples() {
            let delta = index.append_triple(t, triple, &s);
            for pairs in [&delta.subj_pairs, &delta.pred_pairs, &delta.obj_pairs] {
                for &(a, b) in pairs.iter() {
                    assert!(a == t || b == t, "pair {a:?}-{b:?} from appending {t:?}");
                    assert!(a.0 < b.0);
                }
            }
        }
    }

    /// Exporting mid-stream, importing, and continuing must be
    /// indistinguishable from never stopping — including the re-exported
    /// bytes, which is what the session snapshot parity tests lean on.
    /// This is why the shared interner is serialized: re-interning on
    /// import would reassign symbol ids by family instead of by arrival
    /// interleaving.
    #[test]
    fn import_resumes_bitwise_identical_to_uninterrupted() {
        let mut okb = Okb::new();
        for i in 0..10 {
            okb.add_triple(Triple::new(
                &format!("University of State {i}"),
                "be a member of",
                "Universitas 21",
            ));
            okb.add_triple(Triple::new("Warren Buffett", &format!("rel {i}"), "Omaha"));
        }
        let s = signals(&okb);
        let config = JoclConfig::default();

        let mut uninterrupted = BlockingIndex::new(&config);
        let mut resumed: Option<BlockingIndex> = None;
        for (t, triple) in okb.triples() {
            let want = uninterrupted.append_triple(t, triple, &s);
            if let Some(idx) = resumed.as_mut() {
                let got = idx.append_triple(t, triple, &s);
                assert_eq!(got.subj_pairs, want.subj_pairs, "delta diverged at {t:?}");
                assert_eq!(got.pred_pairs, want.pred_pairs, "delta diverged at {t:?}");
                assert_eq!(got.obj_pairs, want.obj_pairs, "delta diverged at {t:?}");
            }
            if t.idx() == 9 {
                let mut w = jocl_kb::snap::SnapWriter::new();
                uninterrupted.export_state(&mut w);
                let bytes = w.into_bytes();
                let mut r = jocl_kb::snap::SnapReader::new(&bytes);
                resumed = Some(BlockingIndex::import_state(&mut r, &config, okb.len()).unwrap());
            }
        }
        let resumed = resumed.expect("snapshot point was reached");
        let mut wa = jocl_kb::snap::SnapWriter::new();
        uninterrupted.export_state(&mut wa);
        let mut wb = jocl_kb::snap::SnapWriter::new();
        resumed.export_state(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes(), "re-export must be bit-identical");
    }

    #[test]
    fn heap_bytes_grows_with_content() {
        let okb = okb();
        let s = signals(&okb);
        let mut index = BlockingIndex::new(&JoclConfig::default());
        let empty = index.heap_bytes();
        for (t, triple) in okb.triples() {
            index.append_triple(t, triple, &s);
        }
        assert!(index.heap_bytes() > empty, "appending triples must grow the accounted heap");
    }

    #[test]
    fn corrupt_blocking_sections_are_typed_errors() {
        let okb = okb();
        let s = signals(&okb);
        let config = JoclConfig::default();
        let mut index = BlockingIndex::new(&config);
        for (t, triple) in okb.triples() {
            index.append_triple(t, triple, &s);
        }
        let mut w = jocl_kb::snap::SnapWriter::new();
        index.export_state(&mut w);
        let bytes = w.into_bytes();
        // Sanity: intact bytes import.
        let mut r = jocl_kb::snap::SnapReader::new(&bytes);
        BlockingIndex::import_state(&mut r, &config, okb.len()).unwrap();
        // Truncations at every prefix are typed errors, never panics.
        for cut in 0..bytes.len() {
            let mut r = jocl_kb::snap::SnapReader::new(&bytes[..cut]);
            assert!(BlockingIndex::import_state(&mut r, &config, okb.len()).is_err());
        }
        // Too few triples for the recorded owners is rejected.
        let mut r = jocl_kb::snap::SnapReader::new(&bytes);
        assert!(BlockingIndex::import_state(&mut r, &config, 1).is_err());
    }
}
