//! IDF token overlap similarity (paper §3.1.3).
//!
//! > "Inverse document frequency (IDF) token overlap is based on the
//! > assumption that two NPs sharing infrequent words are more likely to
//! > refer to the same object in the world."
//!
//! The similarity between two phrases is
//!
//! ```text
//!              Σ_{x ∈ w(s_i) ∩ w(s_j)}  log(1 + f(x))^(-1)
//! Sim_idf  =  ─────────────────────────────────────────────
//!              Σ_{x ∈ w(s_i) ∪ w(s_j)}  log(1 + f(x))^(-1)
//! ```
//!
//! where `w(·)` is the word set of a phrase and `f(x)` the frequency of
//! word `x` over all NPs (or RPs) in the OIE triple collection. Sharing the
//! rare word "buffett" counts far more than sharing "the".

use crate::fx::FxHashMap;
use crate::tokenize::tokenize;

/// Word-frequency index over a phrase collection, exposing `Sim_idf`.
#[derive(Debug, Default, Clone)]
pub struct IdfIndex {
    freq: FxHashMap<String, u64>,
    total_words: u64,
}

impl IdfIndex {
    /// Empty index. Every word gets frequency 1 (maximal informativeness).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an index from a collection of phrases (each phrase counted
    /// once; word multiplicity inside a phrase counts).
    pub fn build<'a, I: IntoIterator<Item = &'a str>>(phrases: I) -> Self {
        let mut idx = Self::new();
        for p in phrases {
            idx.add_phrase(p);
        }
        idx
    }

    /// Add one phrase's words to the frequency table.
    pub fn add_phrase(&mut self, phrase: &str) {
        for tok in tokenize(phrase) {
            *self.freq.entry(tok).or_insert(0) += 1;
            self.total_words += 1;
        }
    }

    /// Frequency of `word` (≥ 1: unseen words behave like hapaxes, keeping
    /// the weight `1/log(1+f)` finite).
    pub fn frequency(&self, word: &str) -> u64 {
        self.freq.get(word).copied().unwrap_or(0).max(1)
    }

    /// IDF weight of a word: `1 / log(1 + f(x))` with natural log.
    #[inline]
    pub fn weight(&self, word: &str) -> f64 {
        1.0 / (1.0 + self.frequency(word) as f64).ln()
    }

    /// `Sim_idf(a, b)` ∈ [0, 1]. Both phrases are tokenized and deduplicated
    /// (the formula operates on word *sets*). Empty∩empty yields 0.
    pub fn sim(&self, a: &str, b: &str) -> f64 {
        let wa: Vec<String> = dedup(tokenize(a));
        let wb: Vec<String> = dedup(tokenize(b));
        self.sim_tokens(&wa, &wb)
    }

    /// `Sim_idf` over pre-tokenized, deduplicated word sets. Hot-path entry
    /// point used by pair blocking.
    pub fn sim_tokens(&self, wa: &[String], wb: &[String]) -> f64 {
        if wa.is_empty() || wb.is_empty() {
            return 0.0;
        }
        let mut inter = 0.0;
        let mut union = 0.0;
        for x in wa {
            let w = self.weight(x);
            union += w;
            if wb.iter().any(|y| y == x) {
                inter += w;
            }
        }
        for y in wb {
            if !wa.iter().any(|x| x == y) {
                union += self.weight(y);
            }
        }
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }
}

fn dedup(mut v: Vec<String>) -> Vec<String> {
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> IdfIndex {
        IdfIndex::build([
            "warren buffett",
            "buffett",
            "the university of maryland",
            "the university of virginia",
            "the oracle of omaha",
        ])
    }

    #[test]
    fn identical_phrases_are_1() {
        let i = idx();
        assert!((i.sim("warren buffett", "warren buffett") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_phrases_are_0() {
        let i = idx();
        assert_eq!(i.sim("warren buffett", "omaha"), 0.0);
    }

    #[test]
    fn rare_shared_word_beats_common_shared_word() {
        // Controlled corpus: "the" is frequent (f=3), "rare" is a hapax.
        // Both test pairs have the same shape (one shared + one unshared
        // hapax each), so only the shared word's frequency differs.
        let i = IdfIndex::build(["the a", "the b", "the c", "rare d"]);
        let rare = i.sim("rare x", "rare y");
        let common = i.sim("the x", "the y");
        assert!(rare > common, "rare {rare} vs common {common}");
    }

    #[test]
    fn paper_example_buffett() {
        // §3.1.3: "Warren Buffett" and "Buffett" share an infrequent word,
        // making them likely co-referent — the similarity must be well
        // above the score for sharing no word at all.
        let i = idx();
        let s = i.sim("Warren Buffett", "Buffett");
        assert!(s > 0.3, "got {s}");
        assert!(s > i.sim("Warren Buffett", "Omaha"));
    }

    #[test]
    fn symmetry() {
        let i = idx();
        let ab = i.sim("the university of maryland", "maryland");
        let ba = i.sim("maryland", "the university of maryland");
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn range_bounds() {
        let i = idx();
        for (a, b) in [
            ("warren buffett", "the oracle of omaha"),
            ("university", "university of maryland"),
            ("", "x"),
            ("", ""),
        ] {
            let s = i.sim(a, b);
            assert!((0.0..=1.0).contains(&s), "sim({a},{b}) = {s}");
        }
    }

    #[test]
    fn unseen_words_still_comparable() {
        let i = idx();
        let s = i.sim("zanzibar archipelago", "zanzibar");
        assert!(s > 0.0);
    }

    #[test]
    fn duplicate_tokens_are_set_semantics() {
        let i = idx();
        assert!((i.sim("buffett buffett", "buffett") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frequency_floor() {
        let i = IdfIndex::new();
        assert_eq!(i.frequency("anything"), 1);
        assert!(i.weight("anything").is_finite());
    }
}
