//! Word-embedding storage with phrase composition.
//!
//! Vectors live in one flat `f32` arena; the vocabulary maps words to row
//! indexes. Phrase embeddings are word averages (paper §3.1.3), and
//! `Sim_emb` is cosine mapped to `[0, 1]`. Stores are rebuilt from the
//! seeded training run that produced them, never persisted.

use crate::vector::cosine01;
use jocl_text::fx::FxHashMap;
use jocl_text::tokenize;

/// A word → vector store with phrase-level operations.
#[derive(Debug, Clone)]
pub struct EmbeddingStore {
    dim: usize,
    vocab: FxHashMap<String, u32>,
    data: Vec<f32>,
}

impl EmbeddingStore {
    /// Empty store of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self { dim, vocab: FxHashMap::default(), data: Vec::new() }
    }

    /// Dimension of stored vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.vocab.len()
    }

    /// True when no words are stored.
    pub fn is_empty(&self) -> bool {
        self.vocab.is_empty()
    }

    /// Insert (or overwrite) a word vector.
    ///
    /// # Panics
    /// Panics if `vec.len() != dim`.
    pub fn insert(&mut self, word: &str, vec: &[f32]) {
        assert_eq!(vec.len(), self.dim, "vector dimension mismatch");
        let key = word.to_lowercase();
        match self.vocab.get(&key) {
            Some(&row) => {
                let start = row as usize * self.dim;
                self.data[start..start + self.dim].copy_from_slice(vec);
            }
            None => {
                let row = self.vocab.len() as u32;
                self.vocab.insert(key, row);
                self.data.extend_from_slice(vec);
            }
        }
    }

    /// The vector of `word`, if present.
    pub fn get(&self, word: &str) -> Option<&[f32]> {
        self.vocab.get(&word.to_lowercase()).map(|&row| {
            let start = row as usize * self.dim;
            &self.data[start..start + self.dim]
        })
    }

    /// Iterate over `(word, vector)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[f32])> {
        self.vocab.iter().map(move |(w, &row)| {
            let start = row as usize * self.dim;
            (w.as_str(), &self.data[start..start + self.dim])
        })
    }

    /// Phrase embedding: the average of the vectors of its known words
    /// (paper §3.1.3). `None` if no word is known.
    pub fn phrase(&self, phrase: &str) -> Option<Vec<f32>> {
        let mut acc = vec![0.0f32; self.dim];
        let mut n = 0usize;
        for tok in tokenize(phrase) {
            if let Some(v) = self.get(&tok) {
                for (a, x) in acc.iter_mut().zip(v) {
                    *a += x;
                }
                n += 1;
            }
        }
        if n == 0 {
            return None;
        }
        for a in &mut acc {
            *a /= n as f32;
        }
        Some(acc)
    }

    /// `Sim_emb(a, b)`: cosine of the phrase embeddings mapped to
    /// `[0, 1]`. Phrases with no known words score `0.5` against anything
    /// (maximally uninformative, the midpoint of the cosine01 range).
    pub fn sim(&self, a: &str, b: &str) -> f64 {
        match (self.phrase(a), self.phrase(b)) {
            (Some(va), Some(vb)) => cosine01(&va, &vb),
            _ => 0.5,
        }
    }

    /// Deterministic pseudo-random store for tests and fallbacks: each
    /// word's vector is derived from a hash of the word and `seed`.
    pub fn hashed(dim: usize, words: &[&str], seed: u64) -> Self {
        let mut store = EmbeddingStore::new(dim);
        for word in words {
            let mut v = Vec::with_capacity(dim);
            let mut state = seed ^ fxhash_str(word);
            for _ in 0..dim {
                // xorshift64*
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let r = state.wrapping_mul(0x2545F4914F6CDD1D);
                v.push(((r >> 40) as f32 / (1u64 << 24) as f32) - 0.5);
            }
            store.insert(word, &v);
        }
        store
    }
}

fn fxhash_str(s: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = jocl_text::fx::FxHasher::default();
    s.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> EmbeddingStore {
        let mut s = EmbeddingStore::new(3);
        s.insert("maryland", &[1.0, 0.0, 0.0]);
        s.insert("virginia", &[0.0, 1.0, 0.0]);
        s.insert("university", &[0.0, 0.0, 1.0]);
        s
    }

    #[test]
    fn insert_and_get() {
        let s = store();
        assert_eq!(s.get("maryland"), Some(&[1.0f32, 0.0, 0.0][..]));
        assert_eq!(s.get("MARYLAND"), s.get("maryland"));
        assert!(s.get("unknown").is_none());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn overwrite_keeps_len() {
        let mut s = store();
        s.insert("maryland", &[0.5, 0.5, 0.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get("maryland"), Some(&[0.5f32, 0.5, 0.0][..]));
    }

    #[test]
    fn phrase_is_word_average() {
        let s = store();
        let p = s.phrase("University of Maryland").unwrap();
        // "of" unknown → average of university + maryland.
        assert_eq!(p, vec![0.5, 0.0, 0.5]);
    }

    #[test]
    fn phrase_unknown_words_is_none() {
        let s = store();
        assert!(s.phrase("quantum entanglement").is_none());
    }

    #[test]
    fn sim_range_and_identity() {
        let s = store();
        assert!((s.sim("maryland", "maryland") - 1.0).abs() < 1e-6);
        let x = s.sim("maryland university", "virginia university");
        assert!((0.0..=1.0).contains(&x));
        assert_eq!(s.sim("unknownword", "maryland"), 0.5);
    }

    #[test]
    fn hashed_store_is_deterministic() {
        let a = EmbeddingStore::hashed(8, &["x", "y"], 42);
        let b = EmbeddingStore::hashed(8, &["x", "y"], 42);
        assert_eq!(a.get("x"), b.get("x"));
        let c = EmbeddingStore::hashed(8, &["x", "y"], 43);
        assert_ne!(a.get("x"), c.get("x"));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let mut s = store();
        s.insert("bad", &[1.0]);
    }
}
