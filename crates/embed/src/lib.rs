//! # jocl-embed
//!
//! Word-embedding substrate for the JOCL reproduction.
//!
//! The paper's `f_emb` signal (§3.1.3) uses fastText vectors trained on
//! Common Crawl; offline we train our own:
//!
//! * [`sgns`] — a from-scratch **skip-gram with negative sampling**
//!   (word2vec) trainer. The data generator emits a corpus in which
//!   aliases of the same entity and paraphrases of the same relation
//!   appear in interchangeable contexts, so the trained vectors exhibit
//!   exactly the distributional property the paper relies on ("the
//!   meaning of a word is captured by the contexts where it often
//!   appears").
//! * [`store`] — an [`EmbeddingStore`] mapping words to dense `f32`
//!   vectors with phrase embedding by word averaging ("for a NP which
//!   contains several words, we average the vectors of all the single
//!   words in the phrase", §3.1.3) and cosine similarity.
//! * [`retrofit`] — Faruqui-style retrofitting of vectors toward a
//!   semantic lexicon, the mechanism our CESI baseline uses to inject
//!   side information into embeddings.
//! * [`vector`] — the small dense-vector kernel (dot, norm, cosine, axpy).

pub mod retrofit;
pub mod sgns;
pub mod store;
pub mod vector;

pub use retrofit::{retrofit, RetrofitOptions};
pub use sgns::{train_sgns, SgnsOptions};
pub use store::EmbeddingStore;
pub use vector::cosine;
