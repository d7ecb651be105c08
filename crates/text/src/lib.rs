//! # jocl-text
//!
//! Text and string-similarity substrate for the JOCL reproduction
//! (SIGMOD 2021, "Joint Open Knowledge Base Canonicalization and Linking").
//!
//! The paper relies on a handful of lexical signals that are normally
//! provided by off-the-shelf NLP tooling. This crate reimplements all of
//! them from scratch:
//!
//! * [`tokenize`](mod@tokenize) — lowercase word tokenization used everywhere.
//! * [`stem`] — a full Porter stemmer ([`stem::porter`]).
//! * [`normalize`] — morphological normalization used by the Morph Norm
//!   baseline and by the AMIE rule-miner input ("morphological normalized
//!   OIE triples", paper §3.1.4).
//! * [`sim`] — the string similarity kernels: IDF token overlap
//!   (paper §3.1.3), character n-gram Jaccard and normalized Levenshtein
//!   (paper §3.2.4), Jaro-Winkler (Text Similarity baseline) and token
//!   Jaccard (Attribute Overlap baseline).
//! * [`fx`] — a small, fast, non-cryptographic hasher (FxHash) plus
//!   `HashMap`/`HashSet` aliases used across the workspace for hot lookup
//!   tables, following the Rust performance guide's advice.
//! * [`intern`] — a string interner so phrases and words can be compared
//!   and hashed as `u32` symbols in the hot loops.

pub mod fx;
pub mod intern;
pub mod normalize;
pub mod sim;
pub mod stem;
pub mod stopwords;
pub mod tokenize;

pub use intern::{Interner, Sym};
pub use normalize::morph_normalize;
pub use sim::idf::IdfIndex;
pub use tokenize::tokenize;
