//! # jocl-datagen
//!
//! Synthetic benchmark generator for the JOCL reproduction.
//!
//! The paper evaluates on **ReVerb45K** (ClueWeb09 extractions annotated
//! against Freebase) and **NYTimes2018** (Stanford OIE over NYT articles)
//! — neither is redistributable offline. Following the reproduction's
//! substitution rule, this crate builds a *generative world model* that
//! produces datasets with the same structural challenges:
//!
//! * entities with **ambiguous aliases** — initialisms ("University of
//!   Maryland" → "UM", colliding with "University of Michigan"), head-word
//!   drops ("Maryland"), abbreviations and typos;
//! * relations with **paraphrase sets** and surface variation (tense,
//!   auxiliaries, inserted modifiers: "be a member of" vs "was an early
//!   member of");
//! * a CKB with facts, **anchor popularity** statistics and entity types;
//! * OIE triples sampled from facts with Zipf-distributed entity
//!   popularity and controlled **out-of-KB** (NIL) rates;
//! * the auxiliary resources the paper's signals consume: a synthetic
//!   **PPDB**, **PATTY-style synsets**, a **training corpus** for the SGNS
//!   embeddings, and SIST-style **side information**;
//! * complete **gold labels**: NP/RP canonicalization clusters and
//!   entity/relation links.
//!
//! Presets: [`reverb45k_like`] and [`nytimes2018_like`] mirror the two
//! benchmark regimes (annotated vs unannotated, low vs high OOV rate);
//! both accept a `scale` so CI-speed runs and paper-scale runs share one
//! code path.

pub mod dataset;
pub mod options;
pub mod words;
pub mod world;

pub use dataset::{nytimes2018_like, reverb45k_like, stress_like, Dataset, Gold};
pub use options::WorldOptions;
pub use world::World;
