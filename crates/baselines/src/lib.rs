//! # jocl-baselines
//!
//! Reimplementations of every system the paper compares against
//! (§4.2, §4.3). Each baseline keeps the *scoring principle* of the
//! original while running on the same substrate as JOCL, so comparisons
//! isolate the algorithmic idea rather than engineering differences:
//!
//! **NP canonicalization** (Table 1): Morph Norm, Wikidata Integrator,
//! Text Similarity, IDF Token Overlap, Attribute Overlap, CESI, SIST.
//!
//! **RP canonicalization** (Table 2): AMIE, PATTY, SIST.
//!
//! **OKB entity linking** (Table 3): Spotlight, TagMe, Falcon, EARL,
//! KBPearl.
//!
//! **OKB relation linking** (Figure 3): Falcon, EARL, KBPearl, Rematch.
//!
//! See `DESIGN.md` §4 for what each reimplementation preserves.

pub mod linking;
pub mod np;
pub mod rp;

pub use linking::{earl, falcon, kbpearl, rematch, spotlight, tagme};
pub use np::{
    attribute_overlap, cesi, idf_token_overlap, morph_norm, sist, text_similarity,
    wikidata_integrator,
};
pub use rp::{amie_baseline, patty, sist_rp};
