//! # jocl-kb
//!
//! Knowledge-base substrate for the JOCL reproduction: the data models for
//! both sides of the task (paper §2).
//!
//! * [`ckb`] — the **curated knowledge base** (the paper uses Freebase /
//!   DBpedia): entities with aliases and types, relations with surface
//!   forms and categories, facts `<e_i, r_k, e_j>`, plus the indexes the
//!   paper's signals need — an alias index, Wikipedia-anchor-style
//!   **popularity counts** (`f_pop`, §3.2.3), a fact index (`U4`, §3.2.5)
//!   and an entity co-occurrence view (TagMe-style relatedness).
//! * [`okb`] — the **open knowledge base**: OIE triples
//!   `<s_i, p_i, o_i>` with NP/RP mention addressing and optional
//!   source-text side information (consumed by the SIST baseline).
//! * [`candidates`] — candidate entity/relation generation for linking
//!   variables (`|e_si|` states per mention, §3.2.1).
//! * [`side`] — imported external-KB side information (alias tables,
//!   link dictionaries à la CESI), interned and fingerprinted, fed into
//!   inference as additional factor potentials by `jocl_core`.
//! * [`tsv`] — a small, tested TSV codec so datasets can be persisted and
//!   reloaded without pulling in a serialization dependency.
//! * [`snap`] — the binary snapshot codec behind warm serving-session
//!   persistence (`jocl_serve`): length-prefixed little-endian sections
//!   with typed corruption errors, bit-exact for `f64` state.

pub mod candidates;
pub mod ckb;
pub mod error;
pub mod feed;
pub mod okb;
pub mod side;
pub mod snap;
pub mod tsv;

pub use candidates::{CandidateGen, CandidateOptions};
pub use ckb::{Ckb, CkbRelation, Entity, EntityId, RelationId};
pub use error::KbError;
pub use feed::FeedCursor;
pub use okb::{NpMention, NpSlot, Okb, RpMention, SideInfo, Triple, TripleId};
pub use side::{SideKb, SideLink};
