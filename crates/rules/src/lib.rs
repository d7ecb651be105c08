//! # jocl-rules
//!
//! Rule-mining and lexical-resource substrates for the JOCL reproduction.
//! The paper's RP canonicalization signals (§3.1.4) come from three
//! external systems, all reimplemented here:
//!
//! * [`amie`] — the AMIE association-rule miner (Galárraga et al., WWW
//!   2013): mines mutual implication rules `p_i ⇒ p_j` between relation
//!   phrases over morphologically normalized OIE triples, with support and
//!   confidence thresholds; `Sim_AMIE(p_i, p_j) = 1` iff both directions
//!   hold.
//! * [`ppdb`] — a PPDB-2.0-style paraphrase store: equivalence groups with
//!   a per-group representative; `Sim_PPDB(a, b) = 1` iff the phrases map
//!   to the same representative (§3.1.3).
//! * [`kbp`] — a Stanford-KBP-style relation categorizer: maps a relation
//!   phrase to a CKB relation category via normalized-pattern matching;
//!   `Sim_KBP(p_i, p_j) = 1` iff both fall in the same category (§3.1.4).

pub mod amie;
pub mod kbp;
pub mod ppdb;

pub use amie::{AmieOptions, AmieRules, Rule};
pub use kbp::KbpCategorizer;
pub use ppdb::ParaphraseStore;
