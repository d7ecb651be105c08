//! # jocl — Joint Open Knowledge Base Canonicalization and Linking
//!
//! Umbrella crate for the JOCL workspace, a from-scratch Rust reproduction
//! of *"Joint Open Knowledge Base Canonicalization and Linking"* (Liu,
//! Shen, Wang, Wang, Yang, Yuan — SIGMOD 2021).
//!
//! Re-exports every sub-crate under a stable prefix so downstream users can
//! depend on a single crate:
//!
//! ```
//! use jocl::text::tokenize;
//! assert_eq!(tokenize("University of Maryland").len(), 3);
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! reproduced tables and figures.

pub use jocl_baselines as baselines;
pub use jocl_cluster as cluster;
pub use jocl_core as core;
pub use jocl_datagen as datagen;
pub use jocl_embed as embed;
pub use jocl_eval as eval;
pub use jocl_fg as fg;
pub use jocl_kb as kb;
pub use jocl_obs as obs;
pub use jocl_rules as rules;
pub use jocl_serve as serve;
pub use jocl_text as text;
