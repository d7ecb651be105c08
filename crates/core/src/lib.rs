//! # jocl-core
//!
//! The paper's primary contribution: **JOCL**, joint Open Knowledge Base
//! canonicalization and linking on a factor graph (Liu et al., SIGMOD
//! 2021).
//!
//! Given an OKB (OIE triples) and a CKB, JOCL builds one factor graph
//! containing
//!
//! * binary **canonicalization variables** `x_ij / y_ij / z_ij` for
//!   blocked subject / predicate / object mention pairs (§3.1.1),
//! * multinomial **linking variables** `e_si / r_pi / e_oi` over candidate
//!   entities/relations (§3.2.1),
//! * signal factors **F1–F6** (IDF token overlap, embeddings, PPDB, AMIE,
//!   KBP, popularity, n-gram, Levenshtein — §3.1.3, §3.1.4, §3.2.3,
//!   §3.2.4),
//! * structural factors **U1–U4** (transitivity §3.1.5, fact inclusion
//!   §3.2.5),
//! * and the **consistency factors U5–U7** that couple the two tasks
//!   (§3.3),
//!
//! then learns factor weights by gradient ascent on the labeled
//! validation configuration (§3.4) and infers marginals with the phased
//! loopy-belief-propagation schedule before decoding clusters + links with
//! the conflict-resolution rule of §3.5.
//!
//! Entry point: [`Jocl::run`] with a [`JoclConfig`]; the config's
//! [`Variant`] and [`FeatureSet`] reproduce the paper's ablations
//! (JOCLcano / JOCLlink, Table 4; JOCL-single / -double / -all, Table 5).

pub mod blocking;
pub mod builder;
pub mod config;
pub mod decode;
pub mod example;
pub mod feed;
pub mod incremental;
pub mod persist;
pub mod pipeline;
pub mod signals;

pub use blocking::{block_pairs, Blocking, BlockingIndex};
pub use builder::{build_graph, GraphPlan};
pub use config::{FeatureSet, JoclConfig, Variant};
pub use decode::JoclOutput;
pub use feed::FeedEntry;
pub use incremental::{DeltaOp, DeltaOutput, DeltaStats, IncrementalJocl};
pub use jocl_fg::ScheduleMode;
pub use persist::{load_params, save_params};
pub use pipeline::{Jocl, JoclInput};
pub use signals::{build_signals, Signals};
