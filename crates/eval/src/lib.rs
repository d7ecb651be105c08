//! # jocl-eval
//!
//! Evaluation suite for the JOCL reproduction.
//!
//! * [`clustering`] — the macro / micro / pairwise precision, recall and F1
//!   metrics of Galárraga et al. (CIKM 2014), used by the paper for OKB
//!   canonicalization (§4.1: "we adopt the same evaluation measures (i.e.,
//!   macro, micro, and pairwise metrics) as previous works"), plus the
//!   *average F1* aggregate.
//! * [`linking`] — linking accuracy (§4.1: "the number of correctly linked
//!   NPs (RPs) divided by the total number of all NPs (RPs)").
//! * [`report`] — ASCII tables and bar charts used by the `jocl-bench`
//!   binaries to render each table/figure of the paper.

pub mod clustering;
pub mod linking;
pub mod report;

pub use clustering::{evaluate_clustering, ClusteringScores, PrecisionRecallF1};
pub use linking::{linking_accuracy, linking_prf, LinkPrf, LinkingScore};
pub use report::{BarChart, Table};
