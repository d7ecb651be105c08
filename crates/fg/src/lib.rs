//! # jocl-fg
//!
//! Discrete factor-graph substrate with loopy belief propagation (LBP) and
//! maximum-likelihood weight learning — the inference engine behind JOCL
//! (paper §3.4–§3.5).
//!
//! ## Model
//!
//! A factor graph is a bipartite graph of **variable nodes** (discrete,
//! arbitrary cardinality) and **factor nodes**. Every factor is an
//! exponential-linear function (paper Eq. 1):
//!
//! ```text
//! H_j(C_j) = (1/Z_j) · exp{ ω_g · h_j(C_j) }
//! ```
//!
//! Two concrete parameterizations cover everything in the paper:
//!
//! * [`Potential::Features`] — a feature *vector* per joint configuration,
//!   dotted with the weight vector of a parameter group (factors F1–F6,
//!   whose features are the similarity signals);
//! * [`Potential::Scores`] — a scalar score `u(config)` scaled by a single
//!   weight (factors U1–U7: transitivity, fact inclusion, consistency).
//!
//! ## Inference
//!
//! [`lbp`] implements sum-product LBP (log-domain messages, linear-domain
//! factor kernels) with damping, message normalization and one class
//! [`Schedule`]: ordered factor-class and variable-class phases, e.g. the
//! paper's **phased schedule** (§3.4), in which factor classes update in
//! a fixed order within each iteration; the default, one phase of every
//! class, is flooding. [`ScheduleMode`] selects full sweeps or residual
//! updates within it. [`exact`] provides brute-force enumeration used to
//! validate LBP in tests.
//!
//! ## Learning
//!
//! [`learn`] maximizes the log-likelihood of labeled variables (paper
//! Eq. 5) by gradient ascent with the gradient of Eq. 6:
//! `∂O/∂ω = E_{p(Y|Y_L)}[Q] − E_{p(Y)}[Q]`, computed from factor beliefs of
//! a clamped and a free LBP run.

pub mod exact;
pub mod graph;
pub mod lbp;
pub mod learn;
pub mod logspace;
pub mod params;
pub mod store;

pub use graph::{FactorGraph, FactorId, Potential, VarId};
pub use lbp::{LbpMessages, LbpOptions, LbpResult, LbpState, Marginals, Schedule, ScheduleMode};
pub use learn::{train, TrainOptions, TrainReport};
pub use params::Params;
pub use store::{MessageArena, MessageStore, QuantArena};
