//! # jocl-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§4). One binary per artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — NP canonicalization (8 methods × 2 datasets) |
//! | `table2` | Table 2 — RP canonicalization |
//! | `table3` | Table 3 — OKB entity linking accuracy |
//! | `fig3`   | Figure 3 — OKB relation linking accuracy |
//! | `table4` | Table 4 — JOCLcano / JOCLlink ablation |
//! | `table5_fig4` | Table 5 + Figure 4 — feature-combination variants |
//! | `fig2_convergence` | LBP convergence (§3.4's "within twenty iterations") |
//!
//! Scale control: `JOCL_SCALE` (default 0.02 ≈ 900 triples for ReVerb-like;
//! `1.0` = paper scale), `JOCL_SEED` (default 42). Runs print ASCII tables
//! that are archived in `EXPERIMENTS.md`.

pub mod env;
pub mod runner;

pub use env::{
    env_bench_baseline, env_bench_tolerance, env_cesi_threshold, env_compact_threshold,
    env_link_threshold, env_listen, env_mem_ceiling_mb, env_message_store, env_metrics, env_scale,
    env_seed, env_side_info, env_sist_threshold, env_snapshot_dir, env_stream_batches, env_trace,
    env_train_epochs,
};
pub use runner::{ExperimentContext, MethodScores};
