//! # jocl-obs
//!
//! The unified observability subsystem (ROADMAP "metrics before the
//! remaining serving work can be measured rather than assumed"):
//! zero-dependency counters, gauges and log-bucketed histograms with
//! **atomic hot-path recording**, plus lightweight **span
//! tracing** for the pipeline phases and a process-wide [`registry`]
//! whose [`MetricsSnapshot`] iterates deterministically (sorted keys)
//! so the serving plane can expose it as byte-stable `metrics.v1`
//! frames.
//!
//! Design contracts, in order of importance:
//!
//! * **Observational only.** Nothing in the pipeline ever *reads* a
//!   metric to make a decision, so inference is bitwise-identical with
//!   metrics on, off, or across writer/replica. Metrics are never
//!   serialized into snapshots or the replication feed.
//! * **No locks on the hot path.** Recording into a [`Counter`] or
//!   [`Histogram`] is one relaxed `fetch_add` per cell ([`metrics`]
//!   module docs); the registry mutex is touched only at
//!   handle-registration time (once per metric, at engine/bin startup)
//!   and on [`Registry::snapshot`]. LBP sweeps and socket readers never
//!   block.
//! * **Deterministic read-out.** [`Registry::snapshot`] returns entries
//!   sorted by canonical key; two snapshots of an idle process are
//!   identical, which is what makes the `metrics` wire frames
//!   byte-stable (the `obs_scale` gate asserts exactly that).
//! * **Cheap when off.** [`set_metrics_enabled`]`(false)` (the
//!   `JOCL_METRICS=off` knob, parsed by `jocl_bench::env`) turns every
//!   record call into a single relaxed load + branch; [`trace`] is off
//!   by default and gated the same way (`JOCL_TRACE=on`).
//!
//! The phase spans ([`span!`]) cover blocking, graph build, per-schedule
//! LBP sweeps (message-update counts folded in), delta application,
//! compaction, snapshot save/restore and replica catch-up; the bounded
//! in-memory ring dumps as TSV ([`trace::take_trace_tsv`]) for offline
//! timeline inspection.

pub mod metrics;
pub mod timer;
pub mod trace;

pub use metrics::{
    metrics_enabled, registry, set_metrics_enabled, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricValue, MetricsSnapshot, Registry,
};
pub use timer::Stopwatch;
pub use trace::{clear_trace, set_trace_enabled, span, take_trace_tsv, trace_enabled, SpanGuard};
