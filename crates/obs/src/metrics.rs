//! Metrics core: atomic counters, gauges, log-bucketed histograms, and
//! the process-wide registry.
//!
//! ## Recording
//!
//! A [`Counter`] is one atomic cell and a [`Histogram`] one array of
//! bucket cells plus count and sum; every record is a relaxed
//! `fetch_add`. Recording happens a few times per operation (each LBP
//! run is serial), so contention is negligible and per-thread shards
//! would buy nothing. Relaxed ordering is fine because metrics are
//! observational — a snapshot is allowed to miss in-flight increments,
//! it only has to be internally consistent enough for monitoring (and
//! exact once the process is idle, which is what the byte-stability
//! gate relies on).
//!
//! ## Buckets
//!
//! Histograms use log-base-2 buckets: bucket `i` holds values with
//! upper bound `2^i` (bucket 0 holds `v <= 1`). 42 buckets cover up to
//! ~2^41 ≈ 2.2e12, i.e. half an hour in nanoseconds or terabytes in
//! bytes — everything this pipeline records. The exposition layer
//! renders them as cumulative Prometheus-style `_bucket{le="..."}`
//! series plus `_count`/`_sum`.
//!
//! ## Canonical keys
//!
//! The registry keys metrics by `name{k="v",...}` with label pairs
//! sorted by key. [`Registry::snapshot`] iterates a `BTreeMap`, so the
//! read-out order is deterministic and two snapshots of an idle
//! process are identical.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of log-base-2 histogram buckets (upper bounds `2^0 .. 2^41`,
/// last bucket is the overflow catch-all).
pub const BUCKETS: usize = 42;

/// Global kill switch, default ON (`JOCL_METRICS=off` clears it via
/// `jocl_bench::env`). Checked with a relaxed load at the top of every
/// record call.
static METRICS_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable metrics recording process-wide.
///
/// Recording calls made while disabled are dropped; handles stay valid
/// and re-enable seamlessly. Registration is unaffected (the metric
/// inventory is stable either way, only the values stop moving).
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metrics recording is currently enabled.
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Map a recorded value to its log-base-2 bucket.
///
/// `v <= 1` lands in bucket 0 (upper bound `2^0 = 1`); otherwise the
/// bucket is the number of bits needed to represent `v - 1`, clamped to
/// the overflow bucket. Upper bounds are inclusive: `bucket_index(2^k)
/// == k`.
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        let bits = (64 - (v - 1).leading_zeros()) as usize;
        bits.min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`, or `None` for the overflow
/// bucket (exposed as `le="+Inf"`).
pub fn bucket_le(i: usize) -> Option<u64> {
    if i + 1 >= BUCKETS {
        None
    } else {
        Some(1u64 << i)
    }
}

/// Monotonic event counter.
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    fn new() -> Self {
        Counter { value: AtomicU64::new(0) }
    }

    /// Add `n` to the counter. One relaxed `fetch_add`; no-op while
    /// metrics are disabled.
    pub fn add(&self, n: u64) {
        if !metrics_enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-value gauge. Gauges are set from single-writer contexts (the
/// serve loop, the net accept loop), so a single atomic cell suffices.
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    fn new() -> Self {
        Gauge { value: AtomicU64::new(0) }
    }

    /// Set the gauge. Unlike counters this is NOT gated on
    /// [`metrics_enabled`]: gauges mirror existing state (connection
    /// counts, feed offsets) rather than accumulate events, and a
    /// disabled gauge that silently pins a stale value would be more
    /// misleading than a moving one. The byte-stability gate only
    /// requires that an *idle* process reads identically twice, which
    /// holds either way.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (saturating semantics are not needed; gauges here track
    /// small live counts).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`, saturating at zero (decrements can race a reset).
    pub fn sub(&self, n: u64) {
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.value.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Log-bucketed histogram: one cell per bucket plus count and sum.
/// Values are plain `u64` — nanoseconds for latencies, bytes for sizes,
/// counts for batch shapes; the unit lives in the metric name (`*_ns`,
/// `*_bytes`).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation: three relaxed `fetch_add`s; no-op while
    /// metrics are disabled.
    pub fn record(&self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Point-in-time snapshot of every cell.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Histogram state at one point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts.
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// A registered metric's value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
    /// Boxed: a snapshot's bucket array dwarfs the scalar variants.
    Histogram(Box<HistogramSnapshot>),
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Point-in-time view of every registered metric, sorted by canonical
/// key (`name{k="v",...}`). Iteration order is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(canonical_key, value)` pairs in ascending key order.
    pub entries: Vec<(String, MetricValue)>,
}

/// Registry of named metrics. Handle lookup takes the internal mutex;
/// callers register once at startup and cache the returned `Arc`, so
/// the hot path never sees this lock.
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// Build the canonical key `name{k="v",...}` with labels sorted by
/// key. Bare names stay bare (no `{}` suffix).
pub fn canonical_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut key = String::with_capacity(name.len() + 16 * sorted.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        key.push_str(v);
        key.push('"');
    }
    key.push('}');
    key
}

impl Registry {
    /// New empty registry (tests construct private ones; production
    /// code uses [`registry`]).
    pub fn new() -> Self {
        Registry { metrics: Mutex::new(BTreeMap::new()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register (or fetch the existing) counter under `name{labels}`.
    ///
    /// Panics if the key is already registered as a different kind —
    /// that is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = canonical_key(name, labels);
        let mut map = self.lock();
        match map.entry(key).or_insert_with(|| Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!(
                "metric {} already registered with a different kind",
                canonical_key(name, labels)
            ),
        }
    }

    /// Register (or fetch the existing) gauge under `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = canonical_key(name, labels);
        let mut map = self.lock();
        match map.entry(key).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!(
                "metric {} already registered with a different kind",
                canonical_key(name, labels)
            ),
        }
    }

    /// Register (or fetch the existing) histogram under `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = canonical_key(name, labels);
        let mut map = self.lock();
        match map.entry(key).or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!(
                "metric {} already registered with a different kind",
                canonical_key(name, labels)
            ),
        }
    }

    /// Merge every metric into a sorted point-in-time snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.lock();
        let entries = map
            .iter()
            .map(|(key, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                };
                (key.clone(), value)
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// The process-wide registry. All production metrics live here; the
/// serve exposition plane snapshots it to build `metrics.v1` frames.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bucket_boundaries_are_inclusive_powers_of_two() {
        // Bucket 0 holds v <= 1.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        // Upper bounds are inclusive: 2^k lands in bucket k, 2^k + 1
        // spills into bucket k+1, and 2^(k-1) + 1 is the low edge of
        // bucket k.
        for k in 1..(BUCKETS - 1) {
            let le = 1u64 << k;
            assert_eq!(bucket_index(le), k, "2^{k} must land in bucket {k}");
            assert_eq!(bucket_index(le / 2 + 1), k, "2^{}+1 is the low edge of bucket {k}", k - 1);
            if k + 1 < BUCKETS - 1 {
                assert_eq!(bucket_index(le + 1), k + 1, "2^{k}+1 goes one bucket up");
            }
        }
        // Everything beyond the last finite bound lands in the overflow bucket.
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 62), BUCKETS - 1);
    }

    #[test]
    fn bucket_le_matches_index() {
        assert_eq!(bucket_le(0), Some(1));
        assert_eq!(bucket_le(10), Some(1024));
        assert_eq!(bucket_le(BUCKETS - 1), None);
        // A value exactly at a finite bound maps to that bucket.
        for i in 0..BUCKETS - 1 {
            let le = bucket_le(i).unwrap();
            assert_eq!(bucket_index(le), i);
        }
    }

    #[test]
    fn histogram_count_and_sum_track_records() {
        let reg = Registry::new();
        let h = reg.histogram("t_ns", &[]);
        for v in [0u64, 1, 2, 3, 1000, 1 << 40, u64::MAX >> 1] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 1 + 2 + 3 + 1000 + (1u64 << 40) + (u64::MAX >> 1));
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    }

    #[test]
    fn canonical_key_sorts_labels() {
        assert_eq!(canonical_key("x", &[]), "x");
        assert_eq!(canonical_key("x", &[("b", "2"), ("a", "1")]), "x{a=\"1\",b=\"2\"}");
    }

    #[test]
    fn registry_snapshot_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter("zeta_total", &[]).add(3);
        reg.gauge("alpha_live", &[]).set(7);
        reg.counter("mid_total", &[("plane", "writer")]).inc();
        let s1 = reg.snapshot();
        let s2 = reg.snapshot();
        assert_eq!(s1, s2, "idle registry must snapshot identically twice");
        let keys: Vec<&str> = s1.entries.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "snapshot iteration must be sorted");
    }

    #[test]
    fn same_key_returns_same_handle() {
        let reg = Registry::new();
        let a = reg.counter("hits_total", &[("k", "v")]);
        let b = reg.counter("hits_total", &[("k", "v")]);
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().entries.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x_total", &[]);
        reg.gauge("x_total", &[]);
    }

    #[test]
    fn disabled_metrics_drop_records_but_keep_handles() {
        let reg = Registry::new();
        let c = reg.counter("gated_total", &[]);
        let h = reg.histogram("gated_ns", &[]);
        set_metrics_enabled(false);
        c.add(10);
        h.record(10);
        set_metrics_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        c.add(1);
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn concurrent_counter_merge_equals_sequential_sum() {
        // N threads adding concurrently reach exactly the sequential
        // total.
        let reg = Registry::new();
        let c = reg.counter("conc_total", &[]);
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for i in 0..per_thread {
                        c.add(1 + (i % 3));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expect_per_thread: u64 = (0..per_thread).map(|i| 1 + (i % 3)).sum();
        assert_eq!(c.get(), expect_per_thread * threads as u64);
    }

    #[test]
    fn gauge_sub_saturates_at_zero() {
        let reg = Registry::new();
        let g = reg.gauge("live", &[]);
        g.add(2);
        g.sub(5);
        assert_eq!(g.get(), 0);
    }
}
