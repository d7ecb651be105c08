//! Span tracing: scoped timers recorded into a bounded in-memory ring.
//!
//! A span is opened with the [`span!`] macro (or [`span`]) and closed
//! when its [`SpanGuard`] drops; the completed record carries the span
//! name, parent linkage (a per-thread stack tracks the innermost open
//! span), start offset from the process trace epoch, duration, and an
//! optional folded-in count (e.g. message updates inside an LBP sweep).
//!
//! Tracing is OFF by default (`JOCL_TRACE=on` enables it via
//! `jocl_bench::env`); while off, opening a span is a single relaxed
//! load and the guard is inert. The ring holds the most recent
//! [`RING_CAP`] completed spans under a poison-recovered mutex — this
//! is a debugging surface, not a hot path, and spans close at phase
//! granularity (a handful per serving write). At 64 B a record, a full
//! ring is 4 MiB, allocated only while tracing records.
//!
//! [`take_trace_tsv`] drains the ring as TSV with a fixed header:
//!
//! ```text
//! span_id\tparent_id\tthread\tname\tstart_us\tdur_us\tcount
//! ```
//!
//! Rows are sorted by `(start_us, span_id)` so concurrent threads dump
//! in timeline order. If the ring evicted spans since the last drain,
//! a final `# evicted N spans` line says how many.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Maximum completed spans kept; older entries are evicted FIFO.
pub const RING_CAP: usize = 1 << 16;

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// Enable or disable span recording process-wide (default off).
pub fn set_trace_enabled(on: bool) {
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// The trace epoch: first touch pins it, all `start_us` offsets are
/// relative to it. Monotonic, never wall-clock.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Small dense per-thread id for the TSV `thread` column (thread names
/// are not stable and `ThreadId` has no public integer).
fn thread_ord() -> u64 {
    thread_local! {
        static ORD: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    }
    ORD.with(|o| *o)
}

thread_local! {
    /// Stack of open span ids on this thread; the top is the parent of
    /// the next span opened here.
    static OPEN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug, Clone)]
struct SpanRecord {
    span_id: u64,
    parent_id: u64,
    thread: u64,
    name: &'static str,
    start_us: u64,
    dur_us: u64,
    count: u64,
}

/// The newest [`RING_CAP`] completed spans, and how many older ones
/// were evicted since the last drain.
#[derive(Default)]
struct Ring {
    records: VecDeque<SpanRecord>,
    evicted: u64,
}

impl Ring {
    fn push(&mut self, rec: SpanRecord) {
        if self.records.len() >= RING_CAP {
            // FIFO eviction; RING_CAP is large relative to phase-granular
            // span volume, so this is a safety valve, not a steady state.
            self.records.pop_front();
            self.evicted += 1;
        }
        self.records.push_back(rec);
    }

    /// Take every record (in push order) and the eviction count.
    fn drain(&mut self) -> (Vec<SpanRecord>, u64) {
        (std::mem::take(&mut self.records).into(), std::mem::take(&mut self.evicted))
    }
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(Ring::default()))
}

fn push_record(rec: SpanRecord) {
    ring().lock().unwrap_or_else(PoisonError::into_inner).push(rec);
}

/// Guard for an open span; records on drop. Inert (and cost-free past
/// one atomic load) when tracing is disabled at open time.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    span_id: u64,
    parent_id: u64,
    name: &'static str,
    start: Instant,
    start_us: u64,
    count: u64,
}

/// Open a span. Prefer the [`span!`] macro, which reads as a labelled
/// scope at the call site.
pub fn span(name: &'static str) -> SpanGuard {
    if !trace_enabled() {
        return SpanGuard { active: None };
    }
    let ep = epoch();
    let now = Instant::now();
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent_id = OPEN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(span_id);
        parent
    });
    let start_us = u64::try_from(now.duration_since(ep).as_micros()).unwrap_or(u64::MAX);
    SpanGuard {
        active: Some(ActiveSpan { span_id, parent_id, name, start: now, start_us, count: 0 }),
    }
}

impl SpanGuard {
    /// Fold a count into the span (e.g. message updates performed
    /// inside an LBP sweep). Accumulates across calls.
    pub fn add_count(&mut self, n: u64) {
        if let Some(a) = self.active.as_mut() {
            a.count += n;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        OPEN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop our own id; guards drop in LIFO order within a
            // thread, but be defensive about a mismatched stack.
            if s.last() == Some(&a.span_id) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|&id| id == a.span_id) {
                s.remove(pos);
            }
        });
        let dur_us = u64::try_from(a.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        push_record(SpanRecord {
            span_id: a.span_id,
            parent_id: a.parent_id,
            thread: thread_ord(),
            name: a.name,
            start_us: a.start_us,
            dur_us,
            count: a.count,
        });
    }
}

/// Open a named span whose guard records on scope exit:
///
/// ```
/// let _g = jocl_obs::span!("graph_build");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
}

/// Drain every recorded span as TSV (header + rows sorted by
/// `(start_us, span_id)`, then `# evicted N spans` if the ring evicted
/// any since the last drain), clearing the ring.
pub fn take_trace_tsv() -> String {
    let (mut records, evicted) = ring().lock().unwrap_or_else(PoisonError::into_inner).drain();
    records.sort_by_key(|r| (r.start_us, r.span_id));
    let mut out = String::from("span_id\tparent_id\tthread\tname\tstart_us\tdur_us\tcount\n");
    for r in &records {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            r.span_id, r.parent_id, r.thread, r.name, r.start_us, r.dur_us, r.count
        ));
    }
    if evicted > 0 {
        out.push_str(&format!("# evicted {evicted} spans\n"));
    }
    out
}

/// Discard all recorded spans (test isolation).
pub fn clear_trace() {
    ring().lock().unwrap_or_else(PoisonError::into_inner).drain();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(span_id: u64) -> SpanRecord {
        SpanRecord {
            span_id,
            parent_id: 0,
            thread: 1,
            name: "s",
            start_us: span_id,
            dur_us: 1,
            count: 0,
        }
    }

    /// A private ring (the global one is shared with the test below):
    /// 10 000 spans all survive in push order, and `RING_CAP + 5` pushes
    /// evict exactly the 5 oldest and count them.
    #[test]
    fn ring_keeps_the_newest_spans_and_counts_evictions() {
        let mut ring = Ring::default();
        for id in 0..10_000 {
            ring.push(record(id));
        }
        let (records, evicted) = ring.drain();
        assert_eq!(evicted, 0);
        assert!(records.iter().map(|r| r.span_id).eq(0..10_000), "all spans, in order");

        for id in 0..RING_CAP as u64 + 5 {
            ring.push(record(id));
        }
        let (records, evicted) = ring.drain();
        assert_eq!(evicted, 5);
        assert_eq!(records.len(), RING_CAP);
        assert!(records.iter().map(|r| r.span_id).eq(5..RING_CAP as u64 + 5), "newest kept");
        assert_eq!(ring.drain().1, 0, "a drain resets the eviction count");
    }

    // Trace state is process-global, so every scenario runs inside one
    // test to avoid cross-test interference under the parallel runner.
    #[test]
    fn spans_record_nest_and_dump_as_tsv() {
        clear_trace();

        // Disabled: guards are inert, nothing is recorded.
        set_trace_enabled(false);
        {
            let mut g = span("ignored");
            g.add_count(5);
        }
        assert_eq!(take_trace_tsv().lines().count(), 1, "header only when disabled");

        // Enabled: nesting links parents, counts fold in.
        set_trace_enabled(true);
        {
            let mut outer = span("outer");
            outer.add_count(2);
            {
                let _inner = span("inner");
            }
            outer.add_count(3);
        }
        set_trace_enabled(false);

        let tsv = take_trace_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines[0], "span_id\tparent_id\tthread\tname\tstart_us\tdur_us\tcount");
        assert_eq!(lines.len(), 3, "two spans recorded: {tsv}");

        let row = |name: &str| -> Vec<String> {
            lines
                .iter()
                .find(|l| l.split('\t').nth(3) == Some(name))
                .unwrap_or_else(|| panic!("no row for {name} in {tsv}"))
                .split('\t')
                .map(str::to_string)
                .collect()
        };
        let outer = row("outer");
        let inner = row("inner");
        assert_eq!(outer[1], "0", "outer span has no parent");
        assert_eq!(inner[1], outer[0], "inner's parent is outer");
        assert_eq!(outer[6], "5", "counts accumulate");
        // Rows are timeline-sorted and the ring drained.
        assert!(outer[4].parse::<u64>().unwrap() <= inner[4].parse::<u64>().unwrap());
        assert_eq!(take_trace_tsv().lines().count(), 1, "drain clears the ring");
    }
}
