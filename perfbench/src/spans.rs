//! Folding the program's span trace (the `take_trace_tsv` format) into
//! per-layer self times and root-span coverage.
//!
//! A span's self time is its duration minus the durations of its direct
//! children; a root's coverage is the share of its duration that its
//! children account for — the rest is time no span attributes.

use std::collections::{BTreeMap, HashMap};

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
    pub count: u64,
}

/// Parse a trace dump; lines that are not span rows (the header, or
/// other stderr output around the dump) are skipped.
pub fn parse_tsv(tsv: &str) -> Vec<Span> {
    tsv.lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            let [id, parent, _thread, name, start, dur, count] = f.as_slice() else {
                return None;
            };
            Some(Span {
                id: id.parse().ok()?,
                parent: parent.parse().ok()?,
                name: (*name).to_string(),
                start_us: start.parse().ok()?,
                dur_us: dur.parse().ok()?,
                count: count.parse().ok()?,
            })
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct Fold {
    /// name → (spans, total seconds, self seconds, folded-in count)
    pub by_name: BTreeMap<String, (u64, f64, f64, u64)>,
}

impl Fold {
    pub fn of(spans: &[Span]) -> Self {
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        for s in spans {
            if s.parent != 0 {
                *child_us.entry(s.parent).or_default() += s.dur_us;
            }
        }
        let mut by_name: BTreeMap<String, (u64, f64, f64, u64)> = BTreeMap::new();
        for s in spans {
            let e = by_name.entry(s.name.clone()).or_default();
            let children = child_us.get(&s.id).copied().unwrap_or(0);
            e.0 += 1;
            e.1 += s.dur_us as f64 * 1e-6;
            e.2 += s.dur_us.saturating_sub(children) as f64 * 1e-6;
            e.3 += s.count;
        }
        Self { by_name }
    }

    /// Total seconds of spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.1)
    }

    /// Self seconds of spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.2)
    }

    /// Folded-in count of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.3)
    }

    /// Number of spans named `name`.
    pub fn spans(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    /// Share of `root` time that its children cover (1 − self/total).
    pub fn coverage(&self, root: &str) -> f64 {
        let total = self.total_s(root);
        if total == 0.0 {
            0.0
        } else {
            1.0 - self.self_s(root) / total
        }
    }

    /// A self-time table: one line per span name.
    pub fn table(&self, title: &str) -> Vec<String> {
        let mut out = vec![
            format!("self-time table: {title}"),
            format!(
                "  {:<18} {:>7} {:>11} {:>11} {:>14}",
                "span", "spans", "total_s", "self_s", "count"
            ),
        ];
        for (name, (n, total, own, count)) in &self.by_name {
            out.push(format!("  {name:<18} {n:>7} {total:>11.6} {own:>11.6} {count:>14}"));
        }
        out
    }
}

/// Spans that start inside `[from_us, to_us)` on the trace clock.
pub fn between(spans: &[Span], from_us: u64, to_us: u64) -> Vec<Span> {
    spans.iter().filter(|s| s.start_us >= from_us && s.start_us < to_us).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let tsv = "span_id\tparent_id\tthread\tname\tstart_us\tdur_us\tcount\n\
                   1\t0\t1\tapply_ops\t0\t1000\t0\n\
                   2\t1\t1\tlbp_sweep\t100\t400\t7\n\
                   3\t2\t1\tinner\t150\t100\t0\n\
                   4\t0\t1\tapply_ops\t2000\t500\t0\n";
        let spans = parse_tsv(tsv);
        assert_eq!(spans.len(), 4, "header skipped");
        let f = Fold::of(&spans);
        assert!((f.total_s("apply_ops") - 0.0015).abs() < 1e-12);
        assert!((f.self_s("apply_ops") - 0.0011).abs() < 1e-12);
        assert!((f.self_s("lbp_sweep") - 0.0003).abs() < 1e-12);
        assert_eq!(f.count("lbp_sweep"), 7);
        assert!((f.coverage("apply_ops") - 0.4 / 1.5).abs() < 1e-12);
        assert_eq!(between(&spans, 100, 2000).len(), 2);
    }
}
