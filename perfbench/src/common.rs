//! Shared plumbing: the run report, sample statistics, memory reads, a
//! seeded generator for workload plans, and test-split quality scoring
//! of a live (survivor-indexed) decode.

use jocl_cluster::Clustering;
use jocl_datagen::Dataset;
use jocl_eval::clustering::evaluate_clustering_on;
use jocl_eval::linking_accuracy;
use jocl_kb::{EntityId, NpMention, NpSlot, RelationId, RpMention, Triple, TripleId};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports: the correctness verdict, the operation
/// counts, the metrics of the requested kind, and human-readable lines
/// (attribution tables, the workload-specific metric names) printed
/// before the final JSON line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
            && self.failed == 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, every value printed with all its digits (a
    /// non-finite value prints as `null` and fails the run).
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in `(0, 1]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_else(|e| panic!("cannot read /proc/{pid}/status: {e}"));
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc status");
    kb / 1024.0
}

/// SplitMix64: a tiny seeded generator for workload plans, so a plan
/// depends on the seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Skewed index in `0..n`: low indexes are drawn far more often
    /// (a squared uniform, so the head of a list is hot).
    pub fn skewed(&mut self, n: usize) -> usize {
        let u = self.unit();
        ((u * u * n as f64) as usize).min(n - 1)
    }
}

/// The seeds of the worlds one run draws from its `--seed`.
pub fn world_seeds(seed: u64, k: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0);
    (0..k).map(|_| rng.next_u64() >> 16).collect()
}

/// The distinct arrival sequence of a generated world: its triples in
/// order with duplicates dropped (sessions dedup on ingest, so this is
/// what a session actually holds after ingesting the world).
pub fn distinct_triples(dataset: &Dataset) -> Vec<Triple> {
    let mut seen = HashSet::new();
    dataset.okb.triples().map(|(_, t)| t.clone()).filter(|t| seen.insert(t.clone())).collect()
}

/// A decode re-indexed over live triples: survivor `k` owns NP mentions
/// `2k`, `2k + 1` and RP mention `k`, the layout a batch run on the
/// survivors gives them.
#[derive(Debug, Clone)]
pub struct LiveDecode {
    pub triples: Vec<Triple>,
    pub np_links: Vec<Option<EntityId>>,
    pub rp_links: Vec<Option<RelationId>>,
    pub np_labels: Vec<u32>,
    pub rp_labels: Vec<u32>,
}

impl LiveDecode {
    /// From a batch output over `triples` (already survivor-indexed).
    pub fn of_batch(triples: Vec<Triple>, out: &jocl_core::JoclOutput) -> Self {
        Self {
            triples,
            np_links: out.np_links.clone(),
            rp_links: out.rp_links.clone(),
            np_labels: out.np_clustering.assignment().to_vec(),
            rp_labels: out.rp_clustering.assignment().to_vec(),
        }
    }

    /// From a session-wide output whose retracted triples are masked.
    pub fn of_session(
        session: &jocl_core::IncrementalJocl<'_>,
        out: &jocl_core::JoclOutput,
    ) -> Self {
        let live: Vec<TripleId> =
            session.okb().triples().map(|(id, _)| id).filter(|&id| session.is_live(id)).collect();
        let np = |t: TripleId, slot| NpMention { triple: t, slot }.dense();
        let np_ids: Vec<usize> =
            live.iter().flat_map(|&t| [np(t, NpSlot::Subject), np(t, NpSlot::Object)]).collect();
        let rp_ids: Vec<usize> = live.iter().map(|&t| RpMention(t).dense()).collect();
        Self {
            triples: live.iter().map(|&t| session.okb().triple(t).clone()).collect(),
            np_links: np_ids.iter().map(|&m| out.np_links[m]).collect(),
            rp_links: rp_ids.iter().map(|&m| out.rp_links[m]).collect(),
            np_labels: np_ids.iter().map(|&m| out.np_clustering.assignment()[m]).collect(),
            rp_labels: rp_ids.iter().map(|&m| out.rp_clustering.assignment()[m]).collect(),
        }
    }

    /// From the serving plane's live view.
    pub fn of_view(session: &jocl_core::IncrementalJocl<'_>, view: &jocl_serve::LiveView) -> Self {
        Self {
            triples: view.triples.iter().map(|&t| session.okb().triple(t).clone()).collect(),
            np_links: view.np_links.clone(),
            rp_links: view.rp_links.clone(),
            np_labels: view.np_clustering.assignment().to_vec(),
            rp_labels: view.rp_clustering.assignment().to_vec(),
        }
    }

    /// How many mentions two decodes of the same survivors disagree on:
    /// NP and RP mentions whose link differs, or whose cluster differs
    /// (compared by the cluster's first member, so label names do not
    /// matter and one wrong merge counts only the mentions it moves).
    pub fn differences(&self, other: &Self) -> Result<usize, String> {
        if self.triples != other.triples {
            return Err(format!(
                "survivor sets differ ({} vs {} triples)",
                self.triples.len(),
                other.triples.len()
            ));
        }
        let links = |a: &[Option<EntityId>], b: &[Option<EntityId>]| {
            a.iter().zip(b).filter(|(x, y)| x != y).count()
        };
        let rels = self.rp_links.iter().zip(&other.rp_links).filter(|(x, y)| x != y).count();
        let clusters = |a: &[u32], b: &[u32]| {
            let (ra, rb) = (first_members(a), first_members(b));
            ra.iter().zip(&rb).filter(|(x, y)| x != y).count()
        };
        Ok(links(&self.np_links, &other.np_links)
            + rels
            + clusters(&self.np_labels, &other.np_labels)
            + clusters(&self.rp_labels, &other.rp_labels))
    }

    /// Mentions covered (NP + RP).
    pub fn mentions(&self) -> usize {
        self.np_links.len() + self.rp_links.len()
    }

    /// How many mentions differ from a cold batch run on the same
    /// survivors, in arrival order, with the same signals and config.
    pub fn batch_differences(
        &self,
        dataset: &Dataset,
        signals: &jocl_core::Signals,
        config: jocl_core::JoclConfig,
    ) -> Result<usize, String> {
        let mut survivors = jocl_kb::Okb::new();
        for t in &self.triples {
            survivors.ingest_triple(t.clone());
        }
        let input = jocl_core::JoclInput {
            okb: &survivors,
            ckb: &dataset.ckb,
            ppdb: &dataset.ppdb,
            corpus: &dataset.corpus,
        };
        let batch = jocl_core::Jocl::new(config).run_with_signals(input, signals, None);
        self.differences(&Self::of_batch(self.triples.clone(), &batch))
    }
}

/// For each item, the index of the first item with the same label.
fn first_members(labels: &[u32]) -> Vec<usize> {
    let mut first = HashMap::new();
    labels.iter().enumerate().map(|(i, l)| *first.entry(*l).or_insert(i)).collect()
}

/// Output quality on the test split, as the paper reports it (§4):
/// NP canonicalization average F1 and entity / relation linking
/// accuracy.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub np_avg_f1: f64,
    pub entity_link_acc: f64,
    pub relation_link_acc: f64,
}

impl Quality {
    /// The mean over several worlds.
    pub fn mean(qs: &[Quality]) -> Quality {
        Quality {
            np_avg_f1: mean(&qs.iter().map(|q| q.np_avg_f1).collect::<Vec<_>>()),
            entity_link_acc: mean(&qs.iter().map(|q| q.entity_link_acc).collect::<Vec<_>>()),
            relation_link_acc: mean(&qs.iter().map(|q| q.relation_link_acc).collect::<Vec<_>>()),
        }
    }

    pub fn report(&self, r: &mut Report) {
        r.metric("np_avg_f1", self.np_avg_f1, "ratio");
        r.metric("entity_link_acc", self.entity_link_acc, "ratio");
        r.metric("relation_link_acc", self.relation_link_acc, "ratio");
    }
}

/// Scores a live decode against the generated gold on the test split.
/// Survivors map back to the world's triples by content; survivors
/// with no gold (revised content) and validation triples are skipped.
pub struct TestSplit<'d> {
    dataset: &'d Dataset,
    test_ids: HashMap<Triple, TripleId>,
}

impl<'d> TestSplit<'d> {
    pub fn new(dataset: &'d Dataset, seed: u64) -> Self {
        let (_validation, test) = dataset.entity_split(0.2, seed);
        let mut test_ids = HashMap::new();
        for t in test {
            test_ids.entry(dataset.okb.triple(t).clone()).or_insert(t);
        }
        Self { dataset, test_ids }
    }

    pub fn score(&self, d: &LiveDecode) -> Quality {
        let gold = &self.dataset.gold;
        let mut np_idx = Vec::new();
        // Gold labels over the live index space; unscored mentions get
        // fresh labels that never collide with a gold cluster.
        let mut fresh = u32::MAX;
        let mut np_gold_labels = Vec::with_capacity(d.np_labels.len());
        let (mut ent_pred, mut ent_gold) = (Vec::new(), Vec::new());
        let (mut rel_pred, mut rel_gold) = (Vec::new(), Vec::new());
        for (k, t) in d.triples.iter().enumerate() {
            let Some(&id) = self.test_ids.get(t) else {
                np_gold_labels.extend([fresh - 1, fresh - 2]);
                fresh -= 2;
                continue;
            };
            for (j, slot) in [NpSlot::Subject, NpSlot::Object].into_iter().enumerate() {
                let g = NpMention { triple: id, slot }.dense();
                np_idx.push(2 * k + j);
                np_gold_labels.push(gold.np_cluster_labels[g]);
                ent_pred.push(d.np_links[2 * k + j]);
                ent_gold.push(gold.np_entity[g]);
            }
            let g = RpMention(id).dense();
            rel_pred.push(d.rp_links[k]);
            rel_gold.push(gold.rp_relation[g]);
        }
        let scores = evaluate_clustering_on(
            &Clustering::from_labels(&d.np_labels),
            &Clustering::from_labels(&np_gold_labels),
            &np_idx,
        );
        Quality {
            np_avg_f1: scores.average_f1(),
            entity_link_acc: linking_accuracy(&ent_pred, &ent_gold).accuracy(),
            relation_link_acc: linking_accuracy(&rel_pred, &rel_gold).accuracy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&xs), 10.5);
        assert_eq!(percentile(&xs, 0.95), 19.0);
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
    }

    #[test]
    fn differences_count_links_and_moved_mentions() {
        let t = Triple::new("a", "b", "c");
        let base = LiveDecode {
            triples: vec![t.clone(), t.clone()],
            np_links: vec![Some(EntityId(1)), None, Some(EntityId(2)), None],
            rp_links: vec![Some(RelationId(0)), None],
            np_labels: vec![7, 7, 8, 9],
            rp_labels: vec![1, 2],
        };
        // Renamed labels, same partition: no difference.
        let renamed =
            LiveDecode { np_labels: vec![0, 0, 5, 6], rp_labels: vec![4, 3], ..base.clone() };
        assert_eq!(base.differences(&renamed), Ok(0));
        // One link changed and mention 3 merged into mention 2's cluster.
        let moved = LiveDecode {
            np_links: vec![Some(EntityId(1)), Some(EntityId(3)), Some(EntityId(2)), None],
            np_labels: vec![7, 7, 8, 8],
            ..base.clone()
        };
        assert_eq!(base.differences(&moved), Ok(2));
        let fewer = LiveDecode { triples: vec![t], ..base.clone() };
        assert!(base.differences(&fewer).is_err());
    }

    #[test]
    fn a_failed_check_or_a_non_finite_metric_fails_the_run() {
        let mut r = Report::default();
        r.metric("x", 1.5, "s");
        assert!(r.correct());
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        r.check(false, || "broken".into());
        assert!(!r.correct());
        let mut r = Report::default();
        r.metric("x", f64::NAN, "s");
        assert!(!r.correct());
        assert!(r.json().contains("\"value\": null"));
    }
}
