//! Inference decoding and conflict resolution (paper §3.5).
//!
//! After LBP converges, each variable's best label is its marginal MAP
//! state: linking variables yield entity/relation assignments,
//! canonicalization variables yield pairwise merge decisions. The
//! remaining cano-vs-link conflicts are resolved with the paper's rule:
//!
//! > "If a pair of NPs are located in two different groups according to
//! > the linking result and the corresponding canonicalization variable
//! > of this pair has a value of 1, we select the label of the larger
//! > group as the final label for both NPs."
//!
//! Final canonicalization groups are the union-find closure of the
//! positive pairs plus (optionally) same-link edges.

use crate::builder::GraphPlan;
use crate::config::JoclConfig;
use jocl_cluster::{Clustering, UnionFind};
use jocl_fg::{LbpResult, Marginals, VarId};
use jocl_kb::{EntityId, NpMention, NpSlot, Okb, RelationId, RpMention, TripleId};
use jocl_text::fx::FxHashMap;

/// Final output of a JOCL run.
#[derive(Debug, Clone)]
pub struct JoclOutput {
    /// Clustering over all NP mentions (dense indexing).
    pub np_clustering: Clustering,
    /// Clustering over all RP mentions.
    pub rp_clustering: Clustering,
    /// Final entity link per NP mention.
    pub np_links: Vec<Option<EntityId>>,
    /// Final relation link per RP mention.
    pub rp_links: Vec<Option<RelationId>>,
    /// The weights inference actually used (learned, pretrained, or
    /// initial), attached by the batch pipeline for persistence via
    /// `crate::persist::save_params`; sessions leave it `None`.
    pub learned_params: Option<jocl_fg::Params>,
    /// Run diagnostics.
    pub diagnostics: Diagnostics,
}

/// Diagnostics of one run.
#[derive(Debug, Clone)]
pub struct Diagnostics {
    /// LBP convergence summary.
    pub lbp: LbpResult,
    /// Factor graph size.
    pub num_vars: usize,
    /// Factor count.
    pub num_factors: usize,
    /// Blocked pair counts (subject, predicate, object).
    pub pair_counts: (usize, usize, usize),
    /// Transitivity triangle count.
    pub triangles: usize,
    /// Training epochs actually run (0 = untrained).
    pub train_epochs: usize,
    /// Final training gradient norm (NaN when untrained).
    pub train_grad_norm: f64,
}

/// Decode marginals into the final output.
pub fn decode(
    okb: &Okb,
    plan: &GraphPlan,
    marginals: &Marginals,
    config: &JoclConfig,
    diagnostics: Diagnostics,
) -> JoclOutput {
    decode_live(okb, plan, marginals, config, diagnostics, None)
}

/// [`decode`] over a session with **retractions**: `live` (indexed by
/// triple id) masks out tombstoned triples. Dead mentions decode to no
/// link and singleton clusters, dead pair variables can neither merge
/// clusters nor overrule links, and the conflict-resolution group sizes
/// count live mentions only — so the live slice of the output is exactly
/// what [`decode`] would produce on a graph that never contained the
/// retracted triples. `None` (or an all-true mask) is plain [`decode`].
pub fn decode_live(
    okb: &Okb,
    plan: &GraphPlan,
    marginals: &Marginals,
    config: &JoclConfig,
    diagnostics: Diagnostics,
    live: Option<&[bool]>,
) -> JoclOutput {
    let triple_live = |t: TripleId| live.is_none_or(|l| l[t.idx()]);
    // 1. MAP links (dead mentions stay unlinked).
    let mut np_links: Vec<Option<EntityId>> = plan
        .np_link_vars
        .iter()
        .enumerate()
        .map(|(m, v)| {
            if !triple_live(NpMention::from_dense(m).triple) {
                return None;
            }
            v.map(|var| plan.np_candidates[m][marginals.map_state(var) as usize])
        })
        .collect();
    let mut rp_links: Vec<Option<RelationId>> = plan
        .rp_link_vars
        .iter()
        .enumerate()
        .map(|(m, v)| {
            if !triple_live(TripleId(m as u32)) {
                return None;
            }
            v.map(|var| plan.rp_candidates[m][marginals.map_state(var) as usize])
        })
        .collect();

    // 2. Positive canonicalization pairs per family, as dense mention
    //    index pairs. Pairs with a tombstoned endpoint are skipped — a
    //    neutralized pair variable's marginal is (numerically) uniform,
    //    and uniform must not count as a merge.
    let positive = |pairs: &[(TripleId, TripleId, VarId)],
                    to_dense: &dyn Fn(TripleId) -> usize,
                    threshold: f64|
     -> Vec<(usize, usize)> {
        pairs
            .iter()
            .filter(|&&(a, b, v)| {
                triple_live(a) && triple_live(b) && marginals.prob(v, 1) > threshold
            })
            .map(|&(a, b, _)| (to_dense(a), to_dense(b)))
            .collect()
    };
    let subj_dense = |t: TripleId| NpMention { triple: t, slot: NpSlot::Subject }.dense();
    let obj_dense = |t: TripleId| NpMention { triple: t, slot: NpSlot::Object }.dense();
    let rp_dense = |t: TripleId| RpMention(t).dense();
    let mut np_positive = positive(&plan.subj_pair_vars, &subj_dense, 0.5);
    np_positive.extend(positive(&plan.obj_pair_vars, &obj_dense, 0.5));
    let rp_positive = positive(&plan.pred_pair_vars, &rp_dense, 0.5);

    // 3. Conflict resolution (§3.5) on both mention families. A pair must
    // be decisively positive ("has a value of 1") before it is allowed to
    // overwrite a linking decision.
    let mut np_confident = positive(&plan.subj_pair_vars, &subj_dense, 0.9);
    np_confident.extend(positive(&plan.obj_pair_vars, &obj_dense, 0.9));
    let rp_confident = positive(&plan.pred_pair_vars, &rp_dense, 0.9);
    resolve_conflicts(&np_confident, &mut np_links);
    resolve_conflicts(&rp_confident, &mut rp_links);

    // 4. Final clusterings: union positive pairs (+ same-link edges).
    let np_clustering =
        final_clustering(okb.num_np_mentions(), &np_positive, &np_links, config.merge_by_link);
    let rp_clustering =
        final_clustering(okb.num_rp_mentions(), &rp_positive, &rp_links, config.merge_by_link);

    JoclOutput {
        np_clustering,
        rp_clustering,
        np_links,
        rp_links,
        learned_params: None,
        diagnostics,
    }
}

/// Apply the paper's §3.5 rule: for every positive pair whose two
/// mentions link to different targets, relabel the mention(s) of the
/// smaller link-group with the larger group's target.
fn resolve_conflicts<T: Copy + Eq + std::hash::Hash>(
    positive_pairs: &[(usize, usize)],
    links: &mut [Option<T>],
) {
    // Link-group sizes.
    let mut group_size: FxHashMap<T, usize> = FxHashMap::default();
    for l in links.iter().flatten() {
        *group_size.entry(*l).or_insert(0) += 1;
    }
    for &(a, b) in positive_pairs {
        let (Some(la), Some(lb)) = (links[a], links[b]) else { continue };
        if la == lb {
            continue;
        }
        let (sa, sb) = (group_size[&la], group_size[&lb]);
        // Larger group wins; ties keep the first mention's label.
        let (winner, loser_mention, loser_label) = if sa >= sb { (la, b, lb) } else { (lb, a, la) };
        links[loser_mention] = Some(winner);
        *group_size.entry(winner).or_insert(0) += 1;
        if let Some(s) = group_size.get_mut(&loser_label) {
            *s = s.saturating_sub(1);
        }
    }
}

/// Union-find closure over positive pairs and (optionally) same-link
/// edges.
fn final_clustering<T: Copy + Eq + std::hash::Hash>(
    n: usize,
    positive_pairs: &[(usize, usize)],
    links: &[Option<T>],
    merge_by_link: bool,
) -> Clustering {
    let mut uf = UnionFind::new(n);
    for &(a, b) in positive_pairs {
        uf.union(a, b);
    }
    if merge_by_link {
        let mut first_with: FxHashMap<T, usize> = FxHashMap::default();
        for (m, l) in links.iter().enumerate() {
            if let Some(l) = l {
                match first_with.entry(*l) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        uf.union(*e.get(), m);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(m);
                    }
                }
            }
        }
    }
    uf.into_clustering()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_resolution_larger_group_wins() {
        // Mentions 0,1,2 link to A; mention 3 links to B; positive pair
        // (2, 3) forces B's mention into A.
        let mut links = vec![Some('A'), Some('A'), Some('A'), Some('B')];
        resolve_conflicts(&[(2, 3)], &mut links);
        assert_eq!(links[3], Some('A'));
        assert_eq!(links[2], Some('A'));
    }

    #[test]
    fn conflict_resolution_skips_unlinked() {
        let mut links: Vec<Option<char>> = vec![Some('A'), None];
        resolve_conflicts(&[(0, 1)], &mut links);
        assert_eq!(links[1], None, "unlinked mentions keep their state");
    }

    #[test]
    fn conflict_resolution_agreeing_pairs_untouched() {
        let mut links = vec![Some('A'), Some('A')];
        resolve_conflicts(&[(0, 1)], &mut links);
        assert_eq!(links, vec![Some('A'), Some('A')]);
    }

    #[test]
    fn final_clustering_unions_pairs_and_links() {
        // 5 mentions: pair (0,1); links: 2 and 3 both to X.
        let links = vec![None, None, Some('X'), Some('X'), None];
        let c = final_clustering(5, &[(0, 1)], &links, true);
        assert!(c.same(0, 1));
        assert!(c.same(2, 3));
        assert!(!c.same(0, 2));
        assert!(!c.same(0, 4));
        // Without merge_by_link, 2 and 3 stay separate.
        let c2 = final_clustering(5, &[(0, 1)], &links, false);
        assert!(!c2.same(2, 3));
    }

    #[test]
    fn chained_conflicts_converge_to_biggest_group() {
        // Groups: {0,1,2}→A, {3,4}→B, {5}→C; positive pairs 2-3 and 4-5.
        let mut links = vec![Some('A'), Some('A'), Some('A'), Some('B'), Some('B'), Some('C')];
        resolve_conflicts(&[(2, 3), (4, 5)], &mut links);
        assert_eq!(links[3], Some('A'));
        // After the first merge A has 4 members; mention 4 still links B;
        // pair (4,5): B group size 1 vs C size 1 → first mention wins.
        assert_eq!(links[5], Some('B'));
    }
}
