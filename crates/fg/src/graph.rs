//! Factor graph representation.
//!
//! Variables are discrete with arbitrary cardinality; factors connect up
//! to a handful of distinct variables and carry an exponential-linear
//! potential referencing a shared parameter group (paper Eq. 1). Joint
//! configurations of a factor are flattened row-major with **slot 0
//! fastest**: `flat = Σ_k state_k · stride_k`, `stride_0 = 1`,
//! `stride_k = stride_{k-1} · card_{k-1}`.

use crate::params::Params;

/// Identifier of a variable node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// Index form for slice access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a factor node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactorId(pub u32);

impl FactorId {
    /// Index form for slice access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The potential (factor function) attached to a factor node.
#[derive(Debug, Clone)]
pub enum Potential {
    /// `log φ(c) = ω_g · f(c)`: one feature vector per flat configuration.
    /// Used for the paper's F1–F6 signal factors.
    Features {
        /// Parameter group holding ω_g.
        group: usize,
        /// `feats[flat_config]` = feature vector (all the same length as
        /// the group's weight vector).
        feats: Vec<Vec<f64>>,
    },
    /// `log φ(c) = ω_g[0] · u(c)`: a scalar score per flat configuration
    /// scaled by a single weight. Used for the paper's U1–U7 factors.
    Scores {
        /// Parameter group holding the scalar weight β.
        group: usize,
        /// `scores[flat_config]` = u(c).
        scores: Vec<f64>,
    },
    /// A two-level score table stored sparsely: `u(c) = high` for the
    /// listed configurations and `low` everywhere else. Semantically
    /// identical to [`Potential::Scores`] but O(|high|) memory instead of
    /// O(K³) — the natural representation for the fact-inclusion factor
    /// U4 (§3.2.5), whose score is 0.9 on CKB facts and 0.1 otherwise.
    TwoLevelScores {
        /// Parameter group holding the scalar weight β.
        group: usize,
        /// Total number of joint configurations.
        size: usize,
        /// Sorted flat indexes of high-scoring configurations.
        high_configs: Vec<u32>,
        /// Score of listed configurations.
        high: f64,
        /// Score of all other configurations.
        low: f64,
    },
}

impl Potential {
    /// Number of joint configurations covered.
    pub fn table_len(&self) -> usize {
        match self {
            Potential::Features { feats, .. } => feats.len(),
            Potential::Scores { scores, .. } => scores.len(),
            Potential::TwoLevelScores { size, .. } => *size,
        }
    }

    /// Parameter group referenced by this potential.
    pub fn group(&self) -> usize {
        match self {
            Potential::Features { group, .. }
            | Potential::Scores { group, .. }
            | Potential::TwoLevelScores { group, .. } => *group,
        }
    }

    /// The raw score `u(flat)` for score-style potentials (`None` for
    /// feature potentials). Random access; a pass over every
    /// configuration should use [`Potential::scores`].
    #[inline]
    pub fn score(&self, flat: usize) -> Option<f64> {
        match self {
            Potential::Features { .. } => None,
            Potential::Scores { scores, .. } => Some(scores[flat]),
            Potential::TwoLevelScores { high_configs, high, low, .. } => {
                Some(if high_configs.binary_search(&(flat as u32)).is_ok() { *high } else { *low })
            }
        }
    }

    /// The raw scores `u(c)` of every flat configuration in ascending
    /// order (`None` for feature potentials): each item equals
    /// [`Potential::score`] of its index, but a two-level table is walked
    /// with a cursor over its sorted `high_configs` instead of one binary
    /// search per configuration.
    pub fn scores(&self) -> Option<impl Iterator<Item = f64> + '_> {
        // Exactly one of the two chained parts is non-empty.
        let (dense, high_configs, high, low): (&[f64], &[u32], f64, f64) = match self {
            Potential::Features { .. } => return None,
            Potential::Scores { scores, .. } => (scores, &[], 0.0, 0.0),
            Potential::TwoLevelScores { high_configs, high, low, .. } => {
                (&[], high_configs, *high, *low)
            }
        };
        let mut next_high = high_configs.iter().peekable();
        let two_level = (0..self.table_len() - dense.len()).map(move |flat| {
            if next_high.next_if_eq(&&(flat as u32)).is_some() {
                high
            } else {
                low
            }
        });
        Some(dense.iter().copied().chain(two_level))
    }

    /// Log-potential of configuration `flat` under `params`. Random
    /// access; a pass over every configuration should use
    /// [`Potential::log_phi_into`].
    #[inline]
    pub fn log_phi(&self, params: &Params, flat: usize) -> f64 {
        match self {
            Potential::Features { group, feats } => dot(params.group(*group), &feats[flat]),
            Potential::Scores { .. } | Potential::TwoLevelScores { .. } => {
                params.group(self.group())[0] * self.score(flat).expect("score potential")
            }
        }
    }

    /// `log φ(c)` of every flat configuration in ascending order into
    /// `out` (overwritten); each entry is bitwise-equal to
    /// [`Potential::log_phi`] of its index.
    pub fn log_phi_into(&self, params: &Params, out: &mut Vec<f64>) {
        out.clear();
        match self {
            Potential::Features { group, feats } => {
                let w = params.group(*group);
                out.extend(feats.iter().map(|f| dot(w, f)));
            }
            Potential::Scores { .. } | Potential::TwoLevelScores { .. } => {
                let beta = params.group(self.group())[0];
                out.extend(self.scores().expect("score potential").map(|u| beta * u));
            }
        }
    }

    /// Build a [`Potential::TwoLevelScores`], sorting and deduplicating
    /// the high-config list.
    pub fn two_level(
        group: usize,
        size: usize,
        mut high_configs: Vec<u32>,
        high: f64,
        low: f64,
    ) -> Potential {
        high_configs.sort_unstable();
        high_configs.dedup();
        assert!(
            high_configs.last().is_none_or(|&c| (c as usize) < size),
            "high config out of range"
        );
        Potential::TwoLevelScores { group, size, high_configs, high, low }
    }

    /// Build a [`Potential::Scores`] from per-configuration probabilities
    /// in `[0, 1]` — the **side-information injection seam**: imported
    /// evidence (alias tables, external-KB links) enters inference as one
    /// of these unary score potentials on a linking variable, `u(c)` the
    /// calibrated belief that configuration `c` is the imported target,
    /// scaled by the side-information weight group like every other
    /// score factor. Centered at 0.5 so an uninformative probability
    /// contributes nothing relative to its alternatives.
    ///
    /// # Panics
    /// Panics on an empty table or any probability outside `[0, 1]`
    /// (non-finite included) — imported side information is validated at
    /// the boundary, never silently clamped.
    pub fn from_probs(group: usize, probs: Vec<f64>) -> Potential {
        assert!(!probs.is_empty(), "side-information potential needs at least one configuration");
        for &p in &probs {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "side-information probability must be in [0, 1], got {p}"
            );
        }
        Potential::Scores { group, scores: probs }
    }
}

/// `ω · f(c)` of a feature potential.
#[inline]
fn dot(w: &[f64], f: &[f64]) -> f64 {
    debug_assert_eq!(w.len(), f.len(), "feature/weight arity mismatch");
    w.iter().zip(f).map(|(wi, fi)| wi * fi).sum()
}

/// A discrete factor graph, and the one edge index that message passing
/// runs over.
///
/// An **edge** is one (factor, slot) pair. Edges are numbered
/// factor-major in slot order as factors are added, so appending
/// factors never renumbers an existing edge; factor `f`'s edges are
/// `factor_edge_start[f]..factor_edge_start[f + 1]`. Each edge owns a
/// run of `card(var)` slots in the LBP message arenas, at `edge_offset`.
/// Each variable lists its edge ids ascending, so every per-variable sum
/// over incoming messages adds in the same order however the graph grew.
#[derive(Debug, Clone)]
pub struct FactorGraph {
    cards: Vec<u32>,
    var_classes: Vec<u8>,
    factor_classes: Vec<u8>,
    potentials: Vec<Potential>,
    /// First edge of each factor, then the edge count
    /// (`num_factors + 1` entries).
    factor_edge_start: Vec<u32>,
    /// Variable of each edge; a factor's run is its variable list.
    pub(crate) edge_var: Vec<VarId>,
    /// Factor of each edge.
    pub(crate) edge_factor: Vec<FactorId>,
    /// Arena offset of each edge, then the arena length
    /// (`num_edges + 1` entries).
    edge_offset: Vec<u32>,
    /// Edge ids of each variable, ascending.
    pub(crate) var_edges: Vec<Vec<u32>>,
}

impl Default for FactorGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl FactorGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self {
            cards: Vec::new(),
            var_classes: Vec::new(),
            factor_classes: Vec::new(),
            potentials: Vec::new(),
            factor_edge_start: vec![0],
            edge_var: Vec::new(),
            edge_factor: Vec::new(),
            edge_offset: vec![0],
            var_edges: Vec::new(),
        }
    }

    /// Add a variable with `cardinality` states and scheduling class 0.
    pub fn add_var(&mut self, cardinality: u32) -> VarId {
        self.add_var_with_class(cardinality, 0)
    }

    /// Add a variable with an explicit scheduling `class` (used by the
    /// paper's phased message schedule, e.g. canonicalization vs linking
    /// variables).
    ///
    /// # Panics
    /// Panics with the reason [`FactorGraph::check_var`] gives.
    pub fn add_var_with_class(&mut self, cardinality: u32, class: u8) -> VarId {
        if let Err(why) = self.check_var(cardinality) {
            panic!("{why}");
        }
        let id = VarId(self.cards.len() as u32);
        self.cards.push(cardinality);
        self.var_classes.push(class);
        self.var_edges.push(Vec::new());
        id
    }

    /// Why a variable with `cardinality` states cannot be added, if it
    /// cannot: zero states, or no `u32` id left. The one statement of
    /// [`FactorGraph::add_var_with_class`]'s preconditions, so a snapshot
    /// import can report a violation as a typed error.
    pub fn check_var(&self, cardinality: u32) -> Result<(), String> {
        if cardinality == 0 {
            return Err("variables need at least one state".to_string());
        }
        if u32::try_from(self.cards.len()).is_err() {
            return Err("too many variables for u32 ids".to_string());
        }
        Ok(())
    }

    /// Add a factor over `vars` (distinct) with the given potential and
    /// scheduling class, appending one edge per variable.
    ///
    /// # Panics
    /// Panics with the reason [`FactorGraph::check_factor`] gives.
    pub fn add_factor(&mut self, vars: &[VarId], potential: Potential, class: u8) -> FactorId {
        if let Err(why) = self.check_factor(vars, &potential) {
            panic!("{why}");
        }
        // The arena bound of `check_factor` also bounds factor ids.
        let fid = FactorId(self.potentials.len() as u32);
        for v in vars {
            let end = self.arena_len() + self.cards[v.idx()] as usize;
            self.var_edges[v.idx()].push(self.edge_var.len() as u32);
            self.edge_var.push(*v);
            self.edge_factor.push(fid);
            self.edge_offset.push(end as u32);
        }
        self.factor_edge_start.push(self.num_edges() as u32);
        self.potentials.push(potential);
        self.factor_classes.push(class);
        fid
    }

    /// Why a factor over `vars` with `potential` cannot be added, if it
    /// cannot: no variables, an unknown or repeated variable, a table
    /// length other than the joint configuration count, or a message
    /// arena that would outgrow `u32` offsets. The one statement of
    /// [`FactorGraph::add_factor`]'s preconditions, so a snapshot import
    /// can report a violation as a typed error.
    pub fn check_factor(&self, vars: &[VarId], potential: &Potential) -> Result<(), String> {
        if vars.is_empty() {
            return Err("factors need at least one variable".to_string());
        }
        for (i, v) in vars.iter().enumerate() {
            if v.idx() >= self.cards.len() {
                return Err(format!("unknown variable {v:?}"));
            }
            if vars[..i].contains(v) {
                return Err(format!("repeated variable {v:?} in factor"));
            }
        }
        let cards = vars.iter().map(|v| self.cards[v.idx()] as usize);
        let size = cards.clone().fold(1usize, usize::saturating_mul);
        if potential.table_len() != size {
            return Err(format!(
                "potential table length {} must equal the joint configuration count {size}",
                potential.table_len()
            ));
        }
        // Every edge has at least one slot, so this also bounds edge ids.
        if u32::try_from(self.arena_len() + cards.sum::<usize>()).is_err() {
            return Err("factor graph outgrows u32 message-arena offsets".to_string());
        }
        Ok(())
    }

    /// Replace factor `f`'s potential with the **neutral** one: a sparse
    /// two-level table with no high configurations and both levels at
    /// score 0, so `log φ ≡ 0` for every joint configuration under any
    /// weights. A neutral factor passes no information — once its
    /// messages settle they are uniform, and the marginals of its
    /// variables are what they would be if the factor were absent.
    ///
    /// This is the **tombstone** primitive of the serving subsystem:
    /// retracting an OIE triple must remove its evidence from the model,
    /// but the factor graph is append-only (node ids are load-bearing
    /// for warm-started message passing), so the factor is down-weighted
    /// to nothing instead of being deleted. Structure (variables, class,
    /// table size, edges) is untouched; the O(table) feature/score
    /// payload is dropped, so a tombstoned graph also *shrinks* in
    /// memory. Idempotent.
    pub fn neutralize_factor(&mut self, f: FactorId) {
        let potential = &mut self.potentials[f.idx()];
        *potential = Potential::TwoLevelScores {
            group: potential.group(),
            size: potential.table_len(),
            high_configs: Vec::new(),
            high: 0.0,
            low: 0.0,
        };
    }

    /// Pre-size the node stores for `extra_vars` more variables and
    /// `extra_factors` more factors (edge lists grow on demand).
    /// Sharded builders call this once per merge so the insert loop never
    /// reallocates.
    pub fn reserve(&mut self, extra_vars: usize, extra_factors: usize) {
        self.cards.reserve(extra_vars);
        self.var_classes.reserve(extra_vars);
        self.var_edges.reserve(extra_vars);
        self.factor_classes.reserve(extra_factors);
        self.potentials.reserve(extra_factors);
        self.factor_edge_start.reserve(extra_factors);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.cards.len()
    }

    /// Number of factors.
    pub fn num_factors(&self) -> usize {
        self.potentials.len()
    }

    /// Number of edges (factor-slot pairs).
    pub fn num_edges(&self) -> usize {
        self.edge_var.len()
    }

    /// Message slots one LBP arena needs: the summed cardinality of
    /// every edge's variable.
    pub fn arena_len(&self) -> usize {
        self.edge_offset[self.num_edges()] as usize
    }

    /// Resident heap bytes of the graph: cardinalities, classes, the
    /// edge index and potential tables (capacity-based — what the
    /// allocator actually holds).
    pub fn heap_bytes(&self) -> usize {
        let potential = |p: &Potential| match p {
            Potential::Features { feats, .. } => {
                feats.capacity() * std::mem::size_of::<Vec<f64>>()
                    + feats.iter().map(|row| row.capacity() * 8).sum::<usize>()
            }
            Potential::Scores { scores, .. } => scores.capacity() * 8,
            Potential::TwoLevelScores { high_configs, .. } => high_configs.capacity() * 4,
        };
        let u32s = self.cards.capacity()
            + self.factor_edge_start.capacity()
            + self.edge_var.capacity()
            + self.edge_factor.capacity()
            + self.edge_offset.capacity();
        u32s * 4
            + self.var_classes.capacity()
            + self.factor_classes.capacity()
            + self.potentials.capacity() * std::mem::size_of::<Potential>()
            + self.potentials.iter().map(potential).sum::<usize>()
            + self.var_edges.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.var_edges.iter().map(|a| a.capacity() * 4).sum::<usize>()
    }

    /// Cardinality of variable `v`.
    pub fn cardinality(&self, v: VarId) -> u32 {
        self.cards[v.idx()]
    }

    /// Scheduling class of variable `v`.
    pub fn var_class(&self, v: VarId) -> u8 {
        self.var_classes[v.idx()]
    }

    /// Scheduling class of factor `f`.
    pub fn factor_class(&self, f: FactorId) -> u8 {
        self.factor_classes[f.idx()]
    }

    /// The variables of factor `f`, in slot order.
    pub fn factor_vars(&self, f: FactorId) -> &[VarId] {
        &self.edge_var[self.factor_edges(f.idx())]
    }

    /// The potential of factor `f`.
    pub fn factor_potential(&self, f: FactorId) -> &Potential {
        &self.potentials[f.idx()]
    }

    /// Factors adjacent to variable `v` as `(FactorId, slot)` pairs, in
    /// the order they were added.
    pub fn var_factors(&self, v: VarId) -> impl Iterator<Item = (FactorId, usize)> + '_ {
        self.var_edges[v.idx()].iter().map(|&e| {
            let f = self.edge_factor[e as usize];
            (f, e as usize - self.factor_edge_start[f.idx()] as usize)
        })
    }

    /// Degree (number of adjacent factors) of variable `v`.
    pub fn var_degree(&self, v: VarId) -> usize {
        self.var_edges[v.idx()].len()
    }

    /// Edge ids of factor `f`, in slot order.
    #[inline]
    pub(crate) fn factor_edges(&self, f: usize) -> std::ops::Range<usize> {
        self.factor_edge_start[f] as usize..self.factor_edge_start[f + 1] as usize
    }

    /// Arena slots of edge `e`: one per state of its variable.
    #[inline]
    pub(crate) fn edge_slots(&self, e: usize) -> std::ops::Range<usize> {
        self.edge_offset[e] as usize..self.edge_offset[e + 1] as usize
    }

    /// Flatten a per-slot state assignment of factor `f` into a table
    /// index.
    pub fn flat_index(&self, f: FactorId, states: &[u32]) -> usize {
        let vars = self.factor_vars(f);
        debug_assert_eq!(states.len(), vars.len());
        // Slot 0 varies fastest: Horner's rule from the last slot.
        let card = |v: &VarId| self.cards[v.idx()] as usize;
        states.iter().zip(vars).rev().fold(0, |flat, (&s, v)| flat * card(v) + s as usize)
    }

    /// Recover the state of slot `slot` from a flat table index of `f`.
    #[inline]
    pub fn state_of_slot(&self, f: FactorId, flat: usize, slot: usize) -> u32 {
        let vars = self.factor_vars(f);
        let stride: usize = vars[..slot].iter().map(|v| self.cards[v.idx()] as usize).product();
        ((flat / stride) % self.cards[vars[slot].idx()] as usize) as u32
    }

    /// Table size (number of joint configurations) of factor `f`.
    pub fn table_size(&self, f: FactorId) -> usize {
        self.potentials[f.idx()].table_len()
    }

    /// Sum of table sizes over all factors (a proxy for LBP iteration
    /// cost).
    pub fn total_table_size(&self) -> usize {
        self.potentials.iter().map(Potential::table_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unary(group: usize, feats: Vec<Vec<f64>>) -> Potential {
        Potential::Features { group, feats }
    }

    #[test]
    fn build_small_graph() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(3);
        let f = g.add_factor(&[a, b], Potential::Scores { group: 0, scores: vec![0.0; 6] }, 1);
        assert_eq!(g.num_vars(), 2);
        assert_eq!(g.num_factors(), 1);
        assert_eq!(g.table_size(f), 6);
        assert_eq!(g.factor_class(f), 1);
        assert_eq!(g.var_degree(a), 1);
        let adj: Vec<_> = g.var_factors(b).collect();
        assert_eq!(adj, vec![(f, 1)]);
    }

    #[test]
    fn flat_indexing_roundtrip() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(3);
        let c = g.add_var(4);
        let f = g.add_factor(&[a, b, c], Potential::Scores { group: 0, scores: vec![0.0; 24] }, 0);
        for sa in 0..2u32 {
            for sb in 0..3u32 {
                for sc in 0..4u32 {
                    let flat = g.flat_index(f, &[sa, sb, sc]);
                    assert_eq!(g.state_of_slot(f, flat, 0), sa);
                    assert_eq!(g.state_of_slot(f, flat, 1), sb);
                    assert_eq!(g.state_of_slot(f, flat, 2), sc);
                }
            }
        }
    }

    #[test]
    fn log_phi_features_dot_product() {
        let mut params = Params::new();
        let grp = params.add_group_with(vec![2.0, -1.0]);
        let pot = unary(grp, vec![vec![1.0, 0.5], vec![0.0, 1.0]]);
        assert!((pot.log_phi(&params, 0) - 1.5).abs() < 1e-12);
        assert!((pot.log_phi(&params, 1) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_phi_scores_scaled() {
        let mut params = Params::new();
        let grp = params.add_group_with(vec![3.0]);
        let pot = Potential::Scores { group: grp, scores: vec![0.9, 0.1] };
        assert!((pot.log_phi(&params, 0) - 2.7).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "repeated variable")]
    fn repeated_var_panics() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        g.add_factor(&[a, a], Potential::Scores { group: 0, scores: vec![0.0; 4] }, 0);
    }

    #[test]
    #[should_panic(expected = "table length")]
    fn wrong_table_len_panics() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        g.add_factor(&[a], Potential::Scores { group: 0, scores: vec![0.0; 3] }, 0);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn zero_cardinality_panics() {
        let mut g = FactorGraph::new();
        g.add_var(0);
    }

    #[test]
    fn var_classes() {
        let mut g = FactorGraph::new();
        let a = g.add_var_with_class(2, 7);
        assert_eq!(g.var_class(a), 7);
    }

    /// The append-safe growth contract the incremental pipeline relies
    /// on: adding vars/factors never renumbers existing nodes or edges,
    /// never moves an edge's arena slots, never reorders existing
    /// adjacency, and leaves existing potentials untouched — the grown
    /// graph is the two-stage build of the same final structure.
    #[test]
    fn append_preserves_existing_structure() {
        let stage1 = |g: &mut FactorGraph| {
            let a = g.add_var(2);
            let b = g.add_var(3);
            g.add_factor(&[a], Potential::Scores { group: 0, scores: vec![0.1, 0.9] }, 1);
            g.add_factor(&[a, b], Potential::Scores { group: 0, scores: vec![0.0; 6] }, 2);
        };
        let mut grown = FactorGraph::new();
        stage1(&mut grown);
        let before = format!("{grown:?}");
        // Append a second stage touching an old variable.
        let c = grown.add_var(2);
        grown.add_factor(&[VarId(0), c], Potential::Scores { group: 0, scores: vec![0.0; 4] }, 3);
        assert_eq!(c, VarId(2), "ids keep advancing");
        assert_eq!(grown.num_factors(), 3);
        // Old factors and their var lists are untouched…
        let mut prefix = FactorGraph::new();
        stage1(&mut prefix);
        for f in 0..prefix.num_factors() {
            let f = FactorId(f as u32);
            assert_eq!(grown.factor_vars(f), prefix.factor_vars(f));
            assert_eq!(grown.factor_class(f), prefix.factor_class(f));
        }
        // …and old adjacency lists only gain appended entries.
        let adj_a: Vec<_> = grown.var_factors(VarId(0)).collect();
        assert_eq!(adj_a, vec![(FactorId(0), 0), (FactorId(1), 0), (FactorId(2), 0)]);
        let adj_b: Vec<_> = grown.var_factors(VarId(1)).collect();
        assert_eq!(adj_b, vec![(FactorId(1), 1)]);
        assert!(before.len() < format!("{grown:?}").len());
        // Old edges keep their ids, variables, factors and arena offsets…
        assert_eq!((prefix.num_edges(), grown.num_edges()), (3, 5));
        for e in 0..prefix.num_edges() {
            assert_eq!(grown.edge_var[e], prefix.edge_var[e], "edge {e}");
            assert_eq!(grown.edge_factor[e], prefix.edge_factor[e], "edge {e}");
            assert_eq!(grown.edge_slots(e), prefix.edge_slots(e), "edge {e}");
        }
        assert_eq!(grown.arena_len(), prefix.arena_len() + 2 + 2);
        // …every edge list stays ascending, and the two directions of
        // the index agree.
        for v in 0..grown.num_vars() {
            assert!(grown.var_edges[v].windows(2).all(|w| w[0] < w[1]), "var {v}");
            for (f, slot) in grown.var_factors(VarId(v as u32)) {
                assert_eq!(grown.factor_vars(f)[slot], VarId(v as u32));
            }
        }
        for f in 0..grown.num_factors() {
            let f = FactorId(f as u32);
            for (slot, &v) in grown.factor_vars(f).iter().enumerate() {
                assert!(grown.var_factors(v).any(|adj| adj == (f, slot)), "{f:?} slot {slot}");
            }
        }
    }

    /// The tombstone primitive: a neutralized factor scores 0 on every
    /// configuration under any weights, while structure (vars, class,
    /// adjacency, table size) is untouched and the call is idempotent.
    #[test]
    fn neutralized_factor_is_uniform_under_any_weights() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(3);
        let f = g.add_factor(&[a, b], unary(0, (0..6).map(|i| vec![i as f64, 1.0]).collect()), 7);
        let mut params = Params::new();
        params.add_group_with(vec![2.0, -1.0]);
        assert!(g.factor_potential(f).log_phi(&params, 3) != 0.0);
        g.neutralize_factor(f);
        for flat in 0..g.table_size(f) {
            assert_eq!(g.factor_potential(f).log_phi(&params, flat), 0.0);
            assert_eq!(g.factor_potential(f).score(flat), Some(0.0));
        }
        assert_eq!(g.factor_vars(f), &[a, b]);
        assert_eq!(g.factor_class(f), 7);
        assert_eq!(g.table_size(f), 6);
        assert_eq!(g.var_degree(a), 1, "adjacency survives the tombstone");
        g.neutralize_factor(f); // idempotent
        assert_eq!(g.factor_potential(f).log_phi(&params, 0), 0.0);
    }

    /// The in-order passes (`scores`, `log_phi_into`) equal random access
    /// (`score`, `log_phi`) bit for bit, for every potential kind and for
    /// two-level tables with empty, sparse and full high lists.
    #[test]
    fn ordered_passes_match_random_access_bitwise() {
        let mut params = Params::new();
        params.add_group_with(vec![1.7, -0.3]);
        params.add_group_with(vec![-2.9]);
        let potentials = [
            unary(0, (0..6).map(|i| vec![0.1 * i as f64, 1.0 / (i + 1) as f64]).collect()),
            Potential::Scores { group: 1, scores: (0..6).map(|i| (i as f64).sin()).collect() },
            Potential::two_level(1, 6, vec![], 0.9, 0.1),
            Potential::two_level(1, 6, vec![0, 3, 5], 0.9, 0.1),
            Potential::two_level(1, 6, (0..6).collect(), 0.9, 0.1),
        ];
        let mut out = Vec::new();
        for p in &potentials {
            p.log_phi_into(&params, &mut out);
            assert_eq!(out.len(), p.table_len());
            let scores: Option<Vec<f64>> = p.scores().map(Iterator::collect);
            for (flat, x) in out.iter().enumerate() {
                assert_eq!(x.to_bits(), p.log_phi(&params, flat).to_bits(), "{p:?} @ {flat}");
                let ordered = scores.as_ref().map(|s| s[flat].to_bits());
                assert_eq!(ordered, p.score(flat).map(f64::to_bits), "{p:?} @ {flat}");
            }
        }
    }

    /// The side-information seam: `from_probs` is an ordinary unary
    /// score potential (`log φ = β · p`), and out-of-range or non-finite
    /// probabilities are rejected at the boundary.
    #[test]
    fn from_probs_is_a_scaled_score_potential() {
        let p = Potential::from_probs(3, vec![0.95, 0.05, 0.5]);
        assert_eq!(p.group(), 3);
        assert_eq!(p.table_len(), 3);
        let mut params = Params::new();
        for _ in 0..4 {
            params.add_group(1, 2.0);
        }
        assert_eq!(p.log_phi(&params, 0), 2.0 * 0.95);
        assert_eq!(p.score(1), Some(0.05));
        for bad in [vec![1.5], vec![-0.1], vec![f64::NAN], vec![f64::INFINITY], vec![]] {
            assert!(
                std::panic::catch_unwind(|| Potential::from_probs(0, bad.clone())).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn reserve_is_observably_inert() {
        let mut g = FactorGraph::new();
        g.reserve(100, 100);
        assert_eq!(g.num_vars(), 0);
        assert_eq!(g.num_factors(), 0);
        let v = g.add_var(2);
        g.add_factor(&[v], Potential::Scores { group: 0, scores: vec![0.0, 1.0] }, 0);
        assert_eq!(g.num_factors(), 1);
    }
}
