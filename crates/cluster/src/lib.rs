//! # jocl-cluster
//!
//! Clustering substrate for the JOCL reproduction.
//!
//! Two families of consumers:
//!
//! * the **baselines** of the paper (Text Similarity, IDF Token Overlap,
//!   Attribute Overlap, CESI, SIST) all cluster with **hierarchical
//!   agglomerative clustering** ([`hac`]) over a pairwise similarity;
//! * **JOCL's decoder** turns positive pairwise canonicalization marginals
//!   into groups via **union-find connected components** ([`UnionFind`]),
//!   per paper §3.5.
//!
//! [`Clustering`] is the common output type consumed by `jocl-eval`.

pub mod hac;
pub mod unionfind;

pub use hac::{hac_threshold, Linkage};
pub use unionfind::UnionFind;

/// A flat clustering of `n` items: `assignment[i]` is the cluster id of
/// item `i`. Cluster ids are dense (`0..num_clusters`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    assignment: Vec<u32>,
    num_clusters: u32,
}

impl Clustering {
    /// Build from an arbitrary (possibly sparse) label vector, re-mapping
    /// labels to dense ids in first-appearance order.
    pub fn from_labels(labels: &[u32]) -> Self {
        let mut remap = std::collections::HashMap::new();
        let mut assignment = Vec::with_capacity(labels.len());
        for &l in labels {
            let next = remap.len() as u32;
            let id = *remap.entry(l).or_insert(next);
            assignment.push(id);
        }
        Self { assignment, num_clusters: remap.len() as u32 }
    }

    /// Everything-is-a-singleton clustering of `n` items.
    pub fn singletons(n: usize) -> Self {
        Self { assignment: (0..n as u32).collect(), num_clusters: n as u32 }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when there are no items.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters as usize
    }

    /// Cluster id of item `i`.
    pub fn cluster_of(&self, i: usize) -> u32 {
        self.assignment[i]
    }

    /// The raw assignment vector.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Are items `i` and `j` in the same cluster?
    pub fn same(&self, i: usize, j: usize) -> bool {
        self.assignment[i] == self.assignment[j]
    }

    /// Materialize clusters as item-index lists, ordered by cluster id.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.num_clusters as usize];
        for (i, &c) in self.assignment.iter().enumerate() {
            groups[c as usize].push(i);
        }
        groups
    }

    /// Build a clustering of `n` items from an edge list: items connected
    /// (transitively) by an edge share a cluster.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut uf = UnionFind::new(n);
        for (a, b) in edges {
            uf.union(a, b);
        }
        uf.into_clustering()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_labels_densifies() {
        let c = Clustering::from_labels(&[7, 7, 2, 9, 2]);
        assert_eq!(c.num_clusters(), 3);
        assert!(c.same(0, 1));
        assert!(c.same(2, 4));
        assert!(!c.same(0, 2));
    }

    #[test]
    fn singletons() {
        let c = Clustering::singletons(4);
        assert_eq!(c.num_clusters(), 4);
        assert!(!c.same(0, 1));
    }

    #[test]
    fn groups_partition_items() {
        let c = Clustering::from_labels(&[0, 1, 0, 2, 1]);
        let groups = c.groups();
        assert_eq!(groups.len(), 3);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
        assert_eq!(groups[0], vec![0, 2]);
    }

    #[test]
    fn from_edges_components() {
        let c = Clustering::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
        assert_eq!(c.num_clusters(), 2);
        assert!(c.same(0, 2));
        assert!(c.same(3, 4));
        assert!(!c.same(2, 3));
    }

    #[test]
    fn empty_clustering() {
        let c = Clustering::from_labels(&[]);
        assert!(c.is_empty());
        assert_eq!(c.num_clusters(), 0);
        assert!(c.groups().is_empty());
    }
}
