//! BIRCH (Zhang, Ramakrishnan & Livny, SIGMOD 1996) — the classic
//! memory-bounded clusterer the paper cites as related work (§2.2, \[30\]).
//!
//! Phase 1 builds a CF-tree in one scan: each leaf entry is a *clustering
//! feature* `(N, LS, SS)` summarizing the points absorbed into it; a point
//! is absorbed into the closest leaf entry if the merged entry's radius
//! stays under the threshold `T`, otherwise it starts a new entry, and
//! overfull nodes split B-tree style. Phase 3 ("global clustering") runs
//! weighted k-means over the leaf entries' centroids — which reuses this
//! repo's core weighted Lloyd, exactly the way BIRCH's authors suggest
//! plugging in an existing clusterer.

use pmkm_core::config::SeedMode;
use pmkm_core::error::{Error, Result};
use pmkm_core::{kmeans, Centroids, Dataset, KMeansConfig, PointSource, WeightedSet};
use serde::Serialize;
use std::time::{Duration, Instant};

/// A clustering feature: count, linear sum and scalar square sum.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringFeature {
    /// Number of points absorbed.
    pub n: f64,
    /// Per-dimension linear sum.
    pub ls: Vec<f64>,
    /// Sum of squared norms `Σ ‖x‖²`.
    pub ss: f64,
}

impl ClusteringFeature {
    /// A CF holding a single point.
    pub fn from_point(p: &[f64]) -> Self {
        Self { n: 1.0, ls: p.to_vec(), ss: p.iter().map(|x| x * x).sum() }
    }

    /// CF additivity: absorbs `other`.
    pub fn merge(&mut self, other: &ClusteringFeature) {
        self.n += other.n;
        for (a, b) in self.ls.iter_mut().zip(&other.ls) {
            *a += b;
        }
        self.ss += other.ss;
    }

    /// Centroid `LS / N`.
    pub fn centroid(&self) -> Vec<f64> {
        self.ls.iter().map(|x| x / self.n).collect()
    }

    /// Radius: RMS distance of the member points from the centroid,
    /// `√(SS/N − ‖LS/N‖²)` (clamped at 0 against rounding).
    pub fn radius(&self) -> f64 {
        let mean_sq = self.ss / self.n;
        let c_norm_sq: f64 = self.centroid().iter().map(|x| x * x).sum();
        (mean_sq - c_norm_sq).max(0.0).sqrt()
    }

    /// Squared distance between two CF centroids.
    fn centroid_sq_dist(&self, other: &ClusteringFeature) -> f64 {
        self.centroid().iter().zip(other.centroid()).map(|(a, b)| (a - b) * (a - b)).sum()
    }
}

/// BIRCH parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BirchConfig {
    /// Branching factor `B` of internal nodes.
    pub branching: usize,
    /// Maximum entries per leaf `L`.
    pub max_leaf_entries: usize,
    /// Absorption threshold `T` on the merged entry's radius.
    pub threshold: f64,
    /// Global-phase cluster count `k`.
    pub k: usize,
    /// Restarts of the global weighted k-means.
    pub restarts: usize,
    /// RNG seed for the global phase.
    pub seed: u64,
}

impl Default for BirchConfig {
    fn default() -> Self {
        Self { branching: 8, max_leaf_entries: 16, threshold: 1.0, k: 8, restarts: 3, seed: 0 }
    }
}

impl BirchConfig {
    fn validate(&self) -> Result<()> {
        if self.branching < 2 || self.max_leaf_entries < 2 {
            return Err(Error::InvalidConfig("branching and leaf size must be >= 2".into()));
        }
        if !(self.threshold.is_finite() && self.threshold >= 0.0) {
            return Err(Error::InvalidConfig("threshold must be finite and >= 0".into()));
        }
        if self.k == 0 {
            return Err(Error::ZeroK);
        }
        if self.restarts == 0 {
            return Err(Error::InvalidConfig("restarts must be >= 1".into()));
        }
        Ok(())
    }
}

enum Node {
    Leaf { entries: Vec<ClusteringFeature> },
    Internal { children: Vec<(ClusteringFeature, Box<Node>)> },
}

impl Node {
    fn cf(&self, dim: usize) -> ClusteringFeature {
        let mut total = ClusteringFeature { n: 0.0, ls: vec![0.0; dim], ss: 0.0 };
        match self {
            Node::Leaf { entries } => {
                for e in entries {
                    total.merge(e);
                }
            }
            Node::Internal { children } => {
                for (cf, _) in children {
                    total.merge(cf);
                }
            }
        }
        total
    }
}

/// The CF-tree (phase 1 of BIRCH).
pub struct CfTree {
    root: Node,
    dim: usize,
    cfg: BirchConfig,
    points: usize,
}

impl CfTree {
    /// An empty tree for `dim`-dimensional points.
    pub fn new(dim: usize, cfg: BirchConfig) -> Result<Self> {
        cfg.validate()?;
        if dim == 0 {
            return Err(Error::InvalidConfig("dimension must be >= 1".into()));
        }
        Ok(Self { root: Node::Leaf { entries: Vec::new() }, dim, cfg, points: 0 })
    }

    /// Inserts one point.
    pub fn insert(&mut self, p: &[f64]) -> Result<()> {
        if p.len() != self.dim {
            return Err(Error::DimensionMismatch { expected: self.dim, actual: p.len() });
        }
        let cf = ClusteringFeature::from_point(p);
        let cfg = self.cfg;
        if let Some(sibling) = insert_rec(&mut self.root, cf, &cfg) {
            // Root split: grow a new root.
            let old = std::mem::replace(&mut self.root, Node::Leaf { entries: Vec::new() });
            let old_cf = old.cf(self.dim);
            let sib_cf = sibling.cf(self.dim);
            self.root = Node::Internal {
                children: vec![(old_cf, Box::new(old)), (sib_cf, Box::new(sibling))],
            };
        }
        self.points += 1;
        Ok(())
    }

    /// Number of points inserted.
    pub fn points(&self) -> usize {
        self.points
    }

    /// All leaf entries as weighted centroids (input to the global phase).
    pub fn leaf_entries(&self) -> Result<WeightedSet> {
        let mut ws = WeightedSet::new(self.dim)?;
        collect_leaves(&self.root, &mut ws)?;
        Ok(ws)
    }

    /// Tree height (1 for a bare leaf root).
    pub fn height(&self) -> usize {
        fn depth(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Internal { children } => {
                    1 + children.iter().map(|(_, c)| depth(c)).max().unwrap_or(0)
                }
            }
        }
        depth(&self.root)
    }
}

fn collect_leaves(node: &Node, out: &mut WeightedSet) -> Result<()> {
    match node {
        Node::Leaf { entries } => {
            for e in entries {
                out.push(&e.centroid(), e.n)?;
            }
        }
        Node::Internal { children } => {
            for (_, c) in children {
                collect_leaves(c, out)?;
            }
        }
    }
    Ok(())
}

/// Recursive insertion; returns a new sibling node if `node` split.
fn insert_rec(node: &mut Node, cf: ClusteringFeature, cfg: &BirchConfig) -> Option<Node> {
    match node {
        Node::Leaf { entries } => {
            // Closest entry by centroid distance.
            if let Some((idx, _)) = entries
                .iter()
                .enumerate()
                .map(|(i, e)| (i, e.centroid_sq_dist(&cf)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            {
                let mut merged = entries[idx].clone();
                merged.merge(&cf);
                if merged.radius() <= cfg.threshold {
                    entries[idx] = merged;
                    return None;
                }
            }
            entries.push(cf);
            if entries.len() <= cfg.max_leaf_entries {
                return None;
            }
            // Split: two farthest entries seed the halves.
            let moved = split_entries(entries);
            Some(Node::Leaf { entries: moved })
        }
        Node::Internal { children } => {
            // Descend into the child whose CF centroid is closest.
            let idx = children
                .iter()
                .enumerate()
                .map(|(i, (ccf, _))| (i, ccf.centroid_sq_dist(&cf)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .expect("internal nodes always have children");
            children[idx].0.merge(&cf);
            let split = insert_rec(&mut children[idx].1, cf, cfg);
            if let Some(sibling) = split {
                // The child split: refresh its CF and adopt the sibling.
                let dim = children[idx].0.ls.len();
                children[idx].0 = children[idx].1.cf(dim);
                let sib_cf = sibling.cf(dim);
                children.push((sib_cf, Box::new(sibling)));
                if children.len() > cfg.branching {
                    let moved = split_children(children);
                    return Some(Node::Internal { children: moved });
                }
            }
            None
        }
    }
}

/// Splits an overfull entry list: the two entries farthest apart seed the
/// two halves; everything else joins its closer seed. Returns the entries
/// moved to the new sibling.
fn split_entries(entries: &mut Vec<ClusteringFeature>) -> Vec<ClusteringFeature> {
    let (a, b) = farthest_pair(entries.iter().map(|e| e.centroid()).collect());
    let all: Vec<ClusteringFeature> = std::mem::take(entries);
    let mut right = Vec::new();
    let (ca, cb) = (all[a].centroid(), all[b].centroid());
    for (i, e) in all.into_iter().enumerate() {
        let c = e.centroid();
        let da: f64 = c.iter().zip(&ca).map(|(x, y)| (x - y) * (x - y)).sum();
        let db: f64 = c.iter().zip(&cb).map(|(x, y)| (x - y) * (x - y)).sum();
        if db < da || (i == b && a != b) {
            right.push(e);
        } else {
            entries.push(e);
        }
    }
    // Guard against degenerate all-identical splits.
    if entries.is_empty() {
        entries.push(right.pop().expect("at least one entry exists"));
    }
    if right.is_empty() {
        right.push(entries.pop().expect("at least two entries exist"));
    }
    right
}

fn split_children(
    children: &mut Vec<(ClusteringFeature, Box<Node>)>,
) -> Vec<(ClusteringFeature, Box<Node>)> {
    let (a, b) = farthest_pair(children.iter().map(|(cf, _)| cf.centroid()).collect());
    let all: Vec<(ClusteringFeature, Box<Node>)> = std::mem::take(children);
    let mut right = Vec::new();
    let (ca, cb) = (all[a].0.centroid(), all[b].0.centroid());
    for (i, e) in all.into_iter().enumerate() {
        let c = e.0.centroid();
        let da: f64 = c.iter().zip(&ca).map(|(x, y)| (x - y) * (x - y)).sum();
        let db: f64 = c.iter().zip(&cb).map(|(x, y)| (x - y) * (x - y)).sum();
        if db < da || (i == b && a != b) {
            right.push(e);
        } else {
            children.push(e);
        }
    }
    if children.is_empty() {
        children.push(right.pop().expect("at least one child exists"));
    }
    if right.is_empty() {
        right.push(children.pop().expect("at least two children exist"));
    }
    right
}

/// Indices of the two centroids farthest apart (O(m²), m is node size).
fn farthest_pair(centroids: Vec<Vec<f64>>) -> (usize, usize) {
    let m = centroids.len();
    let (mut bi, mut bj, mut best) = (0, m.saturating_sub(1), -1.0);
    for i in 0..m {
        for j in (i + 1)..m {
            let d: f64 =
                centroids[i].iter().zip(&centroids[j]).map(|(a, b)| (a - b) * (a - b)).sum();
            if d > best {
                best = d;
                bi = i;
                bj = j;
            }
        }
    }
    (bi, bj)
}

/// BIRCH end-to-end result.
#[derive(Debug, Clone)]
pub struct BirchResult {
    /// Final `k` centroids from the global phase.
    pub centroids: Centroids,
    /// Weight (point count) captured by each centroid.
    pub cluster_weights: Vec<f64>,
    /// Number of leaf entries the tree compressed the data into.
    pub leaf_entries: usize,
    /// CF-tree height.
    pub tree_height: usize,
    /// Wall time (build + global phase).
    pub elapsed: Duration,
}

/// Runs BIRCH phases 1 + 3 on one in-memory cell.
///
/// # Examples
/// ```
/// use pmkm_baselines::{birch, BirchConfig};
/// use pmkm_core::Dataset;
/// let cell = Dataset::from_rows(&[[0.0], [0.1], [50.0], [50.1], [50.2]])?;
/// let cfg = BirchConfig { k: 2, threshold: 1.0, ..BirchConfig::default() };
/// let out = birch(&cell, &cfg)?;
/// assert_eq!(out.centroids.k(), 2);
/// assert_eq!(out.cluster_weights.iter().sum::<f64>(), 5.0);
/// # Ok::<(), pmkm_core::Error>(())
/// ```
pub fn birch(cell: &Dataset, cfg: &BirchConfig) -> Result<BirchResult> {
    cfg.validate()?;
    if cell.is_empty() {
        return Err(Error::EmptyDataset);
    }
    let started = Instant::now();
    let mut tree = CfTree::new(cell.dim(), *cfg)?;
    for p in cell.iter() {
        tree.insert(p)?;
    }
    let leaves = tree.leaf_entries()?;
    let leaf_entries = leaves.len();
    // Global phase: weighted k-means over the leaf centroids.
    let (centroids, cluster_weights) = if leaf_entries <= cfg.k {
        let flat: Vec<f64> = leaves.iter().flat_map(|(c, _)| c.iter().copied()).collect();
        (Centroids::from_flat(cell.dim(), flat)?, leaves.weights().to_vec())
    } else {
        let kcfg = KMeansConfig {
            k: cfg.k,
            restarts: cfg.restarts,
            seed_mode: SeedMode::HeaviestPoints,
            lloyd: Default::default(),
            seed: cfg.seed,
        };
        let out = kmeans(&leaves, &kcfg)?;
        (out.best.centroids, out.best.cluster_weights)
    };
    Ok(BirchResult {
        centroids,
        cluster_weights,
        leaf_entries,
        tree_height: tree.height(),
        elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmkm_core::metrics;

    fn blob_cell(n_per: usize) -> Dataset {
        let mut ds = Dataset::new(2).unwrap();
        for i in 0..n_per {
            let o = (i % 9) as f64 * 0.05;
            ds.push(&[o, o]).unwrap();
            ds.push(&[20.0 + o, 20.0 - o]).unwrap();
            ds.push(&[-20.0 - o, 20.0 + o]).unwrap();
        }
        ds
    }

    #[test]
    fn cf_merge_is_additive() {
        let mut a = ClusteringFeature::from_point(&[1.0, 2.0]);
        let b = ClusteringFeature::from_point(&[3.0, 4.0]);
        a.merge(&b);
        assert_eq!(a.n, 2.0);
        assert_eq!(a.ls, vec![4.0, 6.0]);
        assert_eq!(a.ss, 1.0 + 4.0 + 9.0 + 16.0);
        assert_eq!(a.centroid(), vec![2.0, 3.0]);
    }

    #[test]
    fn cf_radius_hand_checked() {
        // Points 0 and 2 on a line: centroid 1, radius 1.
        let mut cf = ClusteringFeature::from_point(&[0.0]);
        cf.merge(&ClusteringFeature::from_point(&[2.0]));
        assert!((cf.radius() - 1.0).abs() < 1e-12);
        // Single point has radius 0.
        assert_eq!(ClusteringFeature::from_point(&[5.0]).radius(), 0.0);
    }

    #[test]
    fn tree_compresses_tight_blobs_into_few_entries() {
        let ds = blob_cell(100); // 300 points, 3 tight blobs
        let cfg = BirchConfig { threshold: 2.0, k: 3, ..BirchConfig::default() };
        let mut tree = CfTree::new(2, cfg).unwrap();
        for p in ds.iter() {
            tree.insert(p).unwrap();
        }
        let leaves = tree.leaf_entries().unwrap();
        assert!(leaves.len() <= 12, "leaves = {}", leaves.len());
        assert_eq!(leaves.total_weight(), 300.0);
    }

    #[test]
    fn tree_splits_grow_height() {
        // Threshold 0 forces one entry per distinct point → many splits.
        let mut ds = Dataset::new(1).unwrap();
        for i in 0..200 {
            ds.push(&[i as f64 * 10.0]).unwrap();
        }
        let cfg = BirchConfig {
            threshold: 0.0,
            branching: 3,
            max_leaf_entries: 3,
            ..BirchConfig::default()
        };
        let mut tree = CfTree::new(1, cfg).unwrap();
        for p in ds.iter() {
            tree.insert(p).unwrap();
        }
        assert!(tree.height() > 2, "height = {}", tree.height());
        let leaves = tree.leaf_entries().unwrap();
        assert_eq!(leaves.len(), 200);
        assert_eq!(leaves.total_weight(), 200.0);
    }

    #[test]
    fn birch_recovers_blob_structure() {
        let ds = blob_cell(80);
        let cfg = BirchConfig { threshold: 2.0, k: 3, seed: 4, ..BirchConfig::default() };
        let out = birch(&ds, &cfg).unwrap();
        assert_eq!(out.centroids.k(), 3);
        let total: f64 = out.cluster_weights.iter().sum();
        assert_eq!(total, 240.0);
        let mse = metrics::mse_against(&ds, &out.centroids).unwrap();
        assert!(mse < 2.0, "mse = {mse}");
    }

    #[test]
    fn birch_with_k_larger_than_leaves_passes_through() {
        let ds = blob_cell(50);
        let cfg = BirchConfig { threshold: 50.0, k: 40, ..BirchConfig::default() };
        let out = birch(&ds, &cfg).unwrap();
        // Enormous threshold ⇒ very few leaf entries ⇒ passthrough.
        assert_eq!(out.centroids.k(), out.leaf_entries);
        assert!(out.leaf_entries < 40);
    }

    #[test]
    fn birch_input_validation() {
        let empty = Dataset::new(2).unwrap();
        assert!(matches!(birch(&empty, &BirchConfig::default()), Err(Error::EmptyDataset)));
        let ds = blob_cell(5);
        assert!(birch(&ds, &BirchConfig { branching: 1, ..BirchConfig::default() }).is_err());
        assert!(birch(&ds, &BirchConfig { k: 0, ..BirchConfig::default() }).is_err());
        assert!(birch(&ds, &BirchConfig { threshold: -1.0, ..BirchConfig::default() }).is_err());
        let mut tree = CfTree::new(2, BirchConfig::default()).unwrap();
        assert!(tree.insert(&[1.0]).is_err());
    }

    #[test]
    fn insertion_order_independence_of_weight_total() {
        let ds = blob_cell(30);
        let cfg = BirchConfig { threshold: 1.0, ..BirchConfig::default() };
        let mut fwd = CfTree::new(2, cfg).unwrap();
        for p in ds.iter() {
            fwd.insert(p).unwrap();
        }
        let mut rev = CfTree::new(2, cfg).unwrap();
        let pts: Vec<&[f64]> = ds.iter().collect();
        for p in pts.iter().rev() {
            rev.insert(p).unwrap();
        }
        assert_eq!(
            fwd.leaf_entries().unwrap().total_weight(),
            rev.leaf_entries().unwrap().total_weight()
        );
    }
}
