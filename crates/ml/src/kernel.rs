//! Columnar batch kernels for trees and forests.
//!
//! The classical scoring path ([`crate::pipeline::Pipeline::predict`])
//! materializes the full featurized matrix and walks every tree
//! pointer-chasing row-at-a-time. For forest-heavy serving workloads that
//! leaves an order of magnitude on the table: the per-row walk touches
//! `TreeNode` enums scattered through an arena, and featurization expands
//! every one-hot indicator even though a tree only ever *reads* the
//! handful of features it splits on.
//!
//! [`FlatForest`] is the compiled alternative: every node packed into 16
//! contiguous bytes (pre-shifted feature slot + right-child index in one
//! `u64`, threshold beside it — a traversal step is **one aligned
//! 16-byte load** plus the feature value, with leaf values in a separate
//! cold array), renumbered in BFS order so children sit in adjacent
//! pairs, traversed *branchlessly* one pass per tree over a whole morsel
//! of rows in cache-sized row blocks, with featurization **fused into
//! the column gather** so only the features some split actually consumes
//! are ever computed — once per batch, not once per row.
//!
//! Numerical contract: the kernel is **bit-identical** to the scalar
//! path. It performs exactly the same primitive operations in exactly the
//! same order per row — `(x - mean) / std` scaling, `raw == index`
//! one-hot indicators, `x <= threshold` routing (NaN compares false and
//! therefore routes **right**, matching [`crate::tree::DecisionTree::predict_row`]),
//! and tree-order summation divided once by the tree count. The
//! differential proptest suite in `tests/kernel_differential.rs` enforces
//! this with `f64::to_bits` equality.

use crate::error::MlError;
use crate::pipeline::{Estimator, Pipeline};
use crate::tree::{DecisionTree, TreeNode};
use crate::Result;

/// How to materialize one gathered feature column from the kernel's raw
/// input matrix (fused featurization).
///
/// `step` indexes the kernel's input columns: the pipeline's raw encoded
/// inputs (`[rows × steps]`) for [`FlatForest::from_pipeline`], or the
/// already-featurized matrix for [`FlatForest::from_estimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureSource {
    /// Pass the input value through unchanged (identity featurization, or
    /// an already-featurized input).
    Raw { step: usize },
    /// Z-score scale: `(x - mean) / std` — fused [`crate::featurize::StandardScaler`].
    Scaled { step: usize, mean: f64, std: f64 },
    /// One-hot indicator: `1.0` iff the raw category index equals `index`
    /// — fused [`crate::featurize::OneHotEncoder`] for a single category.
    OneHot { step: usize, index: f64 },
}

/// One flattened node: 16 bytes, so four interleaved trees' hot node sets
/// stay L1-resident and a traversal step issues two loads, not four.
///
/// `packed` holds two `u32` halves:
/// - **low**: the gathered-column slot pre-shifted by
///   [`FlatForest::BLOCK_SHIFT`] — the offset of this split's column
///   inside the per-block gather buffer, so the hot loop indexes with one
///   add and no multiply. Slots index the *gathered* columns (not the
///   model's full feature space — unused features are never
///   materialized).
/// - **high**: the **right** child's flat index. Children are laid out
///   as adjacent pairs ([`FlatForest::build`] renumbers in BFS order), so
///   the left child is always `right - 1` and the step computes
///   `right - (x <= threshold) as u32`.
///
/// Leaves carry `threshold = NaN` — every comparison is false, so the
/// step always takes the "right" branch — and `right = self`, which
/// makes them self-loop for *all* inputs, NaN included.
/// 16-byte alignment lets the x86-64 hot loop fetch a whole node with a
/// single aligned 16-byte load.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(16))]
struct FlatNode {
    packed: u64,
    threshold: f64,
}

impl PartialEq for FlatNode {
    fn eq(&self, other: &Self) -> bool {
        // Bitwise on the threshold: leaves carry NaN, and two identical
        // layouts must compare equal (plan equality relies on it).
        self.packed == other.packed && self.threshold.to_bits() == other.threshold.to_bits()
    }
}

impl FlatNode {
    fn new(col_slot: u32, right: u32, threshold: f64) -> FlatNode {
        FlatNode {
            packed: ((right as u64) << 32) | ((col_slot << FlatForest::BLOCK_SHIFT) as u64),
            threshold,
        }
    }

    /// Pre-shifted gather-buffer offset of this split's column.
    /// (On x86-64 the hot loop unpacks the halves from its single
    /// 16-byte SIMD load instead, so these accessors only exist for the
    /// portable traversal step.)
    #[cfg(not(target_arch = "x86_64"))]
    #[inline(always)]
    fn col_base(self) -> u32 {
        self.packed as u32
    }

    /// Flat index of the right child (left child = right - 1).
    #[cfg(not(target_arch = "x86_64"))]
    #[inline(always)]
    fn right(self) -> u32 {
        (self.packed >> 32) as u32
    }
}

/// A tree ensemble flattened into a contiguous node array for columnar
/// batch scoring.
///
/// Layout (one packed 16-byte `FlatNode` per node, BFS order, children
/// in adjacent pairs, one contiguous array across all trees):
///
/// ```text
///       node:        0      1      2      3      4     5     6
///   slot     u32 │   0   │  2   │ self │  1   │ self │self │self │ gathered column
///   right    u32 │   2   │  4   │ loop │  6   │ loop │loop │loop │ left = right-1
///   threshold f64│  0.5  │  35  │ NaN  │ 140  │ NaN  │ NaN │ NaN │ leaves: NaN
///                ╰───────────── 16 B each ──────────────────────╯
///   value    f64 │  0.0  │ 0.0  │ 4.0  │ 0.0  │ 1.0  │ 2.0 │ 3.0 │ (separate array)
///                ╰── tree 0 ─────────────────────────────────────╯
/// ```
///
/// Tree `t` occupies nodes `[tree_offsets[t], tree_offsets[t+1])` with its
/// root first. Leaves self-loop (NaN threshold + `right = self`), so a
/// fixed `depth(t)`-iteration loop lands every row on its leaf with no
/// per-node branch: `next = right - (x <= threshold) as u32`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatForest {
    /// All nodes, tree after tree (see layout above).
    nodes: Vec<FlatNode>,
    /// Per node: leaf prediction (splits carry `0.0`, never consulted).
    /// Kept out of [`FlatNode`] — it is only read once per (row, tree),
    /// after traversal, and would double the hot nodes' footprint.
    values: Vec<f64>,
    /// Tree `t` owns nodes `[tree_offsets[t], tree_offsets[t+1])`.
    tree_offsets: Vec<u32>,
    /// Per tree: maximum root-to-leaf depth (loop trip count).
    depths: Vec<u32>,
    /// Gather spec: one entry per feature column some split reads.
    sources: Vec<FeatureSource>,
    /// Arity of the kernel's input rows (raw steps for `from_pipeline`,
    /// featurized width for `from_estimator`). Carried by the layout so a
    /// mismatched morsel is rejected with a typed error.
    n_raw: usize,
    /// Divide the tree-sum by the tree count (forest averaging)?
    average: bool,
}

impl FlatForest {
    /// Rows traversed per cache-sized block (`1 << BLOCK_SHIFT`). Nodes
    /// store their gathered-column slot pre-shifted by this, so the hot
    /// loop's column index is a single add.
    const BLOCK_SHIFT: u32 = 7;
    const BLOCK: usize = 1 << Self::BLOCK_SHIFT;

    /// Flatten a bare tree/forest estimator. The kernel input is the
    /// **featurized** matrix (`[rows × estimator.n_features()]`).
    pub fn from_estimator(estimator: &Estimator) -> Result<FlatForest> {
        let trees: Vec<&DecisionTree> = match estimator {
            Estimator::Tree(t) => vec![t],
            Estimator::Forest(f) => f.trees().iter().collect(),
            other => {
                return Err(MlError::Unsupported(format!(
                    "columnar kernel supports tree/forest estimators, not {}",
                    other.describe()
                )))
            }
        };
        let average = matches!(estimator, Estimator::Forest(_));
        let mut used: Vec<usize> = estimator.used_features().into_iter().collect();
        if used.is_empty() {
            // Degenerate all-leaf ensemble: keep one dummy source so node
            // feature slots stay in range (the traversal loop never runs).
            used.push(0);
        }
        let sources = used
            .iter()
            .map(|&f| FeatureSource::Raw { step: f })
            .collect();
        Self::build(&trees, sources, &used, estimator.n_features(), average)
    }

    /// Flatten a whole pipeline, fusing its featurization into the gather.
    /// The kernel input is the pipeline's **raw encoded** matrix
    /// (`[rows × steps]`, as produced by [`Pipeline::encode_inputs`]).
    pub fn from_pipeline(pipeline: &Pipeline) -> Result<FlatForest> {
        let estimator = pipeline.estimator();
        let trees: Vec<&DecisionTree> = match estimator {
            Estimator::Tree(t) => vec![t],
            Estimator::Forest(f) => f.trees().iter().collect(),
            other => {
                return Err(MlError::Unsupported(format!(
                    "columnar kernel supports tree/forest estimators, not {}",
                    other.describe()
                )))
            }
        };
        let average = matches!(estimator, Estimator::Forest(_));
        let mut used: Vec<usize> = estimator.used_features().into_iter().collect();
        if used.is_empty() {
            used.push(0);
        }
        let mut sources = Vec::with_capacity(used.len());
        for &f in &used {
            let step = pipeline.feature_to_step(f)?;
            let (start, _) = pipeline.step_feature_range(step)?;
            use crate::featurize::Transform;
            let src = match &pipeline.steps()[step].transform {
                Transform::Identity => FeatureSource::Raw { step },
                Transform::Scale(s) => FeatureSource::Scaled {
                    step,
                    mean: s.mean,
                    std: s.std,
                },
                Transform::OneHot(_) => FeatureSource::OneHot {
                    step,
                    index: (f - start) as f64,
                },
            };
            sources.push(src);
        }
        Self::build(&trees, sources, &used, pipeline.steps().len(), average)
    }

    /// Assemble the flat arrays. `used` maps gathered-column slot → model
    /// feature index (sorted ascending, as produced by `used_features`).
    fn build(
        trees: &[&DecisionTree],
        sources: Vec<FeatureSource>,
        used: &[usize],
        n_raw: usize,
        average: bool,
    ) -> Result<FlatForest> {
        let total_nodes: usize = trees.iter().map(|t| t.n_nodes()).sum();
        if total_nodes >= u32::MAX as usize {
            return Err(MlError::Unsupported(format!(
                "ensemble too large for flat layout: {total_nodes} nodes"
            )));
        }
        if sources.len() << Self::BLOCK_SHIFT >= u32::MAX as usize {
            return Err(MlError::Unsupported(format!(
                "too many gathered columns for flat layout: {}",
                sources.len()
            )));
        }
        let slot_of = |feature: usize| -> Result<u32> {
            used.binary_search(&feature)
                .map(|s| s as u32)
                .map_err(|_| MlError::Internal(format!("split feature {feature} not in used set")))
        };
        let mut flat = FlatForest {
            nodes: Vec::with_capacity(total_nodes),
            values: Vec::with_capacity(total_nodes),
            tree_offsets: Vec::with_capacity(trees.len() + 1),
            depths: Vec::with_capacity(trees.len()),
            sources,
            n_raw,
            average,
        };
        let mut base = 0u32;
        for tree in trees {
            flat.tree_offsets.push(base);
            flat.depths.push(tree.depth() as u32);
            let arena = tree.nodes();
            // Renumber in BFS order, appending each split's children as an
            // adjacent pair: the right child always lands at left + 1, so
            // a flat node stores only its right index.
            let mut order = Vec::with_capacity(arena.len());
            order.push(0usize);
            let mut head = 0;
            while head < order.len() && order.len() <= arena.len() {
                if let TreeNode::Split { left, right, .. } = arena[order[head]] {
                    order.push(left);
                    order.push(right);
                }
                head += 1;
            }
            if order.len() != arena.len() {
                // Fewer: unreachable arena nodes; more: a node reachable
                // twice (shared subtree or cycle). Either way the arena is
                // not the proper tree the flat layout assumes.
                return Err(MlError::Unsupported(format!(
                    "tree arena is not a proper tree: {} nodes, {} reachable",
                    arena.len(),
                    order.len().min(arena.len() + 1)
                )));
            }
            let mut pos = vec![0u32; arena.len()];
            for (p, &a) in order.iter().enumerate() {
                pos[a] = p as u32;
            }
            for (p, &a) in order.iter().enumerate() {
                match &arena[a] {
                    TreeNode::Leaf { value } => {
                        // NaN threshold: every comparison is false, so the
                        // step always picks `right`; with `right = self`
                        // the leaf self-loops for all inputs.
                        flat.nodes.push(FlatNode::new(0, base + p as u32, f64::NAN));
                        flat.values.push(*value);
                    }
                    TreeNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        // BFS pushed left and right together, so the pair
                        // is adjacent and only `right` is stored.
                        debug_assert_eq!(pos[*right], pos[*left] + 1);
                        flat.nodes.push(FlatNode::new(
                            slot_of(*feature)?,
                            base + pos[*right],
                            *threshold,
                        ));
                        flat.values.push(0.0);
                    }
                }
            }
            base += arena.len() as u32;
        }
        flat.tree_offsets.push(base);
        Ok(flat)
    }

    /// Arity of the expected input rows (values per row in `score_raw`).
    pub fn n_raw(&self) -> usize {
        self.n_raw
    }

    /// Number of trees in the flattened ensemble.
    pub fn n_trees(&self) -> usize {
        self.depths.len()
    }

    /// Total node count across all trees.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of gathered feature columns (the fused-featurization width —
    /// at most, and usually far below, the model's full feature width).
    pub fn n_gathered(&self) -> usize {
        self.sources.len()
    }

    /// Maximum tree depth (dominates per-row traversal cost).
    pub fn max_depth(&self) -> usize {
        self.depths.iter().copied().max().unwrap_or(0) as usize
    }

    /// Summed tree depths: the branchless loop's total trip count per row
    /// (the cost model's per-row traversal unit).
    pub fn total_depth(&self) -> usize {
        self.depths.iter().map(|&d| d as usize).sum()
    }

    /// Score a row-major raw input matrix (`[rows × n_raw]`).
    ///
    /// The layout carries its arity: a morsel whose length disagrees with
    /// `rows * n_raw` is rejected with a typed [`MlError::DimensionMismatch`]
    /// (no panic, no silent truncation).
    pub fn score_raw(&self, raw: &[f64], rows: usize) -> Result<Vec<f64>> {
        if raw.len() != rows * self.n_raw {
            return Err(MlError::DimensionMismatch {
                expected: rows * self.n_raw,
                actual: raw.len(),
            });
        }
        if rows == 0 {
            return Ok(Vec::new());
        }

        // One traversal step. SAFETY (all `get_unchecked` below): node
        // indices come from `build()`, whose inputs passed
        // `DecisionTree::from_nodes` validation (children < per-tree node
        // count, so `base + pos[child]` < n_nodes; roots are tree offsets
        // < n_nodes; leaves wrap back to themselves), and whose `slot_of`
        // guarantees the pre-shifted `col_base` stays inside the
        // `sources.len() * BLOCK` buffer.
        #[inline(always)]
        unsafe fn step(nodes: &[FlatNode], buf: &[f64], r: usize, i: &mut u32) {
            // Leaves have a NaN threshold: the comparison is false for
            // every x, and right = self, so they self-loop.
            #[cfg(target_arch = "x86_64")]
            {
                // One aligned 16-byte load per node instead of separate
                // `packed`/`threshold` loads — the loop is load-port
                // bound, so this is the difference between 3 and 2 loads
                // per step. `ucomile(x, t)` is exactly `x <= t` with NaN
                // unordered → 0 → the `+1` (right) branch, bit-for-bit
                // the scalar walk's routing.
                use std::arch::x86_64::*;
                let v = _mm_load_si128(nodes.as_ptr().add(*i as usize) as *const __m128i);
                let packed = _mm_cvtsi128_si64(v) as u64;
                let x = _mm_set_sd(*buf.get_unchecked(packed as u32 as usize + r));
                let d = _mm_castsi128_pd(v);
                let le = _mm_ucomile_sd(x, _mm_unpackhi_pd(d, d)) as u32;
                *i = ((packed >> 32) as u32) - le;
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                let node = *nodes.get_unchecked(*i as usize);
                let x = *buf.get_unchecked(node.col_base() as usize + r);
                *i = node.right() - u32::from(x <= node.threshold);
            }
        }

        const BLOCK: usize = FlatForest::BLOCK;
        /// Trees traversed per pass: each row iteration then carries this
        /// many independent load chains, hiding node/column load latency.
        const LANES: usize = 4;
        let n_trees = self.n_trees();
        let mut acc = vec![0.0f64; rows];
        // Per-block gather buffer: one BLOCK-long stripe per gathered
        // column, small enough to stay L1-resident across all trees.
        let mut buf = vec![0.0f64; self.sources.len() * BLOCK];
        let mut idx = [[0u32; BLOCK]; LANES];
        for base_row in (0..rows).step_by(BLOCK) {
            let len = BLOCK.min(rows - base_row);

            // Gather phase: materialize this block of each *used* feature
            // as one contiguous stripe, applying the fused transform
            // exactly as the scalar featurizer would (same expressions →
            // same bits).
            for (j, src) in self.sources.iter().enumerate() {
                let col = &mut buf[j * BLOCK..j * BLOCK + len];
                match *src {
                    FeatureSource::Raw { step } => {
                        for (r, c) in col.iter_mut().enumerate() {
                            *c = raw[(base_row + r) * self.n_raw + step];
                        }
                    }
                    FeatureSource::Scaled { step, mean, std } => {
                        for (r, c) in col.iter_mut().enumerate() {
                            *c = (raw[(base_row + r) * self.n_raw + step] - mean) / std;
                        }
                    }
                    FeatureSource::OneHot { step, index } => {
                        for (r, c) in col.iter_mut().enumerate() {
                            *c = if raw[(base_row + r) * self.n_raw + step] == index {
                                1.0
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }

            // Traversal phase: LANES trees walk the block together, every
            // row advancing one level per iteration; `!(x <= t)` maps NaN
            // to the right child, matching the scalar walk. Leaves
            // self-loop, so shallow lanes running to the group's max depth
            // just spin in place. The per-row summation order (tree 0, 1,
            // … then one division) is unchanged, so the bitwise contract
            // with the scalar path holds.
            let out = &mut acc[base_row..base_row + len];
            let mut t = 0;
            while t + LANES <= n_trees {
                let mut group_depth = 0;
                for (lane, cursors) in idx.iter_mut().enumerate() {
                    cursors[..len].fill(self.tree_offsets[t + lane]);
                    group_depth = group_depth.max(self.depths[t + lane]);
                }
                for _ in 0..group_depth {
                    for r in 0..len {
                        for cursors in idx.iter_mut() {
                            // SAFETY: see `step`.
                            unsafe { step(&self.nodes, &buf, r, &mut cursors[r]) };
                        }
                    }
                }
                for (r, o) in out.iter_mut().enumerate() {
                    for cursors in &idx {
                        // SAFETY: cursors hold in-range node indices (see `step`).
                        *o += unsafe { *self.values.get_unchecked(cursors[r] as usize) };
                    }
                }
                t += LANES;
            }
            // Remainder trees, one at a time.
            while t < n_trees {
                let cursors = &mut idx[0];
                cursors[..len].fill(self.tree_offsets[t]);
                for _ in 0..self.depths[t] {
                    for (r, i) in cursors[..len].iter_mut().enumerate() {
                        // SAFETY: see `step`.
                        unsafe { step(&self.nodes, &buf, r, i) };
                    }
                }
                for (r, o) in out.iter_mut().enumerate() {
                    // SAFETY: cursors hold in-range node indices (see `step`).
                    *o += unsafe { *self.values.get_unchecked(cursors[r] as usize) };
                }
                t += 1;
            }
        }
        if self.average {
            let k = self.n_trees() as f64;
            for a in acc.iter_mut() {
                *a /= k;
            }
        }
        Ok(acc)
    }

    /// Short human-readable description (for EXPLAIN and plan labels).
    pub fn describe(&self) -> String {
        format!(
            "FlatForest(trees={}, nodes={}, depth={}, gathered={}/{})",
            self.n_trees(),
            self.n_nodes(),
            self.max_depth(),
            self.n_gathered(),
            self.n_raw,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::{OneHotEncoder, StandardScaler, Transform};
    use crate::forest::{ForestParams, RandomForest};
    use crate::pipeline::FeatureStep;
    use crate::tree::tests::fig1_tree;
    use crate::tree::TreeParams;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn flat_tree_matches_scalar_walk() {
        let tree = fig1_tree();
        let flat = FlatForest::from_estimator(&Estimator::Tree(tree.clone())).unwrap();
        assert_eq!(flat.n_trees(), 1);
        assert_eq!(flat.n_nodes(), 7);
        assert_eq!(flat.n_raw(), 3);
        let rows: Vec<[f64; 3]> = vec![
            [1.0, 150.0, 30.0],
            [1.0, 120.0, 30.0],
            [0.0, 120.0, 30.0],
            [0.0, 120.0, 40.0],
        ];
        let raw: Vec<f64> = rows.iter().flatten().copied().collect();
        let got = flat.score_raw(&raw, rows.len()).unwrap();
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(got[r].to_bits(), tree.predict_row(row).to_bits());
        }
    }

    #[test]
    fn nan_routes_right_like_scalar() {
        let tree = fig1_tree();
        let flat = FlatForest::from_estimator(&Estimator::Tree(tree.clone())).unwrap();
        // NaN on the root feature must take the right branch in both paths.
        let row = [f64::NAN, 120.0, 30.0];
        assert_eq!(tree.predict_row(&row), 4.0, "scalar: NaN routes right");
        let got = flat.score_raw(&row, 1).unwrap();
        assert_eq!(got[0].to_bits(), 4.0f64.to_bits());
        // NaN deeper in the tree, and ±inf.
        for row in [
            [0.0, 120.0, f64::NAN],
            [1.0, f64::NAN, 30.0],
            [f64::INFINITY, 120.0, 30.0],
            [f64::NEG_INFINITY, 120.0, 30.0],
        ] {
            let got = flat.score_raw(&row, 1).unwrap();
            assert_eq!(got[0].to_bits(), tree.predict_row(&row).to_bits());
        }
    }

    #[test]
    fn flat_forest_matches_scalar_mean() {
        let (x, y) = forest_training_data();
        let forest = RandomForest::fit(&x, 2, &y, &ForestParams::default()).unwrap();
        let flat = FlatForest::from_estimator(&Estimator::Forest(forest.clone())).unwrap();
        assert_eq!(flat.n_trees(), forest.trees().len());
        let probe: Vec<f64> = vec![0.0, 0.0, 0.3, 1.1, 1.0, 0.0, 1.0, 1.0];
        let got = flat.score_raw(&probe, 4).unwrap();
        let want = forest.predict_batch(&probe, 4).unwrap();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn empty_and_single_row_batches() {
        let flat = FlatForest::from_estimator(&Estimator::Tree(fig1_tree())).unwrap();
        assert_eq!(flat.score_raw(&[], 0).unwrap(), Vec::<f64>::new());
        let one = flat.score_raw(&[0.0, 120.0, 30.0], 1).unwrap();
        assert_eq!(one, vec![1.0]);
    }

    #[test]
    fn arity_mismatch_is_typed_error() {
        let flat = FlatForest::from_estimator(&Estimator::Tree(fig1_tree())).unwrap();
        // Truncated feature row: 2 rows × 3 features needs 6 values, give 5.
        let truncated = vec![1.0, 150.0, 30.0, 0.0, 120.0];
        match flat.score_raw(&truncated, 2) {
            Err(MlError::DimensionMismatch { expected, actual }) => {
                assert_eq!(expected, 6);
                assert_eq!(actual, 5);
            }
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn pipeline_fusion_matches_reference_predict() {
        // Mixed featurization: scaled numeric + one-hot categorical feeding
        // a tree over the 4-wide featurized space.
        use crate::tree::TreeNode;
        let tree = DecisionTree::from_nodes(
            vec![
                TreeNode::Split {
                    feature: 0, // scaled(age)
                    threshold: 0.5,
                    left: 1,
                    right: 2,
                },
                TreeNode::Split {
                    feature: 2, // dest=LAX indicator
                    threshold: 0.5,
                    left: 3,
                    right: 4,
                },
                TreeNode::Leaf { value: 9.0 },
                TreeNode::Leaf { value: 1.0 },
                TreeNode::Leaf { value: 5.0 },
            ],
            4,
        )
        .unwrap();
        let pipeline = Pipeline::new(
            vec![
                FeatureStep::new(
                    "age",
                    Transform::Scale(StandardScaler {
                        mean: 40.0,
                        std: 10.0,
                    }),
                ),
                FeatureStep::new(
                    "dest",
                    Transform::OneHot(
                        OneHotEncoder::new(vec!["JFK".into(), "LAX".into(), "SEA".into()]).unwrap(),
                    ),
                ),
            ],
            Estimator::Tree(tree),
        )
        .unwrap();
        let flat = FlatForest::from_pipeline(&pipeline).unwrap();
        // Only 2 of 4 features are split on → only 2 gathered columns.
        assert_eq!(flat.n_gathered(), 2);
        assert_eq!(flat.n_raw(), 2, "raw arity is steps, not features");
        // Raw encoded rows: [age, dest_index]; LAX=1, unknown=-1.
        let raw = vec![30.0, 1.0, 50.0, -1.0, 45.0, 0.0, f64::NAN, 1.0];
        let got = flat.score_raw(&raw, 4).unwrap();
        let want = pipeline.predict_raw(&raw, 4).unwrap();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn single_leaf_tree_has_no_traversal() {
        use crate::tree::TreeNode;
        let leaf = DecisionTree::from_nodes(vec![TreeNode::Leaf { value: 2.5 }], 3).unwrap();
        let flat = FlatForest::from_estimator(&Estimator::Tree(leaf)).unwrap();
        assert_eq!(flat.max_depth(), 0);
        let got = flat.score_raw(&[9.0, 9.0, 9.0, 1.0, 1.0, 1.0], 2).unwrap();
        assert_eq!(got, vec![2.5, 2.5]);
    }

    #[test]
    fn non_tree_estimator_rejected() {
        use crate::linear::{LinearKind, LinearModel};
        let est =
            Estimator::Linear(LinearModel::new(vec![1.0], 0.0, LinearKind::Regression).unwrap());
        assert!(matches!(
            FlatForest::from_estimator(&est),
            Err(MlError::Unsupported(_))
        ));
    }

    #[test]
    fn fitted_tree_with_nan_training_rows() {
        // NaN feature values must not panic the fit path (total_cmp sort)
        // and the fitted tree must agree between scalar and kernel.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..32 {
            x.push(if i % 8 == 0 { f64::NAN } else { i as f64 });
            y.push(if i < 16 { 0.0 } else { 1.0 });
        }
        let tree = DecisionTree::fit(&x, 1, &y, &TreeParams::default()).unwrap();
        let flat = FlatForest::from_estimator(&Estimator::Tree(tree.clone())).unwrap();
        for probe in [0.0, 7.5, 31.0, f64::NAN, f64::INFINITY] {
            let got = flat.score_raw(&[probe], 1).unwrap();
            assert_eq!(got[0].to_bits(), tree.predict_row(&[probe]).to_bits());
        }
    }

    fn forest_training_data() -> (Vec<f64>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i / 2) % 2;
            let b = i % 2;
            x.push(a as f64 + (i % 5) as f64 * 0.01);
            x.push(b as f64 + (i % 3) as f64 * 0.01);
            y.push(((a ^ b) == 1) as i64 as f64);
        }
        (x, y)
    }
}
