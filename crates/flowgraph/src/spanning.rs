//! Spanning-tree constructions: BFS trees, minimum / maximum weight spanning
//! trees and random spanning trees.
//!
//! The top-level max-flow algorithm (Algorithm 1, §9) routes residual demand
//! over a *maximum-weight* spanning tree; the distributed implementation uses
//! BFS trees for global broadcast/convergecast; random spanning trees serve as
//! a baseline in the stretch experiments (E3).

use std::cmp::Ordering;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::{Edge, EdgeId, Graph, NodeId};
use crate::tree::RootedTree;
use crate::unionfind::UnionFind;
use crate::{GraphError, Result};

/// Builds a BFS tree rooted at `root`.
///
/// # Errors
///
/// Returns [`GraphError::NotConnected`] if not every node is reachable from
/// `root`, and [`GraphError::NodeOutOfRange`] if `root` is invalid.
pub fn bfs_tree(g: &Graph, root: NodeId) -> Result<RootedTree> {
    if root.index() >= g.num_nodes() {
        return Err(GraphError::NodeOutOfRange {
            node: root.index(),
            num_nodes: g.num_nodes(),
        });
    }
    let n = g.num_nodes();
    let mut parent = vec![None; n];
    let mut parent_edge = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[root.index()] = true;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        for (eid, w) in g.incident(u) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                parent[w.index()] = Some(u);
                parent_edge[w.index()] = Some(eid);
                queue.push_back(w);
            }
        }
    }
    if seen.iter().any(|&s| !s) {
        return Err(GraphError::NotConnected);
    }
    RootedTree::from_parents(root, parent, parent_edge)
}

/// Kruskal's algorithm on an arbitrary edge ordering; returns the selected
/// spanning edges.
fn kruskal_by_order(g: &Graph, order: &[EdgeId]) -> Result<Vec<EdgeId>> {
    let n = g.num_nodes();
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let mut uf = UnionFind::new(n);
    let mut chosen = Vec::with_capacity(n.saturating_sub(1));
    for &eid in order {
        let e = g.edge(eid);
        if uf.union(e.tail.index(), e.head.index()) {
            chosen.push(eid);
        }
    }
    if chosen.len() + 1 != n {
        return Err(GraphError::NotConnected);
    }
    Ok(chosen)
}

/// Minimum spanning tree with respect to the given per-edge weight function,
/// rooted at `root`. Equal weights are taken in edge-id order.
///
/// # Errors
///
/// Returns [`GraphError::NotConnected`] for disconnected graphs and
/// [`GraphError::Empty`] for the empty graph.
pub fn minimum_spanning_tree(
    g: &Graph,
    root: NodeId,
    weight: impl Fn(EdgeId) -> f64,
) -> Result<RootedTree> {
    let mut order: Vec<EdgeId> = g.edge_ids().collect();
    // Stable, so equal weights keep the edge-id order of `edge_ids`.
    order.sort_by(|&a, &b| weight(a).total_cmp(&weight(b)));
    let edges = kruskal_by_order(g, &order)?;
    RootedTree::spanning_from_edges(g, root, &edges)
}

/// Maximum-weight spanning tree with respect to edge capacities, rooted at
/// `root` (Algorithm 1, step 5): Kruskal over the edges by capacity
/// descending, equal capacities in edge-id order. That order is strict, so
/// the tree is unique; [`update_max_weight_spanning_tree`] keeps it up to
/// date under capacity changes.
///
/// # Errors
///
/// Same error conditions as [`minimum_spanning_tree`].
pub fn max_weight_spanning_tree(g: &Graph, root: NodeId) -> Result<RootedTree> {
    let mut order: Vec<EdgeId> = g.edge_ids().collect();
    // Ranks are distinct, so any sort gives the same order. The stable one
    // merges the capacity runs real edge lists carry (a fat tree lists each
    // leaf's fabric links, then its hosts): on the 10⁶-edge fat tree it took
    // ~62 ms against ~100 ms unstable (2-CPU x86-64 host).
    order.sort_by_key(|&e| Rank(g.capacity(e), e));
    let edges = kruskal_by_order(g, &order)?;
    RootedTree::spanning_from_edges(g, root, &edges)
}

/// Kruskal's ranking for [`max_weight_spanning_tree`]: a capacity and an edge,
/// ordered by capacity descending, then edge id ascending, so the smaller
/// rank is picked first. Edge ids are distinct, so this is a strict total
/// order on edges, and the maximum-weight spanning tree it selects is unique
/// whatever algorithm finds it.
#[derive(Debug, Clone, Copy)]
struct Rank(f64, EdgeId);

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0).then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Rank {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Rank {}

/// Edge capacities part-way through a batch of changes: before step `i`,
/// an edge listed at index `i` or later ranks by the old capacity of its
/// first such listing, every other edge by its capacity in the graph.
struct BatchCapacities<'a> {
    g: &'a Graph,
    /// `(edge, index, old capacity)`, sorted by edge, then index.
    listed: Vec<(EdgeId, usize, f64)>,
}

impl<'a> BatchCapacities<'a> {
    fn new(g: &'a Graph, changes: &[(EdgeId, f64)]) -> Self {
        let mut listed: Vec<_> = changes
            .iter()
            .enumerate()
            .map(|(i, &(e, old))| (e, i, old))
            .collect();
        listed.sort_unstable_by_key(|&(e, i, _)| (e, i));
        BatchCapacities { g, listed }
    }

    /// The rank of `e` before step `step`.
    fn rank(&self, e: EdgeId, step: usize) -> Rank {
        let at = self.listed.partition_point(|&(x, i, _)| (x, i) < (e, step));
        match self.listed.get(at) {
            Some(&(x, _, old)) if x == e => Rank(old, e),
            _ => Rank(self.g.capacity(e), e),
        }
    }
}

/// Scratch for finding the edges that cross a tree cut: the two sides are
/// walked breadth-first in lockstep and only the one exhausted first — the
/// smaller, up to one fan-out — is scanned, so a cut next to a leaf costs
/// the leaf, not the tree.
#[derive(Default)]
struct CutScan {
    inner: Vec<NodeId>,
    outer: Vec<NodeId>,
}

impl CutScan {
    /// The best-ranked edge between the subtree of `cut` and the rest of the
    /// tree, with its endpoints inside and outside the subtree.
    fn best_crossing(
        &mut self,
        g: &Graph,
        tree: &RootedTree,
        cut: NodeId,
        rank: impl Fn(EdgeId) -> Rank,
    ) -> (EdgeId, NodeId, NodeId) {
        self.inner.clear();
        self.outer.clear();
        self.inner.push(cut);
        self.outer.push(tree.root());
        let mut head = 0;
        let inside = loop {
            if head == self.inner.len() {
                break true;
            }
            if head == self.outer.len() {
                break false;
            }
            let (down, up) = (self.inner[head], self.outer[head]);
            self.inner.extend_from_slice(tree.children(down));
            self.outer
                .extend(tree.children(up).iter().filter(|&&c| c != cut));
            head += 1;
        };
        let side = if inside {
            &mut self.inner
        } else {
            &mut self.outer
        };
        side.sort_unstable();
        let mut best: Option<(Rank, NodeId, NodeId)> = None;
        for &u in side.iter() {
            for (e, w) in g.incident(u) {
                if side.binary_search(&w).is_ok() {
                    continue;
                }
                let r = rank(e);
                if best.is_none_or(|(b, _, _)| r < b) {
                    best = Some((r, u, w));
                }
            }
        }
        let (Rank(_, e), u, w) = best.expect("the parent edge of `cut` crosses its own cut");
        if inside {
            (e, u, w)
        } else {
            (e, w, u)
        }
    }
}

/// Brings a maximum-weight spanning tree up to date after capacity changes
/// by exchanging edges, instead of re-running Kruskal.
///
/// `tree` must equal `max_weight_spanning_tree(g', tree.root())` for the
/// graph `g'` that is `g` with every edge of `changes` at its listed old
/// capacity (an edge listed twice counts at its first listing). The changes
/// are applied one at a time; an edge not yet reached keeps its old rank,
/// and after the last one every edge ranks by its capacity in `g`. Each step
/// moves the rank of one edge `e` (see [`max_weight_spanning_tree`] for the
/// ranking) and applies the exchange rule of a unique spanning tree:
///
/// - a non-tree edge that now outranks the worst edge on its tree path
///   replaces that edge;
/// - a tree edge now outranked by another edge across its subtree cut is
///   replaced by the best such edge;
/// - in every other case the edge set stays the same.
///
/// Since the maximum-weight spanning tree is unique and [`RootedTree`]
/// orders children by node id, the result equals
/// `max_weight_spanning_tree(g, tree.root())` field for field. A step costs
/// one tree-path walk or one scan of the smaller side of one cut, and an
/// exchange one pass over the moved subtree; the top-down order is rebuilt
/// once per call, and only if an exchange happened. Returns the number of
/// exchanges.
///
/// # Errors
///
/// Returns [`GraphError::DemandMismatch`] if `tree` does not cover `g`'s
/// nodes, [`GraphError::EdgeOutOfRange`] for a listed edge outside `g` and
/// [`GraphError::InvalidWeight`] for an old capacity that is not positive
/// and finite. Nothing is changed when an error is returned.
///
/// # Panics
///
/// May panic if `tree` is not a spanning tree of `g`, e.g. a virtual tree
/// whose parent edges have no realizing graph edge.
pub fn update_max_weight_spanning_tree(
    g: &Graph,
    tree: &mut RootedTree,
    changes: &[(EdgeId, f64)],
) -> Result<usize> {
    if tree.num_nodes() != g.num_nodes() {
        return Err(GraphError::DemandMismatch {
            expected: g.num_nodes(),
            actual: tree.num_nodes(),
        });
    }
    for &(e, old) in changes {
        if e.index() >= g.num_edges() {
            return Err(GraphError::EdgeOutOfRange {
                edge: e.index(),
                num_edges: g.num_edges(),
            });
        }
        if !(old.is_finite() && old > 0.0) {
            return Err(GraphError::InvalidWeight { value: old });
        }
    }
    let caps = BatchCapacities::new(g, changes);
    let mut scan = CutScan::default();
    let mut exchanges = 0;
    for (step, &(e, old)) in changes.iter().enumerate() {
        let before = Rank(old, e);
        let rank = |f: EdgeId| caps.rank(f, step + 1);
        let after = rank(e);
        let Edge { tail, head, .. } = g.edge(e);
        let child = [tail, head]
            .into_iter()
            .find(|&v| tree.parent_edge(v) == Some(e));
        match child {
            None if after < before => {
                // The worst edge on the tree path between the endpoints,
                // with the endpoint on the same side of it.
                let meet = tree.lca(tail, head);
                let mut worst: Option<(Rank, NodeId, NodeId, NodeId)> = None;
                for (inner, outer) in [(tail, head), (head, tail)] {
                    let mut v = inner;
                    while v != meet {
                        let r = rank(
                            tree.parent_edge(v)
                                .expect("non-root nodes have a parent edge"),
                        );
                        if worst.is_none_or(|(w, ..)| r > w) {
                            worst = Some((r, v, inner, outer));
                        }
                        v = tree.parent(v).expect("the lca is an ancestor");
                    }
                }
                if let Some((w, cut, inner, outer)) = worst {
                    if after < w {
                        tree.exchange_parent_edge(cut, inner, outer, e);
                        exchanges += 1;
                    }
                }
            }
            Some(cut) if after > before => {
                let (best, inner, outer) = scan.best_crossing(g, tree, cut, rank);
                if best != e {
                    tree.exchange_parent_edge(cut, inner, outer, best);
                    exchanges += 1;
                }
            }
            _ => {}
        }
    }
    if exchanges > 0 {
        tree.rebuild_order();
    }
    Ok(exchanges)
}

/// Spanning tree produced by running Kruskal on a uniformly random edge
/// ordering (a cheap stand-in for a uniformly random spanning tree; used only
/// as an experiment baseline).
///
/// # Errors
///
/// Same error conditions as [`minimum_spanning_tree`].
pub fn random_spanning_tree(g: &Graph, root: NodeId, rng: &mut impl Rng) -> Result<RootedTree> {
    let mut order: Vec<EdgeId> = g.edge_ids().collect();
    order.shuffle(rng);
    let edges = kruskal_by_order(g, &order)?;
    RootedTree::spanning_from_edges(g, root, &edges)
}

/// Shortest-path tree with respect to a per-edge length function (Dijkstra),
/// rooted at `root`. Used to compare low-stretch trees against shortest-path
/// trees in the experiments.
///
/// # Errors
///
/// Returns [`GraphError::NotConnected`] if some node is unreachable.
pub fn shortest_path_tree(
    g: &Graph,
    root: NodeId,
    length: impl Fn(EdgeId) -> f64,
) -> Result<RootedTree> {
    let n = g.num_nodes();
    if root.index() >= n {
        return Err(GraphError::NodeOutOfRange {
            node: root.index(),
            num_nodes: n,
        });
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut parent_edge = vec![None; n];
    let mut done = vec![false; n];
    dist[root.index()] = 0.0;
    // Binary heap keyed on (dist, node); f64 is not Ord so store bits.
    let mut heap = std::collections::BinaryHeap::new();
    heap.push(std::cmp::Reverse((ordered(0.0), root.index())));
    while let Some(std::cmp::Reverse((_, u))) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for (eid, w) in g.incident(NodeId(u as u32)) {
            let nd = dist[u] + length(eid);
            if nd < dist[w.index()] {
                dist[w.index()] = nd;
                parent[w.index()] = Some(NodeId(u as u32));
                parent_edge[w.index()] = Some(eid);
                heap.push(std::cmp::Reverse((ordered(nd), w.index())));
            }
        }
    }
    if dist.iter().any(|d| d.is_infinite()) {
        return Err(GraphError::NotConnected);
    }
    RootedTree::from_parents(root, parent, parent_edge)
}

/// Total-orderable wrapper for non-NaN f64 keys in the Dijkstra heap.
fn ordered(x: f64) -> u64 {
    debug_assert!(!x.is_nan());
    let bits = x.to_bits();
    if x >= 0.0 {
        bits ^ (1 << 63)
    } else {
        !bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn weighted_square() -> Graph {
        GraphBuilder::new(4)
            .edge(0, 1, 1.0)
            .edge(1, 2, 5.0)
            .edge(2, 3, 1.0)
            .edge(3, 0, 5.0)
            .edge(0, 2, 2.0)
            .build()
            .unwrap()
    }

    #[test]
    fn bfs_tree_depths() {
        let g = weighted_square();
        let t = bfs_tree(&g, NodeId(0)).unwrap();
        assert_eq!(t.depth(NodeId(0)), 0);
        assert!(t.depth(NodeId(2)) <= 2);
        assert_eq!(t.graph_edges().len(), 3);
    }

    #[test]
    fn mst_picks_light_edges() {
        let g = weighted_square();
        let t = minimum_spanning_tree(&g, NodeId(0), |e| g.capacity(e)).unwrap();
        let total: f64 = t.graph_edges().iter().map(|&e| g.capacity(e)).sum();
        // MST: edges of weight 1, 1, 2 -> 4.
        assert!((total - 4.0).abs() < 1e-12);
    }

    #[test]
    fn max_weight_tree_picks_heavy_edges() {
        let g = weighted_square();
        let t = max_weight_spanning_tree(&g, NodeId(0)).unwrap();
        let total: f64 = t.graph_edges().iter().map(|&e| g.capacity(e)).sum();
        // Max weight spanning tree: 5 + 5 + 2 = 12.
        assert!((total - 12.0).abs() < 1e-12);
    }

    #[test]
    fn random_tree_is_spanning() {
        let g = weighted_square();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..5 {
            let t = random_spanning_tree(&g, NodeId(0), &mut rng).unwrap();
            assert_eq!(t.graph_edges().len(), 3);
            assert_eq!(t.num_nodes(), 4);
        }
    }

    #[test]
    fn shortest_path_tree_distances() {
        let g = weighted_square();
        // lengths = 1/capacity so heavy edges are short
        let t = shortest_path_tree(&g, NodeId(0), |e| 1.0 / g.capacity(e)).unwrap();
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.num_nodes(), 4);
        // node 3 should hang off node 0 directly (length 0.2 < any detour)
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(0)));
    }

    #[test]
    fn disconnected_graph_errors() {
        let g = GraphBuilder::new(4)
            .edge(0, 1, 1.0)
            .edge(2, 3, 1.0)
            .build()
            .unwrap();
        assert!(bfs_tree(&g, NodeId(0)).is_err());
        assert!(max_weight_spanning_tree(&g, NodeId(0)).is_err());
        assert!(shortest_path_tree(&g, NodeId(0), |_| 1.0).is_err());
    }

    #[test]
    fn ordered_key_is_monotone() {
        let mut values = [3.5, 0.0, 1.25, 10.0, 0.5];
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let keys: Vec<u64> = values.iter().map(|&v| ordered(v)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn bfs_tree_matches_graph_distances_on_known_graphs() {
        // On a grid and a cycle the BFS depths must equal the graph's hop
        // distances node by node, and parent edges must step one level up.
        for g in [crate::gen::grid(4, 5, 1.0), crate::gen::cycle(11, 1.0)] {
            let t = bfs_tree(&g, NodeId(0)).unwrap();
            let dist = g.bfs_distances(NodeId(0));
            for v in g.nodes() {
                assert_eq!(t.depth(v), dist[v.index()], "depth mismatch at {v}");
                if let Some(p) = t.parent(v) {
                    assert_eq!(t.depth(v), t.depth(p) + 1, "parent of {v} not one level up");
                }
            }
        }
    }

    #[test]
    fn mst_weight_matches_brute_force_on_known_graph() {
        // K4 with distinct weights: brute-force over all 16 spanning trees.
        let g = GraphBuilder::new(4)
            .edge(0, 1, 1.0)
            .edge(0, 2, 2.0)
            .edge(0, 3, 3.0)
            .edge(1, 2, 4.0)
            .edge(1, 3, 5.0)
            .edge(2, 3, 6.0)
            .build()
            .unwrap();
        let edge_ids: Vec<EdgeId> = g.edge_ids().collect();
        let mut best_min = f64::INFINITY;
        let mut best_max = f64::NEG_INFINITY;
        for mask in 0u32..(1 << edge_ids.len()) {
            if mask.count_ones() != 3 {
                continue;
            }
            let chosen: Vec<EdgeId> = edge_ids
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            let (sub, _) = g.edge_subgraph(&chosen);
            if !sub.is_connected() {
                continue;
            }
            let w: f64 = chosen.iter().map(|&e| g.capacity(e)).sum();
            best_min = best_min.min(w);
            best_max = best_max.max(w);
        }
        let mst = minimum_spanning_tree(&g, NodeId(0), |e| g.capacity(e)).unwrap();
        let mst_w: f64 = mst.graph_edges().iter().map(|&e| g.capacity(e)).sum();
        assert!(
            (mst_w - best_min).abs() < 1e-12,
            "MST {mst_w} vs brute force {best_min}"
        );
        let mwst = max_weight_spanning_tree(&g, NodeId(0)).unwrap();
        let mwst_w: f64 = mwst.graph_edges().iter().map(|&e| g.capacity(e)).sum();
        assert!(
            (mwst_w - best_max).abs() < 1e-12,
            "MWST {mwst_w} vs brute force {best_max}"
        );
    }

    /// Sets the listed capacities, runs the exchange update on `tree`, and
    /// checks it against a Kruskal rebuild field for field.
    fn update_and_compare(g: &mut Graph, tree: &mut RootedTree, set: &[(u32, f64)]) -> usize {
        let changes: Vec<(EdgeId, f64)> = set
            .iter()
            .map(|&(e, new)| {
                let old = g.capacity(EdgeId(e));
                g.set_capacity(EdgeId(e), new).unwrap();
                (EdgeId(e), old)
            })
            .collect();
        let exchanges = update_max_weight_spanning_tree(g, tree, &changes).unwrap();
        assert_eq!(*tree, max_weight_spanning_tree(g, tree.root()).unwrap());
        exchanges
    }

    #[test]
    fn non_tree_edge_that_outranks_its_path_enters_the_tree() {
        // Tree {1, 3, 4}; raising edge 0 (0-1) above edge 4 (0-2, the worst
        // on its tree path) swaps them.
        let mut g = weighted_square();
        let mut t = max_weight_spanning_tree(&g, NodeId(0)).unwrap();
        assert_eq!(update_and_compare(&mut g, &mut t, &[(0, 3.0)]), 1);
        assert_eq!(t.graph_edges(), vec![EdgeId(0), EdgeId(1), EdgeId(3)]);
        // A tie on capacity goes to the lower id: edge 2 (2-3) at 5.0 beats
        // edge 3 (3-0) at 5.0 on its path.
        assert_eq!(update_and_compare(&mut g, &mut t, &[(2, 5.0)]), 1);
        assert!(t.graph_edges().contains(&EdgeId(2)));
    }

    #[test]
    fn tree_edge_outranked_across_its_cut_leaves_the_tree() {
        // Edge 4 (0-2) cuts {1, 2} off; at 0.5 it falls below edges 0 and 2
        // (capacity 1), and the lower id, edge 0, replaces it.
        let mut g = weighted_square();
        let mut t = max_weight_spanning_tree(&g, NodeId(0)).unwrap();
        assert_eq!(update_and_compare(&mut g, &mut t, &[(4, 0.5)]), 1);
        assert!(t.graph_edges().contains(&EdgeId(0)));
        assert!(!t.graph_edges().contains(&EdgeId(4)));
        // Re-hanging re-roots the moved subtree: node 1 now hangs off 0.
        assert_eq!(t.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(t.parent(NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    fn rank_moves_that_do_not_cross_leave_the_tree_unchanged() {
        let mut g = weighted_square();
        let mut t = max_weight_spanning_tree(&g, NodeId(0)).unwrap();
        let before = t.clone();
        // A non-tree edge that improves but stays below its path, one that
        // ties the worst edge on its path but has the higher id, and a tree
        // edge that worsens but stays the best across its cut.
        assert_eq!(update_and_compare(&mut g, &mut t, &[(0, 1.5)]), 0);
        let mut h = GraphBuilder::new(3)
            .edge(0, 1, 2.0)
            .edge(1, 2, 2.0)
            .edge(0, 2, 1.0)
            .build()
            .unwrap();
        let mut th = max_weight_spanning_tree(&h, NodeId(0)).unwrap();
        assert_eq!(update_and_compare(&mut h, &mut th, &[(2, 2.0)]), 0);
        assert_eq!(update_and_compare(&mut g, &mut t, &[(4, 1.75)]), 0);
        assert_eq!(t, before);
    }

    #[test]
    fn tree_edge_gains_and_non_tree_edge_losses_are_no_ops() {
        let mut g = weighted_square();
        let mut t = max_weight_spanning_tree(&g, NodeId(0)).unwrap();
        let before = t.clone();
        assert_eq!(
            update_and_compare(&mut g, &mut t, &[(1, 9.0), (2, 0.25)]),
            0
        );
        assert_eq!(t, before);
    }

    #[test]
    fn batches_rank_unreached_edges_by_their_old_capacity() {
        // Edge 0 enters the tree in step one, while edge 4 still ranks at its
        // old 2.0; step two then drops edge 4, whose cut edge 0 already holds.
        let mut g = weighted_square();
        let mut t = max_weight_spanning_tree(&g, NodeId(0)).unwrap();
        assert_eq!(update_and_compare(&mut g, &mut t, &[(0, 3.0), (4, 0.5)]), 1);
        // An edge listed twice steps through both values in order.
        let changes = [(EdgeId(2), 1.0), (EdgeId(2), 7.0)];
        g.set_capacity(EdgeId(2), 0.75).unwrap();
        update_max_weight_spanning_tree(&g, &mut t, &changes).unwrap();
        assert_eq!(t, max_weight_spanning_tree(&g, NodeId(0)).unwrap());
    }

    #[test]
    fn exchange_updates_match_rebuilds_on_random_batches() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for mut g in [
            crate::gen::grid(6, 7, 1.0),
            crate::gen::random_gnp(30, 0.2, (1.0, 4.0), 9),
        ] {
            let mut t = max_weight_spanning_tree(&g, NodeId(0)).unwrap();
            let mut exchanges = 0;
            for _ in 0..60 {
                let k = rng.gen_range(1..6);
                let set: Vec<(u32, f64)> = (0..k)
                    .map(|_| {
                        let e = rng.gen_range(0..g.num_edges()) as u32;
                        (e, [0.5, 1.0, 2.0, 3.0][rng.gen_range(0..4usize)])
                    })
                    .collect();
                exchanges += update_and_compare(&mut g, &mut t, &set);
            }
            assert!(exchanges > 0);
        }
    }

    #[test]
    fn update_rejects_mismatched_inputs_untouched() {
        let g = weighted_square();
        let mut t = max_weight_spanning_tree(&g, NodeId(0)).unwrap();
        let before = t.clone();
        assert!(matches!(
            update_max_weight_spanning_tree(&g, &mut t, &[(EdgeId(0), 1.0), (EdgeId(9), 1.0)]),
            Err(GraphError::EdgeOutOfRange { edge: 9, .. })
        ));
        assert!(matches!(
            update_max_weight_spanning_tree(&g, &mut t, &[(EdgeId(0), f64::NAN)]),
            Err(GraphError::InvalidWeight { .. })
        ));
        let small = GraphBuilder::new(2).edge(0, 1, 1.0).build().unwrap();
        assert!(matches!(
            update_max_weight_spanning_tree(&small, &mut t, &[]),
            Err(GraphError::DemandMismatch { .. })
        ));
        assert_eq!(t, before);
    }

    #[test]
    fn spanning_constructions_are_deterministic_across_runs() {
        let g = crate::gen::random_gnp(24, 0.3, (1.0, 9.0), 5);
        let a = minimum_spanning_tree(&g, NodeId(0), |e| g.capacity(e)).unwrap();
        let b = minimum_spanning_tree(&g, NodeId(0), |e| g.capacity(e)).unwrap();
        assert_eq!(a.graph_edges(), b.graph_edges());
        let mut r1 = ChaCha8Rng::seed_from_u64(21);
        let mut r2 = ChaCha8Rng::seed_from_u64(21);
        let t1 = random_spanning_tree(&g, NodeId(0), &mut r1).unwrap();
        let t2 = random_spanning_tree(&g, NodeId(0), &mut r2).unwrap();
        assert_eq!(t1.graph_edges(), t2.graph_edges());
    }
}
