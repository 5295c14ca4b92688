//! Equivalence suite for `flowgraph::update_max_weight_spanning_tree`, the
//! edge-exchange update that keeps a session's repair tree current across
//! capacity changes.
//!
//! The pinned contract is exact: the maximum-weight spanning tree is unique
//! under the (capacity descending, edge id ascending) ranking, and a
//! `RootedTree` depends only on its edge set, so after every batch the
//! maintained tree must equal `max_weight_spanning_tree(g, NodeId(0))`
//! **field for field** — parent, parent edge, children, depth and preorder.
//! Batches mix tree and non-tree edges, raises and cuts, and capacities
//! copied from other edges, so rank ties (every rank on the unit grid is
//! one) are broken by edge id throughout.
//!
//! The exchange counter is part of the contract: a forced swap must report
//! a non-zero count, so a silent rebuild cannot pass for the exchange path.

use capprox::{CapacityChange, RackeConfig};
use flowgraph::{max_weight_spanning_tree, update_max_weight_spanning_tree, EdgeId, Graph};
use flowgraph::{NodeId, RootedTree};
use maxflow::{MaxFlowConfig, PreparedParts};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use testkit::families;

/// Field-for-field comparison through the public accessors, so a failure
/// names the first field and node that differ.
fn assert_same_tree(
    got: &RootedTree,
    want: &RootedTree,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.root(), want.root(), "{}: root", context);
    prop_assert_eq!(got.num_nodes(), want.num_nodes(), "{}: node count", context);
    for i in 0..want.num_nodes() {
        let v = NodeId(i as u32);
        prop_assert_eq!(
            got.parent(v),
            want.parent(v),
            "{}: parent of {}",
            context,
            v
        );
        prop_assert_eq!(
            got.parent_edge(v),
            want.parent_edge(v),
            "{}: parent edge of {}",
            context,
            v
        );
        prop_assert_eq!(
            got.children(v),
            want.children(v),
            "{}: children of {}",
            context,
            v
        );
        prop_assert_eq!(got.depth(v), want.depth(v), "{}: depth of {}", context, v);
    }
    prop_assert_eq!(got.preorder(), want.preorder(), "{}: preorder", context);
    prop_assert_eq!(got, want, "{}: remaining fields", context);
    Ok(())
}

/// Draws `count` distinct edges — tree and non-tree edges alike, when the
/// graph has both — and moves each up or down, or onto the capacity of
/// another edge to force a rank tie. Applies the moves to `g` and returns
/// the `(edge, old capacity)` list.
fn draw_batch(
    g: &mut Graph,
    tree: &RootedTree,
    rng: &mut ChaCha8Rng,
    count: usize,
) -> Vec<(EdgeId, f64)> {
    let tree_edges = tree.graph_edges();
    let non_tree: Vec<EdgeId> = g.edge_ids().filter(|e| !tree_edges.contains(e)).collect();
    let mut changes: Vec<(EdgeId, f64)> = Vec::new();
    while changes.len() < count.min(g.num_edges()) {
        let pool = if non_tree.is_empty() || rng.gen_bool(0.5) {
            &tree_edges
        } else {
            &non_tree
        };
        let e = pool[rng.gen_range(0..pool.len())];
        if changes.iter().any(|&(x, _)| x == e) {
            continue;
        }
        let old = g.capacity(e);
        let new = match rng.gen_range(0..3) {
            0 => old * [1.5, 2.0, 4.0][rng.gen_range(0..3usize)],
            1 => old * [0.25, 0.5, 0.75][rng.gen_range(0..3usize)],
            _ => g.capacity(EdgeId(rng.gen_range(0..g.num_edges() as u32))),
        };
        g.set_capacity(e, new).expect("positive finite capacity");
        changes.push((e, old));
    }
    changes
}

/// Raises a non-tree edge above every capacity in `g`, which must swap it
/// into the tree. `None` when every edge is a tree edge (the path family).
fn force_swap(g: &mut Graph, tree: &RootedTree) -> Option<(EdgeId, f64)> {
    let tree_edges = tree.graph_edges();
    let e = g.edge_ids().find(|e| !tree_edges.contains(e))?;
    let top = g.capacity_slice().iter().copied().fold(0.0, f64::max);
    let old = g.capacity(e);
    g.set_capacity(e, 2.0 * top)
        .expect("positive finite capacity");
    Some((e, old))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exchange updates equal Kruskal rebuilds on every oracle family, for
    /// chained batches of 1 to 16 changed edges.
    #[test]
    fn exchange_updates_equal_kruskal_rebuilds(
        n in 12usize..48,
        seed in 0u64..10_000,
        batch in 1usize..=16,
    ) {
        for inst in families::oracle_families(n, seed) {
            let mut g = inst.graph.clone();
            let mut tree = max_weight_spanning_tree(&g, NodeId(0)).expect("families are connected");
            let mut rng = flowgraph::gen::rng(seed ^ 0x7ee);
            for round in 0..4 {
                let changes = draw_batch(&mut g, &tree, &mut rng, batch);
                update_max_weight_spanning_tree(&g, &mut tree, &changes).expect("valid changes");
                let want = max_weight_spanning_tree(&g, NodeId(0)).expect("still connected");
                assert_same_tree(&tree, &want, &format!("{} round {round}", inst.name))?;
            }
            if let Some(change) = force_swap(&mut g, &tree) {
                let exchanges = update_max_weight_spanning_tree(&g, &mut tree, &[change])
                    .expect("valid change");
                prop_assert_eq!(exchanges, 1, "{}: forced swap", inst.name);
                let want = max_weight_spanning_tree(&g, NodeId(0)).expect("still connected");
                assert_same_tree(&tree, &want, &format!("{} forced swap", inst.name))?;
            }
        }
    }

    /// The same contract through `PreparedParts::refresh_after_capacity_update`:
    /// the session's repair tree equals the rebuild after every refresh, and
    /// the refresh reports the forced swap.
    #[test]
    fn session_refresh_keeps_the_repair_tree_exact(
        seed in 0u64..10_000,
        batch in 1usize..=16,
    ) {
        let config = MaxFlowConfig::default()
            .with_racke(RackeConfig::default().with_num_trees(2).with_seed(seed));
        for inst in families::oracle_families(20, seed) {
            let mut g = inst.graph.clone();
            let mut parts = PreparedParts::build(&g, &config).expect("families are connected");
            let mut rng = flowgraph::gen::rng(seed ^ 0x5e5);
            for round in 0..2 {
                let current = parts.repair_tree().clone();
                let changes: Vec<CapacityChange> = draw_batch(&mut g, &current, &mut rng, batch)
                    .into_iter()
                    .map(|(edge, old)| CapacityChange { edge, old, new: g.capacity(edge) })
                    .collect();
                let stats = parts.refresh_after_capacity_update(&g, &changes).expect("valid changes");
                prop_assert!(!stats.repair_tree_rebuilt);
                let want = max_weight_spanning_tree(&g, NodeId(0)).expect("still connected");
                assert_same_tree(parts.repair_tree(), &want, &format!("{} round {round}", inst.name))?;
            }
            let current = parts.repair_tree().clone();
            if let Some((edge, old)) = force_swap(&mut g, &current) {
                let change = CapacityChange { edge, old, new: g.capacity(edge) };
                let stats = parts.refresh_after_capacity_update(&g, &[change]).expect("valid change");
                prop_assert_eq!(stats.repair_tree_exchanges, 1, "{}: forced swap", inst.name);
                let want = max_weight_spanning_tree(&g, NodeId(0)).expect("still connected");
                assert_same_tree(parts.repair_tree(), &want, &format!("{} forced swap", inst.name))?;
            }
        }
    }
}
