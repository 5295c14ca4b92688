//! Build-once / query-many solver sessions.
//!
//! The paper's pipeline splits naturally into a *prepare* phase and a *query*
//! phase: the congestion approximator (the Räcke ensemble of Lemma 3.3), the
//! maximum-weight spanning tree used for residual repair and the CONGEST tree
//! decompositions (Lemma 8.2) depend only on the graph, while each max-flow
//! query is just `O(α²ε⁻³log²n)` cheap gradient iterations on top of them.
//! [`PreparedMaxFlow`] materializes that split: construction happens once in
//! [`PreparedMaxFlow::prepare`], after which any number of `(s, t)` or
//! demand-vector queries run against the cached structures — and, thanks to
//! the session-owned scratch buffers, with zero heap allocation per gradient
//! iteration in the steady state.
//!
//! The free functions [`crate::approx_max_flow`] / [`crate::route_demand`]
//! remain as thin convenience wrappers that prepare a throwaway session per
//! call; a session answers byte-identically to them for the same seed.

use std::collections::HashMap;

use capprox::{
    build_tree_ensemble, CapacityChange, CapacityUpdateStats, CongestionApproximator, EnsembleStats,
};
use flowgraph::{
    max_weight_spanning_tree, update_max_weight_spanning_tree, Demand, Graph, GraphError, NodeId,
    RootedTree,
};
use parallel::Parallelism;

use crate::almost_route::{AlmostRouteScratch, BlockScratch};
use crate::distributed::DistributedPlan;
use crate::solver::{
    max_flow_block_engine, max_flow_engine, route_demand_block_engine, route_demand_engine,
    MaxFlowConfig, MaxFlowResult, RoutingResult, WarmCache,
};

/// Lanes advanced in lockstep per blocked gradient engine call: every batched
/// entry point splits its queries into blocks of this many demands and walks
/// the operator structures once per block instead of once per query. The
/// value trades bandwidth amortization against per-lane scratch footprint;
/// results are byte-identical for every block size, so it is purely a
/// performance knob. Four lanes measured fastest on 10k-node instances;
/// past ~10^5 nodes the lane-major working set of the soft-max and random
/// slot-gather sweeps outgrows the cache hierarchy and two lanes win, so
/// the width adapts to the graph size.
const BLOCK_LANES: usize = 4;

/// Node count above which [`block_lanes`] narrows the block width.
const BLOCK_LANES_LARGE_N: usize = 1 << 17;

/// Lane width for a graph with `n` nodes (see [`BLOCK_LANES`]).
const fn block_lanes(n: usize) -> usize {
    if n >= BLOCK_LANES_LARGE_N {
        2
    } else {
        BLOCK_LANES
    }
}

/// Batches of more changed edges than this rebuild the repair tree with
/// Kruskal instead of exchanging edges one change at a time. A change costs
/// one tree-path walk or one scan of the smaller side of one tree cut —
/// microseconds for the typical edge, but up to half the graph for a cut
/// near the middle of the tree — while a rebuild costs one sort of all
/// edges whatever the batch, so past a few dozen changes the rebuild is the
/// safer bound.
const REPAIR_TREE_REBUILD_BATCH: usize = 64;

/// Work counters from one [`PreparedParts::refresh_after_capacity_update`]:
/// the approximator's path patching ([`CapacityUpdateStats`]) and the repair
/// tree's edge exchanges, for asserting that the incremental path actually
/// ran (and how much it touched) instead of a silent full rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshStats {
    /// Trees in the approximator's ensemble.
    pub trees_total: usize,
    /// Ensemble trees where at least one cut capacity changed.
    pub trees_touched: usize,
    /// `(tree, node)` cut-capacity entries patched.
    pub slots_patched: usize,
    /// Edge exchanges that kept the repair tree the maximum-weight spanning
    /// tree (0 when no change moved it).
    pub repair_tree_exchanges: usize,
    /// The batch was larger than the exchange cutoff, so the repair tree was
    /// rebuilt with Kruskal instead.
    pub repair_tree_rebuilt: bool,
}

/// A prepared max-flow solver session: the congestion approximator, repair
/// tree and scratch buffers are built once, then arbitrarily many queries are
/// answered against them.
///
/// Queries take `&mut self` because they reuse the session's scratch buffers;
/// results are independent of query order and of how often the session has
/// been used (every query is answered byte-identically to a fresh one-shot
/// [`crate::approx_max_flow`] call with the same config).
///
/// The prepared structures themselves (graph, approximator, repair tree) are
/// immutable and `Send + Sync`; only the scratch is per-worker state. That is
/// what lets [`Self::par_max_flow_batch`] run independent `(s, t)` queries
/// concurrently — each worker borrows the shared structures and owns one
/// scratch from the session's pool — while staying byte-identical to the
/// sequential [`Self::max_flow_batch`].
///
/// # Example
///
/// ```
/// use flowgraph::{gen, NodeId};
/// use maxflow::{MaxFlowConfig, Parallelism, PreparedMaxFlow};
///
/// let g = gen::grid(5, 5, 1.0);
/// let mut session = PreparedMaxFlow::prepare(&g, &MaxFlowConfig::default()).unwrap();
/// let a = session.max_flow(NodeId(0), NodeId(24)).unwrap();
/// let b = session.max_flow(NodeId(4), NodeId(20)).unwrap();
/// assert!(a.value > 0.0 && b.value > 0.0);
///
/// // Opt into parallel execution: 4 workers answer a batch concurrently,
/// // byte-identical to the sequential batch (and to threads = 1).
/// let cfg = MaxFlowConfig::default().with_parallelism(Parallelism::with_threads(4));
/// let mut par_session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
/// let pairs = [(NodeId(0), NodeId(24)), (NodeId(4), NodeId(20))];
/// let batch = par_session.par_max_flow_batch(&pairs).unwrap();
/// assert_eq!(batch[0].value.to_bits(), a.value.to_bits());
/// assert_eq!(batch[1].value.to_bits(), b.value.to_bits());
/// ```
#[derive(Debug)]
pub struct PreparedMaxFlow<'g> {
    graph: &'g Graph,
    pub(crate) parts: PreparedParts,
}

/// The owned prepared state of a session, detached from the graph borrow:
/// everything [`PreparedMaxFlow`] derives from the graph (approximator,
/// repair tree, scratch pools, warm cache), without the `&Graph` itself.
///
/// A [`PreparedMaxFlow`] is exactly `(&Graph, PreparedParts)` — split with
/// [`PreparedMaxFlow::into_parts`], rejoin with
/// [`PreparedMaxFlow::from_parts`]. The split is what lets a long-lived
/// server *own* a mutable graph alongside its prepared state without a
/// self-referential struct: between requests the server holds
/// `(Graph, PreparedParts)`; to answer a batch it borrows the graph and
/// rejoins the parts into a session; to apply capacity updates it mutates
/// the graph and calls [`Self::refresh_after_capacity_update`].
///
/// Round-tripping through `into_parts`/`from_parts` preserves every byte of
/// session state (scratch warmth, warm-start cache, distributed plan), so
/// answers are byte-identical to an undisturbed session.
#[derive(Debug)]
pub struct PreparedParts {
    config: MaxFlowConfig,
    approximator: CongestionApproximator,
    ensemble_stats: EnsembleStats,
    repair_tree: RootedTree,
    scratch: AlmostRouteScratch,
    /// Lane-major scratch for the blocked batch entry points, grown lazily
    /// and reused across batches.
    block_scratch: BlockScratch,
    /// Per-worker blocked scratch buffers for
    /// [`PreparedMaxFlow::par_max_flow_batch`], grown lazily to the
    /// configured thread count and reused across batches.
    block_pool: Vec<BlockScratch>,
    /// The last answered query, kept to warm-start the next one when
    /// [`MaxFlowConfig::warm_start`] is enabled (always `None` otherwise).
    warm_cache: Option<WarmCache>,
    pub(crate) plan: Option<DistributedPlan>,
}

impl PreparedParts {
    /// Builds the prepared state for `graph`: validates the config and the
    /// graph, constructs the congestion approximator (the expensive part)
    /// and the maximum-weight spanning tree for residual repair, and
    /// pre-sizes the per-query scratch buffers.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] for configurations that could
    /// never produce a meaningful run (see [`MaxFlowConfig::validate`]) and
    /// [`GraphError::Empty`] / [`GraphError::NotConnected`] /
    /// [`GraphError::NoEdges`] for degenerate graphs.
    pub fn build(graph: &Graph, config: &MaxFlowConfig) -> Result<Self, GraphError> {
        config.validate()?;
        if graph.num_nodes() == 0 {
            return Err(GraphError::Empty);
        }
        if !graph.is_connected() {
            return Err(GraphError::NotConnected);
        }
        if graph.num_edges() == 0 {
            // A connected graph without edges is a single node; there is
            // nothing to route and the gradient potential is undefined on an
            // empty edge set (see `almost_route::smax`).
            return Err(GraphError::NoEdges);
        }
        // The scalable preparation path assembles the ensemble level by
        // level through the recursive j-tree hierarchy (Theorem 8.10); the
        // default path builds the Räcke ensemble directly on the graph.
        let (ensemble, hierarchy_stats) = match &config.hierarchy {
            Some(hierarchy) => {
                let (ensemble, stats) =
                    capprox::build_hierarchical_ensemble(graph, hierarchy, &config.racke)?;
                (ensemble, Some(stats))
            }
            None => (build_tree_ensemble(graph, &config.racke)?, None),
        };
        let ensemble_stats = ensemble.stats.clone();
        let approximator = match hierarchy_stats {
            Some(stats) => CongestionApproximator::from_ensemble_with_hierarchy(ensemble, stats)?,
            None => CongestionApproximator::from_ensemble(ensemble)?,
        };
        let repair_tree = max_weight_spanning_tree(graph, NodeId(0))?;
        let scratch = AlmostRouteScratch::for_instance(graph, &approximator);
        Ok(PreparedParts {
            config: config.clone(),
            approximator,
            ensemble_stats,
            repair_tree,
            scratch,
            block_scratch: BlockScratch::default(),
            block_pool: Vec::new(),
            warm_cache: None,
            plan: None,
        })
    }

    /// Node count of the graph these parts were prepared for.
    pub fn num_nodes(&self) -> usize {
        self.approximator.num_nodes()
    }

    /// The solver configuration the parts were built with.
    pub fn config(&self) -> &MaxFlowConfig {
        &self.config
    }

    /// The prepared congestion approximator.
    pub fn approximator(&self) -> &CongestionApproximator {
        &self.approximator
    }

    /// The maximum-weight spanning tree used for residual repair.
    pub fn repair_tree(&self) -> &RootedTree {
        &self.repair_tree
    }

    /// Re-prepares the parts in place after a batch of edge-capacity changes
    /// on the graph, without rebuilding the tree ensemble: the approximator's
    /// cut capacities are patched incrementally along the changed edges' tree
    /// paths ([`CongestionApproximator::update_capacities`] — work
    /// proportional to the paths, not to the graph), the repair tree is kept
    /// the maximum-weight spanning tree by edge exchanges
    /// ([`update_max_weight_spanning_tree`]: a changed non-tree edge that
    /// outranks the worst edge on its tree path replaces it, a changed tree
    /// edge outranked across its subtree cut is replaced by the best edge
    /// crossing it), and capacity-dependent caches (warm-start flow,
    /// distributed plan) are dropped.
    ///
    /// The maximum-weight spanning tree is unique (capacity descending, ties
    /// to the lower edge id), so the repair tree after a refresh equals the
    /// one [`Self::build`] grows at the new capacities field for field, and
    /// a change that does not cross the tree's exchange rule leaves it
    /// untouched. Batches of more than a fixed number of edges rebuild it
    /// with Kruskal instead ([`RefreshStats::repair_tree_rebuilt`]), with
    /// the same result.
    ///
    /// `graph` must already hold the new capacities (apply
    /// [`Graph::set_capacity`] first) and be the same graph the parts were
    /// prepared for, topologically: same nodes, same edges, only capacities
    /// changed.
    ///
    /// After a successful refresh, queries through a rejoined
    /// [`PreparedMaxFlow`] answer byte-identically to a session freshly
    /// prepared from an ensemble with the *same tree topologies* at the new
    /// capacities — but **not** necessarily to a full
    /// [`PreparedMaxFlow::prepare`], which re-samples the ensemble and may
    /// draw different trees. Both are valid `(1+ε)` certificates; the
    /// equivalence suites pin the former.
    ///
    /// # Errors
    ///
    /// Propagates [`CongestionApproximator::update_capacities`] and
    /// [`update_max_weight_spanning_tree`] errors, after which the parts may
    /// be partially patched and **must be discarded and rebuilt** with
    /// [`Self::build`] — the caller's full-rebuild fallback.
    pub fn refresh_after_capacity_update(
        &mut self,
        graph: &Graph,
        changes: &[CapacityChange],
    ) -> Result<RefreshStats, GraphError> {
        let CapacityUpdateStats {
            trees_total,
            trees_touched,
            slots_patched,
        } = self.approximator.update_capacities(graph, changes)?;
        let repair_tree_rebuilt = changes.len() > REPAIR_TREE_REBUILD_BATCH;
        let repair_tree_exchanges = if repair_tree_rebuilt {
            self.repair_tree = max_weight_spanning_tree(graph, NodeId(0))?;
            0
        } else {
            let old: Vec<_> = changes.iter().map(|c| (c.edge, c.old)).collect();
            update_max_weight_spanning_tree(graph, &mut self.repair_tree, &old)?
        };
        // Both caches embed flows scaled against the old capacities; a warm
        // start from a stale flow would change answers, and the distributed
        // plan's congestion accounting would be wrong.
        self.warm_cache = None;
        self.plan = None;
        Ok(RefreshStats {
            trees_total,
            trees_touched,
            slots_patched,
            repair_tree_exchanges,
            repair_tree_rebuilt,
        })
    }
}

impl<'g> PreparedMaxFlow<'g> {
    /// Builds the session: [`PreparedParts::build`] plus the graph borrow.
    ///
    /// # Errors
    ///
    /// See [`PreparedParts::build`].
    pub fn prepare(graph: &'g Graph, config: &MaxFlowConfig) -> Result<Self, GraphError> {
        Ok(PreparedMaxFlow {
            graph,
            parts: PreparedParts::build(graph, config)?,
        })
    }

    /// Rejoins owned [`PreparedParts`] with the graph they were prepared for
    /// (the inverse of [`Self::into_parts`]).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DemandMismatch`] when `graph`'s node count does
    /// not match the parts' — the strongest structural check available
    /// without storing a full graph fingerprint; pairing parts with the
    /// wrong same-sized graph is on the caller (a server keys parts by graph
    /// fingerprint for exactly this reason).
    pub fn from_parts(graph: &'g Graph, parts: PreparedParts) -> Result<Self, GraphError> {
        if parts.num_nodes() != graph.num_nodes() {
            return Err(GraphError::DemandMismatch {
                expected: parts.num_nodes(),
                actual: graph.num_nodes(),
            });
        }
        Ok(PreparedMaxFlow { graph, parts })
    }

    /// Releases the graph borrow and returns the owned prepared state,
    /// preserving every byte of it (scratch warmth, warm cache, plan).
    pub fn into_parts(self) -> PreparedParts {
        self.parts
    }

    /// Computes a `(1+ε)`-approximate maximum s–t flow using the prepared
    /// structures (Theorem 1.1, centralized execution).
    ///
    /// With [`MaxFlowConfig::warm_start`] enabled, the session additionally
    /// remembers this query's routing and seeds the next query's descent with
    /// it when the terminal pair repeats (in either orientation).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] / [`GraphError::SelfLoop`] for
    /// invalid terminals.
    pub fn max_flow(&mut self, s: NodeId, t: NodeId) -> Result<MaxFlowResult, GraphError> {
        max_flow_engine(
            self.graph,
            &self.parts.approximator,
            &self.parts.repair_tree,
            s,
            t,
            &self.parts.config,
            &mut self.parts.scratch,
            Some(&mut self.parts.warm_cache),
        )
    }

    /// Answers a batch of s–t queries through the blocked multi-demand
    /// gradient engine: the pairs are split into blocks of up to 8 lanes and
    /// every gradient iteration of a block walks the operator structures
    /// (tree slots, edge lists, soft-max buffers) **once for all lanes**,
    /// which is what makes large-graph serving memory-bandwidth-efficient.
    ///
    /// With [`MaxFlowConfig::warm_start`] **off** (the default), the answers
    /// are byte-identical to calling [`Self::max_flow`] once per pair in
    /// order (and tested to be exactly that) — the blocked engine preserves
    /// each lane's floating-point sequence exactly.
    ///
    /// With warm starts **on**, the batch warms each query from the previous
    /// answer for the *same terminal pair* (in either orientation) within
    /// this batch: repeated pairs form per-pair chains, and chain links are
    /// processed in waves so unrelated queries can share a block. Answers
    /// equal replaying each pair's chain on a fresh session (also pinned by
    /// tests), and the batch neither reads nor writes the session's
    /// single-query warm slot — interleave [`Self::max_flow`] calls freely.
    ///
    /// # Errors
    ///
    /// Fails fast with the earliest offending pair's error; no partial
    /// results are returned.
    pub fn max_flow_batch(
        &mut self,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<MaxFlowResult>, GraphError> {
        self.blocked_batch(pairs, 1)
    }

    /// [`Self::max_flow_batch`] with the blocks of a batch fanned across the
    /// workers of the session's configured [`MaxFlowConfig::parallelism`]:
    /// worker `w` answers blocks `w, w + T, w + 2T, …` against the shared
    /// prepared structures using its own blocked scratch from the session
    /// pool, so no mutable state is shared between workers. Threads
    /// parallelize **across** blocks while the lanes of each block amortize
    /// the operator walks **within** it; results are **byte-identical** to
    /// the sequential batch (in order) for any thread count — including under
    /// [`MaxFlowConfig::warm_start`], where the waves of each per-pair chain
    /// are barriers: all blocks of a wave finish before the next wave starts,
    /// so every warm flow is ready regardless of worker scheduling.
    ///
    /// Query fan-out and operator fan-out do not nest: batch workers run
    /// their blocks with sequential operator evaluations, so the thread
    /// count is `T`, not `T²`.
    ///
    /// # Errors
    ///
    /// On invalid pairs, returns the error of the earliest offending pair —
    /// the same error [`Self::max_flow_batch`] fails fast with (the parallel
    /// form may have computed later queries before reporting it).
    pub fn par_max_flow_batch(
        &mut self,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<MaxFlowResult>, GraphError> {
        let blocks = pairs.len().div_ceil(block_lanes(self.graph.num_nodes()));
        let workers = self.parts.config.parallelism.threads().min(blocks.max(1));
        self.blocked_batch(pairs, workers)
    }

    /// Routes `k` independent demand vectors — a multi-commodity traffic
    /// matrix — through the blocked gradient engine in one call: the demands
    /// advance in lockstep, sharing every operator walk, and each commodity's
    /// flow is byte-identical to routing it alone with [`Self::route`].
    ///
    /// Each demand is routed on the *original* capacities (the commodities
    /// do not compete for capacity); superimpose the returned flows and scale
    /// by the combined congestion for a feasible concurrent routing.
    ///
    /// ```
    /// use flowgraph::{gen, Demand, NodeId};
    /// use maxflow::{MaxFlowConfig, PreparedMaxFlow};
    ///
    /// let g = gen::grid(5, 5, 1.0);
    /// let mut session = PreparedMaxFlow::prepare(&g, &MaxFlowConfig::default()).unwrap();
    /// // Three commodities, routed together in one blocked call.
    /// let matrix = [
    ///     Demand::st(&g, NodeId(0), NodeId(24), 1.0),
    ///     Demand::st(&g, NodeId(4), NodeId(20), 0.5),
    ///     Demand::st(&g, NodeId(2), NodeId(22), 0.25),
    /// ];
    /// let routed = session.route_many(&matrix).unwrap();
    /// assert_eq!(routed.len(), 3);
    /// for (b, r) in matrix.iter().zip(&routed) {
    ///     // Each flow meets its commodity's demand exactly.
    ///     let excess = r.flow.excess(&g);
    ///     for v in g.nodes() {
    ///         assert!((excess[v.index()] - b.get(v)).abs() < 1e-6);
    ///     }
    /// }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DemandMismatch`] for the earliest demand that
    /// does not cover exactly the graph's nodes.
    pub fn route_many(&mut self, demands: &[Demand]) -> Result<Vec<RoutingResult>, GraphError> {
        let mut results = Vec::with_capacity(demands.len());
        for chunk in demands.chunks(block_lanes(self.graph.num_nodes())) {
            let refs: Vec<&Demand> = chunk.iter().collect();
            let warms = vec![None; chunk.len()];
            results.extend(route_demand_block_engine(
                self.graph,
                &self.parts.approximator,
                &self.parts.repair_tree,
                &refs,
                &self.parts.config,
                &mut self.parts.block_scratch,
                &warms,
            )?);
        }
        Ok(results)
    }

    /// The shared batched query driver behind [`Self::max_flow_batch`]
    /// (`workers == 1`) and [`Self::par_max_flow_batch`] (`workers > 1`).
    ///
    /// Without warm starts the whole batch is one wave of independent
    /// blocks. With warm starts, occurrence `w` of every (orientation-
    /// normalized) terminal pair lands in wave `w`: the waves run in order
    /// with a barrier between them, each query warms from its pair's answer
    /// in the previous wave through a batch-scoped map, and an answer is
    /// kept in the map only while a later occurrence still needs it. Every
    /// per-pair error surfaces in wave 0 (errors do not depend on warm
    /// state), so a failed batch never leaves half-finished waves behind.
    fn blocked_batch(
        &mut self,
        pairs: &[(NodeId, NodeId)],
        workers: usize,
    ) -> Result<Vec<MaxFlowResult>, GraphError> {
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let key_of = |s: NodeId, t: NodeId| {
            if s.index() <= t.index() {
                (s, t)
            } else {
                (t, s)
            }
        };
        // Wave index and keep-for-later flag per query. Without warm starts
        // nothing is warmed or stored, and a single wave holds everything.
        let mut occurrence = vec![0usize; pairs.len()];
        let mut store = vec![false; pairs.len()];
        let mut num_waves = 1usize;
        if self.parts.config.warm_start {
            let mut chains: HashMap<(NodeId, NodeId), Vec<usize>> = HashMap::new();
            for (i, &(s, t)) in pairs.iter().enumerate() {
                chains.entry(key_of(s, t)).or_default().push(i);
            }
            for chain in chains.values() {
                num_waves = num_waves.max(chain.len());
                for (j, &i) in chain.iter().enumerate() {
                    occurrence[i] = j;
                    store[i] = j + 1 < chain.len();
                }
            }
        }

        let mut warm_map: HashMap<(NodeId, NodeId), WarmCache> = HashMap::new();
        let mut out: Vec<Option<MaxFlowResult>> = (0..pairs.len()).map(|_| None).collect();
        for wave in 0..num_waves {
            let lanes: Vec<usize> = (0..pairs.len())
                .filter(|&i| occurrence[i] == wave)
                .collect();
            // Per-block inputs: lane indices, pairs, warm flows from the
            // previous wave, and keep flags.
            type BlockInput<'a> = (
                &'a [usize],
                Vec<(NodeId, NodeId)>,
                Vec<Option<&'a WarmCache>>,
                Vec<bool>,
            );
            let blocks: Vec<BlockInput> = lanes
                .chunks(block_lanes(self.graph.num_nodes()))
                .map(|block| {
                    let block_pairs: Vec<_> = block.iter().map(|&i| pairs[i]).collect();
                    let warm_in: Vec<_> = block
                        .iter()
                        .map(|&i| warm_map.get(&key_of(pairs[i].0, pairs[i].1)))
                        .collect();
                    let block_store: Vec<_> = block.iter().map(|&i| store[i]).collect();
                    (block, block_pairs, warm_in, block_store)
                })
                .collect();

            // One block's answers with each lane's fresh warm entry — or the
            // block index whose earliest lane failed. Blocks partition the
            // wave's lanes in ascending index ranges and the engine fails
            // fast on its earliest lane, so the earliest failing block holds
            // the batch's earliest error.
            type BlockAnswers = Vec<(usize, MaxFlowResult, Option<WarmCache>)>;
            let mut answered: Vec<(usize, BlockAnswers)> = Vec::with_capacity(blocks.len());
            if workers <= 1 {
                for (bi, (block, block_pairs, warm_in, block_store)) in blocks.iter().enumerate() {
                    let (results, warm_out) = max_flow_block_engine(
                        self.graph,
                        &self.parts.approximator,
                        &self.parts.repair_tree,
                        block_pairs,
                        &self.parts.config,
                        &mut self.parts.block_scratch,
                        warm_in,
                        block_store,
                    )?;
                    answered.push((
                        bi,
                        block
                            .iter()
                            .zip(results.into_iter().zip(warm_out))
                            .map(|(&i, (result, warm))| (i, result, warm))
                            .collect(),
                    ));
                }
            } else {
                let worker_config = self
                    .parts
                    .config
                    .clone()
                    .with_parallelism(Parallelism::sequential());
                while self.parts.block_pool.len() < workers {
                    self.parts.block_pool.push(BlockScratch::default());
                }
                let graph = self.graph;
                let approximator = &self.parts.approximator;
                let repair_tree = &self.parts.repair_tree;
                let blocks = &blocks;
                type WorkerStripe = Result<Vec<(usize, BlockAnswers)>, (usize, GraphError)>;
                let tasks: Vec<&mut BlockScratch> =
                    self.parts.block_pool[..workers].iter_mut().collect();
                let partials: Vec<WorkerStripe> = parallel::join_workers(tasks, |w, scratch| {
                    let mut mine = Vec::with_capacity(blocks.len().div_ceil(workers));
                    for (bi, (block, block_pairs, warm_in, block_store)) in
                        blocks.iter().enumerate().skip(w).step_by(workers)
                    {
                        match max_flow_block_engine(
                            graph,
                            approximator,
                            repair_tree,
                            block_pairs,
                            &worker_config,
                            scratch,
                            warm_in,
                            block_store,
                        ) {
                            Ok((results, warm_out)) => mine.push((
                                bi,
                                block
                                    .iter()
                                    .zip(results.into_iter().zip(warm_out))
                                    .map(|(&i, (result, warm))| (i, result, warm))
                                    .collect(),
                            )),
                            Err(err) => return Err((bi, err)),
                        }
                    }
                    Ok(mine)
                });
                if let Some((_, err)) = partials
                    .iter()
                    .filter_map(|p| p.as_ref().err())
                    .min_by_key(|(bi, _)| *bi)
                {
                    return Err(err.clone());
                }
                for partial in partials {
                    // The error scan above returned on any Err stripe; a
                    // stripe that still fails here is a bookkeeping bug,
                    // reported as a typed error so a daemon worker thread
                    // fails the request instead of aborting the process.
                    answered.extend(partial.map_err(|_| GraphError::Internal {
                        invariant: "parallel batch stripe failed after the error scan",
                    })?);
                }
            }

            for (_, block_answers) in answered {
                for (i, result, warm) in block_answers {
                    let key = key_of(pairs[i].0, pairs[i].1);
                    match warm {
                        // The engine only produces an entry for store-flagged
                        // lanes; dropping the map entry after a chain's last
                        // link keeps the map's footprint at one flow per
                        // *open* chain.
                        Some(w) => {
                            warm_map.insert(key, w);
                        }
                        None => {
                            warm_map.remove(&key);
                        }
                    }
                    out[i] = Some(result);
                }
            }
        }
        // Every wave assigns each of its lane indices to exactly one block,
        // so every slot must be filled; an unanswered slot is a wave/block
        // partitioning bug, surfaced as a typed error (never a panic — see
        // above).
        out.into_iter()
            .map(|r| {
                r.ok_or(GraphError::Internal {
                    invariant: "batch left a query unanswered",
                })
            })
            .collect()
    }

    /// Routes an arbitrary balanced demand vector with near-optimal
    /// congestion (Algorithm 1 without the max-flow scaling), using the
    /// prepared structures.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DemandMismatch`] if `b` does not cover exactly
    /// the graph's nodes.
    pub fn route(&mut self, b: &Demand) -> Result<RoutingResult, GraphError> {
        route_demand_engine(
            self.graph,
            &self.parts.approximator,
            &self.parts.repair_tree,
            b,
            &self.parts.config,
            &mut self.parts.scratch,
            None,
        )
    }

    /// The graph this session was prepared for.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The session's solver configuration.
    pub fn config(&self) -> &MaxFlowConfig {
        &self.parts.config
    }

    /// The prepared congestion approximator.
    pub fn approximator(&self) -> &CongestionApproximator {
        &self.parts.approximator
    }

    /// Construction statistics of the underlying tree ensemble.
    pub fn ensemble_stats(&self) -> &EnsembleStats {
        &self.parts.ensemble_stats
    }

    /// The maximum-weight spanning tree used for residual repair.
    pub fn repair_tree(&self) -> &RootedTree {
        &self.parts.repair_tree
    }
}

// A session must be shareable across threads for the distributed serving
// posture (worker pools borrowing one prepared session's structures); pin it
// at compile time so a future field can't silently revoke it.
const _: fn() = parallel::assert_send_sync::<PreparedMaxFlow<'static>>;

#[cfg(test)]
mod tests {
    use super::*;
    use capprox::RackeConfig;
    use flowgraph::gen;

    fn config() -> MaxFlowConfig {
        MaxFlowConfig::default()
            .with_epsilon(0.2)
            .with_racke(RackeConfig::default().with_num_trees(6).with_seed(11))
            .with_phases(Some(2))
            .with_max_iterations_per_phase(2_000)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn session_matches_one_shot_byte_for_byte() {
        let g = gen::grid(5, 5, 1.0);
        let cfg = config();
        let one_shot = crate::approx_max_flow(&g, NodeId(0), NodeId(24), &cfg).unwrap();
        let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        let ses = session.max_flow(NodeId(0), NodeId(24)).unwrap();
        assert_eq!(one_shot.value.to_bits(), ses.value.to_bits());
        assert_eq!(one_shot.upper_bound.to_bits(), ses.upper_bound.to_bits());
        assert_eq!(one_shot.iterations, ses.iterations);
        assert_eq!(bits(one_shot.flow.values()), bits(ses.flow.values()));
    }

    #[test]
    fn repeated_queries_are_deterministic() {
        // The scratch reuse must not leak state between queries: asking the
        // same question twice (with another query in between) gives the same
        // bytes.
        let g = gen::Family::Random.generate(30, 5);
        let mut session = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        let first = session.max_flow(NodeId(0), NodeId(29)).unwrap();
        let _interleaved = session.max_flow(NodeId(3), NodeId(17)).unwrap();
        let second = session.max_flow(NodeId(0), NodeId(29)).unwrap();
        assert_eq!(first.value.to_bits(), second.value.to_bits());
        assert_eq!(bits(first.flow.values()), bits(second.flow.values()));
    }

    #[test]
    fn batch_equals_query_loop() {
        let g = gen::grid(4, 4, 1.0);
        let cfg = config();
        let pairs = [
            (NodeId(0), NodeId(15)),
            (NodeId(3), NodeId(12)),
            (NodeId(0), NodeId(15)),
        ];
        let mut batch_session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        let batch = batch_session.max_flow_batch(&pairs).unwrap();
        let mut loop_session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        for (b, &(s, t)) in batch.iter().zip(&pairs) {
            let l = loop_session.max_flow(s, t).unwrap();
            assert_eq!(b.value.to_bits(), l.value.to_bits());
            assert_eq!(bits(b.flow.values()), bits(l.flow.values()));
        }
    }

    #[test]
    fn par_batch_equals_sequential_batch_byte_for_byte() {
        let g = gen::Family::Random.generate(24, 9);
        let pairs = [
            (NodeId(0), NodeId(23)),
            (NodeId(5), NodeId(11)),
            (NodeId(23), NodeId(0)),
            (NodeId(2), NodeId(19)),
            (NodeId(7), NodeId(13)),
        ];
        let mut seq_session = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        let seq = seq_session.max_flow_batch(&pairs).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let cfg = config().with_parallelism(Parallelism::with_threads(threads));
            let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
            let par = session.par_max_flow_batch(&pairs).unwrap();
            assert_eq!(par.len(), seq.len());
            for (p, s) in par.iter().zip(&seq) {
                assert_eq!(p.value.to_bits(), s.value.to_bits(), "{threads} threads");
                assert_eq!(bits(p.flow.values()), bits(s.flow.values()));
                assert_eq!(p.iterations, s.iterations);
            }
            // A second batch through the warm pool is also byte-identical.
            let again = session.par_max_flow_batch(&pairs).unwrap();
            for (p, s) in again.iter().zip(&seq) {
                assert_eq!(p.value.to_bits(), s.value.to_bits());
            }
        }
    }

    #[test]
    fn par_batch_reports_earliest_pair_error() {
        let g = gen::grid(4, 4, 1.0);
        let cfg = config().with_parallelism(Parallelism::with_threads(4));
        let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        let pairs = [
            (NodeId(0), NodeId(15)),
            (NodeId(3), NodeId(99)), // out of range: the earliest error
            (NodeId(7), NodeId(7)),  // self loop, later in the batch
        ];
        assert!(matches!(
            session.par_max_flow_batch(&pairs),
            Err(GraphError::NodeOutOfRange { node: 99, .. })
        ));
    }

    #[test]
    fn parts_round_trip_preserves_session_state_bitwise() {
        // into_parts/from_parts is the daemon's steady-state loop; splitting
        // and rejoining between every query must not perturb a bit, including
        // under warm starts (the warm cache rides along in the parts).
        let g = gen::Family::Random.generate(26, 7);
        let cfg = config().with_warm_start(true);
        let mut undisturbed = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        let mut parts = PreparedParts::build(&g, &cfg).unwrap();
        let queries = [
            (NodeId(0), NodeId(25)),
            (NodeId(3), NodeId(17)),
            (NodeId(0), NodeId(25)), // warm repeat
        ];
        for &(s, t) in &queries {
            let expected = undisturbed.max_flow(s, t).unwrap();
            let mut session = PreparedMaxFlow::from_parts(&g, parts).unwrap();
            let got = session.max_flow(s, t).unwrap();
            parts = session.into_parts();
            assert_eq!(expected.value.to_bits(), got.value.to_bits());
            assert_eq!(expected.iterations, got.iterations);
            assert_eq!(bits(expected.flow.values()), bits(got.flow.values()));
        }
    }

    #[test]
    fn from_parts_rejects_a_mismatched_graph() {
        let g = gen::grid(4, 4, 1.0);
        let parts = PreparedParts::build(&g, &config()).unwrap();
        let other = gen::grid(3, 3, 1.0);
        assert!(matches!(
            PreparedMaxFlow::from_parts(&other, parts),
            Err(GraphError::DemandMismatch {
                expected: 16,
                actual: 9
            })
        ));
    }

    #[test]
    fn refresh_after_capacity_update_matches_fresh_prepare_on_a_path() {
        // A path has exactly one spanning tree, so the re-sampled ensemble of
        // a fresh prepare() and the kept ensemble of the incremental refresh
        // have identical topologies — and with integer capacities the cut
        // sums are exact, so the two sessions must answer BITWISE equal.
        // (General graphs re-sample different trees; the capprox suites pin
        // the same-topology equivalence there.)
        let mut g = gen::path(12, 4.0);
        let mut parts = PreparedParts::build(&g, &config()).unwrap();
        let e = g.edge_ids().nth(5).unwrap();
        g.set_capacity(e, 2.0).unwrap();
        let stats = parts
            .refresh_after_capacity_update(
                &g,
                &[capprox::CapacityChange {
                    edge: e,
                    old: 4.0,
                    new: 2.0,
                }],
            )
            .unwrap();
        assert!(stats.trees_touched >= 1 && stats.slots_patched >= 1);
        let mut refreshed = PreparedMaxFlow::from_parts(&g, parts).unwrap();
        let mut fresh = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        let a = refreshed.max_flow(NodeId(0), NodeId(11)).unwrap();
        let b = fresh.max_flow(NodeId(0), NodeId(11)).unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
        assert_eq!(bits(a.flow.values()), bits(b.flow.values()));
        // The bottleneck the update created is certified by the bracket.
        assert!(a.value <= 2.0 + 1e-9 && a.upper_bound >= 2.0 - 1e-9);
    }

    #[test]
    fn refresh_exchanges_repair_tree_edges_to_match_a_rebuild() {
        // Unit grid: every rank is a capacity tie broken by edge id. Raising
        // a non-tree edge above all others forces it into the repair tree.
        let mut g = gen::grid(6, 8, 1.0);
        let mut parts = PreparedParts::build(&g, &config()).unwrap();
        let e = g
            .edge_ids()
            .find(|&e| !parts.repair_tree.graph_edges().contains(&e))
            .unwrap();
        g.set_capacity(e, 5.0).unwrap();
        let stats = parts
            .refresh_after_capacity_update(
                &g,
                &[capprox::CapacityChange {
                    edge: e,
                    old: 1.0,
                    new: 5.0,
                }],
            )
            .unwrap();
        assert_eq!(stats.repair_tree_exchanges, 1);
        assert!(!stats.repair_tree_rebuilt);
        assert_eq!(
            parts.repair_tree,
            max_weight_spanning_tree(&g, NodeId(0)).unwrap()
        );
        // Past the cutoff the tree is rebuilt, with the same result.
        let changes: Vec<_> = (0..=REPAIR_TREE_REBUILD_BATCH as u32)
            .map(|i| {
                let edge = flowgraph::EdgeId(i);
                let old = g.capacity(edge);
                g.set_capacity(edge, old + 0.5).unwrap();
                capprox::CapacityChange {
                    edge,
                    old,
                    new: old + 0.5,
                }
            })
            .collect();
        let stats = parts.refresh_after_capacity_update(&g, &changes).unwrap();
        assert!(stats.repair_tree_rebuilt);
        assert_eq!(
            parts.repair_tree,
            max_weight_spanning_tree(&g, NodeId(0)).unwrap()
        );
    }

    #[test]
    fn refresh_rejects_stale_graph_capacities() {
        // The graph must already hold the new capacities; refresh with a
        // stale graph is the misuse the typed error (and the daemon's full-
        // rebuild fallback) exists for.
        let g = gen::grid(4, 4, 1.0);
        let mut parts = PreparedParts::build(&g, &config()).unwrap();
        let e = g.edge_ids().next().unwrap();
        assert!(matches!(
            parts.refresh_after_capacity_update(
                &g,
                &[capprox::CapacityChange {
                    edge: e,
                    old: 1.0,
                    new: 5.0,
                }],
            ),
            Err(GraphError::InvalidConfig {
                parameter: "changes",
                ..
            })
        ));
    }

    #[test]
    fn partial_answers_are_discarded_and_the_session_survives() {
        // The partial-answer path: with two workers striping the blocks,
        // worker 0's blocks (0, 2) complete with real answers while worker
        // 1's block 1 holds the invalid pair. The completed stripes' partial
        // answers must be discarded behind a typed error — never a panic and
        // never a half-filled result vector — and the session must stay
        // fully usable (warm pool, scratch, and determinism intact).
        let g = gen::grid(4, 4, 1.0);
        let cfg = config().with_parallelism(Parallelism::with_threads(2));
        let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        // block_lanes is 4 at this size: three blocks of four lanes. The
        // single bad pair lands in block 1 (lane 6).
        let good = [
            (NodeId(0), NodeId(15)),
            (NodeId(3), NodeId(12)),
            (NodeId(1), NodeId(14)),
            (NodeId(2), NodeId(13)),
            (NodeId(4), NodeId(11)),
            (NodeId(5), NodeId(10)),
            (NodeId(6), NodeId(9)),
            (NodeId(7), NodeId(8)),
            (NodeId(0), NodeId(10)),
            (NodeId(5), NodeId(15)),
            (NodeId(3), NodeId(9)),
            (NodeId(1), NodeId(11)),
        ];
        let mut poisoned = good;
        poisoned[6] = (NodeId(6), NodeId(77)); // out of range, block 1
        match session.par_max_flow_batch(&poisoned) {
            Err(GraphError::NodeOutOfRange { node: 77, .. }) => {}
            other => panic!("expected NodeOutOfRange for node 77, got {other:?}"),
        }
        // The failed batch left no residue: the same session answers the
        // all-valid batch byte-identically to a fresh sequential session.
        let after = session.par_max_flow_batch(&good).unwrap();
        let mut fresh = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        let reference = fresh.max_flow_batch(&good).unwrap();
        assert_eq!(after.len(), reference.len());
        for (a, r) in after.iter().zip(&reference) {
            assert_eq!(a.value.to_bits(), r.value.to_bits());
            assert_eq!(bits(a.flow.values()), bits(r.flow.values()));
        }
    }

    #[test]
    fn invalid_configs_are_rejected_at_prepare() {
        let g = gen::grid(3, 3, 1.0);
        for (cfg, parameter) in [
            (config().with_epsilon(0.0), "epsilon"),
            (config().with_epsilon(-1.0), "epsilon"),
            (config().with_epsilon(f64::NAN), "epsilon"),
            (
                config().with_max_iterations_per_phase(0),
                "max_iterations_per_phase",
            ),
            (config().with_phases(Some(0)), "phases"),
            (
                config().with_racke(RackeConfig::default().with_num_trees(0)),
                "racke.num_trees",
            ),
            (config().with_alpha(Some(f64::NAN)), "alpha"),
            (config().with_alpha(Some(0.0)), "alpha"),
        ] {
            match PreparedMaxFlow::prepare(&g, &cfg) {
                Err(GraphError::InvalidConfig { parameter: p, .. }) => {
                    assert_eq!(p, parameter);
                }
                other => panic!("{parameter}: expected InvalidConfig, got {other:?}"),
            }
            // The one-shot wrapper delegates to prepare and rejects too.
            assert!(matches!(
                crate::approx_max_flow(&g, NodeId(0), NodeId(8), &cfg),
                Err(GraphError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn route_matches_free_function() {
        let g = gen::grid(4, 4, 1.0);
        let cfg = config();
        let b = Demand::st(&g, NodeId(0), NodeId(15), 1.5);
        let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        let ses = session.route(&b).unwrap();
        let free = crate::route_demand(&g, session.approximator(), &b, &cfg).unwrap();
        assert_eq!(bits(ses.flow.values()), bits(free.flow.values()));
        assert_eq!(ses.iterations, free.iterations);
    }

    #[test]
    fn misuse_is_reported_as_errors() {
        let g = gen::path(5, 1.0);
        let mut session = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        assert!(matches!(
            session.max_flow(NodeId(0), NodeId(9)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            session.max_flow(NodeId(2), NodeId(2)),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            session.route(&Demand::zeros(3)),
            Err(GraphError::DemandMismatch {
                expected: 5,
                actual: 3
            })
        ));
        let mut disconnected = Graph::with_nodes(4);
        disconnected.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert!(matches!(
            PreparedMaxFlow::prepare(&disconnected, &config()),
            Err(GraphError::NotConnected)
        ));
        assert!(matches!(
            PreparedMaxFlow::prepare(&Graph::with_nodes(0), &config()),
            Err(GraphError::Empty)
        ));
        // A single node is connected but edgeless: the potential `smax` would
        // be evaluated over an empty vector, so it is rejected up front.
        assert!(matches!(
            PreparedMaxFlow::prepare(&Graph::with_nodes(1), &config()),
            Err(GraphError::NoEdges)
        ));
    }

    #[test]
    fn warm_start_reuses_the_previous_answer_and_stays_certified() {
        let g = gen::grid(5, 5, 1.0);
        let cfg = config().with_warm_start(true);
        let mut session = PreparedMaxFlow::prepare(&g, &cfg).unwrap();
        let cold = session.max_flow(NodeId(0), NodeId(24)).unwrap();
        // Same pair again: the descent starts from the previous flow and
        // terminates almost immediately, but the answer stays feasible and
        // inside the certified bracket.
        let warm = session.max_flow(NodeId(0), NodeId(24)).unwrap();
        assert!(warm.iterations <= cold.iterations);
        assert_eq!(warm.upper_bound.to_bits(), cold.upper_bound.to_bits());
        let value = warm
            .flow
            .validate_st_flow(&g, NodeId(0), NodeId(24), 1e-6)
            .unwrap();
        assert!((value - warm.value).abs() < 1e-6 * (1.0 + value.abs()));
        assert!(warm.value <= warm.upper_bound + 1e-9);
        assert!(warm.value >= 0.9 * cold.value, "warm answer lost quality");
        // The reversed pair warms from the negated flow.
        let reversed = session.max_flow(NodeId(24), NodeId(0)).unwrap();
        assert!(reversed.value > 0.0);
        reversed
            .flow
            .validate_st_flow(&g, NodeId(24), NodeId(0), 1e-6)
            .unwrap();
    }

    #[test]
    fn warm_start_off_is_byte_identical_and_history_free() {
        let g = gen::Family::Random.generate(24, 7);
        let mut plain = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        let mut explicit_off =
            PreparedMaxFlow::prepare(&g, &config().with_warm_start(false)).unwrap();
        let a1 = plain.max_flow(NodeId(0), NodeId(23)).unwrap();
        let a2 = plain.max_flow(NodeId(0), NodeId(23)).unwrap();
        let b1 = explicit_off.max_flow(NodeId(0), NodeId(23)).unwrap();
        // History-free: the repeat matches the first answer bit for bit, and
        // the explicit-off session matches the default session.
        assert_eq!(a1.value.to_bits(), a2.value.to_bits());
        assert_eq!(bits(a1.flow.values()), bits(a2.flow.values()));
        assert_eq!(a1.value.to_bits(), b1.value.to_bits());
        assert_eq!(bits(a1.flow.values()), bits(b1.flow.values()));
        assert_eq!(a1.iterations, b1.iterations);
    }

    #[test]
    fn accessors_expose_prepared_structures() {
        let g = gen::grid(4, 4, 1.0);
        let session = PreparedMaxFlow::prepare(&g, &config()).unwrap();
        assert_eq!(session.graph().num_nodes(), 16);
        assert_eq!(session.approximator().num_nodes(), 16);
        assert_eq!(session.ensemble_stats().num_trees, 6);
        assert_eq!(session.repair_tree().num_nodes(), 16);
        assert!((session.config().epsilon - 0.2).abs() < 1e-12);
    }
}
