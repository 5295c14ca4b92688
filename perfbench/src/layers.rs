//! The traced run: per-layer metrics from spans around the public calls
//! each layer exposes, replayed outside-in.
//!
//! A prepare is replayed as the public steps of `PreparedParts::build`
//! (ensemble, approximator, repair tree, scratch); a query as the public
//! steps of `PreparedMaxFlow::max_flow` (certificate, phases, repair, safety
//! net). The replay's answer must equal the real call's bit for bit, and
//! each replay is set against a real call of the same work, so a stage the
//! replay misses shows as coverage below 1.

use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::{Duration, Instant};

use capprox::{CapacityChange, CongestionApproximator, OperatorScratch};
use flowgraph::{max_weight_spanning_tree, Demand, FlowVec, Graph, GraphError, NodeId, RootedTree};
use maxflow::almost_route::{
    almost_route_block, almost_route_with, smax_and_weights_into, BlockScratch,
};
use maxflow::{
    AlmostRouteConfig, AlmostRouteScratch, MaxFlowConfig, MaxFlowResult, Parallelism,
    PreparedMaxFlow, PreparedParts,
};
use service::json::{parse, Value};

use crate::checks;
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    self, apply_update, draw_pair, draw_update, edge_list, latencies, EventKind, SessionSpec,
};

/// Graphs above this many nodes replay each stage once instead of several
/// times: one prepare there takes seconds.
const LARGE: usize = 100_000;

/// Per-workload shape of the traced replay.
struct Plan<'a> {
    config: &'a MaxFlowConfig,
    lanes: usize,
    batch: usize,
    exact: bool,
    routes: bool,
    boundary_source: Option<usize>,
}

/// Runs the traced replay of a session workload.
pub fn run_session(workload: &str, seed: u64, seconds: f64, report: &mut Report, tr: &mut Tracer) {
    let SessionSpec {
        config,
        lanes,
        batch,
        exact,
        routes,
        boundary_source,
        ..
    } = workloads::session_spec(workload);
    let mut g = workloads::graph(workload);
    let plan = Plan {
        config: &config,
        lanes,
        batch,
        exact,
        routes: routes > 0,
        boundary_source,
    };
    replay_layers(&mut g, &plan, seed, seconds, report, tr);
}

/// Runs the traced replay of the daemon workload: the layers below
/// `service` on an in-process session with the daemon's config, then a
/// shorter wire replay for the daemon's own counters.
pub fn run_flowd(bin: &Path, seed: u64, seconds: f64, report: &mut Report, tr: &mut Tracer) {
    let mut g = workloads::graph("flowd_grid_144");
    let config = workloads::flowd_config(1);
    let plan = Plan {
        config: &config,
        lanes: 4,
        batch: 4,
        exact: true,
        routes: true,
        boundary_source: None,
    };
    let codec_ms = replay_layers(&mut g, &plan, seed, seconds / 2.0, report, tr);
    let replay = match workloads::replay_flowd(bin, seed, seconds / 2.0, 1, report) {
        Ok(r) => r,
        Err(e) => {
            report.fail(e);
            return;
        }
    };
    let c = replay.counters;
    // Two closed-loop clients keep at most two queries in flight, so every
    // coalesced engine call served exactly two.
    if c.max_batch <= 2 && c.queries > 0 {
        let calls = c.queries - c.coalesced_batches;
        report.put(
            "service.server.mean_batch",
            c.queries as f64 / calls as f64,
            "count",
        );
        report.put(
            "service.server.coalesced_share",
            2.0 * c.coalesced_batches as f64 / c.queries as f64,
            "ratio",
        );
    }
    if c.updates > 0 {
        report.put(
            "service.server.incremental_share",
            c.incremental_updates as f64 / c.updates as f64,
            "ratio",
        );
    }
    let wire_p50 = median(&latencies(&replay.events, Some(EventKind::MaxFlow)));
    let engine = median(&tr.ms("maxflow.session.batch_k1"));
    if let (Some(wire), Some(engine)) = (wire_p50, engine) {
        let residual_ms = wire - engine - codec_ms;
        report.put("service.server.residual_us", residual_ms * 1e3, "us");
    }
}

/// Replays every layer of a session workload; returns the codec cost (ms)
/// of one max-flow round trip (request and reply, each encoded, framed and
/// parsed), for the daemon's residual.
fn replay_layers(
    g: &mut Graph,
    plan: &Plan,
    seed: u64,
    seconds: f64,
    report: &mut Report,
    tr: &mut Tracer,
) -> f64 {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut rng = Rng::new(seed, 7);
    let n = g.num_nodes();
    let config = plan.config;
    let par = config.parallelism;
    let large = n > LARGE;

    // Prepare, outside-in.
    let mut approx = None;
    for _ in 0..if large { 1 } else { 5 } {
        tr.next_request();
        // Small graphs pair every replay with a real build; large ones set
        // the replay against the two real builds below.
        if !large {
            let built = tr.span("maxflow.prepare", || PreparedParts::build(g, config));
            report.check(built.map(drop).map_err(|e| format!("prepare: {e}")));
        }
        approx = match replay_prepare(g, config, tr) {
            Ok(a) => {
                report.ok();
                Some(a)
            }
            Err(e) => {
                report.fail(format!("prepare replay: {e}"));
                None
            }
        };
    }
    let Some(mut approx) = approx else {
        return 0.0;
    };
    report.put("capprox.trees", approx.trees().len() as f64, "count");
    report.put("capprox.rows", approx.num_rows() as f64, "count");
    let levels = approx.hierarchy_stats().map_or(0, |h| h.num_levels());
    report.put("capprox.levels", levels as f64, "count");
    // Computed, not measured: one k = 1 apply reads every tree's slot
    // arrays (three u32 and one f64 per node), gathers the demand and
    // writes one f64 per row.
    let operator_bytes = approx.trees().len() * n * (3 * 4 + 8) + n * 8 + approx.num_rows() * 8;
    report.put("capprox.operator_bytes", operator_bytes as f64, "bytes");

    let softmax_ms = kernels(g, &approx, plan.lanes, &par, &mut rng, tr);
    replay_updates(
        g,
        &mut approx,
        &mut rng,
        if large { 3 } else { 8 },
        report,
        tr,
    );
    drop(approx);

    let pairs: Vec<(NodeId, NodeId)> = (0..plan.batch)
        .map(|_| draw_pair(&mut rng, n, plan.boundary_source))
        .collect();

    // The same batch on a one-thread session, for the scaling figure.
    if !par.is_sequential() {
        tr.next_request();
        let sequential = config.clone().with_parallelism(Parallelism::sequential());
        match tr.span("maxflow.prepare", || PreparedParts::build(g, &sequential)) {
            Ok(parts) => {
                let mut session = PreparedMaxFlow::from_parts(g, parts).expect("same graph");
                let t = Instant::now();
                let answers = session.par_max_flow_batch(&pairs);
                let wall = t.elapsed().as_secs_f64();
                check_batch(g, &pairs, answers, report);
                report.put("parallel.batch_qps_t1", pairs.len() as f64 / wall, "1/s");
            }
            Err(e) => report.fail(format!("prepare: {e}")),
        }
    }

    tr.next_request();
    let parts = match tr.span("maxflow.prepare", || PreparedParts::build(g, config)) {
        Ok(p) => p,
        Err(e) => {
            report.fail(format!("prepare: {e}"));
            return 0.0;
        }
    };
    let mut session = PreparedMaxFlow::from_parts(g, parts).expect("same graph");
    let mut scratch = AlmostRouteScratch::for_instance(g, session.approximator());

    // Queries: plain, traced, replayed, and through the batch path at k = 1.
    let mut overhead = Vec::new();
    let mut phases = Vec::new();
    let mut answers: Vec<MaxFlowResult> = Vec::new();
    let mut q = 0;
    while q < plan.batch || (!large && Instant::now() < deadline && q < 200) {
        let pair = match pairs.get(q) {
            Some(&p) => p,
            None => draw_pair(&mut rng, n, plan.boundary_source),
        };
        q += 1;
        if large && q > 1 {
            break;
        }
        match replay_one_query(&mut session, &mut scratch, config, pair, plan.exact, tr) {
            Ok((answer, plain_ms, traced_ms, phase_stats)) => {
                report.ok();
                overhead.push((traced_ms - plain_ms) / plain_ms);
                phases.extend(phase_stats);
                answers.push(answer);
            }
            Err(e) => report.fail(e),
        }
    }

    // The blocked engine at the workload's lane width, one phase.
    let ar = phase_config(config);
    let demands: Vec<Demand> = (0..plan.lanes)
        .map(|l| {
            let (s, t) = pairs.get(l).copied().unwrap_or((NodeId(0), NodeId(1)));
            Demand::st(g, s, t, 1.0)
        })
        .collect();
    let mut block = BlockScratch::for_instance(g, session.approximator(), plan.lanes);
    for _ in 0..if large { 1 } else { 3 } {
        tr.repeated("maxflow.almost_route.block_phase", || {
            black_box(almost_route_block(
                g,
                session.approximator(),
                &demands,
                &ar,
                &mut block,
            ));
        });
    }
    drop(block);

    // The batch path with the configured threads: CPU seconds per wall
    // second, and (on a one-thread config) the one-thread rate itself.
    let cpu0 = process_cpu_s();
    let t = Instant::now();
    let mut batched = 0;
    loop {
        let answers = tr.span("maxflow.session.batch", || {
            session.par_max_flow_batch(&pairs)
        });
        check_batch(g, &pairs, answers, report);
        batched += pairs.len();
        if large || t.elapsed() >= Duration::from_secs(1) {
            break;
        }
    }
    let wall = t.elapsed().as_secs_f64();
    let cpu = process_cpu_s() - cpu0;
    report.put("parallel.cpu_per_wall", cpu / wall, "ratio");
    if par.is_sequential() {
        report.put("parallel.batch_qps_t1", batched as f64 / wall, "1/s");
    }

    // Real updates through the session (toggled, so each unit is repeatable).
    let mut parts = session.into_parts();
    for _ in 0..if large { 3 } else { 8 } {
        tr.next_request();
        let (e, cap) = draw_update(&mut rng, g);
        let old = g.capacity(e);
        let mut forward = true;
        let mut failure = None;
        tr.repeated("maxflow.session.refresh", || {
            let to = if forward { cap } else { old };
            forward = !forward;
            if let Err(err) = apply_update(g, &mut parts, e, to) {
                failure = Some(err);
            }
        });
        report.check(failure.map_or(Ok(()), Err));
    }
    drop(parts);

    let codec_ms = codec(g, config, &answers, plan.routes, report, tr);
    derive(report, tr, &phases, softmax_ms, &overhead);
    codec_ms
}

/// The public steps of `PreparedParts::build`, each in its own span.
fn replay_prepare(
    g: &Graph,
    config: &MaxFlowConfig,
    tr: &mut Tracer,
) -> Result<CongestionApproximator, GraphError> {
    let (ensemble, hierarchy) = tr.span("capprox.ensemble_build", || match &config.hierarchy {
        Some(h) => capprox::build_hierarchical_ensemble(g, h, &config.racke)
            .map(|(e, stats)| (e, Some(stats))),
        None => capprox::build_tree_ensemble(g, &config.racke).map(|e| (e, None)),
    })?;
    let approx = tr.span("capprox.slot_build", || match hierarchy {
        Some(stats) => CongestionApproximator::from_ensemble_with_hierarchy(ensemble, stats),
        None => CongestionApproximator::from_ensemble(ensemble),
    })?;
    let mut tree = Ok(());
    tr.repeated("flowgraph.repair_tree", || {
        tree = max_weight_spanning_tree(g, NodeId(0)).map(|t| drop(black_box(t)));
    });
    tree?;
    tr.repeated("maxflow.scratch", || {
        black_box(AlmostRouteScratch::for_instance(g, &approx));
    });
    Ok(approx)
}

/// Operator kernels at k = 1 and at the lane width, the certificate sweep
/// and the fused soft-max. Returns the soft-max time of one potential
/// evaluation (a row-length and an edge-length vector), ms.
fn kernels(
    g: &Graph,
    approx: &CongestionApproximator,
    k: usize,
    par: &Parallelism,
    rng: &mut Rng,
    tr: &mut Tracer,
) -> f64 {
    const UNITS: usize = 3;
    let (n, m, rows) = (g.num_nodes(), g.num_edges(), approx.num_rows());
    let (s, t) = rng.pair(n);
    let b = Demand::st(g, NodeId(s), NodeId(t), 1.0);
    let mut op = OperatorScratch::default();
    let mut out = vec![0.0; rows];
    let mut b_block = vec![0.0; n * k];
    for l in 0..k {
        let (s, t) = rng.pair(n);
        b_block[s as usize * k + l] = -1.0;
        b_block[t as usize * k + l] = 1.0;
    }
    let mut rows_block = vec![0.0; rows * k];
    for _ in 0..UNITS {
        tr.repeated("capprox.apply", || {
            approx
                .apply_into_par(&b, &mut out, &mut op, par)
                .expect("sized demand");
        });
        tr.repeated("capprox.apply_block", || {
            approx
                .apply_block_into_par(&b_block, k, &mut rows_block, &mut op, par)
                .expect("sized block");
        });
    }

    // Soft-max over a row vector of the magnitude the descent works at
    // (max |y| = 16 ln n / ε with ε = 0.5), and over an edge vector.
    let peak = out
        .iter()
        .fold(0.0f64, |a, &x| a.max(x.abs()))
        .max(f64::MIN_POSITIVE);
    let y: Vec<f64> = out
        .iter()
        .map(|x| x / peak * 32.0 * (n as f64).ln())
        .collect();
    let mut prices = vec![0.0; rows];
    let edge_values: Vec<f64> = (0..m)
        .map(|_| (rng.below(2001) as f64 - 1000.0) / 100.0)
        .collect();
    let mut edge_weights = vec![0.0; m];
    for _ in 0..UNITS {
        tr.repeated("maxflow.almost_route.softmax", || {
            black_box(smax_and_weights_into(&y, &mut prices));
        });
        tr.repeated("maxflow.almost_route.softmax_edges", || {
            black_box(smax_and_weights_into(&edge_values, &mut edge_weights));
        });
    }

    let y_block: Vec<f64> = rows_block.iter().map(|x| x * 0.5).collect();
    let mut potentials = vec![0.0; n];
    let mut potentials_block = vec![0.0; n * k];
    for _ in 0..UNITS {
        tr.repeated("capprox.apply_transpose", || {
            approx
                .apply_transpose_into_par(&prices, &mut potentials, &mut op, par)
                .expect("sized prices");
        });
        tr.repeated("capprox.apply_transpose_block", || {
            approx
                .apply_transpose_block_into_par(&y_block, k, &mut potentials_block, &mut op, par)
                .expect("sized block");
        });
        tr.repeated("capprox.upper_bound", || {
            black_box(approx.congestion_upper_bound_par(g, &b, par));
        });
    }
    let med = |name| median(&tr.ms(name)).unwrap_or(0.0);
    med("maxflow.almost_route.softmax") + med("maxflow.almost_route.softmax_edges")
}

/// Single-edge updates on the replayed approximator: the incremental cut
/// patch, then the repair-tree rebuild a session refresh performs. Each
/// unit toggles one edge between two capacities.
fn replay_updates(
    g: &mut Graph,
    approx: &mut CongestionApproximator,
    rng: &mut Rng,
    units: usize,
    report: &mut Report,
    tr: &mut Tracer,
) {
    let mut slots = Vec::new();
    for _ in 0..units {
        tr.next_request();
        let (e, cap) = draw_update(rng, g);
        let old = g.capacity(e);
        let mut forward = true;
        let mut failure = None;
        tr.repeated("capprox.update", || {
            let (from, to) = if forward { (old, cap) } else { (cap, old) };
            forward = !forward;
            let change = CapacityChange {
                edge: e,
                old: from,
                new: to,
            };
            let patched = g
                .set_capacity(e, to)
                .and_then(|()| approx.update_capacities(g, &[change]));
            match patched {
                Ok(stats) => slots.push(stats.slots_patched as f64),
                Err(err) => failure = Some(format!("update_capacities: {err}")),
            }
        });
        report.check(failure.map_or(Ok(()), Err));
        let mut tree = Ok(());
        tr.repeated("flowgraph.repair_tree", || {
            tree = max_weight_spanning_tree(g, NodeId(0)).map(|t| drop(black_box(t)));
        });
        report.check(tree.map_err(|e| format!("repair tree: {e}")));
    }
    report.put_opt("capprox.update_slots_patched", median(&slots), "count");
}

/// Counters of one replayed `AlmostRoute` phase.
#[derive(Debug, Clone, Copy)]
struct PhaseStats {
    ms: f64,
    iterations: usize,
    scaling_steps: usize,
    hit_cap: bool,
}

impl PhaseStats {
    /// Potential-and-gradient evaluations: one per iteration, one per 17/16
    /// rescaling step, and the final one that ends the loop.
    fn evaluations(&self) -> usize {
        self.iterations + self.scaling_steps + 1
    }
}

/// `AlmostRoute` config of a session query's phases (as the solver derives
/// it from the max-flow config).
fn phase_config(config: &MaxFlowConfig) -> AlmostRouteConfig {
    AlmostRouteConfig {
        epsilon: config.epsilon.min(0.5),
        alpha: config.alpha,
        max_iterations: config.max_iterations_per_phase,
        adaptive_steps: config.warm_start,
        parallelism: config.parallelism,
    }
}

/// One query three ways: a plain `max_flow`, the same call in a span, and
/// the outside-in replay of its stages. All three must agree bit for bit;
/// the k = 1 batch path must too. Returns the answer, the plain and traced
/// wall times (ms) and the replayed phases.
#[allow(clippy::type_complexity)]
fn replay_one_query(
    session: &mut PreparedMaxFlow,
    scratch: &mut AlmostRouteScratch,
    config: &MaxFlowConfig,
    (s, t): (NodeId, NodeId),
    exact: bool,
    tr: &mut Tracer,
) -> Result<(MaxFlowResult, f64, f64, Vec<PhaseStats>), String> {
    let g = session.graph();
    let exact = exact.then(|| checks::exact_value(g, s, t)).transpose()?;
    let t0 = Instant::now();
    let plain = session
        .max_flow(s, t)
        .map_err(|e| format!("max_flow: {e}"))?;
    let plain_ms = t0.elapsed().as_secs_f64() * 1e3;
    checks::max_flow_answer(g, (s, t), &plain, exact)?;

    tr.next_request();
    let id = tr.begin("maxflow.max_flow");
    let traced = session.max_flow(s, t);
    tr.end(id);
    let traced = traced.map_err(|e| format!("max_flow: {e}"))?;
    let traced_ms = tr.spans()[id].ms_per_call();

    let mut phases = Vec::new();
    let replayed = replay_query(
        session.graph(),
        session.approximator(),
        session.repair_tree(),
        config,
        (s, t),
        scratch,
        &mut phases,
        tr,
    )
    .map_err(|e| format!("query replay: {e}"))?;
    let k1 = tr
        .span("maxflow.session.batch_k1", || {
            session.par_max_flow_batch(&[(s, t)])
        })
        .map_err(|e| format!("par_max_flow_batch: {e}"))?;
    if !checks::same_bits(&plain, &traced) || !checks::same_bits(&plain, &k1[0]) {
        return Err(format!(
            "max_flow({}, {}) answers differ between calls",
            s.0, t.0
        ));
    }
    if replayed.to_bits() != plain.value.to_bits() {
        return Err(format!(
            "replay of max_flow({}, {}) gives {replayed}, the call {}",
            s.0, t.0, plain.value
        ));
    }
    Ok((plain, plain_ms, traced_ms, phases))
}

/// The public steps of one `max_flow` query (warm starts off), each in its
/// own span; returns the answer's value.
#[allow(clippy::too_many_arguments)]
fn replay_query(
    g: &Graph,
    r: &CongestionApproximator,
    repair_tree: &RootedTree,
    config: &MaxFlowConfig,
    (s, t): (NodeId, NodeId),
    scratch: &mut AlmostRouteScratch,
    phases_out: &mut Vec<PhaseStats>,
    tr: &mut Tracer,
) -> Result<f64, GraphError> {
    // The certificate: the best cut the approximator knows.
    let unit = Demand::st(g, s, t, 1.0);
    let unit_congestion = tr.span("maxflow.certificate", || {
        scratch.congestion_lower_bound(r, &unit)
    });
    let target = (1.0 / unit_congestion).min(g.weighted_degree(s).min(g.weighted_degree(t)));
    let demand = Demand::st(g, s, t, target);

    // Phases on the shrinking residual.
    let ar = phase_config(config);
    let m = g.num_edges().max(2);
    let phases = config
        .phases
        .unwrap_or((m as f64).log2().ceil() as usize + 1);
    let mut total = FlowVec::zeros(g.num_edges());
    let mut residual = Demand::zeros(g.num_nodes());
    let initial = tr.span("maxflow.solver.phase_check", || {
        scratch.congestion_lower_bound(r, &demand)
    });
    let stop = initial.max(f64::MIN_POSITIVE) * (config.epsilon * 1e-2).max(1e-6);
    for _ in 0..phases {
        let norm = tr.span("maxflow.solver.phase_check", || {
            demand.residual_into(g, &total, &mut residual);
            scratch.congestion_lower_bound(r, &residual)
        });
        if norm <= stop {
            break;
        }
        let id = tr.begin("maxflow.almost_route.phase");
        let routed = almost_route_with(g, r, &residual, &ar, scratch);
        tr.end(id);
        phases_out.push(PhaseStats {
            ms: tr.spans()[id].ms_per_call(),
            iterations: routed.iterations,
            scaling_steps: routed.scaling_steps,
            hit_cap: routed.hit_iteration_cap,
        });
        total.add_assign(&routed.flow);
    }

    // Exact repair of what is left on the maximum-weight spanning tree.
    let congestion = tr.span("maxflow.solver.repair", || {
        demand.residual_into(g, &total, &mut residual);
        let repair = repair_tree.route_demand_on_graph(g, &residual)?;
        total.add_assign(&repair);
        Ok::<_, GraphError>(total.max_congestion(g))
    })?;

    // Scale to feasibility; keep the best single-tree routing if better.
    tr.span("maxflow.solver.safety_net", || {
        let rho = congestion.max(1.0);
        total.scale(1.0 / rho);
        let value = target / rho;
        let mut best: Option<(&capprox::CapacitatedTree, f64)> = None;
        for tree in r.trees() {
            let c = tree.st_tree_routing_congestion(g, s, t, 1.0);
            if best.is_none_or(|(_, b)| c.partial_cmp(&b) == Some(std::cmp::Ordering::Less)) {
                best = Some((tree, c));
            }
        }
        match best {
            Some((tree, c)) if c.is_finite() && c > 0.0 && 1.0 / c > value => {
                let mut flow = tree.tree.route_demand_on_graph(g, &unit)?;
                flow.scale(1.0 / c);
                black_box(flow);
                Ok(1.0 / c)
            }
            _ => Ok(value),
        }
    })
}

fn check_batch(
    g: &Graph,
    pairs: &[(NodeId, NodeId)],
    answers: Result<Vec<MaxFlowResult>, GraphError>,
    report: &mut Report,
) {
    match answers {
        Ok(rs) => {
            for (&pair, r) in pairs.iter().zip(&rs) {
                report.check(checks::max_flow_answer(g, pair, r, None));
            }
        }
        Err(e) => report.fail(format!("par_max_flow_batch: {e}")),
    }
}

/// Process CPU seconds (user + system, all threads) from procfs, in clock
/// ticks of 1/100 s.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The wire layers on this workload's requests and replies: encode, frame,
/// parse and request parsing; and the cache fingerprint of its graph.
/// Returns the codec cost (ms) of one max-flow round trip.
fn codec(
    g: &Graph,
    config: &MaxFlowConfig,
    answers: &[MaxFlowResult],
    routes: bool,
    report: &mut Report,
    tr: &mut Tracer,
) -> f64 {
    let fp = "00000000000000ff";
    let n = g.num_nodes();
    let (value, upper) = answers
        .first()
        .map_or((1.0, 1.0), |r| (r.value, r.upper_bound));
    let mut messages = vec![
        (
            true,
            Value::obj(vec![
                ("op", Value::Str("max_flow".into())),
                ("graph", Value::Str(fp.into())),
                ("s", Value::index(0)),
                ("t", Value::index(n as u64 - 1)),
            ]),
        ),
        (
            false,
            Value::obj(vec![
                ("ok", Value::Bool(true)),
                ("value", Value::Num(value)),
                ("upper_bound", Value::Num(upper)),
                ("iterations", Value::index(6)),
                ("phases", Value::index(1)),
                ("version", Value::index(3)),
            ]),
        ),
        (
            true,
            Value::obj(vec![
                ("op", Value::Str("update".into())),
                ("graph", Value::Str(fp.into())),
                (
                    "changes",
                    Value::Arr(vec![Value::Arr(vec![Value::index(7), Value::Num(2.5)])]),
                ),
            ]),
        ),
        (
            false,
            Value::obj(vec![
                ("ok", Value::Bool(true)),
                ("version", Value::index(4)),
                ("incremental", Value::Bool(true)),
            ]),
        ),
    ];
    if routes {
        let mut demand = vec![Value::Num(0.0); n];
        demand[0] = Value::Num(-1.0);
        demand[n - 1] = Value::Num(1.0);
        messages.push((
            true,
            Value::obj(vec![
                ("op", Value::Str("route".into())),
                ("graph", Value::Str(fp.into())),
                ("demand", Value::Arr(demand)),
            ]),
        ));
        messages.push((
            false,
            Value::obj(vec![
                ("ok", Value::Bool(true)),
                ("congestion", Value::Num(0.75)),
                ("iterations", Value::index(6)),
                ("phases", Value::index(1)),
                ("version", Value::index(4)),
            ]),
        ));
    }
    let (mut encode, mut frame, mut parse_us, mut request_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut max_flow_round_ms = 0.0;
    for (i, (is_request, message)) in messages.iter().enumerate() {
        let text = message.to_json().expect("finite message");
        let mut buf = Vec::with_capacity(text.len() + 4);
        let mut failure = None;
        let e = repeat_ms(tr, "service.json.encode", || {
            black_box(message.to_json().ok());
        });
        let f = repeat_ms(tr, "service.wire.frame", || {
            buf.clear();
            let round = service::wire::write_frame(&mut buf, &text)
                .and_then(|()| service::wire::read_frame(&mut Cursor::new(&buf)));
            if !matches!(&round, Ok(Some(back)) if *back == text) {
                failure = Some("frame round trip changed the payload".to_string());
            }
        });
        let p = repeat_ms(tr, "service.json.parse", || {
            if parse(&text).as_ref() != Ok(message) {
                failure = Some("json round trip changed the message".to_string());
            }
        });
        encode.push(e * 1e3);
        frame.push(f * 1e3);
        parse_us.push(p * 1e3);
        if *is_request {
            let r = repeat_ms(tr, "service.protocol.parse_request", || {
                if let Err(err) = service::protocol::parse_request(message) {
                    failure = Some(format!("parse_request: {err}"));
                }
            });
            request_us.push(r * 1e3);
            if i == 0 {
                max_flow_round_ms += r;
            }
        }
        if i < 2 {
            max_flow_round_ms += e + f + p;
        }
        report.check(failure.map_or(Ok(()), Err));
    }
    report.put_opt("service.json.encode_us", median(&encode), "us");
    report.put_opt("service.wire.frame_us", median(&frame), "us");
    report.put_opt("service.json.parse_us", median(&parse_us), "us");
    report.put_opt(
        "service.protocol.parse_request_us",
        median(&request_us),
        "us",
    );

    let edges = edge_list(g);
    let canonical = config.to_json().expect("finite config");
    let fp_ms = repeat_ms(tr, "service.cache.fingerprint", || {
        black_box(service::cache::graph_fingerprint(
            n as u64, &edges, &canonical,
        ));
    });
    report.put("service.cache.fingerprint_ms", fp_ms, "ms");
    max_flow_round_ms
}

/// Median per-call ms of three repeated units of `f`.
fn repeat_ms(tr: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let first = tr.spans().len();
    for _ in 0..3 {
        tr.repeated(name, &mut f);
    }
    let per_call: Vec<f64> = tr.spans()[first..]
        .iter()
        .map(|s| s.ms_per_call())
        .collect();
    median(&per_call).unwrap_or(0.0)
}

/// Per-layer metrics derived from the spans.
fn derive(
    report: &mut Report,
    tr: &Tracer,
    phases: &[PhaseStats],
    softmax_ms: f64,
    overhead: &[f64],
) {
    let med = |name: &str| median(&tr.ms(name));
    let ms_unit = |report: &mut Report, metric: &str, span: &str| {
        report.put_opt(metric, med(span), "ms");
    };
    report.put_opt(
        "capprox.ensemble_build_s",
        med("capprox.ensemble_build").map(|ms| ms / 1e3),
        "s",
    );
    report.put_opt(
        "capprox.slot_build_s",
        med("capprox.slot_build").map(|ms| ms / 1e3),
        "s",
    );
    for (metric, span) in [
        ("flowgraph.repair_tree_ms", "flowgraph.repair_tree"),
        ("capprox.apply_ms", "capprox.apply"),
        ("capprox.apply_block_ms", "capprox.apply_block"),
        ("capprox.apply_transpose_ms", "capprox.apply_transpose"),
        (
            "capprox.apply_transpose_block_ms",
            "capprox.apply_transpose_block",
        ),
        ("capprox.upper_bound_ms", "capprox.upper_bound"),
        ("capprox.update_ms", "capprox.update"),
        (
            "maxflow.almost_route.softmax_ms",
            "maxflow.almost_route.softmax",
        ),
        (
            "maxflow.almost_route.phase_ms",
            "maxflow.almost_route.phase",
        ),
        (
            "maxflow.almost_route.block_phase_ms",
            "maxflow.almost_route.block_phase",
        ),
    ] {
        ms_unit(report, metric, span);
    }
    if let (Some(tree), Some(refresh)) =
        (med("flowgraph.repair_tree"), med("maxflow.session.refresh"))
    {
        report.put(
            "flowgraph.repair_tree_update_share",
            tree / refresh,
            "ratio",
        );
    }

    // Prepare coverage: the replayed stages against a real build.
    let stages = [
        "capprox.ensemble_build",
        "capprox.slot_build",
        "flowgraph.repair_tree",
        "maxflow.scratch",
    ];
    if let (Some(parts), Some(prepare)) = (
        stages.iter().map(|s| med(s)).sum::<Option<f64>>(),
        med("maxflow.prepare"),
    ) {
        report.put("prepare.coverage", parts / prepare, "ratio");
    }

    // Query coverage: per query, certificate + phases + solver self time
    // against the real call.
    let real = tr.ms_per_request("maxflow.max_flow");
    let per_request = |name| tr.ms_per_request(name);
    let (cert, phase, check, repair, net) = (
        per_request("maxflow.certificate"),
        per_request("maxflow.almost_route.phase"),
        per_request("maxflow.solver.phase_check"),
        per_request("maxflow.solver.repair"),
        per_request("maxflow.solver.safety_net"),
    );
    let mut coverage = Vec::new();
    let mut self_ms = Vec::new();
    for i in 0..real
        .len()
        .min(cert.len())
        .min(phase.len())
        .min(repair.len())
        .min(net.len())
    {
        let own = check.get(i).copied().unwrap_or(0.0) + repair[i] + net[i];
        self_ms.push(own);
        coverage.push((cert[i] + phase[i] + own) / real[i]);
    }
    report.put_opt("maxflow.solver.self_ms", median(&self_ms), "ms");
    report.put_opt("query.coverage", median(&coverage), "ratio");

    // The gradient loop's counters and the soft-max's share of a query.
    if !phases.is_empty() {
        let count = phases.len() as f64;
        let sum = |f: fn(&PhaseStats) -> usize| phases.iter().map(f).sum::<usize>() as f64;
        let evaluations = sum(PhaseStats::evaluations);
        report.put(
            "maxflow.almost_route.iterations",
            sum(|p| p.iterations) / count,
            "count",
        );
        report.put(
            "maxflow.almost_route.scaling_steps",
            sum(|p| p.scaling_steps) / count,
            "count",
        );
        report.put(
            "maxflow.almost_route.cap_hit_share",
            phases.iter().filter(|p| p.hit_cap).count() as f64 / count,
            "ratio",
        );
        let phase_ms: f64 = phases.iter().map(|p| p.ms).sum();
        report.put(
            "maxflow.almost_route.us_per_iteration",
            phase_ms * 1e3 / evaluations,
            "us",
        );
        let query_ms: f64 = real.iter().sum();
        report.put(
            "maxflow.session.softmax_share",
            evaluations * softmax_ms / query_ms,
            "ratio",
        );
    }
    let k1: Vec<f64> = tr
        .ms("maxflow.session.batch_k1")
        .iter()
        .zip(&real)
        .map(|(b, q)| b / q)
        .collect();
    report.put_opt("maxflow.session.k1_ratio", median(&k1), "ratio");
    report.put_opt("trace.overhead_share", median(overhead), "ratio");
    println!(
        "trace {} spans, {} queries replayed",
        tr.spans().len(),
        real.len()
    );
}
