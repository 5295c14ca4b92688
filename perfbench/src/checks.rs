//! Correctness checks applied to every answer the benchmark times.

use flowgraph::{Demand, Graph, NodeId};
use maxflow::{MaxFlowResult, RoutingResult};

/// Relative tolerance for flow feasibility and value agreement.
const TOL: f64 = 1e-6;

/// A max-flow answer is a feasible s–t flow of the stated value, inside its
/// own certificate (`value ≤ upper_bound`), and — when the exact value is
/// known — brackets it: `value ≤ exact ≤ upper_bound`.
pub fn max_flow_answer(
    g: &Graph,
    (s, t): (NodeId, NodeId),
    r: &MaxFlowResult,
    exact: Option<f64>,
) -> Result<(), String> {
    let pair = format!("max_flow({}, {})", s.0, t.0);
    if !(r.value.is_finite() && r.upper_bound.is_finite() && r.value > 0.0) {
        return Err(format!(
            "{pair}: value {} / bound {}",
            r.value, r.upper_bound
        ));
    }
    let shipped = r
        .flow
        .validate_st_flow(g, s, t, TOL)
        .map_err(|e| format!("{pair}: infeasible flow: {e}"))?;
    if (shipped - r.value).abs() > TOL * r.value.max(1.0) {
        return Err(format!(
            "{pair}: flow ships {shipped}, reported {}",
            r.value
        ));
    }
    if r.value > r.upper_bound * (1.0 + 1e-12) {
        return Err(format!(
            "{pair}: value {} above bound {}",
            r.value, r.upper_bound
        ));
    }
    if let Some(exact) = exact {
        let slack = TOL * exact.max(1.0);
        if r.value > exact + slack || exact > r.upper_bound + slack {
            return Err(format!(
                "{pair}: exact {exact} outside [{}, {}]",
                r.value, r.upper_bound
            ));
        }
    }
    Ok(())
}

/// A routed flow meets its demand at every node.
pub fn routing_answer(g: &Graph, b: &Demand, r: &RoutingResult) -> Result<(), String> {
    if !(r.congestion.is_finite() && r.congestion > 0.0) {
        return Err(format!("route: congestion {}", r.congestion));
    }
    let excess = r.flow.excess(g);
    let scale = b.max_abs().max(1.0);
    for (v, (&got, &want)) in excess.iter().zip(b.values()).enumerate() {
        if (got - want).abs() > TOL * scale {
            return Err(format!("route: node {v} excess {got}, demand {want}"));
        }
    }
    Ok(())
}

/// Whether two answers are bit-for-bit the same.
pub fn same_bits(a: &MaxFlowResult, b: &MaxFlowResult) -> bool {
    a.value.to_bits() == b.value.to_bits()
        && a.upper_bound.to_bits() == b.upper_bound.to_bits()
        && a.iterations == b.iterations
        && a.flow.len() == b.flow.len()
        && a.flow
            .values()
            .iter()
            .zip(b.flow.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Exact maximum flow of the current graph (Dinic).
pub fn exact_value(g: &Graph, s: NodeId, t: NodeId) -> Result<f64, String> {
    baselines::dinic::max_flow(g, s, t)
        .map(|f| f.value)
        .map_err(|e| format!("dinic({}, {}): {e}", s.0, t.0))
}
