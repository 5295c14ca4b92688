//! Typed requests and responses of the `flowd` wire protocol, and their
//! mapping to and from [`json::Value`](crate::json::Value) documents.
//!
//! Every frame is one JSON object. Requests carry an `"op"` discriminator;
//! responses carry `"ok": true` plus op-specific fields, or `"ok": false`
//! with a machine-readable `"code"` and a human-readable `"error"`. Graphs
//! are addressed by the 16-hex-digit session fingerprint returned from
//! `load_graph` (see [`crate::cache`]) — resending the same graph bytes
//! re-uses the cached prepared session.

use flowgraph::{EdgeId, NodeId};

use crate::json::Value;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline.
    Ping,
    /// Load (or re-touch) a graph and prepare a serving session for it.
    LoadGraph {
        /// Node count.
        nodes: u64,
        /// Undirected capacitated edges `(u, v, capacity)`.
        edges: Vec<(u32, u32, f64)>,
        /// Optional solver config as a `config_io`-shaped JSON document
        /// (re-serialized from the request's `"config"` object); `None`
        /// means the server default.
        config: Option<String>,
    },
    /// `(1+ε)` max-flow between two terminals of a loaded graph.
    MaxFlow {
        /// Session fingerprint from `load_graph`.
        graph: u64,
        /// Source.
        s: NodeId,
        /// Sink.
        t: NodeId,
        /// Return the full per-edge flow vector (large!) in the response.
        include_flow: bool,
    },
    /// Route a balanced demand vector on a loaded graph.
    Route {
        /// Session fingerprint from `load_graph`.
        graph: u64,
        /// One demand value per node, summing to ~0.
        demand: Vec<f64>,
    },
    /// Change edge capacities of a loaded graph in place.
    Update {
        /// Session fingerprint from `load_graph`.
        graph: u64,
        /// `(edge index, new capacity)` pairs; the last write wins when an
        /// edge repeats.
        changes: Vec<(u32, f64)>,
    },
    /// Server-wide serving counters.
    Stats,
    /// Stop accepting connections and exit the daemon.
    Shutdown,
}

/// A protocol-level failure code (the `"code"` field of error responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not a well-formed request.
    InvalidRequest,
    /// The fingerprint does not name a loaded graph (never loaded, or
    /// evicted from the session cache).
    UnknownGraph,
    /// The solver rejected the request (bad terminals, bad demand, …).
    GraphError,
    /// The server is shutting down.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::InvalidRequest => "invalid_request",
            ErrorCode::UnknownGraph => "unknown_graph",
            ErrorCode::GraphError => "graph_error",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }
}

/// Formats a fingerprint as the wire's 16-hex-digit string.
pub fn fingerprint_to_wire(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parses a wire fingerprint string.
pub fn fingerprint_from_wire(s: &str) -> Option<u64> {
    if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()) {
        u64::from_str_radix(s, 16).ok()
    } else {
        None
    }
}

/// Builds an error-response document.
pub fn error_response(code: ErrorCode, message: &str) -> Value {
    Value::obj(vec![
        ("ok", Value::Bool(false)),
        ("code", Value::Str(code.as_str().to_string())),
        ("error", Value::Str(message.to_string())),
    ])
}

/// Whether a response document reports success.
pub fn is_ok(response: &Value) -> bool {
    response.get("ok").and_then(Value::as_bool) == Some(true)
}

/// Parses one request frame. Error strings name the offending field, in the
/// `config_io` tradition: an operator should be able to fix the frame from
/// the message alone.
pub fn parse_request(doc: &Value) -> Result<Request, String> {
    let op = doc
        .get("op")
        .and_then(Value::as_str)
        .ok_or("request must be an object with a string \"op\" field")?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "load_graph" => {
            let nodes = doc
                .get("nodes")
                .and_then(Value::as_index)
                .ok_or("load_graph: \"nodes\" must be a non-negative integer")?;
            let edges_v = doc
                .get("edges")
                .and_then(Value::as_arr)
                .ok_or("load_graph: \"edges\" must be an array of [u, v, capacity] triples")?;
            let mut edges = Vec::with_capacity(edges_v.len());
            for (i, e) in edges_v.iter().enumerate() {
                let triple = e.as_arr().filter(|t| t.len() == 3);
                let parsed = triple.and_then(|t| {
                    let u = t[0].as_index()?;
                    let v = t[1].as_index()?;
                    let cap = t[2].as_f64()?;
                    let (u, v) = (u32::try_from(u).ok()?, u32::try_from(v).ok()?);
                    Some((u, v, cap))
                });
                match parsed {
                    Some(t) => edges.push(t),
                    None => {
                        return Err(format!(
                            "load_graph: edge {i} must be [u, v, capacity] with integer \
                             endpoints and a number capacity"
                        ))
                    }
                }
            }
            let config = match doc.get("config") {
                None | Some(Value::Null) => None,
                Some(obj @ Value::Obj(_)) => Some(
                    obj.to_json()
                        .map_err(|e| format!("load_graph: \"config\" is unserializable: {e}"))?,
                ),
                Some(_) => return Err("load_graph: \"config\" must be an object".into()),
            };
            Ok(Request::LoadGraph {
                nodes,
                edges,
                config,
            })
        }
        "max_flow" => {
            let graph = wire_graph(doc)?;
            let s = node_field(doc, "s")?;
            let t = node_field(doc, "t")?;
            let include_flow = match doc.get("include_flow") {
                None => false,
                Some(v) => v
                    .as_bool()
                    .ok_or("max_flow: \"include_flow\" must be a boolean")?,
            };
            Ok(Request::MaxFlow {
                graph,
                s,
                t,
                include_flow,
            })
        }
        "route" => {
            let graph = wire_graph(doc)?;
            let demand_v = doc
                .get("demand")
                .and_then(Value::as_arr)
                .ok_or("route: \"demand\" must be an array with one number per node")?;
            let mut demand = Vec::with_capacity(demand_v.len());
            for (i, x) in demand_v.iter().enumerate() {
                demand.push(
                    x.as_f64()
                        .ok_or_else(|| format!("route: demand[{i}] must be a number"))?,
                );
            }
            Ok(Request::Route { graph, demand })
        }
        "update" => {
            let graph = wire_graph(doc)?;
            let changes_v = doc
                .get("changes")
                .and_then(Value::as_arr)
                .ok_or("update: \"changes\" must be an array of [edge, capacity] pairs")?;
            let mut changes = Vec::with_capacity(changes_v.len());
            for (i, c) in changes_v.iter().enumerate() {
                let parsed = c.as_arr().filter(|p| p.len() == 2).and_then(|p| {
                    let e = u32::try_from(p[0].as_index()?).ok()?;
                    Some((e, p[1].as_f64()?))
                });
                match parsed {
                    Some(p) => changes.push(p),
                    None => {
                        return Err(format!(
                            "update: change {i} must be [edge, capacity] with an integer \
                             edge index and a number capacity"
                        ))
                    }
                }
            }
            Ok(Request::Update { graph, changes })
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

fn wire_graph(doc: &Value) -> Result<u64, String> {
    doc.get("graph")
        .and_then(Value::as_str)
        .and_then(fingerprint_from_wire)
        .ok_or_else(|| "\"graph\" must be the 16-hex-digit fingerprint from load_graph".to_string())
}

fn node_field(doc: &Value, key: &str) -> Result<NodeId, String> {
    doc.get(key)
        .and_then(Value::as_index)
        .and_then(|x| u32::try_from(x).ok())
        .map(NodeId)
        .ok_or_else(|| format!("\"{key}\" must be a node index"))
}

/// Converts a typed update list into [`capprox::CapacityChange`] records
/// against the graph's *current* capacities, collapsing repeated edges to
/// their last write. The graph is read, not written — the caller applies the
/// changes after validating them.
pub fn collapse_changes(
    g: &flowgraph::Graph,
    changes: &[(u32, f64)],
) -> Result<Vec<capprox::CapacityChange>, flowgraph::GraphError> {
    let mut collapsed: Vec<capprox::CapacityChange> = Vec::with_capacity(changes.len());
    for &(e, new) in changes {
        let edge = EdgeId(e);
        if e as usize >= g.num_edges() {
            return Err(flowgraph::GraphError::EdgeOutOfRange {
                edge: e as usize,
                num_edges: g.num_edges(),
            });
        }
        if !(new.is_finite() && new > 0.0) {
            return Err(flowgraph::GraphError::InvalidWeight { value: new });
        }
        match collapsed.iter_mut().find(|c| c.edge == edge) {
            // Last write wins; `old` stays the pre-batch capacity.
            Some(c) => c.new = new,
            None => collapsed.push(capprox::CapacityChange {
                edge,
                old: g.capacity(edge),
                new,
            }),
        }
    }
    Ok(collapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn requests_parse_from_wire_documents() {
        let cases: Vec<(&str, Request)> = vec![
            (r#"{"op":"ping"}"#, Request::Ping),
            (r#"{"op":"stats"}"#, Request::Stats),
            (r#"{"op":"shutdown"}"#, Request::Shutdown),
            (
                r#"{"op":"max_flow","graph":"00000000000000ff","s":0,"t":24}"#,
                Request::MaxFlow {
                    graph: 0xff,
                    s: NodeId(0),
                    t: NodeId(24),
                    include_flow: false,
                },
            ),
            (
                r#"{"op":"update","graph":"0000000000000001","changes":[[3,2.5],[9,0.125]]}"#,
                Request::Update {
                    graph: 1,
                    changes: vec![(3, 2.5), (9, 0.125)],
                },
            ),
            (
                r#"{"op":"route","graph":"0000000000000001","demand":[1.0,-1.0]}"#,
                Request::Route {
                    graph: 1,
                    demand: vec![1.0, -1.0],
                },
            ),
            (
                r#"{"op":"load_graph","nodes":3,"edges":[[0,1,1.0],[1,2,2.0]],"config":{"epsilon":0.5}}"#,
                Request::LoadGraph {
                    nodes: 3,
                    edges: vec![(0, 1, 1.0), (1, 2, 2.0)],
                    config: Some(r#"{"epsilon":0.5}"#.to_string()),
                },
            ),
        ];
        for (doc, expected) in cases {
            assert_eq!(
                parse_request(&parse(doc).unwrap()).unwrap(),
                expected,
                "{doc}"
            );
        }
    }

    #[test]
    fn malformed_requests_name_the_offending_field() {
        for (doc, needle) in [
            (r#"{"s":1}"#, "op"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (
                r#"{"op":"max_flow","graph":"xyz","s":0,"t":1}"#,
                "fingerprint",
            ),
            (
                r#"{"op":"max_flow","graph":"0000000000000001","s":-1,"t":1}"#,
                "\"s\"",
            ),
            (r#"{"op":"load_graph","nodes":2,"edges":[[0,1]]}"#, "edge 0"),
            (
                r#"{"op":"load_graph","nodes":2,"edges":[[0,1,1.0]],"config":7}"#,
                "config",
            ),
            (
                r#"{"op":"update","graph":"0000000000000001","changes":[[0]]}"#,
                "change 0",
            ),
            (
                r#"{"op":"route","graph":"0000000000000001","demand":[1.0,"x"]}"#,
                "demand[1]",
            ),
        ] {
            let err = parse_request(&parse(doc).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{doc}: {err:?} lacks {needle:?}");
        }
    }

    #[test]
    fn fingerprints_round_trip_and_reject_junk() {
        for fp in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(fingerprint_from_wire(&fingerprint_to_wire(fp)), Some(fp));
        }
        for bad in ["", "123", "zzzzzzzzzzzzzzzz", "00000000000000001"] {
            assert_eq!(fingerprint_from_wire(bad), None);
        }
    }

    #[test]
    fn collapse_changes_keeps_last_write_and_prebatch_old() {
        let mut g = flowgraph::Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 4.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        let collapsed = collapse_changes(&g, &[(0, 5.0), (1, 9.0), (0, 6.0)]).unwrap();
        assert_eq!(collapsed.len(), 2);
        assert_eq!(collapsed[0].edge, EdgeId(0));
        assert_eq!(collapsed[0].old, 4.0);
        assert_eq!(collapsed[0].new, 6.0);
        assert_eq!(collapsed[1].new, 9.0);
        // Out-of-range and non-positive are typed errors.
        assert!(collapse_changes(&g, &[(7, 1.0)]).is_err());
        assert!(collapse_changes(&g, &[(0, 0.0)]).is_err());
        assert!(collapse_changes(&g, &[(0, f64::NAN)]).is_err());
    }
}
