//! End-to-end tests of the `flowd` daemon over real sockets: protocol
//! behavior, session-cache eviction, and the incremental-update /
//! full-rebuild split.

use flowgraph::NodeId;
use maxflow::{MaxFlowConfig, PreparedMaxFlow};
use service::client::{is_error, Client};
use service::json::{parse, Value};
use service::protocol::ErrorCode;
use service::server::{start, ServerOptions};

/// A cheap solver config so every query costs microseconds, as a `Value`
/// for the wire and a `MaxFlowConfig` for in-process references.
fn fast_config() -> (Value, MaxFlowConfig) {
    let config = MaxFlowConfig {
        epsilon: 0.5,
        racke: capprox::RackeConfig {
            num_trees: Some(3),
            ..Default::default()
        },
        phases: Some(2),
        ..Default::default()
    };
    let value = parse(&config.to_json().unwrap()).unwrap();
    (value, config)
}

fn path_edges(n: u32, cap: f64) -> Vec<(u32, u32, f64)> {
    (0..n - 1).map(|i| (i, i + 1, cap)).collect()
}

fn f(reply: &Value, key: &str) -> f64 {
    reply
        .get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{key} missing in {reply:?}"))
}

fn load(client: &mut Client, nodes: u64, edges: &[(u32, u32, f64)], config: &Value) -> String {
    let reply = client
        .load_graph(nodes, edges, Some(config.clone()))
        .unwrap();
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "{reply:?}"
    );
    reply
        .get("graph")
        .and_then(Value::as_str)
        .unwrap()
        .to_string()
}

#[test]
fn ping_stats_and_malformed_frames() {
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let pong = client.ping().unwrap();
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));

    // Malformed JSON and non-object requests get typed errors over a raw
    // socket; the connection and the server both survive each of them.
    {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        for bad in [r#"{"op""#, r#"[1,2,3]"#, "null", r#"{"s":1}"#] {
            service::wire::write_frame(&mut raw, bad).unwrap();
            let reply = service::wire::read_frame(&mut raw).unwrap().unwrap();
            let reply = parse(&reply).unwrap();
            assert!(
                is_error(&reply, ErrorCode::InvalidRequest),
                "{bad}: {reply:?}"
            );
        }
    }
    let reply = client
        .call(&Value::obj(vec![("op", Value::Str("warp".into()))]))
        .unwrap();
    assert!(is_error(&reply, ErrorCode::InvalidRequest), "{reply:?}");

    let stats = client.stats().unwrap();
    assert_eq!(stats.get("graphs").and_then(Value::as_index), Some(0));
    assert!(f(&stats, "invalid_requests") >= 5.0);
    server.shutdown();
}

#[test]
fn load_query_update_round_trip_with_certified_brackets() {
    let (config_value, config) = fast_config();
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // 6-node path, bottleneck 2.0 at edge 2.
    let mut edges = path_edges(6, 4.0);
    edges[2].2 = 2.0;
    let graph = load(&mut client, 6, &edges, &config_value);

    // Reloading the same graph hits the cache.
    let again = client
        .load_graph(6, &edges, Some(config_value.clone()))
        .unwrap();
    assert_eq!(again.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(again.get("graph").and_then(Value::as_str).unwrap(), graph);

    // The served answer is bitwise the in-process session's answer.
    let g = {
        let mut g = flowgraph::Graph::with_nodes(6);
        for &(u, v, c) in &edges {
            g.add_edge(NodeId(u), NodeId(v), c).unwrap();
        }
        g
    };
    let mut reference = PreparedMaxFlow::prepare(&g, &config).unwrap();
    let expected = reference.max_flow(NodeId(0), NodeId(5)).unwrap();
    let reply = client.max_flow(&graph, 0, 5).unwrap();
    assert_eq!(f(&reply, "value").to_bits(), expected.value.to_bits());
    assert_eq!(
        f(&reply, "upper_bound").to_bits(),
        expected.upper_bound.to_bits()
    );
    assert_eq!(reply.get("version").and_then(Value::as_index), Some(0));
    // The bracket certifies the 2.0 bottleneck.
    assert!(f(&reply, "value") <= 2.0 + 1e-9);
    assert!(f(&reply, "upper_bound") >= 2.0 - 1e-9);

    // Routing one unit end-to-end congests the bottleneck by ~1/2.
    let mut demand = vec![0.0; 6];
    demand[0] = -1.0;
    demand[5] = 1.0;
    let routed = client.route(&graph, &demand).unwrap();
    assert_eq!(
        routed.get("ok").and_then(Value::as_bool),
        Some(true),
        "{routed:?}"
    );
    assert!(f(&routed, "congestion") >= 0.5 - 1e-6, "{routed:?}");

    // A small update takes the incremental path and bumps the version.
    let updated = client.update(&graph, &[(2, 8.0)]).unwrap();
    assert_eq!(
        updated.get("ok").and_then(Value::as_bool),
        Some(true),
        "{updated:?}"
    );
    assert_eq!(
        updated.get("incremental").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(updated.get("version").and_then(Value::as_index), Some(1));
    assert!(f(&updated, "trees_touched") >= 1.0);
    assert!(f(&updated, "slots_patched") >= 1.0);
    // A path is its own only spanning tree: the repair tree cannot move.
    assert_eq!(
        updated
            .get("repair_tree_exchanges")
            .and_then(Value::as_index),
        Some(0)
    );

    // The new bottleneck is 4.0 and answers carry the new version.
    let reply = client.max_flow(&graph, 0, 5).unwrap();
    assert_eq!(reply.get("version").and_then(Value::as_index), Some(1));
    assert!(f(&reply, "value") <= 4.0 + 1e-9);
    assert!(f(&reply, "upper_bound") >= 4.0 - 1e-9);

    // include_flow returns one value per edge.
    let reply = client
        .call(&Value::obj(vec![
            ("op", Value::Str("max_flow".into())),
            ("graph", Value::Str(graph.clone())),
            ("s", Value::index(0)),
            ("t", Value::index(5)),
            ("include_flow", Value::Bool(true)),
        ]))
        .unwrap();
    let flow = reply.get("flow").and_then(Value::as_arr).unwrap();
    assert_eq!(flow.len(), edges.len());

    // Bad terminals are per-query typed errors, not connection killers.
    let reply = client.max_flow(&graph, 3, 3).unwrap();
    assert!(is_error(&reply, ErrorCode::GraphError), "{reply:?}");
    let reply = client.max_flow(&graph, 0, 99).unwrap();
    assert!(is_error(&reply, ErrorCode::GraphError), "{reply:?}");
    // ... and the session still answers afterwards.
    let reply = client.max_flow(&graph, 0, 5).unwrap();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));

    // Per-entry counters made it into stats.
    let stats = client.stats().unwrap();
    let entries = stats.get("entries").and_then(Value::as_arr).unwrap();
    assert_eq!(entries.len(), 1);
    assert!(f(&entries[0], "queries") >= 4.0);
    assert_eq!(entries[0].get("updates").and_then(Value::as_index), Some(1));
    assert_eq!(
        entries[0]
            .get("incremental_updates")
            .and_then(Value::as_index),
        Some(1)
    );
    assert_eq!(
        entries[0].get("full_rebuilds").and_then(Value::as_index),
        Some(0)
    );
    server.shutdown();
}

#[test]
fn bulk_updates_fall_back_to_a_full_rebuild() {
    let (config_value, _) = fast_config();
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // 40-node path (39 edges): the incremental bound is max(16, 39/8) = 16,
    // so changing 20 edges must rebuild.
    let edges = path_edges(40, 4.0);
    let graph = load(&mut client, 40, &edges, &config_value);
    let changes: Vec<(u32, f64)> = (0..20).map(|i| (i, 3.0)).collect();
    let updated = client.update(&graph, &changes).unwrap();
    assert_eq!(
        updated.get("ok").and_then(Value::as_bool),
        Some(true),
        "{updated:?}"
    );
    assert_eq!(
        updated.get("incremental").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(updated.get("version").and_then(Value::as_index), Some(1));

    // A small follow-up update is incremental again (the rebuilt parts are
    // refreshable), and queries keep certifying the right bottleneck.
    let updated = client.update(&graph, &[(5, 0.5)]).unwrap();
    assert_eq!(
        updated.get("incremental").and_then(Value::as_bool),
        Some(true),
        "{updated:?}"
    );
    let reply = client.max_flow(&graph, 0, 39).unwrap();
    assert!(f(&reply, "value") <= 0.5 + 1e-9);
    assert!(f(&reply, "upper_bound") >= 0.5 - 1e-9);
    assert_eq!(reply.get("version").and_then(Value::as_index), Some(2));

    let stats = client.stats().unwrap();
    let entries = stats.get("entries").and_then(Value::as_arr).unwrap();
    assert_eq!(
        entries[0].get("full_rebuilds").and_then(Value::as_index),
        Some(1)
    );
    assert_eq!(
        entries[0]
            .get("incremental_updates")
            .and_then(Value::as_index),
        Some(1)
    );
    server.shutdown();
}

#[test]
fn lru_eviction_forgets_graphs_and_reload_revives_them() {
    let (config_value, _) = fast_config();
    let options = ServerOptions {
        cache_capacity: 2,
        ..ServerOptions::default()
    };
    let mut server = start("127.0.0.1:0", options).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Three distinct graphs through a capacity-2 cache.
    let a = load(&mut client, 5, &path_edges(5, 1.0), &config_value);
    let b = load(&mut client, 6, &path_edges(6, 1.0), &config_value);
    let c = load(&mut client, 7, &path_edges(7, 1.0), &config_value);
    assert_ne!(a, b);
    assert_ne!(b, c);

    // A was least recently used and is gone; B and C still answer.
    let reply = client.max_flow(&a, 0, 4).unwrap();
    assert!(is_error(&reply, ErrorCode::UnknownGraph), "{reply:?}");
    assert_eq!(
        client
            .max_flow(&b, 0, 5)
            .unwrap()
            .get("ok")
            .and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        client
            .max_flow(&c, 0, 6)
            .unwrap()
            .get("ok")
            .and_then(Value::as_bool),
        Some(true)
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("graphs").and_then(Value::as_index), Some(2));
    assert_eq!(stats.get("evictions").and_then(Value::as_index), Some(1));

    // Touching B then loading a fourth graph evicts C, not B.
    client.max_flow(&b, 0, 5).unwrap();
    let d = load(&mut client, 8, &path_edges(8, 1.0), &config_value);
    let reply = client.max_flow(&c, 0, 6).unwrap();
    assert!(is_error(&reply, ErrorCode::UnknownGraph), "{reply:?}");
    assert_eq!(
        client
            .max_flow(&b, 0, 5)
            .unwrap()
            .get("ok")
            .and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        client
            .max_flow(&d, 0, 7)
            .unwrap()
            .get("ok")
            .and_then(Value::as_bool),
        Some(true)
    );

    // Reloading the evicted graph revives it under the same fingerprint,
    // with fresh (version 0) state.
    let a_again = load(&mut client, 5, &path_edges(5, 1.0), &config_value);
    assert_eq!(a, a_again);
    let reply = client.max_flow(&a, 0, 4).unwrap();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(reply.get("version").and_then(Value::as_index), Some(0));

    // A fingerprint that was never loaded is unknown, not a crash.
    let reply = client.max_flow("deadbeefdeadbeef", 0, 1).unwrap();
    assert!(is_error(&reply, ErrorCode::UnknownGraph));
    server.shutdown();
}

#[test]
fn wire_shutdown_op_stops_the_daemon() {
    let (config_value, _) = fast_config();
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let graph = load(&mut client, 5, &path_edges(5, 1.0), &config_value);
    client.max_flow(&graph, 0, 4).unwrap();

    let reply = client.shutdown().unwrap();
    assert_eq!(reply.get("stopping").and_then(Value::as_bool), Some(true));
    // The accept loop exits on its own — join, don't re-signal.
    server.join();

    // New connections are refused or go unanswered once the listener died.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.ping().is_err(), "server answered after shutdown"),
    }
}

#[test]
fn updates_report_repair_tree_exchanges() {
    let (config_value, _) = fast_config();
    let mut server = start("127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A 4-cycle whose edge 3 (3-0) is the light one, so the repair tree is
    // the path 0-1-2-3. Raising edge 3 above the rest swaps it in for the
    // worst-ranked path edge (edge 2: equal capacity, highest id).
    let edges = [(0, 1, 4.0), (1, 2, 4.0), (2, 3, 4.0), (3, 0, 1.0)];
    let graph = load(&mut client, 4, &edges, &config_value);
    let updated = client.update(&graph, &[(3, 8.0)]).unwrap();
    assert_eq!(
        updated.get("incremental").and_then(Value::as_bool),
        Some(true),
        "{updated:?}"
    );
    assert_eq!(
        updated
            .get("repair_tree_exchanges")
            .and_then(Value::as_index),
        Some(1)
    );
    // Lowering a tree edge that stays the best across its cut (edge 3 at
    // 5.0 against edge 2 at 4.0) moves nothing.
    let updated = client.update(&graph, &[(3, 5.0)]).unwrap();
    assert_eq!(
        updated
            .get("repair_tree_exchanges")
            .and_then(Value::as_index),
        Some(0)
    );
    let reply = client.max_flow(&graph, 0, 2).unwrap();
    assert!(f(&reply, "value") <= 8.0 + 1e-9);
    assert!(f(&reply, "upper_bound") >= 8.0 - 1e-9);

    let stats = client.stats().unwrap();
    let entries = stats.get("entries").and_then(Value::as_arr).unwrap();
    assert_eq!(
        entries[0]
            .get("repair_tree_exchanges")
            .and_then(Value::as_index),
        Some(1)
    );
    server.shutdown();
}
