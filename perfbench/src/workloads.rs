//! The four workloads: inputs, configs and the untraced serving runs that
//! produce the end-to-end metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use capprox::{CapacityChange, HierarchyConfig, RackeConfig};
use flowgraph::{gen, Demand, EdgeId, Graph, NodeId};
use maxflow::{MaxFlowConfig, MaxFlowResult, Parallelism, PreparedMaxFlow, PreparedParts};
use service::client::Client;
use service::json::{parse, Value};

use crate::checks;
use crate::daemon::{self, Daemon};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, min, tail_percentile};

/// Worker threads of the threaded session workloads and client connections
/// of the daemon workload. Fixed, not read from the host, so a workload is
/// the same on every machine.
pub const THREADS: usize = 2;

/// Workload names, in the order they are documented.
pub const NAMES: [&str; 4] = [
    "session_fat_tree_1m",
    "session_grid_10k",
    "converge_grid_256",
    "flowd_grid_144",
];

/// A session workload: one generated graph, one solver config and the
/// operation mix of each round. Every round re-prepares the session (so
/// set-up samples are spread through the run), then times single queries,
/// one batch over the same pairs, an optional traffic matrix and a group
/// of single-edge updates.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Solver configuration (the serving posture of the workload).
    pub config: MaxFlowConfig,
    /// Lanes of the blocked engine on this graph (what the session picks).
    pub lanes: usize,
    /// Single `max_flow` calls per round.
    pub singles: usize,
    /// Pairs per `par_max_flow_batch` call.
    pub batch: usize,
    /// Leading batch pairs that repeat the single queries' pairs; their
    /// answers are compared bit for bit. The rest are fresh pairs.
    pub batch_shared: usize,
    /// Side of a square grid whose pairs all have their source on the grid
    /// boundary (`None`: uniform pairs).
    pub boundary_source: Option<usize>,
    /// Demands per `route_many` call (0: no routing).
    pub routes: usize,
    /// Single-edge updates per round.
    pub updates: usize,
    /// Updates timed together as one unit (short updates are timed in
    /// groups, never alone).
    pub update_group: usize,
    /// Updates alternate set / restore, so the graph returns to its
    /// generated capacities after every pair.
    pub restore: bool,
    /// Check answers against the exact (Dinic) value.
    pub exact: bool,
    /// Rounds run regardless of the clock, and the most run.
    pub rounds: (usize, usize),
}

/// The generated graph of a workload.
pub fn graph(workload: &str) -> Graph {
    match workload {
        "session_fat_tree_1m" => {
            testkit::families::streaming::fat_tree(1_000, 8, 1_000, 10.0, 40.0)
                .expect("the 1m fat-tree fits u32 ids")
        }
        "session_grid_10k" => {
            testkit::families::streaming::grid(100, 100, 1.0).expect("the 10k grid fits u32 ids")
        }
        "converge_grid_256" => gen::grid(16, 16, 1.0),
        "flowd_grid_144" => gen::grid(12, 12, 1.0),
        other => panic!("unknown workload {other}"),
    }
}

/// The `hierarchy_scale` serving posture: a fixed 6-iteration, one-phase
/// budget over a recursive j-tree hierarchy.
fn hierarchy_serving() -> MaxFlowConfig {
    MaxFlowConfig::default()
        .with_epsilon(0.3)
        .with_racke(RackeConfig::default().with_seed(1))
        .with_phases(Some(1))
        .with_max_iterations_per_phase(6)
        .with_hierarchy(Some(
            HierarchyConfig::default()
                .with_direct_threshold(4_096)
                .with_chains(2)
                .with_trees_per_chain(Some(2))
                .with_seed(1),
        ))
        .with_parallelism(Parallelism::with_threads(THREADS))
}

/// The daemon's posture: the same budget over the direct Räcke ensemble.
/// Sessions prepared from a wire config run sequentially.
pub fn flowd_config(seed: u64) -> MaxFlowConfig {
    MaxFlowConfig::default()
        .with_epsilon(0.3)
        .with_racke(RackeConfig::default().with_seed(seed))
        .with_phases(Some(1))
        .with_max_iterations_per_phase(6)
}

/// The session spec of a session workload.
pub fn session_spec(workload: &str) -> SessionSpec {
    match workload {
        "session_fat_tree_1m" => SessionSpec {
            config: hierarchy_serving(),
            lanes: 2,
            singles: 1,
            batch: 2 * THREADS,
            batch_shared: 1,
            boundary_source: None,
            routes: 0,
            updates: 3,
            update_group: 1,
            restore: false,
            exact: false,
            rounds: (3, 3),
        },
        "session_grid_10k" => SessionSpec {
            config: hierarchy_serving(),
            lanes: 4,
            singles: 8,
            batch: 8,
            batch_shared: 8,
            boundary_source: None,
            routes: 8,
            updates: 4,
            update_group: 1,
            restore: false,
            exact: true,
            rounds: (4, 1_000),
        },
        "converge_grid_256" => SessionSpec {
            config: MaxFlowConfig::default().with_epsilon(0.3).with_racke(
                RackeConfig::default()
                    .with_seed(1)
                    .with_target_quality(1.25),
            ),
            lanes: 4,
            singles: 6,
            batch: 4,
            batch_shared: 1,
            boundary_source: Some(16),
            routes: 0,
            updates: 256,
            update_group: 64,
            restore: true,
            exact: true,
            rounds: (9, 1_000),
        },
        other => panic!("{other} is not a session workload"),
    }
}

/// A seeded terminal pair.
pub fn draw_pair(rng: &mut Rng, n: usize, boundary_source: Option<usize>) -> (NodeId, NodeId) {
    loop {
        let (s, t) = rng.pair(n);
        let on_boundary = |side: usize| {
            let (x, y) = (s as usize % side, s as usize / side);
            x == 0 || y == 0 || x == side - 1 || y == side - 1
        };
        if boundary_source.is_none_or(on_boundary) {
            return (NodeId(s), NodeId(t));
        }
    }
}

/// A seeded single-edge update: the edge and its new capacity.
pub fn draw_update(rng: &mut Rng, g: &Graph) -> (EdgeId, f64) {
    let e = EdgeId(rng.below(g.num_edges() as u64) as u32);
    let factor = [0.5, 0.75, 1.5, 2.0][rng.below(4) as usize];
    (e, g.capacity(e) * factor)
}

/// Sets `e` to `capacity` and refreshes the prepared parts: one update, from
/// the capacity change until the session can answer at the new version.
pub fn apply_update(
    g: &mut Graph,
    parts: &mut PreparedParts,
    e: EdgeId,
    capacity: f64,
) -> Result<usize, String> {
    let old = g.capacity(e);
    g.set_capacity(e, capacity).map_err(|e| e.to_string())?;
    let change = CapacityChange {
        edge: e,
        old,
        new: capacity,
    };
    parts
        .refresh_after_capacity_update(g, &[change])
        .map(|s| s.slots_patched)
        .map_err(|e| format!("update of edge {}: {e}", change.edge.0))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs a session workload untraced for about `seconds` and reports its
/// end-to-end metrics.
pub fn run_session(workload: &str, seed: u64, seconds: f64, report: &mut Report) {
    let spec = session_spec(workload);
    let mut g = graph(workload);
    let n = g.num_nodes();
    let mut rng = Rng::new(seed, 0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);

    let mut setup_s = Vec::new();
    let mut query_ms = Vec::new();
    let mut ratios = Vec::new();
    // (answers, seconds) summed over the run's batch and route calls. On
    // the converging workload a batch lasts as long as its slowest lane, so
    // per-call rates are bimodal; their sum is not.
    let (mut batch, mut route) = ((0usize, 0.0f64), (0usize, 0.0f64));
    let mut update_ms = Vec::new();
    let mut rounds = 0;

    while rounds < spec.rounds.0 || (rounds < spec.rounds.1 && Instant::now() < deadline) {
        rounds += 1;
        // Set-up: a fresh prepare on the current graph.
        let t = Instant::now();
        let built = PreparedParts::build(&g, &spec.config);
        setup_s.push(t.elapsed().as_secs_f64());
        let parts = match built {
            Ok(p) => {
                report.ok();
                p
            }
            Err(e) => {
                report.fail(format!("prepare: {e}"));
                break;
            }
        };

        // Single-query pairs, then the batch's fresh pairs.
        let fresh = spec.batch - spec.batch_shared;
        let pairs: Vec<(NodeId, NodeId)> = (0..spec.singles + fresh)
            .map(|_| draw_pair(&mut rng, n, spec.boundary_source))
            .collect();
        let batch_pairs: Vec<usize> = (0..spec.batch_shared)
            .chain(spec.singles..spec.singles + fresh)
            .collect();
        let exact: Vec<Option<f64>> = pairs
            .iter()
            .map(|&(s, t)| {
                spec.exact
                    .then(|| checks::exact_value(&g, s, t))
                    .transpose()
                    .unwrap_or_else(|e| {
                        report.fail(e);
                        None
                    })
            })
            .collect();

        let mut session = PreparedMaxFlow::from_parts(&g, parts).expect("parts match the graph");
        let mut singles: Vec<MaxFlowResult> = Vec::new();
        for (i, &pair) in pairs.iter().take(spec.singles).enumerate() {
            let t = Instant::now();
            let answer = session.max_flow(pair.0, pair.1);
            let elapsed = t.elapsed();
            match answer {
                Ok(r) => {
                    query_ms.push(ms(elapsed));
                    ratios.push(r.certified_ratio());
                    report.check(checks::max_flow_answer(&g, pair, &r, exact[i]));
                    singles.push(r);
                }
                Err(e) => report.fail(format!("max_flow: {e}")),
            }
        }

        if spec.batch > 0 {
            let batch_of: Vec<(NodeId, NodeId)> = batch_pairs.iter().map(|&i| pairs[i]).collect();
            let t = Instant::now();
            let answers = session.par_max_flow_batch(&batch_of);
            let elapsed = t.elapsed();
            match answers {
                Ok(rs) => {
                    batch.0 += rs.len();
                    batch.1 += elapsed.as_secs_f64();
                    for (&i, r) in batch_pairs.iter().zip(&rs) {
                        let mut outcome = checks::max_flow_answer(&g, pairs[i], r, exact[i]);
                        if let Some(single) = singles.get(i).filter(|_| i < spec.singles) {
                            if outcome.is_ok() && !checks::same_bits(single, r) {
                                outcome = Err(format!("batch answer {i} differs from max_flow"));
                            }
                        } else {
                            ratios.push(r.certified_ratio());
                        }
                        report.check(outcome);
                    }
                }
                Err(e) => report.fail(format!("par_max_flow_batch: {e}")),
            }
        }

        if spec.routes > 0 {
            let demands: Vec<Demand> = (0..spec.routes)
                .map(|_| {
                    let (s, t) = rng.pair(n);
                    Demand::st(&g, NodeId(s), NodeId(t), 1.0)
                })
                .collect();
            let t = Instant::now();
            let routed_now = session.route_many(&demands);
            let elapsed = t.elapsed();
            match routed_now {
                Ok(rs) => {
                    route.0 += rs.len();
                    route.1 += elapsed.as_secs_f64();
                    for (b, r) in demands.iter().zip(&rs) {
                        report.check(checks::routing_answer(&g, b, r));
                    }
                }
                Err(e) => report.fail(format!("route_many: {e}")),
            }
        }

        let mut parts = session.into_parts();
        let mut done = 0;
        while done < spec.updates {
            let group = spec.update_group.min(spec.updates - done);
            let plan: Vec<(EdgeId, f64)> = if spec.restore {
                let mut plan = Vec::with_capacity(group);
                while plan.len() < group {
                    let (e, cap) = draw_update(&mut rng, &g);
                    plan.push((e, cap));
                    plan.push((e, g.capacity(e)));
                }
                plan.truncate(group);
                plan
            } else {
                (0..group).map(|_| draw_update(&mut rng, &g)).collect()
            };
            let t = Instant::now();
            let outcomes: Vec<Result<usize, String>> = plan
                .iter()
                .map(|&(e, cap)| apply_update(&mut g, &mut parts, e, cap))
                .collect();
            update_ms.push(ms(t.elapsed()) / group as f64);
            for outcome in outcomes {
                report.check(outcome.map(|_| ()));
            }
            done += group;
        }
    }

    let wall = started.elapsed().as_secs_f64();
    println!(
        "run {rounds} rounds in {wall:.2} s: {} prepares, {} queries, {} batch answers, {} \
         routed demands, {} update units",
        setup_s.len(),
        query_ms.len(),
        batch.0,
        route.0,
        update_ms.len()
    );
    put_median(report, "setup_s", &setup_s, "s");
    report.put_opt(
        "peak_rss_mb",
        daemon::peak_rss_mb("/proc/self/status"),
        "MB",
    );
    put_median(report, "query_p50_ms", &query_ms, "ms");
    if batch.1 > 0.0 {
        report.put("batch_qps", batch.0 as f64 / batch.1, "1/s");
    }
    if route.1 > 0.0 {
        report.put("route_dps", route.0 as f64 / route.1, "1/s");
    }
    put_median(report, "update_p50_ms", &update_ms, "ms");
    put_ratios(report, &ratios);
}

fn put_median(report: &mut Report, name: &str, samples: &[f64], unit: &'static str) {
    report.put_opt(name, median(samples), unit);
}

fn put_ratios(report: &mut Report, ratios: &[f64]) {
    report.put_opt("certified_ratio_p50", median(ratios), "ratio");
    report.put_opt("certified_ratio_min", min(ratios), "ratio");
}

/// Kind of a replayed daemon event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// `max_flow` request.
    MaxFlow,
    /// `route` request.
    Route,
    /// `update` request.
    Update,
}

/// One answered daemon event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Request kind.
    pub kind: EventKind,
    /// Round-trip latency in milliseconds.
    pub ms: f64,
    /// `value / upper_bound` of a max-flow reply.
    pub ratio: Option<f64>,
    /// When the reply arrived.
    pub end: Instant,
}

/// One closed-loop client connection: its own seeded stream, and the last
/// graph version it was answered at.
pub struct Connection {
    client: Client,
    rng: Rng,
    version: u64,
    /// Answered events.
    pub events: Vec<Event>,
    /// Failed events with the reason.
    pub failures: Vec<String>,
}

impl Connection {
    /// Connects to `addr`, drawing events from stream `stream` of `seed`.
    pub fn open(addr: std::net::SocketAddr, seed: u64, stream: u64) -> Result<Self, String> {
        Ok(Connection {
            client: Client::connect(addr).map_err(|e| format!("connect: {e}"))?,
            rng: Rng::new(seed, stream),
            version: 0,
            events: Vec::new(),
            failures: Vec::new(),
        })
    }

    /// Replays events (69% max_flow, 30% route, 1% update), each sent only
    /// after the previous reply arrived, until `deadline`.
    pub fn replay(&mut self, graph: &str, g: &Graph, deadline: Instant) {
        let n = g.num_nodes();
        while Instant::now() < deadline {
            let roll = self.rng.below(100);
            let started = Instant::now();
            let (kind, reply) = if roll < 1 {
                let e = self.rng.below(g.num_edges() as u64) as u32;
                let cap = 1.0 + self.rng.below(8) as f64;
                (EventKind::Update, self.client.update(graph, &[(e, cap)]))
            } else if roll < 31 {
                let (s, t) = self.rng.pair(n);
                let mut demand = vec![0.0; n];
                demand[s as usize] = -1.0;
                demand[t as usize] = 1.0;
                (EventKind::Route, self.client.route(graph, &demand))
            } else {
                let (s, t) = self.rng.pair(n);
                (EventKind::MaxFlow, self.client.max_flow(graph, s, t))
            };
            let ms = ms(started.elapsed());
            match reply
                .map_err(|e| e.to_string())
                .and_then(|r| self.check(kind, &r))
            {
                Ok(ratio) => self.events.push(Event {
                    kind,
                    ms,
                    ratio,
                    end: Instant::now(),
                }),
                Err(e) => self.failures.push(format!("{kind:?}: {e}")),
            }
        }
    }

    /// A reply is `ok`, never goes back in version on this connection, and
    /// a max-flow reply lies inside its certificate.
    fn check(&mut self, kind: EventKind, reply: &Value) -> Result<Option<f64>, String> {
        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("error reply {reply:?}"));
        }
        let version = reply
            .get("version")
            .and_then(Value::as_index)
            .ok_or("reply without version")?;
        if version < self.version {
            return Err(format!(
                "version went back from {} to {version}",
                self.version
            ));
        }
        self.version = version;
        match kind {
            EventKind::MaxFlow => {
                let num = |k: &str| reply.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                let (value, upper) = (num("value"), num("upper_bound"));
                if !(value > 0.0 && value <= upper * (1.0 + 1e-12) && upper.is_finite()) {
                    return Err(format!("value {value} outside (0, {upper}]"));
                }
                Ok(Some(value / upper))
            }
            EventKind::Route => match reply.get("congestion").and_then(Value::as_f64) {
                Some(c) if c.is_finite() && c > 0.0 => Ok(None),
                other => Err(format!("route congestion {other:?}")),
            },
            EventKind::Update => Ok(None),
        }
    }
}

/// The wire config of a daemon load.
fn flowd_config_value(seed: u64) -> Value {
    let json = flowd_config(seed)
        .to_json()
        .expect("the flowd config serializes");
    parse(&json).expect("config_io writes valid JSON")
}

/// Edge list of `g` as the wire sends it.
pub fn edge_list(g: &Graph) -> Vec<(u32, u32, f64)> {
    g.edges()
        .map(|(_, e)| (e.tail.0, e.head.0, e.capacity))
        .collect()
}

/// Loads `g` into the daemon and returns its fingerprint.
pub fn load(client: &mut Client, g: &Graph, config_seed: u64) -> Result<String, String> {
    let reply = client
        .load_graph(
            g.num_nodes() as u64,
            &edge_list(g),
            Some(flowd_config_value(config_seed)),
        )
        .map_err(|e| format!("load_graph: {e}"))?;
    if reply.get("ok").and_then(Value::as_bool) != Some(true)
        || reply.get("cached").and_then(Value::as_bool) != Some(false)
    {
        return Err(format!("load_graph did not prepare a session: {reply:?}"));
    }
    reply
        .get("graph")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| "load_graph reply without fingerprint".to_string())
}

/// Number of `load_graph` round trips timed per daemon run; the first loads
/// the served graph, the others (each under another ensemble seed, so each
/// prepares afresh) are spread between replay segments.
pub const FLOWD_LOADS: usize = 7;

/// Daemon counters after a replay, from the `stats` op.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounters {
    /// Queries answered (max_flow + route).
    pub queries: u64,
    /// Engine calls that served two or more coalesced queries.
    pub coalesced_batches: u64,
    /// Largest coalesced batch.
    pub max_batch: u64,
    /// Updates applied.
    pub updates: u64,
    /// Updates served incrementally.
    pub incremental_updates: u64,
}

/// Reads the counters of the served graph.
pub fn server_counters(client: &mut Client, graph: &str) -> Result<ServerCounters, String> {
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let entry = stats
        .get("entries")
        .and_then(Value::as_arr)
        .and_then(|es| {
            es.iter()
                .find(|e| e.get("graph").and_then(Value::as_str) == Some(graph))
        })
        .ok_or("stats without the served graph")?;
    let c = |k: &str| entry.get(k).and_then(Value::as_index).unwrap_or(0);
    Ok(ServerCounters {
        queries: c("queries"),
        coalesced_batches: c("coalesced_batches"),
        max_batch: c("max_batch"),
        updates: c("updates"),
        incremental_updates: c("incremental_updates"),
    })
}

/// Result of a daemon replay.
pub struct Replay {
    /// Every answered event.
    pub events: Vec<Event>,
    /// Wall seconds spent replaying.
    pub wall_s: f64,
    /// Start and end of each replay segment.
    pub segments: Vec<(Instant, Instant)>,
    /// `load_graph` round trips, seconds.
    pub loads_s: Vec<f64>,
    /// Counters of the served graph.
    pub counters: ServerCounters,
    /// Peak resident set of the daemon, MB.
    pub peak_rss_mb: Option<f64>,
}

/// Starts a daemon, loads the graph and replays the seeded stream from
/// [`THREADS`] closed-loop connections for about `seconds`, in `segments`
/// pieces with a timed `load_graph` before each; stops the daemon.
pub fn replay_flowd(
    bin: &Path,
    seed: u64,
    seconds: f64,
    segments: usize,
    report: &mut Report,
) -> Result<Replay, String> {
    let g = graph("flowd_grid_144");
    let mut daemon = Daemon::spawn(bin, FLOWD_LOADS + 1)?;
    let mut admin = Client::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut connections = (0..THREADS as u64)
        .map(|c| Connection::open(daemon.addr(), seed, c + 1))
        .collect::<Result<Vec<_>, _>>()?;
    let mut loads_s = Vec::new();
    let mut graph_fp = String::new();
    let mut wall_s = 0.0;
    let mut spans = Vec::new();
    for segment in 0..segments {
        // The served graph uses ensemble seed 1; the other loads prepare
        // the same graph under other seeds.
        let t = Instant::now();
        let loaded = load(&mut admin, &g, 1 + segment as u64);
        loads_s.push(t.elapsed().as_secs_f64());
        match loaded {
            Ok(fp) if segment == 0 => graph_fp = fp,
            Ok(_) => {}
            Err(e) => return Err(e),
        }
        report.ok();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds / segments as f64);
        std::thread::scope(|scope| {
            for c in connections.iter_mut() {
                let (fp, g) = (&graph_fp, &g);
                scope.spawn(move || c.replay(fp, g, deadline));
            }
        });
        wall_s += started.elapsed().as_secs_f64();
        spans.push((started, Instant::now()));
    }
    let counters = server_counters(&mut admin, &graph_fp)?;
    let peak_rss_mb = daemon.peak_rss_mb();
    daemon.stop();
    let mut events = Vec::new();
    for c in connections {
        for f in c.failures {
            report.fail(f);
        }
        for _ in &c.events {
            report.ok();
        }
        events.extend(c.events);
    }
    Ok(Replay {
        events,
        wall_s,
        segments: spans,
        loads_s,
        counters,
        peak_rss_mb,
    })
}

/// Latencies (ms) of the events of one kind (all kinds for `None`).
pub fn latencies(events: &[Event], kind: Option<EventKind>) -> Vec<f64> {
    events
        .iter()
        .filter(|e| kind.is_none_or(|k| e.kind == k))
        .map(|e| e.ms)
        .collect()
}

/// Answers per chunk daemon rates are measured over.
const CHUNK: usize = 200;

/// Median, over chunks of [`CHUNK`] consecutive answers of one kind (all
/// kinds for `None`) within a replay segment, of answers per wall second. A
/// stall slows one chunk, not the rate.
pub fn chunk_rate(replay: &Replay, kind: Option<EventKind>) -> Option<f64> {
    let mut rates = Vec::new();
    for &(start, end) in &replay.segments {
        let mut ends: Vec<Instant> = replay
            .events
            .iter()
            .filter(|e| kind.is_none_or(|k| e.kind == k) && e.end >= start && e.end <= end)
            .map(|e| e.end)
            .collect();
        ends.sort();
        for chunk in ends.chunks_exact(CHUNK) {
            let span = (chunk[CHUNK - 1] - chunk[0]).as_secs_f64();
            rates.push((CHUNK - 1) as f64 / span);
        }
    }
    median(&rates)
}

/// Runs the daemon workload untraced and reports its end-to-end metrics.
pub fn run_flowd(bin: &Path, seed: u64, seconds: f64, report: &mut Report) {
    let replay = match replay_flowd(bin, seed, seconds, FLOWD_LOADS, report) {
        Ok(r) => r,
        Err(e) => {
            report.fail(e);
            return;
        }
    };
    put_flowd_metrics(&replay, report);
}

/// End-to-end metrics of a daemon replay.
pub fn put_flowd_metrics(replay: &Replay, report: &mut Report) {
    let events = &replay.events;
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count() as f64;
    let all = latencies(events, None);
    println!(
        "run {} events in {:.2} s over {THREADS} connections ({} max_flow, {} route, {} update)",
        events.len(),
        replay.wall_s,
        count(EventKind::MaxFlow),
        count(EventKind::Route),
        count(EventKind::Update)
    );
    put_median(report, "setup_s", &replay.loads_s, "s");
    report.put_opt("peak_rss_mb", replay.peak_rss_mb, "MB");
    put_median(
        report,
        "query_p50_ms",
        &latencies(events, Some(EventKind::MaxFlow)),
        "ms",
    );
    report.put_opt(
        "batch_qps",
        chunk_rate(replay, Some(EventKind::MaxFlow)),
        "1/s",
    );
    report.put_opt(
        "route_dps",
        chunk_rate(replay, Some(EventKind::Route)),
        "1/s",
    );
    put_median(
        report,
        "update_p50_ms",
        &latencies(events, Some(EventKind::Update)),
        "ms",
    );
    report.put_opt("events_per_s", chunk_rate(replay, None), "1/s");
    put_median(report, "event_p50_ms", &all, "ms");
    report.put_opt("event_p99_ms", tail_percentile(&all, 0.99, 10), "ms");
    let ratios: Vec<f64> = events.iter().filter_map(|e| e.ratio).collect();
    put_ratios(report, &ratios);
}
