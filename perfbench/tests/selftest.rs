//! Self-tests of the benchmark's own machinery: percentile rule, seeded
//! streams, metric-name grammar and daemon clean-up.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use perfbench::daemon::{Daemon, Stopped};
use perfbench::report::{valid_name, valid_unit};
use perfbench::rng::Rng;
use perfbench::stats::{median, tail_percentile};
use perfbench::workloads::{self, Connection};

const FLOWD: &str = env!("CARGO_BIN_EXE_flowd");

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=999).map(f64::from).collect();
    // 999 samples: rank ceil(0.99 · 999) = 990 leaves 9 beyond it.
    assert_eq!(tail_percentile(&samples, 0.99, 10), None);
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    // 1000 samples: rank 990 leaves exactly 10 beyond it.
    assert_eq!(tail_percentile(&samples, 0.99, 10), Some(990.0));
    assert_eq!(tail_percentile(&[], 0.5, 0), None);
    assert_eq!(tail_percentile(&[3.0, 1.0, 2.0], 0.5, 1), Some(2.0));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn each_seed_produces_the_same_stream() {
    let draw = |seed, stream| {
        let mut r = Rng::new(seed, stream);
        (0..64).map(|_| r.pair(144)).collect::<Vec<_>>()
    };
    assert_eq!(draw(1, 0), draw(1, 0));
    assert_eq!(draw(20_261_017, 2), draw(20_261_017, 2));
    assert_ne!(draw(1, 0), draw(2, 0));
    assert_ne!(draw(1, 1), draw(1, 2));
    for (s, t) in draw(7, 3) {
        assert!(s != t && s < 144 && t < 144);
    }
    // Updates are drawn from the seeded stream and the graph alone.
    let g = workloads::graph("flowd_grid_144");
    let updates = |seed| {
        let mut r = Rng::new(seed, 0);
        (0..16)
            .map(|_| workloads::draw_update(&mut r, &g))
            .collect::<Vec<_>>()
    };
    assert_eq!(updates(5), updates(5));
}

#[test]
fn metric_names_follow_the_grammar() {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json next to perfbench/");
    let mut names = Vec::new();
    for line in spec.lines() {
        if let Some(rest) = line.trim().strip_prefix("{\"name\": \"") {
            let (name, rest) = rest.split_once('"').expect("quoted name");
            names.push(name.to_string());
            if let Some(unit) = rest.split("\"unit\": \"").nth(1) {
                let unit = unit.split('"').next().expect("quoted unit");
                assert!(valid_unit(unit), "unit {unit:?} of {name}");
            }
        }
    }
    assert!(names.len() > 10, "read the metric and workload names");
    for name in &names {
        assert!(valid_name(name), "{name:?} breaks the grammar");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    let gated = names
        .iter()
        .filter(|n| workloads::NAMES.contains(&n.as_str()))
        .count();
    assert!(gated >= 2, "BENCHMARK.json gates fewer than two workloads");
    assert!(!valid_name(".leading_dot"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
    assert!(valid_name("capprox.apply_ms"));
    assert!(!valid_unit(""));
    assert!(valid_unit("1/s"));
}

fn alive(pid: u32) -> bool {
    // A reaped process has no procfs entry; a zombie would still show.
    Path::new(&format!("/proc/{pid}")).exists()
}

#[test]
fn daemon_exits_on_shutdown() {
    let mut d = Daemon::spawn(Path::new(FLOWD), 2).expect("start flowd");
    let pid = d.pid();
    assert!(alive(pid));
    let g = workloads::graph("flowd_grid_144");
    let mut client = service::client::Client::connect(d.addr()).expect("connect");
    workloads::load(&mut client, &g, 1).expect("load");
    assert_eq!(d.stop(), Stopped::Shutdown);
    assert!(!alive(pid));
    assert_eq!(d.stop(), Stopped::Shutdown, "stop is idempotent");
}

#[test]
fn daemon_is_stopped_when_dropped_mid_replay() {
    let pid;
    {
        let d = Daemon::spawn(Path::new(FLOWD), 2).expect("start flowd");
        pid = d.pid();
        let g = workloads::graph("flowd_grid_144");
        let mut admin = service::client::Client::connect(d.addr()).expect("connect");
        let fp = workloads::load(&mut admin, &g, 1).expect("load");
        let mut c = Connection::open(d.addr(), 1, 1).expect("connect");
        c.replay(
            &fp,
            &g,
            Instant::now() + std::time::Duration::from_millis(50),
        );
        assert!(!c.events.is_empty() && c.failures.is_empty());
        // Leaves scope with a connection still open.
    }
    assert!(!alive(pid));
}

#[test]
fn daemon_is_stopped_when_a_panic_unwinds() {
    let pid = std::sync::Mutex::new(0);
    let result = std::panic::catch_unwind(|| {
        let d = Daemon::spawn(Path::new(FLOWD), 2).expect("start flowd");
        *pid.lock().unwrap() = d.pid();
        panic!("benchmark failure while the daemon runs");
    });
    assert!(result.is_err());
    assert!(!alive(*pid.lock().unwrap()));
}

#[test]
fn unresponsive_daemon_is_killed() {
    // Announces an address where nothing answers, then ignores everything:
    // the shutdown request cannot be delivered, so the guard must kill it.
    let mut cmd = Command::new("/bin/sh");
    cmd.args(["-c", "echo flowd listening on 127.0.0.1:9; exec sleep 60"]);
    let mut d = Daemon::from_command(cmd).expect("start stand-in");
    let pid = d.pid();
    assert!(alive(pid));
    assert_eq!(d.stop(), Stopped::Killed);
    assert!(!alive(pid));
}

#[test]
fn daemon_that_fails_to_start_is_reaped() {
    let d = Daemon::from_command(Command::new("/bin/false"));
    assert!(d.is_err());
}
