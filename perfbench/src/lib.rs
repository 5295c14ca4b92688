//! `perfbench`: the repository's wall-clock benchmark.
//!
//! Four workloads drive the public APIs of `maxflow`, `capprox`,
//! `flowgraph` and `service` (and the `flowd` daemon as a child process),
//! check every answer, and report end-to-end metrics; a traced run replays
//! each layer's public calls inside spans for the per-layer metrics. See
//! `perfbench/README.md` for the metrics, the workloads and how to run them.

pub mod checks;
pub mod daemon;
pub mod layers;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;
