//! Runs one workload once and prints its metrics; the last line is
//! `RESULT {json}`. Normally started by `perfbench/run.py`, which builds
//! this binary and the daemon first.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --flowd PATH
//!           [--trace-out PATH] [--commit ID] [--rustc VERSION]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::layers;
use perfbench::report::{json_str, Report};
use perfbench::trace::Tracer;
use perfbench::workloads::{self, THREADS};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     --flowd PATH [--trace-out PATH] [--commit ID] [--rustc VERSION]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    flowd: PathBuf,
    trace_out: Option<PathBuf>,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        flowd: PathBuf::new(),
        trace_out: None,
        commit: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut seen_seconds = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed N")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds S")?;
                seen_seconds = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace 0|1".into()),
                }
            }
            "--flowd" => args.flowd = value.into(),
            "--trace-out" => args.trace_out = Some(value.into()),
            "--commit" => args.commit = value,
            "--rustc" => args.rustc = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        ));
    }
    if !(seen_seconds && args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match args.workload.as_str() {
        "converge_grid_256" => 1,
        _ => THREADS,
    };
    println!(
        "workload {} seed {} seconds {} trace {} host_cpus {host_cpus} threads {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut report = Report::default();
    let mut tracer = Tracer::default();
    match (args.workload.as_str(), args.trace) {
        ("flowd_grid_144", false) => {
            workloads::run_flowd(&args.flowd, args.seed, args.seconds, &mut report)
        }
        ("flowd_grid_144", true) => layers::run_flowd(
            &args.flowd,
            args.seed,
            args.seconds,
            &mut report,
            &mut tracer,
        ),
        (w, false) => workloads::run_session(w, args.seed, args.seconds, &mut report),
        (w, true) => layers::run_session(w, args.seed, args.seconds, &mut report, &mut tracer),
    }

    if let Some(path) = &args.trace_out {
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| tracer.write_jsonl(&mut f));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    report.print(&[
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("host_cpus", host_cpus.to_string()),
        ("threads", threads.to_string()),
        ("commit", json_str(&args.commit)),
        ("rustc", json_str(&args.rustc)),
        ("trace", args.trace.to_string()),
    ]);
    if report.failed() == 0 && report.attempted() > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
