//! `perfbench` — the protocol-level benchmark of `ontodq-server`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --server PATH --work-dir DIR
//! ```
//!
//! Starts the server binary at `PATH`, drives one workload over loopback
//! TCP for `S` seconds with inputs made from seed `N`, checks every answer,
//! and prints the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! of an in-process replay of the same inputs (`--trace 1`) as the last
//! line of standard output.  `DIR` holds the run's working files.  Usually
//! started through `perfbench/run.py`, which builds both binaries first.

mod client;
mod e2e;
mod layers;
mod literal;
mod model;
mod plan;
mod stats;

use plan::{Plan, Workload};
use stats::{median, Metrics};
use std::path::PathBuf;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        server: server.ok_or("--server is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// The end-to-end metrics of one run.
fn end_to_end(run: &e2e::E2e) -> Metrics {
    let s = &run.samples;
    let mut m = Metrics::default();
    m.add("setup_s", run.setup_s, "s");
    m.add("ops_per_s", s.requests as f64 / s.busy_secs, "1/s");
    m.add("peak_rss_mb", run.peak_rss_mb, "MiB");
    m.add("insert_p50_ms", median(&s.insert_ms), "ms");
    m.add("retract_p50_ms", median(&s.retract_ms), "ms");
    m.add("qquery_p50_us", median(&s.qquery_us), "us");
    m.add("dquery_p50_us", median(&s.dquery_us), "us");
    m.add("report_p50_ms", median(&s.report_ms), "ms");
    m.add(
        "report_rows_per_s",
        s.report_rows as f64 / s.report_secs,
        "rows/s",
    );
    m
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed);
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("error: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(1);
    }
    let run = match e2e::run(&plan, &args.server, &args.work_dir, args.seconds) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {} run failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let s = &run.samples;
    eprintln!(
        "{}: {} rounds, {} inserts, {} retracts, {} ?q-, {} ?d-, {} reports ({} rows), {:.2} s busy",
        args.workload.name(),
        run.rounds,
        s.insert_ms.len(),
        s.retract_ms.len(),
        s.qquery_us.len(),
        s.dquery_us.len(),
        s.report_ms.len(),
        s.report_rows,
        s.busy_secs,
    );
    let e2e_metrics = end_to_end(&run);
    let mut problems = run.tally.problems.len();
    let metrics = if args.trace {
        match layers::run(&plan, &e2e_metrics, run.rounds, &args.work_dir) {
            Ok((metrics, layer_problems)) => {
                problems += layer_problems;
                metrics
            }
            Err(e) => {
                eprintln!("error: traced replay failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        e2e_metrics
    };
    let correct = problems == 0;
    println!(
        "{}",
        metrics.result_line(correct, run.tally.attempted, run.tally.failed)
    );
    if !correct {
        eprintln!("error: {problems} answer check(s) failed");
        std::process::exit(1);
    }
}
