//! The end-to-end run: the real `ontodq-server` binary driven over loopback
//! TCP by one closed-loop client (one connection, one thread), every answer
//! checked outside the timed region.

use crate::client::{Connection, Response, Server};
use crate::literal::fact_line;
use crate::model::{Model, Query};
use crate::plan::{facts_of, Plan, Round, CHECKPOINT_BATCHES, TAIL_BATCHES};
use ontodq_chase::ChaseConfig;
use ontodq_core::{assess_with, AssessmentOptions};
use ontodq_workload::CorrectionOp;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Rounds run before timing starts.
const WARMUP_ROUNDS: usize = 4;

/// What the timed phase measured.
#[derive(Debug, Default)]
pub struct Samples {
    pub insert_ms: Vec<f64>,
    pub retract_ms: Vec<f64>,
    /// Uncached point/narrow `?q-`.
    pub qquery_us: Vec<f64>,
    /// Uncached point/narrow `?d-`.
    pub dquery_us: Vec<f64>,
    pub report_ms: Vec<f64>,
    pub report_rows: u64,
    pub report_secs: f64,
    /// Requests answered, and the time spent waiting for them.
    pub requests: u64,
    pub busy_secs: f64,
}

impl Samples {
    fn every_class_sampled(&self) -> bool {
        [
            &self.insert_ms,
            &self.retract_ms,
            &self.qquery_us,
            &self.dquery_us,
            &self.report_ms,
        ]
        .iter()
        .all(|s| !s.is_empty())
    }
}

/// Operations attempted and failed, and answer checks that did not hold.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    fn problem(&mut self, message: String) {
        if self.problems.len() < 10 {
            eprintln!("check failed: {message}");
        }
        self.problems.push(message);
    }

    fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problem(message());
        }
    }
}

/// The outcome of one end-to-end run.
pub struct E2e {
    pub samples: Samples,
    pub tally: Tally,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// Rounds after the prefix, warm-up included.
    pub rounds: usize,
}

/// The client: one session, the model of what it should see, and the
/// version it expects next.
struct Client<'a> {
    plan: &'a Plan,
    connection: Connection,
    model: Model,
    version: u64,
    samples: Samples,
    tally: Tally,
}

pub fn run(plan: &Plan, server_binary: &Path, work_dir: &Path, seconds: f64) -> io::Result<E2e> {
    let workload = plan.workload;
    let began = Instant::now();
    let data_dir = work_dir.join("data");
    if workload.durable() {
        prepare_data_dir(plan, server_binary, &data_dir)?;
    }
    // Set up several times; keep the last server.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut running = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((server, connection)) = running.take() {
            drop::<Connection>(connection);
            Server::stop(server);
        }
        let start = Instant::now();
        let server = Server::start(
            server_binary,
            workload.scale(),
            workload.durable().then_some(data_dir.as_path()),
        )?;
        let connection = server.connect()?;
        setups.push(start.elapsed().as_secs_f64());
        running = Some((server, connection));
    }
    let (server, connection) = running.expect("at least one set-up");

    let prefix = workload.prefix();
    let mut model = Model::new(&plan.stream.base);
    for op in plan.prefix_ops() {
        apply_to_model(&mut model, op);
    }
    let mut client = Client {
        plan,
        connection,
        model,
        version: prefix as u64,
        samples: Samples::default(),
        tally: Tally::default(),
    };
    // After registration or restart: the served quality version is the
    // model's and, after a restart, a from-scratch assessment's.
    client.check_quality_version(if workload.durable() {
        Some(prefix)
    } else {
        None
    })?;

    let untimed_before = began.elapsed().as_secs_f64();
    let mut rounds = 0;
    while rounds < WARMUP_ROUNDS {
        client.round(&plan.round(rounds), false)?;
        rounds += 1;
    }
    let start = Instant::now();
    while rounds < plan.rounds() && start.elapsed().as_secs_f64() < seconds {
        client.round(&plan.round(rounds), true)?;
        rounds += 1;
    }
    if !client.samples.every_class_sampled() {
        return Err(io::Error::other(format!(
            "{seconds} s were too short to time every request class"
        )));
    }
    let peak_rss_mb = server.peak_rss_mb()?;
    let timed = start.elapsed().as_secs_f64();
    let applied = client.version as usize;
    let checked = Instant::now();
    client.check_quality_version(Some(applied))?;
    eprintln!(
        "{}: {untimed_before:.1} s set-up and checks, {timed:.1} s timed, {:.1} s final checks",
        workload.name(),
        checked.elapsed().as_secs_f64()
    );
    let Client {
        connection,
        samples,
        tally,
        ..
    } = client;
    connection.quit()?;
    server.stop();
    if workload.durable() {
        let _ = std::fs::remove_dir_all(&data_dir);
    }
    Ok(E2e {
        samples,
        tally,
        setup_s: crate::stats::median(&setups),
        peak_rss_mb,
        rounds,
    })
}

/// Build the `corrections` data dir untimed: a cold start, the first
/// batches of the stream, a `!save` checkpoint, then a WAL tail.
fn prepare_data_dir(plan: &Plan, server_binary: &Path, data_dir: &Path) -> io::Result<()> {
    if data_dir.exists() {
        std::fs::remove_dir_all(data_dir)?;
    }
    let server = Server::start(server_binary, plan.workload.scale(), Some(data_dir))?;
    let mut connection = server.connect()?;
    for (i, op) in plan.prefix_ops().iter().enumerate() {
        if i == CHECKPOINT_BATCHES {
            let (response, _) = connection.request("!save\n")?;
            if !response.status.starts_with("ok saved") {
                return Err(io::Error::other(format!("!save: {}", response.status)));
            }
        }
        for line in batch_lines(op) {
            let (response, _) = connection.request(&line)?;
            if response.is_err() {
                return Err(io::Error::other(format!(
                    "preparing the data dir: {}",
                    response.status
                )));
            }
        }
    }
    debug_assert_eq!(plan.prefix_ops().len(), CHECKPOINT_BATCHES + TAIL_BATCHES);
    connection.quit()?;
    server.stop();
    Ok(())
}

/// The protocol lines of a write batch: one `+`/`-` line per fact, then
/// `!flush`.
pub fn batch_lines(op: &CorrectionOp) -> Vec<String> {
    let sign = match op {
        CorrectionOp::Insert(_) => '+',
        CorrectionOp::Retract(_) => '-',
    };
    let mut lines: Vec<String> = facts_of(op)
        .iter()
        .map(|(predicate, tuple)| fact_line(sign, predicate, tuple))
        .collect();
    lines.push("!flush\n".to_string());
    lines
}

fn apply_to_model(model: &mut Model, op: &CorrectionOp) {
    match op {
        CorrectionOp::Insert(facts) => {
            for (_, tuple) in facts {
                assert!(
                    model.insert(tuple.clone()),
                    "the stream inserts fresh facts"
                );
            }
        }
        CorrectionOp::Retract(facts) => {
            for (_, tuple) in facts {
                assert!(model.remove(tuple), "the stream retracts live facts");
            }
        }
    }
}

fn sorted(mut lines: Vec<String>) -> Vec<String> {
    lines.sort_unstable();
    lines
}

impl Client<'_> {
    /// One round; `record` puts its timings into the samples.
    fn round(&mut self, round: &Round<'_>, record: bool) -> io::Result<()> {
        if let Some(op) = round.write {
            self.write(op, record)?;
        }
        if let Some(text) = &round.pace {
            let line = format!("?q- {text}.\n");
            if let Some((response, secs)) = self.query(&line, false)? {
                self.tally.check(
                    sorted(response.data) == self.model.expected(&Query::of_text(text)),
                    || {
                        format!(
                            "pacing ?q- {text} at version {}: answers differ from the model",
                            self.version
                        )
                    },
                );
                if record {
                    self.samples.requests += 1;
                    self.samples.busy_secs += secs;
                }
            }
        }
        for text in &round.texts {
            let query = Query::of_text(text);
            let expected = self.model.expected(&query);
            for (verb, cached) in [("?q-", false), ("?q-", true), ("?d-", false), ("?d-", true)] {
                let line = format!("{verb} {text}.\n");
                let Some((response, secs)) = self.query(&line, cached)? else {
                    continue;
                };
                self.tally.check(sorted(response.data) == expected, || {
                    format!(
                        "{verb} {text} at version {}: answers differ from the model",
                        self.version
                    )
                });
                if record {
                    self.samples.requests += 1;
                    self.samples.busy_secs += secs;
                    if !cached {
                        let samples = if verb == "?q-" {
                            &mut self.samples.qquery_us
                        } else {
                            &mut self.samples.dquery_us
                        };
                        samples.push(secs * 1e6);
                    }
                }
            }
        }
        if let Some(report) = round.report {
            let line = format!("{report}\n");
            if let Some((response, secs)) = self.query(&line, false)? {
                let rows = response.data.len();
                let query = Query::of_report(report);
                if query == Query::PlainAll {
                    self.tally.check(rows == self.model.live_count(), || {
                        format!(
                            "{report} returned {rows} rows, the client holds {} live facts",
                            self.model.live_count()
                        )
                    });
                }
                let expected = self.model.expected(&query);
                self.tally.check(sorted(response.data) == expected, || {
                    format!(
                        "{report} at version {}: answers differ from the model",
                        self.version
                    )
                });
                if record {
                    self.samples.requests += 1;
                    self.samples.busy_secs += secs;
                    self.samples.report_ms.push(secs * 1e3);
                    self.samples.report_rows += rows as u64;
                    self.samples.report_secs += secs;
                }
            }
        }
        Ok(())
    }

    /// Send one write batch (lock-step or pipelined) and check its
    /// acknowledgements.
    fn write(&mut self, op: &CorrectionOp, record: bool) -> io::Result<()> {
        let lines = batch_lines(op);
        let start = Instant::now();
        let responses: Vec<Response> = if self.plan.workload.pipelined() {
            self.connection.send(lines.concat().as_bytes())?;
            (0..lines.len())
                .map(|_| self.connection.read_response())
                .collect::<io::Result<_>>()?
        } else {
            lines
                .iter()
                .map(|line| {
                    self.connection.send(line.as_bytes())?;
                    self.connection.read_response()
                })
                .collect::<io::Result<_>>()?
        };
        let secs = start.elapsed().as_secs_f64();
        self.tally.attempted += lines.len() as u64;
        let mut failed = 0;
        for (i, response) in responses[..lines.len() - 1].iter().enumerate() {
            if response.status != format!("ok staged={}", i + 1) {
                failed += 1;
                self.tally
                    .problem(format!("staging {}: {}", lines[i].trim(), response.status));
            }
        }
        let flush = &responses[lines.len() - 1];
        self.version += 1;
        let size = facts_of(op).len() as u64;
        let (applied, count_key) = match op {
            CorrectionOp::Insert(_) => ("ok applied", "new"),
            CorrectionOp::Retract(_) => ("ok retracted", "removed"),
        };
        if !flush.status.starts_with(applied) {
            failed += 1;
            self.tally.problem(format!("!flush: {}", flush.status));
        } else {
            self.tally
                .check(flush.number("version") == Some(self.version), || {
                    format!(
                        "batch moved the version to {:?}, expected {}",
                        flush.field("version"),
                        self.version
                    )
                });
            self.tally.check(flush.number(count_key) == Some(size), || {
                format!("batch of {size} reported {}", flush.status)
            });
        }
        self.tally.failed += failed;
        apply_to_model(&mut self.model, op);
        if record && failed == 0 {
            self.samples.requests += lines.len() as u64;
            self.samples.busy_secs += secs;
            match op {
                CorrectionOp::Insert(_) => self.samples.insert_ms.push(secs * 1e3),
                CorrectionOp::Retract(_) => self.samples.retract_ms.push(secs * 1e3),
            }
        }
        Ok(())
    }

    /// Send one query; `None` when it failed (an `err:` line or a short
    /// answer), which is counted.  Checks version and cache flag.
    fn query(&mut self, line: &str, cached: bool) -> io::Result<Option<(Response, f64)>> {
        self.tally.attempted += 1;
        let (response, secs) = self.connection.request(line)?;
        if response.is_err() || response.number("answers") != Some(response.data.len() as u64) {
            self.tally.failed += 1;
            self.tally.problem(format!(
                "{}: {} ({} rows)",
                line.trim(),
                response.status,
                response.data.len()
            ));
            return Ok(None);
        }
        self.tally
            .check(response.number("version") == Some(self.version), || {
                format!(
                    "{} answered at {:?}, expected version {}",
                    line.trim(),
                    response.field("version"),
                    self.version
                )
            });
        let flag = if cached { "true" } else { "false" };
        self.tally
            .check(response.field("cached") == Some(flag), || {
                format!(
                    "{} expected cached={flag}: {}",
                    line.trim(),
                    response.status
                )
            });
        Ok(Some((response, secs)))
    }

    /// Untimed: the served plain instance holds exactly the client's live
    /// facts, and the served quality version equals the model's and, when
    /// `batches` is given, a from-scratch naive-strategy assessment of the
    /// instance that survives the first `batches` writes.
    fn check_quality_version(&mut self, batches: Option<usize>) -> io::Result<()> {
        let line = "?- Measurements(t, p, v).\n";
        self.tally.attempted += 1;
        let (response, _) = self.connection.request(line)?;
        if response.is_err() {
            self.tally.failed += 1;
            self.tally
                .problem(format!("{}: {}", line.trim(), response.status));
        } else {
            let rows = response.data.len();
            self.tally.check(rows == self.model.live_count(), || {
                format!(
                    "{} returned {rows} rows, the client holds {} live facts",
                    line.trim(),
                    self.model.live_count()
                )
            });
            self.tally.check(
                sorted(response.data) == self.model.expected(&Query::PlainAll),
                || {
                    format!(
                        "{} at version {}: answers differ from the model",
                        line.trim(),
                        self.version
                    )
                },
            );
        }
        let line = "?q- Measurements(t, p, v).\n";
        self.tally.attempted += 1;
        let (response, _) = self.connection.request(line)?;
        if response.is_err() {
            self.tally.failed += 1;
            self.tally
                .problem(format!("{}: {}", line.trim(), response.status));
            return Ok(());
        }
        let served = sorted(response.data);
        let model = self.model.expected(&Query::QualityAll);
        self.tally.check(served == model, || {
            format!(
                "quality version at version {} differs from the model",
                self.version
            )
        });
        if let Some(batches) = batches {
            let instance = self.plan.surviving_after(batches);
            self.tally.check(
                instance.relation("Measurements").map(|r| r.len()).ok()
                    == Some(self.model.live_count()),
                || "the model and surviving_instance() disagree on the live facts".to_string(),
            );
            let options = AssessmentOptions {
                chase: ChaseConfig::naive(),
            };
            let reference = assess_with(&self.plan.stream.base.context(), &instance, &options);
            let expected = sorted(
                reference
                    .quality_tuples("Measurements")
                    .iter()
                    .map(|t| t.to_string())
                    .collect(),
            );
            self.tally.check(served == expected, || {
                format!("quality version after {batches} batches differs from a from-scratch naive assessment")
            });
        }
        Ok(())
    }
}
