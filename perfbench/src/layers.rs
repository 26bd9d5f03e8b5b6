//! The traced run: the same inputs replayed in-process, timing calls into
//! each layer's public functions from outside.  No span is added inside
//! the program; every number here is an `Instant` around a public call, a
//! counter the program already keeps, or a difference of two such numbers.
//!
//! Runs after the end-to-end run has stopped its server, so nothing runs
//! concurrently with it.

use crate::e2e::batch_lines;
use crate::plan::{facts_of, Plan, Round, CHECKPOINT_BATCHES, TAIL_BATCHES};
use crate::stats::{median, Metrics};
use ontodq_chase::{evaluate_with, ChaseConfig, ChaseEngine, ChaseState};
use ontodq_core::{compile_context, lint_context, rewrite_to_quality, ResumableAssessment};
use ontodq_datalog::analysis::magic_transform;
use ontodq_relational::{counters, Database, Tuple};
use ontodq_server::protocol::{parse_facts, parse_request, parse_retractions, Request};
use ontodq_server::{parse_query_text, QualityService};
use ontodq_store::{BatchKind, Store, StoreConfig};
use ontodq_workload::CorrectionOp;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Write batches replayed after the prefix, with the rounds they belong to
/// (fewer when the end-to-end run was shorter).
const LAYER_WRITES: usize = 40;
/// Repeats of the registration and recovery measurements.
const REPEATS: usize = 3;
const CONTEXT: &str = "scaled";
const MIB: f64 = 1024.0 * 1024.0;

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples of every per-layer timing and count.
#[derive(Default)]
struct Layers {
    parse_fact_us: Vec<f64>,
    parse_retract_us: Vec<f64>,
    parse_query_us: Vec<f64>,
    render_us_per_row: Vec<f64>,
    report_eval_ms: Vec<f64>,
    report_render_ms: Vec<f64>,
    service_insert_ms: Vec<f64>,
    service_retract_ms: Vec<f64>,
    quality_query_us: Vec<f64>,
    demand_query_us: Vec<f64>,
    insert_batch_ms: Vec<f64>,
    retract_batch_ms: Vec<f64>,
    extract_ms: Vec<f64>,
    chase_loop_ms: Vec<f64>,
    profile_loop_ms: Vec<f64>,
    nc_check_ms: Vec<f64>,
    copy_ms: Vec<f64>,
    dred_cascade_ms: Vec<f64>,
    dred_delete_ms: Vec<f64>,
    dred_rederive_ms: Vec<f64>,
    tuples_added: Vec<f64>,
    triggers_fired: Vec<f64>,
    magic_transform_us: Vec<f64>,
    restrict_us: Vec<f64>,
    demand_run_ms: Vec<f64>,
    demand_tuples: Vec<f64>,
    eval_us: Vec<f64>,
    batch_probes: Vec<f64>,
    batch_materializations: Vec<f64>,
    wal_append_ms: Vec<f64>,
    wal_input_bytes: u64,
    problems: usize,
}

impl Layers {
    fn problem(&mut self, message: String) {
        eprintln!("check failed (traced replay): {message}");
        self.problems += 1;
    }
}

/// The per-layer metrics of `plan`, given the end-to-end metrics of the run
/// that just finished and how many rounds it ran.  Returns the metrics and
/// the number of checks that failed during the replay.
pub fn run(
    plan: &Plan,
    e2e: &Metrics,
    e2e_rounds: usize,
    work_dir: &Path,
) -> io::Result<(Metrics, usize)> {
    let mut layers = Layers::default();
    let mut out = Metrics::default();
    registration(plan, &mut out);
    let rounds = e2e_rounds.min(LAYER_WRITES * plan.workload.write_every());
    replay(plan, rounds, work_dir, &mut layers, &mut out)?;
    recovery(plan, work_dir, &mut out)?;

    let l = &layers;
    let e2e_value = |name: &str| e2e.get(name).expect("every end-to-end metric is computed");
    out.add(
        "server.protocol.parse_fact_us",
        median(&l.parse_fact_us),
        "us",
    );
    out.add(
        "server.protocol.parse_retract_us",
        median(&l.parse_retract_us),
        "us",
    );
    out.add(
        "server.protocol.parse_query_us",
        median(&l.parse_query_us),
        "us",
    );
    out.add(
        "server.protocol.render_us_per_row",
        median(&l.render_us_per_row),
        "us",
    );
    out.add(
        "server.transport.query_us",
        e2e_value("qquery_p50_us") - median(&l.quality_query_us),
        "us",
    );
    out.add(
        "server.transport.report_ms",
        e2e_value("report_p50_ms") - median(&l.report_eval_ms) - median(&l.report_render_ms),
        "ms",
    );
    out.add(
        "server.transport.batch_ms",
        e2e_value("insert_p50_ms") - median(&l.service_insert_ms),
        "ms",
    );
    out.add(
        "server.service.insert_ms",
        median(&l.service_insert_ms),
        "ms",
    );
    out.add(
        "server.service.retract_ms",
        median(&l.service_retract_ms),
        "ms",
    );
    out.add(
        "server.service.publish_ms",
        median(&l.service_insert_ms) - median(&l.insert_batch_ms),
        "ms",
    );
    out.add(
        "server.service.quality_query_us",
        median(&l.quality_query_us),
        "us",
    );
    out.add(
        "server.service.demand_query_us",
        median(&l.demand_query_us),
        "us",
    );
    out.add("core.insert_batch_ms", median(&l.insert_batch_ms), "ms");
    out.add("core.retract_batch_ms", median(&l.retract_batch_ms), "ms");
    out.add("core.extract_ms", median(&l.extract_ms), "ms");
    out.add("chase.loop_ms", median(&l.chase_loop_ms), "ms");
    out.add("chase.nc_check_ms", median(&l.nc_check_ms), "ms");
    out.add("chase.dred_cascade_ms", median(&l.dred_cascade_ms), "ms");
    out.add("chase.dred_delete_ms", median(&l.dred_delete_ms), "ms");
    out.add("chase.dred_rederive_ms", median(&l.dred_rederive_ms), "ms");
    out.add("chase.tuples_added", mean(&l.tuples_added), "count");
    out.add("chase.triggers_fired", mean(&l.triggers_fired), "count");
    out.add(
        "datalog.magic_transform_us",
        median(&l.magic_transform_us),
        "us",
    );
    out.add("relational.restrict_us", median(&l.restrict_us), "us");
    out.add("chase.demand_run_ms", median(&l.demand_run_ms), "ms");
    out.add("chase.demand_tuples", mean(&l.demand_tuples), "count");
    out.add("qa.eval_us", median(&l.eval_us), "us");
    out.add("relational.copy_ms", median(&l.copy_ms), "ms");
    out.add("relational.probes", mean(&l.batch_probes), "count");
    out.add(
        "relational.materializations",
        mean(&l.batch_materializations),
        "count",
    );
    out.add("store.wal_append_ms", median(&l.wal_append_ms), "ms");
    // The cross-check of `chase.loop_ms`: the chase's own profile of the
    // same batches.  Reported on stderr only; the two should agree.
    eprintln!(
        "chase.loop_ms {:.3} (subtraction) vs {:.3} (ChaseProfile::total_micros)",
        median(&l.chase_loop_ms),
        median(&l.profile_loop_ms)
    );
    Ok((out, layers.problems))
}

/// Registration: compile, lint, and the full chase, each timed alone.
fn registration(plan: &Plan, out: &mut Metrics) {
    let context = plan.stream.base.context();
    let instance = &plan.stream.base.instance;
    let (mut mdm, mut compile, mut lint, mut chase, mut rate) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let start = Instant::now();
        black_box(ontodq_mdm::compile(&context.ontology));
        mdm.push(ms(start));

        let start = Instant::now();
        let (program, database) = compile_context(&context, instance);
        compile.push(ms(start));

        let start = Instant::now();
        black_box(lint_context(&context, instance));
        lint.push(ms(start));

        let start = Instant::now();
        let mut state = ChaseState::new(&program, &database);
        let result = ChaseEngine::with_defaults().resume(&program, &mut state);
        let secs = start.elapsed().as_secs_f64();
        chase.push(secs * 1e3);
        rate.push(result.stats.tuples_added as f64 / secs);
    }
    out.add("mdm.compile_ms", median(&mdm), "ms");
    out.add("core.compile_context_ms", median(&compile), "ms");
    out.add("core.lint_context_ms", median(&lint), "ms");
    out.add("chase.initial_ms", median(&chase), "ms");
    out.add("chase.initial_tuples_per_s", median(&rate), "1/s");
}

/// The service (with a store attached, as the durable server runs it), a
/// replica writer for the core/chase/relational split, and a store the
/// benchmark owns for the WAL timings, all fed the plan's batches.
fn replay(
    plan: &Plan,
    rounds: usize,
    work_dir: &Path,
    layers: &mut Layers,
    out: &mut Metrics,
) -> io::Result<()> {
    let context = plan.stream.base.context();
    let instance = plan.stream.base.instance.clone();
    let service_dir = fresh_dir(&work_dir.join("layers-service"))?;
    let own_dir = fresh_dir(&work_dir.join("layers-wal"))?;
    let store = Store::open(&service_dir, StoreConfig::default()).map_err(io::Error::other)?;
    let service = QualityService::with_store(Arc::new(Mutex::new(store)));
    service
        .register_context(CONTEXT, context.clone(), instance.clone())
        .map_err(io::Error::other)?;
    let mut replica = ResumableAssessment::new(context.clone(), instance);
    let mut own = Store::open(&own_dir, StoreConfig::default()).map_err(io::Error::other)?;

    let mut version = 0u64;
    for op in plan.prefix_ops() {
        version += 1;
        write(&service, &mut replica, &mut own, version, op, None);
    }
    for r in 0..rounds {
        let round: Round<'_> = plan.round(r);
        if let Some(op) = round.write {
            version += 1;
            write(&service, &mut replica, &mut own, version, op, Some(layers));
        }
        if let Some(text) = &round.pace {
            if service.quality_answers(CONTEXT, text).is_err() {
                layers.problem(format!("pacing {text}: service query failed"));
            }
        }
        for text in &round.texts {
            read(&service, &context, text, layers);
        }
        if let Some(report) = round.report {
            report_layers(&service, report, layers);
        }
    }

    let wal_bytes = own.wal_stats().bytes as f64;
    out.add(
        "store.wal_bytes_per_input_byte",
        wal_bytes / layers.wal_input_bytes as f64,
        "ratio",
    );
    let cache = service.cache_stats();
    out.add(
        "server.cache.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses) as f64,
        "ratio",
    );
    out.add("server.cache.hits", cache.hits as f64, "count");
    out.add("server.cache.misses", cache.misses as f64, "count");

    // Every copy of the context's data one registered context holds: the
    // writer's chased instance, base and instance under assessment (the
    // replica holds the same state as the service's writer), and the
    // snapshot's database, base and quality version.
    let snapshot = service.snapshot(CONTEXT).map_err(io::Error::other)?;
    let copies: [&Database; 6] = [
        replica.contextual(),
        replica.base_database(),
        replica.instance(),
        &snapshot.database,
        &snapshot.base,
        &snapshot.quality,
    ];
    let arena: usize = copies.iter().map(|db| db.arena_bytes()).sum();
    let reclaimable: usize = copies.iter().map(|db| db.reclaimable_bytes()).sum();
    out.add("relational.context_mb", arena as f64 / MIB, "MiB");
    out.add("relational.reclaimable_mb", reclaimable as f64 / MIB, "MiB");
    drop((service, replica, own, snapshot));
    let _ = std::fs::remove_dir_all(&service_dir);
    let _ = std::fs::remove_dir_all(&own_dir);
    Ok(())
}

/// One write batch through the protocol parser, the service, the replica
/// and the benchmark's own WAL.  `layers` is `None` for untimed prefix
/// batches.
fn write(
    service: &QualityService,
    replica: &mut ResumableAssessment,
    own: &mut Store,
    version: u64,
    op: &CorrectionOp,
    mut layers: Option<&mut Layers>,
) {
    let lines = batch_lines(op);
    let fact_lines = &lines[..lines.len() - 1];
    let mut facts = Vec::new();
    let mut retractions = ontodq_datalog::Program::new();
    for line in fact_lines {
        let start = Instant::now();
        match parse_request(line) {
            Ok(Request::InsertFact(text)) => {
                facts.extend(parse_facts(&text).expect("generated facts parse"));
                if let Some(l) = layers.as_deref_mut() {
                    l.parse_fact_us.push(us(start));
                }
            }
            Ok(Request::RetractFact(text)) => {
                retractions.extend(parse_retractions(&text).expect("generated retractions parse"));
                if let Some(l) = layers.as_deref_mut() {
                    l.parse_retract_us.push(us(start));
                }
            }
            other => panic!("{line:?} parsed as {other:?}"),
        }
    }
    let batch: Vec<(String, Tuple)> = facts_of(op).to_vec();
    let size = batch.len();

    // The service: the write path behind `!flush`, WAL append included.
    let start = Instant::now();
    let (service_ms, applied) = match op {
        CorrectionOp::Insert(_) => {
            let report = service.insert_facts(CONTEXT, facts);
            (ms(start), report.map(|r| (r.version, r.new_facts)))
        }
        CorrectionOp::Retract(_) => {
            let report = service.retract_facts(CONTEXT, &retractions);
            (ms(start), report.map(|r| (r.version, r.retracted)))
        }
    };

    // The replica: the same batch through the core writer alone, then the
    // pieces of the service's work the core call does not show.
    let before = counters::snapshot();
    let start = Instant::now();
    let (core_ms, chase, dred) = match op {
        CorrectionOp::Insert(_) => {
            let outcome = replica
                .insert_batch(batch.clone())
                .expect("generated batches apply");
            (ms(start), outcome.chase, None)
        }
        CorrectionOp::Retract(_) => {
            let result = replica.retract_batch(batch.clone());
            let dred = result.chase.profile.dred;
            (ms(start), result.chase, Some(dred))
        }
    };
    let start = Instant::now();
    black_box(chase.database.clone());
    let copy_ms = ms(start);

    let join = ChaseConfig::default().join;
    let start = Instant::now();
    for nc in &replica.program().constraints {
        black_box(evaluate_with(replica.contextual(), &nc.body, join));
    }
    let nc_ms = ms(start);

    let start = Instant::now();
    black_box(replica.extract());
    let extract_ms = ms(start);
    // Join-engine work of the core call and the extraction after it.
    let work = counters::snapshot().since(&before);

    let start = Instant::now();
    let appended = match op {
        CorrectionOp::Insert(_) => own.append_batch(CONTEXT, version, &batch),
        CorrectionOp::Retract(_) => own.append_retraction(CONTEXT, version, &batch),
    };
    let append_ms = ms(start);
    appended.expect("appending to the benchmark's own WAL");

    let Some(l) = layers else {
        return;
    };
    match applied {
        Ok((v, count)) if v == version && count == size => {}
        Ok((v, count)) => l.problem(format!(
            "service batch {version}: version {v}, {count} of {size} facts applied"
        )),
        Err(e) => l.problem(format!("service batch {version}: {e}")),
    }
    match op {
        CorrectionOp::Insert(_) => {
            l.service_insert_ms.push(service_ms);
            l.insert_batch_ms.push(core_ms);
            // The chase loop: what the core call spends outside the
            // constraint re-check and the copy it hands back.
            l.chase_loop_ms.push(core_ms - nc_ms - copy_ms);
            l.profile_loop_ms
                .push(chase.profile.total_micros as f64 / 1e3);
        }
        CorrectionOp::Retract(_) => {
            l.service_retract_ms.push(service_ms);
            l.retract_batch_ms.push(core_ms);
        }
    }
    if let Some(dred) = dred {
        l.dred_cascade_ms.push(dred.cascade_micros as f64 / 1e3);
        l.dred_delete_ms.push(dred.delete_micros as f64 / 1e3);
        l.dred_rederive_ms.push(dred.rederive_micros as f64 / 1e3);
    }
    l.tuples_added.push(chase.stats.tuples_added as f64);
    l.triggers_fired.push(chase.stats.triggers_fired as f64);
    l.copy_ms.push(copy_ms);
    l.nc_check_ms.push(nc_ms);
    l.extract_ms.push(extract_ms);
    l.batch_probes.push(work.probes as f64);
    l.batch_materializations.push(work.materializations as f64);
    l.wal_append_ms.push(append_ms);
    l.wal_input_bytes += fact_lines.iter().map(|line| line.len() as u64).sum::<u64>();
}

/// One point/narrow text as the round asks it: `?q-` twice and `?d-` twice
/// through the service, then the demand path taken apart.
fn read(service: &QualityService, context: &ontodq_core::Context, text: &str, l: &mut Layers) {
    let line = format!("?q- {text}.\n");
    let start = Instant::now();
    let parsed = match parse_request(&line) {
        Ok(Request::QualityQuery(body)) => parse_query_text(&body).expect("generated texts parse"),
        other => panic!("{line:?} parsed as {other:?}"),
    };
    l.parse_query_us.push(us(start));

    let start = Instant::now();
    let quality = service.quality_answers(CONTEXT, text);
    let quality_us = us(start);
    let cached = service.quality_answers(CONTEXT, text);
    let start = Instant::now();
    let demand = service.demand_answers(CONTEXT, text);
    let demand_us = us(start);
    let demand_cached = service.demand_answers(CONTEXT, text);
    match (quality, cached, demand, demand_cached) {
        (Ok(q), Ok(qc), Ok(d), Ok(dc)) => {
            if q.cached || !qc.cached || d.cached || !dc.cached {
                l.problem(format!("{text}: unexpected cache flags"));
            }
            if q.answers != d.answers || q.answers != qc.answers || d.answers != dc.answers {
                l.problem(format!("{text}: ?d- answers differ from ?q-"));
            }
        }
        _ => l.problem(format!("{text}: a service query failed")),
    }
    l.quality_query_us.push(quality_us);
    l.demand_query_us.push(demand_us);

    // The demand path by layer, on the snapshot the service just used.
    let snapshot = service.snapshot(CONTEXT).expect("registered");
    let rewritten = rewrite_to_quality(context, &parsed);
    let start = Instant::now();
    black_box(snapshot.answers(&rewritten));
    l.eval_us.push(us(start));

    let start = Instant::now();
    let demand = magic_transform(&snapshot.program, &rewritten.body);
    l.magic_transform_us.push(us(start));
    let names: Vec<&str> = demand.relevant.iter().map(String::as_str).collect();
    let start = Instant::now();
    black_box(snapshot.base.restrict_to(&names));
    l.restrict_us.push(us(start));
    let start = Instant::now();
    let chased = ChaseEngine::with_defaults().chase_demand(&snapshot.base, &demand);
    l.demand_run_ms.push(ms(start));
    l.demand_tuples.push(chased.stats.tuples_added as f64);
}

/// One broad report: evaluation through the service, then rendering of
/// every answer row with `Tuple`'s `Display`, as the session writes them.
fn report_layers(service: &QualityService, report: &str, l: &mut Layers) {
    let start = Instant::now();
    let response = match report.split_once(' ') {
        Some(("?q-", body)) => service.quality_answers(CONTEXT, body),
        Some(("?-", body)) => service.plain_answers(CONTEXT, body),
        _ => panic!("unexpected report {report:?}"),
    };
    let eval_ms = ms(start);
    let Ok(response) = response else {
        l.problem(format!("{report}: service query failed"));
        return;
    };
    let mut buffer = String::new();
    let start = Instant::now();
    for tuple in response.answers.iter() {
        let _ = writeln!(buffer, "{tuple}");
    }
    let render_ms = ms(start);
    black_box(&buffer);
    let rows = response.answers.len().max(1) as f64;
    l.report_eval_ms.push(eval_ms);
    l.report_render_ms.push(render_ms);
    l.render_us_per_row.push(render_ms * 1e3 / rows);
}

/// Recovery: a data dir with a checkpoint after the first batches and a
/// WAL tail after it, read back with `Store::recover`, restored with
/// `ResumableAssessment::restore`, and the tail re-applied.
fn recovery(plan: &Plan, work_dir: &Path, out: &mut Metrics) -> io::Result<()> {
    let context = plan.stream.base.context();
    let dir = fresh_dir(&work_dir.join("layers-recover"))?;
    {
        let store = Store::open(&dir, StoreConfig::default()).map_err(io::Error::other)?;
        let service = QualityService::with_store(Arc::new(Mutex::new(store)));
        service
            .register_context(CONTEXT, context.clone(), plan.stream.base.instance.clone())
            .map_err(io::Error::other)?;
        for (i, op) in plan.stream.ops[..CHECKPOINT_BATCHES + TAIL_BATCHES]
            .iter()
            .enumerate()
        {
            if i == CHECKPOINT_BATCHES {
                service.persist_all().map_err(io::Error::other)?;
            }
            let applied = match op {
                CorrectionOp::Insert(facts) => {
                    service.insert_facts(CONTEXT, facts.clone()).map(drop)
                }
                CorrectionOp::Retract(facts) => {
                    let mut program = ontodq_datalog::Program::new();
                    for (predicate, tuple) in facts {
                        let literal = crate::literal::fact_literal(predicate, tuple);
                        program.extend(
                            parse_retractions(&literal).expect("generated retractions parse"),
                        );
                    }
                    service.retract_facts(CONTEXT, &program).map(drop)
                }
            };
            applied.map_err(io::Error::other)?;
        }
        service.sync_store();
    }
    let (mut recover, mut restore, mut replay) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let start = Instant::now();
        let mut store = Store::open(&dir, StoreConfig::default()).map_err(io::Error::other)?;
        let mut recovered = store.recover().map_err(io::Error::other)?;
        recover.push(ms(start));
        let persisted = recovered
            .snapshots
            .remove(CONTEXT)
            .ok_or_else(|| io::Error::other("no snapshot recovered"))?;
        let tail = recovered.tails.remove(CONTEXT).unwrap_or_default();
        if tail.len() != TAIL_BATCHES {
            return Err(io::Error::other(format!(
                "recovered a tail of {} batches, expected {TAIL_BATCHES}",
                tail.len()
            )));
        }
        let start = Instant::now();
        let mut writer = ResumableAssessment::restore(
            context.clone(),
            persisted.instance,
            persisted.state,
            persisted.version,
        );
        restore.push(ms(start));
        let start = Instant::now();
        for batch in tail {
            match batch.kind {
                BatchKind::Insert => {
                    writer.insert_batch(batch.facts).map_err(io::Error::other)?;
                }
                BatchKind::Retract => {
                    writer.retract_batch(batch.facts);
                }
            }
        }
        replay.push(ms(start));
    }
    out.add("store.recover_ms", median(&recover), "ms");
    out.add("core.restore_ms", median(&restore), "ms");
    out.add("store.replay_ms", median(&replay), "ms");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn fresh_dir(dir: &Path) -> io::Result<std::path::PathBuf> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    Ok(dir.to_path_buf())
}
