//! `ingest`: one thread running a fixed script on a biased hierarchy.
//! Each phase shifts the traffic's focus, then repeats: `load` one seeded
//! 10k-row batch, answer a run of queries. Each phase ends with `adapt()`.
//!
//! Why: this is the write path beside reads — the copy-on-write hierarchy
//! clone, `observe_batch`, `refresh` and the full rebuild — which `explore`
//! and `serve` never call. ROADMAP item 2 (prefix-ordered impressions)
//! would move it.

use crate::oracle;
use crate::report::{mean, median, ms, record_latency, Phase, Report};
use crate::samples::{execute_traced, snapshot, EngineSamples};
use crate::setup::{self, Plan};
use crate::trace::{self, Tracer};
use crate::traffic::{Mix, Request, Traffic};
use crate::{probes, RunArgs};
use sciborq_columnar::{Predicate, RecordBatch, Value};
use sciborq_core::{ExplorationSession, QueryOutcome};
use sciborq_skyserver::PhotoObjGenerator;
use sciborq_workload::{FocalCluster, Query};
use std::time::{Duration, Instant};

/// The ingested table.
pub const TABLE: &str = "photoobj";

/// Where each phase's traffic looks, in turn: one sky cluster of the data
/// at a time. Impressions are first built for the last one, so every
/// phase's focus differs from the one the impressions follow.
pub const FOCI: [(f64, f64, f64); 3] = [(160.0, 25.0, 2.5), (230.0, 45.0, 1.5), (185.0, 0.0, 2.0)];

/// Phase `phase`'s focus.
pub fn focus(phase: usize) -> FocalCluster {
    let (ra, dec, spread) = FOCI[phase % FOCI.len()];
    FocalCluster::new(ra, dec, spread, 1.0)
}

/// Requests of the correctness gate run before the script.
pub const GATE_REQUESTS: usize = 32;

/// Queries answered after each load. The script's length follows
/// `--seconds` through this count, not through the clock, so every count
/// repeats exactly for a seed.
pub fn queries_per_load(args: &RunArgs) -> usize {
    ((args.scale.ingest_queries_per_load_per_s * args.seconds).round() as usize).max(1)
}

/// The set-up of a run.
pub fn plan(args: &RunArgs) -> Plan {
    Plan {
        seed: args.seed,
        rows: args.scale.ingest_rows,
        batch_rows: args.scale.generate_batch_rows,
        tables: vec![(TABLE, setup::biased())],
        layers: args.scale.ingest_layers.clone(),
        traces: false,
        training_queries: args.scale.training_queries,
        training_focus: Some(focus(FOCI.len() - 1)),
    }
}

fn mix(args: &RunArgs) -> Mix {
    Mix {
        aggregate_fraction: 0.75,
        budget_rows: args.scale.ingest_layers[0] as u64,
    }
}

/// One load and the queries answered after it.
#[derive(Debug, Clone)]
pub struct Step {
    /// The batch to load.
    pub batch: RecordBatch,
    /// Queries answered once it is loaded.
    pub requests: Vec<Request>,
}

/// The script: one phase per focus in [`FOCI`], each a run of steps.
/// Batches continue `generator`'s rows, so object ids keep counting up from
/// the base table's. Every script query carries the largest layer as its
/// row budget: it reads the impressions the loads maintain, never the base
/// table (`explore` covers base scans, whose speed also varies most with
/// other tenants of a shared host).
pub fn script(args: &RunArgs, generator: &mut PhotoObjGenerator) -> Vec<Vec<Step>> {
    let mix = mix(args);
    let mut traffic = Traffic::new(args.seed ^ 0x16_0003, mix);
    let mut phases = Vec::new();
    for phase in 0..FOCI.len() {
        traffic.shift_focus(vec![focus(phase)]);
        let mut steps = Vec::new();
        for _ in 0..args.scale.ingest_loads_per_phase {
            let batch = generator.next_batch(args.scale.ingest_batch_rows);
            let requests = (0..queries_per_load(args))
                .map(|_| {
                    let mut request = traffic.next(&[TABLE]);
                    request.bounds.max_rows_scanned = Some(mix.budget_rows);
                    request
                })
                .collect();
            steps.push(Step { batch, requests });
        }
        phases.push(steps);
    }
    phases
}

/// `query` restricted to the first `rows` rows of the table (object ids
/// start at 1 and count up through every load).
fn as_of(query: &Query, rows: u64) -> Query {
    let mut q = query.clone();
    q.predicate = Predicate::lt_eq("objid", Value::Int64(rows as i64)).and(q.predicate);
    q
}

/// Before timing: a separate stream of requests on the freshly built
/// session, every answer checked.
fn gate(args: &RunArgs, session: &ExplorationSession) -> Result<(), String> {
    let handle = session.catalog().table(TABLE).map_err(|e| e.to_string())?;
    let base = handle.read();
    let rows = base.row_count() as u64;
    let mut traffic = Traffic::new(args.seed ^ 0x16_0004, mix(args));
    let requests: Vec<Request> = (0..GATE_REQUESTS).map(|_| traffic.next(&[TABLE])).collect();
    let outcomes = oracle::answer_all(session, &requests)?;
    let answers: Vec<_> = requests
        .iter()
        .zip(&outcomes)
        .map(|(request, outcome)| (as_of(&request.query, rows), request.epsilon(), outcome))
        .collect();
    let (_, checked) = oracle::check_answers(&base, &answers, args.scale.scalar_checks);
    checked.into_iter().collect::<Result<(), _>>()?;
    let queries: Vec<_> = requests.iter().map(|r| &r.query).collect();
    oracle::check_kernel(&base, &queries)
}

/// What the timed script measured.
#[derive(Debug, Default)]
struct Script {
    phase: Phase,
    answered: Vec<(Request, QueryOutcome, u64)>,
    loaded_rows: u64,
    load_time: Duration,
    adapt_ms: Vec<f64>,
    adapt_time: Duration,
    adapts: u64,
    probe_time: Duration,
    clone_ms: Vec<f64>,
    observe_ms: Vec<f64>,
    refresh_ms: Vec<f64>,
}

fn run_script(
    session: &ExplorationSession,
    script: Vec<Vec<Step>>,
    tracer: &mut Tracer,
    samples: &mut EngineSamples,
) -> Result<Script, String> {
    let mut out = Script::default();
    let mut rows = session
        .catalog()
        .table(TABLE)
        .map_err(|e| e.to_string())?
        .read()
        .row_count() as u64;
    let mut step_id = 0u64;
    let started = Instant::now();
    for phase in script {
        // A new focus starts a new exploration: the predicate set forgets
        // the previous one. It accumulates otherwise, and a later focus
        // could never outweigh every earlier one, so adapt() would stop
        // rebuilding after the first shift.
        session.predicate_set().reset();
        for step in phase {
            if tracer.on() {
                let probe = Instant::now();
                let hierarchy = session.hierarchy(TABLE).ok_or("no hierarchy")?;
                let predicate_set = session.predicate_set();
                let (c, o, r) = probes::maintain_clone(&hierarchy, &predicate_set, &step.batch)?;
                out.clone_ms.push(c);
                out.observe_ms.push(o);
                out.refresh_ms.push(r);
                out.probe_time += probe.elapsed();
            }
            let root = tracer.id();
            let loading = Instant::now();
            session
                .load(TABLE, &step.batch)
                .map_err(|e| format!("load failed: {e}"))?;
            let loaded = Instant::now();
            out.load_time += loaded - loading;
            rows += step.batch.row_count() as u64;
            out.loaded_rows += step.batch.row_count() as u64;
            let child = tracer.id();
            tracer.record(
                child,
                "session.load",
                Some(root),
                step_id,
                Some(loading),
                Some(loaded),
            );
            tracer.record(root, "load", None, step_id, Some(loading), tracer.now());
            if tracer.on() {
                // One metrics snapshot per load: about the `serve`
                // workload's one per 100 requests.
                snapshot(session, tracer, samples, step_id);
            }
            step_id += 1;
            drop(step.batch);

            for request in step.requests {
                let (result, took) = execute_traced(session, &request, tracer, samples, step_id);
                out.phase.attempted += 1;
                match result {
                    Ok(outcome) => {
                        out.phase.latencies_ms.push(took.as_secs_f64() * 1e3);
                        out.answered.push((request, outcome, rows));
                    }
                    Err(_) => out.phase.failed += 1,
                }
                step_id += 1;
            }
        }
        let root = tracer.id();
        let rebuilds = session.rebuilds();
        let adapting = Instant::now();
        session.adapt().map_err(|e| format!("adapt failed: {e}"))?;
        let adapted = Instant::now();
        out.adapt_time += adapted - adapting;
        out.adapts += 1;
        if session.rebuilds() > rebuilds {
            out.adapt_ms.push(ms(adapted - adapting));
        }
        let child = tracer.id();
        tracer.record(
            child,
            "session.adapt",
            Some(root),
            step_id,
            Some(adapting),
            Some(adapted),
        );
        tracer.record(root, "adapt", None, step_id, Some(adapting), tracer.now());
        step_id += 1;
    }
    out.phase.wall = started.elapsed().saturating_sub(out.probe_time);
    Ok(out)
}

/// Replay `requests` untraced then traced on the final state and report
/// the tracing overhead on the query path.
fn replay_overhead(report: &mut Report, session: &ExplorationSession, requests: &[&Request]) {
    let epoch = Instant::now();
    let latency = |on: bool| {
        let mut tracer = Tracer::new(on, epoch, 0);
        let mut samples = EngineSamples::default();
        let mut out = Vec::with_capacity(requests.len());
        for (i, request) in requests.iter().enumerate() {
            let (_, took) = execute_traced(session, request, &mut tracer, &mut samples, i as u64);
            out.push(took.as_secs_f64() * 1e3);
        }
        mean(&out)
    };
    let (u, t) = (latency(false), latency(true));
    report.note(format!(
        "trace overhead: mean time to answer {u:.4} ms untraced vs {t:.4} ms traced ({:+.2}%) \
         over {} replayed script requests",
        100.0 * (t / u - 1.0),
        requests.len()
    ));
}

/// Run the workload.
pub fn run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let plan = plan(args);
    let built = setup::build_repeated(report, &plan, args.scale.setup_reps, |b| {
        Ok((b, Duration::ZERO))
    })?;
    let session = &built.session;
    gate(args, session)?;
    let mut generator = built.generator.clone();
    let script = script(args, &mut generator);
    report.meta("phases", script.len());
    report.meta("loads_per_phase", args.scale.ingest_loads_per_phase);
    report.meta("batch_rows", args.scale.ingest_batch_rows);
    report.meta("queries_per_load", queries_per_load(args));

    let epoch = Instant::now();
    let mut tracer = Tracer::new(args.trace, epoch, 0);
    let mut samples = EngineSamples::default();
    let mut out = run_script(session, script, &mut tracer, &mut samples)?;

    let handle = session.catalog().table(TABLE).map_err(|e| e.to_string())?;
    let base = handle.read();
    // Every answer is checked against the table as it was when the answer
    // was given; a failed check counts as a failed request.
    let answers: Vec<_> = out
        .answered
        .iter()
        .map(|(request, outcome, rows)| (as_of(&request.query, *rows), request.epsilon(), outcome))
        .collect();
    let (quality, checked) = oracle::check_answers(&base, &answers, args.scale.scalar_checks);
    out.phase.failed += checked.iter().filter(|c| c.is_err()).count() as u64;
    report.attempted = out.phase.attempted;
    report.failed = out.phase.failed;
    // Loads and queries share `qps`'s wall time; the adapt() rebuilds do not
    // (`adapt_ms` reports them, and `setup_s` gates the same build).
    let busy = out.phase.wall.saturating_sub(out.adapt_time);
    record_latency(report, &out.phase.latencies_ms, busy);
    quality.report_e2e(report);
    quality.report_layer(report);
    oracle::report_errors(report);
    report.e2e(
        "load_rows_per_s",
        out.loaded_rows as f64 / out.load_time.as_secs_f64().max(1e-9),
        "1/s",
        out.loaded_rows,
    );
    let rebuilt = out.adapt_ms.len() as u64;
    report.e2e("adapt_ms", median(&mut out.adapt_ms), "ms", rebuilt);
    report.note(format!(
        "adapt: {rebuilt} of {} adapt() calls rebuilt impressions",
        out.adapts
    ));
    if rebuilt == 0 {
        return Err(
            "no adapt() call rebuilt impressions: the script lost its focus shifts".to_owned(),
        );
    }

    if args.trace {
        let spans = tracer.into_spans();
        trace::reconcile(report, &spans, out.phase.wall, 1);
        trace::save(report, &spans);
        samples.report(report);
        probes::report_maintenance(report, &out.clone_ms, &out.observe_ms, &out.refresh_ms);
        let requests: Vec<&Request> = out.answered.iter().map(|(r, _, _)| r).collect();
        drop(base);
        replay_overhead(report, session, &requests[..requests.len().min(256)]);
        let base = handle.read();
        let hierarchy = session.hierarchy(TABLE).ok_or("no hierarchy")?;
        let queries: Vec<_> = requests
            .iter()
            .take(args.scale.replay_queries)
            .map(|r| &r.query)
            .collect();
        probes::columnar_and_stats(report, &[hierarchy.as_ref()], &base, &queries)?;
        let all: Vec<_> = requests.iter().map(|r| &r.query).collect();
        probes::log_query(report, &all)?;
        let pairs: Vec<_> = out.answered.iter().map(|(r, o, _)| (r, o)).collect();
        probes::protocol(report, &pairs);
        probes::hierarchy_size(report, &[hierarchy.as_ref()]);
        let predicate_set = session.predicate_set();
        probes::maintenance(report, &[(hierarchy.as_ref(), &base)], &predicate_set, &[])?;
    }
    Ok(())
}
