//! `explore`: one client calling `ExplorationSession::execute` on the
//! paper's traffic, half against a uniform and half against a biased
//! hierarchy over two copies of one generated `photoobj`.
//!
//! Why: most time goes to `columnar` scans and `core` escalation across
//! both estimator families. A base scan's columns exceed a per-core L2
//! while the small layers fit in it, and the base fall-through sets p99.
//! It bypasses `serve`.

use crate::oracle::{self, fingerprint, Quality};
use crate::report::{overhead, record_latency, Phase, Report};
use crate::samples::{execute_traced, snapshot, EngineSamples, SNAPSHOT_EVERY};
use crate::setup::{self, Plan};
use crate::trace::{self, Tracer};
use crate::traffic::{Mix, Request, Traffic};
use crate::{probes, RunArgs};
use sciborq_columnar::Table;
use sciborq_core::{ExplorationSession, QueryOutcome, SamplingPolicy};
use std::time::{Duration, Instant};

/// The uniform hierarchy's table.
pub const UNIFORM: &str = "photoobj_uniform";
/// The biased hierarchy's table (same rows as [`UNIFORM`]).
pub const BIASED: &str = "photoobj_biased";

/// The set-up of a run.
pub fn plan(args: &RunArgs) -> Plan {
    Plan {
        seed: args.seed,
        rows: args.scale.explore_rows,
        batch_rows: args.scale.generate_batch_rows,
        tables: vec![
            (UNIFORM, SamplingPolicy::Uniform),
            (BIASED, setup::biased()),
        ],
        layers: args.scale.explore_layers.clone(),
        traces: false,
        training_queries: args.scale.training_queries,
        training_focus: None,
    }
}

/// The request pool the client cycles through: COUNT/SUM/AVG and SELECT
/// LIMIT cone searches, ε from [`crate::traffic::EPSILONS`], a quarter with
/// a row budget of the largest layer (which excludes base data), half sent
/// to each table.
pub fn pool(args: &RunArgs) -> Vec<Request> {
    let mut traffic = Traffic::new(
        args.seed ^ 0xE0_0001,
        Mix {
            aggregate_fraction: 0.75,
            budget_rows: args.scale.explore_layers[0] as u64,
        },
    );
    (0..args.scale.explore_pool)
        .map(|_| traffic.next(&[UNIFORM, BIASED]))
        .collect()
}

/// Run every request once before timing, check every answer, and tally
/// quality and work counts. Every base-data answer must equal the exact
/// value (the fused kernels, and the scalar oracle on the first
/// `scalar_checks` of them); SELECT rows must satisfy their predicate;
/// every answer must be typed. Flagged answers are scored against the
/// exact value.
pub fn gate(
    session: &ExplorationSession,
    base: &Table,
    pool: &[Request],
    scalar_checks: usize,
) -> Result<(Vec<QueryOutcome>, Quality), String> {
    let outcomes = oracle::answer_all(session, pool)?;
    let answers: Vec<_> = pool
        .iter()
        .zip(&outcomes)
        .map(|(request, outcome)| (request.query.clone(), request.epsilon(), outcome))
        .collect();
    let (quality, checked) = oracle::check_answers(base, &answers, scalar_checks);
    checked.into_iter().collect::<Result<(), _>>()?;
    let queries: Vec<_> = pool.iter().map(|r| &r.query).collect();
    oracle::check_kernel(base, &queries)?;
    Ok((outcomes, quality))
}

/// Cycle the pool for `seconds`, checking each answer against the gate's.
pub fn closed_loop(
    session: &ExplorationSession,
    pool: &[Request],
    expected: &[(u64, u64)],
    seconds: f64,
    tracer: &mut Tracer,
    samples: &mut EngineSamples,
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let (result, took) =
            execute_traced(session, &pool[i % pool.len()], tracer, samples, i as u64);
        phase.attempted += 1;
        match &result {
            Ok(outcome) if fingerprint(outcome) == expected[i % pool.len()] => {
                phase.latencies_ms.push(took.as_secs_f64() * 1e3);
            }
            _ => phase.failed += 1,
        }
        if tracer.on() && (i as u64 + 1).is_multiple_of(SNAPSHOT_EVERY) {
            snapshot(session, tracer, samples, i as u64);
        }
        i += 1;
    }
    phase.wall = started.elapsed();
    phase
}

/// Run the workload.
pub fn run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let plan = plan(args);
    let built = setup::build_repeated(report, &plan, args.scale.setup_reps, |b| {
        Ok((b, Duration::ZERO))
    })?;
    let session = &built.session;
    let pool = pool(args);
    report.meta("pool_requests", pool.len());
    let handle = session
        .catalog()
        .table(UNIFORM)
        .map_err(|e| e.to_string())?;
    let base = handle.read();
    let (outcomes, quality) = gate(session, &base, &pool, args.scale.scalar_checks)?;
    let expected: Vec<(u64, u64)> = outcomes.iter().map(fingerprint).collect();
    quality.report_e2e(report);
    quality.report_layer(report);

    let epoch = Instant::now();
    let mut samples = EngineSamples::default();
    let mut off = Tracer::new(false, epoch, 0);
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let phase = closed_loop(session, &pool, &expected, seconds, &mut off, &mut samples);
    report.attempted = phase.attempted;
    report.failed = phase.failed;
    record_latency(report, &phase.latencies_ms, phase.wall);
    oracle::report_errors(report);

    if args.trace {
        let mut tracer = Tracer::new(true, epoch, 0);
        let traced = closed_loop(
            session,
            &pool,
            &expected,
            seconds,
            &mut tracer,
            &mut samples,
        );
        report.attempted += traced.attempted;
        report.failed += traced.failed;
        overhead(report, &phase, &traced);
        let spans = tracer.into_spans();
        trace::reconcile(report, &spans, traced.wall, 1);
        trace::save(report, &spans);
        samples.report(report);

        let uniform = session.hierarchy(UNIFORM).ok_or("no uniform hierarchy")?;
        let biased = session.hierarchy(BIASED).ok_or("no biased hierarchy")?;
        let hierarchies = [uniform.as_ref(), biased.as_ref()];
        let queries: Vec<_> = pool
            .iter()
            .take(args.scale.replay_queries)
            .map(|r| &r.query)
            .collect();
        probes::columnar_and_stats(report, &hierarchies, &base, &queries)?;
        let all: Vec<_> = pool.iter().map(|r| &r.query).collect();
        probes::log_query(report, &all)?;
        let answered: Vec<_> = pool.iter().zip(&outcomes).collect();
        probes::protocol(report, &answered);
        probes::hierarchy_size(report, &hierarchies);
        let mut generator = built.generator.clone();
        let batches: Vec<_> = (0..3)
            .map(|_| generator.next_batch(args.scale.ingest_batch_rows))
            .collect();
        let predicate_set = session.predicate_set();
        let biased_handle = session.catalog().table(BIASED).map_err(|e| e.to_string())?;
        let biased_base = biased_handle.read();
        probes::maintenance(
            report,
            &[(uniform.as_ref(), &base), (biased.as_ref(), &biased_base)],
            &predicate_set,
            &batches,
        )?;
    }
    Ok(())
}
