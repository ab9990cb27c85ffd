//! `serve`: two closed-loop client threads, each running
//! `protocol::parse_request` → `QueryServer::submit` →
//! `protocol::render_reply` in process — the calls a `sciborq-served`
//! worker makes — on a hot pool of same-table cone aggregates, with one
//! `metrics` command per 100 requests.
//!
//! Why: the serving layers (admission, shared-scan batching, traces, the
//! wire format) dominate here; ROADMAP item 4 (shared scans) and item 1
//! (trace spans) would show on this workload.

use crate::oracle::{self, Quality};
use crate::report::{overhead, record_latency, us, Phase, Report};
use crate::samples::EngineSamples;
use crate::setup::{self, Plan};
use crate::trace::{self, Span, Tracer};
use crate::traffic::{metrics_line, request_line, Mix, Request, Traffic};
use crate::{probes, RunArgs};
use sciborq_core::{ApproximateAnswer, QueryOutcome, SamplingPolicy};
use sciborq_serve::json::Json;
use sciborq_serve::protocol::{self, parse_request, render_metrics, render_reply};
use sciborq_serve::{QueryServer, ServeConfig, ServerReply};
use sciborq_skyserver::PhotoObjGenerator;
use std::time::{Duration, Instant};

/// The served table.
pub const TABLE: &str = "photoobj";
/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// One request in this many is a `metrics` command.
pub const METRICS_EVERY: usize = 100;

/// The set-up of a run: `sciborq-served`'s default layers and traces on.
pub fn plan(args: &RunArgs) -> Plan {
    Plan {
        seed: args.seed,
        rows: args.scale.serve_rows,
        batch_rows: args.scale.generate_batch_rows,
        tables: vec![(TABLE, SamplingPolicy::Uniform)],
        layers: args.scale.serve_layers.clone(),
        traces: true,
        training_queries: args.scale.training_queries,
        training_focus: None,
    }
}

/// The default `ServeConfig` (shared scans on) plus a global row budget
/// that prices every query but fits two worst-case (base-data) queries at
/// once, so admission runs its full path without queueing or shedding.
pub fn config(base_rows: usize) -> ServeConfig {
    ServeConfig {
        global_row_budget: Some(CLIENTS as u64 * base_rows as u64),
        ..ServeConfig::default()
    }
}

/// The hot pool: same-table COUNT/SUM/AVG cone searches, ε from
/// [`crate::traffic::EPSILONS`], a quarter with a row budget of the largest
/// layer.
pub fn pool(args: &RunArgs) -> Vec<Request> {
    let mut traffic = Traffic::new(
        args.seed ^ 0x5E_0002,
        Mix {
            aggregate_fraction: 1.0,
            budget_rows: args.scale.serve_layers[0] as u64,
        },
    );
    (0..args.scale.serve_pool)
        .map(|_| traffic.next(&[TABLE]))
        .collect()
}

/// The request line each client sends as its `k`-th request.
fn line_for<'a>(
    lines: &'a [String],
    metrics: &'a str,
    client: usize,
    k: usize,
) -> (&'a str, Option<usize>) {
    if (k + 1).is_multiple_of(METRICS_EVERY) {
        return (metrics, None);
    }
    let index = (k * CLIENTS + client) % lines.len();
    (&lines[index], Some(index))
}

fn identical(a: &ApproximateAnswer, b: &ApproximateAnswer) -> bool {
    let ci = |x: &ApproximateAnswer| {
        x.interval
            .map(|c| (c.estimate.to_bits(), c.lower.to_bits(), c.upper.to_bits()))
    };
    oracle::same(a.value, b.value)
        && ci(a) == ci(b)
        && a.level == b.level
        && a.rows_scanned == b.rows_scanned
        && a.escalations == b.escalations
        && a.error_bound_met == b.error_bound_met
}

fn rendered_ok(rendered: &str) -> bool {
    Json::parse(rendered)
        .ok()
        .and_then(|doc| doc.get("status").and_then(Json::as_str).map(|s| s == "ok"))
        .unwrap_or(false)
}

/// What the gate establishes: each pool answer, and the session calls it
/// timed.
pub struct Gated {
    /// Serial `ExplorationSession::execute` answer of each pool request.
    pub serial: Vec<ApproximateAnswer>,
    /// Quality and work counts over the serial answers.
    pub quality: Quality,
    /// Timings of the serial `execute` calls.
    pub calls: EngineSamples,
}

/// Before timing: every line parses back to its request; every pool answer
/// through the server — from both clients at once, so scans are shared —
/// is bit-identical to serial `ExplorationSession::execute`; every base
/// answer equals the exact value (the fused kernels, and the scalar oracle
/// on the first `scalar_checks`); every reply is typed `ok`.
pub fn gate(
    server: &QueryServer,
    pool: &[Request],
    lines: &[String],
    scalar_checks: usize,
) -> Result<Gated, String> {
    let session = server.session();
    let handle = session.catalog().table(TABLE).map_err(|e| e.to_string())?;
    let base = handle.read();
    let mut calls = EngineSamples::default();
    let mut outcomes = Vec::with_capacity(pool.len());
    for (request, line) in pool.iter().zip(lines) {
        match parse_request(line) {
            Ok(protocol::Request::Query { query, bounds, .. })
                if *query == request.query && bounds == request.bounds => {}
            other => return Err(format!("{line}: does not parse back ({other:?})")),
        }
        let started = Instant::now();
        let outcome = session
            .execute(&request.query, &request.bounds)
            .map_err(|e| format!("{}: typed error in the gate: {e}", request.query))?;
        calls.add_call(started.elapsed(), &outcome);
        outcomes.push(outcome);
    }
    let answers: Vec<_> = pool
        .iter()
        .zip(&outcomes)
        .map(|(request, outcome)| (request.query.clone(), request.epsilon(), outcome))
        .collect();
    let (quality, checked) = oracle::check_answers(&base, &answers, scalar_checks);
    checked.into_iter().collect::<Result<(), _>>()?;
    let serial = pool
        .iter()
        .zip(outcomes)
        .map(|(request, outcome)| match outcome {
            QueryOutcome::Aggregate(answer) => Ok(answer),
            QueryOutcome::Rows(_) => Err(format!("{}: not an aggregate answer", request.query)),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let queries: Vec<_> = pool.iter().map(|r| &r.query).collect();
    oracle::check_kernel(&base, &queries)?;
    drop(base);

    let served: Vec<Vec<(usize, ServerReply, String)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    (client..lines.len())
                        .step_by(CLIENTS)
                        .map(|i| {
                            let reply = match parse_request(&lines[i]) {
                                Ok(protocol::Request::Query { query, bounds, .. }) => {
                                    server.submit(*query, bounds)
                                }
                                _ => unreachable!("checked above"),
                            };
                            let rendered = render_reply(&Json::Num(i as f64), &reply);
                            (i, reply, rendered)
                        })
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("gate client thread panicked"))
            .collect()
    });
    for (i, reply, rendered) in served.into_iter().flatten() {
        match reply.as_aggregate() {
            Some(answer) if identical(answer, &serial[i]) && rendered_ok(&rendered) => {}
            _ => {
                return Err(format!(
                    "{}: served reply differs from serial execute: {rendered}",
                    lines[i]
                ))
            }
        }
    }
    let metrics = metrics_line(0);
    match parse_request(&metrics) {
        Ok(protocol::Request::Metrics { id }) => {
            if !rendered_ok(&render_metrics(&id, &server.metrics_snapshot())) {
                return Err("metrics reply is not ok".to_owned());
            }
        }
        other => return Err(format!("{metrics}: not a metrics command ({other:?})")),
    }
    Ok(Gated {
        serial,
        quality,
        calls,
    })
}

/// Per-client results of a phase.
#[derive(Debug, Default)]
struct ClientRun {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    samples: EngineSamples,
    parse_us: Vec<f64>,
    render_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    submit_us: Vec<f64>,
    handoff_us: Vec<f64>,
    queued_us: Vec<f64>,
    spans: Vec<Span>,
}

fn client(
    server: &QueryServer,
    lines: &[String],
    expected: &[(u64, u64)],
    client: usize,
    deadline: Instant,
    mut tracer: Tracer,
) -> ClientRun {
    let metrics = metrics_line(0);
    let mut run = ClientRun::default();
    for k in 0.. {
        let (line, index) = line_for(lines, &metrics, client, k);
        let root = tracer.id();
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        run.attempted += 1;
        let parsed = parse_request(line);
        let parsed_at = tracer.now();
        let (ok, rendered, layer, called_at) = match (parsed, index) {
            (Ok(protocol::Request::Query { id, query, bounds }), Some(index)) => {
                let reply = server.submit(*query, bounds);
                let submitted = tracer.now();
                let ok = reply
                    .as_aggregate()
                    .is_some_and(|a| oracle::aggregate_fingerprint(a) == expected[index]);
                if let (true, Some(answer), Some(p), Some(s)) =
                    (tracer.on(), reply.as_aggregate(), parsed_at, submitted)
                {
                    let submit = s - p;
                    run.submit_us.push(us(submit));
                    run.queued_us.push(us(reply.queued()));
                    run.handoff_us.push(us(submit
                        .saturating_sub(answer.elapsed)
                        .saturating_sub(reply.queued())));
                    run.samples.add_answer(answer.elapsed, &answer.level_scans);
                }
                (ok, render_reply(&id, &reply), "server.submit", submitted)
            }
            (Ok(protocol::Request::Metrics { id }), None) => {
                let rendered = render_metrics(&id, &server.metrics_snapshot());
                (true, rendered, "telemetry.snapshot", None)
            }
            _ => (false, String::new(), "", None),
        };
        let done = Instant::now();
        if !ok {
            run.failed += 1;
            continue;
        }
        run.latencies_ms.push((done - sent).as_secs_f64() * 1e3);
        if let (true, Some(p)) = (tracer.on(), parsed_at) {
            let request = (k * CLIENTS + client) as u64;
            run.parse_us.push(us(p - sent));
            let id = tracer.id();
            tracer.record(
                id,
                "protocol.parse",
                Some(root),
                request,
                Some(sent),
                Some(p),
            );
            let id = tracer.id();
            if layer == "server.submit" {
                let s = called_at.unwrap_or(done);
                tracer.record(id, layer, Some(root), request, Some(p), Some(s));
                run.render_us.push(us(done - s));
                run.reply_bytes.push(rendered.len() as f64);
                let id = tracer.id();
                tracer.record(
                    id,
                    "protocol.render",
                    Some(root),
                    request,
                    Some(s),
                    Some(done),
                );
            } else {
                run.samples.snapshot_us.push(us(done - p));
                tracer.record(id, layer, Some(root), request, Some(p), Some(done));
            }
            tracer.record(root, "request", None, request, Some(sent), tracer.now());
        }
    }
    run.spans = tracer.into_spans();
    run
}

/// Both clients for `seconds`; per-client results merged.
fn closed_loop(
    server: &QueryServer,
    lines: &[String],
    expected: &[(u64, u64)],
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> (Phase, ClientRun) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let tracer = Tracer::new(traced, epoch, c as u64);
                scope.spawn(move || client(server, lines, expected, c, deadline, tracer))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut merged = ClientRun::default();
    for run in runs {
        merged.latencies_ms.extend(run.latencies_ms);
        merged.attempted += run.attempted;
        merged.failed += run.failed;
        merged.samples.elapsed_us.extend(run.samples.elapsed_us);
        for (level, values) in run.samples.level_us {
            merged
                .samples
                .level_us
                .entry(level)
                .or_default()
                .extend(values);
        }
        merged.samples.snapshot_us.extend(run.samples.snapshot_us);
        merged.parse_us.extend(run.parse_us);
        merged.render_us.extend(run.render_us);
        merged.reply_bytes.extend(run.reply_bytes);
        merged.submit_us.extend(run.submit_us);
        merged.handoff_us.extend(run.handoff_us);
        merged.queued_us.extend(run.queued_us);
        merged.spans.extend(run.spans);
    }
    let phase = Phase {
        latencies_ms: std::mem::take(&mut merged.latencies_ms),
        wall,
        attempted: merged.attempted,
        failed: merged.failed,
    };
    (phase, merged)
}

/// `(count, sum)` of the server's batch-size histogram and its shed count.
fn server_counts(server: &QueryServer) -> (u64, u64, u64) {
    let snapshot = server.metrics_snapshot();
    let batch = snapshot.histogram("serve.batch_size");
    (
        batch.map_or(0, |h| h.count),
        batch.map_or(0, |h| h.sum),
        snapshot.counter("serve.queries_shed").unwrap_or(0),
    )
}

/// Run the workload.
pub fn run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let plan = plan(args);
    let serve_config = config(plan.rows);
    let (server, generator): (QueryServer, PhotoObjGenerator) =
        setup::build_repeated(report, &plan, args.scale.serve_setup_reps, |built| {
            let started = Instant::now();
            let server =
                QueryServer::new(built.session, serve_config.clone()).map_err(|e| e.to_string())?;
            Ok(((server, built.generator), started.elapsed()))
        })?;
    report.meta("clients", CLIENTS);
    report.meta(
        "global_row_budget",
        serve_config.global_row_budget.unwrap_or(0),
    );
    let pool = pool(args);
    report.meta("pool_requests", pool.len());
    let lines: Vec<String> = pool
        .iter()
        .enumerate()
        .map(|(i, r)| request_line(i as u64, r))
        .collect();
    let gated = gate(&server, &pool, &lines, args.scale.scalar_checks)?;
    let expected: Vec<(u64, u64)> = gated
        .serial
        .iter()
        .map(oracle::aggregate_fingerprint)
        .collect();
    gated.quality.report_e2e(report);
    gated.quality.report_layer(report);

    let epoch = Instant::now();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (phase, _) = closed_loop(&server, &lines, &expected, seconds, false, epoch);
    report.attempted = phase.attempted;
    report.failed = phase.failed;
    record_latency(report, &phase.latencies_ms, phase.wall);
    oracle::report_errors(report);

    if args.trace {
        let (batches_before, batch_sum_before, shed_before) = server_counts(&server);
        let (traced, run) = closed_loop(&server, &lines, &expected, seconds, true, epoch);
        let (batches_after, batch_sum_after, shed_after) = server_counts(&server);
        report.attempted += traced.attempted;
        report.failed += traced.failed;
        overhead(report, &phase, &traced);
        trace::reconcile(report, &run.spans, traced.wall, CLIENTS);
        trace::save(report, &run.spans);
        gated.calls.report(report);
        run.samples.report(report);
        report.layer_mean("protocol.parse_us", &run.parse_us, "us");
        report.layer_mean("protocol.render_us", &run.render_us, "us");
        report.layer_mean("protocol.reply_bytes", &run.reply_bytes, "bytes");
        report.layer_mean("server.submit_us", &run.submit_us, "us");
        report.layer_mean("server.handoff_us", &run.handoff_us, "us");
        let batches = batches_after - batches_before;
        report.layer(
            "server.batch_size_mean",
            (batch_sum_after - batch_sum_before) as f64 / batches.max(1) as f64,
            "count",
            batches,
        );
        report.layer_mean("admission.queued_us", &run.queued_us, "us");
        report.layer(
            "admission.shed_ratio",
            (shed_after - shed_before) as f64 / traced.attempted.max(1) as f64,
            "ratio",
            traced.attempted,
        );

        let session = server.session();
        let hierarchy = session.hierarchy(TABLE).ok_or("no hierarchy")?;
        let handle = session.catalog().table(TABLE).map_err(|e| e.to_string())?;
        let base = handle.read();
        let queries: Vec<_> = pool
            .iter()
            .take(args.scale.replay_queries)
            .map(|r| &r.query)
            .collect();
        probes::columnar_and_stats(report, &[hierarchy.as_ref()], &base, &queries)?;
        let all: Vec<_> = pool.iter().map(|r| &r.query).collect();
        probes::log_query(report, &all)?;
        probes::hierarchy_size(report, &[hierarchy.as_ref()]);
        let mut generator = generator;
        let batches: Vec<_> = (0..3)
            .map(|_| generator.next_batch(args.scale.ingest_batch_rows))
            .collect();
        let predicate_set = session.predicate_set();
        probes::maintenance(
            report,
            &[(hierarchy.as_ref(), &base)],
            &predicate_set,
            &batches,
        )?;
    }
    Ok(())
}
