//! Per-answer samples the traced run turns into engine and session metrics.

use crate::report::{us, Report};
use crate::trace::Tracer;
use crate::traffic::Request;
use sciborq_core::{ExplorationSession, LevelScan, QueryOutcome, Result};
use sciborq_serve::json::Json;
use sciborq_serve::protocol::render_metrics;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Engine and session timings gathered from answers of the traced phase.
#[derive(Debug, Clone, Default)]
pub struct EngineSamples {
    /// `answer.elapsed` per answer, µs.
    pub elapsed_us: Vec<f64>,
    /// `level_scans[*].elapsed` per visit, µs, by level name.
    pub level_us: BTreeMap<String, Vec<f64>>,
    /// Time around `ExplorationSession::execute`, µs.
    pub execute_us: Vec<f64>,
    /// The same minus `answer.elapsed`, µs.
    pub bookkeeping_us: Vec<f64>,
    /// Time around `metrics_snapshot` plus `render_metrics`, µs.
    pub snapshot_us: Vec<f64>,
}

/// An outcome's engine time and level scans.
pub fn parts(outcome: &QueryOutcome) -> (Duration, &[LevelScan]) {
    match outcome {
        QueryOutcome::Aggregate(a) => (a.elapsed, &a.level_scans),
        QueryOutcome::Rows(r) => (r.elapsed, &r.level_scans),
    }
}

impl EngineSamples {
    /// Record an answer's engine time and per-level scan times.
    pub fn add_answer(&mut self, elapsed: Duration, scans: &[LevelScan]) {
        self.elapsed_us.push(us(elapsed));
        for scan in scans {
            self.level_us
                .entry(scan.level.name())
                .or_default()
                .push(us(scan.elapsed));
        }
    }

    /// Record the time around a call to `execute` that returned `outcome`.
    pub fn add_call(&mut self, call: Duration, outcome: &QueryOutcome) {
        let (elapsed, _) = parts(outcome);
        self.execute_us.push(us(call));
        self.bookkeeping_us.push(us(call.saturating_sub(elapsed)));
    }

    /// Record an answer from a call to `execute` that took `call`.
    pub fn add_execute(&mut self, call: Duration, outcome: &QueryOutcome) {
        let (elapsed, scans) = parts(outcome);
        self.add_answer(elapsed, scans);
        self.add_call(call, outcome);
    }

    /// Report every metric with samples.
    pub fn report(&self, report: &mut Report) {
        report.layer_mean("session.execute_us", &self.execute_us, "us");
        report.layer_mean("session.bookkeeping_us", &self.bookkeeping_us, "us");
        report.layer_mean("telemetry.snapshot_us", &self.snapshot_us, "us");
        report.layer_mean("engine.elapsed_us", &self.elapsed_us, "us");
        for (level, values) in &self.level_us {
            report.layer_mean(&format!("engine.level_us.{level}"), values, "us");
        }
    }
}

/// In traced runs, one `metrics_snapshot` + `render_metrics` per this many
/// requests (the `serve` workload's cadence of `metrics` commands).
pub const SNAPSHOT_EVERY: u64 = 100;

/// Time one `metrics_snapshot` + `render_metrics` as traced request
/// `request`: a `telemetry.snapshot` span under a top-level `request` span.
pub fn snapshot(
    session: &ExplorationSession,
    tracer: &mut Tracer,
    samples: &mut EngineSamples,
    request: u64,
) {
    let root = tracer.id();
    let id = tracer.id();
    let started = Instant::now();
    let rendered = render_metrics(&Json::Null, &session.metrics_snapshot());
    let done = Instant::now();
    std::hint::black_box(rendered);
    samples.snapshot_us.push(us(done - started));
    tracer.record(
        id,
        "telemetry.snapshot",
        Some(root),
        request,
        Some(started),
        Some(done),
    );
    tracer.record(root, "request", None, request, Some(started), tracer.now());
}

/// Answer `request` as traced request `id`: a top-level `request` span
/// around a `session.execute` span. Returns the outcome and the time to
/// answer; when tracing, an answer's engine and session times go to
/// `samples`.
pub fn execute_traced(
    session: &ExplorationSession,
    request: &Request,
    tracer: &mut Tracer,
    samples: &mut EngineSamples,
    id: u64,
) -> (Result<QueryOutcome>, Duration) {
    let root = tracer.id();
    let child = tracer.id();
    let sent = Instant::now();
    let result = session.execute(&request.query, &request.bounds);
    let answered = Instant::now();
    if let (true, Ok(outcome)) = (tracer.on(), &result) {
        samples.add_execute(answered - sent, outcome);
    }
    tracer.record(
        child,
        "session.execute",
        Some(root),
        id,
        Some(sent),
        Some(answered),
    );
    tracer.record(root, "request", None, id, Some(sent), tracer.now());
    (result, answered - sent)
}
