//! Layer probes of the traced run: the benchmark replays a workload's own
//! inputs through one layer's public functions and times each call, for
//! layers a workload's requests reach only inside the program.

use crate::report::{ms, us, Report};
use crate::traffic::{request_line, Request};
use sciborq_columnar::{AggregateKind, CompiledPredicate, RecordBatch, Table};
use sciborq_core::{Impression, LayerHierarchy, QueryOutcome};
use sciborq_serve::json::Json;
use sciborq_serve::protocol::{parse_request, render_reply};
use sciborq_serve::ServerReply;
use sciborq_workload::{PredicateSet, Query, QueryKind};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Estimator calls are sub-microsecond; each is timed over this many calls.
const ESTIMATE_REPEATS: u32 = 16;

/// The aggregated column of every workload's SUM/AVG queries.
const MEASURE: &str = "r_mag";

/// Replay `queries` through `CompiledPredicate` on every impression of
/// `hierarchies` and on `base`: `columnar.compile_us`,
/// `columnar.{count,moments,weighted}_ns_per_row` and `stats.estimate_us`.
pub fn columnar_and_stats(
    report: &mut Report,
    hierarchies: &[&LayerHierarchy],
    base: &Table,
    queries: &[&Query],
) -> Result<(), String> {
    let err = |e: sciborq_columnar::ColumnarError| e.to_string();
    let per_row =
        |d: Duration, table: &Table| d.as_nanos() as f64 / table.row_count().max(1) as f64;
    let impressions: Vec<&Impression> = hierarchies.iter().flat_map(|h| h.layers()).collect();
    let (mut compile, mut count, mut moments, mut weighted, mut estimate) =
        (vec![], vec![], vec![], vec![], vec![]);
    for query in queries {
        let started = Instant::now();
        let compiled = CompiledPredicate::compile(&query.predicate, base.schema()).map_err(err)?;
        compile.push(us(started.elapsed()));

        let started = Instant::now();
        black_box(compiled.count_matches(base).map_err(err)?);
        count.push(per_row(started.elapsed(), base));
        let started = Instant::now();
        black_box(compiled.filter_moments(base, MEASURE).map_err(err)?);
        moments.push(per_row(started.elapsed(), base));

        for impression in &impressions {
            let data = impression.data();
            // Self-weighted impressions keep no probabilities; the weighted
            // kernel's cost does not depend on their values.
            let uniform;
            let probabilities = match impression.selection_probabilities() {
                [] => {
                    uniform = vec![impression.sampling_fraction(); data.row_count()];
                    &uniform[..]
                }
                p => p,
            };
            let started = Instant::now();
            let (matched, _) = compiled.count_matches(data).map_err(err)?;
            count.push(per_row(started.elapsed(), data));
            let started = Instant::now();
            let (sketch, _) = compiled.filter_moments(data, MEASURE).map_err(err)?;
            moments.push(per_row(started.elapsed(), data));
            let started = Instant::now();
            let (wsketch, _) = compiled
                .filter_weighted_moments(data, MEASURE, probabilities)
                .map_err(err)?;
            weighted.push(per_row(started.elapsed(), data));

            let kind = match &query.kind {
                QueryKind::Aggregate { kind, .. } => *kind,
                QueryKind::Select => AggregateKind::Count,
            };
            let weighted_estimators = impression.uses_weighted_estimators();
            let (wcount, _) = compiled.count_weighted(data, probabilities).map_err(err)?;
            let started = Instant::now();
            for _ in 0..ESTIMATE_REPEATS {
                let result = match (kind, weighted_estimators) {
                    (AggregateKind::Count, true) => impression.estimate_count_weighted(&wcount),
                    (AggregateKind::Count, false) => impression.estimate_count_streamed(matched),
                    (AggregateKind::Avg, true) => impression.estimate_avg_weighted(&wsketch),
                    (AggregateKind::Avg, false) => impression.estimate_avg_streamed(&sketch),
                    (_, true) => impression.estimate_sum_weighted(&wsketch),
                    (_, false) => impression.estimate_sum_streamed(&sketch),
                };
                // An AVG over no matching row is a typed error, not a failure.
                let _ = black_box(result);
            }
            estimate.push(us(started.elapsed()) / f64::from(ESTIMATE_REPEATS));
        }
    }
    report.layer_mean("columnar.compile_us", &compile, "us");
    report.layer_mean("columnar.count_ns_per_row", &count, "ns");
    report.layer_mean("columnar.moments_ns_per_row", &moments, "ns");
    report.layer_mean("columnar.weighted_ns_per_row", &weighted, "ns");
    report.layer_mean("stats.estimate_us", &estimate, "us");
    Ok(())
}

/// Replay `queries` through `PredicateSet::log_query` on a fresh predicate
/// set tracking the session's attributes: `workload.log_query_us`.
pub fn log_query(report: &mut Report, queries: &[&Query]) -> Result<(), String> {
    let mut set = PredicateSet::new(&crate::setup::tracked()).map_err(|e| e.to_string())?;
    let started = Instant::now();
    for query in queries {
        set.log_query(black_box(query));
    }
    let per_query = us(started.elapsed()) / queries.len().max(1) as f64;
    report.layer(
        "workload.log_query_us",
        per_query,
        "us",
        queries.len() as u64,
    );
    Ok(())
}

/// Replay requests and their answers through the wire format:
/// `protocol.parse_us`, `protocol.render_us`, `protocol.reply_bytes`.
pub fn protocol(report: &mut Report, answered: &[(&Request, &QueryOutcome)]) {
    let (mut parse, mut render, mut bytes) = (vec![], vec![], vec![]);
    for (id, (request, outcome)) in answered.iter().enumerate() {
        let line = request_line(id as u64, request);
        let started = Instant::now();
        let _ = black_box(parse_request(&line));
        parse.push(us(started.elapsed()));
        let reply = match outcome {
            QueryOutcome::Aggregate(answer) => ServerReply::Aggregate {
                answer: answer.clone(),
                downgraded: false,
                queued: Duration::ZERO,
            },
            QueryOutcome::Rows(answer) => ServerReply::Rows {
                answer: answer.clone(),
                downgraded: false,
                queued: Duration::ZERO,
            },
        };
        let started = Instant::now();
        let rendered = render_reply(&Json::Num(id as f64), &reply);
        render.push(us(started.elapsed()));
        bytes.push(rendered.len() as f64);
    }
    report.layer_mean("protocol.parse_us", &parse, "us");
    report.layer_mean("protocol.render_us", &render, "us");
    report.layer_mean("protocol.reply_bytes", &bytes, "bytes");
}

/// Layer maintenance on clones of the live hierarchies, which stay
/// untouched: per batch `layer.clone_ms`, `layer.observe_ms` and
/// `layer.refresh_ms`; once per hierarchy `layer.rebuild_ms`.
pub fn maintenance(
    report: &mut Report,
    live: &[(&LayerHierarchy, &Table)],
    predicate_set: &PredicateSet,
    batches: &[RecordBatch],
) -> Result<(), String> {
    let (mut clone, mut observe, mut refresh, mut rebuild) = (vec![], vec![], vec![], vec![]);
    for (hierarchy, base) in live {
        for batch in batches {
            let (c, o, r) = maintain_clone(hierarchy, predicate_set, batch)?;
            clone.push(c);
            observe.push(o);
            refresh.push(r);
        }
        let mut copy = (*hierarchy).clone();
        let started = Instant::now();
        copy.rebuild_from_table(base, Some(predicate_set))
            .map_err(|e| e.to_string())?;
        rebuild.push(ms(started.elapsed()));
    }
    report_maintenance(report, &clone, &observe, &refresh);
    report.layer_mean("layer.rebuild_ms", &rebuild, "ms");
    Ok(())
}

/// Clone `hierarchy`, feed it `batch` and refresh it; the three times in ms.
pub fn maintain_clone(
    hierarchy: &LayerHierarchy,
    predicate_set: &PredicateSet,
    batch: &RecordBatch,
) -> Result<(f64, f64, f64), String> {
    let started = Instant::now();
    let mut copy = hierarchy.clone();
    let clone = ms(started.elapsed());
    let started = Instant::now();
    copy.observe_batch(batch, Some(predicate_set))
        .map_err(|e| e.to_string())?;
    let observe = ms(started.elapsed());
    let started = Instant::now();
    copy.refresh().map_err(|e| e.to_string())?;
    Ok((clone, observe, ms(started.elapsed())))
}

/// Report the per-batch maintenance times.
pub fn report_maintenance(report: &mut Report, clone: &[f64], observe: &[f64], refresh: &[f64]) {
    report.layer_mean("layer.clone_ms", clone, "ms");
    report.layer_mean("layer.observe_ms", observe, "ms");
    report.layer_mean("layer.refresh_ms", refresh, "ms");
}

/// `layer.hierarchy_mb`: bytes of every live hierarchy.
pub fn hierarchy_size(report: &mut Report, hierarchies: &[&LayerHierarchy]) {
    let bytes: usize = hierarchies.iter().map(|h| h.byte_size()).sum();
    report.layer(
        "layer.hierarchy_mb",
        bytes as f64 / (1024.0 * 1024.0),
        "MB",
        hierarchies.len() as u64,
    );
}
