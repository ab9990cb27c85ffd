//! Correctness and answer quality: the scalar oracle, answer checks, and
//! the seed-determined quality and count metrics.

use crate::report::Report;
use crate::traffic::Request;
use sciborq_columnar::{compute_aggregate, AggregateKind, CompiledPredicate, Table};
use sciborq_core::{
    ApproximateAnswer, EvaluationLevel, ExplorationSession, LevelScan, QueryOutcome, SelectAnswer,
};
use sciborq_workload::{Query, QueryKind};

fn aggregate_of(query: &Query) -> Result<(AggregateKind, Option<&str>), String> {
    match &query.kind {
        QueryKind::Aggregate { kind, column } => Ok((*kind, column.as_deref())),
        QueryKind::Select => Err(format!("not an aggregate: {query}")),
    }
}

/// The exact aggregate through the scalar path: `Predicate::evaluate` plus
/// `compute_aggregate`.
pub fn scalar_exact(table: &Table, query: &Query) -> Result<Option<f64>, String> {
    let (kind, column) = aggregate_of(query)?;
    let selection = query.predicate.evaluate(table).map_err(|e| e.to_string())?;
    let result = compute_aggregate(table, column, kind, &selection).map_err(|e| e.to_string())?;
    Ok(result.value)
}

/// The exact aggregate through the fused scan kernels. Much faster than
/// [`scalar_exact`] on large tables; the correctness gate checks the two
/// agree bit for bit on every run.
pub fn kernel_exact(table: &Table, query: &Query) -> Result<Option<f64>, String> {
    let (kind, column) = aggregate_of(query)?;
    let compiled =
        CompiledPredicate::compile(&query.predicate, table.schema()).map_err(|e| e.to_string())?;
    match (kind, column) {
        (AggregateKind::Count, _) => compiled
            .count_matches(table)
            .map(|(matched, _)| Some(matched as f64))
            .map_err(|e| e.to_string()),
        (_, Some(column)) => compiled
            .filter_moments(table, column)
            .map(|(sketch, _)| sketch.aggregate(kind))
            .map_err(|e| e.to_string()),
        (_, None) => Err(format!("{kind} needs a column")),
    }
}

/// Check an aggregate answer and return the exact value it is scored
/// against. Every base-data answer must equal the fused-kernel value, and
/// with `scalar` the scalar oracle must equal it too. Flagged answers from
/// impressions are scored against the fused-kernel value; unflagged ones
/// make no claim and need none.
pub fn checked_exact(
    base: &Table,
    query: &Query,
    answer: &ApproximateAnswer,
    scalar: bool,
) -> Result<Option<f64>, String> {
    let on_base = answer.level == EvaluationLevel::BaseData;
    if !on_base && !answer.error_bound_met {
        return Ok(None);
    }
    let exact = kernel_exact(base, query)?;
    if on_base && !same(exact, answer.value) {
        return Err(format!(
            "{query}: base answer {:?} differs from the exact {exact:?}",
            answer.value
        ));
    }
    if on_base && scalar {
        let scalar = scalar_exact(base, query)?;
        if !same(scalar, exact) {
            return Err(format!(
                "{query}: base answer {exact:?} differs from the scalar oracle {scalar:?}"
            ));
        }
    }
    Ok(exact)
}

/// Answer every request once, in order; a typed error fails the gate.
pub fn answer_all(
    session: &ExplorationSession,
    requests: &[Request],
) -> Result<Vec<QueryOutcome>, String> {
    requests
        .iter()
        .map(|request| {
            session
                .execute(&request.query, &request.bounds)
                .map_err(|e| format!("{}: typed error in the gate: {e}", request.query))
        })
        .collect()
}

/// An answer to check: the query as the oracle evaluates it, the ε it was
/// asked under, and the outcome.
pub type Answered<'a> = (Query, f64, &'a QueryOutcome);

/// Check every answer — aggregates with [`checked_exact`], the first
/// `scalar_checks` base-data answers also against the scalar oracle, SELECT
/// rows with [`check_select`] — and tally the quality of those that pass.
/// The oracle scans run on two threads; results come back in order.
pub fn check_answers(
    base: &Table,
    answers: &[Answered<'_>],
    scalar_checks: usize,
) -> (Quality, Vec<Result<(), String>>) {
    let mut left = scalar_checks;
    let scalar: Vec<bool> = answers
        .iter()
        .map(|(_, _, outcome)| {
            let take = left > 0
                && matches!(outcome, QueryOutcome::Aggregate(a) if a.level == EvaluationLevel::BaseData);
            left -= usize::from(take);
            take
        })
        .collect();
    let checked = par_map(answers.len(), |i| {
        let (query, _, outcome) = &answers[i];
        match outcome {
            QueryOutcome::Aggregate(answer) => checked_exact(base, query, answer, scalar[i]),
            QueryOutcome::Rows(answer) => check_select(answer, query).map(|()| None),
        }
    });
    let mut quality = Quality::default();
    let results = answers
        .iter()
        .zip(checked)
        .map(|((_, epsilon, outcome), exact)| {
            let exact = exact?;
            match outcome {
                QueryOutcome::Aggregate(answer) => quality.add_aggregate(answer, *epsilon, exact),
                QueryOutcome::Rows(answer) => quality.add_select(answer),
            }
            Ok(())
        })
        .collect();
    (quality, results)
}

/// `f(0)`, …, `f(n - 1)` on two threads, in order.
fn par_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let half = n.div_ceil(2);
    std::thread::scope(|scope| {
        let right = scope.spawn(|| (half..n).map(&f).collect::<Vec<_>>());
        let mut out: Vec<R> = (0..half).map(&f).collect();
        out.extend(right.join().expect("oracle thread panicked"));
        out
    })
}

/// The fused kernels and the scalar oracle agree on the first aggregate of
/// `queries`: a check that holds even when no answer fell through to base
/// data, where [`checked_exact`] compares the two.
pub fn check_kernel(base: &Table, queries: &[&Query]) -> Result<(), String> {
    let Some(query) = queries.iter().find(|q| q.kind != QueryKind::Select) else {
        return Ok(());
    };
    let (k, s) = (kernel_exact(base, query)?, scalar_exact(base, query)?);
    if !same(k, s) {
        return Err(format!("{query}: kernel {k:?} != scalar {s:?}"));
    }
    Ok(())
}

/// Bit-identical optional values.
pub fn same(a: Option<f64>, b: Option<f64>) -> bool {
    a.map(f64::to_bits) == b.map(f64::to_bits)
}

/// A SELECT answer's rows all satisfy the query's predicate and respect
/// its LIMIT.
pub fn check_select(answer: &SelectAnswer, query: &Query) -> Result<(), String> {
    let rows = answer.returned_rows();
    if let Some(limit) = query.limit {
        if rows > limit {
            return Err(format!("{query}: {rows} rows exceed LIMIT {limit}"));
        }
    }
    let matching = query
        .predicate
        .evaluate(&answer.rows)
        .map_err(|e| e.to_string())?
        .len();
    if matching != rows {
        return Err(format!(
            "{query}: {} of {rows} returned rows fail the predicate",
            rows - matching
        ));
    }
    Ok(())
}

/// What an answer must reproduce on every later execution of the same
/// request: the value bits (or row count) and the rows scanned.
pub fn fingerprint(outcome: &QueryOutcome) -> (u64, u64) {
    match outcome {
        QueryOutcome::Aggregate(a) => aggregate_fingerprint(a),
        QueryOutcome::Rows(r) => (r.returned_rows() as u64, r.rows_scanned),
    }
}

/// [`fingerprint`] of an aggregate answer.
pub fn aggregate_fingerprint(answer: &ApproximateAnswer) -> (u64, u64) {
    (
        answer.value.map_or(u64::MAX, f64::to_bits),
        answer.rows_scanned,
    )
}

/// Realised relative error of `estimate` against `exact`.
pub fn realised_error(estimate: Option<f64>, exact: Option<f64>) -> f64 {
    match (estimate, exact) {
        (None, None) => 0.0,
        (Some(e), Some(x)) if e == x => 0.0,
        // An exact 0 with a non-zero estimate is an infinite relative error.
        (Some(e), Some(x)) => ((e - x) / x).abs(),
        _ => f64::INFINITY,
    }
}

/// Quality and work counts over a fixed, seed-determined set of answers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quality {
    /// Answers of any kind.
    pub answers: u64,
    /// Aggregate answers.
    pub aggregates: u64,
    /// Aggregate answers flagged `error_bound_met`.
    pub met: u64,
    /// Flagged answers whose realised error against the oracle exceeds ε.
    pub claim_misses: u64,
    /// Rows scanned, all answers.
    pub rows_scanned: u64,
    /// Rows scanned at levels that did not produce the answer.
    pub wasted_rows: u64,
    /// Levels visited, all answers.
    pub levels: u64,
    /// Answers produced on base data.
    pub base_answers: u64,
}

impl Quality {
    fn add_scans(&mut self, level: EvaluationLevel, scans: &[LevelScan], rows_scanned: u64) {
        self.answers += 1;
        self.rows_scanned += rows_scanned;
        self.levels += scans.len() as u64;
        self.wasted_rows += scans
            .iter()
            .filter(|s| s.level != level)
            .map(|s| s.rows_scanned)
            .sum::<u64>();
        self.base_answers += u64::from(level == EvaluationLevel::BaseData);
    }

    /// Tally an aggregate answer asked with error bound `epsilon`, given the
    /// exact value from the oracle.
    pub fn add_aggregate(&mut self, answer: &ApproximateAnswer, epsilon: f64, exact: Option<f64>) {
        self.add_scans(answer.level, &answer.level_scans, answer.rows_scanned);
        self.aggregates += 1;
        if answer.error_bound_met {
            self.met += 1;
            if realised_error(answer.value, exact) > epsilon {
                self.claim_misses += 1;
            }
        }
    }

    /// Tally a SELECT answer.
    pub fn add_select(&mut self, answer: &SelectAnswer) {
        self.add_scans(answer.level, &answer.level_scans, answer.rows_scanned);
    }

    /// `bound_met_ratio`, `claim_hold_ratio` (and, as text, the miss ratio).
    pub fn report_e2e(&self, report: &mut Report) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        report.e2e(
            "bound_met_ratio",
            ratio(self.met, self.aggregates),
            "ratio",
            self.aggregates,
        );
        report.e2e(
            "claim_hold_ratio",
            1.0 - ratio(self.claim_misses, self.met),
            "ratio",
            self.met,
        );
        report.e2e(
            "claim_miss_ratio",
            ratio(self.claim_misses, self.met),
            "ratio",
            self.met,
        );
    }

    /// The engine's work counts per answer.
    pub fn report_layer(&self, report: &mut Report) {
        let n = self.answers.max(1) as f64;
        report.layer(
            "engine.rows_per_answer",
            self.rows_scanned as f64 / n,
            "count",
            self.answers,
        );
        report.layer(
            "engine.levels_per_answer",
            self.levels as f64 / n,
            "count",
            self.answers,
        );
        report.layer(
            "engine.wasted_rows_ratio",
            self.wasted_rows as f64 / self.rows_scanned.max(1) as f64,
            "ratio",
            self.answers,
        );
        report.layer(
            "engine.base_share",
            self.base_answers as f64 / n,
            "ratio",
            self.answers,
        );
    }
}

/// Report `error_ratio` (text) and `answered_ratio` from the timed phase.
pub fn report_errors(report: &mut Report) {
    let attempted = report.attempted.max(1) as f64;
    let error_ratio = report.failed as f64 / attempted;
    report.e2e("error_ratio", error_ratio, "ratio", report.attempted);
    report.e2e(
        "answered_ratio",
        1.0 - error_ratio,
        "ratio",
        report.attempted,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realised_error_handles_zero_and_missing_values() {
        assert_eq!(realised_error(Some(11.0), Some(10.0)), 0.1);
        assert_eq!(realised_error(Some(0.0), Some(0.0)), 0.0);
        assert!(realised_error(Some(1.0), Some(0.0)).is_infinite());
        assert!(realised_error(None, Some(1.0)).is_infinite());
        assert_eq!(realised_error(None, None), 0.0);
    }
}
