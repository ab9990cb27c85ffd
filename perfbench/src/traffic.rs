//! Seeded request generation: SkyServer cone searches with error bounds,
//! some row budgets, and their wire form.

use sciborq_columnar::{AggregateKind, CompareOp, Predicate, Value};
use sciborq_core::QueryBounds;
use sciborq_serve::json::Json;
use sciborq_workload::{FocalCluster, Query, QueryKind, WorkloadConfig, WorkloadGenerator};

/// The relative error bounds requests draw from.
pub const EPSILONS: [f64; 4] = [0.2, 0.1, 0.05, 0.02];

/// Confidence of every error bound.
pub const CONFIDENCE: f64 = 0.95;

/// A query with the bounds it is asked under. No request carries a time
/// budget: the runtime bound is a row budget, so every answer depends only
/// on the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The query.
    pub query: Query,
    /// Its bounds.
    pub bounds: QueryBounds,
}

impl Request {
    /// The requested relative error.
    pub fn epsilon(&self) -> f64 {
        self.bounds.max_relative_error.unwrap_or(f64::INFINITY)
    }
}

/// The shape of a traffic stream.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of aggregates (COUNT/SUM/AVG); the rest are SELECT LIMIT.
    pub aggregate_fraction: f64,
    /// The row budget a quarter of the requests carry.
    pub budget_rows: u64,
}

/// A deterministic request stream.
///
/// ε, the row budget and the table alternate in a fixed cycle of 32
/// requests in which every (ε, table, budget) combination appears in
/// proportion: every ε a quarter of the time, every table half of it, a
/// row budget on a quarter. The seed then varies only the queries
/// themselves (cone position and size, aggregate or SELECT), which keeps
/// the mix — and so the cost per request — steady from seed to seed.
#[derive(Debug, Clone)]
pub struct Traffic {
    queries: WorkloadGenerator,
    mix: Mix,
    sent: usize,
}

impl Traffic {
    /// A stream seeded by `seed`.
    pub fn new(seed: u64, mix: Mix) -> Traffic {
        let config = WorkloadConfig {
            aggregate_fraction: mix.aggregate_fraction,
            ..WorkloadConfig::default()
        };
        Traffic {
            queries: WorkloadGenerator::new(config, seed),
            mix,
            sent: 0,
        }
    }

    /// Move the stream's focus to other sky regions.
    pub fn shift_focus(&mut self, clusters: Vec<FocalCluster>) {
        self.queries.shift_focus(clusters);
    }

    /// The next request, against `tables[0]` or `tables[1]` in turn (pass
    /// one table to use it for every request).
    pub fn next(&mut self, tables: &[&str]) -> Request {
        let i = self.sent;
        self.sent += 1;
        let mut query = self.queries.next_query();
        query.table = tables[(i / 4) % tables.len()].to_owned();
        let epsilon = EPSILONS[i % EPSILONS.len()];
        let budget = (i / 8).is_multiple_of(4).then_some(self.mix.budget_rows);
        Request {
            query,
            bounds: QueryBounds {
                max_relative_error: Some(epsilon),
                confidence: CONFIDENCE,
                max_rows_scanned: budget,
                time_budget: None,
                min_result_rows: None,
            },
        }
    }
}

/// The request line `sciborq-served` reads for `request`, with `id`.
pub fn request_line(id: u64, request: &Request) -> String {
    let query = &request.query;
    let mut q = vec![
        ("table".to_owned(), Json::Str(query.table.clone())),
        ("predicate".to_owned(), predicate_json(&query.predicate)),
    ];
    match &query.kind {
        QueryKind::Select => {
            q.push(("kind".to_owned(), Json::Str("select".to_owned())));
            if let Some(limit) = query.limit {
                q.push(("limit".to_owned(), Json::Num(limit as f64)));
            }
        }
        QueryKind::Aggregate { kind, column } => {
            let name = match kind {
                AggregateKind::Count => "count",
                AggregateKind::Sum => "sum",
                AggregateKind::Avg => "avg",
                AggregateKind::Min => "min",
                AggregateKind::Max => "max",
                AggregateKind::Variance => "var",
            };
            q.push(("kind".to_owned(), Json::Str(name.to_owned())));
            if let Some(column) = column {
                q.push(("column".to_owned(), Json::Str(column.clone())));
            }
        }
    }
    let b = &request.bounds;
    let mut bounds = vec![("confidence".to_owned(), Json::Num(b.confidence))];
    if let Some(e) = b.max_relative_error {
        bounds.push(("max_relative_error".to_owned(), Json::Num(e)));
    }
    if let Some(rows) = b.max_rows_scanned {
        bounds.push(("max_rows_scanned".to_owned(), Json::Num(rows as f64)));
    }
    Json::Obj(vec![
        ("id".to_owned(), Json::Num(id as f64)),
        ("query".to_owned(), Json::Obj(q)),
        ("bounds".to_owned(), Json::Obj(bounds)),
    ])
    .render()
}

/// The `metrics` command line with `id`.
pub fn metrics_line(id: u64) -> String {
    Json::Obj(vec![
        ("id".to_owned(), Json::Num(id as f64)),
        ("cmd".to_owned(), Json::Str("metrics".to_owned())),
    ])
    .render()
}

fn predicate_json(p: &Predicate) -> Json {
    let op = |name: &str| ("op".to_owned(), Json::Str(name.to_owned()));
    let column = |c: &str| ("column".to_owned(), Json::Str(c.to_owned()));
    let all = |args: &[Predicate]| {
        (
            "args".to_owned(),
            Json::Arr(args.iter().map(predicate_json).collect()),
        )
    };
    Json::Obj(match p {
        Predicate::True => vec![op("true")],
        Predicate::False => vec![op("false")],
        Predicate::Compare {
            column: c,
            op: o,
            value,
        } => {
            let name = match o {
                CompareOp::Lt => "lt",
                CompareOp::LtEq => "le",
                CompareOp::Gt => "gt",
                CompareOp::GtEq => "ge",
                CompareOp::Eq => "eq",
                CompareOp::NotEq => "ne",
            };
            vec![op(name), column(c), ("value".to_owned(), value_json(value))]
        }
        Predicate::Between {
            column: c,
            low,
            high,
        } => vec![
            op("between"),
            column(c),
            ("low".to_owned(), value_json(low)),
            ("high".to_owned(), value_json(high)),
        ],
        Predicate::IsNull(c) => vec![op("is_null"), column(c)],
        Predicate::IsNotNull(c) => vec![op("is_not_null"), column(c)],
        Predicate::And(args) => vec![op("and"), all(args)],
        Predicate::Or(args) => vec![op("or"), all(args)],
        Predicate::Not(arg) => vec![op("not"), ("arg".to_owned(), predicate_json(arg))],
    })
}

fn value_json(v: &Value) -> Json {
    match v {
        Value::Float64(x) => Json::Num(*x),
        Value::Int64(x) => Json::Num(*x as f64),
        Value::Bool(b) => Json::Bool(*b),
        Value::Utf8(s) => Json::Str(s.clone()),
        Value::Null => Json::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciborq_serve::protocol::{parse_request, Request as Wire};

    fn mix() -> Mix {
        Mix {
            aggregate_fraction: 0.75,
            budget_rows: 1_000,
        }
    }

    #[test]
    fn request_lines_round_trip_through_the_protocol() {
        let mut traffic = Traffic::new(7, mix());
        for id in 0..200 {
            let request = traffic.next(&["photoobj", "other"]);
            let line = request_line(id, &request);
            match parse_request(&line).unwrap() {
                Wire::Query { query, bounds, .. } => {
                    assert_eq!(*query, request.query, "{line}");
                    assert_eq!(bounds, request.bounds, "{line}");
                }
                other => panic!("not a query: {other:?}"),
            }
        }
        assert!(matches!(
            parse_request(&metrics_line(3)).unwrap(),
            Wire::Metrics { .. }
        ));
    }

    #[test]
    fn every_combination_appears_in_proportion() {
        let mut traffic = Traffic::new(11, mix());
        let requests: Vec<Request> = (0..64).map(|_| traffic.next(&["a", "b"])).collect();
        for eps in EPSILONS {
            for table in ["a", "b"] {
                let with = |budget: bool| {
                    requests
                        .iter()
                        .filter(|r| {
                            r.epsilon() == eps
                                && r.query.table == table
                                && r.bounds.max_rows_scanned.is_some() == budget
                        })
                        .count()
                };
                assert_eq!((with(true), with(false)), (2, 6), "{eps} {table}");
            }
        }
        assert!(requests.iter().all(|r| r.bounds.time_budget.is_none()));
    }
}
