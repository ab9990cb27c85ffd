//! Metrics, their text rendering and the one-line JSON result.

use crate::Workload;
use std::fmt::Write as _;
use std::time::Duration;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the README.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Number of samples behind the value.
    pub samples: u64,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload that ran.
    pub workload: Workload,
    /// The seed its inputs came from.
    pub seed: u64,
    /// Run metadata (hardware, sizes, revision).
    pub meta: Vec<(String, String)>,
    /// End-to-end metrics (untraced timing, or seed-determined quality).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    /// Free-form lines: reconciliation, overhead, unmeasurable metrics.
    pub notes: Vec<String>,
    /// Requests attempted in the timed phase.
    pub attempted: u64,
    /// Attempted requests that failed, were shed, got a typed error or
    /// returned a different answer than the correctness gate recorded.
    pub failed: u64,
}

impl Report {
    /// An empty report.
    pub fn new(workload: Workload, seed: u64) -> Report {
        Report {
            workload,
            seed,
            meta: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Record a metadata entry.
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_owned(), value.to_string()));
    }

    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.end_to_end.push(metric(name, value, unit, samples));
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.per_layer.push(metric(name, value, unit, samples));
    }

    /// Record a per-layer metric as the mean of `values`, if there are any.
    pub fn layer_mean(&mut self, name: &str, values: &[f64], unit: &'static str) {
        if !values.is_empty() {
            self.layer(name, mean(values), unit, values.len() as u64);
        }
    }

    /// Record a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every request of the timed phase was answered correctly.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human-readable lines: metadata, every metric with unit and sample
    /// count, then notes.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== perfbench workload={} seed={}",
            self.workload.name(),
            self.seed
        );
        for (key, value) in &self.meta {
            let _ = writeln!(out, "meta {key} = {value}");
        }
        for (kind, metrics) in [("e2e", &self.end_to_end), ("layer", &self.per_layer)] {
            for m in metrics {
                let _ = writeln!(
                    out,
                    "{kind} {:<32} {:>16.6} {:<6} samples={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        for line in &self.notes {
            let _ = writeln!(out, "note {line}");
        }
        out
    }

    /// The final JSON line: `correct`, `attempted`, `failed` and exactly the
    /// metrics named in `names`, taken from `metrics`. A name the run did
    /// not measure is an error.
    pub fn result_json(&self, names: &[&str], metrics: &[Metric]) -> Result<String, String> {
        let mut body = String::new();
        for (i, name) in names.iter().enumerate() {
            let m = metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.value, m.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }
}

fn metric(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples,
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile of `values` (`p` in `[0, 1]`); sorts in place.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values`; sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency metrics of one timed phase — `qps`, `tba_p50_ms`, `tba_p99_ms` —
/// each over the whole phase, so the host's speed, which drifts by tens of
/// percent from second to second on a shared machine, averages out as far
/// as the phase is long. `latencies_ms` holds every answered request's time
/// to answer; `busy` is the wall time they share.
pub fn record_latency(report: &mut Report, latencies_ms: &[f64], busy: Duration) {
    let n = latencies_ms.len() as u64;
    let mut latencies = latencies_ms.to_vec();
    report.e2e("qps", n as f64 / busy.as_secs_f64(), "1/s", n);
    let p50 = percentile(&mut latencies, 0.50);
    let p99 = percentile(&mut latencies, 0.99);
    let beyond = latencies.iter().filter(|&&v| v > p99).count();
    report.e2e("tba_p50_ms", p50, "ms", n);
    report.e2e("tba_p99_ms", p99, "ms", n);
    report.note(format!(
        "tba_p99_ms has {beyond} samples beyond it out of {n}{}",
        if beyond < 10 {
            " (fewer than 10: lengthen --seconds)"
        } else {
            ""
        }
    ));
}

/// A closed-loop phase's raw results.
#[derive(Debug, Default)]
pub struct Phase {
    /// Time to answer of every answered request, ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the phase.
    pub wall: Duration,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or answered differently than in the gate.
    pub failed: u64,
}

/// Report a traced phase's overhead against the untraced phase before it.
pub fn overhead(report: &mut Report, untraced: &Phase, traced: &Phase) {
    let (u, t) = (mean(&untraced.latencies_ms), mean(&traced.latencies_ms));
    report.note(format!(
        "trace overhead: mean time to answer {u:.4} ms untraced vs {t:.4} ms traced ({:+.2}%), \
         {} vs {} requests",
        100.0 * (t / u - 1.0),
        untraced.latencies_ms.len(),
        traced.latencies_ms.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_json_has_exactly_the_named_metrics() {
        let mut r = Report::new(Workload::Explore, 1);
        r.attempted = 3;
        r.e2e("qps", 12.5, "1/s", 3);
        r.e2e("extra", 1.0, "count", 1);
        let line = r.result_json(&["qps"], &r.end_to_end).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
        assert!(r.result_json(&["missing"], &r.end_to_end).is_err());
    }
}
