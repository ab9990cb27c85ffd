//! The benchmark's own checks: inputs and counts repeat for a seed, another
//! seed changes the inputs, every workload passes its correctness gate at a
//! tiny size, and the metric lists match `BENCHMARK.json`.

use perfbench::traffic::request_line;
use perfbench::{explore, ingest, run, serve, RunArgs, Scale, Workload, END_TO_END, PER_LAYER};
use sciborq_skyserver::PhotoObjGenerator;

fn args(workload: Workload, seed: u64, trace: bool) -> RunArgs {
    RunArgs {
        workload,
        seed,
        seconds: 0.3,
        trace,
        scale: Scale::tiny(),
    }
}

fn lines(workload: Workload, seed: u64) -> Vec<String> {
    let a = args(workload, seed, false);
    let pool = match workload {
        Workload::Explore => explore::pool(&a),
        Workload::Serve => serve::pool(&a),
        Workload::Ingest => {
            let mut generator = PhotoObjGenerator::default_sky(seed);
            ingest::script(&a, &mut generator)
                .into_iter()
                .flatten()
                .flat_map(|step| step.requests)
                .collect()
        }
    };
    pool.iter()
        .enumerate()
        .map(|(i, r)| request_line(i as u64, r))
        .collect()
}

/// The metrics that depend only on the seed.
const COUNTS: [&str; 4] = [
    "engine.rows_per_answer",
    "engine.levels_per_answer",
    "bound_met_ratio",
    "claim_hold_ratio",
];

fn counts(workload: Workload, seed: u64) -> Vec<(String, f64)> {
    let report = run(&args(workload, seed, false)).expect("gate passes");
    report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .filter(|m| COUNTS.contains(&m.name.as_str()))
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

#[test]
fn same_seed_same_batches_and_requests_other_seed_other_inputs() {
    let batches = |seed| {
        let mut generator = PhotoObjGenerator::default_sky(seed);
        (0..3)
            .map(|_| generator.next_batch(500))
            .collect::<Vec<_>>()
    };
    assert_eq!(batches(3), batches(3));
    assert_ne!(batches(3), batches(4));
    for workload in Workload::ALL {
        assert_eq!(lines(workload, 3), lines(workload, 3), "{workload:?}");
        assert_ne!(lines(workload, 3), lines(workload, 4), "{workload:?}");
    }
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    for workload in Workload::ALL {
        let first = counts(workload, 9);
        assert_eq!(first.len(), COUNTS.len(), "{workload:?}: {first:?}");
        assert_eq!(first, counts(workload, 9), "{workload:?}");
    }
}

#[test]
fn every_workload_passes_the_gate_and_reports_every_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(&args(workload, 21, trace))
                .unwrap_or_else(|e| panic!("{workload:?} trace={trace}: {e}"));
            assert!(report.correct(), "{workload:?}: {} failed", report.failed);
            let (names, metrics): (&[&str], _) = if trace {
                (&PER_LAYER, &report.per_layer)
            } else {
                (&END_TO_END, &report.end_to_end)
            };
            report
                .result_json(names, metrics)
                .unwrap_or_else(|e| panic!("{workload:?} trace={trace}: {e}"));
        }
    }
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |section: &str| -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|part| part.split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    };
    assert_eq!(names("end_to_end"), END_TO_END);
    assert_eq!(names("per_layer"), PER_LAYER);
}
