//! Timed set-up: catalog tables built from generated batches, plus
//! `create_impressions`. Generating the batches is harness time and is not
//! counted; each batch is dropped once appended, so the harness never holds
//! a second copy of the loaded data.

use crate::report::{median, Report};
use sciborq_columnar::{Catalog, Table};
use sciborq_core::{ExplorationSession, SamplingPolicy, SciborqConfig};
use sciborq_skyserver::PhotoObjGenerator;
use sciborq_workload::{AttributeDomain, FocalCluster, WorkloadGenerator};
use std::time::{Duration, Instant};

/// The attributes every session tracks (those of `sciborq-served`).
pub fn tracked() -> [(&'static str, AttributeDomain); 2] {
    [
        ("ra", AttributeDomain::new(0.0, 360.0, 72)),
        ("dec", AttributeDomain::new(-90.0, 90.0, 36)),
    ]
}

/// The biased policy every biased hierarchy uses.
pub fn biased() -> SamplingPolicy {
    SamplingPolicy::biased(["ra", "dec"])
}

/// What one set-up should build.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Seed of the generated rows and of the session's samplers.
    pub seed: u64,
    /// Base rows per table.
    pub rows: usize,
    /// Rows per generated batch.
    pub batch_rows: usize,
    /// Tables to build (each a copy of the same rows) and their policies.
    pub tables: Vec<(&'static str, SamplingPolicy)>,
    /// Impression layer sizes.
    pub layers: Vec<usize>,
    /// Whether the session collects query traces.
    pub traces: bool,
    /// Queries logged into the predicate set before impressions are built.
    pub training_queries: usize,
    /// Sky region the training queries look at; `None` for the default
    /// SkyServer clusters.
    pub training_focus: Option<FocalCluster>,
}

/// A built session and what building it cost.
#[derive(Debug)]
pub struct Built {
    /// The session, ready to answer queries.
    pub session: ExplorationSession,
    /// The row generator, positioned after the base rows (object ids
    /// continue from there).
    pub generator: PhotoObjGenerator,
    /// Time appending batches, registering tables and creating the session.
    pub catalog: Duration,
    /// Time of each table's `create_impressions`, in plan order.
    pub impressions: Vec<Duration>,
}

impl Built {
    /// The timed total: catalog plus every `create_impressions`.
    pub fn setup(&self) -> Duration {
        self.catalog + self.impressions.iter().sum::<Duration>()
    }
}

/// Build the plan once.
pub fn build(plan: &Plan) -> Result<Built, String> {
    let mut generator = PhotoObjGenerator::default_sky(plan.seed);
    let mut tables: Vec<Table> = plan
        .tables
        .iter()
        .map(|(name, _)| Table::with_capacity(*name, generator.schema().clone(), plan.rows))
        .collect();
    let mut catalog_time = Duration::ZERO;
    let mut remaining = plan.rows;
    while remaining > 0 {
        let rows = remaining.min(plan.batch_rows);
        let batch = generator.next_batch(rows);
        let started = Instant::now();
        for table in &mut tables {
            table.append_batch(&batch).map_err(|e| e.to_string())?;
        }
        catalog_time += started.elapsed();
        remaining -= rows;
    }
    let started = Instant::now();
    let catalog = Catalog::new();
    for table in tables {
        catalog.register(table).map_err(|e| e.to_string())?;
    }
    let config = SciborqConfig::with_layers(plan.layers.clone())
        .with_seed(plan.seed)
        .with_collect_traces(plan.traces);
    let session =
        ExplorationSession::new(catalog, config, &tracked()).map_err(|e| e.to_string())?;
    catalog_time += started.elapsed();

    {
        let mut predicate_set = session.predicate_set();
        let mut training = WorkloadGenerator::default_sky(plan.seed ^ 0x7EA1_1106);
        if let Some(focus) = plan.training_focus {
            training.shift_focus(vec![focus]);
        }
        for query in training.generate(plan.training_queries) {
            predicate_set.log_query(&query);
        }
    }
    let mut impressions = Vec::new();
    for (name, policy) in &plan.tables {
        let started = Instant::now();
        session
            .create_impressions(name, policy.clone())
            .map_err(|e| e.to_string())?;
        impressions.push(started.elapsed());
    }
    Ok(Built {
        session,
        generator,
        catalog: catalog_time,
        impressions,
    })
}

/// Build `reps` times (dropping each build before the next, so only one
/// lives at a time), report `setup_s` and `layer.build_s*` as medians, and
/// keep the last build. `extra` runs on every build, is timed, and counts
/// toward its set-up time (the serving workload wraps the session in a
/// server there).
pub fn build_repeated<T>(
    report: &mut Report,
    plan: &Plan,
    reps: usize,
    mut extra: impl FnMut(Built) -> Result<(T, Duration), String>,
) -> Result<T, String> {
    let mut setups = Vec::new();
    let mut builds: Vec<Vec<f64>> = vec![Vec::new(); plan.tables.len()];
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let built = build(plan)?;
        let mut setup = built.setup();
        for (per_policy, d) in builds.iter_mut().zip(&built.impressions) {
            per_policy.push(d.as_secs_f64());
        }
        let (value, extra_time) = extra(built)?;
        setup += extra_time;
        setups.push(setup.as_secs_f64());
        kept = Some(value);
    }
    let n = setups.len() as u64;
    report.note(format!(
        "setup_s reps: {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.e2e("setup_s", median(&mut setups), "s", n);
    let mut total = 0.0;
    for ((_, policy), mut times) in plan.tables.iter().zip(builds) {
        let m = median(&mut times);
        total += m;
        report.layer(&format!("layer.build_s.{}", policy.name()), m, "s", n);
    }
    report.layer("layer.build_s", total, "s", n);
    report.meta("base_rows", plan.rows);
    report.meta(
        "tables",
        plan.tables
            .iter()
            .map(|(name, policy)| format!("{name}:{}", policy.name()))
            .collect::<Vec<_>>()
            .join(","),
    );
    report.meta("layers", format!("{:?}", plan.layers));
    report.meta("setup_reps", n);
    kept.ok_or_else(|| "no set-up ran".to_owned())
}
