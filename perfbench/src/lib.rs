//! SciBORQ's repository benchmark: time to a bounded answer, answer
//! quality and maintenance cost, over three seeded workloads.
//!
//! * `explore` — one client calling [`sciborq_core::ExplorationSession::execute`]
//!   on SkyServer cone-search traffic against a uniform and a biased
//!   hierarchy over 1M-row base tables.
//! * `serve` — two closed-loop clients driving `protocol::parse_request` →
//!   `QueryServer::submit` → `protocol::render_reply` in process.
//! * `ingest` — one thread loading 10k-row batches, answering queries and
//!   adapting a biased hierarchy after each focus shift.
//!
//! Every layer is measured from outside, by timing the benchmark's own
//! calls into public functions. See `README.md` in this directory for the
//! metric catalogue and how to run it.

pub mod explore;
pub mod ingest;
pub mod meta;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod samples;
pub mod serve;
pub mod setup;
pub mod trace;
pub mod traffic;

pub use report::{Metric, Report};

/// The end-to-end metrics of `BENCHMARK.json`, in its order.
pub const END_TO_END: [&str; 8] = [
    "qps",
    "tba_p50_ms",
    "tba_p99_ms",
    "bound_met_ratio",
    "claim_hold_ratio",
    "answered_ratio",
    "setup_s",
    "rss_peak_mb",
];

/// The per-layer metrics of `BENCHMARK.json`, in its order: those every
/// workload measures.
pub const PER_LAYER: [&str; 25] = [
    "protocol.parse_us",
    "protocol.render_us",
    "protocol.reply_bytes",
    "telemetry.snapshot_us",
    "session.execute_us",
    "session.bookkeeping_us",
    "workload.log_query_us",
    "engine.elapsed_us",
    "engine.level_us.layer-1",
    "engine.level_us.layer-2",
    "engine.rows_per_answer",
    "engine.levels_per_answer",
    "engine.wasted_rows_ratio",
    "engine.base_share",
    "columnar.compile_us",
    "columnar.count_ns_per_row",
    "columnar.moments_ns_per_row",
    "columnar.weighted_ns_per_row",
    "stats.estimate_us",
    "layer.build_s",
    "layer.hierarchy_mb",
    "layer.clone_ms",
    "layer.observe_ms",
    "layer.refresh_ms",
    "layer.rebuild_ms",
];

/// The workloads the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process exploration sessions over two hierarchies.
    Explore,
    /// The serving stack driven by two in-process clients.
    Serve,
    /// Loads, queries and adaptation on one biased hierarchy.
    Ingest,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::Explore, Workload::Serve, Workload::Ingest];

    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Serve => "serve",
            Workload::Ingest => "ingest",
        }
    }
}

/// Input sizes of every workload. [`Scale::full`] is what the benchmark
/// measures; [`Scale::tiny`] keeps the benchmark's own tests fast.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Base rows of each `explore` table (two copies of one generation).
    pub explore_rows: usize,
    /// Impression layer sizes of both `explore` hierarchies.
    pub explore_layers: Vec<usize>,
    /// Distinct requests in the `explore` pool the client cycles through.
    pub explore_pool: usize,
    /// Base rows of the `serve` table.
    pub serve_rows: usize,
    /// Impression layer sizes of the `serve` hierarchy.
    pub serve_layers: Vec<usize>,
    /// Distinct request lines in the `serve` hot pool.
    pub serve_pool: usize,
    /// Starting base rows of the `ingest` table.
    pub ingest_rows: usize,
    /// Impression layer sizes of the `ingest` hierarchy.
    pub ingest_layers: Vec<usize>,
    /// Rows per `ingest` load.
    pub ingest_batch_rows: usize,
    /// Loads per `ingest` phase.
    pub ingest_loads_per_phase: usize,
    /// Queries answered after each `ingest` load, per second of `--seconds`.
    pub ingest_queries_per_load_per_s: f64,
    /// Queries logged into the predicate set before impressions are built,
    /// so biased impressions have a focus to follow.
    pub training_queries: usize,
    /// Times the 1M-row set-ups (`explore`, `ingest`) are repeated in one
    /// run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Times the smaller `serve` set-up is repeated in one run.
    pub serve_setup_reps: usize,
    /// Base-data answers per table checked against the scalar oracle.
    pub scalar_checks: usize,
    /// Queries replayed through the columnar and stats probes.
    pub replay_queries: usize,
    /// Rows of the input batch generator's batches during set-up.
    pub generate_batch_rows: usize,
}

impl Scale {
    /// The sizes the benchmark measures.
    pub fn full() -> Scale {
        Scale {
            explore_rows: 1_000_000,
            explore_layers: vec![100_000, 10_000, 1_000],
            explore_pool: 2_048,
            serve_rows: 200_000,
            serve_layers: vec![20_000, 2_000],
            serve_pool: 1_024,
            ingest_rows: 1_000_000,
            ingest_layers: vec![100_000, 10_000, 1_000],
            ingest_batch_rows: 10_000,
            ingest_loads_per_phase: 6,
            ingest_queries_per_load_per_s: 12.0,
            training_queries: 400,
            setup_reps: 7,
            serve_setup_reps: 25,
            scalar_checks: 16,
            replay_queries: 48,
            generate_batch_rows: 100_000,
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn tiny() -> Scale {
        Scale {
            explore_rows: 20_000,
            explore_layers: vec![4_000, 400],
            explore_pool: 64,
            serve_rows: 20_000,
            serve_layers: vec![4_000, 400],
            serve_pool: 32,
            ingest_rows: 20_000,
            ingest_layers: vec![4_000, 400],
            ingest_batch_rows: 1_000,
            ingest_loads_per_phase: 2,
            ingest_queries_per_load_per_s: 30.0,
            training_queries: 100,
            setup_reps: 2,
            serve_setup_reps: 2,
            scalar_checks: 1_000,
            replay_queries: 8,
            generate_batch_rows: 5_000,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Run one workload. `Err` means the correctness gate failed before any
/// timing; the caller exits non-zero without printing a result.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let mut report = Report::new(args.workload, args.seed);
    meta::record(&mut report, args);
    match args.workload {
        Workload::Explore => explore::run(args, &mut report)?,
        Workload::Serve => serve::run(args, &mut report)?,
        Workload::Ingest => ingest::run(args, &mut report)?,
    }
    report.e2e("rss_peak_mb", meta::peak_rss_mb(), "MB", 1);
    Ok(report)
}
