//! `perfbench --workload <explore|serve|ingest> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints metadata and every metric (with unit and sample count) as text,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics of `BENCHMARK.json` when
//! untraced, its per-layer metrics when traced. Exits 1 without a result
//! when the correctness gate fails, 2 on bad arguments.

use perfbench::{run, RunArgs, Scale, Workload, END_TO_END, PER_LAYER};

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        scale: Scale::full(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench: correctness gate failed: {message}");
            std::process::exit(1);
        }
    };
    print!("{}", report.render_text());
    let line = if args.trace {
        report.result_json(&PER_LAYER, &report.per_layer)
    } else {
        report.result_json(&END_TO_END, &report.end_to_end)
    };
    match line {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}
