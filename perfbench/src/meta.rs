//! Run metadata: the hardware and revision a number was measured on.

use crate::{Report, RunArgs};
use std::fs;
use std::path::Path;

/// Record cores, CPU model, cache sizes, revision and run settings.
pub fn record(report: &mut Report, args: &RunArgs) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.meta("nproc", nproc);
    report.meta("cpu_model", cpu_model());
    for (level, size) in cache_sizes() {
        report.meta(&format!("cache_{level}"), size);
    }
    report.meta("git_rev", git_rev(Path::new(".")));
    report.meta("seed", args.seed);
    report.meta("seconds", args.seconds);
    report.meta("traced", args.trace);
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `(name, size)` of each cache of CPU 0, e.g. `("L2", "2048K")`.
fn cache_sizes() -> Vec<(String, String)> {
    let root = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |dir: &Path, file: &str| {
        fs::read_to_string(dir.join(file))
            .ok()
            .map(|s| s.trim().to_owned())
    };
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = root.join(format!("index{index}"));
        let (Some(level), Some(kind), Some(size)) =
            (read(&dir, "level"), read(&dir, "type"), read(&dir, "size"))
        else {
            continue;
        };
        let name = match kind.as_str() {
            "Data" => format!("L{level}d"),
            "Instruction" => format!("L{level}i"),
            _ => format!("L{level}"),
        };
        out.push((name, size));
    }
    if out.is_empty() {
        out.push(("unknown".to_owned(), "unreadable".to_owned()));
    }
    out
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
