//! Quantiles, `/proc` readers and the host fingerprint.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::report::Report;

/// Nearest-rank quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples a p99 needs: ten beyond it.
pub const P99_SAMPLES: usize = 1000;

/// The highest percentile reported is p99, so a run needs
/// [`P99_SAMPLES`] latency samples.
pub fn check_p99_samples(report: &mut Report, what: &str, n: usize) {
    if n < P99_SAMPLES {
        report.failed(
            "measure",
            format!("{what}: {n} latency samples, fewer than the 1000 a p99 needs"),
        );
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (USER_HZ, fixed
/// at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of a process (`"self"` or a pid).
pub fn cpu_seconds(pid: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / TICKS_PER_S,
        _ => f64::NAN,
    }
}

/// CPU seconds the calling thread has run, at nanosecond resolution.
pub fn thread_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |ns| ns / 1e9)
}

/// A `kB` field of `/proc/<pid>/status`, or a plain count field.
fn status_field(pid: &str, field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(f64::NAN)
}

/// Peak resident set (VmHWM) in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    status_field(pid, "VmHWM") / 1024.0
}

pub fn threads(pid: &str) -> f64 {
    status_field(pid, "Threads")
}

/// Best-of-five memcpy bandwidth over 64 MiB, read + write, in GB/s.
pub fn memcpy_gb_s() -> f64 {
    let src = vec![1u8; 64 << 20];
    let mut dst = vec![0u8; 64 << 20];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (2 * src.len()) as f64 / best / 1e9
}

fn command_line(program: &str, args: &[&str]) -> String {
    // Git must not look above the working directory for a repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the program's sources, so records from a checkout without
/// git still name the code they measured.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "shims", "src"] {
        walk(&root.join(d), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

/// Records the host fingerprint and provenance; returns memcpy GB/s.
pub fn fingerprint(report: &mut Report, workload: &str, seed: u64, seconds: u64) -> f64 {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let memcpy = memcpy_gb_s();
    report.provenance("workload", workload);
    report.provenance("seed", seed.to_string());
    report.provenance("seconds", seconds.to_string());
    report.provenance("cpu_model", cpu);
    report.provenance("nproc", nproc.to_string());
    report.provenance("memcpy_gb_s", format!("{memcpy:.3}"));
    report.provenance("rustc", command_line("rustc", &["--version"]));
    report.provenance("git_revision", command_line("git", &["rev-parse", "HEAD"]));
    report.provenance("source_digest", source_digest(Path::new(".")));
    report.provenance(
        "RBT_THREADS",
        std::env::var("RBT_THREADS").unwrap_or_else(|_| "unset".to_string()),
    );
    memcpy
}
