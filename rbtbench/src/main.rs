//! rbtbench — the end-to-end and per-layer benchmark of the rbt release
//! library and the `rbt-cli serve` daemon.
//!
//! ```text
//! rbtbench --workload <serve-bulk|serve-small-churn|library-release>
//!          --seed <n> --seconds <s> --trace <0|1> [--daemon <rbt-cli>]
//! ```
//!
//! Every input is generated from `--seed`; every output is checked. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! is the full record (host fingerprint, provenance, per-phase operation
//! counts and every metric with its sample count); standard error gets the
//! same as text. With `--trace 1` the spans are also written to
//! `.bench_run/trace-<workload>-<seed>.jsonl`. The exit code is 0 only when
//! every output was correct and no operation failed.
//!
//! `--corrupt-reply` flips one bit of the first Transform reply before it
//! is checked; the self-test uses it to prove a wrong output fails the run.

mod alloc;
mod check;
mod daemon;
mod gen;
mod layers;
mod library;
mod measure;
mod release;
mod report;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use trace::{Tracer, LAYERS};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub daemon: Option<PathBuf>,
    pub corrupt_reply: bool,
}

/// End-to-end metrics, printed by untraced runs.
const END_TO_END: [(&str, &str); 8] = [
    ("rows_per_s", "rows/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("release_s", "s"),
    ("cluster_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_us_per_row", "us/row"),
];

/// Per-layer metrics, printed by traced runs (the per-layer self times
/// `self_us.<layer>` follow these).
const PER_LAYER: [(&str, &str); 44] = [
    ("codec.crc32_mb_s", "MB/s"),
    ("wire.req_encode_us", "us"),
    ("wire.req_decode_us", "us"),
    ("wire.resp_encode_us", "us"),
    ("wire.resp_decode_us", "us"),
    ("wire.allocs_per_req", "count"),
    ("wire.alloc_bytes_per_req", "B"),
    ("registry.transform_hit_us", "us"),
    ("registry.transform_miss_us", "us"),
    ("registry.load_key_us", "us"),
    ("registry.allocs_per_transform", "count"),
    ("registry.alloc_bytes_per_transform", "B"),
    ("registry.hit_ratio", "fraction"),
    ("registry.evictions", "count"),
    ("api.decode_fitted_us", "us"),
    ("session.transform_us", "us"),
    ("session.allocs_per_batch", "count"),
    ("session.alloc_bytes_per_batch", "B"),
    ("client.send_us_p50", "us"),
    ("client.send_us_p99", "us"),
    ("client.receive_wait_us_p50", "us"),
    ("client.receive_wait_us_p99", "us"),
    ("reactor.residual_us", "us"),
    ("server.runtime.deadlines_shed", "count"),
    ("server.runtime.refused", "count"),
    ("server.runtime.stalled", "count"),
    ("server.runtime.malformed", "count"),
    ("server.runtime.idle_reaped", "count"),
    ("server.runtime.disconnects", "count"),
    ("server.cpu_util", "cores"),
    ("server.threads", "count"),
    ("generator.cpu_util", "cores"),
    ("normalize.fit_transform_s", "s"),
    ("rbt.transform_s", "s"),
    ("pipeline.self_s", "s"),
    ("kmeans.fit_s", "s"),
    ("kmeans.iterations", "count"),
    ("kmeans.ms_per_iter", "ms"),
    ("pool.stream_speedup", "ratio"),
    ("stream.gb_s_over_memcpy", "ratio"),
    ("host.memcpy_gb_s", "GB/s"),
    ("trace.overhead_latency_p50_ms", "ms"),
    ("trace.overhead_rows_per_s", "rows/s"),
    ("trace.spans", "count"),
];

fn usage(msg: &str) -> ExitCode {
    eprintln!("rbtbench: {msg}");
    eprintln!(
        "usage: rbtbench --workload <serve-bulk|serve-small-churn|library-release> \
         --seed <n> --seconds <s> --trace <0|1> [--daemon <rbt-cli>] [--corrupt-reply]"
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        daemon: None,
        corrupt_reply: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reply" {
            args.corrupt_reply = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--daemon" => args.daemon = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn serve_spec(workload: &str) -> Option<serve::Spec> {
    match workload {
        "serve-bulk" => Some(serve::Spec {
            tenants: 2,
            cols: 16,
            train_rows: 4096,
            capacity: None,
            batch_rows: 2048,
            window: 1,
            ops_per_conn: 8,
            zipf: false,
            load_key_every: None,
            releases_per_gap: 8,
            warmup_s: 1.0,
            trace_every: 1,
        }),
        "serve-small-churn" => Some(serve::Spec {
            tenants: 64,
            cols: 4,
            train_rows: 512,
            capacity: Some(16),
            batch_rows: 8,
            window: 8,
            ops_per_conn: 2048,
            zipf: true,
            load_key_every: Some(32),
            releases_per_gap: 32,
            warmup_s: 1.0,
            trace_every: 16,
        }),
        _ => None,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let spec = serve_spec(&args.workload);
    if spec.is_none() && args.workload != "library-release" {
        return usage(&format!("unknown workload {:?}", args.workload));
    }

    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let memcpy = measure::fingerprint(&mut report, &args.workload, args.seed, args.seconds);
    report.provenance("trace", if args.trace { "1" } else { "0" });
    report.set("host.memcpy_gb_s", memcpy, "GB/s");

    let work = Path::new(".bench_run").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    match &spec {
        Some(spec) => serve::run(spec, &args, &work, &mut report, &mut tracer, memcpy),
        None => library::run(&args, &mut report, &mut tracer, memcpy),
    }
    let _ = std::fs::remove_dir_all(&work);

    let mut wanted: Vec<(&str, &str)> = Vec::new();
    let self_names: Vec<String> = LAYERS.iter().map(|l| format!("self_us.{l}")).collect();
    if args.trace {
        let by_layer = tracer.self_us_by_layer();
        for (layer, name) in LAYERS.iter().zip(&self_names) {
            // A layer with no spans was not exercised by this workload.
            report.set(name, by_layer.get(layer).copied().unwrap_or(0.0), "us");
        }
        report.set("trace.spans", tracer.spans.len() as f64, "count");
        let _ = std::fs::create_dir_all(".bench_run");
        let path =
            Path::new(".bench_run").join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, tracer.to_jsonl()) {
            eprintln!("rbtbench: writing {}: {e}", path.display());
        }
        wanted.extend(PER_LAYER.iter().copied());
        wanted.extend(self_names.iter().map(|n| (n.as_str(), "us")));
    } else {
        wanted.extend(END_TO_END.iter().copied());
    }
    let result = report.render_result(&wanted);
    // Failed over attempted operations, set-up included. It is 0 on a
    // healthy run, so it is a field of the result line, not a metric.
    let error_rate = report.failed_ops() as f64 / report.attempted().max(1) as f64;
    report.set_n(
        "error_rate",
        error_rate,
        "fraction",
        report.attempted() as usize,
    );
    eprint!(
        "{}",
        report.render_text(&format!("rbtbench {}", args.workload))
    );
    println!("{}", report.render_record());
    println!("{result}");
    if report.correct() && report.failed_ops() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
