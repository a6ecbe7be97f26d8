//! The library-release workload: no sockets. A data owner releases a
//! 10⁶×16 table, a miner clusters the release, and the reloaded session
//! streams a fresh table in 8192-row batches.
//!
//! The measured window is a sequence of cycles — one more release, one
//! more k-means fit, a few stream passes with a session reload after each
//! batch — so every metric's samples are spread across the whole run and a
//! burst of host contention moves each median only a little.

use std::collections::BTreeMap;
use std::time::Instant;

use rbt_core::ReleaseSession;
use rbt_data::Dataset;
use rbt_linalg::Matrix;

use crate::check::{same_bits, Miner};
use crate::gen;
use crate::layers::{self, Sample};
use crate::measure::{self, median, quantile};
use crate::release::{release, rerelease, ReleaseTimes};
use crate::report::Report;
use crate::trace::Tracer;
use crate::Args;

const ROWS: usize = 1_000_000;
const COLS: usize = 16;
const BATCH_ROWS: usize = 8192;
const KMEANS_ITERS: usize = 10;
const PASSES_PER_CYCLE: usize = 4;

/// Per-batch stream figures of one stretch of the run.
#[derive(Default)]
struct Stream {
    latency_ms: Vec<f64>,
    rows: usize,
    busy_s: f64,
    cpu_s: f64,
}

impl Stream {
    fn rows_per_s(&self) -> f64 {
        self.rows as f64 / self.busy_s
    }
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer, memcpy: f64) {
    let seed = args.seed;
    let mix = gen::mixture(&mut gen::rng(seed, 1), 8, COLS);
    let data = gen::table(&mix, ROWS, &mut gen::rng(seed, 2));
    let mut times = ReleaseTimes::default();
    let Some(mut first) = release(report, tracer, &mut times, &data, seed, 3) else {
        return;
    };
    let mut miner = Miner::new(KMEANS_ITERS);
    miner.check(
        report,
        tracer,
        first.out.released.matrix(),
        first.out.normalized.matrix(),
        &mut gen::rng(seed, 4),
    );
    // Only the release itself is needed from here on.
    first.out.normalized = Dataset::from_matrix(Matrix::zeros(0, 0));
    let key = first.key.clone();

    // Set-up is reloading the persisted session.
    let mut setups = Vec::new();
    let reload = |report: &mut Report, setups: &mut Vec<f64>| {
        let t = Instant::now();
        let s = ReleaseSession::from_bytes(&key);
        setups.push(t.elapsed().as_secs_f64());
        match s {
            Ok(s) => {
                report.ok("setup", 1);
                Some(s)
            }
            Err(e) => {
                report.failed("setup", format!("reloading the session: {e}"));
                None
            }
        }
    };
    let Some(mut session) = reload(report, &mut setups) else {
        return;
    };
    if session.to_bytes() != key {
        report.mismatch("setup", "the reloaded session persists differently".into());
    }

    // A fresh table, and its release computed untimed on one thread.
    let mut stream_rng = gen::rng(seed, 5);
    let batches: Vec<Dataset> = (0..ROWS)
        .step_by(BATCH_ROWS)
        .map(|start| gen::table(&mix, BATCH_ROWS.min(ROWS - start), &mut stream_rng))
        .collect();
    let mut reference = session.clone().with_threads(1);
    let wants: Vec<(Matrix, usize)> = batches
        .iter()
        .map(|b| {
            let mut out = Matrix::zeros(0, 0);
            let oor = reference
                .transform_batch_into(b, &mut out)
                .expect("own batch transforms");
            (out, oor)
        })
        .collect();
    drop(reference);

    let mut out = Matrix::zeros(0, 0);
    let mut pass =
        |report: &mut Report, tracer: &mut Tracer, setups: &mut Vec<f64>, st: &mut Stream| {
            // The process's CPU over the pass, less what this thread spends
            // checking outputs and reloading the session between the calls.
            let cpu0 = measure::cpu_seconds("self");
            let mut outside_s = 0.0;
            let mut ok = 0;
            for (i, b) in batches.iter().enumerate() {
                let t = Instant::now();
                let r = session.transform_batch_into(b, &mut out);
                let end = Instant::now();
                let outside0 = measure::thread_cpu_seconds();
                tracer.record(
                    "stream.transform_batch_into",
                    "core.session",
                    i as u64,
                    0,
                    t,
                    end,
                );
                match r {
                    Ok(oor) if oor == wants[i].1 && same_bits(&out, &wants[i].0) => {
                        ok += 1;
                        let d = (end - t).as_secs_f64();
                        st.latency_ms.push(d * 1e3);
                        st.rows += b.n_rows();
                        st.busy_s += d;
                    }
                    Ok(_) => report.mismatch(
                        "stream",
                        format!("batch {i} differs from the one-thread release"),
                    ),
                    Err(e) => report.failed("stream", format!("batch {i}: {e}")),
                }
                reload(report, setups);
                outside_s += measure::thread_cpu_seconds() - outside0;
            }
            st.cpu_s += measure::cpu_seconds("self") - cpu0 - outside_s;
            report.ok("stream", ok);
        };

    // One untimed pass warms the caches.
    let epoch = tracer.epoch();
    let mut warm = Stream::default();
    pass(
        report,
        &mut Tracer::new(false, epoch),
        &mut setups,
        &mut warm,
    );
    let (mut untraced, mut traced) = (Stream::default(), Stream::default());
    let started = Instant::now();
    let half = args.seconds as f64 / 2.0;
    loop {
        // On a heavily loaded host the window may end short of the samples
        // a p99 needs; it then runs on, up to twice its length.
        let elapsed = started.elapsed().as_secs_f64();
        let short = !tracer.on() && untraced.latency_ms.len() < measure::P99_SAMPLES;
        if elapsed >= args.seconds as f64 && !(short && elapsed < 2.0 * args.seconds as f64) {
            break;
        }
        rerelease(report, &mut times, &data, seed, &first);
        miner.fit(report, tracer, first.out.released.matrix());
        let tracing = tracer.on() && elapsed >= half;
        for _ in 0..PASSES_PER_CYCLE {
            if tracing {
                pass(report, tracer, &mut setups, &mut traced);
            } else {
                pass(
                    report,
                    &mut Tracer::new(false, epoch),
                    &mut setups,
                    &mut untraced,
                );
            }
        }
    }
    drop(data);
    times.finish(report);
    miner.finish(report);
    report.set_n("setup_s", median(&setups), "s", setups.len());

    let n = untraced.latency_ms.len();
    if !tracer.on() {
        measure::check_p99_samples(report, "stream batch latency", n);
    }
    report.set_n("rows_per_s", untraced.rows_per_s(), "rows/s", n);
    report.set_n(
        "latency_p50_ms",
        quantile(&untraced.latency_ms, 0.5),
        "ms",
        n,
    );
    report.set_n(
        "latency_p99_ms",
        quantile(&untraced.latency_ms, 0.99),
        "ms",
        n,
    );
    report.set(
        "cpu_us_per_row",
        untraced.cpu_s * 1e6 / untraced.rows as f64,
        "us/row",
    );
    report.set("peak_rss_mb", measure::peak_rss_mb("self"), "MB");

    if !tracer.on() {
        return;
    }
    report.set(
        "trace.overhead_latency_p50_ms",
        quantile(&traced.latency_ms, 0.5) - quantile(&untraced.latency_ms, 0.5),
        "ms",
    );
    report.set(
        "trace.overhead_rows_per_s",
        traced.rows_per_s() - untraced.rows_per_s(),
        "rows/s",
    );
    // The layers a server would add around the same batches, replayed
    // in-process, and the pool's share of the stream.
    let samples: Vec<Sample> = batches
        .iter()
        .zip(&wants)
        .take(8)
        .map(|(b, (want, oor))| Sample {
            tenant: "library".to_string(),
            batch: b.clone(),
            want: gen::dataset(want.clone()),
            out_of_range_rows: *oor as u64,
            req: 0,
            roundtrip_span: 0,
            send_span: 0,
        })
        .collect();
    let keys = BTreeMap::from([("library".to_string(), key.clone())]);
    layers::replay(report, tracer, &samples, &keys, 1, 1.0);
    layers::pool_probe(report, tracer, &key, &batches[..16], memcpy, 1.0);
    // No daemon and no socket on this workload.
    for (name, unit) in [
        ("client.send_us_p50", "us"),
        ("client.send_us_p99", "us"),
        ("client.receive_wait_us_p50", "us"),
        ("client.receive_wait_us_p99", "us"),
        ("reactor.residual_us", "us"),
        ("server.cpu_util", "cores"),
        ("generator.cpu_util", "cores"),
        ("server.threads", "count"),
        ("registry.evictions", "count"),
        ("server.runtime.deadlines_shed", "count"),
        ("server.runtime.refused", "count"),
        ("server.runtime.stalled", "count"),
        ("server.runtime.malformed", "count"),
        ("server.runtime.idle_reaped", "count"),
        ("server.runtime.disconnects", "count"),
    ] {
        report.set(name, 0.0, unit);
    }
    report.set("registry.hit_ratio", 1.0, "fraction");
}
