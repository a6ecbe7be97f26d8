//! The data owner's release: `Pipeline::run`, timed whole, and — when
//! tracing — its two stages replayed through their own public calls.

use std::time::Instant;

use rbt_core::{
    PairwiseSecurityThreshold, Pipeline, PipelineOutput, RbtConfig, RbtTransformer, ReleaseSession,
};
use rbt_data::{Dataset, Normalization};

use crate::check::same_bits;
use crate::gen;
use crate::measure::median;
use crate::report::Report;
use crate::trace::Tracer;

/// Security threshold every attribute pair must meet.
const RHO: f64 = 0.05;

fn config() -> RbtConfig {
    RbtConfig::uniform(PairwiseSecurityThreshold::uniform(RHO).expect("rho is in range"))
}

/// Seconds of every timed `Pipeline::run` and of its replayed stages.
#[derive(Default)]
pub struct ReleaseTimes {
    pipeline: Vec<f64>,
    normalize: Vec<f64>,
    method: Vec<f64>,
}

pub struct Released {
    pub out: PipelineOutput,
    /// The persisted session: what the owner hands to the daemon.
    pub key: Vec<u8>,
    /// The seeded draw whose angles met the thresholds.
    rng_stream: u64,
}

/// Releases `data`, trying seeded draws until the thresholds are feasible.
pub fn release(
    report: &mut Report,
    tracer: &mut Tracer,
    times: &mut ReleaseTimes,
    data: &Dataset,
    seed: u64,
    stream: u64,
) -> Option<Released> {
    let pipeline = Pipeline::new(config());
    let mut chosen = None;
    for attempt in 0..20 {
        let rng_stream = stream * 64 + attempt;
        let t = Instant::now();
        let run = pipeline.run(data, &mut gen::rng(seed, rng_stream));
        let end = Instant::now();
        if let Ok(out) = run {
            times.pipeline.push((end - t).as_secs_f64());
            chosen = Some((out, rng_stream, t, end));
            break;
        }
    }
    let Some((out, rng_stream, t, end)) = chosen else {
        report.failed("release", "no feasible release in 20 seeded draws".into());
        return None;
    };
    report.ok("release", 1);

    if tracer.on() {
        let span = tracer.record("pipeline.run", "core.pipeline", stream, 0, t, end);
        let t = Instant::now();
        let fitted = Normalization::zscore_paper().fit_transform(data.matrix());
        let mid = Instant::now();
        times.normalize.push((mid - t).as_secs_f64());
        tracer.record(
            "normalize.fit_transform",
            "data.normalize",
            stream,
            span,
            t,
            mid,
        );
        match fitted {
            Ok((_, normalized)) if same_bits(&normalized, out.normalized.matrix()) => {
                let t = Instant::now();
                let rotated = RbtTransformer::new(config())
                    .transform(&normalized, &mut gen::rng(seed, rng_stream));
                let end = Instant::now();
                times.method.push((end - t).as_secs_f64());
                tracer.record("rbt.transform", "core.method", stream, span, t, end);
                match rotated {
                    Ok(r) if same_bits(&r.transformed, out.released.matrix()) => {
                        report.ok("release", 2)
                    }
                    Ok(_) => {
                        report.mismatch("release", "RBT stage differs from the pipeline".into())
                    }
                    Err(e) => report.failed("release", format!("RBT stage: {e}")),
                }
            }
            Ok(_) => report.mismatch(
                "release",
                "normalize stage differs from the pipeline".into(),
            ),
            Err(e) => report.failed("release", format!("normalize stage: {e}")),
        }
    }

    match ReleaseSession::from_pipeline_output(&out) {
        Ok(session) => Some(Released {
            key: session.with_config(config()).to_bytes(),
            out,
            rng_stream,
        }),
        Err(e) => {
            report.failed("release", format!("session from the release: {e}"));
            None
        }
    }
}

/// Times one more `Pipeline::run` of the same release; it must reproduce
/// the first bit for bit.
pub fn rerelease(
    report: &mut Report,
    times: &mut ReleaseTimes,
    data: &Dataset,
    seed: u64,
    first: &Released,
) {
    let t = Instant::now();
    let run = Pipeline::new(config()).run(data, &mut gen::rng(seed, first.rng_stream));
    times.pipeline.push(t.elapsed().as_secs_f64());
    match run {
        Ok(o) if same_bits(o.released.matrix(), first.out.released.matrix()) => {
            report.ok("release", 1)
        }
        Ok(_) => report.mismatch(
            "release",
            "Pipeline::run did not reproduce its release".into(),
        ),
        Err(e) => report.failed("release", e.to_string()),
    }
}

impl ReleaseTimes {
    pub fn finish(&self, report: &mut Report) {
        let release = median(&self.pipeline);
        report.set_n("release_s", release, "s", self.pipeline.len());
        if !self.normalize.is_empty() {
            let normalize = median(&self.normalize);
            let method = median(&self.method);
            report.set_n(
                "normalize.fit_transform_s",
                normalize,
                "s",
                self.normalize.len(),
            );
            report.set_n("rbt.transform_s", method, "s", self.method.len());
            report.set("pipeline.self_s", release - normalize - method, "s");
        }
    }
}
