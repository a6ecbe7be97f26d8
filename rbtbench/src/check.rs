//! Output checks: bitwise equality of releases, the isometry behind
//! Corollary 1, and equal k-means partitions on release and original.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbt_cluster::metrics::same_partition;
use rbt_cluster::{KMeans, KMeansInit, KMeansResult};
use rbt_data::Dataset;
use rbt_linalg::Matrix;

use crate::measure::median;
use crate::report::Report;
use crate::trace::Tracer;

/// Largest tolerated |‖xᵢ−xⱼ‖ − ‖x′ᵢ−x′ⱼ‖| between the normalized data and
/// its release.
pub const ISOMETRY_TOL: f64 = 1e-9;

pub fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    // An OR of XORs without early exit, which the compiler vectorizes.
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .fold(0u64, |acc, (x, y)| acc | (x.to_bits() ^ y.to_bits()))
            == 0
}

/// `Ok` when two datasets are bitwise the same release.
pub fn same_release(got: &Dataset, want: &Dataset) -> Result<(), String> {
    if got.matrix().shape() != want.matrix().shape() {
        return Err(format!(
            "shape {:?}, want {:?}",
            got.matrix().shape(),
            want.matrix().shape()
        ));
    }
    if got.columns() != want.columns() || got.ids() != want.ids() {
        return Err("column names or ids differ".to_string());
    }
    if !same_bits(got.matrix(), want.matrix()) {
        return Err("values differ bitwise".to_string());
    }
    Ok(())
}

/// Largest distance drift over `pairs` seeded row pairs.
pub fn isometry_residual(x: &Matrix, y: &Matrix, pairs: usize, rng: &mut StdRng) -> f64 {
    let m = x.rows();
    let dist = |a: &[f64], b: &[f64]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt()
    };
    (0..pairs)
        .map(|_| {
            let i = rng.random_range(0..m);
            let j = rng.random_range(0..m);
            (dist(x.row(i), x.row(j)) - dist(y.row(i), y.row(j))).abs()
        })
        .fold(0.0, f64::max)
}

/// The miner's k-means: k = 8, first-k seeding, exactly `iters` Lloyd
/// iterations (a negative tolerance never stops early), so its cost does
/// not depend on how fast a seed's data converges.
fn kmeans(iters: usize) -> KMeans {
    KMeans::new(8)
        .expect("k is positive")
        .with_init(KMeansInit::FirstK)
        .with_max_iters(iters)
        .with_tol(-1.0)
}

/// The miner: k-means on a release, timed on every fit.
pub struct Miner {
    km: KMeans,
    times: Vec<f64>,
    iterations: usize,
}

impl Miner {
    pub fn new(iters: usize) -> Miner {
        Miner {
            km: kmeans(iters),
            times: Vec::new(),
            iterations: 0,
        }
    }

    /// One timed fit on the release.
    pub fn fit(
        &mut self,
        report: &mut Report,
        tracer: &mut Tracer,
        released: &Matrix,
    ) -> Option<KMeansResult> {
        let t = Instant::now();
        // First-k seeding draws nothing from the generator.
        let r = self
            .km
            .fit(released, &mut rand::rngs::StdRng::seed_from_u64(0));
        let end = Instant::now();
        self.times.push((end - t).as_secs_f64());
        tracer.record("kmeans.fit", "cluster.kmeans", 0, 0, t, end);
        match r {
            Ok(r) => {
                report.ok("cluster", 1);
                self.iterations = r.iterations;
                Some(r)
            }
            Err(e) => {
                report.failed("cluster", format!("k-means on the release: {e}"));
                None
            }
        }
    }

    /// Corollary 1 on this release: k-means on it and on the normalized
    /// original give the same partition, and sampled distances agree
    /// within [`ISOMETRY_TOL`].
    pub fn check(
        &mut self,
        report: &mut Report,
        tracer: &mut Tracer,
        released: &Matrix,
        normalized: &Matrix,
        rng: &mut StdRng,
    ) {
        let on_release = self.fit(report, tracer, released);
        match (on_release, self.km.fit(normalized, rng)) {
            (Some(a), Ok(b)) => {
                if same_partition(&a.labels, &b.labels) {
                    report.ok("verify", 1);
                } else {
                    report.mismatch(
                        "verify",
                        "k-means partitions of the release and the original differ".to_string(),
                    );
                }
            }
            (_, Err(e)) => report.failed("verify", format!("k-means on the original: {e}")),
            (None, _) => {}
        }
        let residual = isometry_residual(normalized, released, 2000, rng);
        if residual <= ISOMETRY_TOL {
            report.ok("verify", 1);
        } else {
            report.mismatch(
                "verify",
                format!("isometry residual {residual:e} exceeds {ISOMETRY_TOL:e}"),
            );
        }
    }

    pub fn finish(&self, report: &mut Report) {
        let fit_s = median(&self.times);
        report.set_n("cluster_s", fit_s, "s", self.times.len());
        report.set_n("kmeans.fit_s", fit_s, "s", self.times.len());
        report.set("kmeans.iterations", self.iterations as f64, "count");
        report.set(
            "kmeans.ms_per_iter",
            fit_s * 1e3 / self.iterations.max(1) as f64,
            "ms",
        );
    }
}
