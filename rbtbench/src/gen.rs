//! Seeded input generation: every input the program sees is drawn here
//! from the workload seed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbt_data::synth::{GaussianComponent, GaussianMixture};
use rbt_data::Dataset;
use rbt_linalg::Matrix;

/// An independent generator for one named stream of the run's inputs.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    // splitmix64 of (seed, stream), so streams do not overlap.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// `k` unit-variance Gaussians with centres drawn uniformly from
/// `[-40, 40]^dim`: clusters far apart next to their spread.
pub fn mixture(rng: &mut StdRng, k: usize, dim: usize) -> GaussianMixture {
    let components = (0..k)
        .map(|_| GaussianComponent {
            center: (0..dim).map(|_| rng.random_range(-40.0..40.0)).collect(),
            std: 1.0,
            weight: 1.0,
        })
        .collect();
    GaussianMixture::new(components).expect("components share one dimension")
}

pub fn table(mix: &GaussianMixture, rows: usize, rng: &mut StdRng) -> Dataset {
    dataset(mix.sample(rows, rng).matrix)
}

pub fn dataset(m: Matrix) -> Dataset {
    let columns = (0..m.cols()).map(|j| format!("attr{j}")).collect();
    Dataset::new(m, columns).expect("one name per column")
}

/// Zipf-like popularity over `n` items (weight of rank r is 1/r), with
/// ranks assigned to items by a seeded shuffle.
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, rng: &mut StdRng) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 1..=n {
            total += 1.0 / r as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut item_of_rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            item_of_rank.swap(i, rng.random_range(0..=i));
        }
        Zipf { cdf, item_of_rank }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.item_of_rank[rank]
    }

    pub fn most_popular(&self) -> usize {
        self.item_of_rank[0]
    }
}
