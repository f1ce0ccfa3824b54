//! The benchmark's workloads and the inputs each one draws from a seed.

use crate::program::{Shape, Transport};

/// One named workload: the large shape the estimate and the ground truth
/// run at, and how much simulated time a run pools for accuracy.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub clusters: u32,
    pub partitions: usize,
    pub transport: Transport,
    /// Simulated seconds of each estimate and ground-truth run.
    pub duration_s: f64,
    /// Estimate/truth pairs whose observable-cluster samples are pooled
    /// for the accuracy metrics. Fixed per workload, so the accuracy of a
    /// seed does not depend on how fast the host is; sized so the pairs
    /// take about two thirds of a 30-second run on a 2-core Xeon.
    pub pooled_pairs: usize,
}

/// Every workload. README.md explains the choice of each.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "c32-newreno",
        clusters: 32,
        partitions: 1,
        transport: Transport::NewReno,
        duration_s: 2.5,
        pooled_pairs: 24,
    },
    Workload {
        name: "c8-newreno-p2",
        clusters: 8,
        partitions: 2,
        transport: Transport::NewReno,
        duration_s: 2.5,
        pooled_pairs: 48,
    },
    Workload {
        name: "c16-dctcp",
        clusters: 16,
        partitions: 1,
        transport: Transport::Dctcp { k: 20 },
        duration_s: 2.5,
        pooled_pairs: 32,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One seed per set-up (small-scale run plus training) a run performs; the
/// seed drives the small-scale traffic and the weight initialisation.
/// `setup_s` is the interquartile mean of the set-ups, and their models
/// take turns serving the estimate runs.
///
/// The seeds are part of the workload, not drawn from the benchmark seed:
/// the 2-cluster, 2-second training run sees so few flows that the fitted
/// feeder rate, and with it the estimate's cost, swings by up to 1.7x from
/// one training seed to the next, which would bury any change in the
/// program under input noise.
pub const SETUP_SEEDS: [u64; 5] = [1001, 1002, 1003, 1004, 1005];

/// SplitMix64's output function: a bijective mix of 64 bits.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The traffic seed of the `i`-th run, a pure function of the benchmark
/// seed. Kept below 2^32 so it reads the same in any log or tool.
fn run_seed(seed: u64, i: u64) -> u64 {
    mix(mix(seed) ^ mix(i)) >> 32
}

impl Workload {
    /// Shape of the `i`-th estimate/truth pair, whose traffic seed is
    /// drawn from the benchmark seed.
    pub fn run_shape(&self, seed: u64, i: usize) -> Shape {
        Shape {
            clusters: self.clusters,
            partitions: self.partitions,
            transport: self.transport,
            duration_s: self.duration_s,
            seed: run_seed(seed, i as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_every_generated_input() {
        for w in &WORKLOADS {
            for i in 0..w.pooled_pairs {
                assert_ne!(
                    w.run_shape(1, i).seed,
                    w.run_shape(2, i).seed,
                    "{} run {i}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn same_seed_gives_same_inputs_and_runs_differ() {
        let w = &WORKLOADS[0];
        assert_eq!(w.run_shape(7, 3).seed, w.run_shape(7, 3).seed);
        let mut all: Vec<u64> = (0..w.pooled_pairs)
            .map(|i| w.run_shape(7, i).seed)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "two inputs of one run share a seed");
    }

    #[test]
    fn workload_names_are_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
    }
}
