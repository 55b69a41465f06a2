//! Seeded synthetic datasets matching the evaluated tasks' shapes.
//!
//! The real MNIST / CIFAR-10 / JSC / UNSW-NB15 data is not redistributable
//! here; these generators produce datasets with the same dimensionality
//! and class count, built from random class prototypes plus bit-flip
//! noise — learnable structure that exercises the same training and
//! extraction paths the real data would.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A labelled binary dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    /// Feature vectors (binary).
    pub xs: Vec<Vec<bool>>,
    /// Class labels (`0..classes`).
    pub ys: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.xs.first().map_or(0, Vec::len)
    }

    /// Splits into (train, test) at `train_fraction`.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `(0, 1)`.
    pub fn split(&self, train_fraction: f64) -> (Dataset, Dataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "fraction must be in (0, 1)"
        );
        let cut = (self.len() as f64 * train_fraction) as usize;
        (
            Dataset {
                xs: self.xs[..cut].to_vec(),
                ys: self.ys[..cut].to_vec(),
                classes: self.classes,
            },
            Dataset {
                xs: self.xs[cut..].to_vec(),
                ys: self.ys[cut..].to_vec(),
                classes: self.classes,
            },
        )
    }
}

/// Prototype-plus-noise generator: `classes` random prototypes over `dim`
/// bits; each sample copies its class prototype and flips each bit with
/// probability `noise`.
pub fn prototype_dataset(seed: u64, n: usize, dim: usize, classes: usize, noise: f64) -> Dataset {
    assert!(classes >= 2, "need at least two classes");
    let mut rng = StdRng::seed_from_u64(seed);
    let prototypes: Vec<Vec<bool>> = (0..classes)
        .map(|_| (0..dim).map(|_| rng.random_bool(0.5)).collect())
        .collect();
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        let c = rng.random_range(0..classes);
        let x: Vec<bool> = prototypes[c]
            .iter()
            .map(|&b| if rng.random_bool(noise) { !b } else { b })
            .collect();
        xs.push(x);
        ys.push(c);
    }
    Dataset { xs, ys, classes }
}

/// UNSW-NB15-like network intrusion detection: 593 binary features
/// (the preprocessing of Murovic et al. the paper reuses), 2 classes.
pub fn synthetic_nid(seed: u64, n: usize) -> Dataset {
    prototype_dataset(seed, n, 593, 2, 0.15)
}

/// Jet substructure classification: 16 physics features quantized to
/// 4 bits each (64 binary inputs), 5 jet classes.
pub fn synthetic_jsc(seed: u64, n: usize) -> Dataset {
    prototype_dataset(seed, n, 64, 5, 0.12)
}

/// MNIST-like: 28×28 binarized pixels, 10 digit classes.
pub fn synthetic_mnist(seed: u64, n: usize) -> Dataset {
    prototype_dataset(seed, n, 28 * 28, 10, 0.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_tasks() {
        let nid = synthetic_nid(1, 50);
        assert_eq!(nid.dim(), 593);
        assert_eq!(nid.classes, 2);
        let jsc = synthetic_jsc(1, 50);
        assert_eq!(jsc.dim(), 64);
        assert_eq!(jsc.classes, 5);
        let mnist = synthetic_mnist(1, 20);
        assert_eq!(mnist.dim(), 784);
        assert_eq!(mnist.classes, 10);
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(synthetic_nid(7, 30), synthetic_nid(7, 30));
        assert_ne!(synthetic_nid(7, 30), synthetic_nid(8, 30));
    }

    #[test]
    fn nearest_prototype_is_learnable() {
        // A nearest-prototype classifier must beat chance by a wide
        // margin, or the datasets are useless for the examples.
        let ds = synthetic_jsc(3, 400);
        let mut rng = StdRng::seed_from_u64(3);
        let prototypes: Vec<Vec<bool>> = (0..ds.classes)
            .map(|_| (0..ds.dim()).map(|_| rng.random_bool(0.5)).collect())
            .collect();
        let mut correct = 0;
        for (x, &y) in ds.xs.iter().zip(&ds.ys) {
            let best = prototypes
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| p.iter().zip(x).filter(|&(a, b)| a != b).count())
                .map(|(c, _)| c)
                .unwrap();
            if best == y {
                correct += 1;
            }
        }
        let acc = correct as f64 / ds.len() as f64;
        assert!(acc > 0.9, "nearest-prototype accuracy {acc}");
    }

    #[test]
    fn split_partitions() {
        let ds = synthetic_nid(2, 100);
        let (train, test) = ds.split(0.8);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
        assert_eq!(train.classes, 2);
    }
}
