//! Non-i.i.d. client partitioners.
//!
//! Implements the two label-skew regimes of the paper's §V:
//!
//! - **Q-non-i.i.d.** (quantity-based): every client owns samples of exactly
//!   `S` classes, with an equal sample budget per client — the paper's
//!   `(S, #samples)` notation.
//! - **D-non-i.i.d.** (distribution-based): every client draws its label
//!   distribution from a symmetric Dirichlet with concentration `α`
//!   (0.3 in the paper) — the `(0.3, #samples)` notation.
//!
//! Because the underlying data is generated rather than partitioned from a
//! fixed corpus, each client's samples are drawn fresh from the generator
//! under the client's label distribution; statistically this is equivalent
//! to partitioning an infinite corpus and keeps every client's budget exact.

use crate::sample::{ClientData, Sample};
use crate::synth::{SynthVision, SynthVisionSpec};
use calibre_tensor::{rng, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Label-skew regime for a federated dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NonIid {
    /// I.i.d. sanity setting: uniform labels everywhere.
    Iid,
    /// Quantity-based label skew: each client holds exactly
    /// `classes_per_client` classes.
    Quantity {
        /// Number of distinct classes per client (`S`).
        classes_per_client: usize,
    },
    /// Distribution-based label skew: per-client label distribution drawn
    /// from `Dirichlet(alpha)`.
    Dirichlet {
        /// Concentration parameter (`0.3` in the paper).
        alpha: f64,
    },
}

/// Configuration of a federated dataset build.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionConfig {
    /// Number of clients to generate.
    pub num_clients: usize,
    /// Labeled training samples per client.
    pub train_per_client: usize,
    /// Labeled test samples per client (same label distribution as train).
    pub test_per_client: usize,
    /// Unlabeled samples per client (0 for the CIFAR analogs; large for the
    /// STL-10 analog).
    pub unlabeled_per_client: usize,
    /// Label-skew regime.
    pub non_iid: NonIid,
    /// Master seed; every client derives a distinct sub-seed from it.
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            num_clients: 10,
            train_per_client: 100,
            test_per_client: 40,
            unlabeled_per_client: 0,
            non_iid: NonIid::Dirichlet { alpha: 0.3 },
            seed: 7,
        }
    }
}

/// A complete federated dataset: the shared generator plus one
/// [`ClientData`] per client, each beside a cache of its rendered training
/// split.
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    generator: SynthVision,
    clients: Vec<ClientData>,
    /// `train_obs[c]` is `generator.render_batch(&clients[c].train)`, filled
    /// by the first [`FederatedDataset::train_observations`] call for `c`.
    /// It cannot go stale: the generator and the samples are fixed once a
    /// constructor returns (the feature shift is applied before any cache
    /// can fill), and clients are only handed out as `&ClientData`.
    train_obs: Vec<OnceLock<Matrix>>,
}

impl FederatedDataset {
    /// Builds a federated dataset for `spec` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_clients == 0`, or if a quantity-based regime
    /// asks for more classes per client than the dataset has.
    pub fn build(spec: SynthVisionSpec, config: &PartitionConfig) -> Self {
        assert!(config.num_clients > 0, "need at least one client");
        if let NonIid::Quantity { classes_per_client } = config.non_iid {
            assert!(
                classes_per_client >= 1 && classes_per_client <= spec.num_classes,
                "classes_per_client {classes_per_client} out of range 1..={}",
                spec.num_classes
            );
        }
        let generator = SynthVision::new(spec);
        let k = generator.num_classes();
        let mut clients = Vec::with_capacity(config.num_clients);
        for c in 0..config.num_clients {
            // Independent, reproducible stream per client.
            let mut crng =
                rng::seeded(config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c as u64 + 1)));
            let dist = client_label_distribution(&config.non_iid, k, &mut crng);
            clients.push(generate_client(&generator, &dist, config, &mut crng));
        }
        FederatedDataset::new(generator, clients)
    }

    /// A dataset over `clients` with every observation cache empty.
    fn new(generator: SynthVision, clients: Vec<ClientData>) -> Self {
        let train_obs = clients.iter().map(|_| OnceLock::new()).collect();
        FederatedDataset {
            generator,
            clients,
            train_obs,
        }
    }

    /// Builds a federated dataset with additional per-client *covariate*
    /// shift: every client's samples share a client-specific nuisance bias
    /// drawn from `N(0, shift_std²)` per coordinate.
    ///
    /// The paper studies label skew only; feature shift is the natural
    /// companion heterogeneity axis (clients with different cameras /
    /// sensors / environments) and exercises the same code paths, so it is
    /// provided as a library extension for heterogeneity sweeps.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`FederatedDataset::build`], or
    /// if `shift_std` is negative.
    pub fn build_with_feature_shift(
        spec: SynthVisionSpec,
        config: &PartitionConfig,
        shift_std: f32,
    ) -> Self {
        assert!(shift_std >= 0.0, "shift_std must be non-negative");
        let mut fed = Self::build(spec, config);
        if shift_std == 0.0 {
            return fed;
        }
        let nuisance_dim = fed.generator.spec().nuisance_dim;
        for (c, client) in fed.clients.iter_mut().enumerate() {
            let mut crng = rng::seeded(
                config.seed ^ 0xFEA7_5417 ^ (0xD6E8_FEB8_6659_FD93u64.wrapping_mul(c as u64 + 1)),
            );
            let shift: Vec<f32> = (0..nuisance_dim)
                .map(|_| shift_std * rng::normal(&mut crng))
                .collect();
            for sample in client
                .train
                .iter_mut()
                .chain(client.test.iter_mut())
                .chain(client.unlabeled.iter_mut())
            {
                for (u, &s) in sample.nuisance.iter_mut().zip(&shift) {
                    *u += s;
                }
            }
        }
        fed
    }

    /// The shared data generator (used for rendering observations).
    pub fn generator(&self) -> &SynthVision {
        &self.generator
    }

    /// Per-client datasets.
    pub fn clients(&self) -> &[ClientData] {
        &self.clients
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// One client's data.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn client(&self, id: usize) -> &ClientData {
        &self.clients[id]
    }

    /// Client `id`'s labeled training split rendered as one
    /// `(train_len, obs_dim)` matrix: row `i` is the canonical observation of
    /// `client(id).train[i]`. The first call renders the split (on whichever
    /// thread asks first); every later call returns the same matrix.
    ///
    /// Supervised training loops reach it through
    /// [`FederatedDataset::train_batch`]. The SSL, personalization and
    /// evaluation paths render their inputs with the generator and never
    /// fill the cache.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn train_observations(&self, id: usize) -> &Matrix {
        let train = &self.client(id).train;
        self.train_obs[id].get_or_init(|| self.generator.render_batch(train))
    }

    /// Client `id`'s rendered training split if a training loop has already
    /// filled it; `None` before that or for an out-of-range `id`.
    pub fn cached_train_observations(&self, id: usize) -> Option<&Matrix> {
        self.train_obs.get(id).and_then(OnceLock::get)
    }

    /// One labeled mini-batch of client `id`'s training split: the rows
    /// `batch` (indices into `train`, any order, repeats allowed) gathered
    /// from [`FederatedDataset::train_observations`], and their labels.
    /// Bit-identical to `generator().render_batch` of the same samples.
    ///
    /// # Panics
    ///
    /// Panics if `id` or any index in `batch` is out of range.
    pub fn train_batch(&self, id: usize, batch: &[usize]) -> (Matrix, Vec<usize>) {
        let x = self.train_observations(id).gather_rows(batch);
        // `gather_rows` has already rejected any out-of-range index, so
        // `filter_map` keeps every entry of `batch`.
        let train = &self.client(id).train;
        let y = batch
            .iter()
            .filter_map(|&i| train.get(i))
            .map(Sample::expect_label)
            .collect();
        (x, y)
    }

    /// Splits off the last `n` clients as a "novel" cohort that never
    /// participates in training (the paper's 50 unseen clients in Fig. 4).
    ///
    /// # Panics
    ///
    /// Panics if `n >= num_clients`.
    pub fn split_novel(self, n: usize) -> (FederatedDataset, FederatedDataset) {
        assert!(
            n < self.clients.len(),
            "cannot split off all clients as novel"
        );
        let mut clients = self.clients;
        let novel = clients.split_off(clients.len() - n);
        (
            FederatedDataset::new(self.generator.clone(), clients),
            FederatedDataset::new(self.generator, novel),
        )
    }

    /// Histogram of training labels over all clients, length `num_classes`.
    pub fn global_label_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.generator.num_classes()];
        for c in &self.clients {
            for s in &c.train {
                hist[s.expect_label()] += 1;
            }
        }
        hist
    }
}

/// Draws the per-client label distribution for the given regime.
fn client_label_distribution<R: Rng + ?Sized>(
    non_iid: &NonIid,
    num_classes: usize,
    rng_: &mut R,
) -> Vec<f64> {
    match *non_iid {
        NonIid::Iid => vec![1.0 / num_classes as f64; num_classes],
        NonIid::Dirichlet { alpha } => rng::dirichlet(rng_, alpha, num_classes),
        NonIid::Quantity { classes_per_client } => {
            let chosen = rng::sample_without_replacement(rng_, num_classes, classes_per_client);
            let share = 1.0 / classes_per_client as f64;
            (0..num_classes)
                .map(|k| if chosen.contains(&k) { share } else { 0.0 })
                .collect()
        }
    }
}

/// Draws `n` labels from a distribution, guaranteeing exact proportions up to
/// rounding (stratified draw, then a multinomial top-up for the remainder).
fn draw_labels<R: Rng + ?Sized>(dist: &[f64], n: usize, rng_: &mut R) -> Vec<usize> {
    let mut labels = Vec::with_capacity(n);
    // Deterministic floor allocation keeps every client's class mix faithful
    // to its distribution even for small n.
    for (k, &p) in dist.iter().enumerate() {
        let count = (p * n as f64).floor() as usize;
        labels.extend(std::iter::repeat_n(k, count));
    }
    // Top up the rounding remainder with independent draws.
    while labels.len() < n {
        labels.push(sample_categorical(dist, rng_));
    }
    // Shuffle so batches are not sorted by class.
    let perm = rng::permutation(rng_, labels.len());
    perm.into_iter().map(|i| labels[i]).collect()
}

/// One draw from a categorical distribution (inverse-CDF).
fn sample_categorical<R: Rng + ?Sized>(dist: &[f64], rng_: &mut R) -> usize {
    let total: f64 = dist.iter().sum();
    let mut u = rng_.gen::<f64>() * total;
    for (k, &p) in dist.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return k;
        }
    }
    dist.len() - 1
}

fn generate_client<R: Rng + ?Sized>(
    generator: &SynthVision,
    dist: &[f64],
    config: &PartitionConfig,
    rng_: &mut R,
) -> ClientData {
    let make = |labels: Vec<usize>, rng_: &mut R| -> Vec<Sample> {
        labels
            .into_iter()
            .map(|k| generator.sample(k, rng_))
            .collect()
    };
    let train = make(draw_labels(dist, config.train_per_client, rng_), rng_);
    let test = make(draw_labels(dist, config.test_per_client, rng_), rng_);
    let unlabeled = draw_labels(dist, config.unlabeled_per_client, rng_)
        .into_iter()
        .map(|k| generator.sample_unlabeled(k, rng_))
        .collect();
    ClientData {
        train,
        test,
        unlabeled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_classes(data: &ClientData) -> usize {
        data.train_classes().len()
    }

    #[test]
    fn build_produces_requested_sizes() {
        let cfg = PartitionConfig {
            num_clients: 5,
            train_per_client: 50,
            test_per_client: 20,
            unlabeled_per_client: 30,
            non_iid: NonIid::Iid,
            seed: 1,
        };
        let fed = FederatedDataset::build(SynthVisionSpec::cifar10(), &cfg);
        assert_eq!(fed.num_clients(), 5);
        for c in fed.clients() {
            assert_eq!(c.train_len(), 50);
            assert_eq!(c.test_len(), 20);
            assert_eq!(c.unlabeled.len(), 30);
            assert!(c.unlabeled.iter().all(|s| s.label.is_none()));
        }
    }

    #[test]
    fn quantity_partition_limits_classes_per_client() {
        let cfg = PartitionConfig {
            num_clients: 8,
            train_per_client: 60,
            test_per_client: 20,
            unlabeled_per_client: 0,
            non_iid: NonIid::Quantity {
                classes_per_client: 2,
            },
            seed: 2,
        };
        let fed = FederatedDataset::build(SynthVisionSpec::cifar10(), &cfg);
        for c in fed.clients() {
            assert_eq!(count_classes(c), 2, "classes: {:?}", c.train_classes());
            // Test distribution mirrors train distribution.
            let test_classes: Vec<usize> = {
                let mut t = c.test_labels();
                t.sort_unstable();
                t.dedup();
                t
            };
            assert_eq!(test_classes, c.train_classes());
        }
    }

    #[test]
    fn dirichlet_partition_is_skewed_but_covers_dataset() {
        let cfg = PartitionConfig {
            num_clients: 30,
            train_per_client: 60,
            test_per_client: 20,
            unlabeled_per_client: 0,
            non_iid: NonIid::Dirichlet { alpha: 0.3 },
            seed: 3,
        };
        let fed = FederatedDataset::build(SynthVisionSpec::cifar10(), &cfg);
        // Skew: at least one client should be dominated by few classes.
        let min_classes = fed.clients().iter().map(count_classes).min().unwrap();
        assert!(
            min_classes < 10,
            "Dirichlet 0.3 should produce skewed clients"
        );
        // Coverage: globally all 10 classes appear.
        let hist = fed.global_label_histogram();
        assert!(hist.iter().all(|&h| h > 0), "global histogram {hist:?}");
    }

    #[test]
    fn iid_partition_is_roughly_uniform() {
        let cfg = PartitionConfig {
            num_clients: 4,
            train_per_client: 1000,
            test_per_client: 10,
            unlabeled_per_client: 0,
            non_iid: NonIid::Iid,
            seed: 4,
        };
        let fed = FederatedDataset::build(SynthVisionSpec::cifar10(), &cfg);
        for c in fed.clients() {
            let mut hist = vec![0usize; 10];
            for l in c.train_labels() {
                hist[l] += 1;
            }
            for &h in &hist {
                assert!((80..=120).contains(&h), "iid histogram {hist:?}");
            }
        }
    }

    #[test]
    fn builds_are_reproducible() {
        let cfg = PartitionConfig::default();
        let a = FederatedDataset::build(SynthVisionSpec::cifar10(), &cfg);
        let b = FederatedDataset::build(SynthVisionSpec::cifar10(), &cfg);
        assert_eq!(a.client(0).train, b.client(0).train);
        assert_eq!(a.client(3).test, b.client(3).test);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = PartitionConfig::default();
        let a = FederatedDataset::build(SynthVisionSpec::cifar10(), &cfg);
        cfg.seed += 1;
        let b = FederatedDataset::build(SynthVisionSpec::cifar10(), &cfg);
        assert_ne!(a.client(0).train, b.client(0).train);
    }

    #[test]
    fn train_observations_are_rendered_once() {
        let fed = FederatedDataset::build(SynthVisionSpec::cifar10(), &PartitionConfig::default());
        assert!(fed.cached_train_observations(1).is_none());
        let first = fed.train_observations(1);
        let second = fed.train_observations(1);
        assert!(std::ptr::eq(first, second));
        assert_eq!(first.as_slice().as_ptr(), second.as_slice().as_ptr());
        assert!(std::ptr::eq(
            fed.cached_train_observations(1).unwrap(),
            first
        ));
        assert_eq!(first.shape(), (fed.client(1).train_len(), 64));
        assert!(
            fed.cached_train_observations(0).is_none(),
            "other clients stay empty"
        );
        assert!(fed.cached_train_observations(fed.num_clients()).is_none());
    }

    #[test]
    fn split_novel_partitions_clients() {
        let cfg = PartitionConfig {
            num_clients: 12,
            ..PartitionConfig::default()
        };
        let fed = FederatedDataset::build(SynthVisionSpec::cifar10(), &cfg);
        let (seen, novel) = fed.split_novel(4);
        assert_eq!(seen.num_clients(), 8);
        assert_eq!(novel.num_clients(), 4);
    }

    #[test]
    fn feature_shift_moves_clients_apart_in_nuisance_space() {
        let cfg = PartitionConfig {
            num_clients: 3,
            train_per_client: 20,
            test_per_client: 5,
            unlabeled_per_client: 5,
            non_iid: NonIid::Iid,
            seed: 9,
        };
        let plain = FederatedDataset::build(SynthVisionSpec::cifar10(), &cfg);
        let shifted =
            FederatedDataset::build_with_feature_shift(SynthVisionSpec::cifar10(), &cfg, 2.0);
        // Same labels and semantics, different nuisance.
        assert_eq!(
            plain.client(0).train_labels(),
            shifted.client(0).train_labels()
        );
        assert_eq!(
            plain.client(0).train[0].semantic,
            shifted.client(0).train[0].semantic
        );
        assert_ne!(
            plain.client(0).train[0].nuisance,
            shifted.client(0).train[0].nuisance
        );
        // Per-client mean nuisance differs strongly across shifted clients.
        let mean_nuisance = |fed: &FederatedDataset, id: usize| -> Vec<f32> {
            let data = fed.client(id);
            let dim = data.train[0].nuisance.len();
            let mut acc = vec![0.0f32; dim];
            for s in &data.train {
                for (a, &v) in acc.iter_mut().zip(&s.nuisance) {
                    *a += v;
                }
            }
            acc.iter().map(|v| v / data.train.len() as f32).collect()
        };
        let d01: f32 = mean_nuisance(&shifted, 0)
            .iter()
            .zip(mean_nuisance(&shifted, 1))
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let p01: f32 = mean_nuisance(&plain, 0)
            .iter()
            .zip(mean_nuisance(&plain, 1))
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert!(d01 > p01 * 4.0, "shifted {d01} vs plain {p01}");
    }

    #[test]
    fn zero_feature_shift_is_identical_to_plain_build() {
        let cfg = PartitionConfig::default();
        let plain = FederatedDataset::build(SynthVisionSpec::cifar10(), &cfg);
        let shifted =
            FederatedDataset::build_with_feature_shift(SynthVisionSpec::cifar10(), &cfg, 0.0);
        assert_eq!(plain.client(0).train, shifted.client(0).train);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantity_rejects_too_many_classes() {
        let cfg = PartitionConfig {
            non_iid: NonIid::Quantity {
                classes_per_client: 11,
            },
            ..PartitionConfig::default()
        };
        FederatedDataset::build(SynthVisionSpec::cifar10(), &cfg);
    }

    #[test]
    fn draw_labels_respects_distribution() {
        let mut r = rng::seeded(5);
        let dist = vec![0.5, 0.5, 0.0, 0.0];
        let labels = draw_labels(&dist, 100, &mut r);
        assert_eq!(labels.len(), 100);
        assert!(labels.iter().all(|&l| l < 2));
        let zeros = labels.iter().filter(|&&l| l == 0).count();
        assert_eq!(zeros, 50, "floor allocation is exact for round proportions");
    }
}
