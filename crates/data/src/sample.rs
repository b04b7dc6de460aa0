//! Sample and client-dataset types.
//!
//! A [`Sample`] stores the *latent* description of a data point — its class
//! semantic vector and its nuisance vector — not the rendered observation.
//! Observations are rendered by the [`SynthVision`](crate::SynthVision)
//! generator, which is what lets the augmentation pipeline create fresh
//! views of the same underlying content, exactly as image augmentation does
//! for real photos.
//!
//! Augmented views, test splits and personalization inputs are rendered
//! each time they are needed. The one exception is the canonical rendering
//! of a client's labeled training split, which every supervised local loop
//! reads epoch after epoch: the
//! [`FederatedDataset`](crate::FederatedDataset) renders it once, the first
//! time a training loop asks
//! ([`FederatedDataset::train_observations`](crate::FederatedDataset::train_observations)),
//! and keeps it beside the client's [`ClientData`]. The cache cannot go
//! stale: the renderer is fixed, samples are only modified while the
//! dataset is being built, and a built dataset hands out clients only as
//! `&ClientData`.

use serde::{Deserialize, Serialize};

/// One data point in latent form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Class-conditional semantic latent (shared by all views of the sample).
    pub semantic: Vec<f32>,
    /// Nuisance latent (what augmentation perturbs / SSL must discard).
    pub nuisance: Vec<f32>,
    /// Ground-truth class label. `None` for the unlabeled pool (STL-10 analog).
    pub label: Option<usize>,
}

impl Sample {
    /// The label of a labeled sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is unlabeled.
    pub fn expect_label(&self) -> usize {
        // analyze:allow(no-expect) -- this accessor *is* the documented
        // panicking contract; callers with unlabeled data match on `label`.
        self.label.expect("sample is unlabeled")
    }
}

/// A single client's local data: labeled train/test splits plus an optional
/// unlabeled pool usable only by label-free (SSL) training stages.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClientData {
    /// Labeled training samples.
    pub train: Vec<Sample>,
    /// Labeled test samples (same class distribution as `train`, per §III of
    /// the paper).
    pub test: Vec<Sample>,
    /// Unlabeled samples (empty for the CIFAR analogs, populated for the
    /// STL-10 analog).
    pub unlabeled: Vec<Sample>,
}

impl ClientData {
    /// Labels of the training samples.
    pub fn train_labels(&self) -> Vec<usize> {
        self.train.iter().map(Sample::expect_label).collect()
    }

    /// Labels of the test samples.
    pub fn test_labels(&self) -> Vec<usize> {
        self.test.iter().map(Sample::expect_label).collect()
    }

    /// Distinct classes present in the training split, sorted.
    pub fn train_classes(&self) -> Vec<usize> {
        let mut classes = self.train_labels();
        classes.sort_unstable();
        classes.dedup();
        classes
    }

    /// All samples usable by an SSL training stage: train + unlabeled.
    /// Labels are intentionally not exposed on this path.
    pub fn ssl_pool(&self) -> Vec<&Sample> {
        self.train.iter().chain(self.unlabeled.iter()).collect()
    }

    /// Number of labeled training samples.
    pub fn train_len(&self) -> usize {
        self.train.len()
    }

    /// Number of labeled test samples.
    pub fn test_len(&self) -> usize {
        self.test.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labeled(label: usize) -> Sample {
        Sample {
            semantic: vec![0.0],
            nuisance: vec![0.0],
            label: Some(label),
        }
    }

    #[test]
    fn train_classes_are_sorted_and_deduped() {
        let data = ClientData {
            train: vec![labeled(3), labeled(1), labeled(3), labeled(0)],
            ..ClientData::default()
        };
        assert_eq!(data.train_classes(), vec![0, 1, 3]);
    }

    #[test]
    fn ssl_pool_merges_train_and_unlabeled() {
        let data = ClientData {
            train: vec![labeled(0)],
            unlabeled: vec![Sample {
                semantic: vec![1.0],
                nuisance: vec![1.0],
                label: None,
            }],
            ..ClientData::default()
        };
        assert_eq!(data.ssl_pool().len(), 2);
    }

    #[test]
    #[should_panic(expected = "sample is unlabeled")]
    fn expect_label_panics_on_unlabeled() {
        let s = Sample {
            semantic: vec![],
            nuisance: vec![],
            label: None,
        };
        s.expect_label();
    }
}
