//! # calibre-data
//!
//! Synthetic vision-like datasets, non-i.i.d. client partitioners and SSL
//! augmentations for the Calibre personalized-federated-learning
//! reproduction (ICDCS 2024).
//!
//! **Role in Algorithm 1:** feeds both stages. The federated *training*
//! stage draws two-view augmented batches from each client's unlabeled SSL
//! pool; the *personalization* stage draws the client's labeled train/test
//! split for the linear probe.
//!
//! The paper evaluates on CIFAR-10 / CIFAR-100 / STL-10 images. This crate
//! provides their synthetic analogs via [`SynthVision`], a seeded
//! class-conditional latent-variable generator (see `DESIGN.md` §2 for the
//! substitution rationale), plus:
//!
//! - [`FederatedDataset`] with the paper's two label-skew regimes
//!   ([`NonIid::Quantity`] and [`NonIid::Dirichlet`]);
//! - two-view SSL augmentation ([`AugmentConfig`],
//!   [`SynthVision::render_two_views`]);
//! - mini-batch iteration shared by every trainer ([`batch`]).
//!
//! # Example
//!
//! ```
//! use calibre_data::{FederatedDataset, PartitionConfig, NonIid, SynthVisionSpec};
//!
//! let config = PartitionConfig {
//!     num_clients: 4,
//!     train_per_client: 50,
//!     test_per_client: 20,
//!     unlabeled_per_client: 0,
//!     non_iid: NonIid::Quantity { classes_per_client: 2 },
//!     seed: 42,
//! };
//! let fed = FederatedDataset::build(SynthVisionSpec::cifar10(), &config);
//! assert_eq!(fed.num_clients(), 4);
//! assert_eq!(fed.client(0).train_classes().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod augment;
mod hetero;
mod partition;
mod sample;
mod synth;

pub mod batch;

pub use augment::AugmentConfig;
pub use batch::render_local_views;
pub use hetero::{
    label_distribution, label_entropy, mean_pairwise_tv, total_variation, HeterogeneityReport,
};
pub use partition::{FederatedDataset, NonIid, PartitionConfig};
pub use sample::{ClientData, Sample};
pub use synth::{SynthVision, SynthVisionSpec};
