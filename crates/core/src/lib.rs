//! # calibre
//!
//! Reproduction of **Calibre: Towards Fair and Accurate Personalized
//! Federated Learning with Self-Supervised Learning** (Chen, Su, Li —
//! ICDCS 2024).
//!
//! Calibre trains a global encoder with self-supervised learning — so the
//! representation is label-free and fair under label-skewed non-i.i.d. data
//! — and *calibrates* it with a contrastive prototype adaptation mechanism
//! so that, unlike plain pFL-SSL, the representation also carries the
//! cluster structure a lightweight personalized classifier needs:
//!
//! - pseudo-labels via KMeans over batch encodings (prototype generation);
//! - `L_n`, a prototypical-network pull of each encoding toward its
//!   prototype (Algorithm 1, lines 13–17);
//! - `L_p`, an NT-Xent loss over per-view prototypes that makes prototypes
//!   augmentation-stable (lines 8–12);
//! - combined local objective `L = l_s + α (L_p + L_n)` with `α = 0.3`;
//! - divergence-aware server aggregation: clients report the mean distance
//!   of their encodings to their prototypes, and the server up-weights
//!   low-divergence encoders.
//!
//! The crate composes with any of the six SSL methods in `calibre-ssl`
//! (SimCLR, BYOL, SimSiam, MoCoV2, SwAV, SMoG) — exactly the *Calibre (X)*
//! variants of the paper — and with the full baseline zoo in `calibre-fl`.
//!
//! **Role in Algorithm 1:** the whole algorithm, end to end. The federated
//! *training* stage is [`train_calibre_encoder`] (calibrated local updates +
//! divergence-aware aggregation); the *personalization* stage is delegated
//! to `calibre_fl::personalize`; [`run_calibre`] chains the two. The
//! `_observed` variants stream both stages to a
//! `calibre_telemetry::Recorder`.
//!
//! # Example: Calibre (SimCLR) on a small federation
//!
//! ```no_run
//! use calibre::{run_calibre, CalibreConfig};
//! use calibre_data::{AugmentConfig, FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
//! use calibre_fl::FlConfig;
//! use calibre_ssl::SslKind;
//!
//! let fed = FederatedDataset::build(SynthVisionSpec::cifar10(), &PartitionConfig {
//!     num_clients: 10, train_per_client: 100, test_per_client: 40,
//!     unlabeled_per_client: 0, non_iid: NonIid::Dirichlet { alpha: 0.3 }, seed: 1,
//! });
//! let result = run_calibre(
//!     &fed,
//!     &FlConfig::for_input(64),
//!     SslKind::SimClr,
//!     &CalibreConfig::default(),
//!     &AugmentConfig::default(),
//! );
//! println!("mean {:.3} variance {:.5}", result.stats().mean, result.stats().variance);
//! ```

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod framework;
mod loss;

pub use framework::{
    calibre_local_update, calibre_local_update_detailed, calibre_step, calibre_step_in,
    calibre_train_on_views, run_calibre, run_calibre_observed, train_calibre_encoder,
    train_calibre_encoder_observed, train_calibre_encoder_with, LocalUpdate,
};
pub use loss::{calibre_loss, divergence_rate, CalibreConfig, CalibreLoss};
