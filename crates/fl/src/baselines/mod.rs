//! The baseline zoo of the Calibre evaluation (§V-A, "Benchmark
//! approaches").
//!
//! | Module | Methods |
//! |---|---|
//! | [`fedavg`] | FedAvg, FedAvg-FT |
//! | [`scaffold`] | SCAFFOLD, SCAFFOLD-FT |
//! | [`fedrep`] | FedRep |
//! | [`fedbabu`] | FedBABU |
//! | [`fedper`] | FedPer |
//! | [`lgfedavg`] | LG-FedAvg |
//! | [`perfedavg`] | PerFedAvg (first-order MAML) |
//! | [`apfl`] | APFL |
//! | [`ditto`] | Ditto |
//! | [`script`] | Script-Convergent, Script-Fair (local-only) |
//! | [`fedema`] | FedEMA (divergence-aware federated BYOL) |
//! | [`fedprox`] | FedProx (extension; not in the paper's roster) |
//!
//! The pFL-SSL family (pFL-SimCLR etc.) lives in [`crate::pfl_ssl`]; Calibre
//! itself lives in the `calibre` crate.
//!
//! Every baseline returns a [`BaselineResult`]: per-seen-client accuracies
//! after its own personalization rule, plus the global encoder used for
//! novel-client evaluation and figure generation.

pub mod apfl;
pub mod ditto;
pub mod fedavg;
pub mod fedbabu;
pub mod fedema;
pub mod fedper;
pub mod fedprox;
pub mod fedrep;
pub mod lgfedavg;
pub mod perfedavg;
pub mod scaffold;
pub mod script;

use crate::metrics::Stats;
use crate::parallel::parallel_map;
use crate::personalize::PersonalizationOutcome;
use calibre_data::FederatedDataset;
use calibre_ssl::{probe_accuracy, train_linear_probe_from, ProbeConfig};
use calibre_tensor::nn::{Linear, Mlp};

/// The outcome of running one baseline's training + personalization.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Method name as reported in the paper's figures.
    pub name: String,
    /// Per-seen-client personalized accuracies and their stats.
    pub seen: PersonalizationOutcome,
    /// The global encoder (novel-client evaluation, t-SNE figures). For
    /// methods without a shared encoder (LG-FedAvg) this is the average of
    /// the client encoders.
    pub encoder: Mlp,
    /// Mean local training loss per round (convergence diagnostics).
    pub round_losses: Vec<f32>,
}

impl BaselineResult {
    /// Convenience accessor for the seen-cohort stats.
    pub fn stats(&self) -> Stats {
        self.seen.stats
    }
}

/// Evaluates a cohort by fine-tuning a given head on frozen encoder
/// features (the `-FT` personalization rule, also used by FedRep / FedPer
/// with their per-client heads).
///
/// `head_for` supplies the initial head per client.
pub fn evaluate_with_head_finetune<F>(
    encoder: &Mlp,
    fed: &FederatedDataset,
    num_classes: usize,
    probe: &ProbeConfig,
    head_for: F,
) -> PersonalizationOutcome
where
    F: Fn(usize) -> Linear + Sync,
{
    let ids: Vec<usize> = (0..fed.num_clients()).collect();
    let accuracies = parallel_map(&ids, |&id| {
        let data = fed.client(id);
        if data.train.is_empty() || data.test.is_empty() {
            return 0.0;
        }
        let train_x = encoder.infer(&fed.generator().render_batch(data.train.iter()));
        let test_x = encoder.infer(&fed.generator().render_batch(data.test.iter()));
        let mut client_probe = *probe;
        client_probe.seed = probe.seed ^ (id as u64).wrapping_mul(0x9E37_79B9);
        let head = train_linear_probe_from(
            head_for(id),
            &train_x,
            &data.train_labels(),
            num_classes,
            &client_probe,
        );
        probe_accuracy(&head, &test_x, &data.test_labels())
    });
    PersonalizationOutcome::from_accuracies(accuracies)
}

/// Derives a per-client, per-round RNG seed from the run seed — the seed
/// of every client's local update in every training loop.
pub fn client_round_seed(run_seed: u64, round: usize, client: usize) -> u64 {
    run_seed
        ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (client as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}
