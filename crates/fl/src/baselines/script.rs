//! Script baselines: purely local training, no federation at all.
//!
//! The paper's §V-A: "we allow each client to train its personalized model
//! … separately based solely on their local datasets. Script-Convergent
//! refers to the model trained until convergence, whereas Script-Fair
//! corresponds to the model trained after 10 epochs." These anchor the
//! claim that pFL-SSL personalization can be *worse than no federation*.

use crate::baselines::BaselineResult;
use crate::config::FlConfig;
use crate::model::{train_supervised, ClassifierModel, TrainScope};
use crate::parallel::parallel_map;
use crate::personalize::PersonalizationOutcome;
use calibre_data::FederatedDataset;
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::rng;

/// Epoch budget that stands in for "trained until convergence".
const CONVERGENT_EPOCHS: usize = 60;
/// The paper's Script-Fair budget.
const FAIR_EPOCHS: usize = 10;

/// Runs a Script baseline: every client trains a full local classifier with
/// no communication. `convergent` selects Script-Convergent (long budget)
/// vs Script-Fair (10 epochs).
pub fn run_script(fed: &FederatedDataset, cfg: &FlConfig, convergent: bool) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    let epochs = if convergent {
        CONVERGENT_EPOCHS
    } else {
        FAIR_EPOCHS
    };
    let ids: Vec<usize> = (0..fed.num_clients()).collect();
    let accuracies = parallel_map(&ids, |&id| {
        let mut model = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed ^ 0x5C1F7 ^ id as u64);
        // Long purely-local runs on tiny datasets can blow up without a
        // norm bound; clipping keeps Script-Convergent stable.
        let mut opt = Sgd::new(SgdConfig {
            lr: cfg.local_lr,
            momentum: cfg.local_momentum,
            weight_decay: 0.0,
            grad_clip: 5.0,
        });
        let mut r = rng::seeded(cfg.seed ^ 0x05_C1F7_5EED ^ id as u64);
        train_supervised(
            &mut model,
            fed,
            id,
            epochs,
            cfg.batch_size,
            &mut opt,
            TrainScope::Full,
            &mut r,
        );
        model.test_accuracy(fed.client(id), fed.generator())
    });
    let seen = PersonalizationOutcome::from_accuracies(accuracies);

    // No shared encoder exists; export a fresh one so novel-client
    // evaluation measures exactly what a Script novice would have.
    let fresh = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed ^ 0x5C1F7);
    BaselineResult {
        name: if convergent {
            "Script-Convergent"
        } else {
            "Script-Fair"
        }
        .to_string(),
        seen,
        encoder: fresh.encoder().clone(),
        round_losses: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_data::{NonIid, PartitionConfig, SynthVisionSpec};

    fn fed() -> FederatedDataset {
        FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 3,
                train_per_client: 50,
                test_per_client: 20,
                unlabeled_per_client: 0,
                non_iid: NonIid::Quantity {
                    classes_per_client: 2,
                },
                seed: 43,
            },
        )
    }

    #[test]
    fn script_fair_learns_two_way_tasks_locally() {
        let mut cfg = FlConfig::for_input(64);
        cfg.batch_size = 16;
        let result = run_script(&fed(), &cfg, false);
        assert!(
            result.stats().mean > 0.7,
            "Script-Fair on 2-class clients {:?}",
            result.stats()
        );
    }

    #[test]
    fn convergent_budget_is_at_least_as_good_as_fair() {
        let mut cfg = FlConfig::for_input(64);
        cfg.batch_size = 16;
        let fed = fed();
        let fair = run_script(&fed, &cfg, false);
        let convergent = run_script(&fed, &cfg, true);
        assert!(
            convergent.stats().mean >= fair.stats().mean - 0.05,
            "convergent {:?} vs fair {:?}",
            convergent.stats(),
            fair.stats()
        );
    }
}
