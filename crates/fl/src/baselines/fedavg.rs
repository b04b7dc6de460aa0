//! FedAvg (McMahan et al., AISTATS 2017) and FedAvg-FT.
//!
//! FedAvg trains one global classifier by sample-weighted averaging of full
//! local models. The `-FT` variant (paper §V-A) additionally fine-tunes the
//! head on each client's local data during personalization.

use crate::baselines::{baseline_round, client_round_seed, evaluate_global, BaselineResult};
use crate::config::FlConfig;
use crate::model::{train_supervised, ClassifierModel, TrainScope};
use crate::resilient::ClientOutcome;
use crate::scheduler::RoundScheduler;
use calibre_data::FederatedDataset;
use calibre_tensor::nn::Module;
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::rng;

/// Trains a global classifier with FedAvg and returns it together with the
/// round-loss history.
pub fn train_fedavg_global(fed: &FederatedDataset, cfg: &FlConfig) -> (ClassifierModel, Vec<f32>) {
    let num_classes = fed.generator().num_classes();
    let mut global = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let scheduler = RoundScheduler::from_config(cfg, fed.num_clients());
    let mut round_losses = Vec::with_capacity(scheduler.rounds());

    for round in 0..scheduler.rounds() {
        baseline_round(
            &scheduler,
            round,
            &mut global,
            &mut round_losses,
            |_| (),
            |id, global, ()| {
                let mut local = global.clone();
                let mut opt = Sgd::new(SgdConfig::with_lr_momentum(
                    cfg.local_lr,
                    cfg.local_momentum,
                ));
                let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
                let loss = train_supervised(
                    &mut local,
                    fed,
                    id,
                    cfg.local_epochs,
                    cfg.batch_size,
                    &mut opt,
                    TrainScope::Full,
                    &mut r,
                );
                ClientOutcome {
                    state: (),
                    flat: local.to_flat(),
                    count: fed.client(id).train_len(),
                    payload: loss,
                }
            },
        );
    }
    (global, round_losses)
}

/// Runs FedAvg end to end.
///
/// With `finetune == false` every client evaluates the unmodified global
/// model (plain FedAvg); with `finetune == true` each client fine-tunes the
/// global head on its local data first (FedAvg-FT).
pub fn run_fedavg(fed: &FederatedDataset, cfg: &FlConfig, finetune: bool) -> BaselineResult {
    let (global, round_losses) = train_fedavg_global(fed, cfg);
    let seen = evaluate_global(&global, fed, &cfg.probe, finetune);
    BaselineResult {
        name: if finetune { "FedAvg-FT" } else { "FedAvg" }.to_string(),
        seen,
        encoder: global.encoder().clone(),
        round_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_data::{NonIid, PartitionConfig, SynthVisionSpec};

    fn tiny_fed() -> FederatedDataset {
        FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 4,
                train_per_client: 40,
                test_per_client: 20,
                unlabeled_per_client: 0,
                non_iid: NonIid::Quantity {
                    classes_per_client: 2,
                },
                seed: 11,
            },
        )
    }

    fn tiny_cfg() -> FlConfig {
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 6;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 2;
        cfg
    }

    #[test]
    fn fedavg_ft_beats_plain_fedavg_under_label_skew() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let plain = run_fedavg(&fed, &cfg, false);
        let ft = run_fedavg(&fed, &cfg, true);
        // Under 2-class clients a personalized head is a huge win — this is
        // the paper's core motivation for personalization.
        assert!(
            ft.stats().mean > plain.stats().mean,
            "FT {:?} should beat plain {:?}",
            ft.stats(),
            plain.stats()
        );
        assert!(ft.stats().mean > 0.5, "FT accuracy {:?}", ft.stats());
    }

    #[test]
    fn training_loss_decreases_over_rounds() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let result = run_fedavg(&fed, &cfg, true);
        let first = result.round_losses.first().copied().unwrap();
        let last = result.round_losses.last().copied().unwrap();
        assert!(
            last < first,
            "round losses should fall: {:?}",
            result.round_losses
        );
    }

    #[test]
    fn result_is_deterministic() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let a = run_fedavg(&fed, &cfg, true);
        let b = run_fedavg(&fed, &cfg, true);
        assert_eq!(a.seen.accuracies, b.seen.accuracies);
    }
}
