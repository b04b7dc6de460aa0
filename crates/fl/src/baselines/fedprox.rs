//! FedProx (Li et al., MLSys 2020): FedAvg with a proximal term
//! `μ/2 · ‖w − w_global‖²` in every local objective, damping client drift
//! under heterogeneity.
//!
//! Not part of the paper's benchmark roster — provided as a library
//! extension because it is the most common drift-control baseline and the
//! plumbing (per-batch proximal pull) was already needed for Ditto.

use crate::baselines::{baseline_round, client_round_seed, evaluate_global, BaselineResult};
use crate::config::FlConfig;
use crate::model::{supervised_step, ClassifierModel, TrainScope};
use crate::resilient::ClientOutcome;
use crate::scheduler::RoundScheduler;
use calibre_data::batch::batches;
use calibre_data::FederatedDataset;
use calibre_tensor::nn::Module;
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::rng;

/// Runs FedProx end to end with proximal strength `mu`; evaluation uses the
/// `-FT` rule (head fine-tuning), making it directly comparable with
/// FedAvg-FT.
pub fn run_fedprox(fed: &FederatedDataset, cfg: &FlConfig, mu: f32) -> BaselineResult {
    assert!(mu >= 0.0, "proximal strength must be non-negative");
    let num_classes = fed.generator().num_classes();
    let mut global = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let scheduler = RoundScheduler::from_config(cfg, fed.num_clients());
    let mut round_losses = Vec::with_capacity(scheduler.rounds());

    for round in 0..scheduler.rounds() {
        let global_flat = global.to_flat();
        baseline_round(
            &scheduler,
            round,
            &mut global,
            &mut round_losses,
            |_| (),
            |id, global, ()| {
                let data = fed.client(id);
                let mut local = global.clone();
                let mut opt = Sgd::new(SgdConfig::with_lr_momentum(
                    cfg.local_lr,
                    cfg.local_momentum,
                ));
                let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
                let mut loss_sum = 0.0;
                let mut steps = 0;
                for _ in 0..cfg.local_epochs {
                    for batch in batches(data.train.len(), cfg.batch_size, false, &mut r) {
                        let (x, y) = fed.train_batch(id, &batch);
                        loss_sum += supervised_step(&mut local, &x, &y, &mut opt, TrainScope::Full);
                        // Proximal pull toward the round's global parameters.
                        if mu > 0.0 {
                            let local_flat = local.to_flat();
                            let pulled: Vec<f32> = local_flat
                                .iter()
                                .zip(global_flat.iter())
                                .map(|(&w, &g)| w - cfg.local_lr * mu * (w - g))
                                .collect();
                            local.load_flat(&pulled);
                        }
                        steps += 1;
                    }
                }
                ClientOutcome {
                    state: (),
                    flat: local.to_flat(),
                    count: data.train_len(),
                    payload: loss_sum / steps.max(1) as f32,
                }
            },
        );
    }

    let seen = evaluate_global(&global, fed, &cfg.probe, true);
    BaselineResult {
        name: "FedProx-FT".to_string(),
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
                seed: 61,
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
    fn fedprox_learns_under_label_skew() {
        let result = run_fedprox(&tiny_fed(), &tiny_cfg(), 0.1);
        assert!(
            result.stats().mean > 0.5,
            "FedProx-FT accuracy {:?}",
            result.stats()
        );
    }

    #[test]
    fn zero_mu_matches_fedavg() {
        use crate::baselines::fedavg::run_fedavg;
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let prox = run_fedprox(&fed, &cfg, 0.0);
        let avg = run_fedavg(&fed, &cfg, true);
        assert_eq!(prox.seen.accuracies, avg.seen.accuracies);
    }

    #[test]
    fn proximal_term_keeps_local_models_closer_to_global() {
        // Compare one client's post-update distance to the global model with
        // and without the proximal pull. Run a single round with one client.
        let fed = tiny_fed();
        let mut cfg = tiny_cfg();
        cfg.rounds = 1;
        cfg.clients_per_round = 1;
        let init = ClassifierModel::new(&cfg.ssl, 10, cfg.seed).to_flat();
        let distance = |result: &BaselineResult| -> f32 {
            result
                .encoder
                .to_flat()
                .iter()
                .zip(init.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt()
        };
        let loose = run_fedprox(&fed, &cfg, 0.0);
        let tight = run_fedprox(&fed, &cfg, 5.0);
        assert!(
            distance(&tight) < distance(&loose),
            "prox {} should be closer than plain {}",
            distance(&tight),
            distance(&loose)
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_mu_rejected() {
        run_fedprox(&tiny_fed(), &tiny_cfg(), -1.0);
    }
}
