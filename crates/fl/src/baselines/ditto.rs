//! Ditto (Li et al., ICML 2021): fair and robust FL through personalization.
//!
//! A global model trains FedAvg-style; in parallel, each client maintains a
//! personal model trained with a proximal term `λ/2 · ‖v − w_global‖²` that
//! tethers it to the global solution. The personal model is the one
//! evaluated — Ditto is the paper's dedicated fairness baseline (§V-A).

use crate::baselines::{baseline_round, client_round_seed, BaselineResult};
use crate::config::FlConfig;
use crate::model::{supervised_step, train_supervised, ClassifierModel, TrainScope};
use crate::parallel::parallel_map;
use crate::personalize::PersonalizationOutcome;
use crate::resilient::ClientOutcome;
use crate::scheduler::RoundScheduler;
use calibre_data::batch::batches;
use calibre_data::FederatedDataset;
use calibre_tensor::nn::Module;
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::rng;

/// The proximal strength λ (Ditto's default grid centers on ~0.1–1).
const LAMBDA: f32 = 0.5;

/// Runs Ditto end to end.
pub fn run_ditto(fed: &FederatedDataset, cfg: &FlConfig) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    let mut global = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let mut personals: Vec<ClassifierModel> = (0..fed.num_clients())
        .map(|id| ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed ^ 0xD1770 ^ id as u64))
        .collect();
    let scheduler = RoundScheduler::from_config(cfg, fed.num_clients());
    let mut round_losses = Vec::with_capacity(scheduler.rounds());

    for round in 0..scheduler.rounds() {
        let global_flat = global.to_flat();
        let outcome = baseline_round(
            &scheduler,
            round,
            &mut global,
            &mut round_losses,
            |id| personals[id].clone(),
            |id, global, mut v| {
                let data = fed.client(id);
                let mut w = global.clone();
                let mut w_opt = Sgd::new(SgdConfig::with_lr_momentum(
                    cfg.local_lr,
                    cfg.local_momentum,
                ));
                let mut v_opt = Sgd::new(SgdConfig::with_lr(cfg.local_lr));
                let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
                let mut loss_sum = 0.0;
                let mut steps = 0;
                for _ in 0..cfg.local_epochs {
                    for batch in batches(data.train.len(), cfg.batch_size, false, &mut r) {
                        let (x, y) = fed.train_batch(id, &batch);
                        // Global-model step (what the server aggregates).
                        loss_sum += supervised_step(&mut w, &x, &y, &mut w_opt, TrainScope::Full);
                        // Personal-model step with the proximal pull toward the
                        // round's global parameters.
                        supervised_step(&mut v, &x, &y, &mut v_opt, TrainScope::Full);
                        let v_flat = v.to_flat();
                        let pulled: Vec<f32> = v_flat
                            .iter()
                            .zip(global_flat.iter())
                            .map(|(&vv, &gg)| vv - cfg.local_lr * LAMBDA * (vv - gg))
                            .collect();
                        v.load_flat(&pulled);
                        steps += 1;
                    }
                }
                ClientOutcome {
                    flat: w.to_flat(),
                    state: v,
                    count: data.train_len(),
                    payload: loss_sum / steps.max(1) as f32,
                }
            },
        );
        for a in outcome.accepted {
            personals[a.id] = a.state;
        }
    }

    // Evaluation: the personal models. Clients never selected during
    // training still hold their initialization, so give every client a
    // final personal pass (this mirrors Ditto's solver, where the personal
    // objective is optimized locally and cheaply).
    let global_flat = global.to_flat();
    let ids: Vec<usize> = (0..fed.num_clients()).collect();
    let accuracies = parallel_map(&ids, |&id| {
        let mut v = personals[id].clone();
        let mut opt = Sgd::new(SgdConfig::with_lr(cfg.probe.lr));
        let mut r = rng::seeded(cfg.seed ^ 0xD1_770E ^ id as u64);
        let data = fed.client(id);
        for _ in 0..cfg.probe.epochs {
            train_supervised(
                &mut v,
                fed,
                id,
                1,
                cfg.probe.batch_size,
                &mut opt,
                TrainScope::Full,
                &mut r,
            );
            let v_flat = v.to_flat();
            let pulled: Vec<f32> = v_flat
                .iter()
                .zip(global_flat.iter())
                .map(|(&vv, &gg)| vv - cfg.probe.lr * LAMBDA * (vv - gg))
                .collect();
            v.load_flat(&pulled);
        }
        v.test_accuracy(data, fed.generator())
    });
    let seen = PersonalizationOutcome::from_accuracies(accuracies);

    BaselineResult {
        name: "Ditto".to_string(),
        seen,
        encoder: global.encoder().clone(),
        round_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_data::{NonIid, PartitionConfig, SynthVisionSpec};

    #[test]
    fn ditto_personal_models_learn() {
        let fed = FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 4,
                train_per_client: 40,
                test_per_client: 20,
                unlabeled_per_client: 0,
                non_iid: NonIid::Quantity {
                    classes_per_client: 2,
                },
                seed: 41,
            },
        );
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 6;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 2;
        let result = run_ditto(&fed, &cfg);
        assert!(
            result.stats().mean > 0.6,
            "Ditto mean accuracy {:?}",
            result.stats()
        );
    }
}
