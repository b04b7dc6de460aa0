//! APFL (Deng et al., 2020): adaptive personalized federated learning.
//!
//! Every client keeps a *local* model `v` alongside the shared model `w`;
//! its personalized predictor is the mixture `ᾱ·v + (1−ᾱ)·w`. During the
//! local update the client trains `w` (shipped to the server, FedAvg-style)
//! and takes mixture-gradient steps on `v`; the mixing weight `α` adapts by
//! a closed-form gradient step, as in the original paper.

use crate::baselines::{baseline_round, client_round_seed, BaselineResult};
use crate::config::FlConfig;
use crate::model::{supervised_step, ClassifierModel, TrainScope};
use crate::parallel::parallel_map;
use crate::personalize::PersonalizationOutcome;
use crate::resilient::ClientOutcome;
use crate::scheduler::RoundScheduler;
use calibre_data::batch::batches;
use calibre_data::FederatedDataset;
use calibre_tensor::nn::{gradients, Binding, Module};
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::{rng, Graph};

/// Builds the mixture model `ᾱ·v + (1−ᾱ)·w`.
fn mix_models(v: &ClassifierModel, w: &ClassifierModel, alpha: f32) -> ClassifierModel {
    let mut mixed = v.clone();
    let vw: Vec<f32> = v
        .to_flat()
        .iter()
        .zip(w.to_flat().iter())
        .map(|(&a, &b)| alpha * a + (1.0 - alpha) * b)
        .collect();
    mixed.load_flat(&vw);
    mixed
}

/// Runs APFL end to end.
pub fn run_apfl(fed: &FederatedDataset, cfg: &FlConfig) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    let mut global = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    // Persistent local models and mixing weights.
    let mut locals: Vec<ClassifierModel> = (0..fed.num_clients())
        .map(|id| ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed ^ 0xAF1 ^ id as u64))
        .collect();
    let mut alphas = vec![0.5f32; fed.num_clients()];
    let scheduler = RoundScheduler::from_config(cfg, fed.num_clients());
    let mut round_losses = Vec::with_capacity(scheduler.rounds());

    for round in 0..scheduler.rounds() {
        let outcome = baseline_round(
            &scheduler,
            round,
            &mut global,
            &mut round_losses,
            |id| (locals[id].clone(), alphas[id]),
            |id, global, (mut v, mut alpha)| {
                let data = fed.client(id);
                let mut w = global.clone();
                let mut w_opt = Sgd::new(SgdConfig::with_lr_momentum(
                    cfg.local_lr,
                    cfg.local_momentum,
                ));
                let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
                let mut loss_sum = 0.0;
                let mut steps = 0;
                for _ in 0..cfg.local_epochs {
                    for batch in batches(data.train.len(), cfg.batch_size, false, &mut r) {
                        let (x, y) = fed.train_batch(id, &batch);
                        // Step the shared model (this is what the server sees).
                        loss_sum += supervised_step(&mut w, &x, &y, &mut w_opt, TrainScope::Full);
                        // Mixture gradient step on the personal model v:
                        // ∂L(ᾱv + (1−ᾱ)w)/∂v = ᾱ · ∂L/∂mixed.
                        let mut mixed = mix_models(&v, &w, alpha);
                        let mut g = Graph::new();
                        let xn = g.constant(x.clone());
                        let mut binding = Binding::new();
                        let feats = mixed.encoder_mut().forward(&mut g, xn, &mut binding);
                        let logits = mixed.head().forward(&mut g, feats, &mut binding);
                        let loss = g.cross_entropy(logits, &y);
                        g.backward(loss);
                        let grads = gradients(&g, &binding);
                        for (p, gr) in v.parameters_mut().into_iter().zip(grads.iter()) {
                            p.add_scaled(gr, -cfg.local_lr * alpha);
                        }
                        // Adaptive α: gradient of the mixture loss w.r.t. α is
                        // ⟨∇L(mixed), v − w⟩.
                        let flat_grads: Vec<f32> =
                            grads.iter().flat_map(|m| m.as_slice().to_vec()).collect();
                        let diff: Vec<f32> = v
                            .to_flat()
                            .iter()
                            .zip(w.to_flat().iter())
                            .map(|(&a, &b)| a - b)
                            .collect();
                        let alpha_grad: f32 = flat_grads
                            .iter()
                            .zip(diff.iter())
                            .map(|(&g_, &d)| g_ * d)
                            .sum();
                        alpha = (alpha - cfg.local_lr * alpha_grad).clamp(0.0, 1.0);
                        steps += 1;
                    }
                }
                ClientOutcome {
                    flat: w.to_flat(),
                    state: (v, alpha),
                    count: data.train_len(),
                    payload: loss_sum / steps.max(1) as f32,
                }
            },
        );
        for a in outcome.accepted {
            (locals[a.id], alphas[a.id]) = a.state;
        }
    }

    // Personalization: the mixture model IS the personalized model.
    let ids: Vec<usize> = (0..fed.num_clients()).collect();
    let accuracies = parallel_map(&ids, |&id| {
        let mixed = mix_models(&locals[id], &global, alphas[id]);
        mixed.test_accuracy(fed.client(id), fed.generator())
    });
    let seen = PersonalizationOutcome::from_accuracies(accuracies);

    BaselineResult {
        name: "APFL".to_string(),
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
    fn apfl_mixture_personalizes() {
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
                seed: 37,
            },
        );
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 6;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 2;
        let result = run_apfl(&fed, &cfg);
        assert!(
            result.stats().mean > 0.55,
            "APFL mean accuracy {:?}",
            result.stats()
        );
    }

    #[test]
    fn mix_models_interpolates() {
        let cfg = FlConfig::for_input(64);
        let a = ClassifierModel::new(&cfg.ssl, 10, 0);
        let b = ClassifierModel::new(&cfg.ssl, 10, 1);
        let mixed = mix_models(&a, &b, 0.25);
        let (fa, fb, fm) = (a.to_flat(), b.to_flat(), mixed.to_flat());
        for i in 0..fa.len() {
            let expected = 0.25 * fa[i] + 0.75 * fb[i];
            assert!((fm[i] - expected).abs() < 1e-6);
        }
    }
}
