//! PerFedAvg (Fallah et al., NeurIPS 2020): personalized FL as first-order
//! MAML. The global model is trained so that a *few local adaptation steps*
//! produce a good personalized model; evaluation therefore adapts the full
//! model locally before testing.

use crate::baselines::{baseline_round, client_round_seed, BaselineResult};
use crate::config::FlConfig;
use crate::model::{train_supervised, ClassifierModel, TrainScope};
use crate::parallel::parallel_map;
use crate::personalize::PersonalizationOutcome;
use crate::resilient::ClientOutcome;
use crate::scheduler::RoundScheduler;
use calibre_data::batch::batches;
use calibre_data::FederatedDataset;
use calibre_tensor::nn::{gradients, Binding, Module};
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::{rng, Graph, Matrix};

/// Computes cross-entropy gradients of `model` on a rendered batch.
fn batch_gradients(model: &mut ClassifierModel, x: &Matrix, y: &[usize]) -> (Vec<Matrix>, f32) {
    let mut g = Graph::new();
    let xn = g.constant(x.clone());
    let mut binding = Binding::new();
    let feats = model.encoder_mut().forward(&mut g, xn, &mut binding);
    let logits = model.head().forward(&mut g, feats, &mut binding);
    let loss = g.cross_entropy(logits, y);
    let value = g.value(loss).get(0, 0);
    g.backward(loss);
    (gradients(&g, &binding), value)
}

/// Runs PerFedAvg (FO-MAML variant) end to end.
///
/// Inner (adaptation) learning rate is `cfg.local_lr`; the outer
/// (meta) learning rate is `cfg.local_lr / 2`, the standard β < α heuristic.
pub fn run_perfedavg(fed: &FederatedDataset, cfg: &FlConfig) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    let mut global = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let alpha = cfg.local_lr;
    let beta = cfg.local_lr * 0.5;
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
                let data = fed.client(id);
                let mut model = global.clone();
                let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
                let mut loss_sum = 0.0;
                let mut meta_steps = 0;
                for _ in 0..cfg.local_epochs {
                    let all = batches(data.train.len(), cfg.batch_size, false, &mut r);
                    // Consume batches in (support, query) pairs.
                    for pair in all.chunks(2) {
                        if pair.len() < 2 {
                            continue;
                        }
                        let (x_s, y_s) = fed.train_batch(id, &pair[0]);
                        let (x_q, y_q) = fed.train_batch(id, &pair[1]);
                        // Inner step on the support batch.
                        let mut inner = model.clone();
                        let (support_grads, _) = batch_gradients(&mut inner, &x_s, &y_s);
                        for (p, g) in inner.parameters_mut().into_iter().zip(support_grads.iter()) {
                            p.add_scaled(g, -alpha);
                        }
                        // First-order meta gradient: query gradient at the
                        // adapted point, applied to the un-adapted model.
                        let (query_grads, loss) = batch_gradients(&mut inner, &x_q, &y_q);
                        for (p, g) in model.parameters_mut().into_iter().zip(query_grads.iter()) {
                            p.add_scaled(g, -beta);
                        }
                        loss_sum += loss;
                        meta_steps += 1;
                    }
                }
                ClientOutcome {
                    state: (),
                    flat: model.to_flat(),
                    count: data.train_len(),
                    payload: loss_sum / meta_steps.max(1) as f32,
                }
            },
        );
    }

    // Personalization: every client adapts the full model locally (the MAML
    // payoff) for the probe budget, then tests.
    let ids: Vec<usize> = (0..fed.num_clients()).collect();
    let accuracies = parallel_map(&ids, |&id| {
        let mut model = global.clone();
        let mut opt = Sgd::new(SgdConfig::with_lr(alpha));
        let mut r = rng::seeded(cfg.seed ^ 0x9E37 ^ id as u64);
        train_supervised(
            &mut model,
            fed,
            id,
            cfg.probe.epochs,
            cfg.probe.batch_size,
            &mut opt,
            TrainScope::Full,
            &mut r,
        );
        model.test_accuracy(fed.client(id), fed.generator())
    });
    let seen = PersonalizationOutcome::from_accuracies(accuracies);

    BaselineResult {
        name: "PerFedAvg".to_string(),
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
    fn perfedavg_adapts_quickly_after_meta_training() {
        let fed = FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 4,
                train_per_client: 64,
                test_per_client: 20,
                unlabeled_per_client: 0,
                non_iid: NonIid::Quantity {
                    classes_per_client: 2,
                },
                seed: 31,
            },
        );
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 6;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 2;
        cfg.batch_size = 16;
        let result = run_perfedavg(&fed, &cfg);
        assert!(
            result.stats().mean > 0.6,
            "PerFedAvg mean accuracy {:?}",
            result.stats()
        );
        assert!(result.round_losses.iter().all(|l| l.is_finite()));
    }
}
