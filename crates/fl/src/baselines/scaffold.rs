//! SCAFFOLD (Karimireddy et al., ICML 2020): stochastic controlled
//! averaging. Client drift under non-i.i.d. data is corrected with control
//! variates `c` (server) and `c_i` (per client): every local gradient is
//! adjusted by `− c_i + c`.

use crate::baselines::{baseline_round, client_round_seed, evaluate_global, BaselineResult};
use crate::config::FlConfig;
use crate::model::ClassifierModel;
use crate::resilient::ClientOutcome;
use crate::scheduler::RoundScheduler;
use calibre_data::batch::batches;
use calibre_data::FederatedDataset;
use calibre_tensor::nn::{gradients, Binding, Module};
use calibre_tensor::{rng, Graph, Matrix};

/// Flattens per-parameter gradient matrices into one vector.
fn flatten(grads: &[Matrix]) -> Vec<f32> {
    let mut out = Vec::new();
    for g in grads {
        out.extend_from_slice(g.as_slice());
    }
    out
}

/// One local SCAFFOLD pass from the round's global model. Returns
/// `(new_model_flat, new_c_i, loss)`.
fn local_update(
    fed: &FederatedDataset,
    id: usize,
    global: &ClassifierModel,
    c_global: &[f32],
    c_i: &[f32],
    cfg: &FlConfig,
    round: usize,
) -> (Vec<f32>, Vec<f32>, f32) {
    let global_flat = global.to_flat();
    let mut model = global.clone();
    let data = fed.client(id);
    let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
    let mut steps = 0usize;
    let mut loss_sum = 0.0f32;

    for _ in 0..cfg.local_epochs {
        for batch in batches(data.train.len(), cfg.batch_size, false, &mut r) {
            let (x, y) = fed.train_batch(id, &batch);

            let mut g = Graph::new();
            let xn = g.constant(x);
            let mut binding = Binding::new();
            let feats = model.encoder_mut().forward(&mut g, xn, &mut binding);
            let logits = model.head().forward(&mut g, feats, &mut binding);
            let loss = g.cross_entropy(logits, &y);
            loss_sum += g.value(loss).get(0, 0);
            g.backward(loss);
            let flat_grad = flatten(&gradients(&g, &binding));

            // Controlled step: p ← p − lr (g − c_i + c), flat over all params.
            let mut offset = 0;
            for p in model.parameters_mut() {
                let n = p.len();
                for (j, v) in p.as_mut_slice().iter_mut().enumerate() {
                    let idx = offset + j;
                    let corrected = flat_grad[idx] - c_i[idx] + c_global[idx];
                    *v -= cfg.local_lr * corrected;
                }
                offset += n;
            }
            steps += 1;
        }
    }

    // Option II of the SCAFFOLD paper:
    // c_i⁺ = c_i − c + (x − y_i) / (K · lr)
    let model_flat = model.to_flat();
    let scale = 1.0 / (steps.max(1) as f32 * cfg.local_lr);
    let new_c_i: Vec<f32> = (0..model_flat.len())
        .map(|j| c_i[j] - c_global[j] + (global_flat[j] - model_flat[j]) * scale)
        .collect();
    let mean_loss = loss_sum / steps.max(1) as f32;
    (model_flat, new_c_i, mean_loss)
}

/// Trains a global classifier with SCAFFOLD. Returns the model and the
/// round-loss history.
pub fn train_scaffold_global(
    fed: &FederatedDataset,
    cfg: &FlConfig,
) -> (ClassifierModel, Vec<f32>) {
    let num_classes = fed.generator().num_classes();
    let mut global = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let dim = global.num_scalars();
    let mut c_global = vec![0.0f32; dim];
    let mut c_clients: Vec<Vec<f32>> = vec![vec![0.0f32; dim]; fed.num_clients()];
    let scheduler = RoundScheduler::from_config(cfg, fed.num_clients());
    let mut round_losses = Vec::with_capacity(scheduler.rounds());

    for round in 0..scheduler.rounds() {
        let outcome = baseline_round(
            &scheduler,
            round,
            &mut global,
            &mut round_losses,
            |id| c_clients[id].clone(),
            |id, global, c_i| {
                let (flat, new_c_i, loss) =
                    local_update(fed, id, global, &c_global, &c_i, cfg, round);
                ClientOutcome {
                    state: new_c_i,
                    flat,
                    count: fed.client(id).train_len(),
                    payload: loss,
                }
            },
        );

        // c ← c + (|S|/N) · mean_i(c_i⁺ − c_i) over the accepted clients S.
        let accepted = outcome.accepted.len() as f32;
        let frac = accepted / fed.num_clients() as f32;
        let mut delta_mean = vec![0.0f32; dim];
        for a in outcome.accepted {
            for j in 0..dim {
                delta_mean[j] += (a.state[j] - c_clients[a.id][j]) / accepted;
            }
            c_clients[a.id] = a.state;
        }
        for j in 0..dim {
            c_global[j] += frac * delta_mean[j];
        }
    }
    (global, round_losses)
}

/// Runs SCAFFOLD end to end (with `finetune` selecting SCAFFOLD vs
/// SCAFFOLD-FT evaluation, as in FedAvg).
pub fn run_scaffold(fed: &FederatedDataset, cfg: &FlConfig, finetune: bool) -> BaselineResult {
    let (global, round_losses) = train_scaffold_global(fed, cfg);
    let seen = evaluate_global(&global, fed, &cfg.probe, finetune);
    BaselineResult {
        name: if finetune { "SCAFFOLD-FT" } else { "SCAFFOLD" }.to_string(),
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
                seed: 13,
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
    fn scaffold_ft_learns_under_label_skew() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let result = run_scaffold(&fed, &cfg, true);
        assert!(
            result.stats().mean > 0.5,
            "SCAFFOLD-FT mean accuracy {:?}",
            result.stats()
        );
    }

    #[test]
    fn control_variates_keep_training_stable() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let result = run_scaffold(&fed, &cfg, false);
        assert!(result.round_losses.iter().all(|l| l.is_finite()));
        let first = result.round_losses[0];
        let last = *result.round_losses.last().unwrap();
        assert!(last < first, "losses: {:?}", result.round_losses);
    }

    #[test]
    fn deterministic_given_seed() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let a = run_scaffold(&fed, &cfg, true);
        let b = run_scaffold(&fed, &cfg, true);
        assert_eq!(a.seen.accuracies, b.seen.accuracies);
    }
}
