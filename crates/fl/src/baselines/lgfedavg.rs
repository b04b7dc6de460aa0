//! LG-FedAvg (Liang et al., 2019): *local* representations, *global* head —
//! the mirror image of FedPer. Each client keeps a personal encoder; only
//! the classifier head is aggregated.

use crate::aggregate::uniform_average;
use crate::baselines::{baseline_round, client_round_seed, finetune_heads, BaselineResult};
use crate::config::FlConfig;
use crate::model::{train_supervised, ClassifierModel, TrainScope};
use crate::resilient::ClientOutcome;
use crate::scheduler::RoundScheduler;
use calibre_data::FederatedDataset;
use calibre_tensor::nn::{Mlp, Module};
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::rng;

/// Runs LG-FedAvg end to end.
///
/// The exported `encoder` in the result is the uniform average of all client
/// encoders — LG-FedAvg has no true global encoder, and this average is what
/// a novel client would reasonably bootstrap from.
pub fn run_lgfedavg(fed: &FederatedDataset, cfg: &FlConfig) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    let template = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let mut global_head = template.head().clone();
    // Per-client persistent local encoders.
    let mut encoders: Vec<Mlp> = (0..fed.num_clients())
        .map(|id| {
            let mut r = rng::seeded(cfg.seed ^ 0x16FED ^ id as u64);
            Mlp::new(
                &cfg.ssl.encoder_layer_dims(),
                calibre_tensor::nn::Activation::Relu,
                &mut r,
            )
        })
        .collect();
    let scheduler = RoundScheduler::from_config(cfg, fed.num_clients());
    let mut round_losses = Vec::with_capacity(scheduler.rounds());

    for round in 0..scheduler.rounds() {
        // Only the head aggregates; each client's encoder stays local.
        let outcome = baseline_round(
            &scheduler,
            round,
            &mut global_head,
            &mut round_losses,
            |id| encoders[id].clone(),
            |id, global, mut encoder| {
                let mut model = template.clone();
                model.encoder_mut().load_flat(&encoder.to_flat());
                model.set_head(global.clone());
                let mut opt = Sgd::new(SgdConfig::with_lr_momentum(
                    cfg.local_lr,
                    cfg.local_momentum,
                ));
                let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
                let loss = train_supervised(
                    &mut model,
                    fed,
                    id,
                    cfg.local_epochs,
                    cfg.batch_size,
                    &mut opt,
                    TrainScope::Full,
                    &mut r,
                );
                encoder.load_flat(&model.encoder().to_flat());
                ClientOutcome {
                    state: encoder,
                    flat: model.head().to_flat(),
                    count: fed.client(id).train_len(),
                    payload: loss,
                }
            },
        );
        for a in outcome.accepted {
            encoders[a.id] = a.state;
        }
    }

    // Personalization: each client keeps its local encoder and fine-tunes
    // the global head on it.
    let seen = finetune_heads(fed, num_classes, &cfg.probe, |id| {
        (&encoders[id], global_head.clone())
    });
    // Export the average of local encoders as the best available "global"
    // encoder for novel clients / figures.
    let encoder_flats: Vec<Vec<f32>> = encoders.iter().map(Module::to_flat).collect();
    let mut mean_encoder = encoders[0].clone();
    mean_encoder.load_flat(&uniform_average(&encoder_flats));

    BaselineResult {
        name: "LG-FedAvg".to_string(),
        seen,
        encoder: mean_encoder,
        round_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_data::{NonIid, PartitionConfig, SynthVisionSpec};

    #[test]
    fn lgfedavg_personalizes_through_local_encoders() {
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
                seed: 29,
            },
        );
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 6;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 2;
        let result = run_lgfedavg(&fed, &cfg);
        assert!(
            result.stats().mean > 0.6,
            "LG-FedAvg mean accuracy {:?}",
            result.stats()
        );
    }
}
