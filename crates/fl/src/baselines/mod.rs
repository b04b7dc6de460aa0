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
//!
//! Every federated baseline's rounds go through [`RoundScheduler::run_round`],
//! as pFL-SSL's and Calibre's do, so the run's chaos, attack and round
//! policy apply to the whole roster. Script-* is local-only and has no
//! rounds.

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

use crate::aggregate::sample_count_weights;
use crate::metrics::Stats;
use crate::model::ClassifierModel;
use crate::parallel::parallel_map;
use crate::personalize::PersonalizationOutcome;
use crate::resilient::{ClientOutcome, ResilientRound};
use crate::scheduler::{RoundContext, RoundScheduler};
use calibre_data::FederatedDataset;
use calibre_ssl::{probe_accuracy, train_linear_probe_from, ProbeConfig};
use calibre_telemetry::{ClientLosses, NullRecorder};
use calibre_tensor::nn::{Linear, Mlp, Module};

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
    finetune_heads(fed, num_classes, probe, |id| (encoder, head_for(id)))
}

/// [`evaluate_with_head_finetune`] with a per-client encoder: `client(id)`
/// supplies the frozen encoder and the initial head.
pub(crate) fn finetune_heads<'a, F>(
    fed: &FederatedDataset,
    num_classes: usize,
    probe: &ProbeConfig,
    client: F,
) -> PersonalizationOutcome
where
    F: Fn(usize) -> (&'a Mlp, Linear) + Sync,
{
    let ids: Vec<usize> = (0..fed.num_clients()).collect();
    let accuracies = parallel_map(&ids, |&id| {
        let data = fed.client(id);
        if data.train.is_empty() || data.test.is_empty() {
            return 0.0;
        }
        let (encoder, head) = client(id);
        let train_x = encoder.infer(&fed.generator().render_batch(data.train.iter()));
        let test_x = encoder.infer(&fed.generator().render_batch(data.test.iter()));
        let mut client_probe = *probe;
        client_probe.seed = probe.seed ^ (id as u64).wrapping_mul(0x9E37_79B9);
        let head = train_linear_probe_from(
            head,
            &train_x,
            &data.train_labels(),
            num_classes,
            &client_probe,
        );
        probe_accuracy(&head, &test_x, &data.test_labels())
    });
    PersonalizationOutcome::from_accuracies(accuracies)
}

/// Seen-client accuracies of a trained global classifier: each client
/// tests it as is, or first fine-tunes its head (`finetune`, the `-FT`
/// rule).
pub(crate) fn evaluate_global(
    global: &ClassifierModel,
    fed: &FederatedDataset,
    probe: &ProbeConfig,
    finetune: bool,
) -> PersonalizationOutcome {
    if finetune {
        let num_classes = fed.generator().num_classes();
        return evaluate_with_head_finetune(global.encoder(), fed, num_classes, probe, |_| {
            global.head().clone()
        });
    }
    let ids: Vec<usize> = (0..fed.num_clients()).collect();
    PersonalizationOutcome::from_accuracies(parallel_map(&ids, |&id| {
        global.test_accuracy(fed.client(id), fed.generator())
    }))
}

/// Derives a per-client, per-round RNG seed from the run seed — the seed
/// of every client's local update in every training loop.
pub fn client_round_seed(run_seed: u64, round: usize, client: usize) -> u64 {
    run_seed
        ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (client as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Runs one baseline training round through [`RoundScheduler::run_round`],
/// under the run's chaos plan, attack plan and round policy.
///
/// `work(id, global, state)` is one client's local update from the lent
/// round `global`; `make_state` hands a client its stored state (again on a
/// retry). The aggregate is loaded into `global` and the mean loss pushed
/// onto `round_losses`. The caller writes back per-client state from the
/// returned round. Baselines stay on the collect path whatever
/// [`FlConfig::streaming`](crate::FlConfig::streaming) says: their
/// per-client state comes back with the collected outcomes.
pub(crate) fn baseline_round<G, S, MS, W>(
    scheduler: &RoundScheduler,
    round: usize,
    global: &mut G,
    round_losses: &mut Vec<f32>,
    make_state: MS,
    work: W,
) -> ResilientRound<S, f32>
where
    G: Module + Sync,
    S: Send,
    MS: FnMut(usize) -> S,
    W: Fn(usize, &G, S) -> ClientOutcome<S, f32> + Sync,
{
    let selected = scheduler.select(round, None);
    let round_span = calibre_telemetry::span("round");
    round_span.add_items(selected.len() as u64);
    let ctx = RoundContext {
        recorder: &NullRecorder,
        downlink_params: global.num_scalars(),
        planned_bytes: 0,
        fallback_loss: round_losses.last().copied().unwrap_or(0.0),
        fallback_divergence: 0.0,
    };
    let lent: &G = global;
    let outcome = scheduler.run_round(
        round,
        &selected,
        &ctx,
        make_state,
        |_| (),
        |id, state, ()| work(id, lent, state),
        |accepted| sample_count_weights(&accepted.iter().map(|a| a.count).collect::<Vec<_>>()),
        |&loss| {
            (
                ClientLosses {
                    total: loss,
                    ..ClientLosses::default()
                },
                0.0,
            )
        },
    );
    if let Some(aggregated) = &outcome.round.aggregated {
        global.load_flat(aggregated);
    }
    round_losses.push(outcome.mean_loss);
    outcome.round
}
