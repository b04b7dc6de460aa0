//! Golden checksums for the federated baselines, and their round policy.
//!
//! Each of the eleven federated baselines runs on one tiny federation
//! (4 clients, 3 of them per round, 3 rounds) with the default policy and
//! no chaos. The test pins the exported encoder's
//! [`model_checksum`], the bit patterns of the round losses and the
//! checksum of the seen-client accuracies. Any change to a baseline's
//! round semantics (selection, client order, aggregation arithmetic,
//! per-client state carried between rounds) moves at least one of them.
//!
//! The baselines train through the shared round scheduler, so the run's
//! chaos plan and aggregation policy apply to them too; the last tests
//! check that they do.

use calibre_data::{AugmentConfig, FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
use calibre_fl::aggregate::Aggregator;
use calibre_fl::baselines::{
    apfl, ditto, fedavg, fedbabu, fedema, fedper, fedprox, fedrep, lgfedavg, perfedavg, scaffold,
    BaselineResult,
};
use calibre_fl::chaos::FaultPlan;
use calibre_fl::model::ClassifierModel;
use calibre_fl::proto::model_checksum;
use calibre_fl::FlConfig;
use calibre_tensor::nn::Module;

fn fed() -> FederatedDataset {
    FederatedDataset::build(
        SynthVisionSpec::cifar10(),
        &PartitionConfig {
            num_clients: 4,
            train_per_client: 32,
            test_per_client: 16,
            unlabeled_per_client: 0,
            non_iid: NonIid::Quantity {
                classes_per_client: 2,
            },
            seed: 7,
        },
    )
}

fn cfg() -> FlConfig {
    let mut cfg = FlConfig::for_input(64);
    cfg.rounds = 3;
    cfg.clients_per_round = 3;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    cfg.seed = 3;
    cfg
}

/// Asserts one baseline's result against its recorded fingerprints.
fn check(result: &BaselineResult, encoder: u64, losses: [u32; 3], accuracies: u64) {
    let got_losses: Vec<u32> = result.round_losses.iter().map(|l| l.to_bits()).collect();
    let got = (
        model_checksum(&result.encoder.to_flat()),
        got_losses,
        model_checksum(&result.seen.accuracies),
    );
    assert_eq!(
        got,
        (encoder, losses.to_vec(), accuracies),
        "{}: (encoder checksum, round-loss bits, accuracy checksum)",
        result.name
    );
}

#[test]
fn fedavg_ft_is_golden() {
    check(
        &fedavg::run_fedavg(&fed(), &cfg(), true),
        0xfe5a_7eb0_7a84_69a5,
        [0x402e_dc73, 0x3fe6_a8d5, 0x3fbe_44fb],
        0x83c3_a2f9_a6c5_13c2,
    );
}

#[test]
fn scaffold_ft_is_golden() {
    check(
        &scaffold::run_scaffold(&fed(), &cfg(), true),
        0xd304_be79_e86a_f1f2,
        [0x402e_dc73, 0x4014_c8d7, 0x4003_79d8],
        0x02e4_5266_f589_d5d5,
    );
}

#[test]
fn fedprox_is_golden() {
    check(
        &fedprox::run_fedprox(&fed(), &cfg(), 0.1),
        0x6511_3931_b58c_3d84,
        [0x402f_0be0, 0x3fe7_2855, 0x3fbe_eb53],
        0x83c3_a2f9_a6c5_13c2,
    );
}

#[test]
fn perfedavg_is_golden() {
    check(
        &perfedavg::run_perfedavg(&fed(), &cfg()),
        0x60ea_d7d5_8dd8_3edd,
        [0x3fe2_318c, 0x3ff3_2375, 0x4004_770c],
        0x0256_0c5e_33e7_8a85,
    );
}

#[test]
fn fedbabu_is_golden() {
    check(
        &fedbabu::run_fedbabu(&fed(), &cfg()),
        0x52c5_b82a_f1c3_ade4,
        [0x403a_7e9b, 0x3ffb_3904, 0x3fd9_1218],
        0x816d_23f9_a4c8_4625,
    );
}

#[test]
fn fedrep_is_golden() {
    check(
        &fedrep::run_fedrep(&fed(), &cfg()),
        0x239c_854d_4ba7_db5a,
        [0x3fb6_95e4, 0x3f7a_c4f4, 0x3eaf_45bd],
        0x6004_889c_6f9a_2265,
    );
}

#[test]
fn fedper_is_golden() {
    check(
        &fedper::run_fedper(&fed(), &cfg()),
        0xc921_6bac_3304_e464,
        [0x402a_5128, 0x3fa8_f756, 0x3f3d_0e9b],
        0x97d6_bbdb_aad8_0175,
    );
}

#[test]
fn lgfedavg_is_golden() {
    check(
        &lgfedavg::run_lgfedavg(&fed(), &cfg()),
        0xeaf0_b191_3ba4_e051,
        [0x402b_72f4, 0x3faf_e930, 0x3ea8_f9df],
        0xa7cd_c2cb_6b70_3d25,
    );
}

#[test]
fn apfl_is_golden() {
    check(
        &apfl::run_apfl(&fed(), &cfg()),
        0xfe5a_7eb0_7a84_69a5,
        [0x402e_dc73, 0x3fe6_a8d5, 0x3fbe_44fb],
        0x626f_7bd9_9bda_7b22,
    );
}

#[test]
fn ditto_is_golden() {
    check(
        &ditto::run_ditto(&fed(), &cfg()),
        0xfe5a_7eb0_7a84_69a5,
        [0x402e_dc73, 0x3fe6_a8d5, 0x3fbe_44fb],
        0x6acd_58eb_c8b6_09b5,
    );
}

#[test]
fn fedema_is_golden() {
    check(
        &fedema::run_fedema(&fed(), &cfg(), &AugmentConfig::default()),
        0x72d8_104c_60ec_3bc0,
        [0x3d29_20ed, 0x3db9_9407, 0xbd5f_6d40],
        0x1c7b_5d95_cac5_f725,
    );
}

/// A config whose chaos plan drops every client of every round.
fn all_dropped() -> FlConfig {
    let mut cfg = cfg();
    cfg.chaos = FaultPlan {
        drop_prob: 1.0,
        ..FaultPlan::default()
    };
    cfg
}

#[test]
fn every_round_skipped_leaves_fedavg_and_scaffold_at_their_init() {
    let fed = fed();
    let cfg = all_dropped();
    let init = ClassifierModel::new(&cfg.ssl, fed.generator().num_classes(), cfg.seed).to_flat();
    for (name, (model, losses)) in [
        ("FedAvg", fedavg::train_fedavg_global(&fed, &cfg)),
        ("SCAFFOLD", scaffold::train_scaffold_global(&fed, &cfg)),
    ] {
        assert_eq!(
            model.to_flat(),
            init,
            "{name}: skipped rounds moved the model"
        );
        assert_eq!(losses.len(), cfg.rounds, "{name}");
        assert!(losses.iter().all(|l| l.is_finite()), "{name}: {losses:?}");
    }
}

/// Runs each federated baseline under `cfg`.
fn roster(cfg: &FlConfig) -> Vec<BaselineResult> {
    let fed = fed();
    vec![
        fedavg::run_fedavg(&fed, cfg, true),
        scaffold::run_scaffold(&fed, cfg, true),
        fedprox::run_fedprox(&fed, cfg, 0.1),
        perfedavg::run_perfedavg(&fed, cfg),
        fedbabu::run_fedbabu(&fed, cfg),
        fedrep::run_fedrep(&fed, cfg),
        fedper::run_fedper(&fed, cfg),
        lgfedavg::run_lgfedavg(&fed, cfg),
        apfl::run_apfl(&fed, cfg),
        ditto::run_ditto(&fed, cfg),
        fedema::run_fedema(&fed, cfg, &AugmentConfig::default()),
    ]
}

#[test]
fn chaos_reaches_every_baseline() {
    for (clean, dropped) in roster(&cfg()).iter().zip(roster(&all_dropped())) {
        assert_ne!(
            clean.encoder.to_flat(),
            dropped.encoder.to_flat(),
            "{}",
            clean.name
        );
        assert_ne!(clean.round_losses, dropped.round_losses, "{}", clean.name);
        assert!(dropped.round_losses.iter().all(|l| l.is_finite()));
    }
}

#[test]
fn coordinate_median_moves_fedavg_away_from_the_weighted_run() {
    let fed = fed();
    let mut median = cfg();
    median.policy.aggregator = Aggregator::CoordinateMedian;
    let (weighted, _) = fedavg::train_fedavg_global(&fed, &cfg());
    let (robust, losses) = fedavg::train_fedavg_global(&fed, &median);
    assert_ne!(weighted.to_flat(), robust.to_flat());
    assert!(losses.iter().all(|l| l.is_finite()), "{losses:?}");
}
