//! Golden checksums pinning training bit-for-bit across refactors.
//!
//! The values below were recorded from a known-good build. Any change to the
//! numerics of the local step (graph ops, optimizer, aggregation) under the
//! default `Scalar` backend shows up here as a checksum mismatch, which is
//! exactly what the arena/backend refactor must not cause.

use calibre::{train_calibre_encoder, CalibreConfig};
use calibre_data::{AugmentConfig, FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
use calibre_fl::FlConfig;
use calibre_ssl::{ssl_step, SimClr, SslConfig, SslKind, TwoViewBatch};
use calibre_tensor::nn::Module;
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::rng;

/// FNV-1a over the exact bit patterns of the parameters: equal checksums
/// mean bit-identical training (modulo +0.0 / -0.0, which f32 `==` already
/// treats as equal but the bit hash would not — so the flats are canonicalized
/// first).
fn flat_checksum(flat: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in flat {
        let canonical = if v == 0.0 { 0.0f32 } else { v };
        for b in canonical.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn tiny_fed() -> FederatedDataset {
    FederatedDataset::build(
        SynthVisionSpec::cifar10(),
        &PartitionConfig {
            num_clients: 3,
            train_per_client: 40,
            test_per_client: 10,
            unlabeled_per_client: 0,
            non_iid: NonIid::Dirichlet { alpha: 0.3 },
            seed: 11,
        },
    )
}

#[test]
fn calibre_training_checksum_is_stable() {
    let fed = tiny_fed();
    let mut cfg = FlConfig::for_input(64);
    cfg.rounds = 2;
    cfg.clients_per_round = 3;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    let (encoder, losses, _) = train_calibre_encoder(
        &fed,
        &cfg,
        SslKind::SimClr,
        &CalibreConfig::default(),
        &AugmentConfig::default(),
    );
    let checksum = flat_checksum(&encoder.to_flat());
    eprintln!("calibre checksum: {checksum:#018x} losses {losses:?}");
    assert_eq!(checksum, GOLDEN_CALIBRE, "Calibre training drifted");
}

#[test]
fn simclr_multi_step_checksum_is_stable() {
    let mut r = rng::seeded(33);
    let base = rng::normal_matrix(&mut r, 24, 64, 1.0);
    let ve = base.map(|v| v + 0.04);
    let vo = base.map(|v| v - 0.04);
    let mut m = SimClr::new(SslConfig::for_input(64));
    let mut opt = Sgd::new(SgdConfig::with_lr_momentum(0.05, 0.9));
    for _ in 0..8 {
        ssl_step(&mut m, &TwoViewBatch::new(&ve, &vo), &mut opt);
    }
    let checksum = flat_checksum(&m.to_flat());
    eprintln!("simclr checksum: {checksum:#018x}");
    assert_eq!(checksum, GOLDEN_SIMCLR, "SimCLR stepping drifted");
}

const GOLDEN_CALIBRE: u64 = 0xf693_2ed4_aed3_569c;
const GOLDEN_SIMCLR: u64 = 0x45bc_4e68_002f_c982;

#[test]
fn killed_and_resumed_training_matches_the_uninterrupted_run() {
    // Crash-safe resume must be bit-identical: training 2 rounds, "dying",
    // and resuming to 4 rounds from the checkpoint store must produce the
    // exact parameters of an uninterrupted 4-round run. This leans on the
    // selection schedule's prefix stability and on SimCLR state being fully
    // parameter-backed.
    use calibre_fl::checkpoint::CheckpointStore;
    use calibre_fl::pfl_ssl::{train_pfl_ssl_encoder, train_pfl_ssl_encoder_resumable};
    use calibre_telemetry::NullRecorder;

    let fed = tiny_fed();
    let aug = AugmentConfig::default();
    let mut cfg = FlConfig::for_input(64);
    cfg.clients_per_round = 2;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    cfg.rounds = 4;
    let (straight, straight_losses) = train_pfl_ssl_encoder(&fed, &cfg, SslKind::SimClr, &aug);

    let dir = std::env::temp_dir().join(format!("calibre-resume-{}", std::process::id()));
    let store = CheckpointStore::new(dir.join("trainer.txt"));

    // Phase 1: run only 2 rounds, checkpointing every round — then "crash".
    let mut short = cfg.clone();
    short.rounds = 2;
    train_pfl_ssl_encoder_resumable(
        &fed,
        &short,
        SslKind::SimClr,
        &aug,
        None,
        &NullRecorder,
        Some(&store),
    );

    // Phase 2: restart with the full 4-round config; rounds 0-1 come from
    // the checkpoint, rounds 2-3 train live.
    let (resumed, resumed_losses) = train_pfl_ssl_encoder_resumable(
        &fed,
        &cfg,
        SslKind::SimClr,
        &aug,
        None,
        &NullRecorder,
        Some(&store),
    );
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        flat_checksum(&resumed.to_flat()),
        flat_checksum(&straight.to_flat()),
        "resumed run diverged from the uninterrupted run"
    );
    assert_eq!(resumed.to_flat(), straight.to_flat());
    assert_eq!(resumed_losses, straight_losses);
}

/// Shared shape of the streaming-branch goldens: the calibre golden's
/// config with `threshold: 1`, so every round (cohort 3) streams in waves
/// of 2 through `RoundScheduler::run_round_streaming_with`.
fn streaming_cfg() -> FlConfig {
    let mut cfg = FlConfig::for_input(64);
    cfg.rounds = 2;
    cfg.clients_per_round = 3;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    cfg.streaming.threshold = 1;
    cfg.streaming.wave = 2;
    cfg
}

#[test]
fn streaming_calibre_training_checksum_is_stable() {
    let (encoder, losses, _) = train_calibre_encoder(
        &tiny_fed(),
        &streaming_cfg(),
        SslKind::SimClr,
        &CalibreConfig::default(),
        &AugmentConfig::default(),
    );
    let checksum = flat_checksum(&encoder.to_flat());
    eprintln!("streaming calibre checksum: {checksum:#018x} losses {losses:?}");
    assert_eq!(
        checksum, GOLDEN_STREAMING_CALIBRE,
        "streaming Calibre training drifted"
    );
}

#[test]
fn streaming_pfl_ssl_training_checksum_is_stable() {
    use calibre_fl::pfl_ssl::train_pfl_ssl_encoder;

    let (encoder, losses) = train_pfl_ssl_encoder(
        &tiny_fed(),
        &streaming_cfg(),
        SslKind::SimClr,
        &AugmentConfig::default(),
    );
    let checksum = flat_checksum(&encoder.to_flat());
    eprintln!("streaming pfl-ssl checksum: {checksum:#018x} losses {losses:?}");
    assert_eq!(
        checksum, GOLDEN_STREAMING_PFL_SSL,
        "streaming pFL-SSL training drifted"
    );
}

const GOLDEN_STREAMING_CALIBRE: u64 = 0xa6a0_1849_be7f_29f1;
const GOLDEN_STREAMING_PFL_SSL: u64 = 0x085b_f3d3_e93e_773a;
