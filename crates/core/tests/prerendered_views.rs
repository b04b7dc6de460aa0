//! Rendering a client's views ahead of its training is bit-identical to
//! rendering each batch just before its step.
//!
//! The round map renders every two-view batch of a client's local update
//! up front (`render_local_views`) and trains over the result later, on any
//! worker. These tests pin that split against the interleaved loop it
//! replaced — shuffle, render, step, batch after batch — for seeded
//! clients of both the Calibre and the plain SSL local update.

use calibre::{
    calibre_local_update_detailed, calibre_step_in, calibre_train_on_views, CalibreConfig,
    LocalUpdate,
};
use calibre_data::batch::{batches, render_local_views};
use calibre_data::{
    AugmentConfig, ClientData, FederatedDataset, NonIid, PartitionConfig, SynthVision,
    SynthVisionSpec,
};
use calibre_fl::pfl_ssl::{ssl_local_update, ssl_train_on_views};
use calibre_fl::FlConfig;
use calibre_ssl::{create_method, ssl_step_in, SslKind, SslMethod, TwoViewBatch};
use calibre_tensor::nn::Module;
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::{rng, StepArena};
use rand::Rng;

const EPOCHS: usize = 2;
const BATCH: usize = 16;

fn fed() -> FederatedDataset {
    FederatedDataset::build(
        SynthVisionSpec::cifar10(),
        &PartitionConfig {
            num_clients: 3,
            train_per_client: 37,
            test_per_client: 4,
            unlabeled_per_client: 0,
            non_iid: NonIid::Dirichlet { alpha: 0.3 },
            seed: 5,
        },
    )
}

fn method(seed: u64) -> Box<dyn SslMethod> {
    let cfg = FlConfig::for_input(64);
    create_method(SslKind::SimClr, cfg.ssl.with_seed(seed))
}

fn opt() -> Sgd {
    Sgd::new(SgdConfig::with_lr_momentum(0.05, 0.9))
}

fn bits(flat: &[f32]) -> Vec<u32> {
    flat.iter().map(|v| v.to_bits()).collect()
}

fn update_bits(u: &LocalUpdate) -> [u32; 5] {
    [
        u.loss.to_bits(),
        u.ssl.to_bits(),
        u.l_n.to_bits(),
        u.l_p.to_bits(),
        u.divergence.to_bits(),
    ]
}

/// The interleaved Calibre local update: each batch rendered just before
/// its step.
fn interleaved_calibre(
    method: &mut dyn SslMethod,
    data: &ClientData,
    generator: &SynthVision,
    config: &CalibreConfig,
    opt: &mut Sgd,
    rng_: &mut impl Rng,
) -> LocalUpdate {
    let pool = data.ssl_pool();
    let mut last = LocalUpdate::default();
    let mut arena = StepArena::new();
    for epoch in 0..EPOCHS {
        let mut sums = LocalUpdate::default();
        let mut seen = 0u64;
        for (b, batch) in batches(pool.len(), BATCH, true, rng_)
            .into_iter()
            .enumerate()
        {
            let samples = batch.iter().map(|&i| pool[i]);
            let (e, o) = generator.render_two_views(samples, &AugmentConfig::default(), rng_);
            let kmeans_seed = (epoch as u64) << 32 | b as u64;
            let out = calibre_step_in(
                method,
                &TwoViewBatch::new(&e, &o),
                config,
                opt,
                kmeans_seed,
                &mut arena,
            );
            sums.loss += out.ssl_loss + config.alpha * (out.l_n + out.l_p);
            sums.ssl += out.ssl_loss;
            sums.l_n += out.l_n;
            sums.l_p += out.l_p;
            sums.divergence += out.divergence;
            seen += 1;
        }
        let inv = 1.0 / seen.max(1) as f32;
        last = LocalUpdate {
            loss: sums.loss * inv,
            ssl: sums.ssl * inv,
            l_n: sums.l_n * inv,
            l_p: sums.l_p * inv,
            divergence: sums.divergence * inv,
        };
    }
    last
}

/// The interleaved SSL local update.
fn interleaved_ssl(
    method: &mut dyn SslMethod,
    data: &ClientData,
    generator: &SynthVision,
    opt: &mut Sgd,
    rng_: &mut impl Rng,
) -> f32 {
    let pool = data.ssl_pool();
    let mut last = 0.0;
    let mut arena = StepArena::new();
    for _ in 0..EPOCHS {
        let mut sum = 0.0;
        let mut seen = 0;
        for batch in batches(pool.len(), BATCH, true, rng_) {
            let samples = batch.iter().map(|&i| pool[i]);
            let (e, o) = generator.render_two_views(samples, &AugmentConfig::default(), rng_);
            sum += ssl_step_in(method, &TwoViewBatch::new(&e, &o), opt, &mut arena);
            seen += 1;
        }
        last = sum / seen.max(1) as f32;
    }
    last
}

#[test]
fn calibre_update_over_prerendered_views_is_bit_identical() {
    let fed = fed();
    let aug = AugmentConfig::default();
    let config = CalibreConfig::default();
    for id in 0..fed.num_clients() {
        for seed in [1u64, 2, 3] {
            let data = fed.client(id);
            let mut reference = method(seed);
            let want = interleaved_calibre(
                reference.as_mut(),
                data,
                fed.generator(),
                &config,
                &mut opt(),
                &mut rng::seeded(seed),
            );

            let mut composed = method(seed);
            let got = calibre_local_update_detailed(
                composed.as_mut(),
                data,
                fed.generator(),
                &aug,
                EPOCHS,
                BATCH,
                &config,
                &mut opt(),
                &mut rng::seeded(seed),
            );
            assert_eq!(
                update_bits(&got),
                update_bits(&want),
                "client {id} seed {seed}"
            );
            assert_eq!(
                bits(&composed.encoder().to_flat()),
                bits(&reference.encoder().to_flat())
            );

            let mut split = method(seed);
            let views = render_local_views(
                &data.ssl_pool(),
                fed.generator(),
                &aug,
                EPOCHS,
                BATCH,
                &mut rng::seeded(seed),
            );
            let got = calibre_train_on_views(split.as_mut(), &views, &config, &mut opt());
            assert_eq!(
                update_bits(&got),
                update_bits(&want),
                "client {id} seed {seed}"
            );
            assert_eq!(
                bits(&split.encoder().to_flat()),
                bits(&reference.encoder().to_flat())
            );
        }
    }
}

#[test]
fn ssl_update_over_prerendered_views_is_bit_identical() {
    let fed = fed();
    let aug = AugmentConfig::default();
    for id in 0..fed.num_clients() {
        for seed in [4u64, 5] {
            let data = fed.client(id);
            let mut reference = method(seed);
            let want = interleaved_ssl(
                reference.as_mut(),
                data,
                fed.generator(),
                &mut opt(),
                &mut rng::seeded(seed),
            );

            let mut composed = method(seed);
            let got = ssl_local_update(
                composed.as_mut(),
                data,
                fed.generator(),
                &aug,
                EPOCHS,
                BATCH,
                &mut opt(),
                &mut rng::seeded(seed),
            );
            assert_eq!(got.to_bits(), want.to_bits(), "client {id} seed {seed}");
            assert_eq!(
                bits(&composed.encoder().to_flat()),
                bits(&reference.encoder().to_flat())
            );

            let mut split = method(seed);
            let views = render_local_views(
                &data.ssl_pool(),
                fed.generator(),
                &aug,
                EPOCHS,
                BATCH,
                &mut rng::seeded(seed),
            );
            let got = ssl_train_on_views(split.as_mut(), &views, &mut opt());
            assert_eq!(got.to_bits(), want.to_bits(), "client {id} seed {seed}");
            assert_eq!(
                bits(&split.encoder().to_flat()),
                bits(&reference.encoder().to_flat())
            );
        }
    }
}

#[test]
fn a_pool_below_two_samples_renders_nothing_and_trains_nothing() {
    let fed = fed();
    let aug = AugmentConfig::default();
    for kept in [0usize, 1] {
        let data = ClientData {
            train: fed.client(0).train.iter().take(kept).cloned().collect(),
            ..ClientData::default()
        };
        let mut r = rng::seeded(9);
        let views = render_local_views(&data.ssl_pool(), fed.generator(), &aug, 3, 4, &mut r);
        assert!(views.is_empty());
        let next: u64 = r.gen();
        let untouched: u64 = rng::seeded(9).gen();
        assert_eq!(next, untouched, "no draw from the client RNG");

        let before = bits(&method(1).encoder().to_flat());
        let mut m = method(1);
        let update = calibre_local_update_detailed(
            m.as_mut(),
            &data,
            fed.generator(),
            &aug,
            3,
            4,
            &CalibreConfig::default(),
            &mut opt(),
            &mut rng::seeded(9),
        );
        assert_eq!(update_bits(&update), update_bits(&LocalUpdate::default()));
        assert_eq!(bits(&m.encoder().to_flat()), before);

        let mut m = method(1);
        let loss = ssl_local_update(
            m.as_mut(),
            &data,
            fed.generator(),
            &aug,
            3,
            4,
            &mut opt(),
            &mut rng::seeded(9),
        );
        assert_eq!(loss.to_bits(), 0.0f32.to_bits());
        assert_eq!(bits(&m.encoder().to_flat()), before);
    }
}
