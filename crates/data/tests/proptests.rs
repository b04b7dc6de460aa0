//! Property-based tests for dataset generation and partitioning invariants.

use calibre_data::{
    AugmentConfig, FederatedDataset, NonIid, PartitionConfig, Sample, SynthVision, SynthVisionSpec,
};
use calibre_tensor::rng::seeded;
use proptest::prelude::*;

fn any_non_iid() -> impl Strategy<Value = NonIid> {
    prop_oneof![
        Just(NonIid::Iid),
        (1usize..=10).prop_map(|classes_per_client| NonIid::Quantity { classes_per_client }),
        (0.05f64..5.0).prop_map(|alpha| NonIid::Dirichlet { alpha }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_partition_regime_produces_exact_budgets(
        non_iid in any_non_iid(),
        num_clients in 1usize..8,
        train in 5usize..40,
        test in 1usize..20,
        unlabeled in 0usize..20,
        seed in 0u64..1000,
    ) {
        let fed = FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients,
                train_per_client: train,
                test_per_client: test,
                unlabeled_per_client: unlabeled,
                non_iid,
                seed,
            },
        );
        prop_assert_eq!(fed.num_clients(), num_clients);
        for c in fed.clients() {
            prop_assert_eq!(c.train_len(), train);
            prop_assert_eq!(c.test_len(), test);
            prop_assert_eq!(c.unlabeled.len(), unlabeled);
            prop_assert!(c.train.iter().all(|s| s.label.is_some()));
            prop_assert!(c.unlabeled.iter().all(|s| s.label.is_none()));
            prop_assert!(c.train_labels().iter().all(|&l| l < 10));
        }
    }

    #[test]
    fn quantity_regime_never_exceeds_class_budget(
        classes_per_client in 1usize..=10,
        seed in 0u64..500,
    ) {
        let fed = FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 4,
                train_per_client: 50,
                test_per_client: 20,
                unlabeled_per_client: 0,
                non_iid: NonIid::Quantity { classes_per_client },
                seed,
            },
        );
        for c in fed.clients() {
            prop_assert!(c.train_classes().len() <= classes_per_client);
        }
    }

    #[test]
    fn rendered_views_are_finite_and_right_sized(
        class in 0usize..10,
        seed in 0u64..500,
        rho in 0.0f32..1.0,
        noise in 0.0f32..0.3,
        mask in 0.0f32..0.3,
    ) {
        let generator = SynthVision::new(SynthVisionSpec::cifar10());
        let mut r = seeded(seed);
        let sample = generator.sample(class, &mut r);
        let aug = AugmentConfig { nuisance_keep: rho, noise_std: noise, mask_prob: mask, gain_jitter: 0.1 };
        let view = generator.render_view(&sample, &aug, &mut r);
        prop_assert_eq!(view.len(), 64);
        prop_assert!(view.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn canonical_render_is_deterministic(class in 0usize..10, seed in 0u64..500) {
        let generator = SynthVision::new(SynthVisionSpec::cifar10());
        let sample = generator.sample(class, &mut seeded(seed));
        prop_assert_eq!(generator.render(&sample), generator.render(&sample));
    }

    #[test]
    fn two_view_batches_stay_aligned(n in 2usize..20, seed in 0u64..500) {
        let generator = SynthVision::new(SynthVisionSpec::stl10());
        let mut r = seeded(seed);
        let samples: Vec<Sample> = (0..n).map(|i| generator.sample(i % 10, &mut r)).collect();
        let (ve, vo) = generator.render_two_views(samples.iter(), &AugmentConfig::default(), &mut r);
        prop_assert_eq!(ve.shape(), (n, 64));
        prop_assert_eq!(vo.shape(), (n, 64));
    }

    #[test]
    fn global_histogram_counts_all_training_samples(
        non_iid in any_non_iid(),
        seed in 0u64..200,
    ) {
        let fed = FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 5,
                train_per_client: 30,
                test_per_client: 10,
                unlabeled_per_client: 0,
                non_iid,
                seed,
            },
        );
        let hist = fed.global_label_histogram();
        prop_assert_eq!(hist.iter().sum::<usize>(), 5 * 30);
    }

    #[test]
    fn cached_gather_matches_batch_and_per_sample_render(
        shift_std in prop_oneof![Just(0.0f32), 0.5f32..3.0],
        seed in 0u64..500,
        client in 0usize..3,
        picks in prop::collection::vec(0usize..25, 0..40),
    ) {
        let fed = FederatedDataset::build_with_feature_shift(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 3,
                train_per_client: 25,
                test_per_client: 5,
                unlabeled_per_client: 0,
                non_iid: NonIid::Dirichlet { alpha: 0.3 },
                seed,
            },
            shift_std,
        );
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let train = &fed.client(client).train;
        let (cached, labels) = fed.train_batch(client, &picks);
        let batch = fed.generator().render_batch(picks.iter().map(|&i| &train[i]));
        let stacked: Vec<f32> = picks
            .iter()
            .flat_map(|&i| fed.generator().render(&train[i]))
            .collect();
        prop_assert_eq!(cached.shape(), (picks.len(), 64));
        prop_assert_eq!(bits(cached.as_slice()), bits(batch.as_slice()));
        prop_assert_eq!(bits(batch.as_slice()), bits(&stacked));
        let expected: Vec<usize> = picks.iter().map(|&i| train[i].expect_label()).collect();
        prop_assert_eq!(labels, expected);
    }
}
