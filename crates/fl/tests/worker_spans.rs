//! Span placement of the worker map: one `client` span per item, a
//! `wait_workers` span on the calling thread only when workers were
//! spawned, and one `render_views` prep span per client of an SSL round.
//! Its own test binary, because the span collector is process-wide and
//! would otherwise see other tests' spans; the tests here take turns.

use calibre_data::{AugmentConfig, FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
use calibre_fl::parallel::parallel_map;
use calibre_fl::pfl_ssl::train_pfl_ssl_encoder_observed;
use calibre_fl::FlConfig;
use calibre_ssl::SslKind;
use calibre_telemetry::{
    install_collector, span, uninstall_collector, Event, MemoryRecorder, ProfileCollector,
};
use std::sync::{Arc, Mutex};

/// Serializes the tests: each installs the process-wide collector.
static COLLECTOR: Mutex<()> = Mutex::new(());

#[test]
fn join_wait_is_its_own_span_and_the_sequential_path_has_none() {
    let _turn = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    let collector = Arc::new(ProfileCollector::new());
    install_collector(collector.clone());
    {
        let _round = span("round");
        let _ = parallel_map(&[7usize], |&x| x + 1);
    }
    let single = collector.report();
    {
        let _round = span("round");
        let _ = parallel_map(&[1usize, 2, 3, 4], |&x| x * 2);
    }
    uninstall_collector();
    let both = collector.report();

    assert_eq!(single.stats(&["round", "client"]).map(|s| s.calls), Some(1));
    assert!(single.stats(&["round", "wait_workers"]).is_none());

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wait = both.stats(&["round", "wait_workers"]).map(|s| s.calls);
    if threads > 1 {
        // Workers run their items on their own threads, outside `round`.
        assert_eq!(both.stats(&["client"]).map(|s| s.calls), Some(4));
        assert_eq!(wait, Some(1));
    } else {
        assert_eq!(both.stats(&["round", "client"]).map(|s| s.calls), Some(5));
        assert_eq!(wait, None);
    }
}

#[test]
fn ssl_rounds_render_each_client_once_and_charge_it_to_its_update() {
    let _turn = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    let fed = FederatedDataset::build(
        SynthVisionSpec::cifar10(),
        &PartitionConfig {
            num_clients: 3,
            train_per_client: 24,
            test_per_client: 4,
            unlabeled_per_client: 0,
            non_iid: NonIid::Dirichlet { alpha: 0.5 },
            seed: 2,
        },
    );
    let mut cfg = FlConfig::for_input(64);
    cfg.rounds = 2;
    cfg.clients_per_round = 3;
    cfg.local_epochs = 1;
    cfg.batch_size = 8;
    let recorder = MemoryRecorder::new();
    let collector = Arc::new(ProfileCollector::new());
    install_collector(collector.clone());
    train_pfl_ssl_encoder_observed(
        &fed,
        &cfg,
        SslKind::SimClr,
        &AugmentConfig::default(),
        None,
        &recorder,
    );
    uninstall_collector();
    let report = collector.report();

    let walls_ms: Vec<f64> = recorder
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::ClientUpdate { wall_ms, .. } => Some(*wall_ms),
            _ => None,
        })
        .collect();
    assert_eq!(walls_ms.len(), 6, "3 clients x 2 rounds");
    let render = report.by_name("render_views");
    let client = report.by_name("client");
    assert_eq!(render.calls, 6, "one prep span per client update");
    assert_eq!(client.calls, 6, "one run span per client update");
    // Prep spans are not nested in the run's `client` span.
    assert!(report
        .entries()
        .iter()
        .all(|(path, _)| !(path.contains(&"client") && path.contains(&"render_views"))));
    // Each reported wall clock times the prep and the run around their
    // spans, so the walls cover both.
    let wall_us: f64 = walls_ms.iter().sum::<f64>() * 1e3;
    assert!(
        wall_us + 1.0 >= render.total_us + client.total_us,
        "walls {wall_us} us < render {} us + client {} us",
        render.total_us,
        client.total_us
    );
    assert!(render.total_us > 0.0);
}
