//! Span placement of the worker map: one `client` span per item, and a
//! `wait_workers` span on the calling thread only when workers were
//! spawned. Its own test binary, because the span collector is
//! process-wide and would otherwise see other tests' spans.

use calibre_fl::parallel::parallel_map;
use calibre_telemetry::{install_collector, span, uninstall_collector, ProfileCollector};
use std::sync::Arc;

#[test]
fn join_wait_is_its_own_span_and_the_sequential_path_has_none() {
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
