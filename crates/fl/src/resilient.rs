//! Resilient round execution: bounded retries, update validation, and
//! minimum-quorum partial aggregation over a chaos-injected cohort.
//!
//! The federated round loops ([`crate::pfl_ssl`], the baselines in
//! [`crate::baselines`], and the Calibre framework in the `calibre` crate)
//! funnel their select → local-update → aggregate cycle through
//! [`run_round_resilient`], which:
//!
//! 1. asks the optional [`FaultInjector`] what goes wrong for each
//!    `(round, client, attempt)` cell — dropout, straggle, mid-update
//!    panic, or update corruption;
//! 2. runs the surviving clients through
//!    [`crate::parallel::parallel_map_resilient`], so a panicking worker
//!    (injected *or* genuine) is isolated to its slot instead of tearing
//!    down the run;
//! 3. retries panicked clients up to [`RoundPolicy::max_retries`] times
//!    with freshly created state (the old state died in the unwind);
//! 4. validates every reported update ([`validate_update`]): non-finite
//!    updates are rejected for the round, and [`RoundPolicy::clip_norm`]
//!    optionally caps each update's L2 norm;
//! 5. aggregates the accepted updates with the configured [`Aggregator`]
//!    if at least [`RoundPolicy::min_quorum`] survived, re-normalizing
//!    weights over the survivors; otherwise the round is *skipped* —
//!    reported via telemetry, never a panic.
//!
//! With no injector and the default policy the executor is bit-identical
//! to the historical nominal path: same state creation order, same worker
//! closure, same [`weighted_average_refs`](crate::aggregate::weighted_average_refs)
//! call over the same slot-ordered updates — the golden-checksum tests pin
//! this.
//!
//! Telemetry stays count-stable for nominal rounds: `Fault` and
//! `RoundResilience` events are emitted only when something non-nominal
//! actually happened.

use crate::aggregate::{
    aggregate_robust, clip_norm, validate_update, Aggregator, StreamingWeightedSink, UpdateSink,
};
use crate::chaos::{panic_injected, ClientFault, FaultInjector};
use crate::parallel::parallel_map_resilient;
use calibre_telemetry::{metrics, Recorder};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// How the server treats failures within one round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundPolicy {
    /// Minimum number of accepted client updates required to aggregate;
    /// below this the round is skipped (global model unchanged). Values
    /// below 1 behave as 1.
    pub min_quorum: usize,
    /// How many times a panicked client is re-run within the round.
    pub max_retries: usize,
    /// Aggregation statistic applied to the accepted updates.
    pub aggregator: Aggregator,
    /// Optional L2 norm cap applied to each accepted update.
    pub clip_norm: Option<f32>,
}

impl Default for RoundPolicy {
    fn default() -> Self {
        RoundPolicy {
            min_quorum: 1,
            max_retries: 1,
            aggregator: Aggregator::WeightedAverage,
            clip_norm: None,
        }
    }
}

/// What one client's local update hands back to the server.
#[derive(Debug)]
pub struct ClientOutcome<S, P> {
    /// The client's persistent state, returned to the server-side cache.
    pub state: S,
    /// The flattened parameters the client reports.
    pub flat: Vec<f32>,
    /// The client's sample count (basis for FedAvg weighting).
    pub count: usize,
    /// Method-specific payload (losses, divergence, ...).
    pub payload: P,
}

/// An accepted (validated) client update, in selection-slot order.
#[derive(Debug)]
pub struct AcceptedClient<S, P> {
    /// Index into the round's selection (stable ordering key).
    pub slot: usize,
    /// Client id.
    pub id: usize,
    /// Persistent client state to return to the cache.
    pub state: S,
    /// Validated (possibly norm-clipped) flattened parameters.
    pub flat: Vec<f32>,
    /// Sample count.
    pub count: usize,
    /// Method-specific payload.
    pub payload: P,
    /// Wall-clock of the accepted attempt, measured in the worker.
    pub wall: Duration,
}

/// One fault observed (injected or genuine) during a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Client the fault hit.
    pub client: usize,
    /// Delivery attempt (0 = first try).
    pub attempt: usize,
    /// Telemetry tag (`"dropout"`, `"panic"`, `"corrupt_nan"`, ...).
    pub kind: &'static str,
    /// Whether the resilient layer detected and handled it (vs. a silent
    /// corruption that reached the aggregator).
    pub detected: bool,
}

/// Deterministic accounting of everything non-nominal in one round.
#[derive(Debug, Clone, Default)]
pub struct RoundReport {
    /// Faults the injector fired this round (all attempts).
    pub injected: usize,
    /// Faults the resilient layer detected (dropouts, panics, rejected or
    /// clipped updates) — includes genuine, non-injected panics.
    pub detected: usize,
    /// Client re-runs after a panic.
    pub retries: usize,
    /// Number of accepted updates (the achieved quorum).
    pub quorum: usize,
    /// Whether the round was skipped for missing the minimum quorum.
    pub skipped: bool,
    /// Sum of the aggregation weights over accepted clients.
    pub weight_sum: f32,
    /// Every fault observed, in deterministic (attempt, slot) order.
    pub faults: Vec<FaultRecord>,
}

impl RoundReport {
    /// Whether the round was completely nominal (no faults, no retries,
    /// full participation) — in which case no resilience telemetry is
    /// emitted and the round is bit-identical to the historical path.
    pub fn is_nominal(&self, selected: usize) -> bool {
        self.faults.is_empty() && !self.skipped && self.retries == 0 && self.quorum == selected
    }
}

/// Result of one resilient round.
#[derive(Debug)]
pub struct ResilientRound<S, P> {
    /// Accepted client updates in selection-slot order.
    pub accepted: Vec<AcceptedClient<S, P>>,
    /// States of clients that ran but whose update was rejected by
    /// validation — returned so the server-side cache keeps them.
    pub rejected_states: Vec<(usize, S)>,
    /// Aggregated parameters, or `None` when the round was skipped.
    pub aggregated: Option<Vec<f32>>,
    /// Fault/retry/quorum accounting.
    pub report: RoundReport,
}

/// Executes one federated round under faults.
///
/// - `selected` — the round's client selection, in schedule order.
/// - `make_state` — takes (or lazily creates) a client's persistent state;
///   called again with the same id when a panicked client is retried (its
///   previous state died in the unwind).
/// - `work` — the local update: `(client_id, state) -> ClientOutcome`. Runs
///   on worker threads; panics are caught and isolated per slot.
/// - `weights_of` — maps the accepted cohort to aggregation weights (e.g.
///   sample counts, optionally modulated by divergence). Only called when
///   at least one update was accepted.
///
/// Fault and resilience telemetry is emitted on the calling thread after
/// all attempts complete, and only when the round was non-nominal.
#[allow(clippy::too_many_arguments)] // one entry point for the whole round
pub fn run_round_resilient<S, P, MS, W, WF>(
    round: usize,
    selected: &[usize],
    mut make_state: MS,
    work: W,
    weights_of: WF,
    injector: Option<&FaultInjector>,
    policy: &RoundPolicy,
    recorder: &dyn Recorder,
) -> ResilientRound<S, P>
where
    S: Send,
    P: Send,
    MS: FnMut(usize) -> S,
    W: Fn(usize, S) -> ClientOutcome<S, P> + Sync,
    WF: FnOnce(&[AcceptedClient<S, P>]) -> Vec<f32>,
{
    let mut report = RoundReport::default();
    let mut accepted: Vec<AcceptedClient<S, P>> = Vec::with_capacity(selected.len());
    let mut rejected_states: Vec<(usize, S)> = Vec::new();
    // (slot, id) pairs still owed an attempt.
    let mut pending: Vec<(usize, usize)> = selected.iter().copied().enumerate().collect();

    let mut attempt = 0;
    while !pending.is_empty() && attempt <= policy.max_retries {
        let mut meta: Vec<(usize, usize, Option<ClientFault>)> = Vec::new();
        let mut wave: Vec<(usize, usize, Option<ClientFault>, S)> = Vec::new();
        for &(slot, id) in &pending {
            let fault = injector.and_then(|inj| inj.decide(round, id, attempt));
            if fault.is_some() {
                report.injected += 1;
            }
            if fault == Some(ClientFault::Dropout) {
                // The client never runs: its cached state is untouched.
                report.detected += 1;
                report.faults.push(FaultRecord {
                    client: id,
                    attempt,
                    kind: "dropout",
                    detected: true,
                });
                continue;
            }
            meta.push((slot, id, fault));
            wave.push((slot, id, fault, make_state(id)));
        }
        pending.clear();

        let results = parallel_map_resilient(wave, |(_slot, id, fault, state)| {
            if let Some(ClientFault::Straggle { delay_ms }) = fault {
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
            if fault == Some(ClientFault::PanicMidUpdate) {
                panic_injected(round, id);
            }
            work(id, state)
        });

        for ((slot, id, fault), (result, wall)) in meta.into_iter().zip(results) {
            match result {
                Err(_panic) => {
                    // Injected or genuine — either way the state is gone.
                    report.detected += 1;
                    report.faults.push(FaultRecord {
                        client: id,
                        attempt,
                        kind: "panic",
                        detected: true,
                    });
                    if attempt < policy.max_retries {
                        report.retries += 1;
                        pending.push((slot, id));
                    }
                }
                Ok(mut outcome) => {
                    if let Some(ClientFault::Corrupt(kind)) = fault {
                        injector
                            // analyze:allow(no-expect) -- `fault` is Some
                            // only when an injector produced it above.
                            .expect("corruption faults only come from an injector")
                            .corrupt(round, id, attempt, kind, &mut outcome.flat);
                    }
                    if !validate_update(&outcome.flat) {
                        // Non-finite update: terminal for the round, but the
                        // client's (finite) training state is kept.
                        report.detected += 1;
                        report.faults.push(FaultRecord {
                            client: id,
                            attempt,
                            kind: match fault {
                                Some(f) => f.kind_tag(),
                                None => "invalid",
                            },
                            detected: true,
                        });
                        rejected_states.push((id, outcome.state));
                        continue;
                    }
                    let clipped = policy
                        .clip_norm
                        .map(|m| clip_norm(&mut outcome.flat, m))
                        .unwrap_or(false);
                    match fault {
                        Some(ClientFault::Straggle { .. }) => report.faults.push(FaultRecord {
                            client: id,
                            attempt,
                            kind: "straggle",
                            detected: false,
                        }),
                        Some(ClientFault::Corrupt(kind)) => {
                            // Finite corruption: detected only if the norm
                            // clip actually bit.
                            if clipped {
                                report.detected += 1;
                            }
                            report.faults.push(FaultRecord {
                                client: id,
                                attempt,
                                kind: kind.kind_tag(),
                                detected: clipped,
                            });
                        }
                        _ => {}
                    }
                    accepted.push(AcceptedClient {
                        slot,
                        id,
                        state: outcome.state,
                        flat: outcome.flat,
                        count: outcome.count,
                        payload: outcome.payload,
                        wall,
                    });
                }
            }
        }
        attempt += 1;
    }

    accepted.sort_by_key(|a| a.slot);
    report.quorum = accepted.len();
    let min_quorum = policy.min_quorum.max(1);
    let aggregated = if accepted.len() >= min_quorum {
        let weights = weights_of(&accepted);
        report.weight_sum = weights.iter().sum();
        // Accepted updates are finite and same-shaped, so this only fails
        // on a caller bug (weight count); degrade to a skipped round rather
        // than panicking mid-training.
        aggregate_accepted(policy.aggregator, &accepted, &weights)
    } else {
        None
    };
    report.skipped = aggregated.is_none();

    // Live-export counters (inert unless the metrics registry is enabled).
    // Guarded so nominal rounds create no fault series at all.
    if report.injected > 0 {
        metrics::counter_add("calibre_faults_injected_total", &[], report.injected as u64);
    }
    if report.detected > 0 {
        metrics::counter_add("calibre_faults_detected_total", &[], report.detected as u64);
    }
    if report.retries > 0 {
        metrics::counter_add("calibre_retries_total", &[], report.retries as u64);
    }

    if !report.is_nominal(selected.len()) {
        for f in &report.faults {
            recorder.fault(round, f.client, f.attempt, f.kind, f.detected);
        }
        recorder.round_resilience(
            round,
            report.injected,
            report.detected,
            report.retries,
            report.quorum,
            report.skipped,
        );
    }

    ResilientRound {
        accepted,
        rejected_states,
        aggregated,
        report,
    }
}

/// Aggregates the accepted cohort. The weighted average streams each
/// update straight out of its [`AcceptedClient`] through a
/// [`StreamingWeightedSink`] — no intermediate `Vec` of borrows, and
/// bit-identical to the historical
/// [`weighted_average_refs`](crate::aggregate::weighted_average_refs) call
/// because the sink applies the same total-first, slot-ordered arithmetic.
/// The robust statistics need all per-coordinate columns at once, so they
/// keep the collected-slice path.
fn aggregate_accepted<S, P>(
    aggregator: Aggregator,
    accepted: &[AcceptedClient<S, P>],
    weights: &[f32],
) -> Option<Vec<f32>> {
    match aggregator {
        Aggregator::WeightedAverage => {
            let n = accepted.len();
            if n == 0 || weights.len() != n {
                return None;
            }
            let dim = accepted.first().map(|a| a.flat.len()).unwrap_or(0);
            let span = calibre_telemetry::span("aggregate");
            span.add_items(n as u64);
            span.add_bytes((n * dim * std::mem::size_of::<f32>()) as u64);
            let total: f32 = weights.iter().sum();
            let mut sink = StreamingWeightedSink::for_cohort(total, n);
            for (a, &w) in accepted.iter().zip(weights.iter()) {
                sink.fold(a.slot, &a.flat, w).ok()?;
            }
            sink.finish().ok()
        }
        _ => {
            let flats: Vec<&[f32]> = accepted.iter().map(|a| a.flat.as_slice()).collect();
            aggregate_robust(aggregator, &flats, weights).ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;
    use calibre_telemetry::{Event, MemoryRecorder, NullRecorder};

    /// A toy "client": state is its id, update is a constant vector scaled
    /// by (id + 1); weight 1 each.
    fn toy_work(id: usize, state: u64) -> ClientOutcome<u64, f32> {
        let v = (id + 1) as f32;
        ClientOutcome {
            state,
            flat: vec![v; 4],
            count: 1,
            payload: v,
        }
    }

    fn uniform_weights<S, P>(accepted: &[AcceptedClient<S, P>]) -> Vec<f32> {
        vec![1.0; accepted.len()]
    }

    #[test]
    fn nominal_round_accepts_everyone_and_averages() {
        let selected = [0usize, 1, 2];
        let out = run_round_resilient(
            0,
            &selected,
            |id| id as u64,
            toy_work,
            uniform_weights,
            None,
            &RoundPolicy::default(),
            &NullRecorder,
        );
        assert_eq!(out.accepted.len(), 3);
        assert!(out.report.is_nominal(3));
        assert_eq!(out.report.quorum, 3);
        let agg = out.aggregated.unwrap();
        for v in &agg {
            assert!((v - 2.0).abs() < 1e-6, "mean of 1,2,3 is 2, got {v}");
        }
        // Accepted kept selection order.
        let ids: Vec<usize> = out.accepted.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn nominal_round_emits_no_resilience_telemetry() {
        let rec = MemoryRecorder::new();
        run_round_resilient(
            0,
            &[0usize, 1],
            |id| id as u64,
            toy_work,
            uniform_weights,
            None,
            &RoundPolicy::default(),
            &rec,
        );
        assert!(rec.events().is_empty(), "{:#?}", rec.events());
    }

    #[test]
    fn guaranteed_panics_exhaust_retries_and_skip_the_round() {
        let plan = FaultPlan {
            panic_prob: 1.0,
            ..FaultPlan::default()
        };
        let injector = FaultInjector::new(plan);
        let rec = MemoryRecorder::new();
        let policy = RoundPolicy {
            max_retries: 1,
            ..RoundPolicy::default()
        };
        let out = run_round_resilient(
            0,
            &[0usize, 1, 2],
            |id| id as u64,
            toy_work,
            uniform_weights,
            Some(&injector),
            &policy,
            &rec,
        );
        assert!(out.accepted.is_empty());
        assert!(out.aggregated.is_none());
        assert!(out.report.skipped);
        assert_eq!(out.report.retries, 3, "each client retried once");
        assert_eq!(out.report.injected, 6, "3 clients x 2 attempts");
        // Telemetry: 6 fault events + 1 round_resilience.
        let events = rec.events();
        assert_eq!(events.len(), 7, "{events:#?}");
        assert!(matches!(
            events.last().unwrap(),
            Event::RoundResilience { skipped: true, .. }
        ));
    }

    #[test]
    fn genuine_panics_are_retried_with_fresh_state() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let out = run_round_resilient(
            0,
            &[0usize, 1],
            |id| id as u64,
            |id, state| {
                if id == 1 && calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("flaky client");
                }
                toy_work(id, state)
            },
            uniform_weights,
            None,
            &RoundPolicy::default(),
            &NullRecorder,
        );
        assert_eq!(out.report.retries, 1);
        assert_eq!(out.report.injected, 0, "genuine panic is not injected");
        assert_eq!(out.report.detected, 1);
        assert_eq!(out.accepted.len(), 2, "retry succeeded");
        assert_eq!(out.accepted[1].id, 1);
    }

    #[test]
    fn non_finite_updates_are_rejected_but_state_survives() {
        let out = run_round_resilient(
            3,
            &[0usize, 1, 2],
            |id| id as u64,
            |id, state| {
                let mut o = toy_work(id, state);
                if id == 1 {
                    o.flat[2] = f32::NAN;
                }
                o
            },
            uniform_weights,
            None,
            &RoundPolicy::default(),
            &NullRecorder,
        );
        assert_eq!(out.accepted.len(), 2);
        assert_eq!(out.rejected_states, vec![(1, 1u64)]);
        assert_eq!(out.report.quorum, 2);
        assert!(!out.report.skipped, "quorum of 1 still met");
        let agg = out.aggregated.unwrap();
        assert!(agg.iter().all(|v| v.is_finite()));
        for v in &agg {
            assert!((v - 2.0).abs() < 1e-6, "mean of 1,3 is 2, got {v}");
        }
    }

    #[test]
    fn missing_quorum_skips_without_panicking() {
        let plan = FaultPlan {
            drop_prob: 1.0,
            ..FaultPlan::default()
        };
        let injector = FaultInjector::new(plan);
        let out = run_round_resilient(
            0,
            &[4usize, 5],
            |id| id as u64,
            toy_work,
            uniform_weights,
            Some(&injector),
            &RoundPolicy {
                min_quorum: 2,
                ..RoundPolicy::default()
            },
            &NullRecorder,
        );
        assert!(out.aggregated.is_none());
        assert!(out.report.skipped);
        assert_eq!(out.report.quorum, 0);
        assert!(out
            .report
            .faults
            .iter()
            .all(|f| f.kind == "dropout" && f.detected));
    }

    #[test]
    fn min_quorum_gates_partial_aggregation() {
        // One NaN client out of three: quorum 3 cannot be met.
        let out = run_round_resilient(
            0,
            &[0usize, 1, 2],
            |id| id as u64,
            |id, state| {
                let mut o = toy_work(id, state);
                if id == 0 {
                    o.flat[0] = f32::INFINITY;
                }
                o
            },
            uniform_weights,
            None,
            &RoundPolicy {
                min_quorum: 3,
                ..RoundPolicy::default()
            },
            &NullRecorder,
        );
        assert_eq!(out.report.quorum, 2);
        assert!(out.report.skipped);
        assert!(out.aggregated.is_none());
    }

    #[test]
    fn clip_norm_caps_blown_up_updates() {
        let out = run_round_resilient(
            0,
            &[0usize, 1],
            |id| id as u64,
            |id, state| {
                let mut o = toy_work(id, state);
                if id == 1 {
                    for v in o.flat.iter_mut() {
                        *v *= 1e6;
                    }
                }
                o
            },
            uniform_weights,
            None,
            &RoundPolicy {
                clip_norm: Some(10.0),
                ..RoundPolicy::default()
            },
            &NullRecorder,
        );
        let agg = out.aggregated.unwrap();
        let norm: f32 = agg.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(norm < 10.0, "aggregate norm {norm} should be bounded");
    }

    #[test]
    fn median_aggregation_shrugs_off_a_sign_flip() {
        let policy = RoundPolicy {
            aggregator: Aggregator::CoordinateMedian,
            ..RoundPolicy::default()
        };
        let out = run_round_resilient(
            0,
            &[0usize, 1, 2],
            |id| id as u64,
            |id, state| {
                let mut o = toy_work(id, state);
                o.flat = vec![1.0; 4];
                if id == 2 {
                    for v in o.flat.iter_mut() {
                        *v = -1e6;
                    }
                }
                o
            },
            uniform_weights,
            None,
            &policy,
            &NullRecorder,
        );
        let agg = out.aggregated.unwrap();
        for v in &agg {
            assert!((v - 1.0).abs() < 1e-6, "median ignores the outlier: {v}");
        }
    }
}
