//! Round orchestration shared by every training loop.
//!
//! [`RoundScheduler`] owns the three per-run decisions that used to be
//! duplicated inside `pfl_ssl`, the Calibre framework loop and every
//! federated baseline: which clients participate in a round (a fixed
//! schedule or a seeded [`Sampler`]), what faults are injected
//! ([`FaultInjector`]), and how the round is executed and aggregated
//! ([`RoundPolicy`]). The baselines in [`crate::baselines`] reach it
//! through one per-round helper and always take the collect path.
//!
//! Two execution paths share that state:
//!
//! * [`RoundScheduler::run_round`] — the collect-then-aggregate path used
//!   by training: full per-client telemetry, retries, and state caching via
//!   [`run_round_resilient`]. Memory is O(cohort × model).
//! * [`RoundScheduler::run_round_streaming`] — the massive-cohort path:
//!   updates are folded into an [`UpdateSink`] the moment a wave of workers
//!   finishes, so aggregation state is O(model) (or O(groups × model) for a
//!   [`crate::aggregate::HierarchicalSink`]) no matter how many clients
//!   participate. See `DESIGN.md` §11 for the scaling model.
//!
//! The streaming path has one wave-fold loop. In process, its waves are
//! delivered by an [`InProcessTransport`];
//! [`RoundScheduler::run_round_transport`] runs the same loop over any
//! [`Transport`], including remote clients. The loop is generic over the
//! delivery error, so the in-process entries have no error branch at all.
//!
//! # Determinism
//!
//! Both paths are replay-identical: selection depends only on
//! `(seed, round)`, fault decisions only on `(round, client, attempt)`, and
//! updates are folded in selection-slot order (the parallel maps preserve
//! input order). With an inactive chaos plan and the default policy,
//! `run_round` is bit-identical to the historical nominal loop — the
//! golden-checksum tests pin this through the training entry points.

use crate::adversary::{anomaly_scores, AttackInjector, AttackPlan, ReputationBook};
use crate::aggregate::UpdateSink;
use crate::chaos::{ClientFault, FaultInjector, FaultPlan};
use crate::comm::BYTES_PER_PARAM;
use crate::config::FlConfig;
use crate::resilient::{
    run_round_resilient, AcceptedClient, ClientOutcome, ResilientRound, RoundPolicy,
};
use crate::sampler::Sampler;
use crate::transport::{InProcessTransport, StreamUpdate, Transport, TransportError, WaveSlot};
use calibre_telemetry::{metrics, ClientLosses, Recorder};
use std::convert::Infallible;

/// How a scheduler picks each round's cohort.
#[derive(Debug, Clone)]
enum Selection {
    /// A precomputed per-round schedule (the training loops' historical
    /// behaviour via [`FlConfig::selection_schedule`]).
    Fixed(Vec<Vec<usize>>),
    /// A seeded [`Sampler`] over a large population.
    Sampled {
        sampler: Sampler,
        population: usize,
        cohort: usize,
        rounds: usize,
    },
}

/// Per-round context the caller threads into [`RoundScheduler::run_round`]:
/// the telemetry sink plus the few quantities only the caller knows.
pub struct RoundContext<'a> {
    /// Destination for the round's telemetry events.
    pub recorder: &'a dyn Recorder,
    /// Parameter count pushed down to each client (the global model size),
    /// used for observed-bytes accounting.
    pub downlink_params: usize,
    /// Planned communication volume for the round (shape-derived).
    pub planned_bytes: u64,
    /// Mean loss to report if the round is skipped (usually the previous
    /// round's, so histories stay finite).
    pub fallback_loss: f32,
    /// Mean divergence to report if the round is skipped.
    pub fallback_divergence: f32,
}

impl std::fmt::Debug for RoundContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundContext")
            .field("downlink_params", &self.downlink_params)
            .field("planned_bytes", &self.planned_bytes)
            .field("fallback_loss", &self.fallback_loss)
            .field("fallback_divergence", &self.fallback_divergence)
            .finish_non_exhaustive()
    }
}

/// Result of one scheduled (collect-then-aggregate) round: the resilient
/// round plus the loss/divergence means the loop histories record.
#[derive(Debug)]
pub struct ScheduledRound<S, P> {
    /// Accepted clients, rejected states, aggregate, and fault accounting.
    pub round: ResilientRound<S, P>,
    /// Mean client loss over accepted clients (fallback if skipped).
    pub mean_loss: f32,
    /// Mean client divergence over accepted clients (fallback if skipped).
    pub mean_divergence: f32,
}

/// Result of one streaming round over a massive cohort.
#[derive(Debug)]
pub struct StreamedRound {
    /// Cohort size this round (selected clients).
    pub cohort: usize,
    /// Updates folded into the sink.
    pub accepted: usize,
    /// Clients that never reported (dropout or mid-update panic — the
    /// streaming path does not retry).
    pub dropped: usize,
    /// Updates rejected by validation (non-finite).
    pub rejected: usize,
    /// Sum of the folded aggregation weights.
    pub weight_sum: f32,
    /// Whether the round missed the minimum quorum (no aggregate).
    pub skipped: bool,
    /// The aggregate, unless the round was skipped.
    pub aggregated: Option<Vec<f32>>,
    /// Peak bytes held by the aggregation path (sink state + quorum buffer
    /// + in-flight wave) — the O(model) quantity the `cohort` bench pins.
    pub peak_state_bytes: usize,
    /// Mean reported loss over accepted clients (0 when none reported a
    /// loss — the tuple-based [`RoundScheduler::run_round_streaming`] entry
    /// reports no losses).
    pub mean_loss: f32,
    /// Mean reported divergence over accepted clients (0 when untracked).
    pub mean_divergence: f32,
}

/// The quorum hold-then-flush gate shared by every streaming fold path.
///
/// A fold cannot be undone, so the first `min_quorum - 1` validated updates
/// are buffered; once the quorum is certain the buffer is flushed and
/// subsequent updates stream straight into the sink. The buffer is
/// O(min_quorum × model), independent of cohort size. Fold indices are
/// assigned in acceptance order, so replaying the same acceptance sequence
/// folds bit-identically.
struct FoldGate {
    min_quorum: usize,
    held: Vec<(usize, Vec<f32>, f32)>,
    held_bytes: usize,
    accepted: usize,
    weight_sum: f32,
    loss_sum: f32,
    div_sum: f32,
    slot: usize,
}

impl FoldGate {
    fn new(min_quorum: usize) -> Self {
        FoldGate {
            min_quorum: min_quorum.max(1),
            held: Vec::new(),
            held_bytes: 0,
            accepted: 0,
            weight_sum: 0.0,
            loss_sum: 0.0,
            div_sum: 0.0,
            slot: 0,
        }
    }

    /// Accepts one validated update: buffers it while the quorum is
    /// uncertain, otherwise flushes the buffer and folds.
    fn accept(
        &mut self,
        sink: &mut dyn UpdateSink,
        update: Vec<f32>,
        weight: f32,
        loss: f32,
        divergence: f32,
    ) {
        self.accepted += 1;
        self.weight_sum += weight;
        self.loss_sum += loss;
        self.div_sum += divergence;
        if self.accepted <= self.min_quorum && self.held.len() + 1 < self.min_quorum {
            self.held_bytes += update.len() * std::mem::size_of::<f32>();
            self.held.push((self.slot, update, weight));
        } else {
            for (s, u, w) in self.held.drain(..) {
                let _ = sink.fold(s, &u, w);
            }
            self.held_bytes = 0;
            let _ = sink.fold(self.slot, &update, weight);
        }
        self.slot += 1;
    }

    /// Bytes currently buffered awaiting quorum certainty.
    fn held_bytes(&self) -> usize {
        self.held_bytes
    }

    /// Mean loss/divergence over accepted updates (0 when none accepted).
    fn means(&self) -> (f32, f32) {
        if self.accepted == 0 {
            (0.0, 0.0)
        } else {
            // analyze:allow(lossy-cast) -- cohort sizes sit far below f32
            // integer precision loss (2^24).
            let nf = self.accepted as f32;
            (self.loss_sum / nf, self.div_sum / nf)
        }
    }
}

/// Holds the round's accepted updates for post-round anomaly scoring.
/// Inert (and allocation-free) unless detection is armed; when armed its
/// bytes are accounted into `peak_state_bytes`, making the O(cohort ×
/// model) cost of detection visible to the memory gates.
struct DetectionBuffer {
    armed: bool,
    watch: Vec<(usize, Vec<f32>)>,
    bytes: usize,
}

impl DetectionBuffer {
    fn new(armed: bool) -> Self {
        DetectionBuffer {
            armed,
            watch: Vec::new(),
            bytes: 0,
        }
    }

    /// Records one accepted update (exactly as the aggregator saw it).
    fn push(&mut self, id: usize, update: &[f32]) {
        if self.armed {
            self.bytes += std::mem::size_of_val(update);
            self.watch.push((id, update.to_vec()));
        }
    }

    /// Bytes currently held for scoring (0 when detection is off).
    fn bytes(&self) -> usize {
        self.bytes
    }

    /// Scores the held updates and folds them into the scheduler's
    /// reputation book. Skipped rounds still observe: detection must not
    /// pause while an adversary suppresses quorum.
    fn observe(self, scheduler: &RoundScheduler, round: usize, recorder: &dyn Recorder) {
        if !self.armed || self.watch.is_empty() {
            return;
        }
        let ids: Vec<usize> = self.watch.iter().map(|(id, _)| *id).collect();
        let updates: Vec<&[f32]> = self.watch.iter().map(|(_, u)| u.as_slice()).collect();
        scheduler.observe_round(round, &ids, &updates, recorder);
    }
}

/// Owns selection, fault injection, adversary simulation, anomaly
/// detection, and round policy for a training run.
///
/// # Determinism
///
/// Selection, chaos, and attack decisions are all re-derived from
/// `(seed, round, client)`, so calling [`RoundScheduler::select`] twice —
/// or resuming a checkpointed run at round `k` — yields exactly the
/// schedule of an uninterrupted run. The one piece of mutable state is the
/// [`ReputationBook`]: it folds anomaly scores round by round, and because
/// the scores themselves are deterministic, a resumed run that restores
/// the book from a checkpoint (via [`RoundScheduler::with_reputation`])
/// replays identically too. An empty book leaves [`RoundScheduler::select`]
/// bit-identical to a detection-free scheduler.
///
/// # Examples
///
/// Sampling a 32-client cohort from a 10k population and streaming the
/// round through a constant-memory sink:
///
/// ```
/// use calibre_fl::aggregate::StreamingWeightedSink;
/// use calibre_fl::sampler::{Sampler, SamplerKind};
/// use calibre_fl::scheduler::RoundScheduler;
/// use calibre_telemetry::NullRecorder;
///
/// let scheduler =
///     RoundScheduler::sampled(Sampler::new(SamplerKind::Uniform, 7), 10_000, 32, 3);
/// assert_eq!(scheduler.rounds(), 3);
/// let selected = scheduler.select(0, None);
/// assert_eq!(selected, scheduler.select(0, None), "replay-identical");
///
/// let mut sink = StreamingWeightedSink::new();
/// let out = scheduler.run_round_streaming(
///     0,
///     &selected,
///     8,
///     &mut sink,
///     |client| (vec![client as f32; 4], 1.0),
///     &NullRecorder,
/// );
/// assert_eq!(out.accepted, 32);
/// assert!(!out.skipped);
/// assert_eq!(out.aggregated.unwrap().len(), 4);
/// ```
#[derive(Debug)]
pub struct RoundScheduler {
    selection: Selection,
    injector: Option<FaultInjector>,
    attacker: Option<AttackInjector>,
    detect: bool,
    reputation: std::cell::RefCell<ReputationBook>,
    policy: RoundPolicy,
}

impl RoundScheduler {
    /// The training loops' scheduler: fixed selection schedule, chaos
    /// injector, and round policy all taken from the run config.
    pub fn from_config(cfg: &FlConfig, num_clients: usize) -> Self {
        RoundScheduler {
            selection: Selection::Fixed(cfg.selection_schedule(num_clients)),
            injector: cfg
                .chaos
                .is_active()
                .then(|| FaultInjector::for_run(cfg.chaos.clone(), cfg.seed)),
            attacker: cfg
                .attack
                .is_active()
                .then(|| AttackInjector::for_run(cfg.attack.clone(), cfg.seed)),
            detect: cfg.detect,
            reputation: std::cell::RefCell::new(ReputationBook::new()),
            policy: cfg.policy,
        }
    }

    /// A scheduler that samples `cohort` of `population` clients per round
    /// for `rounds` rounds, with the default [`RoundPolicy`] and no chaos.
    pub fn sampled(sampler: Sampler, population: usize, cohort: usize, rounds: usize) -> Self {
        RoundScheduler {
            selection: Selection::Sampled {
                sampler,
                population,
                cohort,
                rounds,
            },
            injector: None,
            attacker: None,
            detect: false,
            reputation: std::cell::RefCell::new(ReputationBook::new()),
            policy: RoundPolicy::default(),
        }
    }

    /// Replaces the round policy (quorum, aggregator, clipping).
    pub fn with_policy(mut self, policy: RoundPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Arms deterministic fault injection with the given plan and run seed
    /// (a no-op for inactive plans, matching the training loops).
    pub fn with_chaos(mut self, plan: FaultPlan, run_seed: u64) -> Self {
        self.injector = plan
            .is_active()
            .then(|| FaultInjector::for_run(plan, run_seed));
        self
    }

    /// Arms deterministic Byzantine-client simulation with the given
    /// [`AttackPlan`] and run seed (a no-op for inactive plans). Attack
    /// decisions are a pure function of `(plan.seed, run_seed, round,
    /// client)` and independent of the chaos stream, so arming both never
    /// correlates their draws.
    pub fn with_attack(mut self, plan: AttackPlan, run_seed: u64) -> Self {
        self.attacker = plan
            .is_active()
            .then(|| AttackInjector::for_run(plan, run_seed));
        self
    }

    /// Enables server-side anomaly detection: each executed round scores
    /// the accepted updates ([`anomaly_scores`]), folds them into the
    /// [`ReputationBook`], and quarantined clients stop being drawn by
    /// [`RoundScheduler::select`]. Detection holds the round's accepted
    /// updates (O(cohort × model) — accounted into `peak_state_bytes` on
    /// the streaming paths), so leave it off for massive-cohort runs.
    pub fn with_detection(mut self, on: bool) -> Self {
        self.detect = on;
        self
    }

    /// Restores reputation state from a checkpoint, so a resumed run
    /// quarantines exactly as the uninterrupted run would.
    pub fn with_reputation(mut self, book: ReputationBook) -> Self {
        self.reputation = std::cell::RefCell::new(book);
        self
    }

    /// A snapshot of the current reputation state (for checkpointing).
    pub fn reputation(&self) -> ReputationBook {
        self.reputation.borrow().clone()
    }

    /// The round policy this scheduler executes under.
    pub fn policy(&self) -> &RoundPolicy {
        &self.policy
    }

    /// Total number of rounds in the run.
    pub fn rounds(&self) -> usize {
        match &self.selection {
            Selection::Fixed(schedule) => schedule.len(),
            Selection::Sampled { rounds, .. } => *rounds,
        }
    }

    /// The cohort for `round`, sorted ascending. `scores` feeds weighted
    /// samplers (see [`Sampler::select`]); fixed schedules ignore it.
    ///
    /// Quarantined clients (see [`RoundScheduler::with_detection`]) are
    /// never drawn: sampled selections route through
    /// [`Sampler::select_excluding`], fixed schedules are filtered. With an
    /// empty reputation book the selection is bit-identical to a
    /// detection-free scheduler.
    pub fn select(&self, round: usize, scores: Option<&[f32]>) -> Vec<usize> {
        let banned = self.reputation.borrow().quarantined();
        match &self.selection {
            Selection::Fixed(schedule) => {
                let mut selected = schedule.get(round).cloned().unwrap_or_default();
                if !banned.is_empty() {
                    selected.retain(|id| !banned.contains(id));
                }
                selected
            }
            Selection::Sampled {
                sampler,
                population,
                cohort,
                ..
            } => sampler.select_excluding(round, *population, *cohort, scores, &banned),
        }
    }

    /// Emits one [`calibre_telemetry::Event::Attack`] per cohort member the
    /// adversary plan fires on this round. Decisions are pure per
    /// `(round, client)`, so the event stream is identical on every
    /// execution path regardless of chaos dropouts downstream.
    fn record_attacks(&self, round: usize, selected: &[usize], recorder: &dyn Recorder) {
        if let Some(atk) = &self.attacker {
            for &id in selected {
                if let Some(kind) = atk.decide(round, id) {
                    recorder.attack(round, id, kind.kind_tag());
                }
            }
        }
    }

    /// Folds one executed round's anomaly scores into the reputation book
    /// and emits a [`calibre_telemetry::Event::Quarantine`] per newly
    /// quarantined client. `updates` are the accepted updates exactly as
    /// the aggregator saw them.
    fn observe_round(
        &self,
        round: usize,
        ids: &[usize],
        updates: &[&[f32]],
        recorder: &dyn Recorder,
    ) {
        if !self.detect || ids.is_empty() {
            return;
        }
        let scores = anomaly_scores(ids, updates);
        let newly = self.reputation.borrow_mut().observe_round(&scores);
        for client in newly {
            let suspicion = scores
                .iter()
                .find(|s| s.client == client)
                .map_or(0.0, crate::adversary::AnomalyScore::suspicion);
            recorder.quarantine(round, client, suspicion);
        }
        metrics::gauge_set(
            "calibre_quarantined_clients",
            &[],
            self.reputation.borrow().quarantined_count() as f64,
        );
    }

    /// Executes one collect-then-aggregate round with full telemetry.
    ///
    /// This is [`run_round_resilient`] plus the event choreography the
    /// training loops used to inline: `round_start`, one `client_update`
    /// per accepted client (losses and divergence extracted from the
    /// payload by `losses_of`), `aggregate`, and `round_end` with the
    /// per-client wall-clock/loss vectors and byte accounting. The caller
    /// keeps what is loop-specific: loading the aggregate into the global
    /// model, returning states to its cache, and recording the means.
    ///
    /// `prep(id)` is the model-free part of a client's update (the SSL
    /// loops render its views there; the baselines pass `|_| ()`). It runs
    /// on the worker queue ahead of the client's `work`, which receives
    /// its output — see [`crate::parallel`].
    #[allow(clippy::too_many_arguments)] // mirrors run_round_resilient's surface
    pub fn run_round<S, P, V, MS, PF, W, WF, L>(
        &self,
        round: usize,
        selected: &[usize],
        ctx: &RoundContext<'_>,
        make_state: MS,
        prep: PF,
        work: W,
        weights_of: WF,
        losses_of: L,
    ) -> ScheduledRound<S, P>
    where
        S: Send,
        P: Send,
        V: Send,
        MS: FnMut(usize) -> S,
        PF: Fn(usize) -> V + Sync,
        W: Fn(usize, S, V) -> ClientOutcome<S, P> + Sync,
        WF: FnOnce(&[AcceptedClient<S, P>]) -> Vec<f32>,
        L: Fn(&P) -> (ClientLosses, f32),
    {
        ctx.recorder.round_start(round, selected);
        self.record_attacks(round, selected, ctx.recorder);
        // Inert unless `--metrics-addr` enabled the registry; the guard
        // observes the round's wall-clock into the export histogram on drop.
        let _round_timer =
            metrics::start_timer("calibre_round_duration_ms", &[("path", "collect")]);
        // The adversary compromises the client, so its tampering happens in
        // the client's work function — before server-side chaos corruption,
        // validation, and clipping get their turn.
        let attacker = self.attacker.as_ref();
        let work = move |id: usize, state: S, prepped: V| {
            let mut outcome = work(id, state, prepped);
            if let Some(atk) = attacker {
                if let Some(kind) = atk.decide(round, id) {
                    atk.apply(round, id, kind, &mut outcome.flat);
                }
            }
            outcome
        };
        let outcome = run_round_resilient(
            round,
            selected,
            make_state,
            prep,
            work,
            weights_of,
            self.injector.as_ref(),
            &self.policy,
            ctx.recorder,
        );
        {
            let ids: Vec<usize> = outcome.accepted.iter().map(|a| a.id).collect();
            let updates: Vec<&[f32]> = outcome.accepted.iter().map(|a| a.flat.as_slice()).collect();
            self.observe_round(round, &ids, &updates, ctx.recorder);
        }

        let mut client_wall_ms = Vec::with_capacity(outcome.accepted.len());
        let mut client_loss = Vec::with_capacity(outcome.accepted.len());
        let mut observed_bytes = 0u64;
        let mut div_sum = 0.0f32;
        for a in &outcome.accepted {
            let (losses, divergence) = losses_of(&a.payload);
            ctx.recorder
                .client_update(round, a.id, a.wall, losses, divergence);
            client_wall_ms.push(a.wall.as_secs_f64() * 1e3);
            client_loss.push(losses.total);
            div_sum += divergence;
            // One model down, one model up per client.
            observed_bytes += ((a.flat.len() + ctx.downlink_params) * BYTES_PER_PARAM) as u64;
        }

        let n = outcome.accepted.len();
        let (mean_loss, mean_divergence) = if n == 0 {
            (ctx.fallback_loss, ctx.fallback_divergence)
        } else {
            // Division (not multiply-by-reciprocal) to stay bit-identical
            // with the historical inline loops.
            // analyze:allow(lossy-cast) -- cohort sizes sit far below f32
            // integer precision loss (2^24).
            let nf = n as f32;
            (client_loss.iter().sum::<f32>() / nf, div_sum / nf)
        };
        ctx.recorder
            .aggregate(round, outcome.report.quorum, outcome.report.weight_sum);
        ctx.recorder.round_end(
            round,
            mean_loss,
            &client_wall_ms,
            &client_loss,
            ctx.planned_bytes,
            observed_bytes,
        );

        metrics::counter_add("calibre_rounds_total", &[("path", "collect")], 1);
        metrics::counter_add("calibre_clients_accepted_total", &[], n as u64);
        metrics::counter_add(
            "calibre_clients_rejected_total",
            &[],
            outcome.rejected_states.len() as u64,
        );
        metrics::observe(
            "calibre_round_quorum",
            &[("path", "collect")],
            outcome.report.quorum as f64,
        );
        metrics::counter_add(
            "calibre_quorum_outcomes_total",
            &[(
                "outcome",
                if outcome.report.skipped {
                    "missed"
                } else {
                    "met"
                },
            )],
            1,
        );
        if outcome.report.skipped {
            metrics::counter_add("calibre_rounds_skipped_total", &[("path", "collect")], 1);
        }
        metrics::gauge_set("calibre_round_mean_loss", &[], f64::from(mean_loss));

        ScheduledRound {
            round: outcome,
            mean_loss,
            mean_divergence,
        }
    }

    /// Executes one round over a massive cohort, folding updates into
    /// `sink` wave by wave so aggregation memory stays at the sink's
    /// O(model) state bound.
    ///
    /// `work` maps a client id to its `(update, weight)` pair and runs on
    /// the worker pool, at most `wave` clients in flight at once; results
    /// are folded in selection-slot order, so a replay folds identically.
    /// Chaos composes with sampling: dropout and mid-update panics remove
    /// the client for the round (the streaming path does not retry —
    /// at cohort scale a lost client is noise, and the next round resamples),
    /// stragglers still report (their delay is accounted, not slept), and
    /// corrupted updates face the same validation and norm clipping as the
    /// resilient path.
    ///
    /// Because a fold cannot be undone, the first
    /// [`RoundPolicy::min_quorum`] validated updates are buffered and only
    /// flushed into the sink once the quorum is reached — a round that
    /// misses quorum leaves the sink untouched and reports
    /// `skipped: true`. The buffer is O(min_quorum × model), independent of
    /// cohort size.
    ///
    /// Telemetry is deliberately lean — one `aggregate` event, plus
    /// `round_resilience` when anything non-nominal happened. Per-client
    /// `client_update` events would dominate the run at 100k clients; the
    /// bench layer reports cohort-level summaries instead.
    pub fn run_round_streaming<W>(
        &self,
        round: usize,
        selected: &[usize],
        wave: usize,
        sink: &mut dyn UpdateSink,
        work: W,
        recorder: &dyn Recorder,
    ) -> StreamedRound
    where
        W: Fn(usize) -> (Vec<f32>, f32) + Sync,
    {
        self.run_round_streaming_with(
            round,
            selected,
            wave,
            sink,
            |id| {
                let (update, weight) = work(id);
                StreamUpdate {
                    update,
                    weight,
                    loss: 0.0,
                    divergence: 0.0,
                }
            },
            recorder,
        )
    }

    /// [`RoundScheduler::run_round_streaming`] for workloads that also
    /// report per-client loss and divergence: `work` returns a full
    /// [`StreamUpdate`], and the result's `mean_loss`/`mean_divergence`
    /// average the accepted clients' reports. This is the entry the
    /// training loops use when they stream above the cohort threshold
    /// ([`FlConfig::streaming`]).
    ///
    /// Waves are delivered by an [`InProcessTransport`] — the same worker
    /// code [`RoundScheduler::run_round_transport`] drives in process — and
    /// folded by the loop both entries share.
    pub fn run_round_streaming_with<W>(
        &self,
        round: usize,
        selected: &[usize],
        wave: usize,
        sink: &mut dyn UpdateSink,
        work: W,
        recorder: &dyn Recorder,
    ) -> StreamedRound
    where
        W: Fn(usize) -> StreamUpdate + Sync,
    {
        let workers = InProcessTransport::new(|_round, client, _global: &[f32]| work(client));
        let deliver = |slots: &[WaveSlot]| Ok::<_, Infallible>(workers.deliver(round, slots, &[]));
        let Ok(streamed) =
            self.fold_waves(round, selected, wave, sink, recorder, "streaming", deliver);
        streamed
    }

    /// Executes one round through a [`Transport`]: the same selection,
    /// chaos, validation, quorum gating, and fold order as
    /// [`RoundScheduler::run_round_streaming_with`], but client work runs
    /// wherever the transport puts it — in-process workers
    /// ([`InProcessTransport`]) or remote `calibre-client` processes
    /// ([`crate::transport::SocketTransport`]).
    ///
    /// # Determinism
    ///
    /// With the same seeds and cohort schedule, and a transport that
    /// delivers every surviving client's reply (possibly after retries),
    /// this folds bit-identically to the in-process path — the golden
    /// cross-transport test pins it. A reply the transport could not obtain
    /// counts as dropped, exactly like a chaos dropout.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable [`TransportError`]s; per-client delivery
    /// failures are absorbed as drops.
    #[allow(clippy::too_many_arguments)] // mirrors run_round_streaming's surface
    pub fn run_round_transport(
        &self,
        round: usize,
        selected: &[usize],
        wave: usize,
        global: &[f32],
        sink: &mut dyn UpdateSink,
        transport: &mut dyn Transport,
        recorder: &dyn Recorder,
    ) -> Result<StreamedRound, TransportError> {
        let deliver = |slots: &[WaveSlot]| transport.wave(round, slots, global);
        self.fold_waves(round, selected, wave, sink, recorder, "transport", deliver)
    }

    /// The wave-fold loop behind both streaming entries: churn survivors
    /// are cut into waves of at most `wave` clients, `deliver` runs each
    /// wave and returns its replies in slot order, and every reply is
    /// screened and folded before the next wave starts. `path` labels the
    /// round's metrics. `E` is whatever `deliver` can fail with —
    /// [`Infallible`] in process.
    #[allow(clippy::too_many_arguments)] // internal plumbing shared by two entries
    fn fold_waves<E>(
        &self,
        round: usize,
        selected: &[usize],
        wave: usize,
        sink: &mut dyn UpdateSink,
        recorder: &dyn Recorder,
        path: &'static str,
        mut deliver: impl FnMut(&[WaveSlot]) -> Result<Vec<Option<StreamUpdate>>, E>,
    ) -> Result<StreamedRound, E> {
        let wave = wave.max(1);
        let _round_timer = metrics::start_timer("calibre_round_duration_ms", &[("path", path)]);
        self.record_attacks(round, selected, recorder);
        let mut out = self.empty_round(selected.len());

        // Churn is decided up front on the scheduler thread, per
        // (round, id, attempt 0) — identical on replay.
        let survivors = self.survivors(round, selected, &mut out);

        // Fold-or-hold: buffer until the quorum is certain, then stream.
        let mut gate = FoldGate::new(self.policy.min_quorum);
        let mut watch = DetectionBuffer::new(self.detect);
        let mut wire_slot = 0usize;
        for chunk in survivors.chunks(wave) {
            let slots: Vec<WaveSlot> = chunk
                .iter()
                .enumerate()
                .map(|(i, &(id, _))| WaveSlot {
                    slot: wire_slot + i,
                    client: id,
                })
                .collect();
            wire_slot += chunk.len();
            let replies = deliver(&slots)?;
            let wave_bytes: usize = replies
                .iter()
                .flatten()
                .map(|r| r.update.len() * std::mem::size_of::<f32>())
                .sum();
            for ((id, fault), reply) in chunk.iter().copied().zip(replies) {
                match reply {
                    Some(reply) => self.screen_and_fold(
                        round, id, fault, reply, &mut gate, sink, &mut watch, &mut out,
                    ),
                    // The transport exhausted its delivery attempts: at the
                    // orchestration layer this is indistinguishable from a
                    // client dropout.
                    None => out.dropped += 1,
                }
            }
            out.peak_state_bytes = out
                .peak_state_bytes
                .max(sink.state_bytes() + gate.held_bytes() + watch.bytes() + wave_bytes);
        }

        let sealed = self.seal_round(round, out, gate, sink, recorder, path);
        watch.observe(self, round, recorder);
        Ok(sealed)
    }

    fn empty_round(&self, cohort: usize) -> StreamedRound {
        StreamedRound {
            cohort,
            accepted: 0,
            dropped: 0,
            rejected: 0,
            weight_sum: 0.0,
            skipped: false,
            aggregated: None,
            peak_state_bytes: 0,
            mean_loss: 0.0,
            mean_divergence: 0.0,
        }
    }

    /// Applies the round's up-front chaos decisions: dropouts and
    /// mid-update panics remove the client for the round; other faults ride
    /// along to be applied to the reply.
    fn survivors(
        &self,
        round: usize,
        selected: &[usize],
        out: &mut StreamedRound,
    ) -> Vec<(usize, Option<ClientFault>)> {
        let mut survivors: Vec<(usize, Option<ClientFault>)> = Vec::with_capacity(selected.len());
        for &id in selected {
            let fault = self.injector.as_ref().and_then(|i| i.decide(round, id, 0));
            match fault {
                Some(ClientFault::Dropout) | Some(ClientFault::PanicMidUpdate) => out.dropped += 1,
                _ => survivors.push((id, fault)),
            }
        }
        survivors
    }

    /// Applies adversarial tampering (the client is compromised, so the
    /// attack lands first), then per-reply chaos corruption, validation,
    /// and norm clipping, and hands the survivor to the quorum gate.
    #[allow(clippy::too_many_arguments)] // internal plumbing of the fold loop
    fn screen_and_fold(
        &self,
        round: usize,
        id: usize,
        fault: Option<ClientFault>,
        reply: StreamUpdate,
        gate: &mut FoldGate,
        sink: &mut dyn UpdateSink,
        watch: &mut DetectionBuffer,
        out: &mut StreamedRound,
    ) {
        let StreamUpdate {
            mut update,
            weight,
            loss,
            divergence,
        } = reply;
        if let Some(atk) = &self.attacker {
            if let Some(kind) = atk.decide(round, id) {
                atk.apply(round, id, kind, &mut update);
            }
        }
        if let (Some(ClientFault::Corrupt(kind)), Some(inj)) = (fault, self.injector.as_ref()) {
            inj.corrupt(round, id, 0, kind, &mut update);
        }
        if !crate::aggregate::validate_update(&update) {
            out.rejected += 1;
            return;
        }
        if let Some(max_norm) = self.policy.clip_norm {
            crate::aggregate::clip_norm(&mut update, max_norm);
        }
        watch.push(id, &update);
        gate.accept(sink, update, weight, loss, divergence);
    }

    /// Quorum check, telemetry, and metrics at the end of the fold loop.
    fn seal_round(
        &self,
        round: usize,
        mut out: StreamedRound,
        gate: FoldGate,
        sink: &mut dyn UpdateSink,
        recorder: &dyn Recorder,
        path: &'static str,
    ) -> StreamedRound {
        let min_quorum = self.policy.min_quorum.max(1);
        out.accepted = gate.accepted;
        out.weight_sum = gate.weight_sum;
        let (mean_loss, mean_divergence) = gate.means();
        out.mean_loss = mean_loss;
        out.mean_divergence = mean_divergence;
        if out.accepted >= min_quorum {
            out.aggregated = sink.finish().ok();
        }
        out.skipped = out.aggregated.is_none();
        recorder.aggregate(round, out.accepted, out.weight_sum);
        if out.dropped > 0 || out.rejected > 0 || out.skipped {
            recorder.round_resilience(
                round,
                out.dropped + out.rejected,
                out.dropped + out.rejected,
                0,
                out.accepted,
                out.skipped,
            );
        }

        metrics::counter_add("calibre_rounds_total", &[("path", path)], 1);
        metrics::counter_add("calibre_clients_accepted_total", &[], out.accepted as u64);
        metrics::counter_add("calibre_clients_dropped_total", &[], out.dropped as u64);
        metrics::counter_add("calibre_clients_rejected_total", &[], out.rejected as u64);
        metrics::observe(
            "calibre_round_quorum",
            &[("path", path)],
            out.accepted as f64,
        );
        metrics::counter_add(
            "calibre_quorum_outcomes_total",
            &[("outcome", if out.skipped { "missed" } else { "met" })],
            1,
        );
        if out.skipped {
            metrics::counter_add("calibre_rounds_skipped_total", &[("path", path)], 1);
        }
        metrics::gauge_max(
            "calibre_sink_peak_state_bytes",
            &[],
            out.peak_state_bytes as f64,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{weighted_average_refs, StreamingWeightedSink};
    use crate::sampler::SamplerKind;
    use calibre_telemetry::{Event, MemoryRecorder, NullRecorder};

    fn toy_scheduler(cohort: usize, rounds: usize) -> RoundScheduler {
        RoundScheduler::sampled(Sampler::new(SamplerKind::Uniform, 9), 1_000, cohort, rounds)
    }

    #[test]
    fn fixed_selection_mirrors_the_config_schedule() {
        let mut cfg = FlConfig::for_input(16);
        cfg.rounds = 4;
        cfg.clients_per_round = 3;
        let scheduler = RoundScheduler::from_config(&cfg, 10);
        assert_eq!(scheduler.rounds(), 4);
        let schedule = cfg.selection_schedule(10);
        for (round, expected) in schedule.iter().enumerate() {
            assert_eq!(&scheduler.select(round, None), expected);
        }
    }

    #[test]
    fn scheduled_round_emits_the_legacy_event_choreography() {
        let rec = MemoryRecorder::new();
        let scheduler = toy_scheduler(3, 1);
        let selected = scheduler.select(0, None);
        let ctx = RoundContext {
            recorder: &rec,
            downlink_params: 4,
            planned_bytes: 128,
            fallback_loss: 0.0,
            fallback_divergence: 0.0,
        };
        let out = scheduler.run_round(
            0,
            &selected,
            &ctx,
            |id| id as u64,
            |_| (),
            |id, state, ()| ClientOutcome {
                state,
                // analyze:allow(lossy-cast) -- toy ids in tests.
                flat: vec![id as f32; 4],
                count: 1,
                payload: 0.5f32,
            },
            |accepted| vec![1.0; accepted.len()],
            |&loss| {
                (
                    ClientLosses {
                        total: loss,
                        ssl: loss,
                        l_n: 0.0,
                        l_p: 0.0,
                    },
                    0.0,
                )
            },
        );
        assert_eq!(out.round.accepted.len(), 3);
        assert!((out.mean_loss - 0.5).abs() < 1e-6);
        let events = rec.events();
        assert!(matches!(events[0], Event::RoundStart { .. }));
        assert!(matches!(events[1], Event::ClientUpdate { .. }));
        assert!(matches!(events[4], Event::Aggregate { .. }));
        assert!(matches!(
            events[5],
            Event::RoundEnd {
                planned_bytes: 128,
                ..
            }
        ));
        assert_eq!(events.len(), 6);
    }

    #[test]
    fn streaming_round_matches_the_collected_aggregate() {
        let scheduler = toy_scheduler(16, 1);
        let selected = scheduler.select(0, None);
        // analyze:allow(lossy-cast) -- toy ids in tests.
        let update_of = |id: usize| vec![id as f32 * 0.5, 1.0 - id as f32];
        let mut sink = StreamingWeightedSink::new();
        let out = scheduler.run_round_streaming(
            0,
            &selected,
            4,
            &mut sink,
            |id| (update_of(id), 1.0),
            &NullRecorder,
        );
        let updates: Vec<Vec<f32>> = selected.iter().map(|&id| update_of(id)).collect();
        let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
        let expected = weighted_average_refs(&refs, &vec![1.0; refs.len()]);
        let got = out.aggregated.unwrap();
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-5, "{g} vs {e}");
        }
        assert_eq!(out.accepted, 16);
        assert_eq!(out.cohort, 16);
    }

    #[test]
    fn streaming_round_is_replay_identical() {
        let run = || {
            let scheduler = toy_scheduler(32, 1).with_chaos(
                FaultPlan {
                    drop_prob: 0.2,
                    ..FaultPlan::default()
                },
                77,
            );
            let selected = scheduler.select(0, None);
            let mut sink = StreamingWeightedSink::new();
            let out = scheduler.run_round_streaming(
                0,
                &selected,
                8,
                &mut sink,
                // analyze:allow(lossy-cast) -- toy ids in tests.
                |id| (vec![id as f32; 3], 1.0),
                &NullRecorder,
            );
            (out.accepted, out.dropped, out.aggregated)
        };
        let (a_acc, a_drop, a_agg) = run();
        let (b_acc, b_drop, b_agg) = run();
        assert_eq!(a_acc, b_acc);
        assert_eq!(a_drop, b_drop);
        assert_eq!(a_agg, b_agg, "same seed replays bit-identically");
        assert!(a_drop > 0, "0.2 drop over 32 clients should hit someone");
    }

    #[test]
    fn transport_round_via_in_process_transport_matches_streaming_bitwise() {
        use crate::transport::{InProcessTransport, StreamUpdate};
        let scheduler = toy_scheduler(16, 1).with_chaos(
            FaultPlan {
                drop_prob: 0.2,
                corrupt_prob: 0.2,
                ..FaultPlan::default()
            },
            5,
        );
        let selected = scheduler.select(0, None);
        let global = vec![0.5f32, -1.25, 2.0];
        let work = |_round: usize, id: usize, g: &[f32]| StreamUpdate {
            // analyze:allow(lossy-cast) -- toy ids in tests.
            update: g.iter().map(|v| v * (id as f32 + 1.0)).collect(),
            weight: 1.0 + (id % 3) as f32,
            loss: 0.25,
            divergence: 0.5,
        };

        let mut sink_a = StreamingWeightedSink::new();
        let a = scheduler.run_round_streaming_with(
            0,
            &selected,
            4,
            &mut sink_a,
            |id| work(0, id, &global),
            &NullRecorder,
        );
        let mut transport = InProcessTransport::new(work);
        let mut sink_b = StreamingWeightedSink::new();
        let b = scheduler
            .run_round_transport(
                0,
                &selected,
                4,
                &global,
                &mut sink_b,
                &mut transport,
                &NullRecorder,
            )
            .unwrap();

        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
        assert_eq!(a.mean_divergence.to_bits(), b.mean_divergence.to_bits());
        let bits = |v: &Option<Vec<f32>>| {
            v.as_ref()
                .map(|u| u.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(
            bits(&a.aggregated),
            bits(&b.aggregated),
            "transport path must fold bit-identically to the streaming path"
        );
        assert!(a.dropped > 0, "chaos should remove someone at these rates");
    }

    #[test]
    fn streaming_round_reports_accepted_loss_means() {
        use crate::transport::StreamUpdate;
        let scheduler = toy_scheduler(8, 1);
        let selected = scheduler.select(0, None);
        let mut sink = StreamingWeightedSink::new();
        let out = scheduler.run_round_streaming_with(
            0,
            &selected,
            4,
            &mut sink,
            |_| StreamUpdate {
                update: vec![1.0, 2.0],
                weight: 1.0,
                loss: 0.75,
                divergence: 1.5,
            },
            &NullRecorder,
        );
        assert_eq!(out.accepted, 8);
        assert!((out.mean_loss - 0.75).abs() < 1e-6);
        assert!((out.mean_divergence - 1.5).abs() < 1e-6);
    }

    #[test]
    fn streaming_round_misses_quorum_without_touching_the_sink() {
        let scheduler = toy_scheduler(4, 1).with_policy(RoundPolicy {
            min_quorum: 8,
            ..RoundPolicy::default()
        });
        let selected = scheduler.select(0, None);
        let rec = MemoryRecorder::new();
        let mut sink = StreamingWeightedSink::new();
        let out = scheduler.run_round_streaming(
            0,
            &selected,
            2,
            &mut sink,
            |_| (vec![1.0, 2.0], 1.0),
            &rec,
        );
        assert!(out.skipped);
        assert!(out.aggregated.is_none());
        assert!(matches!(
            rec.events().last(),
            Some(Event::RoundResilience { skipped: true, .. })
        ));
    }

    #[test]
    fn inactive_attack_plan_is_bit_identical_to_an_unarmed_scheduler() {
        let run = |armed: bool| {
            let mut scheduler = toy_scheduler(16, 1);
            if armed {
                scheduler = scheduler
                    .with_attack(AttackPlan::default(), 123)
                    .with_detection(false);
            }
            let selected = scheduler.select(0, None);
            let mut sink = StreamingWeightedSink::new();
            let out = scheduler.run_round_streaming(
                0,
                &selected,
                4,
                &mut sink,
                // analyze:allow(lossy-cast) -- toy ids in tests.
                |id| (vec![id as f32; 3], 1.0),
                &NullRecorder,
            );
            (selected, out.aggregated)
        };
        let (sel_a, agg_a) = run(false);
        let (sel_b, agg_b) = run(true);
        assert_eq!(sel_a, sel_b, "selection untouched by an inactive plan");
        let bits = |v: &Option<Vec<f32>>| {
            v.as_ref()
                .map(|u| u.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(bits(&agg_a), bits(&agg_b), "aggregate bit-identical");
    }

    #[test]
    fn attacked_rounds_replay_identically_and_move_the_aggregate() {
        let plan = AttackPlan {
            flip_prob: 0.2,
            scale_prob: 0.1,
            seed: 9,
            ..AttackPlan::default()
        };
        let run = |plan: Option<AttackPlan>| {
            let mut scheduler = toy_scheduler(32, 1);
            if let Some(plan) = plan {
                scheduler = scheduler.with_attack(plan, 77);
            }
            let selected = scheduler.select(0, None);
            let rec = MemoryRecorder::new();
            let mut sink = StreamingWeightedSink::new();
            let out = scheduler.run_round_streaming(
                0,
                &selected,
                8,
                &mut sink,
                // analyze:allow(lossy-cast) -- toy ids in tests.
                |id| (vec![id as f32 + 1.0; 3], 1.0),
                &rec,
            );
            let attacks = rec
                .events()
                .iter()
                .filter(|e| matches!(e, Event::Attack { .. }))
                .count();
            (out.aggregated, attacks)
        };
        let (a, attacks_a) = run(Some(plan.clone()));
        let (b, attacks_b) = run(Some(plan));
        assert_eq!(a, b, "same attack seed replays bit-identically");
        assert_eq!(attacks_a, attacks_b);
        assert!(attacks_a > 0, "0.3 total rate over 32 clients should fire");
        let (clean, no_attacks) = run(None);
        assert_eq!(no_attacks, 0);
        assert_ne!(a, clean, "an active attack must move the aggregate");
    }

    #[test]
    fn attacked_transport_round_matches_streaming_bitwise() {
        use crate::transport::{InProcessTransport, StreamUpdate};
        let plan = AttackPlan {
            flip_prob: 0.15,
            scale_prob: 0.1,
            noise_prob: 0.1,
            seed: 3,
            ..AttackPlan::default()
        };
        let make = || {
            toy_scheduler(16, 1)
                .with_chaos(
                    FaultPlan {
                        drop_prob: 0.2,
                        corrupt_prob: 0.2,
                        ..FaultPlan::default()
                    },
                    5,
                )
                .with_attack(plan.clone(), 5)
        };
        let scheduler = make();
        let selected = scheduler.select(0, None);
        let global = vec![0.5f32, -1.25, 2.0];
        let work = |_round: usize, id: usize, g: &[f32]| StreamUpdate {
            // analyze:allow(lossy-cast) -- toy ids in tests.
            update: g.iter().map(|v| v * (id as f32 + 1.0)).collect(),
            weight: 1.0 + (id % 3) as f32,
            loss: 0.25,
            divergence: 0.5,
        };

        let mut sink_a = StreamingWeightedSink::new();
        let a = scheduler.run_round_streaming_with(
            0,
            &selected,
            4,
            &mut sink_a,
            |id| work(0, id, &global),
            &NullRecorder,
        );
        let other = make();
        let mut transport = InProcessTransport::new(work);
        let mut sink_b = StreamingWeightedSink::new();
        let b = other
            .run_round_transport(
                0,
                &selected,
                4,
                &global,
                &mut sink_b,
                &mut transport,
                &NullRecorder,
            )
            .unwrap();
        let bits = |v: &Option<Vec<f32>>| {
            v.as_ref()
                .map(|u| u.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(
            bits(&a.aggregated),
            bits(&b.aggregated),
            "attacks must fold identically on both execution paths"
        );
        assert_eq!(a.accepted, b.accepted);
    }

    #[test]
    fn detection_quarantines_a_persistent_adversary() {
        // Population == cohort so the adversary is observed every round and
        // its strikes accumulate to quarantine.
        let scheduler = RoundScheduler::sampled(Sampler::new(SamplerKind::Uniform, 9), 8, 8, 16)
            .with_detection(true);
        let rec = MemoryRecorder::new();
        // Track the lowest selected id each round and make it an extreme
        // outlier; its suspicion accumulates strikes until quarantine.
        let mut quarantined_round = None;
        let mut villain = None;
        for round in 0..scheduler.rounds() {
            let selected = scheduler.select(round, None);
            assert!(!selected.is_empty());
            let bad = villain.unwrap_or(selected[0]);
            if villain.is_none() {
                villain = Some(bad);
            }
            if scheduler.reputation().is_quarantined(bad) {
                quarantined_round = Some(round);
                assert!(
                    !selected.contains(&bad),
                    "quarantined client must not be drawn"
                );
                break;
            }
            let mut sink = StreamingWeightedSink::new();
            let _ = scheduler.run_round_streaming(
                round,
                &selected,
                4,
                &mut sink,
                |id| {
                    if id == bad {
                        (vec![1.0e6; 4], 1.0)
                    } else {
                        (vec![1.0, 2.0, 3.0, 4.0], 1.0)
                    }
                },
                &rec,
            );
        }
        assert!(
            quarantined_round.is_some(),
            "a persistent extreme outlier must be quarantined"
        );
        assert!(
            rec.events()
                .iter()
                .any(|e| matches!(e, Event::Quarantine { .. })),
            "quarantine must be reported to telemetry"
        );
        // The book survives a checkpoint round-trip into a fresh scheduler.
        let book = scheduler.reputation();
        let resumed = RoundScheduler::sampled(Sampler::new(SamplerKind::Uniform, 9), 8, 8, 16)
            .with_detection(true)
            .with_reputation(book.clone());
        assert_eq!(resumed.reputation(), book);
    }

    #[test]
    fn streaming_peak_memory_is_flat_across_cohort_sizes() {
        let dim = 64;
        let peak_of = |cohort: usize| {
            let scheduler = toy_scheduler(cohort, 1);
            let selected = scheduler.select(0, None);
            let mut sink = StreamingWeightedSink::new();
            let out = scheduler.run_round_streaming(
                0,
                &selected,
                8,
                &mut sink,
                |_| (vec![1.0; dim], 1.0),
                &NullRecorder,
            );
            out.peak_state_bytes
        };
        let small = peak_of(16);
        let large = peak_of(512);
        assert_eq!(
            small, large,
            "peak aggregation memory must not grow with the cohort"
        );
    }
}
