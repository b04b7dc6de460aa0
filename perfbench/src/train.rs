//! The two training workloads: Calibre (SimCLR) and the FedAvg baseline,
//! each followed by its personalization stage, on the CIFAR-10 analog under
//! D-non-iid(0.3) at `Scale::Default`.
//!
//! One run repeats the full train-and-personalize pipeline on the same seed
//! until the measured phase is over, so every repetition must end in the
//! same final encoder: that is one of the output checks.

use crate::stats;
use crate::trace::{maybe_span, Tracer};
use crate::workload::{timed, Metric, RunSpec, Segment, WorkloadRun};
use calibre::{train_calibre_encoder_observed, CalibreConfig};
use calibre_bench::{build_dataset, DatasetId, Scale, Setting};
use calibre_data::{AugmentConfig, ClientData, FederatedDataset};
use calibre_fl::baselines::evaluate_with_head_finetune;
use calibre_fl::baselines::fedavg::train_fedavg_global;
use calibre_fl::model::ClassifierModel;
use calibre_fl::proto::model_checksum;
use calibre_fl::{personalize_cohort, worst_fraction_mean, FlConfig, PersonalizationOutcome};
use calibre_ssl::{create_method, SslKind};
use calibre_telemetry::{Event, Recorder};
use calibre_tensor::nn::{Mlp, Module};
use std::sync::Mutex;
use std::time::Instant;

/// The dataset and configuration every training run starts from.
pub fn setup(seed: u64) -> (FederatedDataset, FlConfig) {
    let fed = build_dataset(
        DatasetId::Cifar10,
        Setting::DirichletNonIid,
        Scale::Default,
        0,
        seed,
    );
    (fed, Scale::Default.fl_config(seed))
}

/// The Calibre configuration the paper's experiments use: regularizers
/// fade in over the first half of training.
pub fn calibre_config(cfg: &FlConfig) -> CalibreConfig {
    CalibreConfig {
        warmup_rounds: cfg.rounds / 2,
        ..CalibreConfig::default()
    }
}

/// Builds the dataset and initializes the model, recording the time.
/// Every repetition sets up afresh, so the set-ups are spread over the run
/// and their median does not hinge on the machine's state at one moment.
fn timed_setup(
    run: &mut WorkloadRun,
    spec: &RunSpec<'_>,
    init_model: impl Fn(&FlConfig, usize),
) -> (FederatedDataset, FlConfig) {
    let parent = spec.tracer.map(|t| t.begin("setup", None, None));
    let ((fed, cfg), secs) = timed(|| {
        let (fed, cfg) = maybe_span(spec.tracer, "data.build_dataset", parent, None, || {
            setup(spec.seed)
        });
        let classes = fed.generator().num_classes();
        maybe_span(spec.tracer, "model.init", parent, None, || {
            init_model(&cfg, classes)
        });
        (fed, cfg)
    });
    if let (Some(t), Some(id)) = (spec.tracer, parent) {
        t.end(id);
    }
    run.setup_s.push(secs);
    (fed, cfg)
}

/// Per-round timestamps and client accounting, taken from the library's
/// round events and the round observer.
struct RoundClock<'a> {
    tracer: Option<&'a Tracer>,
    state: Mutex<ClockState>,
}

#[derive(Default)]
struct ClockState {
    start: Option<Instant>,
    span: Option<u64>,
    round_ms: Vec<f64>,
    client_sum_ms: Vec<f64>,
    selected: u64,
    accepted: u64,
    finite_losses: bool,
}

impl<'a> RoundClock<'a> {
    fn new(tracer: Option<&'a Tracer>) -> Self {
        RoundClock {
            tracer,
            state: Mutex::new(ClockState {
                finite_losses: true,
                ..ClockState::default()
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ClockState> {
        self.state.lock().expect("round clock poisoned")
    }

    /// The round observer's hook: the global encoder for `round` is final.
    fn round_done(&self) {
        let now = Instant::now();
        let mut st = self.lock();
        if let Some(start) = st.start.take() {
            st.round_ms.push((now - start).as_secs_f64() * 1e3);
        }
        if let (Some(t), Some(id)) = (self.tracer, st.span.take()) {
            t.end(id);
        }
    }
}

impl Recorder for RoundClock<'_> {
    fn record(&self, event: Event) {
        match event {
            Event::RoundStart { round, selected } => {
                let span = self
                    .tracer
                    .map(|t| t.begin("round", None, Some(round as u64)));
                let mut st = self.lock();
                st.start = Some(Instant::now());
                st.span = span;
                st.selected += selected.len() as u64;
            }
            Event::RoundEnd {
                round,
                client_wall_ms,
                client_loss,
                ..
            } => {
                let mut st = self.lock();
                if let (Some(t), Some(start)) = (self.tracer, st.start) {
                    lay_out_clients(t, st.span, round, t.ns_at(start), &client_wall_ms);
                }
                st.accepted += client_wall_ms.len() as u64;
                st.client_sum_ms.push(client_wall_ms.iter().sum());
                st.finite_losses &= client_loss.iter().all(|l| l.is_finite());
            }
            _ => {}
        }
    }
}

/// Records one `client` span per client update of a round. The library
/// reports each update's wall time but not its start, so the spans are laid
/// out the way the worker pool runs them: the cohort in selection order,
/// split into contiguous chunks of `ceil(n / workers)`, each chunk back to
/// back on its worker from the start of the round. A worker that finishes
/// its chunk before the slowest one gets a `worker.wait` span until then.
fn lay_out_clients(t: &Tracer, parent: Option<u64>, round: usize, start_ns: u64, walls: &[f64]) {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, walls.len().max(1));
    let chunk = walls.len().div_ceil(workers).max(1);
    let round_id = Some(round as u64);
    let mut chunk_ends = Vec::with_capacity(workers);
    for worker in walls.chunks(chunk) {
        let mut at = start_ns;
        for wall in worker {
            let end = at + (wall * 1e6) as u64;
            t.record("client", parent, round_id, at, end);
            at = end;
        }
        chunk_ends.push(at);
    }
    let slowest = chunk_ends.iter().copied().max().unwrap_or(start_ns);
    for end in chunk_ends.into_iter().filter(|&e| e < slowest) {
        t.record("worker.wait", parent, round_id, end, slowest);
    }
}

/// Per-round wall times and summed client update times of a short Calibre
/// training run of `rounds` rounds.
pub struct RoundProbe {
    pub round_ms: Vec<f64>,
    pub client_sum_ms: Vec<f64>,
    pub clients: u64,
}

/// Trains Calibre for `rounds` rounds on the workload's dataset, timing
/// every round and every client update.
pub fn calibre_round_probe(fed: &FederatedDataset, cfg: &FlConfig, rounds: usize) -> RoundProbe {
    let mut cfg = cfg.clone();
    cfg.rounds = rounds;
    let clock = RoundClock::new(None);
    let mut observer = |_round: usize, _encoder: &Mlp| clock.round_done();
    train_calibre_encoder_observed(
        fed,
        &cfg,
        SslKind::SimClr,
        &calibre_config(&cfg),
        &AugmentConfig::default(),
        Some(&mut observer),
        &clock,
    );
    let st = clock.state.into_inner().expect("round clock poisoned");
    RoundProbe {
        round_ms: st.round_ms,
        client_sum_ms: st.client_sum_ms,
        clients: st.accepted,
    }
}

/// What one train-and-personalize repetition produced.
struct Repetition {
    checksum: u64,
    finite: bool,
    seen: PersonalizationOutcome,
    train_s: f64,
    personalize_s: f64,
}

/// Runs the Calibre workload.
pub fn run_calibre(spec: &RunSpec<'_>) -> WorkloadRun {
    let mut run = WorkloadRun {
        round_note: "round observer minus round_start, every round",
        ..WorkloadRun::default()
    };
    let aug = AugmentConfig::default();
    let mut classes = 0;
    let mut reps = Vec::new();
    let deadline = spec.deadline();
    while reps.is_empty() || Instant::now() < deadline {
        let (fed, cfg) = timed_setup(&mut run, spec, |cfg, _| {
            std::hint::black_box(create_method(SslKind::SimClr, cfg.ssl.clone()));
        });
        let ccfg = calibre_config(&cfg);
        classes = fed.generator().num_classes();
        run.work_per_round = (
            per_round(&fed, &cfg, |c| c.ssl_pool().len()),
            "two-view samples",
        );
        let clock = RoundClock::new(spec.tracer);
        let mut observer = |_round: usize, _encoder: &Mlp| clock.round_done();
        let ((encoder, losses, _), train_s) = timed(|| {
            train_calibre_encoder_observed(
                &fed,
                &cfg,
                SslKind::SimClr,
                &ccfg,
                &aug,
                Some(&mut observer),
                &clock,
            )
        });
        let (seen, personalize_s) = timed(|| {
            maybe_span(spec.tracer, "personalize", None, None, || {
                personalize_cohort(&encoder, &fed, classes, &cfg.probe)
            })
        });
        let st = clock.state.into_inner().expect("round clock poisoned");
        run.segments.push(Segment {
            rounds: st.round_ms.len(),
            wall_s: train_s,
            round_ms: st.round_ms,
        });
        run.updates_attempted += st.selected;
        run.updates_failed += st.selected - st.accepted;
        reps.push(Repetition {
            checksum: model_checksum(&encoder.to_flat()),
            finite: st.finite_losses && losses.iter().all(|l| l.is_finite()),
            seen,
            train_s,
            personalize_s,
        });
    }
    finish_training(&mut run, &reps, classes);
    run
}

/// Runs the FedAvg workload.
pub fn run_fedavg(spec: &RunSpec<'_>) -> WorkloadRun {
    let mut run = WorkloadRun {
        round_note: "no per-round hook: one sample per training run, its mean round time",
        ..WorkloadRun::default()
    };
    let mut classes = 0;
    let mut reps = Vec::new();
    let deadline = spec.deadline();
    while reps.is_empty() || Instant::now() < deadline {
        let (fed, cfg) = timed_setup(&mut run, spec, |cfg, classes| {
            std::hint::black_box(ClassifierModel::new(&cfg.ssl, classes, cfg.seed));
        });
        classes = fed.generator().num_classes();
        run.work_per_round = (
            per_round(&fed, &cfg, ClientData::train_len),
            "labeled samples",
        );
        let ((global, losses), train_s) = timed(|| {
            maybe_span(spec.tracer, "train_fedavg_global", None, None, || {
                train_fedavg_global(&fed, &cfg)
            })
        });
        let (seen, personalize_s) = timed(|| {
            maybe_span(spec.tracer, "personalize", None, None, || {
                let head = global.head().clone();
                evaluate_with_head_finetune(global.encoder(), &fed, classes, &cfg.probe, |_| {
                    head.clone()
                })
            })
        });
        run.segments.push(Segment {
            rounds: losses.len(),
            wall_s: train_s,
            round_ms: vec![train_s * 1e3 / losses.len().max(1) as f64],
        });
        run.updates_attempted += cfg
            .selection_schedule(fed.num_clients())
            .iter()
            .map(|s| s.len() as u64)
            .sum::<u64>();
        reps.push(Repetition {
            checksum: model_checksum(&global.encoder().to_flat()),
            finite: losses.iter().all(|l| l.is_finite()),
            seen,
            train_s,
            personalize_s,
        });
    }
    finish_training(&mut run, &reps, classes);
    run
}

/// Samples one round trains on: the mean per-client count times clients per
/// round times local epochs.
fn per_round(fed: &FederatedDataset, cfg: &FlConfig, count: impl Fn(&ClientData) -> usize) -> f64 {
    let total: usize = fed.clients().iter().map(count).sum();
    total as f64 / fed.num_clients() as f64 * (cfg.clients_per_round * cfg.local_epochs) as f64
}

/// Output checks and accuracy results shared by both training workloads.
fn finish_training(run: &mut WorkloadRun, reps: &[Repetition], classes: usize) {
    let first = &reps[0];
    let identical = reps.iter().all(|r| r.checksum == first.checksum);
    run.check(
        "checksum_repeats",
        identical,
        format!(
            "final encoder checksum {:016x} over {} runs of one seed",
            first.checksum,
            reps.len()
        ),
    );
    run.check(
        "losses_finite",
        reps.iter().all(|r| r.finite),
        "every round and client loss is finite".to_string(),
    );
    let stats = &first.seen.stats;
    let chance = 1.0 / classes as f32;
    run.check(
        "acc_above_chance",
        stats.mean > chance,
        format!("acc_mean {:.4} > chance {chance:.4}", stats.mean),
    );
    let same_acc = reps
        .iter()
        .all(|r| r.seen.accuracies == first.seen.accuracies);
    run.check(
        "accuracy_repeats",
        same_acc,
        "per-client accuracies are identical across runs of one seed".to_string(),
    );

    let personalize: Vec<f64> = reps.iter().map(|r| r.personalize_s).collect();
    let train: Vec<f64> = reps.iter().map(|r| r.train_s).collect();
    run.info.extend([
        Metric::new("train_s", stats::median(&train), "s"),
        Metric::new("personalize_s", stats::median(&personalize), "s"),
        Metric::new("acc_mean", f64::from(stats.mean), "fraction"),
        Metric::new("acc_variance", f64::from(stats.variance), "fraction^2"),
        Metric::new(
            "acc_worst_decile",
            f64::from(worst_fraction_mean(&first.seen.accuracies, 0.1)),
            "fraction",
        ),
    ]);
}
