//! `serve-wire`: `serve::run_server` over TCP loopback with two client
//! threads running `transport::run_client`, dim-65,536 models (256 KiB per
//! frame) and a server checkpoint written every round. Byte-proportional
//! work dominates: the frame codec, socket copies, and checkpoint text with
//! its fsync.
//!
//! A run is a sequence of serve sessions on one seed. Each session binds a
//! fresh listener and checkpoint directory, so each one pays set-up (bind
//! plus registration) and none resumes from the previous session's
//! checkpoint.

use crate::trace::Tracer;
use crate::workload::{RunSpec, ScratchDir, Segment, WorkloadRun};
use calibre_fl::proto::Msg;
use calibre_fl::serve::{run_in_process, run_server, sim_client_work, ServeConfig, ServeOutcome};
use calibre_fl::transport::{run_client, ClientAddr, ClientOptions, ClientReport};
use calibre_fl::Listener;
use calibre_telemetry::{Event, NullRecorder, Recorder};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

pub const POPULATION: usize = 2;
pub const DIM: usize = 65_536;
/// Rounds per serve session.
pub const ROUNDS: usize = 20;

/// The serve configuration for `seed`, checkpointing to `checkpoint`.
pub fn config(seed: u64, rounds: usize, checkpoint: Option<PathBuf>) -> ServeConfig {
    let mut cfg = ServeConfig::smoke();
    cfg.population = POPULATION;
    cfg.cohort = POPULATION;
    cfg.wave = POPULATION;
    cfg.rounds = rounds;
    cfg.dim = DIM;
    cfg.seed = seed;
    cfg.policy.min_quorum = POPULATION;
    cfg.checkpoint = checkpoint;
    cfg
}

/// Wire bytes of one nominal round: one `Assign` down and one `Update` up
/// per cohort member, measured with the frame codec itself.
pub fn bytes_per_round(cfg: &ServeConfig) -> usize {
    let model = vec![0.0f32; cfg.dim];
    let assign = Msg::Assign {
        round: 0,
        slot: 0,
        attempt: 0,
        model: model.clone(),
    };
    let update = Msg::Update {
        round: 0,
        slot: 0,
        client: 0,
        weight: 1.0,
        loss: 0.0,
        update: model,
    };
    (assign.encode().len() + update.encode().len()) * cfg.cohort
}

/// Timestamps of the library's `round_start` events.
struct ServeClock<'a> {
    tracer: Option<&'a Tracer>,
    starts: Mutex<Vec<(Instant, Option<u64>)>>,
}

impl ServeClock<'_> {
    fn current_span(&self) -> Option<u64> {
        self.starts
            .lock()
            .expect("serve clock poisoned")
            .last()
            .and_then(|s| s.1)
    }
}

impl Recorder for ServeClock<'_> {
    fn record(&self, event: Event) {
        if let Event::RoundStart { round, .. } = event {
            let now = Instant::now();
            let mut starts = self.starts.lock().expect("serve clock poisoned");
            if let (Some(t), Some((_, Some(prev)))) = (self.tracer, starts.last()) {
                t.end(*prev);
            }
            let span = self
                .tracer
                .map(|t| t.begin("round", None, Some(round as u64)));
            starts.push((now, span));
        }
    }
}

/// What one serve session measured.
pub struct Session {
    pub setup_s: f64,
    pub round_ms: Vec<f64>,
    pub rounds_wall_s: f64,
    /// Slowest client's work closure per round, milliseconds.
    pub slowest_work_ms: Vec<f64>,
    pub outcome: ServeOutcome,
    pub reports: Vec<ClientReport>,
}

fn client_options() -> ClientOptions {
    // Give up within seconds if the server fails, instead of minutes.
    ClientOptions {
        idle_patience: 20,
        ..ClientOptions::default()
    }
}

/// One serve session: bind, register both clients, serve every round,
/// join the clients.
pub fn session(cfg: &ServeConfig, tracer: Option<&Tracer>) -> Result<Session, String> {
    let t0 = Instant::now();
    let listener = Listener::bind_tcp("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr();
    let clock = ServeClock {
        tracer,
        starts: Mutex::new(Vec::new()),
    };
    let work_ms: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::new());
    let opts = client_options();

    let (served, end, reports) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.population)
            .map(|client| {
                let (addr, opts, clock, work_ms) = (&addr, &opts, &clock, &work_ms);
                s.spawn(move || {
                    let mut work = sim_client_work(cfg.seed, client);
                    run_client(
                        &ClientAddr::Tcp(addr.clone()),
                        client as u64,
                        opts,
                        |round, global: &[f32]| {
                            let parent = clock.current_span();
                            let start = Instant::now();
                            let update = work(round, global);
                            let end = Instant::now();
                            if let Some(t) = tracer {
                                let r = Some(round as u64);
                                t.record("client.work", parent, r, t.ns_at(start), t.ns_at(end));
                            }
                            work_ms
                                .lock()
                                .expect("work log poisoned")
                                .push((round, (end - start).as_secs_f64() * 1e3));
                            update
                        },
                    )
                })
            })
            .collect();
        let served = run_server(cfg, listener, &clock);
        let end = Instant::now();
        if let (Some(t), Some((_, Some(last)))) = (
            tracer,
            clock.starts.lock().expect("serve clock poisoned").last(),
        ) {
            t.end(*last);
        }
        let reports: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (served, end, reports)
    });
    let outcome = served.map_err(|e| format!("serve: {e}"))?;
    let reports = reports
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("client: {e}"))?;

    let starts: Vec<Instant> = clock
        .starts
        .into_inner()
        .expect("serve clock poisoned")
        .into_iter()
        .map(|s| s.0)
        .collect();
    let first = *starts.first().ok_or("no round started")?;
    let round_ms = starts
        .iter()
        .skip(1)
        .chain(std::iter::once(&end))
        .zip(&starts)
        .map(|(b, a)| (*b - *a).as_secs_f64() * 1e3)
        .collect();
    let mut slowest_work_ms = vec![0.0f64; starts.len()];
    for (round, ms) in work_ms.into_inner().expect("work log poisoned") {
        if let Some(slot) = slowest_work_ms.get_mut(round) {
            *slot = slot.max(ms);
        }
    }
    Ok(Session {
        setup_s: (first - t0).as_secs_f64(),
        round_ms,
        rounds_wall_s: (end - first).as_secs_f64(),
        slowest_work_ms,
        outcome,
        reports,
    })
}

/// Runs the workload.
pub fn run(spec: &RunSpec<'_>) -> WorkloadRun {
    let mut run = WorkloadRun {
        round_note: "round_start to next round_start, last round to server return",
        ..WorkloadRun::default()
    };
    let scratch = match ScratchDir::new("serve-wire") {
        Ok(dir) => dir,
        Err(e) => {
            run.check("scratch_dir", false, format!("cannot create: {e}"));
            return run;
        }
    };
    run.work_per_round = (
        bytes_per_round(&config(spec.seed, ROUNDS, None)) as f64,
        "wire bytes",
    );

    let mut checksums = Vec::new();
    let mut errors = Vec::new();
    let mut clients_agree = true;
    let mut reconnects = 0usize;
    let deadline = spec.deadline();
    let mut k = 0usize;
    while k == 0 || Instant::now() < deadline {
        let cfg = config(
            spec.seed,
            ROUNDS,
            Some(scratch.0.join(format!("s{k}/server.ckpt"))),
        );
        k += 1;
        run.updates_attempted += (cfg.cohort * cfg.rounds) as u64;
        match session(&cfg, spec.tracer) {
            Ok(s) => {
                run.setup_s.push(s.setup_s);
                run.segments.push(Segment {
                    rounds: s.round_ms.len(),
                    wall_s: s.rounds_wall_s,
                    round_ms: s.round_ms,
                });
                run.updates_failed +=
                    (cfg.cohort * cfg.rounds).saturating_sub(s.outcome.accepted_total) as u64;
                clients_agree &= s
                    .reports
                    .iter()
                    .all(|r| r.final_checksum == s.outcome.checksum);
                reconnects += s.reports.iter().map(|r| r.reconnects).sum::<usize>();
                checksums.push(s.outcome.checksum);
            }
            Err(e) => {
                run.updates_failed += (cfg.cohort * cfg.rounds) as u64;
                errors.push(e);
            }
        }
        let _ = std::fs::remove_dir_all(scratch.0.join(format!("s{}", k - 1)));
        if !errors.is_empty() {
            // The run has already failed; more sessions would only repeat it.
            break;
        }
    }

    run.check(
        "sessions_completed",
        errors.is_empty(),
        if errors.is_empty() {
            format!("{k} sessions")
        } else {
            format!("{} of {k} failed, first: {}", errors.len(), errors[0])
        },
    );
    let twin = run_in_process(&config(spec.seed, ROUNDS, None), &NullRecorder);
    match twin {
        Ok(twin) => run.check(
            "socket_matches_in_process",
            !checksums.is_empty() && checksums.iter().all(|&c| c == twin.checksum),
            format!(
                "{} socket checksums == in-process {:016x}",
                checksums.len(),
                twin.checksum
            ),
        ),
        Err(e) => run.check("socket_matches_in_process", false, format!("twin: {e}")),
    }
    run.check(
        "clients_agree",
        clients_agree,
        "every client's Finish checksum equals the server's".to_string(),
    );
    run.check(
        "no_reconnects",
        reconnects == 0,
        format!("{reconnects} reconnects without wire chaos"),
    );
    run
}
