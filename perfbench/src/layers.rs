//! The per-layer suite of the traced run: each layer timed from outside
//! through its public functions, at the shapes the workloads use.
//!
//! Every timing is the median of repeated calls after one warm-up call.
//! Each layer's loop runs inside one span named after its metric.

use crate::cohort;
use crate::serve;
use crate::stats::median;
use crate::trace::Tracer;
use crate::train;
use crate::workload::{fill_uniform, Metric, ScratchDir};
use calibre::{calibre_local_update_detailed, calibre_step_in, CalibreConfig};
use calibre_cluster::{kmeans, KMeansConfig};
use calibre_data::AugmentConfig;
use calibre_fl::aggregate::weighted_average_refs;
use calibre_fl::checkpoint::{CheckpointStore, ServerCheckpoint};
use calibre_fl::proto::Msg;
use calibre_fl::{personalize_cohort, ReputationBook, StreamingWeightedSink};
use calibre_ssl::{create_method, ssl_step_in, SslKind, TwoViewBatch};
use calibre_tensor::backend::global_backend;
use calibre_tensor::nn::Module;
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::{rng, Graph, Matrix, StepArena};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Time each layer's loop aims to fill, beyond its minimum repetitions.
const BUDGET: Duration = Duration::from_millis(150);

/// Median seconds per call of `f`, after one warm-up call, over at least
/// `min_reps` calls and until [`BUDGET`] is spent.
fn per_call(tracer: &Tracer, name: &'static str, min_reps: usize, mut f: impl FnMut()) -> f64 {
    tracer.span(name, None, None, || {
        f();
        let mut samples = Vec::with_capacity(min_reps);
        let started = Instant::now();
        while samples.len() < min_reps || started.elapsed() < BUDGET {
            let t = Instant::now();
            f();
            samples.push(t.elapsed().as_secs_f64());
        }
        median(&samples)
    })
}

/// The machine factor: a fixed pure-Rust kernel (a naive 128x128 f64
/// matrix product) whose time depends only on the machine, in
/// milliseconds. Median of nine calls.
pub fn ref_kernel_ms() -> f64 {
    const N: usize = 128;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 17) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 13) as f64 * 0.5).collect();
    let mut c = vec![0.0f64; N * N];
    let mut samples = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        std::hint::black_box(&mut c);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

fn random(rows: usize, cols: usize, key: u64) -> Matrix {
    let mut data = vec![0.0f32; rows * cols];
    fill_uniform(key, &mut data);
    Matrix::from_vec(rows, cols, data)
}

/// `Backend::matmul`, `matmul_nt` and `matmul_tn` over the forward and
/// backward products of the encoder at batch 32 (64 -> 96 -> 32).
fn matmul_gflops(tracer: &Tracer) -> f64 {
    let backend = global_backend();
    let x = random(32, 64, 1);
    let w1 = random(64, 96, 2);
    let h = random(32, 96, 3);
    let w2 = random(96, 32, 4);
    let dy = random(32, 32, 5);
    let dh = random(32, 96, 6);
    let mut outs = [
        Matrix::zeros(32, 96),
        Matrix::zeros(32, 32),
        Matrix::zeros(32, 96),
        Matrix::zeros(32, 64),
        Matrix::zeros(96, 32),
        Matrix::zeros(64, 96),
    ];
    let flops = 3.0 * 2.0 * 32.0 * (64.0 * 96.0 + 96.0 * 32.0);
    let secs = per_call(tracer, "tensor.matmul", 50, || {
        for o in outs.iter_mut() {
            o.as_mut_slice().fill(0.0);
        }
        let [o1, o2, o3, o4, o5, o6] = &mut outs;
        backend.matmul(&x, &w1, o1);
        backend.matmul(&h, &w2, o2);
        backend.matmul_nt(&dy, &w2, o3);
        backend.matmul_nt(&dh, &w1, o4);
        backend.matmul_tn(&h, &dy, o5);
        backend.matmul_tn(&x, &dh, o6);
        std::hint::black_box(&outs);
    });
    flops / secs / 1e9
}

/// Runs the suite and returns every per-layer metric except the trace
/// overhead, which needs the workload's own runs.
pub fn suite(seed: u64, tracer: &Tracer) -> Vec<Metric> {
    let mut out = Vec::new();
    let (fed, cfg) = train::setup(seed);
    let aug = AugmentConfig::default();
    let gen = fed.generator();
    let classes = gen.num_classes();

    out.push(Metric::new(
        "tensor.matmul_gflops",
        matmul_gflops(tracer),
        "GFLOP/s",
    ));

    // One batch-32 two-view batch from client 0's SSL pool.
    let pool = fed.client(0).ssl_pool();
    let batch_samples: Vec<_> = pool.iter().copied().cycle().take(32).collect();
    let mut r = rng::seeded(seed);
    let (view_e, view_o) = gen.render_two_views(batch_samples.iter().copied(), &aug, &mut r);
    let batch = TwoViewBatch::new(&view_e, &view_o);
    let new_opt = || {
        Sgd::new(SgdConfig::with_lr_momentum(
            cfg.local_lr,
            cfg.local_momentum,
        ))
    };

    // Backward and optimizer on one SimCLR loss graph, each on a fresh tape.
    {
        let mut method = create_method(SslKind::SimClr, cfg.ssl.clone());
        let mut opt = new_opt();
        let (mut backward, mut step) = (Vec::new(), Vec::new());
        tracer.span("tensor.backward_optimizer", None, None, || {
            let started = Instant::now();
            while backward.len() < 20 || started.elapsed() < BUDGET {
                let mut g = method.build_graph_with(&batch, Graph::new());
                let t = Instant::now();
                g.graph.backward(g.ssl_loss);
                let t2 = Instant::now();
                opt.step_graph(method.as_mut(), &g.graph, &g.binding);
                backward.push((t2 - t).as_secs_f64());
                step.push(t2.elapsed().as_secs_f64());
            }
        });
        out.push(Metric::new(
            "tensor.backward_ms",
            median(&backward) * 1e3,
            "ms",
        ));
        out.push(Metric::new(
            "tensor.optimizer_ms",
            median(&step) * 1e3,
            "ms",
        ));
    }

    let build = per_call(tracer, "data.build_dataset", 5, || {
        std::hint::black_box(train::setup(seed));
    });
    out.push(Metric::new("data.build_ms", build * 1e3, "ms"));

    let views = per_call(tracer, "data.render_two_views", 20, || {
        std::hint::black_box(gen.render_two_views(batch_samples.iter().copied(), &aug, &mut r));
    });
    out.push(Metric::new(
        "data.two_views_us_per_sample",
        views * 1e6 / 32.0,
        "us",
    ));

    let mut arena = StepArena::new();
    let method = create_method(SslKind::SimClr, cfg.ssl.clone());
    let forward = per_call(tracer, "ssl.build_graph", 20, || {
        let g = method.build_graph_with(&batch, arena.take());
        arena.put(g.graph);
    });
    out.push(Metric::new("ssl.forward_ms", forward * 1e3, "ms"));

    let projections = random(32, 16, seed);
    let km = per_call(tracer, "cluster.kmeans", 50, || {
        std::hint::black_box(kmeans(
            &projections,
            &KMeansConfig {
                k: 10,
                max_iters: 20,
                tol: 1e-3,
                seed: 0,
                n_init: 1,
            },
        ));
    });
    out.push(Metric::new("cluster.kmeans_us", km * 1e6, "us"));

    // SimCLR and Calibre steps alternate in one loop, so a change in
    // machine load between them does not show up as calibration overhead.
    let (simclr, calibre) = tracer.span("ssl_and_core.step", None, None, || {
        let mut plain = create_method(SslKind::SimClr, cfg.ssl.clone());
        let mut calibrated = create_method(SslKind::SimClr, cfg.ssl.clone());
        let (mut plain_opt, mut calibrated_opt) = (new_opt(), new_opt());
        let ccfg = CalibreConfig::default();
        let (mut simclr, mut calibre) = (Vec::new(), Vec::new());
        let started = Instant::now();
        let mut step = 0u64;
        while step < 40 || started.elapsed() < 2 * BUDGET {
            step += 1;
            let t = Instant::now();
            std::hint::black_box(ssl_step_in(
                plain.as_mut(),
                &batch,
                &mut plain_opt,
                &mut arena,
            ));
            let t2 = Instant::now();
            std::hint::black_box(calibre_step_in(
                calibrated.as_mut(),
                &batch,
                &ccfg,
                &mut calibrated_opt,
                step,
                &mut arena,
            ));
            simclr.push((t2 - t).as_secs_f64());
            calibre.push(t2.elapsed().as_secs_f64());
        }
        (median(&simclr), median(&calibre))
    });
    out.push(Metric::new("ssl.simclr_step_ms", simclr * 1e3, "ms"));
    out.push(Metric::new("core.calibre_step_ms", calibre * 1e3, "ms"));
    out.push(Metric::new(
        "core.calibration_overhead",
        calibre / simclr - 1.0,
        "ratio",
    ));

    let round_cfg = train::calibre_config(&cfg);
    let local = per_call(tracer, "core.local_update", 3, || {
        let mut method = create_method(SslKind::SimClr, cfg.ssl.clone());
        let mut opt = new_opt();
        let mut r = rng::seeded(seed);
        std::hint::black_box(calibre_local_update_detailed(
            method.as_mut(),
            fed.client(0),
            gen,
            &aug,
            cfg.local_epochs,
            cfg.batch_size,
            &round_cfg,
            &mut opt,
            &mut r,
        ));
    });
    out.push(Metric::new("core.local_update_ms", local * 1e3, "ms"));

    // Worker busy and idle time of the collect path, over a few rounds.
    let probe = tracer.span("fl.round", None, None, || {
        train::calibre_round_probe(&fed, &cfg, 4)
    });
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(cfg.clients_per_round) as f64;
    let busy: f64 = probe.client_sum_ms.iter().sum();
    let wall: f64 = probe.round_ms.iter().sum();
    out.push(Metric::new(
        "fl.round.client_busy_ms",
        busy / probe.clients.max(1) as f64,
        "ms",
    ));
    out.push(Metric::new(
        "fl.round.idle_share",
        1.0 - busy / (workers * wall),
        "fraction",
    ));

    let encoder = create_method(SslKind::SimClr, cfg.ssl.clone())
        .encoder()
        .clone();
    let personalize = per_call(tracer, "fl.personalize", 3, || {
        std::hint::black_box(personalize_cohort(&encoder, &fed, classes, &cfg.probe));
    });
    out.push(Metric::new(
        "fl.personalize_ms_per_client",
        personalize * 1e3 / fed.num_clients() as f64,
        "ms",
    ));

    let flats: Vec<Vec<f32>> = (0..5u64)
        .map(|i| {
            let mut v = encoder.to_flat();
            fill_uniform(seed ^ i, &mut v);
            v
        })
        .collect();
    let refs: Vec<&[f32]> = flats.iter().map(Vec::as_slice).collect();
    let weights = [1.0, 2.0, 3.0, 4.0, 5.0];
    let collect = per_call(tracer, "fl.aggregate.collect", 50, || {
        std::hint::black_box(weighted_average_refs(&refs, &weights));
    });
    out.push(Metric::new(
        "fl.aggregate.collect_ns_per_param",
        collect * 1e9 / (refs.len() * flats[0].len()) as f64,
        "ns",
    ));

    out.extend(cohort_layers(seed, tracer));
    out.extend(wire_layers(seed, tracer));
    out.push(Metric::new("machine.ref_kernel_ms", ref_kernel_ms(), "ms"));
    out
}

/// Sampler, scheduler and sink costs of the cohort-stream round.
fn cohort_layers(seed: u64, tracer: &Tracer) -> Vec<Metric> {
    let scheduler = cohort::scheduler(seed);
    let mut round = 0usize;
    let select = per_call(tracer, "fl.sampler.select", 10, || {
        round += 1;
        std::hint::black_box(scheduler.select(round, None));
    });

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let (mut fold_ns, mut gen_ns, mut wall_ns, mut clients) = (0u64, 0u64, 0u64, 0usize);
    tracer.span("fl.scheduler.round", None, None, || {
        for r in 0..3 {
            let selected = scheduler.select(r, None);
            let mut sink = cohort::TimedSink::new(StreamingWeightedSink::new());
            let generated = AtomicU64::new(0);
            let t = Instant::now();
            scheduler.run_round_streaming(
                r,
                &selected,
                cohort::WAVE,
                &mut sink,
                |client| {
                    let t = Instant::now();
                    let u = cohort::synth_update(seed, r, client);
                    generated.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    u
                },
                &calibre_telemetry::NullRecorder,
            );
            wall_ns += t.elapsed().as_nanos() as u64;
            fold_ns += sink.fold_ns;
            gen_ns += generated.into_inner();
            clients += selected.len();
        }
    });
    let overhead_ns = wall_ns as f64 - gen_ns as f64 / workers - fold_ns as f64;
    vec![
        Metric::new("fl.sampler.select_us", select * 1e6, "us"),
        Metric::new(
            "fl.aggregate.fold_ns_per_param",
            fold_ns as f64 / (clients * cohort::DIM) as f64,
            "ns",
        ),
        Metric::new(
            "fl.scheduler.overhead_us_per_client",
            overhead_ns / 1e3 / clients as f64,
            "us",
        ),
    ]
}

/// Frame codec, checkpoint and transport costs at the serve-wire shape.
fn wire_layers(seed: u64, tracer: &Tracer) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut update = vec![0.0f32; serve::DIM];
    fill_uniform(seed, &mut update);
    let msg = Msg::Update {
        round: 1,
        slot: 0,
        client: 1,
        weight: 2.0,
        loss: 0.5,
        update: update.clone(),
    };
    let frame = msg.encode();
    let mb = frame.len() as f64 / 1e6;
    let encode = per_call(tracer, "fl.proto.encode", 20, || {
        std::hint::black_box(msg.encode());
    });
    let decode = per_call(tracer, "fl.proto.decode", 20, || {
        std::hint::black_box(Msg::decode(&frame).expect("frame decodes"));
    });
    out.push(Metric::new("fl.proto.encode_mb_s", mb / encode, "MB/s"));
    out.push(Metric::new("fl.proto.decode_mb_s", mb / decode, "MB/s"));

    let ckpt = ServerCheckpoint {
        round: 1,
        model: update,
        reputation: ReputationBook::new(),
    };
    let to_text = per_call(tracer, "fl.checkpoint.to_text", 5, || {
        std::hint::black_box(ckpt.to_text());
    });
    out.push(Metric::new("fl.checkpoint.to_text_ms", to_text * 1e3, "ms"));
    let text = ckpt.to_text();
    let save = match ScratchDir::new("layer-checkpoint") {
        Ok(dir) => {
            let store = CheckpointStore::new(dir.0.join("server.ckpt"));
            per_call(tracer, "fl.checkpoint.save", 5, || {
                store.save_text(&text).expect("checkpoint save");
            })
        }
        Err(_) => f64::NAN,
    };
    out.push(Metric::new("fl.checkpoint.save_ms", save * 1e3, "ms"));

    let cfg = serve::config(seed, 10, None);
    let session = tracer.span("fl.transport.session", None, None, || {
        let dir = ScratchDir::new("layer-serve").ok()?;
        let cfg = serve::config(seed, 10, Some(dir.0.join("server.ckpt")));
        serve::session(&cfg, None).ok()
    });
    let (server_ms, reconnects) = match session {
        Some(s) => {
            let server: Vec<f64> = s
                .round_ms
                .iter()
                .zip(&s.slowest_work_ms)
                .map(|(r, w)| r - w)
                .collect();
            let reconnects: usize = s.reports.iter().map(|r| r.reconnects).sum();
            (median(&server), reconnects as f64)
        }
        None => (f64::NAN, f64::NAN),
    };
    out.push(Metric::new(
        "fl.transport.server_ms_per_round",
        server_ms,
        "ms",
    ));
    out.push(Metric::new(
        "fl.transport.bytes_per_round",
        serve::bytes_per_round(&cfg) as f64,
        "bytes",
    ));
    out.push(Metric::new("fl.transport.reconnects", reconnects, "count"));
    out
}
