//! What every workload returns, and the helpers they share.

use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["train-calibre", "train-fedavg", "serve-wire"];

/// A number printed by name with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// One output check: a name, whether it held, and what was compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Consecutive rounds measured together: one training run, one serve
/// session, or a block of streaming rounds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Segment {
    pub rounds: usize,
    pub wall_s: f64,
    /// Wall milliseconds of each round, or one mean round time where the
    /// library offers no per-round hook.
    pub round_ms: Vec<f64>,
}

/// Everything one run of a workload measured.
#[derive(Debug, Default)]
pub struct WorkloadRun {
    /// Wall seconds of each set-up the run performed.
    pub setup_s: Vec<f64>,
    /// The measured phase, segment by segment.
    pub segments: Vec<Segment>,
    /// Work in one round, with its unit (samples, updates or bytes).
    pub work_per_round: (f64, &'static str),
    /// Client updates the run attempted.
    pub updates_attempted: u64,
    /// Client updates dropped or rejected.
    pub updates_failed: u64,
    /// Output checks, in the order they ran.
    pub checks: Vec<Check>,
    /// Workload-specific results printed but not gated (accuracy,
    /// personalization time).
    pub info: Vec<Metric>,
    /// How the round samples were taken, printed with the round metrics.
    pub round_note: &'static str,
}

impl WorkloadRun {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    pub fn rounds(&self) -> usize {
        self.segments.iter().map(|s| s.rounds).sum()
    }

    pub fn wall_s(&self) -> f64 {
        self.segments.iter().map(|s| s.wall_s).sum()
    }

    /// Every round sample of the run.
    pub fn round_ms(&self) -> Vec<f64> {
        self.segments
            .iter()
            .flat_map(|s| s.round_ms.iter().copied())
            .collect()
    }

    /// Median over segments of rounds per second. A median, not the total
    /// over the run, so a burst of load from outside the benchmark that
    /// slows one segment does not move the result.
    pub fn rounds_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .segments
            .iter()
            .map(|s| s.rounds as f64 / s.wall_s.max(1e-9))
            .collect();
        crate::stats::median(&rates)
    }

    /// The round tail as `(percentile, ms)`; see [`crate::stats::segmented_tail`].
    pub fn round_tail(&self) -> (f64, f64) {
        let samples: Vec<&[f64]> = self
            .segments
            .iter()
            .map(|s| s.round_ms.as_slice())
            .collect();
        crate::stats::segmented_tail(&samples)
    }
}

/// How a workload run is driven.
pub struct RunSpec<'a> {
    pub seed: u64,
    /// Length of the measured phase. At least one unit of work (one
    /// training run, one round, one serve session) always completes.
    pub measure: Duration,
    pub tracer: Option<&'a Tracer>,
}

impl RunSpec<'_> {
    pub fn deadline(&self) -> Instant {
        Instant::now() + self.measure
    }
}

/// Runs `f`, returning its result and wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Peak resident set of this process in MiB (Linux `VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let kb: f64 = l
                    .strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()?;
                Some(kb / 1024.0)
            })
        })
        .unwrap_or(0.0)
}

/// Directory for files a run writes (traces, serve checkpoints): next to
/// the benchmark binary, inside the build directory, which version control
/// ignores.
pub fn output_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("perfbench-out")))
        .unwrap_or_else(|| PathBuf::from("perfbench-out"))
}

/// A directory this process owns for the length of one use, removed on
/// drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = output_dir().join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministic pseudo-random values in `[-1, 1)`: a splitmix64 stream
/// seeded by `key`, cheap enough that generating inputs does not dominate
/// what is timed.
pub fn fill_uniform(key: u64, out: &mut [f32]) {
    let mut x = key.wrapping_mul(0xBF58_476D_1CE4_E5B9) | 1;
    for v in out {
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        *v = (x >> 40) as f32 / (1u64 << 23) as f32 - 1.0;
    }
}
