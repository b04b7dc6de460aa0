//! The streaming-round shape the layer suite probes: a sampled cohort of
//! 10,000 of 20,000 clients, with synthesized dim-1,024 updates folded wave
//! by wave into a `StreamingWeightedSink`. No tensor work: the scheduler,
//! the sampler and the sink are what is timed.

use crate::workload::fill_uniform;
use calibre_fl::aggregate::{AggregateError, UpdateSink};
use calibre_fl::scheduler::RoundScheduler;
use calibre_fl::{Sampler, SamplerKind};
use std::time::Instant;

pub const POPULATION: usize = 20_000;
pub const COHORT: usize = 10_000;
pub const DIM: usize = 1_024;
pub const WAVE: usize = 64;

/// The seeded uniform scheduler the probe samples its cohorts from. The
/// round count is only an upper bound for sampled schedules.
pub fn scheduler(seed: u64) -> RoundScheduler {
    RoundScheduler::sampled(
        Sampler::new(SamplerKind::Uniform, seed),
        POPULATION,
        COHORT,
        usize::MAX,
    )
}

/// The synthesized update of `client` in `round`, and its weight.
pub fn synth_update(seed: u64, round: usize, client: usize) -> (Vec<f32>, f32) {
    let key = seed
        ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (client as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let mut update = vec![0.0f32; DIM];
    fill_uniform(key, &mut update);
    (update, 1.0 + (client % 16) as f32)
}

/// A sink that times every fold into the wrapped sink.
pub struct TimedSink<S> {
    inner: S,
    pub fold_ns: u64,
}

impl<S: UpdateSink> TimedSink<S> {
    pub fn new(inner: S) -> Self {
        TimedSink { inner, fold_ns: 0 }
    }
}

impl<S: UpdateSink> UpdateSink for TimedSink<S> {
    fn fold(&mut self, client: usize, update: &[f32], weight: f32) -> Result<(), AggregateError> {
        let start = Instant::now();
        let out = self.inner.fold(client, update, weight);
        self.fold_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        out
    }

    fn folded(&self) -> usize {
        self.inner.folded()
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn finish(&mut self) -> Result<Vec<f32>, AggregateError> {
        self.inner.finish()
    }
}
