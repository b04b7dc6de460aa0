//! Deterministic fault injection for federated rounds.
//!
//! Cross-device federated learning (SSFL, He et al.) is a best-effort
//! regime: per round, some clients drop out, some straggle, some crash
//! mid-update, and some return garbage. This module simulates all four
//! fault classes **deterministically**: every decision is a pure function of
//! `(plan seed, run seed, round, client, attempt)`, so any failure a test or
//! a chaos run observes can be replayed bit-for-bit by re-running with the
//! same seeds.
//!
//! The chaos layer only *decides and applies* faults. Surviving them is the
//! resilient round executor's job ([`crate::resilient`]): bounded retries,
//! update validation, minimum-quorum partial aggregation, and crash-safe
//! checkpoints.
//!
//! # Spec strings
//!
//! Bench binaries accept `--chaos <spec>` where `<spec>` is a comma list of
//! `key=value` pairs, e.g. `drop=0.3,corrupt=0.1,panic=0.05,straggle=0.2`:
//!
//! | key           | meaning                                   | default |
//! |---------------|-------------------------------------------|---------|
//! | `drop`        | per-client dropout probability            | 0       |
//! | `straggle`    | per-client straggler probability          | 0       |
//! | `straggle-ms` | straggler delay in milliseconds           | 10      |
//! | `panic`       | per-client mid-update panic probability   | 0       |
//! | `corrupt`     | per-client update-corruption probability  | 0       |
//! | `seed`        | chaos seed (mixed with the run seed)      | 0       |
//!
//! The transport layer (DESIGN.md §13) adds *wire* faults under `net-`
//! prefixed keys, parsed from the same spec string by
//! [`parse_combined_spec`]:
//!
//! | key             | meaning                                         | default |
//! |-----------------|-------------------------------------------------|---------|
//! | `net-drop`      | per-frame server→client drop probability        | 0       |
//! | `net-delay`     | per-frame delay probability                     | 0       |
//! | `net-delay-ms`  | injected frame delay in milliseconds            | 5       |
//! | `net-truncate`  | per-frame truncate-and-reset probability        | 0       |
//! | `net-partition` | per-(round, client) partition probability       | 0       |
//! | `net-churn`     | per-round client reconnect-churn probability    | 0       |
//! | `net-seed`      | wire chaos seed (mixed with the run seed)       | 0       |

use calibre_tensor::rng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The ways an injected corruption can mangle a client's update vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Poisons a slice of coordinates with NaN (detectable by validation).
    NaN,
    /// Poisons a slice of coordinates with ±∞ (detectable by validation).
    Inf,
    /// Scales the whole update by a large factor (finite, so it slips past
    /// validation; norm clipping or robust aggregation must absorb it).
    NormBlowup,
    /// Negates the whole update (finite and norm-preserving; only robust
    /// aggregators can absorb it).
    SignFlip,
}

impl Corruption {
    /// Telemetry tag for this corruption kind.
    pub fn kind_tag(self) -> &'static str {
        match self {
            Corruption::NaN => "corrupt_nan",
            Corruption::Inf => "corrupt_inf",
            Corruption::NormBlowup => "corrupt_norm",
            Corruption::SignFlip => "corrupt_sign",
        }
    }
}

/// One fault assigned to one `(round, client, attempt)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientFault {
    /// The client never responds this attempt (no compute happens).
    Dropout,
    /// The client completes, but only after an artificial delay.
    Straggle {
        /// Injected delay in milliseconds, slept inside the worker thread.
        delay_ms: u64,
    },
    /// The client's worker panics partway through its local update.
    PanicMidUpdate,
    /// The client completes but its reported update is corrupted.
    Corrupt(Corruption),
}

impl ClientFault {
    /// Telemetry tag for this fault.
    pub fn kind_tag(self) -> &'static str {
        match self {
            ClientFault::Dropout => "dropout",
            ClientFault::Straggle { .. } => "straggle",
            ClientFault::PanicMidUpdate => "panic",
            ClientFault::Corrupt(c) => c.kind_tag(),
        }
    }
}

/// Per-round, per-client fault probabilities for a chaos run.
///
/// The default plan is inactive (all probabilities zero); training behaves
/// exactly as if the chaos layer did not exist, which is what the golden
/// bit-identity tests pin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability a selected client drops out of an attempt.
    pub drop_prob: f32,
    /// Probability a client straggles (completes after `straggle_ms`).
    pub straggle_prob: f32,
    /// Injected straggler delay, milliseconds.
    pub straggle_ms: u64,
    /// Probability a client's worker panics mid-update.
    pub panic_prob: f32,
    /// Probability a client's reported update is corrupted.
    pub corrupt_prob: f32,
    /// Chaos seed, mixed with the run seed by [`FaultInjector::for_run`].
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_prob: 0.0,
            straggle_prob: 0.0,
            straggle_ms: 10,
            panic_prob: 0.0,
            corrupt_prob: 0.0,
            seed: 0,
        }
    }
}

impl FaultPlan {
    /// Whether any fault has a nonzero probability. An inactive plan means
    /// the round loop takes the exact nominal path.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.straggle_prob > 0.0
            || self.panic_prob > 0.0
            || self.corrupt_prob > 0.0
    }

    /// Parses a `--chaos` spec string (see the module docs for the table).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending pair on unknown keys,
    /// malformed numbers, or probabilities outside `[0, 1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use calibre_fl::chaos::FaultPlan;
    ///
    /// let plan = FaultPlan::parse("drop=0.3,corrupt=0.1,seed=7").unwrap();
    /// assert_eq!(plan.drop_prob, 0.3);
    /// assert_eq!(plan.corrupt_prob, 0.1);
    /// assert_eq!(plan.seed, 7);
    /// assert!(plan.is_active());
    /// assert!(FaultPlan::parse("drop=1.5").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("chaos spec: expected key=value, got {pair:?}"))?;
            let (key, value) = (key.trim(), value.trim());
            let prob = |v: &str| -> Result<f32, String> {
                let p: f32 = v
                    .parse()
                    .map_err(|_| format!("chaos spec: bad number {v:?} for {key}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos spec: {key}={p} outside [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "drop" => plan.drop_prob = prob(value)?,
                "straggle" => plan.straggle_prob = prob(value)?,
                "panic" => plan.panic_prob = prob(value)?,
                "corrupt" => plan.corrupt_prob = prob(value)?,
                "straggle-ms" => {
                    plan.straggle_ms = value
                        .parse()
                        .map_err(|_| format!("chaos spec: bad straggle-ms {value:?}"))?
                }
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("chaos spec: bad seed {value:?}"))?
                }
                other => return Err(format!("chaos spec: unknown key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// Seeded fault oracle: maps `(round, client, attempt)` to an optional
/// [`ClientFault`], reproducibly.
///
/// Internally each cell gets its own short-lived RNG seeded by mixing the
/// injector seed with the cell coordinates (SplitMix-style odd constants),
/// so decisions are independent across cells and replay identically
/// regardless of scheduling or iteration order.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
}

impl FaultInjector {
    /// Builds an injector whose decisions depend only on `plan.seed`.
    pub fn new(plan: FaultPlan) -> Self {
        let seed = plan.seed;
        FaultInjector { plan, seed }
    }

    /// Builds an injector for a training run, folding the run seed into the
    /// chaos seed so two runs with different `FlConfig::seed`s see
    /// different (but individually reproducible) fault sequences.
    pub fn for_run(plan: FaultPlan, run_seed: u64) -> Self {
        let seed = plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ run_seed.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        FaultInjector { plan, seed }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn cell_rng(&self, round: usize, client: usize, attempt: usize) -> rand::rngs::StdRng {
        let mixed = self
            .seed
            .wrapping_add((round as u64).wrapping_mul(0xA076_1D64_78BD_642F))
            .wrapping_add((client as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB))
            .wrapping_add((attempt as u64).wrapping_mul(0x8EBC_6AF0_9C88_C6E3));
        rng::seeded(mixed)
    }

    /// Decides the fault (if any) for one delivery attempt of one client in
    /// one round. Pure: same inputs, same answer, forever.
    ///
    /// The draws are ordered dropout → panic → corruption → straggle, so at
    /// most one fault fires per cell and the earlier (harsher) classes win
    /// ties.
    pub fn decide(&self, round: usize, client: usize, attempt: usize) -> Option<ClientFault> {
        if !self.plan.is_active() {
            return None;
        }
        let mut r = self.cell_rng(round, client, attempt);
        if r.gen::<f32>() < self.plan.drop_prob {
            return Some(ClientFault::Dropout);
        }
        if r.gen::<f32>() < self.plan.panic_prob {
            return Some(ClientFault::PanicMidUpdate);
        }
        if r.gen::<f32>() < self.plan.corrupt_prob {
            let kind = match r.gen_range(0usize..4) {
                0 => Corruption::NaN,
                1 => Corruption::Inf,
                2 => Corruption::NormBlowup,
                _ => Corruption::SignFlip,
            };
            return Some(ClientFault::Corrupt(kind));
        }
        if r.gen::<f32>() < self.plan.straggle_prob {
            return Some(ClientFault::Straggle {
                delay_ms: self.plan.straggle_ms,
            });
        }
        None
    }

    /// Applies a corruption to an update vector in place, deterministically
    /// for the `(round, client, attempt)` cell that decided it.
    pub fn corrupt(
        &self,
        round: usize,
        client: usize,
        attempt: usize,
        kind: Corruption,
        update: &mut [f32],
    ) {
        let mut r = self.cell_rng(round ^ 0x5EED, client, attempt);
        apply_corruption(kind, update, &mut r);
    }
}

/// Mangles `update` in place according to `kind`.
///
/// NaN/Inf poison roughly one in eight coordinates (at least one) so the
/// corruption survives any later averaging; blow-up scales by 10⁶; sign flip
/// negates everything.
pub fn apply_corruption<R: Rng + ?Sized>(kind: Corruption, update: &mut [f32], r: &mut R) {
    if update.is_empty() {
        return;
    }
    match kind {
        Corruption::NaN | Corruption::Inf => {
            let poison = if kind == Corruption::NaN {
                f32::NAN
            } else {
                f32::INFINITY
            };
            let stride = 8.min(update.len());
            let offset = r.gen_range(0..stride);
            for slot in update.iter_mut().skip(offset).step_by(stride) {
                *slot = poison;
            }
        }
        Corruption::NormBlowup => {
            for v in update.iter_mut() {
                *v *= 1e6;
            }
        }
        Corruption::SignFlip => {
            for v in update.iter_mut() {
                *v = -*v;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire faults: the transport layer's chaos (DESIGN.md §13).
// ---------------------------------------------------------------------------

/// One fault assigned to one server→client frame delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// The frame is silently lost; the receiver sees only a read timeout.
    Drop,
    /// The frame arrives intact, but late.
    Delay {
        /// Injected delay in milliseconds, slept before the send.
        delay_ms: u64,
    },
    /// Only a prefix of the frame is written and the connection is then
    /// reset — the receiver sees a short read / checksum failure and must
    /// reconnect.
    Truncate,
}

impl WireFault {
    /// Telemetry/metrics tag for this wire fault.
    pub fn kind_tag(self) -> &'static str {
        match self {
            WireFault::Drop => "net_drop",
            WireFault::Delay { .. } => "net_delay",
            WireFault::Truncate => "net_truncate",
        }
    }
}

/// Per-frame wire-fault probabilities for a transport chaos run.
///
/// The default plan is inactive: the socket transport behaves exactly like
/// a perfect network, which is what the cross-transport identity test pins
/// for its nominal run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireFaultPlan {
    /// Probability a server→client frame is dropped.
    pub drop_prob: f32,
    /// Probability a frame is delayed by [`WireFaultPlan::delay_ms`].
    pub delay_prob: f32,
    /// Injected frame delay, milliseconds.
    pub delay_ms: u64,
    /// Probability a frame is truncated mid-write and the connection reset.
    pub truncate_prob: f32,
    /// Probability a `(round, client)` pair is partitioned: early delivery
    /// attempts are dropped wholesale until the partition "heals"
    /// (attempt ≥ [`PARTITION_HEAL_ATTEMPT`]).
    pub partition_prob: f32,
    /// Probability a client churns (drops its connection and reconnects)
    /// after reporting each round. Decided client-side from the seed the
    /// server hands out in its `Welcome`.
    pub churn_prob: f32,
    /// Wire chaos seed, mixed with the run seed by [`WireInjector::for_run`].
    pub seed: u64,
}

/// The delivery attempt at which a partitioned `(round, client)` pair heals.
/// Retries up to this attempt see [`WireFault::Drop`]; later attempts go
/// through — so any transport with `max_attempts > PARTITION_HEAL_ATTEMPT`
/// still converges and the identity tests stay deterministic.
pub const PARTITION_HEAL_ATTEMPT: usize = 2;

impl Default for WireFaultPlan {
    fn default() -> Self {
        WireFaultPlan {
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_ms: 5,
            truncate_prob: 0.0,
            partition_prob: 0.0,
            churn_prob: 0.0,
            seed: 0,
        }
    }
}

impl WireFaultPlan {
    /// Whether any wire fault has a nonzero probability.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.delay_prob > 0.0
            || self.truncate_prob > 0.0
            || self.partition_prob > 0.0
            || self.churn_prob > 0.0
    }

    /// Parses the `net-` prefixed pairs of a chaos spec (see the module
    /// docs table). Non-`net-` keys are rejected; use
    /// [`parse_combined_spec`] for mixed specs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending pair on unknown keys,
    /// malformed numbers, or probabilities outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<WireFaultPlan, String> {
        let mut plan = WireFaultPlan::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("chaos spec: expected key=value, got {pair:?}"))?;
            let (key, value) = (key.trim(), value.trim());
            let prob = |v: &str| -> Result<f32, String> {
                let p: f32 = v
                    .parse()
                    .map_err(|_| format!("chaos spec: bad number {v:?} for {key}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos spec: {key}={p} outside [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "net-drop" => plan.drop_prob = prob(value)?,
                "net-delay" => plan.delay_prob = prob(value)?,
                "net-truncate" => plan.truncate_prob = prob(value)?,
                "net-partition" => plan.partition_prob = prob(value)?,
                "net-churn" => plan.churn_prob = prob(value)?,
                "net-delay-ms" => {
                    plan.delay_ms = value
                        .parse()
                        .map_err(|_| format!("chaos spec: bad net-delay-ms {value:?}"))?
                }
                "net-seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("chaos spec: bad net-seed {value:?}"))?
                }
                other => return Err(format!("chaos spec: unknown wire key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// Splits one `--chaos` spec into its client-fault and wire-fault halves:
/// `net-` prefixed keys go to [`WireFaultPlan::parse`], everything else to
/// [`FaultPlan::parse`]. This is what the serve binaries use, so one flag
/// configures both layers:
/// `--chaos drop=0.1,net-drop=0.2,net-churn=0.3`.
///
/// # Errors
///
/// Propagates the first parse error from either half.
///
/// # Examples
///
/// ```
/// use calibre_fl::chaos::parse_combined_spec;
///
/// let (clients, wire) = parse_combined_spec("drop=0.1,net-drop=0.2,seed=7").unwrap();
/// assert_eq!(clients.drop_prob, 0.1);
/// assert_eq!(clients.seed, 7);
/// assert_eq!(wire.drop_prob, 0.2);
/// assert!(parse_combined_spec("net-warp=1").is_err());
/// ```
pub fn parse_combined_spec(spec: &str) -> Result<(FaultPlan, WireFaultPlan), String> {
    let mut client_pairs = Vec::new();
    let mut wire_pairs = Vec::new();
    for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
        if pair.trim().starts_with("net-") {
            wire_pairs.push(pair.trim());
        } else {
            client_pairs.push(pair.trim());
        }
    }
    let clients = FaultPlan::parse(&client_pairs.join(","))?;
    let wire = WireFaultPlan::parse(&wire_pairs.join(","))?;
    Ok((clients, wire))
}

/// Seeded wire-fault oracle: maps each frame delivery
/// `(round, client, attempt)` to an optional [`WireFault`], reproducibly —
/// the transport twin of [`FaultInjector`].
///
/// Because decisions are per *attempt*, a fault that kills attempt 0 does
/// not automatically kill attempt 1: bounded retries eventually deliver,
/// so a chaos run that meets quorum still produces the byte-identical
/// final model (recovered faults are invisible to aggregation).
#[derive(Debug, Clone)]
pub struct WireInjector {
    plan: WireFaultPlan,
    seed: u64,
}

impl WireInjector {
    /// Builds an injector whose decisions depend only on `plan.seed`.
    pub fn new(plan: WireFaultPlan) -> Self {
        let seed = plan.seed;
        WireInjector { plan, seed }
    }

    /// Builds an injector for a run, folding the run seed into the wire
    /// chaos seed (distinct mixing constants from [`FaultInjector::for_run`]
    /// so the two layers draw independent fault sequences).
    pub fn for_run(plan: WireFaultPlan, run_seed: u64) -> Self {
        let seed = plan.seed.wrapping_mul(0xD6E8_FEB8_6659_FD93)
            ^ run_seed.wrapping_mul(0xA5A5_B0F8_7D3B_7C95);
        WireInjector { plan, seed }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &WireFaultPlan {
        &self.plan
    }

    /// The fully mixed seed driving this injector's decisions. A server
    /// puts this in its `Welcome` as the churn seed, so clients replay the
    /// same decision stream via [`WireInjector::new`] without re-deriving
    /// the run mixing.
    pub fn mixed_seed(&self) -> u64 {
        self.seed
    }

    fn cell_rng(&self, round: usize, client: usize, attempt: usize) -> rand::rngs::StdRng {
        let mixed = self
            .seed
            .wrapping_add((round as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25))
            .wrapping_add((client as u64).wrapping_mul(0xC6A4_A793_5BD1_E995))
            .wrapping_add((attempt as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD));
        rng::seeded(mixed)
    }

    /// Whether the `(round, client)` pair is partitioned this round
    /// (attempt-independent, so the partition spans early retries).
    pub fn partitioned(&self, round: usize, client: usize) -> bool {
        if self.plan.partition_prob <= 0.0 {
            return false;
        }
        let mut r = self.cell_rng(round ^ 0x0A17, client, usize::MAX >> 1);
        r.gen::<f32>() < self.plan.partition_prob
    }

    /// Decides the wire fault (if any) for one frame delivery. Pure: same
    /// inputs, same answer, forever.
    ///
    /// A partition wins over per-frame draws and drops every attempt below
    /// [`PARTITION_HEAL_ATTEMPT`]; after healing, and otherwise, the draws
    /// are ordered drop → truncate → delay.
    pub fn decide(&self, round: usize, client: usize, attempt: usize) -> Option<WireFault> {
        if !self.plan.is_active() {
            return None;
        }
        if attempt < PARTITION_HEAL_ATTEMPT && self.partitioned(round, client) {
            return Some(WireFault::Drop);
        }
        let mut r = self.cell_rng(round, client, attempt);
        if r.gen::<f32>() < self.plan.drop_prob {
            return Some(WireFault::Drop);
        }
        if r.gen::<f32>() < self.plan.truncate_prob {
            return Some(WireFault::Truncate);
        }
        if r.gen::<f32>() < self.plan.delay_prob {
            return Some(WireFault::Delay {
                delay_ms: self.plan.delay_ms,
            });
        }
        None
    }

    /// Client-side churn decision: whether the client should drop and
    /// re-establish its connection after reporting `round`. Computed from
    /// the seed carried in the server's `Welcome`, so the server never has
    /// to coordinate it.
    pub fn churns(&self, round: usize, client: usize) -> bool {
        if self.plan.churn_prob <= 0.0 {
            return false;
        }
        let mut r = self.cell_rng(round ^ 0xC4A2, client, 0);
        r.gen::<f32>() < self.plan.churn_prob
    }
}

/// Panics with a recognizable message — the injected "client crashed
/// mid-update" fault. Always caught by `parallel_prep_map`'s
/// `catch_unwind`; never escapes the resilient executor.
pub fn panic_injected(round: usize, client: usize) -> ! {
    // analyze:allow(no-panic) -- this *is* the injected fault: the chaos
    // harness exists to throw this panic at the resilient executor.
    panic!("chaos: injected mid-update panic (round {round}, client {client})");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_plan() -> FaultPlan {
        FaultPlan {
            drop_prob: 0.3,
            straggle_prob: 0.2,
            straggle_ms: 1,
            panic_prob: 0.1,
            corrupt_prob: 0.2,
            seed: 42,
        }
    }

    #[test]
    fn default_plan_is_inactive_and_decides_nothing() {
        let inj = FaultInjector::new(FaultPlan::default());
        for round in 0..10 {
            for client in 0..10 {
                assert_eq!(inj.decide(round, client, 0), None);
            }
        }
    }

    #[test]
    fn decisions_replay_identically_from_the_same_seed() {
        let a = FaultInjector::for_run(busy_plan(), 7);
        let b = FaultInjector::for_run(busy_plan(), 7);
        for round in 0..20 {
            for client in 0..8 {
                for attempt in 0..3 {
                    assert_eq!(
                        a.decide(round, client, attempt),
                        b.decide(round, client, attempt)
                    );
                }
            }
        }
    }

    #[test]
    fn different_run_seeds_give_different_fault_sequences() {
        let a = FaultInjector::for_run(busy_plan(), 1);
        let b = FaultInjector::for_run(busy_plan(), 2);
        let seq = |inj: &FaultInjector| -> Vec<Option<ClientFault>> {
            (0..40).map(|i| inj.decide(i / 4, i % 4, 0)).collect()
        };
        assert_ne!(seq(&a), seq(&b));
    }

    #[test]
    fn fault_rates_track_the_plan() {
        let inj = FaultInjector::new(busy_plan());
        let mut drops = 0usize;
        let n = 4000;
        for i in 0..n {
            if inj.decide(i, 0, 0) == Some(ClientFault::Dropout) {
                drops += 1;
            }
        }
        let rate = drops as f32 / n as f32;
        assert!((rate - 0.3).abs() < 0.05, "dropout rate {rate}");
    }

    #[test]
    fn all_fault_kinds_eventually_fire() {
        let inj = FaultInjector::new(busy_plan());
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..2000 {
            if let Some(f) = inj.decide(i, i % 5, 0) {
                seen.insert(f.kind_tag());
            }
        }
        for tag in [
            "dropout",
            "straggle",
            "panic",
            "corrupt_nan",
            "corrupt_inf",
            "corrupt_norm",
            "corrupt_sign",
        ] {
            assert!(seen.contains(tag), "never saw {tag}: {seen:?}");
        }
    }

    #[test]
    fn spec_parsing_roundtrips_and_rejects_garbage() {
        let plan =
            FaultPlan::parse("drop=0.25,straggle=0.1,straggle-ms=25,panic=0.05,corrupt=0.2,seed=9")
                .unwrap();
        assert_eq!(plan.drop_prob, 0.25);
        assert_eq!(plan.straggle_prob, 0.1);
        assert_eq!(plan.straggle_ms, 25);
        assert_eq!(plan.panic_prob, 0.05);
        assert_eq!(plan.corrupt_prob, 0.2);
        assert_eq!(plan.seed, 9);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("warp=0.5").is_err());
        assert!(FaultPlan::parse("panic=2.0").is_err());
        assert!(FaultPlan::parse("straggle-ms=fast").is_err());
    }

    #[test]
    fn nan_and_inf_corruption_is_detectable() {
        let mut r = rng::seeded(3);
        for kind in [Corruption::NaN, Corruption::Inf] {
            let mut update = vec![1.0f32; 37];
            apply_corruption(kind, &mut update, &mut r);
            assert!(update.iter().any(|v| !v.is_finite()), "{kind:?}");
        }
    }

    #[test]
    fn silent_corruptions_stay_finite() {
        let mut r = rng::seeded(4);
        let mut blown = vec![1.0f32, -2.0, 3.0];
        apply_corruption(Corruption::NormBlowup, &mut blown, &mut r);
        assert!(blown.iter().all(|v| v.is_finite()));
        assert!(blown[0] > 1e5);
        let mut flipped = vec![1.0f32, -2.0];
        apply_corruption(Corruption::SignFlip, &mut flipped, &mut r);
        assert_eq!(flipped, vec![-1.0, 2.0]);
    }

    fn busy_wire_plan() -> WireFaultPlan {
        WireFaultPlan {
            drop_prob: 0.2,
            delay_prob: 0.2,
            delay_ms: 1,
            truncate_prob: 0.1,
            partition_prob: 0.1,
            churn_prob: 0.2,
            seed: 5,
        }
    }

    #[test]
    fn wire_spec_parsing_roundtrips_and_rejects_garbage() {
        let plan = WireFaultPlan::parse(
            "net-drop=0.2,net-delay=0.1,net-delay-ms=3,net-truncate=0.05,\
             net-partition=0.1,net-churn=0.25,net-seed=11",
        )
        .unwrap();
        assert_eq!(plan.drop_prob, 0.2);
        assert_eq!(plan.delay_prob, 0.1);
        assert_eq!(plan.delay_ms, 3);
        assert_eq!(plan.truncate_prob, 0.05);
        assert_eq!(plan.partition_prob, 0.1);
        assert_eq!(plan.churn_prob, 0.25);
        assert_eq!(plan.seed, 11);
        assert!(plan.is_active());
        assert_eq!(WireFaultPlan::parse("").unwrap(), WireFaultPlan::default());
        assert!(WireFaultPlan::parse("net-drop=1.5").is_err());
        assert!(WireFaultPlan::parse("drop=0.5").is_err());
        assert!(WireFaultPlan::parse("net-warp=0.5").is_err());
    }

    #[test]
    fn combined_spec_splits_by_prefix() {
        let (clients, wire) =
            parse_combined_spec("drop=0.3,net-drop=0.2,seed=7,net-seed=9,net-churn=0.1").unwrap();
        assert_eq!(clients.drop_prob, 0.3);
        assert_eq!(clients.seed, 7);
        assert_eq!(wire.drop_prob, 0.2);
        assert_eq!(wire.seed, 9);
        assert_eq!(wire.churn_prob, 0.1);
        assert!(parse_combined_spec("warp=1").is_err());
        assert!(parse_combined_spec("net-warp=1").is_err());
    }

    #[test]
    fn wire_decisions_replay_identically_from_the_same_seed() {
        let a = WireInjector::for_run(busy_wire_plan(), 7);
        let b = WireInjector::for_run(busy_wire_plan(), 7);
        for round in 0..20 {
            for client in 0..8 {
                for attempt in 0..4 {
                    assert_eq!(
                        a.decide(round, client, attempt),
                        b.decide(round, client, attempt)
                    );
                    assert_eq!(a.churns(round, client), b.churns(round, client));
                }
            }
        }
        let c = WireInjector::for_run(busy_wire_plan(), 8);
        let seq = |inj: &WireInjector| -> Vec<Option<WireFault>> {
            (0..60).map(|i| inj.decide(i / 4, i % 4, 0)).collect()
        };
        assert_ne!(seq(&a), seq(&c), "different run seeds differ");
    }

    #[test]
    fn partitions_heal_after_the_documented_attempt() {
        let inj = WireInjector::new(WireFaultPlan {
            partition_prob: 1.0,
            ..WireFaultPlan::default()
        });
        for attempt in 0..PARTITION_HEAL_ATTEMPT {
            assert_eq!(inj.decide(0, 0, attempt), Some(WireFault::Drop));
        }
        assert_eq!(inj.decide(0, 0, PARTITION_HEAL_ATTEMPT), None);
    }

    #[test]
    fn every_wire_fault_kind_eventually_fires_and_retries_recover() {
        let inj = WireInjector::new(busy_wire_plan());
        let mut seen = std::collections::BTreeSet::new();
        let mut recovered = 0usize;
        for round in 0..200 {
            for client in 0..4 {
                let mut delivered = false;
                for attempt in 0..6 {
                    match inj.decide(round, client, attempt) {
                        // A delayed frame still arrives; only drops and
                        // truncations force a retry.
                        None | Some(WireFault::Delay { .. }) => {
                            if let Some(f) = inj.decide(round, client, attempt) {
                                seen.insert(f.kind_tag());
                            }
                            delivered = true;
                            break;
                        }
                        Some(f) => {
                            seen.insert(f.kind_tag());
                        }
                    }
                }
                if delivered {
                    recovered += 1;
                }
            }
        }
        for tag in ["net_drop", "net_delay", "net_truncate"] {
            assert!(seen.contains(tag), "never saw {tag}: {seen:?}");
        }
        assert!(
            recovered >= 790,
            "6 attempts recover essentially every frame at these rates, got {recovered}/800"
        );
    }

    #[test]
    fn inactive_wire_plan_decides_nothing() {
        let inj = WireInjector::new(WireFaultPlan::default());
        for round in 0..10 {
            for client in 0..10 {
                assert_eq!(inj.decide(round, client, 0), None);
                assert!(!inj.churns(round, client));
                assert!(!inj.partitioned(round, client));
            }
        }
    }

    #[test]
    fn corruption_application_is_deterministic() {
        let inj = FaultInjector::new(busy_plan());
        let mut a = vec![1.0f32; 64];
        let mut b = vec![1.0f32; 64];
        inj.corrupt(3, 2, 0, Corruption::NaN, &mut a);
        inj.corrupt(3, 2, 0, Corruption::NaN, &mut b);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }
}
