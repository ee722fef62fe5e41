#![warn(missing_docs)]
//! Deterministic fault injection for the SmartBadge simulator.
//!
//! The paper's premise is a *non-stationary* workload: arrival and decode
//! rates jump, and the change-point governor must hold QoS while saving
//! power. A deployed SmartBadge additionally sees regimes no well-behaved
//! exponential trace exercises — WLAN dropouts, decode overruns, flaky
//! frequency–voltage transitions. This crate models those regimes as
//! **seeded, reproducible faults** so the rest of the workspace can prove
//! it degrades gracefully instead of panicking:
//!
//! * [`BurstLossSpec`] — WLAN burst loss on frame arrivals
//!   (a two-state Gilbert–Elliott channel),
//! * [`JitterSpec`] — arrival jitter spikes (late delivery),
//! * [`OverrunSpec`] — decode-time overruns,
//! * [`SwitchFaultSpec`] — failed frequency–voltage switches, retried
//!   with capped exponential backoff on top of the SA-1100's 150 µs
//!   transition,
//! * [`DegenerateSampleSpec`] — degenerate detector samples (zero/NaN
//!   interarrivals) that downstream estimators must reject.
//!
//! A [`FaultSpec`] bundles the models plus optional deterministic
//! [activity windows](FaultSpec::windows); [`FaultPlan::new`] validates it
//! once; [`FaultInjector`] executes it against forked
//! [`SimRng`] streams, so the same `(seed, spec)`
//! pair always produces the same fault schedule and adding one model does
//! not perturb the others.
//!
//! # Example
//!
//! ```
//! use faults::{FaultPlan, FaultSpec, JitterSpec};
//! use simcore::rng::SimRng;
//! use simcore::time::SimTime;
//!
//! let spec = FaultSpec {
//!     jitter: Some(JitterSpec { prob: 1.0, max_secs: 0.05 }),
//!     ..FaultSpec::default()
//! };
//! let plan = FaultPlan::new(spec)?;
//! let rng = SimRng::seed_from(7);
//! let mut inj = plan.injector(&rng);
//! let j = inj.arrival_jitter(SimTime::ZERO);
//! assert!(j.as_secs_f64() <= 0.05);
//! # Ok::<(), faults::FaultError>(())
//! ```

use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use std::fmt;

/// Error type for invalid fault-model parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A numeric parameter was outside its legal domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable description of the legal domain.
        expected: &'static str,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidParameter {
                name,
                value,
                expected,
            } => write!(
                f,
                "invalid fault parameter `{name}` = {value}; expected {expected}"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

fn check_prob(name: &'static str, value: f64) -> Result<f64, FaultError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(FaultError::InvalidParameter {
            name,
            value,
            expected: "a probability in [0, 1]",
        })
    }
}

fn check_non_negative(name: &'static str, value: f64) -> Result<f64, FaultError> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(FaultError::InvalidParameter {
            name,
            value,
            expected: "a finite value >= 0",
        })
    }
}

/// WLAN burst loss on frame arrivals, modeled as a Gilbert–Elliott
/// channel: a good state that never drops and a bad (burst) state that
/// drops each frame with [`drop_prob`](Self::drop_prob).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLossSpec {
    /// Per-arrival probability of entering a burst from the good state.
    pub enter_prob: f64,
    /// Per-arrival probability of leaving the burst state.
    pub exit_prob: f64,
    /// Per-arrival drop probability while inside a burst.
    pub drop_prob: f64,
}

/// Arrival jitter spikes: with probability [`prob`](Self::prob) a frame is
/// delivered late by a uniform delay in `[0, max_secs]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterSpec {
    /// Per-arrival probability of a jitter spike.
    pub prob: f64,
    /// Maximum extra delivery delay, seconds.
    pub max_secs: f64,
}

/// Decode-time overruns: with probability [`prob`](Self::prob) a frame's
/// decode work is inflated by a uniform factor in `[1, max_factor]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverrunSpec {
    /// Per-frame probability of an overrun.
    pub prob: f64,
    /// Maximum work-inflation factor (≥ 1).
    pub max_factor: f64,
}

/// Failed frequency–voltage switches. Each attempt fails with
/// [`fail_prob`](Self::fail_prob); failed attempts are retried with
/// exponential backoff starting at the transition cost itself and capped
/// at [`max_retries`](Self::max_retries), after which the switch is
/// abandoned and the CPU stays at its old operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchFaultSpec {
    /// Per-attempt failure probability.
    pub fail_prob: f64,
    /// Maximum retry attempts before the switch is abandoned.
    pub max_retries: u32,
}

/// Degenerate detector samples: with probability [`prob`](Self::prob) an
/// interarrival sample handed to the governor is replaced by `0.0` or NaN
/// (alternating by coin flip), which the estimator must reject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegenerateSampleSpec {
    /// Per-sample corruption probability.
    pub prob: f64,
}

/// A half-open activity window `[start_s, end_s)` in simulation seconds.
///
/// Windows make fault schedules provable: a chaos test can place a fault
/// burst in a known interval and assert the supervisor enters degraded
/// mode inside it and leaves after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Window start, seconds.
    pub start_s: f64,
    /// Window end, seconds.
    pub end_s: f64,
}

impl FaultWindow {
    /// `true` if `t` lies inside the window.
    #[must_use]
    pub fn contains(&self, t: SimTime) -> bool {
        let s = t.as_secs_f64();
        s >= self.start_s && s < self.end_s
    }
}

/// Configuration of every fault model for one run. All models default to
/// `None` (no faults), so `FaultSpec::default()` is a no-op injector.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// WLAN burst loss on arrivals.
    pub burst_loss: Option<BurstLossSpec>,
    /// Arrival jitter spikes.
    pub jitter: Option<JitterSpec>,
    /// Decode-time overruns.
    pub overrun: Option<OverrunSpec>,
    /// Failed/retried frequency–voltage switches.
    pub switch_fault: Option<SwitchFaultSpec>,
    /// Degenerate detector samples.
    pub degenerate_samples: Option<DegenerateSampleSpec>,
    /// Activity windows; empty means faults are active for the whole run.
    pub windows: Vec<FaultWindow>,
}

impl FaultSpec {
    /// `true` if no fault model is configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.burst_loss.is_none()
            && self.jitter.is_none()
            && self.overrun.is_none()
            && self.switch_fault.is_none()
            && self.degenerate_samples.is_none()
    }

    /// Draws a randomized-but-reproducible spec for chaos sweeps: each
    /// model is enabled with probability ½ with parameters drawn from
    /// ranges wide enough to stress the stack but bounded so runs
    /// terminate.
    #[must_use]
    pub fn randomized(rng: &mut SimRng) -> FaultSpec {
        let coin = |rng: &mut SimRng| rng.next_f64() < 0.5;
        let burst_loss = coin(rng).then(|| BurstLossSpec {
            enter_prob: 0.01 + rng.next_f64() * 0.1,
            exit_prob: 0.05 + rng.next_f64() * 0.3,
            drop_prob: 0.2 + rng.next_f64() * 0.8,
        });
        let jitter = coin(rng).then(|| JitterSpec {
            prob: rng.next_f64() * 0.2,
            max_secs: rng.next_f64() * 0.2,
        });
        let overrun = coin(rng).then(|| OverrunSpec {
            prob: rng.next_f64() * 0.2,
            max_factor: 1.0 + rng.next_f64() * 4.0,
        });
        let switch_fault = coin(rng).then(|| SwitchFaultSpec {
            fail_prob: rng.next_f64() * 0.8,
            max_retries: 1 + (rng.next_u64() % 5) as u32,
        });
        let degenerate_samples = coin(rng).then(|| DegenerateSampleSpec {
            prob: rng.next_f64() * 0.1,
        });
        // Half the plans run faults over a window in the first 200 s, the
        // other half over the whole run.
        let windows = if coin(rng) {
            let start = rng.next_f64() * 100.0;
            vec![FaultWindow {
                start_s: start,
                end_s: start + 10.0 + rng.next_f64() * 90.0,
            }]
        } else {
            Vec::new()
        };
        FaultSpec {
            burst_loss,
            jitter,
            overrun,
            switch_fault,
            degenerate_samples,
            windows,
        }
    }
}

/// Named fault-injection presets — the `--faults` axis of the CLI and
/// the per-device fault choice of a fleet spec. Each name maps to a
/// canonical [`FaultSpec`]; `random` draws a seed-determined plan so
/// `--faults random --seed N` stays reproducible.
///
/// The last three presets are *chaos* presets: they do not model a
/// physical fault regime but instead break the run itself, so the
/// fleet engine's failure containment (typed-error capture, panic
/// isolation, retry ladders) can be exercised deterministically:
///
/// * `poison` always yields an invalid spec, so plan validation fails
///   with a typed [`FaultError`] on every seed;
/// * `flaky:P` dooms roughly `P` percent of seeds the same way (a pure
///   function of the seed, so the same device fails on every rerun but
///   a retry under a forked seed gets a fresh roll);
/// * `panic` panics inside spec construction, modeling the
///   unannounced crash a supervisor must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPreset {
    /// No faults (the paper's clean runs).
    Off,
    /// WLAN-flavoured faults: burst loss + arrival jitter.
    Wlan,
    /// Decoder-flavoured faults: overruns, flaky switches, degenerate
    /// samples.
    Decoder,
    /// Everything at once.
    All,
    /// A randomized-but-reproducible plan drawn from the run seed.
    Random,
    /// Chaos: an always-invalid spec (typed validation error, any seed).
    Poison,
    /// Chaos: the invalid spec on roughly `percent`% of seeds, clean
    /// otherwise.
    Flaky {
        /// Failure probability in whole percent, clamped to 0–100.
        percent: u8,
    },
    /// Chaos: panics during spec construction.
    Panic,
}

impl FaultPreset {
    /// Parses a preset name:
    /// `off|wlan|decoder|all|random|poison|flaky:<pct>|panic`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the expected forms.
    pub fn parse(s: &str) -> Result<FaultPreset, String> {
        if let Some(pct) = s.strip_prefix("flaky:") {
            let percent: u8 =
                pct.parse().ok().filter(|p| *p <= 100).ok_or_else(|| {
                    format!("flaky preset needs a percent in 0..=100, got `{pct}`")
                })?;
            return Ok(FaultPreset::Flaky { percent });
        }
        match s {
            "off" => Ok(FaultPreset::Off),
            "wlan" => Ok(FaultPreset::Wlan),
            "decoder" => Ok(FaultPreset::Decoder),
            "all" => Ok(FaultPreset::All),
            "random" => Ok(FaultPreset::Random),
            "poison" => Ok(FaultPreset::Poison),
            "panic" => Ok(FaultPreset::Panic),
            other => Err(format!(
                "unknown fault preset `{other}` (expected off|wlan|decoder|all|random|poison|flaky:<pct>|panic)"
            )),
        }
    }

    /// The preset family name, for labels and report columns. The
    /// parameterized `flaky:<pct>` form is recovered by the [`fmt::Display`]
    /// impl; `name` collapses it to `flaky`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultPreset::Off => "off",
            FaultPreset::Wlan => "wlan",
            FaultPreset::Decoder => "decoder",
            FaultPreset::All => "all",
            FaultPreset::Random => "random",
            FaultPreset::Poison => "poison",
            FaultPreset::Flaky { .. } => "flaky",
            FaultPreset::Panic => "panic",
        }
    }

    /// The spec a doomed seed gets from `poison`/`flaky`: every
    /// probability is out of domain, so [`FaultPlan::new`] rejects it
    /// with a typed error before any simulation state is built.
    fn poison_spec() -> FaultSpec {
        FaultSpec {
            burst_loss: Some(BurstLossSpec {
                enter_prob: 2.0,
                exit_prob: -1.0,
                drop_prob: f64::NAN,
            }),
            ..FaultSpec::default()
        }
    }

    /// Builds the fault spec for this preset; `seed` feeds the `random`
    /// and `flaky` presets so the same `(preset, seed)` pair always
    /// yields the same plan. `Off` yields `None`.
    ///
    /// # Panics
    ///
    /// The `panic` chaos preset panics unconditionally — that is its
    /// entire job. Every other preset returns normally.
    #[must_use]
    pub fn spec(self, seed: u64) -> Option<FaultSpec> {
        match self {
            FaultPreset::Off => None,
            FaultPreset::Poison => Some(Self::poison_spec()),
            FaultPreset::Flaky { percent } => {
                let doomed = SimRng::seed_from(seed).fork("faults/flaky").next_f64()
                    < f64::from(percent.min(100)) / 100.0;
                doomed.then(Self::poison_spec)
            }
            FaultPreset::Panic => panic!("injected panic: chaos preset `panic` (seed {seed})"),
            FaultPreset::Wlan => Some(FaultSpec {
                burst_loss: Some(BurstLossSpec {
                    enter_prob: 0.05,
                    exit_prob: 0.2,
                    drop_prob: 0.7,
                }),
                jitter: Some(JitterSpec {
                    prob: 0.1,
                    max_secs: 0.1,
                }),
                ..FaultSpec::default()
            }),
            FaultPreset::Decoder => Some(FaultSpec {
                overrun: Some(OverrunSpec {
                    prob: 0.2,
                    max_factor: 3.0,
                }),
                switch_fault: Some(SwitchFaultSpec {
                    fail_prob: 0.3,
                    max_retries: 2,
                }),
                degenerate_samples: Some(DegenerateSampleSpec { prob: 0.05 }),
                ..FaultSpec::default()
            }),
            FaultPreset::All => {
                let wlan = FaultPreset::Wlan.spec(seed).expect("wlan preset");
                let decoder = FaultPreset::Decoder.spec(seed).expect("decoder preset");
                Some(FaultSpec {
                    burst_loss: wlan.burst_loss,
                    jitter: wlan.jitter,
                    ..decoder
                })
            }
            FaultPreset::Random => {
                let mut rng = SimRng::seed_from(seed).fork("chaos-spec");
                Some(FaultSpec::randomized(&mut rng))
            }
        }
    }
}

impl fmt::Display for FaultPreset {
    /// Formats back to the parseable form, including the `flaky:<pct>`
    /// parameter, so `FaultPreset::parse(&p.to_string()) == Ok(p)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPreset::Flaky { percent } => write!(f, "flaky:{percent}"),
            other => f.write_str(other.name()),
        }
    }
}

/// A validated fault configuration, ready to spawn [`FaultInjector`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    spec: FaultSpec,
}

impl FaultPlan {
    /// Validates `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParameter`] for any probability
    /// outside `[0, 1]` (including NaN), negative/non-finite magnitude,
    /// an overrun factor below 1, or a window with `end_s <= start_s`
    /// (inverted *or* zero-length: `[s, s)` is empty, so such a window
    /// can only be a configuration mistake — it would silently disable
    /// the burst it was meant to schedule).
    pub fn new(spec: FaultSpec) -> Result<FaultPlan, FaultError> {
        if let Some(b) = &spec.burst_loss {
            check_prob("burst_loss.enter_prob", b.enter_prob)?;
            check_prob("burst_loss.exit_prob", b.exit_prob)?;
            check_prob("burst_loss.drop_prob", b.drop_prob)?;
        }
        if let Some(j) = &spec.jitter {
            check_prob("jitter.prob", j.prob)?;
            check_non_negative("jitter.max_secs", j.max_secs)?;
        }
        if let Some(o) = &spec.overrun {
            check_prob("overrun.prob", o.prob)?;
            if !(o.max_factor.is_finite() && o.max_factor >= 1.0) {
                return Err(FaultError::InvalidParameter {
                    name: "overrun.max_factor",
                    value: o.max_factor,
                    expected: "a finite factor >= 1",
                });
            }
        }
        if let Some(s) = &spec.switch_fault {
            check_prob("switch_fault.fail_prob", s.fail_prob)?;
        }
        if let Some(d) = &spec.degenerate_samples {
            check_prob("degenerate_samples.prob", d.prob)?;
        }
        for w in &spec.windows {
            check_non_negative("window.start_s", w.start_s)?;
            check_non_negative("window.end_s", w.end_s)?;
            if w.end_s <= w.start_s {
                return Err(FaultError::InvalidParameter {
                    name: "window.end_s",
                    value: w.end_s,
                    expected:
                        "end_s > start_s (the half-open window [start_s, end_s) must be non-empty)",
                });
            }
        }
        Ok(FaultPlan { spec })
    }

    /// The validated spec.
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Builds an injector whose randomness is forked from `rng` by model
    /// label, so each fault model has an independent reproducible stream.
    #[must_use]
    pub fn injector(&self, rng: &SimRng) -> FaultInjector {
        FaultInjector {
            spec: self.spec.clone(),
            loss_rng: rng.fork("faults/burst-loss"),
            jitter_rng: rng.fork("faults/jitter"),
            overrun_rng: rng.fork("faults/overrun"),
            switch_rng: rng.fork("faults/switch"),
            sample_rng: rng.fork("faults/samples"),
            in_burst: false,
            counters: FaultCounters::default(),
        }
    }
}

/// Counts of faults actually injected by a [`FaultInjector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Arrivals dropped by burst loss.
    pub arrivals_dropped: u64,
    /// Arrivals delayed by a jitter spike.
    pub jitter_spikes: u64,
    /// Decode jobs inflated by an overrun.
    pub overruns: u64,
    /// Switch attempts that failed and were retried.
    pub switch_retries: u64,
    /// Switches abandoned after the retry budget.
    pub switch_failures: u64,
    /// Detector samples corrupted.
    pub samples_corrupted: u64,
}

/// The outcome of one (possibly faulty) frequency–voltage switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchOutcome {
    /// Retry attempts that failed before the outcome was decided.
    pub retries: u32,
    /// `true` if the switch was abandoned (the CPU keeps its old
    /// operating point).
    pub abandoned: bool,
    /// Total transition latency consumed, including backoff: the caller
    /// stalls the decoder for this long whether or not the switch landed.
    pub latency: SimDuration,
}

/// Executes a [`FaultPlan`] against forked RNG streams, answering the
/// simulator's per-event queries and counting what it injected.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: FaultSpec,
    loss_rng: SimRng,
    jitter_rng: SimRng,
    overrun_rng: SimRng,
    switch_rng: SimRng,
    sample_rng: SimRng,
    in_burst: bool,
    counters: FaultCounters,
}

impl FaultInjector {
    /// An injector that never injects anything (empty spec).
    #[must_use]
    pub fn disabled(rng: &SimRng) -> FaultInjector {
        FaultPlan::new(FaultSpec::default())
            .expect("empty spec is valid")
            .injector(rng)
    }

    /// `true` if faults are active at `t` (inside a window, or no windows
    /// are configured).
    #[must_use]
    pub fn active(&self, t: SimTime) -> bool {
        self.spec.windows.is_empty() || self.spec.windows.iter().any(|w| w.contains(t))
    }

    /// Counters of everything injected so far.
    #[must_use]
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Asks the WLAN channel whether the arrival at `t` is lost.
    ///
    /// The Gilbert–Elliott state advances on every arrival while active,
    /// so loss comes in bursts rather than independent coin flips.
    pub fn arrival_dropped(&mut self, t: SimTime) -> bool {
        let Some(b) = self.spec.burst_loss else {
            return false;
        };
        if !self.active(t) {
            self.in_burst = false;
            return false;
        }
        if self.in_burst {
            if self.loss_rng.next_f64() < b.exit_prob {
                self.in_burst = false;
            }
        } else if self.loss_rng.next_f64() < b.enter_prob {
            self.in_burst = true;
        }
        let dropped = self.in_burst && self.loss_rng.next_f64() < b.drop_prob;
        if dropped {
            self.counters.arrivals_dropped += 1;
        }
        dropped
    }

    /// Extra delivery delay for the arrival at `t`
    /// ([`SimDuration::ZERO`] when no spike fires).
    pub fn arrival_jitter(&mut self, t: SimTime) -> SimDuration {
        let Some(j) = self.spec.jitter else {
            return SimDuration::ZERO;
        };
        if !self.active(t) || self.jitter_rng.next_f64() >= j.prob {
            return SimDuration::ZERO;
        }
        self.counters.jitter_spikes += 1;
        SimDuration::from_secs_f64(self.jitter_rng.next_f64() * j.max_secs)
    }

    /// Work-inflation factor (≥ 1) for the decode starting at `t`;
    /// `1.0` when no overrun fires.
    pub fn decode_overrun_factor(&mut self, t: SimTime) -> f64 {
        let Some(o) = self.spec.overrun else {
            return 1.0;
        };
        if !self.active(t) || self.overrun_rng.next_f64() >= o.prob {
            return 1.0;
        }
        self.counters.overruns += 1;
        1.0 + self.overrun_rng.next_f64() * (o.max_factor - 1.0)
    }

    /// Resolves one frequency–voltage switch attempt at `t` with nominal
    /// transition cost `transition`.
    ///
    /// Without a switch-fault model (or outside a window) this returns a
    /// clean switch costing exactly `transition`. With one, each failed
    /// attempt consumes the transition cost again, doubled per retry
    /// (capped exponential backoff); after
    /// [`max_retries`](SwitchFaultSpec::max_retries) failures the switch
    /// is abandoned.
    pub fn switch_attempt(&mut self, t: SimTime, transition: SimDuration) -> SwitchOutcome {
        let Some(s) = self.spec.switch_fault else {
            return SwitchOutcome {
                retries: 0,
                abandoned: false,
                latency: transition,
            };
        };
        if !self.active(t) {
            return SwitchOutcome {
                retries: 0,
                abandoned: false,
                latency: transition,
            };
        }
        let mut latency = SimDuration::ZERO;
        let mut backoff = transition;
        for attempt in 0..=s.max_retries {
            latency = latency.saturating_add(backoff);
            if self.switch_rng.next_f64() >= s.fail_prob {
                return SwitchOutcome {
                    retries: attempt,
                    abandoned: false,
                    latency,
                };
            }
            if attempt < s.max_retries {
                self.counters.switch_retries += 1;
            }
            // Cap the exponential backoff at 8× the transition cost so an
            // unlucky streak cannot stall the decoder unboundedly.
            backoff = (backoff * 2).min(transition * 8);
        }
        self.counters.switch_failures += 1;
        SwitchOutcome {
            retries: s.max_retries,
            abandoned: true,
            latency,
        }
    }

    /// Possibly corrupts the interarrival `sample` observed at `t` into a
    /// degenerate value (`0.0` or NaN). The caller feeds the result to the
    /// governor, whose estimator must reject it.
    pub fn corrupt_sample(&mut self, t: SimTime, sample: f64) -> f64 {
        let Some(d) = self.spec.degenerate_samples else {
            return sample;
        };
        if !self.active(t) || self.sample_rng.next_f64() >= d.prob {
            return sample;
        }
        self.counters.samples_corrupted += 1;
        if self.sample_rng.next_f64() < 0.5 {
            0.0
        } else {
            f64::NAN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn always_window() -> Vec<FaultWindow> {
        Vec::new()
    }

    #[test]
    fn default_spec_is_empty_and_injects_nothing() {
        let spec = FaultSpec::default();
        assert!(spec.is_empty());
        let plan = FaultPlan::new(spec).unwrap();
        let mut inj = plan.injector(&SimRng::seed_from(1));
        let t = SimTime::from_secs_f64(1.0);
        assert!(!inj.arrival_dropped(t));
        assert_eq!(inj.arrival_jitter(t), SimDuration::ZERO);
        assert_eq!(inj.decode_overrun_factor(t), 1.0);
        let s = inj.switch_attempt(t, SimDuration::from_micros(150));
        assert_eq!(s.retries, 0);
        assert!(!s.abandoned);
        assert_eq!(s.latency, SimDuration::from_micros(150));
        assert_eq!(inj.corrupt_sample(t, 0.04), 0.04);
        assert_eq!(inj.counters(), FaultCounters::default());
    }

    #[test]
    fn plan_rejects_bad_parameters() {
        for spec in [
            FaultSpec {
                burst_loss: Some(BurstLossSpec {
                    enter_prob: 1.5,
                    exit_prob: 0.5,
                    drop_prob: 0.5,
                }),
                ..FaultSpec::default()
            },
            FaultSpec {
                jitter: Some(JitterSpec {
                    prob: 0.1,
                    max_secs: f64::NAN,
                }),
                ..FaultSpec::default()
            },
            FaultSpec {
                overrun: Some(OverrunSpec {
                    prob: 0.1,
                    max_factor: 0.5,
                }),
                ..FaultSpec::default()
            },
            FaultSpec {
                switch_fault: Some(SwitchFaultSpec {
                    fail_prob: -0.1,
                    max_retries: 3,
                }),
                ..FaultSpec::default()
            },
            FaultSpec {
                windows: vec![FaultWindow {
                    start_s: 5.0,
                    end_s: 1.0,
                }],
                ..FaultSpec::default()
            },
        ] {
            assert!(FaultPlan::new(spec).is_err());
        }
    }

    #[test]
    fn burst_loss_drops_in_bursts() {
        let plan = FaultPlan::new(FaultSpec {
            burst_loss: Some(BurstLossSpec {
                enter_prob: 0.2,
                exit_prob: 0.2,
                drop_prob: 1.0,
            }),
            windows: always_window(),
            ..FaultSpec::default()
        })
        .unwrap();
        let mut inj = plan.injector(&SimRng::seed_from(3));
        let mut drops = 0u64;
        for i in 0..10_000 {
            if inj.arrival_dropped(SimTime::from_secs_f64(i as f64 * 0.04)) {
                drops += 1;
            }
        }
        // Stationary burst occupancy ≈ enter/(enter+exit) = 0.5.
        assert!(drops > 2_000 && drops < 8_000, "drops = {drops}");
        assert_eq!(inj.counters().arrivals_dropped, drops);
    }

    #[test]
    fn windows_gate_injection() {
        let plan = FaultPlan::new(FaultSpec {
            jitter: Some(JitterSpec {
                prob: 1.0,
                max_secs: 0.1,
            }),
            windows: vec![FaultWindow {
                start_s: 10.0,
                end_s: 20.0,
            }],
            ..FaultSpec::default()
        })
        .unwrap();
        let mut inj = plan.injector(&SimRng::seed_from(4));
        assert_eq!(
            inj.arrival_jitter(SimTime::from_secs_f64(5.0)),
            SimDuration::ZERO
        );
        assert!(inj.arrival_jitter(SimTime::from_secs_f64(15.0)) > SimDuration::ZERO);
        assert_eq!(
            inj.arrival_jitter(SimTime::from_secs_f64(25.0)),
            SimDuration::ZERO
        );
        assert_eq!(inj.counters().jitter_spikes, 1);
    }

    #[test]
    fn overrun_factor_is_bounded() {
        let plan = FaultPlan::new(FaultSpec {
            overrun: Some(OverrunSpec {
                prob: 1.0,
                max_factor: 3.0,
            }),
            ..FaultSpec::default()
        })
        .unwrap();
        let mut inj = plan.injector(&SimRng::seed_from(5));
        for i in 0..1000 {
            let f = inj.decode_overrun_factor(SimTime::from_secs_f64(i as f64));
            assert!((1.0..=3.0).contains(&f), "factor {f}");
        }
        assert_eq!(inj.counters().overruns, 1000);
    }

    #[test]
    fn switch_always_fails_is_abandoned_with_capped_backoff() {
        let plan = FaultPlan::new(FaultSpec {
            switch_fault: Some(SwitchFaultSpec {
                fail_prob: 1.0,
                max_retries: 3,
            }),
            ..FaultSpec::default()
        })
        .unwrap();
        let mut inj = plan.injector(&SimRng::seed_from(6));
        let t = SimDuration::from_micros(150);
        let out = inj.switch_attempt(SimTime::ZERO, t);
        assert!(out.abandoned);
        assert_eq!(out.retries, 3);
        // 150 + 300 + 600 + 1200 µs: doubling, under the 8× cap.
        assert_eq!(
            out.latency,
            SimDuration::from_micros(150 + 300 + 600 + 1200)
        );
        assert_eq!(inj.counters().switch_retries, 3);
        assert_eq!(inj.counters().switch_failures, 1);
    }

    #[test]
    fn switch_never_fails_is_clean() {
        let plan = FaultPlan::new(FaultSpec {
            switch_fault: Some(SwitchFaultSpec {
                fail_prob: 0.0,
                max_retries: 3,
            }),
            ..FaultSpec::default()
        })
        .unwrap();
        let mut inj = plan.injector(&SimRng::seed_from(7));
        let out = inj.switch_attempt(SimTime::ZERO, SimDuration::from_micros(150));
        assert!(!out.abandoned);
        assert_eq!(out.retries, 0);
        assert_eq!(out.latency, SimDuration::from_micros(150));
    }

    #[test]
    fn corrupt_sample_produces_degenerate_values() {
        let plan = FaultPlan::new(FaultSpec {
            degenerate_samples: Some(DegenerateSampleSpec { prob: 1.0 }),
            ..FaultSpec::default()
        })
        .unwrap();
        let mut inj = plan.injector(&SimRng::seed_from(8));
        let mut zeros = 0;
        let mut nans = 0;
        for i in 0..100 {
            let s = inj.corrupt_sample(SimTime::from_secs_f64(i as f64), 0.04);
            if s == 0.0 {
                zeros += 1;
            } else if s.is_nan() {
                nans += 1;
            } else {
                panic!("sample {s} not degenerate");
            }
        }
        assert!(zeros > 0 && nans > 0);
        assert_eq!(inj.counters().samples_corrupted, 100);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let mut seed_rng = SimRng::seed_from(99);
        let spec = FaultSpec::randomized(&mut seed_rng);
        let plan = FaultPlan::new(spec).expect("randomized specs are valid");
        let run = |plan: &FaultPlan| {
            let mut inj = plan.injector(&SimRng::seed_from(42));
            let mut log = Vec::new();
            for i in 0..500 {
                let t = SimTime::from_secs_f64(i as f64 * 0.04);
                log.push((
                    inj.arrival_dropped(t),
                    inj.arrival_jitter(t).as_nanos(),
                    inj.decode_overrun_factor(t).to_bits(),
                ));
            }
            (log, inj.counters())
        };
        assert_eq!(run(&plan), run(&plan));
    }

    #[test]
    fn randomized_specs_always_validate() {
        let mut rng = SimRng::seed_from(1234);
        for _ in 0..200 {
            let spec = FaultSpec::randomized(&mut rng);
            assert!(FaultPlan::new(spec).is_ok());
        }
    }
}
