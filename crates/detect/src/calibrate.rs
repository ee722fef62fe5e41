//! Offline threshold characterization (paper Section 3.1).
//!
//! "Off-line characterization is done using stochastic simulation of a set
//! of possible rates to obtain the value of ln P_max that is sufficient to
//! detect the change in rate. The results are accumulated in a histogram,
//! and then the value of maximum likelihood ratio that gives very high
//! probability that the rate has changed is chosen for every pair of rates
//! under consideration. In our work we selected 99.5 % likelihood."
//!
//! Thanks to the scale invariance documented at the crate root, the
//! statistic's null distribution depends only on the candidate-to-current
//! rate **ratio** `r = λn/λo`, so we characterize once per ratio with
//! standard-exponential windows. This is an exact reformulation of the
//! per-pair histograms (any pair with the same ratio has the identical
//! distribution), with the practical benefit that the online detector can
//! track arbitrary absolute rates without re-calibration.
//!
//! # Parallel execution and RNG partitioning
//!
//! Each Monte-Carlo cell `(ratio i, trial t)` draws from its own RNG
//! stream, forked as `seed → ("calibration-ratio", i) →
//! ("calibration-trial", t)` — a pure function of the root seed and the
//! cell's indices, never of execution order. The cells therefore run on
//! the deterministic parallel engine ([`simcore::par`]) with results
//! **bit-identical at any thread count**, including the inline
//! sequential path of `--jobs 1`.
//!
//! Calibration is also the dominant startup cost of every change-point
//! detector, so identically configured detectors share one table through
//! the process-wide [`crate::cache`] instead of recomputing it.

use crate::likelihood::{maximize_kernel, RatioKernel};
use crate::window::ScratchWindow;
use crate::DetectError;
use simcore::dist::{Exponential, Sample};
use simcore::par::{par_map_range, Jobs, ParSpan};
use simcore::rng::SimRng;
use simcore::stats::Histogram;
use std::cell::RefCell;

/// Static histogram range for the `ln P_max` null statistic: under H0 it
/// is usually ≤ a few tens, so `[-50, 200)` with 5000 bins gives
/// quantile resolution ~0.05. When samples escape this range the
/// calibration auto-widens rather than silently clamping the quantile.
const LN_P_RANGE: (f64, f64) = (-50.0, 200.0);
/// Bin count for the calibration histograms.
const LN_P_BINS: usize = 5000;

/// Relative tolerance for [`ThresholdTable::threshold`] lookups: rate
/// ratios recomputed online drift by float rounding, never by a part in
/// a million.
pub const RATIO_LOOKUP_RTOL: f64 = 1e-6;

/// Calibration parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// Sliding-window length `m` (paper: 100).
    pub window: usize,
    /// Change-index grid step `k` (paper: "checked every k points").
    pub k_step: usize,
    /// Detection confidence (paper: 0.995).
    pub confidence: f64,
    /// Monte-Carlo trials per ratio.
    pub trials: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            window: 100,
            k_step: 10,
            confidence: 0.995,
            trials: 2000,
        }
    }
}

impl CalibrationConfig {
    fn validate(&self) -> Result<(), DetectError> {
        if self.window < 2 * self.k_step || self.k_step == 0 {
            return Err(DetectError::InvalidParameter {
                name: "window/k_step",
                value: self.window as f64,
            });
        }
        if !(self.confidence.is_finite() && (0.5..1.0).contains(&self.confidence)) {
            return Err(DetectError::InvalidParameter {
                name: "confidence",
                value: self.confidence,
            });
        }
        if self.trials < 100 {
            return Err(DetectError::InvalidParameter {
                name: "trials",
                value: self.trials as f64,
            });
        }
        Ok(())
    }
}

/// Calibrated detection thresholds, one per candidate rate ratio.
///
/// # Example
///
/// ```
/// use detect::calibrate::{CalibrationConfig, ThresholdTable};
/// use simcore::rng::SimRng;
///
/// # fn main() -> Result<(), detect::DetectError> {
/// let config = CalibrationConfig { trials: 400, ..CalibrationConfig::default() };
/// let table = ThresholdTable::calibrate(&[0.5, 2.0], config, &mut SimRng::seed_from(0))?;
/// // A doubling of the rate needs a statistic above its 99.5% null quantile:
/// assert!(table.threshold(2.0)? > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdTable {
    config: CalibrationConfig,
    /// `(ratio, threshold)` pairs, sorted by ratio.
    entries: Vec<(f64, f64)>,
}

impl ThresholdTable {
    /// Runs the offline Monte-Carlo characterization for each ratio in
    /// `ratios` (each must be positive, finite and ≠ 1): simulates
    /// no-change windows of Exp(1) samples, accumulates the `ln P_max`
    /// statistic in a histogram, and stores its `confidence` quantile as
    /// the detection threshold.
    ///
    /// Trials run on the deterministic parallel engine at the
    /// process-default thread count; see [`Self::calibrate_jobs`] for an
    /// explicit count. The result depends only on `rng.seed()`.
    ///
    /// # Errors
    ///
    /// Returns an error if `ratios` is empty, contains an invalid ratio,
    /// the configuration is invalid, or a trial produces a non-finite
    /// statistic.
    pub fn calibrate(
        ratios: &[f64],
        config: CalibrationConfig,
        rng: &mut SimRng,
    ) -> Result<Self, DetectError> {
        Self::calibrate_jobs(ratios, config, rng, Jobs::Auto)
    }

    /// [`Self::calibrate`] with an explicit thread count. Results are
    /// bit-identical for every `jobs` value: each `(ratio, trial)` cell
    /// forks its own RNG stream from the root seed and the cell indices,
    /// so scheduling cannot perturb any sample.
    ///
    /// # Errors
    ///
    /// As for [`Self::calibrate`].
    pub fn calibrate_jobs(
        ratios: &[f64],
        config: CalibrationConfig,
        rng: &mut SimRng,
        jobs: Jobs,
    ) -> Result<Self, DetectError> {
        config.validate()?;
        if ratios.is_empty() {
            return Err(DetectError::Empty { name: "ratios" });
        }
        for &ratio in ratios {
            if !(ratio.is_finite() && ratio > 0.0 && (ratio - 1.0).abs() > 1e-9) {
                return Err(DetectError::InvalidParameter {
                    name: "ratio",
                    value: ratio,
                });
            }
        }
        let root = &*rng;
        let statistics = par_map_range(jobs, ratios.len() * config.trials, |cell| {
            let (i, t) = (cell / config.trials, cell % config.trials);
            let trial_rng = root
                .fork_indexed("calibration-ratio", i as u64)
                .fork_indexed("calibration-trial", t as u64);
            trial_statistic(ratios[i], config, trial_rng)
        });
        let mut entries = Vec::with_capacity(ratios.len());
        for (i, &ratio) in ratios.iter().enumerate() {
            let samples = &statistics[i * config.trials..(i + 1) * config.trials];
            let threshold =
                confidence_quantile(samples, config.confidence).map_err(|e| match e {
                    DetectError::NonFiniteStatistic { .. } => {
                        DetectError::NonFiniteStatistic { ratio }
                    }
                    other => other,
                })?;
            entries.push((ratio, threshold));
        }
        entries.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("ratios are finite"));
        Ok(ThresholdTable { config, entries })
    }

    /// [`Self::calibrate_jobs`] with span profiling: enables the
    /// parallel engine's worker profiling around the calibration and
    /// returns a [`CalibrationProfile`] — the recorded [`ParSpan`]s
    /// (per-worker wall time and item counts) — alongside the table.
    ///
    /// Profiling is a process-global switch; spans recorded by other
    /// concurrently profiled loops may appear in the result, and any
    /// un-collected spans pending beforehand are discarded. The
    /// calibration *result* is unaffected — identical to
    /// [`Self::calibrate_jobs`] bit for bit.
    ///
    /// # Errors
    ///
    /// As for [`Self::calibrate`].
    pub fn calibrate_profiled(
        ratios: &[f64],
        config: CalibrationConfig,
        rng: &mut SimRng,
        jobs: Jobs,
    ) -> Result<(Self, CalibrationProfile), DetectError> {
        let was_enabled = simcore::par::profiling_enabled();
        simcore::par::set_profiling(true);
        let _ = simcore::par::take_spans();
        let result = Self::calibrate_jobs(ratios, config, rng, jobs);
        let spans = simcore::par::take_spans();
        simcore::par::set_profiling(was_enabled);
        result.map(|table| (table, CalibrationProfile { spans }))
    }

    /// The calibration configuration this table was built with.
    #[must_use]
    pub fn config(&self) -> CalibrationConfig {
        self.config
    }

    /// The calibrated `(ratio, threshold)` entries, sorted by ratio.
    #[must_use]
    pub fn entries(&self) -> &[(f64, f64)] {
        &self.entries
    }

    /// The candidate ratios.
    #[must_use]
    pub fn ratios(&self) -> Vec<f64> {
        self.entries.iter().map(|&(r, _)| r).collect()
    }

    /// The detection threshold for a candidate ratio.
    ///
    /// Lookup is drift-tolerant: the nearest calibrated ratio within
    /// [`RATIO_LOOKUP_RTOL`] (relative) matches, so a ratio recomputed
    /// online with float rounding cannot abort a run.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::Uncalibrated`] if no calibrated ratio lies
    /// within tolerance, and [`DetectError::InvalidParameter`] for a
    /// non-finite ratio.
    pub fn threshold(&self, ratio: f64) -> Result<f64, DetectError> {
        if !ratio.is_finite() {
            return Err(DetectError::InvalidParameter {
                name: "ratio",
                value: ratio,
            });
        }
        let &(nearest, threshold) = self
            .entries
            .iter()
            .min_by(|a, b| {
                (a.0 - ratio)
                    .abs()
                    .partial_cmp(&(b.0 - ratio).abs())
                    .expect("ratios are finite")
            })
            .expect("calibrated tables are never empty");
        if (nearest - ratio).abs() <= RATIO_LOOKUP_RTOL * nearest.abs().max(ratio.abs()) {
            Ok(threshold)
        } else {
            Err(DetectError::Uncalibrated { ratio, nearest })
        }
    }
}

/// Profiling data collected by [`ThresholdTable::calibrate_profiled`].
#[derive(Debug, Clone)]
pub struct CalibrationProfile {
    /// Parallel-engine spans recorded while the calibration ran
    /// (per-worker wall time and item counts).
    pub spans: Vec<ParSpan>,
}

thread_local! {
    /// Per-thread trial arena: every worker (and the inline `jobs=1`
    /// path) reuses one window + staging buffer across all its trials.
    static TRIAL_SCRATCH: RefCell<ScratchWindow> = RefCell::new(ScratchWindow::new(1));
}

/// One Monte-Carlo cell: a no-change window of Exp(1) samples and its
/// maximized `ln P_max` statistic.
///
/// This is the calibration inner loop. After the first call on a thread
/// (or a `config.window` change) it performs **zero heap allocations**:
/// the window comes from a thread-local [`ScratchWindow`] arena, the
/// exponential draws, the batched `ln` kernel, and the window's
/// prefix-sum construction are fused into one pass
/// ([`crate::window::SampleWindow::refill_exponential`]) with unchanged
/// RNG consumption order, and the per-ratio `ln()` is hoisted into a
/// [`RatioKernel`]. The returned statistic is bit-identical to the
/// seed-era allocating kernel (retained as
/// [`reference_trial_statistic`]).
#[must_use]
pub fn trial_statistic(ratio: f64, config: CalibrationConfig, mut rng: SimRng) -> f64 {
    let unit = Exponential::new(1.0).expect("rate 1 is valid");
    let kernel = RatioKernel::new(1.0, ratio);
    TRIAL_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.ensure_capacity(config.window);
        let (window, _staged) = scratch.begin_trial();
        window.refill_exponential(&unit, &mut rng);
        maximize_kernel(window, &kernel, config.k_step).ln_p_max
    })
}

/// The seed-era Monte-Carlo trial, retained verbatim: allocates a fresh
/// deque-backed window per trial, draws samples one call at a time, and
/// re-evaluates `ln(λn/λo)` at every candidate change index.
///
/// Exists so `bench_hotpath` can measure the optimized
/// [`trial_statistic`] against the true pre-optimization kernel *in the
/// same run*, and so tests can assert the two are bit-identical. Not
/// used by production calibration.
#[must_use]
pub fn reference_trial_statistic(ratio: f64, config: CalibrationConfig, mut rng: SimRng) -> f64 {
    use crate::window::reference::VecDequeWindow;
    let unit = Exponential::new(1.0).expect("rate 1 is valid");
    let mut window = VecDequeWindow::new(config.window);
    for _ in 0..config.window {
        window.push(unit.sample(&mut rng));
    }
    // The original maximize loop, with the per-index ln() left in place.
    let (rate_old, rate_new) = (1.0, ratio);
    let m = window.len();
    let mut best = f64::NEG_INFINITY;
    let mut k = config.k_step;
    while k + config.k_step <= m {
        let tail_len = m - k;
        let tail_sum = window.suffix_sum(tail_len);
        let ln_p = tail_len as f64 * (rate_new / rate_old).ln() - (rate_new - rate_old) * tail_sum;
        if ln_p > best {
            best = ln_p;
        }
        k += config.k_step;
    }
    best
}

/// The `confidence` quantile of `ln P_max` samples via the paper's
/// histogram method.
///
/// The histogram starts on the static `[-50, 200)` range that fits the
/// null distribution. If samples escape it far enough that the requested
/// quantile falls in an under/overflow bucket — where the old behaviour
/// silently clamped the threshold to the range edge — the range is
/// auto-widened to cover the data and re-accumulated, so the returned
/// quantile is always estimated from real bins.
///
/// # Errors
///
/// Returns [`DetectError::Empty`] for an empty sample set and
/// [`DetectError::NonFiniteStatistic`] if any sample is NaN or infinite
/// (the caller attaches the offending ratio).
pub fn confidence_quantile(samples: &[f64], confidence: f64) -> Result<f64, DetectError> {
    if samples.is_empty() {
        return Err(DetectError::Empty { name: "samples" });
    }
    if samples.iter().any(|x| !x.is_finite()) {
        return Err(DetectError::NonFiniteStatistic { ratio: f64::NAN });
    }
    let (lo, hi) = LN_P_RANGE;
    let mut hist = Histogram::new(lo, hi, LN_P_BINS).expect("static bounds are valid");
    for &x in samples {
        hist.record(x);
    }
    if !hist.quantile_is_clamped(confidence) {
        return Ok(hist.quantile(confidence));
    }
    // Overflow (or underflow) contaminates the confidence quantile:
    // widen to the data range and re-accumulate.
    let (min, max) = samples.iter().fold((f64::INFINITY, f64::NEG_INFINITY), {
        |(lo, hi), &x| (lo.min(x), hi.max(x))
    });
    let margin = (max - min).max(1.0) * 1e-3;
    let mut hist = Histogram::new(min - margin, max + margin, LN_P_BINS)
        .expect("finite samples give finite bounds");
    for &x in samples {
        hist.record(x);
    }
    debug_assert!(!hist.quantile_is_clamped(confidence));
    Ok(hist.quantile(confidence))
}

/// The default candidate-ratio grid used by the experiments: geometric
/// steps covering 4× decreases through 4× increases, dense enough that
/// any realistic media rate step lands near a candidate.
#[must_use]
pub fn default_ratios() -> Vec<f64> {
    vec![0.25, 0.33, 0.5, 0.67, 0.8, 1.25, 1.5, 2.0, 3.0, 4.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::likelihood::maximize_ln_p;
    use crate::window::SampleWindow;

    fn quick_config() -> CalibrationConfig {
        CalibrationConfig {
            window: 50,
            k_step: 5,
            confidence: 0.99,
            trials: 400,
        }
    }

    #[test]
    fn thresholds_are_positive_and_finite() {
        let mut rng = SimRng::seed_from(1);
        let table = ThresholdTable::calibrate(&[0.5, 2.0, 4.0], quick_config(), &mut rng).unwrap();
        for &(r, t) in table.entries() {
            assert!(t.is_finite(), "ratio {r}");
            assert!(
                t > 0.0,
                "ratio {r}: threshold {t} should exceed the ln P ≈ 0 null mode"
            );
        }
    }

    #[test]
    fn profiled_calibration_matches_plain_and_yields_spans() {
        let config = quick_config();
        let plain = ThresholdTable::calibrate_jobs(
            &[0.5, 2.0],
            config,
            &mut SimRng::seed_from(11),
            Jobs::Count(2),
        )
        .unwrap();
        let (profiled, profile) = ThresholdTable::calibrate_profiled(
            &[0.5, 2.0],
            config,
            &mut SimRng::seed_from(11),
            Jobs::Count(2),
        )
        .unwrap();
        assert_eq!(plain, profiled, "profiling must not perturb the table");
        let span = profile
            .spans
            .iter()
            .find(|s| s.items == 2 * config.trials)
            .expect("the calibration loop was profiled");
        assert_eq!(
            span.workers.iter().map(|w| w.items).sum::<usize>(),
            span.items
        );
    }

    #[test]
    fn optimized_trial_matches_reference_trial_bitwise() {
        // The zero-allocation kernel must reproduce the seed-era
        // allocating kernel exactly, bit for bit, for every ratio.
        let config = quick_config();
        let root = SimRng::seed_from(0xBEEF);
        for (i, &ratio) in default_ratios().iter().enumerate() {
            let a = trial_statistic(ratio, config, root.fork_indexed("trial", i as u64));
            let b = reference_trial_statistic(ratio, config, root.fork_indexed("trial", i as u64));
            assert_eq!(a.to_bits(), b.to_bits(), "ratio {ratio}");
        }
        // And across window reconfiguration on the same thread (the
        // thread-local scratch must resize, not corrupt).
        let other = CalibrationConfig {
            window: 80,
            k_step: 8,
            ..config
        };
        let a = trial_statistic(2.0, other, root.fork_indexed("resize", 0));
        let b = reference_trial_statistic(2.0, other, root.fork_indexed("resize", 0));
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn false_positive_rate_matches_confidence() {
        // Generate fresh H0 windows and check the exceedance rate is near
        // 1 − confidence.
        let config = quick_config();
        let mut rng = SimRng::seed_from(2);
        let table = ThresholdTable::calibrate(&[2.0], config, &mut rng).unwrap();
        let thr = table.threshold(2.0).unwrap();
        let unit = Exponential::new(1.0).unwrap();
        let mut exceed = 0usize;
        let n = 2000;
        let mut w = SampleWindow::new(config.window);
        for _ in 0..n {
            w.clear();
            for _ in 0..config.window {
                w.push(unit.sample(&mut rng));
            }
            if maximize_ln_p(&w, 1.0, 2.0, config.k_step).ln_p_max > thr {
                exceed += 1;
            }
        }
        let rate = exceed as f64 / n as f64;
        assert!(
            rate < 0.03,
            "false positive rate {rate} should be ≈ 1% at 99% confidence"
        );
    }

    #[test]
    fn true_change_exceeds_threshold() {
        let config = quick_config();
        let mut rng = SimRng::seed_from(3);
        let table = ThresholdTable::calibrate(&[2.0], config, &mut rng).unwrap();
        let thr = table.threshold(2.0).unwrap();
        // Window whose second half really runs at double rate.
        let slow = Exponential::new(1.0).unwrap();
        let fast = Exponential::new(2.0).unwrap();
        let mut detected = 0usize;
        let n = 200;
        for trial in 0..n {
            let mut w = SampleWindow::new(config.window);
            let mut r = SimRng::seed_from(1000 + trial);
            for _ in 0..config.window / 2 {
                w.push(slow.sample(&mut r));
            }
            for _ in 0..config.window / 2 {
                w.push(fast.sample(&mut r));
            }
            if maximize_ln_p(&w, 1.0, 2.0, config.k_step).ln_p_max > thr {
                detected += 1;
            }
        }
        assert!(
            detected as f64 / n as f64 > 0.5,
            "detection power {detected}/{n} too low"
        );
    }

    #[test]
    fn scale_invariance_holds_empirically() {
        // The same windows scaled by 1/λ give identical statistics against
        // (λ, r·λ) — the core of the per-ratio calibration.
        let unit = Exponential::new(1.0).unwrap();
        let mut rng = SimRng::seed_from(4);
        let samples: Vec<f64> = (0..60).map(|_| unit.sample(&mut rng)).collect();
        let mut w1 = SampleWindow::new(60);
        let mut w2 = SampleWindow::new(60);
        let lambda = 37.0;
        for &x in &samples {
            w1.push(x);
            w2.push(x / lambda);
        }
        let a = maximize_ln_p(&w1, 1.0, 2.0, 5);
        let b = maximize_ln_p(&w2, lambda, 2.0 * lambda, 5);
        assert!((a.ln_p_max - b.ln_p_max).abs() < 1e-9);
        assert_eq!(a.change_index, b.change_index);
    }

    #[test]
    fn bigger_ratio_jumps_are_not_harder_to_clear() {
        // Thresholds exist for every calibrated ratio and lookups validate.
        let mut rng = SimRng::seed_from(5);
        let table = ThresholdTable::calibrate(&default_ratios(), quick_config(), &mut rng).unwrap();
        assert_eq!(table.ratios().len(), default_ratios().len());
        assert!(table.threshold(9.0).is_err());
    }

    #[test]
    fn calibration_validates_input() {
        let mut rng = SimRng::seed_from(6);
        assert!(ThresholdTable::calibrate(&[], quick_config(), &mut rng).is_err());
        assert!(ThresholdTable::calibrate(&[1.0], quick_config(), &mut rng).is_err());
        assert!(ThresholdTable::calibrate(&[-2.0], quick_config(), &mut rng).is_err());
        let bad = CalibrationConfig {
            window: 5,
            k_step: 5,
            ..quick_config()
        };
        assert!(ThresholdTable::calibrate(&[2.0], bad, &mut rng).is_err());
        let bad = CalibrationConfig {
            confidence: 1.5,
            ..quick_config()
        };
        assert!(ThresholdTable::calibrate(&[2.0], bad, &mut rng).is_err());
        let bad = CalibrationConfig {
            trials: 10,
            ..quick_config()
        };
        assert!(ThresholdTable::calibrate(&[2.0], bad, &mut rng).is_err());
    }

    #[test]
    fn calibration_is_deterministic_per_seed() {
        let a =
            ThresholdTable::calibrate(&[2.0], quick_config(), &mut SimRng::seed_from(7)).unwrap();
        let b =
            ThresholdTable::calibrate(&[2.0], quick_config(), &mut SimRng::seed_from(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn calibration_is_bit_identical_across_thread_counts() {
        let ratios = default_ratios();
        let sequential = ThresholdTable::calibrate_jobs(
            &ratios,
            quick_config(),
            &mut SimRng::seed_from(8),
            Jobs::Count(1),
        )
        .unwrap();
        for jobs in [2, 4, 8] {
            let parallel = ThresholdTable::calibrate_jobs(
                &ratios,
                quick_config(),
                &mut SimRng::seed_from(8),
                Jobs::Count(jobs),
            )
            .unwrap();
            assert_eq!(sequential, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn threshold_lookup_tolerates_float_drift() {
        let mut rng = SimRng::seed_from(9);
        let table = ThresholdTable::calibrate(&[0.5, 2.0], quick_config(), &mut rng).unwrap();
        let exact = table.threshold(2.0).unwrap();
        // A ratio recomputed through a different float expression drifts
        // by ULPs; lookup must still resolve to the same entry.
        let drifted = 2.0 * (1.0 + 2.0 * f64::EPSILON);
        assert_ne!(drifted.to_bits(), 2.0f64.to_bits());
        assert_eq!(table.threshold(drifted).unwrap(), exact);
        assert_eq!(table.threshold(2.0 - 1e-7).unwrap(), exact);
    }

    #[test]
    fn uncalibrated_ratio_is_a_distinct_error() {
        let mut rng = SimRng::seed_from(10);
        let table = ThresholdTable::calibrate(&[0.5, 2.0], quick_config(), &mut rng).unwrap();
        match table.threshold(9.0) {
            Err(DetectError::Uncalibrated { ratio, nearest }) => {
                assert_eq!(ratio, 9.0);
                assert_eq!(nearest, 2.0);
            }
            other => panic!("expected Uncalibrated, got {other:?}"),
        }
        // Halfway between entries is also genuinely uncalibrated, not a
        // drifted lookup.
        assert!(matches!(
            table.threshold(1.2),
            Err(DetectError::Uncalibrated { .. })
        ));
        assert!(table.threshold(f64::NAN).is_err());
    }

    #[test]
    fn confidence_quantile_auto_widens_on_overflow() {
        // 1% of the mass beyond the static upper edge: the old histogram
        // clamped the 99.5% quantile to 200 exactly. The widened pass
        // must recover the real tail value.
        let mut samples = vec![1.0; 980];
        samples.extend(std::iter::repeat_n(500.0, 20));
        let q = confidence_quantile(&samples, 0.995).unwrap();
        assert!(q > 400.0, "quantile {q} still clamped to the static range");
    }

    #[test]
    fn confidence_quantile_auto_widens_on_underflow() {
        let samples = vec![-300.0; 400];
        let q = confidence_quantile(&samples, 0.99).unwrap();
        assert!(
            (-301.0..=-299.0).contains(&q),
            "quantile {q} should sit at the data, not the -50 edge"
        );
    }

    #[test]
    fn confidence_quantile_is_unchanged_for_in_range_data() {
        // The auto-widen path must not disturb the normal case.
        let samples: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.1).collect();
        let q = confidence_quantile(&samples, 0.99).unwrap();
        assert!((98.9..=99.2).contains(&q), "{q}");
    }

    #[test]
    fn confidence_quantile_rejects_non_finite_statistics() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let samples = vec![1.0, 2.0, bad];
            assert!(matches!(
                confidence_quantile(&samples, 0.99),
                Err(DetectError::NonFiniteStatistic { .. })
            ));
        }
        assert!(confidence_quantile(&[], 0.99).is_err());
    }
}
