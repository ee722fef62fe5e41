//! Two-sided CUSUM detector (ablation comparator).
//!
//! The paper's change-point test descends from "cumulative sum techniques
//! in ATM traffic management" (ref \[17\]). A classical two-sided CUSUM is
//! the streaming cousin of the windowed maximum-likelihood test: it keeps
//! a pair of cumulative log-likelihood-ratio scores (one for "rate went
//! up", one for "rate went down") that reset at zero, and alarms when a
//! score crosses a threshold `h`. The `ablation_rate_grid` and
//! `ablation_window` benches use it to quantify what the windowed test
//! buys over the streaming test.
//!
//! For exponential samples with current rate `λo` and a design ratio
//! `r ≠ 1`, the per-sample score increment is
//!
//! ```text
//! z = ln r − (r − 1) · λo · x
//! ```
//!
//! (the same per-sample term as Eq. 4, in normalized units).

use crate::estimator::{RateChange, RateEstimator};
use crate::DetectError;

/// Two-sided CUSUM with MLE re-estimation after an alarm.
///
/// # Example
///
/// ```
/// use detect::cusum::CusumDetector;
/// use detect::estimator::RateEstimator;
///
/// # fn main() -> Result<(), detect::DetectError> {
/// let mut det = CusumDetector::new(10.0, 2.0, 8.0)?;
/// // Sudden fast gaps (rate 60) push the "up" score over the threshold.
/// let mut fired = false;
/// for _ in 0..200 {
///     if det.observe(1.0 / 60.0).is_some() {
///         fired = true;
///         break;
///     }
/// }
/// assert!(fired);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CusumDetector {
    rate: f64,
    /// Design ratio for the "rate increased" hypothesis (> 1); the
    /// "decreased" side uses `1/ratio`.
    ratio: f64,
    /// Alarm threshold `h` on the cumulative score.
    threshold: f64,
    score_up: f64,
    score_down: f64,
    /// Samples (count, sum) since each score last touched zero — the
    /// MLE window for re-estimation at alarm time.
    up_count: usize,
    up_sum: f64,
    down_count: usize,
    down_sum: f64,
}

impl CusumDetector {
    /// Creates a detector with initial rate, design ratio (> 1) and alarm
    /// threshold (> 0).
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive rates/thresholds or ratios ≤ 1.
    pub fn new(initial_rate: f64, ratio: f64, threshold: f64) -> Result<Self, DetectError> {
        if !(initial_rate.is_finite() && initial_rate > 0.0) {
            return Err(DetectError::InvalidParameter {
                name: "initial_rate",
                value: initial_rate,
            });
        }
        if !(ratio.is_finite() && ratio > 1.0) {
            return Err(DetectError::InvalidParameter {
                name: "ratio",
                value: ratio,
            });
        }
        if !(threshold.is_finite() && threshold > 0.0) {
            return Err(DetectError::InvalidParameter {
                name: "threshold",
                value: threshold,
            });
        }
        Ok(CusumDetector {
            rate: initial_rate,
            ratio,
            threshold,
            score_up: 0.0,
            score_down: 0.0,
            up_count: 0,
            up_sum: 0.0,
            down_count: 0,
            down_sum: 0.0,
        })
    }

    fn clear_scores(&mut self) {
        self.score_up = 0.0;
        self.score_down = 0.0;
        self.up_count = 0;
        self.up_sum = 0.0;
        self.down_count = 0;
        self.down_sum = 0.0;
    }

    fn alarm(&mut self, count: usize, sum: f64) -> Option<RateChange> {
        if count == 0 || sum <= 0.0 {
            return None;
        }
        let new_rate = count as f64 / sum;
        self.rate = new_rate;
        self.clear_scores();
        Some(RateChange {
            new_rate,
            samples_since_change: count,
        })
    }
}

impl RateEstimator for CusumDetector {
    fn observe(&mut self, sample: f64) -> Option<RateChange> {
        if !(sample.is_finite() && sample > 0.0) {
            return None;
        }
        let u = self.rate * sample; // normalized gap, Exp(1) under H0
        let r = self.ratio;
        let z_up = r.ln() - (r - 1.0) * u;
        let rd = 1.0 / r;
        let z_down = rd.ln() - (rd - 1.0) * u;

        self.score_up = (self.score_up + z_up).max(0.0);
        if self.score_up > 0.0 {
            self.up_count += 1;
            self.up_sum += sample;
        } else {
            self.up_count = 0;
            self.up_sum = 0.0;
        }
        self.score_down = (self.score_down + z_down).max(0.0);
        if self.score_down > 0.0 {
            self.down_count += 1;
            self.down_sum += sample;
        } else {
            self.down_count = 0;
            self.down_sum = 0.0;
        }

        if self.score_up > self.threshold {
            let (c, s) = (self.up_count, self.up_sum);
            return self.alarm(c, s);
        }
        if self.score_down > self.threshold {
            let (c, s) = (self.down_count, self.down_sum);
            return self.alarm(c, s);
        }
        None
    }

    fn current_rate(&self) -> f64 {
        self.rate
    }

    fn reset(&mut self, initial_rate: f64) {
        assert!(
            initial_rate.is_finite() && initial_rate > 0.0,
            "initial rate must be positive"
        );
        self.rate = initial_rate;
        self.clear_scores();
    }

    fn name(&self) -> &'static str {
        "cusum"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::{Exponential, Sample};
    use simcore::rng::SimRng;

    fn feed(det: &mut CusumDetector, rate: f64, n: usize, rng: &mut SimRng) -> usize {
        let dist = Exponential::new(rate).unwrap();
        let mut fired = 0;
        for _ in 0..n {
            if det.observe(dist.sample(rng)).is_some() {
                fired += 1;
            }
        }
        fired
    }

    #[test]
    fn quiet_under_stable_rate() {
        let mut det = CusumDetector::new(30.0, 2.0, 10.0).unwrap();
        let mut rng = SimRng::seed_from(1);
        let alarms = feed(&mut det, 30.0, 3000, &mut rng);
        assert!(alarms <= 3, "{alarms} false alarms");
    }

    #[test]
    fn detects_rate_increase() {
        let mut det = CusumDetector::new(10.0, 2.0, 8.0).unwrap();
        let mut rng = SimRng::seed_from(2);
        feed(&mut det, 10.0, 300, &mut rng);
        let alarms = feed(&mut det, 60.0, 100, &mut rng);
        assert!(alarms >= 1);
        assert!(
            (det.current_rate() - 60.0).abs() / 60.0 < 0.5,
            "rate {}",
            det.current_rate()
        );
    }

    #[test]
    fn detects_rate_decrease() {
        let mut det = CusumDetector::new(60.0, 2.0, 8.0).unwrap();
        let mut rng = SimRng::seed_from(3);
        feed(&mut det, 60.0, 300, &mut rng);
        let alarms = feed(&mut det, 10.0, 200, &mut rng);
        assert!(alarms >= 1);
        assert!((det.current_rate() - 10.0).abs() / 10.0 < 0.5);
    }

    #[test]
    fn higher_threshold_is_slower() {
        let dist = Exponential::new(60.0).unwrap();
        let delay_until_alarm = |h: f64| {
            let mut det = CusumDetector::new(10.0, 2.0, h).unwrap();
            let mut rng = SimRng::seed_from(4);
            for i in 0..10_000 {
                if det.observe(dist.sample(&mut rng)).is_some() {
                    return i;
                }
            }
            usize::MAX
        };
        assert!(delay_until_alarm(4.0) <= delay_until_alarm(20.0));
    }

    #[test]
    fn validates_parameters() {
        assert!(CusumDetector::new(0.0, 2.0, 8.0).is_err());
        assert!(CusumDetector::new(10.0, 1.0, 8.0).is_err());
        assert!(CusumDetector::new(10.0, 0.5, 8.0).is_err());
        assert!(CusumDetector::new(10.0, 2.0, 0.0).is_err());
    }

    #[test]
    fn reset_clears_scores() {
        let mut det = CusumDetector::new(10.0, 2.0, 8.0).unwrap();
        let mut rng = SimRng::seed_from(5);
        feed(&mut det, 60.0, 50, &mut rng);
        det.reset(15.0);
        assert_eq!(det.current_rate(), 15.0);
        // After reset, stable feeding at the new rate stays quiet.
        let alarms = feed(&mut det, 15.0, 500, &mut rng);
        assert!(alarms <= 1);
    }
}
