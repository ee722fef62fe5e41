//! The maximum-likelihood ratio statistic (paper Eq. 3/4).
//!
//! For a window of `m` samples, a hypothesized old rate `λo` and a
//! candidate new rate `λn`, the log likelihood ratio of "rate changed at
//! index k" against "no change" is
//!
//! ```text
//! ln P(k) = (m − k) ln(λn/λo) − (λn − λo) · Σ_{j=k+1..m} xⱼ
//! ```
//!
//! and the statistic is the maximum over the checked change indices.
//! Evaluating it only needs suffix sums of the window — "only the sum of
//! interarrival times needs to be updated upon every arrival".
//!
//! # Hoisted constants
//!
//! `ln(λn/λo)` and `(λn − λo)` depend only on the rate pair, never on
//! `k`, so [`RatioKernel`] precomputes them once per pair instead of
//! paying an `ln()` per candidate change index (~`window / k_step`
//! redundant calls per evaluation in both the Monte-Carlo calibration
//! and the online detector). Because the loop previously recomputed the
//! *same* `f64` value each iteration, hoisting is bit-identical — every
//! `ln P(k)` is produced by the exact float expression it always was.

use crate::window::SampleWindow;

/// The best change hypothesis for one candidate rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestChange {
    /// Maximized `ln P_max` value.
    pub ln_p_max: f64,
    /// The maximizing change index `k`: the change is hypothesized to
    /// occur after the `k`-th oldest sample in the window.
    pub change_index: usize,
    /// Number of window samples after the change (`m − k`).
    pub tail_len: usize,
}

/// Precomputed per-rate-pair constants of the `ln P(k)` formula.
///
/// Both terms of the statistic that don't vary with the change index —
/// `ln(λn/λo)` and `(λn − λo)` — are evaluated once at construction, so
/// scanning a whole window costs one multiply-subtract per candidate
/// index. Calibration builds one kernel per ratio; the online detector
/// rebuilds its kernels only when the baseline rate changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioKernel {
    rate_old: f64,
    rate_new: f64,
    /// `ln(rate_new / rate_old)`, computed exactly as the unhoisted
    /// formula did.
    ln_ratio: f64,
    /// `rate_new - rate_old`.
    rate_diff: f64,
}

impl RatioKernel {
    /// Builds the kernel for a `(λo, λn)` rate pair.
    ///
    /// # Panics
    ///
    /// Panics if either rate is non-positive or non-finite.
    #[inline]
    #[must_use]
    pub fn new(rate_old: f64, rate_new: f64) -> Self {
        assert!(
            rate_old > 0.0 && rate_new > 0.0 && rate_old.is_finite() && rate_new.is_finite(),
            "rates must be positive ({rate_old}, {rate_new})"
        );
        RatioKernel {
            rate_old,
            rate_new,
            ln_ratio: (rate_new / rate_old).ln(),
            rate_diff: rate_new - rate_old,
        }
    }

    /// The hypothesized pre-change rate `λo`.
    #[inline]
    #[must_use]
    pub fn rate_old(&self) -> f64 {
        self.rate_old
    }

    /// The candidate post-change rate `λn`.
    #[inline]
    #[must_use]
    pub fn rate_new(&self) -> f64 {
        self.rate_new
    }

    /// `ln(λn/λo)`, the per-sample term of [`Self::ln_p`].
    #[inline]
    pub(crate) fn ln_ratio(&self) -> f64 {
        self.ln_ratio
    }

    /// `λn − λo`, the per-second term of [`Self::ln_p`].
    #[inline]
    pub(crate) fn rate_diff(&self) -> f64 {
        self.rate_diff
    }

    /// Evaluates `ln P(k)` for a tail of `tail_len` samples summing to
    /// `tail_sum`.
    #[inline]
    #[must_use]
    pub fn ln_p(&self, tail_len: usize, tail_sum: f64) -> f64 {
        tail_len as f64 * self.ln_ratio - self.rate_diff * tail_sum
    }
}

/// Evaluates `ln P(k)` for a single change index.
///
/// `tail_sum` must be the sum of the last `tail_len` samples. This is a
/// convenience wrapper that builds a throwaway [`RatioKernel`]; loops
/// evaluating many indices against one rate pair should construct the
/// kernel once instead.
///
/// # Panics
///
/// Panics if either rate is non-positive or non-finite.
#[inline]
#[must_use]
pub fn ln_p_at(rate_old: f64, rate_new: f64, tail_len: usize, tail_sum: f64) -> f64 {
    RatioKernel::new(rate_old, rate_new).ln_p(tail_len, tail_sum)
}

/// Maximizes `ln P(k)` over change indices `k ∈ {k_step, 2·k_step, …}`
/// (leaving at least `k_step` samples on each side), for one candidate
/// rate.
///
/// Checking only every `k_step`-th index is the paper's k-interval
/// trade-off: "larger values of k interval mean that the changed rate
/// will be detected later, while with very small values the detection is
/// quicker, but also causes extra computation".
///
/// # Panics
///
/// Panics if the window holds fewer than `2·k_step` samples, if
/// `k_step == 0`, or if either rate is non-positive.
#[must_use]
pub fn maximize_ln_p(
    window: &SampleWindow,
    rate_old: f64,
    rate_new: f64,
    k_step: usize,
) -> BestChange {
    maximize_kernel(window, &RatioKernel::new(rate_old, rate_new), k_step)
}

/// [`maximize_ln_p`] against a prebuilt [`RatioKernel`] — the inner-loop
/// entry point for callers that scan many windows (or many rate pairs)
/// and have already paid the kernel's `ln()` once.
///
/// # Panics
///
/// Panics if the window holds fewer than `2·k_step` samples or if
/// `k_step == 0`.
#[must_use]
pub fn maximize_kernel(window: &SampleWindow, kernel: &RatioKernel, k_step: usize) -> BestChange {
    assert!(k_step > 0, "k_step must be positive");
    let m = window.len();
    assert!(m >= 2 * k_step, "window too short: {m} < 2·{k_step}");
    let mut best = BestChange {
        ln_p_max: f64::NEG_INFINITY,
        change_index: 0,
        tail_len: 0,
    };
    let mut k = k_step;
    while k + k_step <= m {
        let tail_len = m - k;
        let tail_sum = window.suffix_sum(tail_len);
        let ln_p = kernel.ln_p(tail_len, tail_sum);
        if ln_p > best.ln_p_max {
            best = BestChange {
                ln_p_max: ln_p,
                change_index: k,
                tail_len,
            };
        }
        k += k_step;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::{Exponential, Sample};
    use simcore::rng::SimRng;

    fn window_from(samples: &[f64]) -> SampleWindow {
        let mut w = SampleWindow::new(samples.len());
        for &x in samples {
            w.push(x);
        }
        w
    }

    #[test]
    fn ln_p_zero_when_rates_equal() {
        assert_eq!(ln_p_at(10.0, 10.0, 50, 5.0), 0.0);
    }

    #[test]
    fn ln_p_matches_manual_formula() {
        let v = ln_p_at(10.0, 60.0, 20, 0.4);
        let expected = 20.0 * (6.0_f64).ln() - 50.0 * 0.4;
        assert!((v - expected).abs() < 1e-12);
    }

    #[test]
    fn kernel_matches_unhoisted_expression_bitwise() {
        // The hoisting contract: for any rate pair and tail, the kernel
        // reproduces `(m−k)·ln(λn/λo) − (λn−λo)·Σ` to the last bit.
        for (ro, rn) in [(10.0, 60.0), (60.0, 10.0), (3.7, 4.9), (1.0, 0.25)] {
            let kernel = RatioKernel::new(ro, rn);
            for tail_len in [1usize, 7, 50, 99] {
                for tail_sum in [0.0, 0.013, 1.7, 42.5] {
                    let unhoisted = tail_len as f64 * (rn / ro).ln() - (rn - ro) * tail_sum;
                    assert_eq!(
                        kernel.ln_p(tail_len, tail_sum).to_bits(),
                        unhoisted.to_bits(),
                        "({ro}, {rn}, {tail_len}, {tail_sum})"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_accessors_report_the_pair() {
        let k = RatioKernel::new(10.0, 25.0);
        assert_eq!(k.rate_old(), 10.0);
        assert_eq!(k.rate_new(), 25.0);
    }

    #[test]
    fn maximize_kernel_matches_maximize_ln_p() {
        let mut rng = SimRng::seed_from(17);
        let unit = Exponential::new(1.0).unwrap();
        let samples: Vec<f64> = (0..80).map(|_| unit.sample(&mut rng)).collect();
        let w = window_from(&samples);
        let a = maximize_ln_p(&w, 12.0, 30.0, 8);
        let b = maximize_kernel(&w, &RatioKernel::new(12.0, 30.0), 8);
        assert_eq!(a.ln_p_max.to_bits(), b.ln_p_max.to_bits());
        assert_eq!(a.change_index, b.change_index);
        assert_eq!(a.tail_len, b.tail_len);
    }

    #[test]
    fn statistic_is_large_after_a_real_change() {
        let mut rng = SimRng::seed_from(1);
        let slow = Exponential::new(10.0).unwrap();
        let fast = Exponential::new(60.0).unwrap();
        let mut samples = Vec::new();
        for _ in 0..50 {
            samples.push(slow.sample(&mut rng));
        }
        for _ in 0..50 {
            samples.push(fast.sample(&mut rng));
        }
        let w = window_from(&samples);
        let with_change = maximize_ln_p(&w, 10.0, 60.0, 5);
        // No-change window for comparison:
        let mut rng2 = SimRng::seed_from(2);
        let flat: Vec<f64> = (0..100).map(|_| slow.sample(&mut rng2)).collect();
        let without = maximize_ln_p(&window_from(&flat), 10.0, 60.0, 5);
        assert!(
            with_change.ln_p_max > without.ln_p_max + 20.0,
            "changed {} vs flat {}",
            with_change.ln_p_max,
            without.ln_p_max
        );
    }

    #[test]
    fn change_index_locates_the_change() {
        let mut rng = SimRng::seed_from(3);
        let slow = Exponential::new(10.0).unwrap();
        let fast = Exponential::new(60.0).unwrap();
        let mut samples = Vec::new();
        for _ in 0..60 {
            samples.push(slow.sample(&mut rng));
        }
        for _ in 0..40 {
            samples.push(fast.sample(&mut rng));
        }
        let w = window_from(&samples);
        let best = maximize_ln_p(&w, 10.0, 60.0, 5);
        assert!(
            (50..=70).contains(&best.change_index),
            "estimated change index {} should be near 60",
            best.change_index
        );
        assert_eq!(best.tail_len, 100 - best.change_index);
    }

    #[test]
    fn detects_rate_decreases_too() {
        let mut rng = SimRng::seed_from(4);
        let fast = Exponential::new(60.0).unwrap();
        let slow = Exponential::new(10.0).unwrap();
        let mut samples = Vec::new();
        for _ in 0..50 {
            samples.push(fast.sample(&mut rng));
        }
        for _ in 0..50 {
            samples.push(slow.sample(&mut rng));
        }
        let w = window_from(&samples);
        let best = maximize_ln_p(&w, 60.0, 10.0, 5);
        assert!(best.ln_p_max > 10.0, "decrease statistic {}", best.ln_p_max);
    }

    #[test]
    fn k_step_grid_respects_bounds() {
        let samples: Vec<f64> = (0..30).map(|i| 0.1 + (i as f64) * 1e-4).collect();
        let w = window_from(&samples);
        let best = maximize_ln_p(&w, 10.0, 20.0, 7);
        // k ranges over {7, 14, 21}: 28 would leave < 7 tail samples? No:
        // constraint is k + k_step <= m, so k ∈ {7, 14, 21} for m=30? 21+7=28<=30, 28+7>30.
        assert!(best.change_index.is_multiple_of(7) && best.change_index >= 7);
        assert!(best.change_index + 7 <= 30);
    }

    #[test]
    #[should_panic(expected = "window too short")]
    fn short_window_panics() {
        let w = window_from(&[0.1, 0.2, 0.3]);
        let _ = maximize_ln_p(&w, 10.0, 20.0, 2);
    }

    #[test]
    #[should_panic(expected = "k_step must be positive")]
    fn zero_k_step_panics() {
        let w = window_from(&[0.1, 0.2, 0.3, 0.4]);
        let _ = maximize_ln_p(&w, 10.0, 20.0, 0);
    }

    #[test]
    #[should_panic(expected = "rates must be positive")]
    fn non_positive_rate_panics() {
        let _ = RatioKernel::new(0.0, 2.0);
    }
}
