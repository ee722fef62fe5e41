//! Arrival-time generation from rate schedules.
//!
//! Within each segment of a [`RateSchedule`] arrivals are Poisson: the
//! paper measured SmartBadge frame interarrival times and found them well
//! approximated by exponential distributions (Figure 6). Segment
//! boundaries are handled through the memoryless property: when a sampled
//! gap crosses a boundary, the process restarts at the boundary with the
//! new rate, which yields an exact piecewise-Poisson process.
//!
//! For the Figure 6 fit-quality experiment, [`generate_jittered`] adds a
//! wireless-network packetization floor to each gap, producing a process
//! that is only *approximately* exponential — fitting a single exponential
//! to it reproduces the paper's ≈8 % average CDF error.

use crate::schedule::RateSchedule;
use simcore::dist::Exponential;
use simcore::rng::SimRng;

/// Unit-rate exponential draws are pre-drawn this many at a time through
/// [`Exponential::fill`] (the batched-`ln` path). Big enough to amortize
/// the batching, small enough that a short schedule does not over-draw
/// from the scout by much.
const GAP_BLOCK: usize = 256;

/// Arrival times (seconds from schedule start) of a piecewise-Poisson
/// process following `schedule`.
///
/// The process stops at the end of the schedule.
#[must_use]
pub fn generate(schedule: &RateSchedule, rng: &mut SimRng) -> Vec<f64> {
    generate_with_floor(schedule, 0.0, rng)
}

/// Like [`generate`], but each interarrival gap is `floor + Exp(λ')`
/// where `λ'` is chosen so the segment's *mean* rate is preserved:
/// `1/λ = floor + 1/λ'`.
///
/// A non-zero floor models the minimum packet spacing of the wireless
/// link. The resulting process has the same rate but is not exactly
/// exponential — the ingredient of the Figure 6 experiment.
///
/// # Panics
///
/// Panics if `floor` is negative, not finite, or is ≥ the mean gap of any
/// segment (which would make the residual exponential rate non-positive).
#[must_use]
pub fn generate_with_floor(schedule: &RateSchedule, floor: f64, rng: &mut SimRng) -> Vec<f64> {
    assert!(
        floor.is_finite() && floor >= 0.0,
        "floor must be finite and >= 0"
    );
    let total = schedule.total_duration();
    let mut arrivals = Vec::with_capacity(schedule.expected_events() as usize + 16);
    // Gap sampling is blocked: a scout clone of the caller's RNG pre-draws
    // unit-rate exponentials `-ln(1 - u)` in batches of GAP_BLOCK through
    // the batched-`ln` path. Each per-event gap is then `floor + e / λ'`,
    // bit-identical to the scalar `floor + -(1 - u).ln() / λ'` it
    // replaces: the unit-rate `fill` arm negates without dividing, the
    // `ln` kernel matches libm bit for bit, and `(-a)/λ' == -(a/λ')`
    // exactly in IEEE-754. The draws carry no rate, so the buffer
    // survives segment-boundary rate changes. Afterwards the caller's RNG
    // is set to exactly the consumed draws' end: the scout's state at the
    // start of the last block, advanced by the draws used from it (one
    // `next_u64` per draw). Downstream sampling sites — clip jitter is
    // drawn from this same stream — see the state the scalar loop would
    // have left.
    let unit = Exponential::new(1.0).expect("rate 1.0 is a valid exponential rate");
    let mut scout = rng.clone();
    let mut block_start = scout.clone();
    let mut block = [0.0f64; GAP_BLOCK];
    let mut pos = GAP_BLOCK; // empty; filled on first draw
    let mut t = 0.0;
    // The segment in force, looked up again only once `t` reaches its
    // end: `t` never decreases, and for every later `t` short of the
    // segment's end `rate_at(min(t, cap))` and `next_boundary(t)` return
    // what they returned at the lookup.
    let mut boundary = f64::NEG_INFINITY;
    let mut residual_rate = 0.0;
    loop {
        if t >= boundary {
            let rate = schedule.rate_at(f64::min(t, total * (1.0 - 1e-12)));
            let mean_gap = 1.0 / rate;
            assert!(
                floor < mean_gap,
                "floor {floor} must be below the mean gap {mean_gap}"
            );
            residual_rate = 1.0 / (mean_gap - floor);
            boundary = next_boundary(schedule, t);
        }
        if pos == GAP_BLOCK {
            block_start = scout.clone();
            unit.fill(&mut scout, &mut block);
            pos = 0;
        }
        let gap = floor + block[pos] / residual_rate;
        pos += 1;
        let candidate = t + gap;
        // Memoryless restart at segment boundaries: if the gap crosses into
        // a segment with a different rate, restart sampling at the boundary.
        if candidate > boundary && boundary < total {
            t = boundary;
            continue;
        }
        if candidate >= total {
            break;
        }
        t = candidate;
        arrivals.push(t);
    }
    *rng = block_start;
    for _ in 0..pos {
        rng.next_u64();
    }
    arrivals
}

/// Convenience alias for the paper's Figure 6 jitter model: a 12 ms
/// packetization/contention floor per frame, sized so a fitted single
/// exponential shows the paper's ≈8 % average CDF error while remaining
/// "approximately exponential".
#[must_use]
pub fn generate_jittered(schedule: &RateSchedule, rng: &mut SimRng) -> Vec<f64> {
    generate_with_floor(schedule, 0.012, rng)
}

fn next_boundary(schedule: &RateSchedule, t: f64) -> f64 {
    let mut elapsed = 0.0;
    for s in schedule.segments() {
        elapsed += s.duration;
        if t < elapsed {
            return elapsed;
        }
    }
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_respected_per_segment() {
        let sched = RateSchedule::new(vec![(100.0, 10.0), (100.0, 60.0)]).unwrap();
        let mut rng = SimRng::seed_from(42);
        let arrivals = generate(&sched, &mut rng);
        let first: Vec<&f64> = arrivals.iter().filter(|&&t| t < 100.0).collect();
        let second: Vec<&f64> = arrivals.iter().filter(|&&t| t >= 100.0).collect();
        let r1 = first.len() as f64 / 100.0;
        let r2 = second.len() as f64 / 100.0;
        assert!((r1 - 10.0).abs() < 1.5, "segment 1 rate {r1}");
        assert!((r2 - 60.0).abs() < 4.0, "segment 2 rate {r2}");
    }

    #[test]
    fn arrivals_are_sorted_and_within_range() {
        let sched = RateSchedule::new(vec![(10.0, 30.0), (10.0, 15.0)]).unwrap();
        let mut rng = SimRng::seed_from(7);
        let arrivals = generate(&sched, &mut rng);
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        assert!(arrivals.iter().all(|&t| (0.0..20.0).contains(&t)));
    }

    #[test]
    fn interarrivals_look_exponential() {
        let sched = RateSchedule::constant(25.0, 2000.0).unwrap();
        let mut rng = SimRng::seed_from(3);
        let arrivals = generate(&sched, &mut rng);
        let gaps: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
        let fitted = simcore::dist::Exponential::fit_mle(&gaps).unwrap();
        let ks = simcore::dist::fit::ks_statistic(&gaps, &fitted);
        assert!(ks < 0.01, "ks {ks}");
        assert!((fitted.rate() - 25.0).abs() < 1.0, "rate {}", fitted.rate());
    }

    #[test]
    fn floor_preserves_mean_rate_but_breaks_exponentiality() {
        let sched = RateSchedule::constant(30.0, 3000.0).unwrap();
        let mut rng = SimRng::seed_from(9);
        let arrivals = generate_jittered(&sched, &mut rng);
        let measured = arrivals.len() as f64 / 3000.0;
        assert!((measured - 30.0).abs() < 1.0, "rate {measured}");
        let gaps: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
        // No gap below the floor (aside from numerical dust).
        assert!(gaps.iter().all(|&g| g >= 0.012 - 1e-12));
        // A fitted exponential shows a visible (but moderate) CDF error.
        let fitted = simcore::dist::Exponential::fit_mle(&gaps).unwrap();
        let err = simcore::dist::fit::mean_abs_cdf_error(&gaps, &fitted);
        assert!(err > 0.005, "err {err} should be visible");
        assert!(
            err < 0.2,
            "err {err} should stay 'approximately exponential'"
        );
    }

    /// The scalar one-draw-per-event loop the block sampler replaced,
    /// kept verbatim as a differential reference.
    fn generate_with_floor_scalar(
        schedule: &RateSchedule,
        floor: f64,
        rng: &mut SimRng,
    ) -> Vec<f64> {
        let total = schedule.total_duration();
        let mut arrivals = Vec::new();
        let mut t = 0.0;
        loop {
            let rate = schedule.rate_at(f64::min(t, total * (1.0 - 1e-12)));
            let mean_gap = 1.0 / rate;
            let residual_rate = 1.0 / (mean_gap - floor);
            let gap = floor + -(1.0 - rng.next_f64()).ln() / residual_rate;
            let candidate = t + gap;
            let boundary = next_boundary(schedule, t);
            if candidate > boundary && boundary < total {
                t = boundary;
                continue;
            }
            if candidate >= total {
                break;
            }
            t = candidate;
            arrivals.push(t);
        }
        arrivals
    }

    #[test]
    fn block_sampler_matches_scalar_bitwise_and_leaves_same_rng_state() {
        // Multi-segment schedules exercise boundary restarts (draws
        // consumed without producing an arrival) and rate changes
        // mid-block; the floored variant exercises the residual-rate
        // arithmetic. Equality must be exact, not approximate, and the
        // RNG must come out in the same state either way because clip
        // jitter is drawn from the same stream afterwards.
        let schedules = [
            RateSchedule::constant(25.0, 400.0).unwrap(),
            RateSchedule::new(vec![(30.0, 10.0), (30.0, 60.0), (30.0, 22.0)]).unwrap(),
            RateSchedule::new(vec![(0.5, 5.0), (0.5, 80.0)]).unwrap(),
        ];
        for (i, sched) in schedules.iter().enumerate() {
            for floor in [0.0, 0.012] {
                for seed in [0u64, 7, 42, 99] {
                    let mut a_rng = SimRng::seed_from(seed);
                    let mut b_rng = SimRng::seed_from(seed);
                    let a = generate_with_floor(sched, floor, &mut a_rng);
                    let b = generate_with_floor_scalar(sched, floor, &mut b_rng);
                    assert!(
                        a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits())
                            && a.len() == b.len(),
                        "schedule {i} floor {floor} seed {seed}: arrivals diverged"
                    );
                    assert_eq!(
                        a_rng.next_u64(),
                        b_rng.next_u64(),
                        "schedule {i} floor {floor} seed {seed}: RNG state diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let sched = RateSchedule::constant(20.0, 50.0).unwrap();
        let a = generate(&sched, &mut SimRng::seed_from(5));
        let b = generate(&sched, &mut SimRng::seed_from(5));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "below the mean gap")]
    fn floor_above_mean_gap_panics() {
        let sched = RateSchedule::constant(1000.0, 1.0).unwrap(); // mean gap 1 ms
        let _ = generate_with_floor(&sched, 0.002, &mut SimRng::seed_from(0));
    }
}
