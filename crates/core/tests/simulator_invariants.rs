//! Simulator-level invariant tests: energy bounds, delay accounting,
//! boost behavior, and stress configurations.

use dpm::policy::SleepState;
use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::metrics::ModeKey;
use powermgr::scenario::{Run, Workload};
use powermgr::SimReport;
use proptest::prelude::*;
use simcore::rng::SimRng;
use workload::schedule::RateSchedule;
use workload::{Mp3Clip, MpegClip};

/// Runs a named workload (`mp3:<labels>`, `mpeg:<clip>`, `session`).
fn run(workload: &str, config: &SystemConfig, seed: u64) -> SimReport {
    let workload = Workload::parse(workload).expect("known workload");
    Run::workload(&workload, config, seed)
        .execute()
        .expect("runs")
}

fn base(governor: GovernorKind, dpm: DpmKind) -> SystemConfig {
    SystemConfig {
        governor,
        dpm,
        ..SystemConfig::default()
    }
}

/// Energy is bracketed by physics: duration × (off power, max decode
/// power) regardless of configuration.
#[test]
fn energy_within_physical_bounds() {
    let configs = [
        base(GovernorKind::Ideal, DpmKind::None),
        base(
            GovernorKind::MaxPerformance,
            DpmKind::Tismdp { delay_weight: 2.0 },
        ),
        base(
            GovernorKind::ExpAverage { gain: 0.5 },
            DpmKind::BreakEven {
                state: SleepState::Standby,
            },
        ),
    ];
    for (i, config) in configs.into_iter().enumerate() {
        let report = run("mp3:AD", &config, 100 + i as u64);
        // Max possible: MPEG decode profile at top op (822 mW) the whole time;
        // MP3 peaks at 530 mW. Use the system-wide ceiling.
        let ceiling = 0.99 * report.duration_secs; // ~990 mW × duration
        assert!(report.total_energy_j() <= ceiling, "{i}: {report}");
        assert!(report.total_energy_j() > 0.0);
    }
}

/// The overload boost bounds the worst-case frame delay when the
/// governor badly underestimates (EMA on high-variance video).
#[test]
fn overload_boost_caps_backlog() {
    let seed = 321;
    let no_boost = base(GovernorKind::ExpAverage { gain: 0.5 }, DpmKind::None);
    let boosted = SystemConfig {
        overload_boost_depth: Some(10),
        ..no_boost.clone()
    };
    let plain = run("mpeg:football", &no_boost, seed);
    let capped = run("mpeg:football", &boosted, seed);
    assert!(
        capped.frame_delays.max() <= plain.frame_delays.max() + 1e-9,
        "boost must not worsen the delay tail: {:.3} vs {:.3}",
        capped.frame_delays.max(),
        plain.frame_delays.max()
    );
    assert_eq!(capped.frames_completed, plain.frames_completed);
}

/// A trace whose arrivals overwhelm even the top frequency stays live:
/// the simulator degrades to max-rate decoding and still completes every
/// frame (late), never deadlocking.
#[test]
fn overload_degrades_gracefully() {
    // Arrivals at 40 fr/s but a decoder capable of only ~30 fr/s at max.
    let arrival = RateSchedule::constant(40.0, 60.0).expect("valid");
    let service = RateSchedule::constant(30.0, 60.0).expect("valid");
    let clip = MpegClip::new("overload", arrival, service);
    let mut rng = SimRng::seed_from(5);
    let trace = clip.generate(&mut rng);
    let report = Run::trace(&trace, &base(GovernorKind::Ideal, DpmKind::None), 5)
        .execute()
        .expect("runs");
    assert_eq!(report.frames_completed, trace.frames().len() as u64);
    // The queue builds up: mean delay far exceeds the 0.1 s target.
    assert!(report.mean_frame_delay_s() > 0.5, "{report}");
    // And the policy pinned the top frequency nearly the whole time.
    assert!(
        report.freq_secs(221.2) > 0.95 * report.mode_secs(ModeKey::Decoding),
        "{report}"
    );
}

/// An empty trace runs to completion with pure idle/sleep energy.
#[test]
fn empty_trace_is_pure_idle() {
    let trace = workload::Trace::new(vec![], simcore::time::SimTime::from_secs_f64(100.0))
        .expect("empty is valid");
    let report = Run::trace(
        &trace,
        &base(GovernorKind::MaxPerformance, DpmKind::None),
        1,
    )
    .execute()
    .expect("runs");
    assert_eq!(report.frames_completed, 0);
    // 100 s of idle at 202 mW.
    assert!((report.total_energy_j() - 20.2).abs() < 0.5, "{report}");
    let with_dpm = Run::trace(
        &trace,
        &base(
            GovernorKind::MaxPerformance,
            DpmKind::BreakEven {
                state: SleepState::Off,
            },
        ),
        1,
    )
    .execute()
    .expect("runs");
    assert!(with_dpm.total_energy_j() < 1.0, "{with_dpm}");
}

/// Waking from a sleep state costs time (the uniform-latency transition)
/// and that time shows up both in the mode accounting and in the delay of
/// the frame that triggered the wake.
#[test]
fn wake_path_costs_latency_and_is_accounted() {
    // Two clips separated by a gap long enough that break-even standby
    // fires, so the second clip's first frame pays a wake-up.
    let mut rng = SimRng::seed_from(77);
    let a = Mp3Clip::table2()[0].generate(&mut rng);
    let b = Mp3Clip::table2()[5].generate(&mut rng);
    let trace = workload::Trace::sequence(&[a, b], simcore::time::SimDuration::from_secs(30));
    let config = base(
        GovernorKind::MaxPerformance,
        DpmKind::BreakEven {
            state: SleepState::Standby,
        },
    );
    let report = Run::trace(&trace, &config, 77).execute().expect("runs");
    assert!(report.wakes >= 1, "{report}");
    assert!(report.mode_secs(ModeKey::Waking) > 0.0, "{report}");
    // Nominal standby wake is 10 ms (uniform 5-15 ms per wake).
    let per_wake = report.mode_secs(ModeKey::Waking) / report.wakes as f64;
    assert!(
        (0.004..0.016).contains(&per_wake),
        "mean wake latency {per_wake}s should be ~10 ms"
    );
    // The no-DPM run never wakes.
    let no_dpm = Run::trace(
        &trace,
        &base(GovernorKind::MaxPerformance, DpmKind::None),
        77,
    )
    .execute()
    .expect("runs");
    assert_eq!(no_dpm.wakes, 0);
    assert_eq!(no_dpm.mode_secs(ModeKey::Waking), 0.0);
    // Sleeping trades a small delay-tail increase for energy.
    assert!(report.total_energy_j() < no_dpm.total_energy_j());
    assert!(report.frame_delays.max() >= no_dpm.frame_delays.max() - 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Delay statistics cover exactly the completed frames and the mean
    /// lies between the min and max.
    #[test]
    fn delay_stats_consistent(seed in 0u64..40, clip in 0usize..6) {
        let config = base(GovernorKind::Ideal, DpmKind::None);
        let mut rng = SimRng::seed_from(seed);
        let trace = Mp3Clip::table2()[clip].generate(&mut rng);
        let report = Run::trace(&trace, &config, seed).execute().expect("runs");
        prop_assert_eq!(report.frame_delays.count(), report.frames_completed);
        prop_assert!(report.frame_delays.min() >= 0.0);
        prop_assert!(report.frame_delays.min() <= report.mean_frame_delay_s());
        prop_assert!(report.mean_frame_delay_s() <= report.frame_delays.max());
    }
}
