//! Hot-path throughput benchmark with a CI regression gate.
//!
//! Measures the three loops the zero-allocation kernel rewrite targets,
//! all single-threaded so the numbers reflect kernel cost rather than
//! scheduling:
//!
//! 1. **Calibration** — Monte-Carlo trials/sec of the optimized
//!    [`trial_statistic`] versus the retained seed-era reference kernel
//!    ([`reference_trial_statistic`]), measured in the same run on the
//!    same RNG streams and verified bit-identical while timing.
//! 2. **Detector** — samples/sec through a fully-warm
//!    [`ChangePointDetector`] driven by a rate-stepping arrival stream.
//! 3. **Simulator** — traced events/sec of a full MP3 system simulation
//!    (change-point governor + break-even DPM).
//!
//! Results go to `BENCH_hotpath.json` (override with `--json PATH`).
//! With `--check`, the run is gated against the checked-in
//! `BENCH_hotpath_baseline.json` (override with `--baseline PATH`):
//! calibration speedup must meet its floor exactly, throughput floors
//! are relaxed by the baseline's `tolerance` to absorb machine-to-
//! machine variance, and the process exits non-zero on any regression.
//!
//! The reported threshold-cache stats are scoped to the **simulator
//! phase** (a [`detect::cache::CacheStats::since`] delta), not process
//! lifetime: the detector phase deliberately uses its own calibration
//! key (different trial count and seed), so lifetime totals mix two
//! unrelated one-off misses with the simulator's single warm hit and
//! bottom out at ~0.33 even when caching works perfectly. Phase-scoped,
//! a cold process shows exactly 1 miss (the warm-up calibration) and
//! 1 hit (the timed run): ratio 0.5, gated by
//! `min_threshold_cache_hit_ratio`.
//!
//! Usage: `bench_hotpath [--quick] [--check] [--json PATH] [--baseline PATH]`

use detect::calibrate::{
    default_ratios, reference_trial_statistic, trial_statistic, CalibrationConfig,
};
use detect::estimator::RateEstimator;
use detect::{ChangePointConfig, ChangePointDetector};
use dpm::policy::SleepState;
use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{Run, Workload};
use powermgr::{SharedResources, SystemSimulator};
use simcore::dist::{Exponential, Sample};
use simcore::rng::SimRng;
use std::time::Instant;
use trace::TraceSink;

struct HotpathReport {
    quick: bool,
    cores: u64,
    calibration_trials: u64,
    optimized_trials_per_sec: f64,
    reference_trials_per_sec: f64,
    /// Reference wall time ÷ optimized wall time over the identical
    /// trial set — the "≥ 2× vs the pre-PR kernel" number.
    calibration_speedup: f64,
    detector_samples: u64,
    detector_samples_per_sec: f64,
    simulator_events: u64,
    simulator_events_per_sec: f64,
    threshold_cache_hits: u64,
    threshold_cache_misses: u64,
    threshold_cache_hit_ratio: f64,
}

simcore::impl_to_json!(HotpathReport {
    quick,
    cores,
    calibration_trials,
    optimized_trials_per_sec,
    reference_trials_per_sec,
    calibration_speedup,
    detector_samples,
    detector_samples_per_sec,
    simulator_events,
    simulator_events_per_sec,
    threshold_cache_hits,
    threshold_cache_misses,
    threshold_cache_hit_ratio,
});

/// A trace sink that only counts records — the cheapest way to turn the
/// simulator's event stream into an events/sec denominator.
struct CountSink {
    count: u64,
}

impl TraceSink for CountSink {
    fn record(&mut self, _event: &trace::Event) {
        self.count += 1;
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn bench_calibration(trials: u64) -> (f64, f64, f64) {
    let config = CalibrationConfig::default();
    let ratios = default_ratios();
    let root = SimRng::seed_from(bench::EXPERIMENT_SEED);
    let cell_rng = |t: u64| {
        root.fork_indexed("calibration-ratio", t % ratios.len() as u64)
            .fork_indexed("calibration-trial", t)
    };
    let ratio_of = |t: u64| ratios[(t % ratios.len() as u64) as usize];

    // Warm-up (sizes the optimized kernel's scratch arena) + bit-identity
    // spot check on the streams about to be timed.
    for t in 0..ratios.len() as u64 {
        let a = trial_statistic(ratio_of(t), config, cell_rng(t));
        let b = reference_trial_statistic(ratio_of(t), config, cell_rng(t));
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "optimized and reference kernels diverged at trial {t}"
        );
    }

    // Each kernel is timed three times and the fastest repetition kept:
    // external interference (scheduler, frequency steps) only ever adds
    // time, so the minimum is the noise-robust estimate and the gate
    // does not flake on a loaded machine. Every repetition replays the
    // identical RNG streams, so the bit-equality check holds throughout.
    let mut secs_new = f64::INFINITY;
    let mut secs_old = f64::INFINITY;
    for _ in 0..3 {
        let (acc_new, rep_new) = time(|| {
            let mut acc = 0.0f64;
            for t in 0..trials {
                acc += trial_statistic(ratio_of(t), config, cell_rng(t));
            }
            acc
        });
        let (acc_old, rep_old) = time(|| {
            let mut acc = 0.0f64;
            for t in 0..trials {
                acc += reference_trial_statistic(ratio_of(t), config, cell_rng(t));
            }
            acc
        });
        assert_eq!(
            acc_new.to_bits(),
            acc_old.to_bits(),
            "timed loops must compute the identical statistics"
        );
        secs_new = secs_new.min(rep_new);
        secs_old = secs_old.min(rep_old);
    }
    (
        trials as f64 / secs_new,
        trials as f64 / secs_old,
        secs_old / secs_new,
    )
}

fn bench_detector(samples: u64, calibration_trials: usize) -> (u64, f64) {
    let config = ChangePointConfig {
        calibration_trials,
        calibration_seed: bench::EXPERIMENT_SEED,
        ..ChangePointConfig::default()
    };
    let mut det = ChangePointDetector::new(25.0, config).expect("valid detector config");
    // Rate-stepping stream: every block the true rate moves, so the
    // bench exercises both the steady scan and the detect/re-estimate
    // path, like a real media trace.
    let rates = [25.0f64, 60.0, 10.0, 40.0];
    let mut rng = SimRng::seed_from(0xD37EC7);
    let block = (samples as usize / rates.len()).max(1);
    let mut changes = 0u64;
    let (fed, secs) = time(|| {
        let mut fed = 0u64;
        for (i, &rate) in rates.iter().enumerate() {
            let dist = Exponential::new(rate).expect("valid rate");
            let n = if i + 1 == rates.len() {
                samples as usize - block * (rates.len() - 1)
            } else {
                block
            };
            for _ in 0..n {
                if det.observe(dist.sample(&mut rng)).is_some() {
                    changes += 1;
                }
                fed += 1;
            }
        }
        fed
    });
    assert!(changes > 0, "the stepping stream must trigger detections");
    (fed, fed as f64 / secs)
}

fn bench_simulator(labels: &str, reps: u32) -> (u64, f64) {
    let config = SystemConfig {
        governor: GovernorKind::change_point(),
        dpm: DpmKind::BreakEven {
            state: SleepState::Standby,
        },
        ..SystemConfig::default()
    };
    let trace = Workload::Mp3(labels.to_owned())
        .build(42)
        .expect("golden labels build");
    // Warm pass, traced: warms the threshold cache and counts the trace
    // events the scenario emits, which keeps the benchmark's historical
    // denominator (trace events per wall second). The timed passes below
    // run the monomorphized untraced kernel — the fleet's default path —
    // which emits nothing, so the count must come from here.
    let mut sink = CountSink { count: 0 };
    let warm = Run {
        sink: Some(&mut sink),
        ..Run::trace(&trace, &config, 42)
    }
    .execute()
    .expect("warm run");
    assert!(warm.frames_completed > 0);
    // Each rep is the identical deterministic run, so the fastest rep is
    // the kernel's speed and the slower ones are scheduler/interrupt
    // noise — take the min rather than the mean.
    let mut best_secs = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let ((report, pops), secs) = time(|| {
            SystemSimulator::new_shared(&trace, config.clone(), 42, &SharedResources::default())
                .and_then(|sim| sim.run_counted(trace.end()))
                .expect("timed run")
        });
        assert!(pops > 0);
        best_secs = best_secs.min(secs);
        last = Some(report);
    }
    let last = last.expect("at least one rep");
    // Traced and untraced kernels must agree bit for bit; a divergence
    // here means the fast path is no longer the same simulation.
    use simcore::json::ToJson;
    assert_eq!(
        warm.to_json().dump(),
        last.to_json().dump(),
        "untraced fast path diverged from the traced run"
    );
    (sink.count, sink.count as f64 / best_secs)
}

/// Loads the regression floors from the baseline JSON.
fn check_against_baseline(report: &HotpathReport, path: &std::path::Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
    let base = simcore::Json::parse(&text)
        .unwrap_or_else(|e| panic!("malformed baseline {}: {e}", path.display()));
    let get = |key: &str| {
        base.get(key)
            .and_then(simcore::Json::as_f64)
            .unwrap_or_else(|| panic!("baseline is missing `{key}`"))
    };
    let tolerance = get("tolerance");
    let mut failures = Vec::new();
    // The speedup floor is machine-independent (both kernels run on the
    // same machine in the same process), so no tolerance is applied.
    let min_speedup = get("min_calibration_speedup");
    if report.calibration_speedup < min_speedup {
        failures.push(format!(
            "calibration speedup {:.2}x < floor {min_speedup:.2}x",
            report.calibration_speedup
        ));
    }
    // Exact count arithmetic (1 warm miss + 1 timed hit on a cold
    // process, hits only on a warm one), so no tolerance is applied.
    let min_hit_ratio = get("min_threshold_cache_hit_ratio");
    if report.threshold_cache_hit_ratio < min_hit_ratio {
        failures.push(format!(
            "simulator-phase threshold-cache hit ratio {:.3} < floor {min_hit_ratio:.3} \
             ({} hits / {} misses) — calibration is being repaid inside the phase",
            report.threshold_cache_hit_ratio,
            report.threshold_cache_hits,
            report.threshold_cache_misses
        ));
    }
    for (name, measured, floor) in [
        (
            "detector samples/sec",
            report.detector_samples_per_sec,
            get("min_detector_samples_per_sec"),
        ),
        (
            "simulator events/sec",
            report.simulator_events_per_sec,
            get("min_simulator_events_per_sec"),
        ),
    ] {
        let relaxed = floor * (1.0 - tolerance);
        if measured < relaxed {
            failures.push(format!(
                "{name} {measured:.0} < floor {floor:.0} − {:.0}% tolerance = {relaxed:.0}",
                tolerance * 100.0
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "[gate] OK against {} (tolerance {:.0}%)",
            path.display(),
            tolerance * 100.0
        );
    } else {
        eprintln!("[gate] REGRESSION against {}:", path.display());
        for f in &failures {
            eprintln!("[gate]   {f}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let _ = bench::init_jobs_from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    bench::header(
        "Bench",
        "hot-path throughput: calibration kernel, online detector, simulator loop",
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u64;

    // Quick keeps the calibration trial count high enough that the
    // timed regions span several milliseconds — below that, scheduler
    // noise dominates the speedup ratio and the gate flakes.
    let (trials, det_samples, det_trials, sim_labels, sim_reps) = if quick {
        (8_000u64, 200_000u64, 500, "A", 8u32)
    } else {
        (20_000u64, 2_000_000u64, 2000, "AB", 16u32)
    };

    println!("[calibration: {trials} trials per kernel, single-threaded]");
    let (opt_tps, ref_tps, speedup) = bench_calibration(trials);
    println!("[detector: {det_samples} samples through a warm change-point detector]");
    let (fed, samples_per_sec) = bench_detector(det_samples, det_trials);
    println!("[simulator: untraced mp3:{sim_labels} ×{sim_reps}, change-point + break-even DPM]");
    // Scope cache accounting to the simulator phase: the detector bench
    // above used a distinct calibration key (its own one-off miss), and
    // folding that in would misreport the simulator's caching as ~0.33.
    let cache_before = detect::cache::cache_stats_detailed();
    let (events, events_per_sec) = bench_simulator(sim_labels, sim_reps);
    let cache = detect::cache::cache_stats_detailed().since(&cache_before);
    let report = HotpathReport {
        quick,
        cores,
        calibration_trials: trials,
        optimized_trials_per_sec: opt_tps,
        reference_trials_per_sec: ref_tps,
        calibration_speedup: speedup,
        detector_samples: fed,
        detector_samples_per_sec: samples_per_sec,
        simulator_events: events,
        simulator_events_per_sec: events_per_sec,
        threshold_cache_hits: cache.hits,
        threshold_cache_misses: cache.misses,
        threshold_cache_hit_ratio: cache.hit_ratio(),
    };

    println!();
    println!("{:<28} {:>14} {:>14}", "loop", "throughput", "vs pre-PR");
    println!(
        "{:<28} {:>10.0}/s {:>13.2}x",
        "calibration (optimized)", report.optimized_trials_per_sec, report.calibration_speedup
    );
    println!(
        "{:<28} {:>10.0}/s {:>13}",
        "calibration (reference)", report.reference_trials_per_sec, "1.00x"
    );
    println!(
        "{:<28} {:>10.0}/s {:>14}",
        "detector samples", report.detector_samples_per_sec, "-"
    );
    println!(
        "{:<28} {:>10.0}/s {:>14}",
        "simulator events", report.simulator_events_per_sec, "-"
    );
    println!(
        "[threshold cache, simulator phase: {} hits / {} misses, hit ratio {:.2}]",
        report.threshold_cache_hits,
        report.threshold_cache_misses,
        report.threshold_cache_hit_ratio
    );

    let path = bench::json_path_from_args()
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_hotpath.json"));
    bench::write_json(&path, &report);

    if check {
        let baseline = bench::flag_value("--baseline")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("BENCH_hotpath_baseline.json"));
        check_against_baseline(&report, &baseline);
    }
}
