//! Quickstart: the three layers of the library in ~60 lines.
//!
//! 1. Detect a rate change with the maximum-likelihood change-point test.
//! 2. Turn rates into a frequency/voltage operating point (DVS).
//! 3. Run a full clip through the system simulator and read the report,
//!    then rerun it with the paper's invariants checked online.
//!
//! Run with: `cargo run --release --example quickstart`

use detect::changepoint::{ChangePointConfig, ChangePointDetector};
use detect::estimator::RateEstimator;
use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::dvs::DvsPolicy;
use powermgr::scenario::{Run, Workload};
use simcore::dist::{Exponential, Sample};
use simcore::rng::SimRng;
use trace::{AssertionConfig, AssertionMonitor};
use workload::MediaKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Change-point detection -------------------------------------
    // Frames arrive at 10/s, then the stream switches to 60/s.
    let mut detector = ChangePointDetector::new(10.0, ChangePointConfig::default())?;
    let mut rng = SimRng::seed_from(42);
    let slow = Exponential::new(10.0)?;
    let fast = Exponential::new(60.0)?;
    for _ in 0..300 {
        detector.observe(slow.sample(&mut rng));
    }
    let mut latency = None;
    for i in 0..200 {
        if let Some(change) = detector.observe(fast.sample(&mut rng)) {
            latency = Some((i, change.new_rate));
            break;
        }
    }
    let (frames, rate) = latency.expect("a 6x rate jump is always detected");
    println!("detected 10 -> 60 fr/s step after {frames} frames (estimate {rate:.1} fr/s)");

    // --- 2. DVS frequency selection ------------------------------------
    // Hold the mean buffered-frame delay at 0.2 s for MP3 / 0.1 s for MPEG.
    let dvs = DvsPolicy::smartbadge(0.2, 0.1)?;
    let op = dvs.select(MediaKind::Mp3Audio, rate, 215.0)?;
    println!(
        "MP3 at {rate:.0} fr/s with a 215 fr/s decoder -> run at {:.1} MHz / {:.2} V",
        op.freq_mhz, op.voltage_v
    );

    // --- 3. Full-system simulation -------------------------------------
    // One clip sequence under the paper's change-point governor vs the
    // no-DVS baseline.
    let paper = SystemConfig {
        governor: GovernorKind::change_point(),
        dpm: DpmKind::None,
        ..SystemConfig::default()
    };
    let baseline = SystemConfig {
        governor: GovernorKind::MaxPerformance,
        ..paper.clone()
    };
    let ace = Workload::Mp3("ACE".into());
    let with_dvs = Run::workload(&ace, &paper, 7).execute()?;
    let without = Run::workload(&ace, &baseline, 7).execute()?;
    println!("\nchange-point DVS: {with_dvs}");
    println!("\nmax frequency   : {without}");
    println!(
        "\nDVS saves {:.0}% energy at {:.0} ms mean frame delay",
        100.0 * (1.0 - with_dvs.total_energy_j() / without.total_energy_j()),
        with_dvs.mean_frame_delay_s() * 1e3
    );

    // The same run with the paper's invariants checked online: the
    // numbers are identical and the report gains an `assertions` verdict.
    let mut monitor = AssertionMonitor::new(&AssertionConfig::paper())?;
    let checked = Run {
        monitor: Some(&mut monitor),
        ..Run::workload(&ace, &paper, 7)
    }
    .execute()?;
    assert_eq!(checked.total_energy_j(), with_dvs.total_energy_j());
    if let Some(verdict) = &checked.assertions {
        println!(
            "
online invariant check: {verdict}"
        );
    }
    Ok(())
}
