//! Microbenchmarks of the detection hot paths: the per-sample detector
//! update, the windowed `ln P_max` maximization, and the offline
//! calibration. These are the operations that would run on the SA-1100
//! itself, so their cost is part of the paper's "extra computation"
//! trade-off discussion.
//!
//! Plain timing harness (no external benchmark framework, so the
//! workspace builds offline): each case runs a few warm-up iterations,
//! then reports the mean wall-clock time over the measured iterations.

use detect::calibrate::{CalibrationConfig, ThresholdTable};
use detect::changepoint::{ChangePointConfig, ChangePointDetector};
use detect::ema::EmaEstimator;
use detect::estimator::RateEstimator;
use detect::likelihood::maximize_ln_p;
use detect::window::SampleWindow;
use simcore::dist::{Exponential, Sample};
use simcore::rng::SimRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    for _ in 0..3 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_iter = start.elapsed().as_secs_f64() / f64::from(iters);
    println!("{name:<40} {:>12.3} µs/iter", per_iter * 1e6);
}

fn bench_detector_update() {
    let config = ChangePointConfig {
        calibration_trials: 500,
        ..ChangePointConfig::default()
    };
    let template = ChangePointDetector::new(25.0, config.clone()).expect("valid config");
    let table = Arc::new(template.table().clone());
    let dist = Exponential::new(25.0).expect("static rate");

    bench("change_point_observe_x100", 200, || {
        let mut det =
            ChangePointDetector::with_shared_table(25.0, Arc::clone(&table), config.check_interval)
                .expect("valid detector");
        let mut rng = SimRng::seed_from(1);
        for _ in 0..config.window {
            det.observe(dist.sample(&mut rng));
        }
        for _ in 0..100 {
            black_box(det.observe(dist.sample(&mut rng)));
        }
    });

    let mut ema = EmaEstimator::new(25.0, 0.3).expect("valid gain");
    let mut rng = SimRng::seed_from(2);
    bench("ema_observe_x100", 200, || {
        for _ in 0..100 {
            black_box(ema.observe(dist.sample(&mut rng)));
        }
    });
}

fn bench_ln_p_max() {
    let dist = Exponential::new(1.0).expect("static rate");
    let mut rng = SimRng::seed_from(3);
    let mut window = SampleWindow::new(100);
    for _ in 0..100 {
        window.push(dist.sample(&mut rng));
    }
    bench("maximize_ln_p_m100_k10", 1000, || {
        black_box(maximize_ln_p(&window, 1.0, 2.0, 10));
    });
}

fn bench_calibration() {
    bench("calibrate_one_ratio_500_trials", 20, || {
        let config = CalibrationConfig {
            trials: 500,
            ..CalibrationConfig::default()
        };
        let mut rng = SimRng::seed_from(4);
        black_box(ThresholdTable::calibrate(&[2.0], config, &mut rng).expect("calibrates"));
    });
}

fn main() {
    bench_detector_update();
    bench_ln_p_max();
    bench_calibration();
}
