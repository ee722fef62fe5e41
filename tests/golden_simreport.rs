//! Bit-identity golden for a full `dvsdpm`-style simulation report.
//!
//! `tests/golden/simreport_mp3_ab_changepoint_seed42.json` was captured
//! from the pre-optimization kernel (deque-backed windows, unhoisted
//! `ln()`, allocating Monte-Carlo trials): the MP3 sequence "AB" under
//! the change-point governor with break-even standby DPM at seed 42.
//! The rewritten hot path must reproduce that JSON **byte for byte** —
//! traced or untraced, at any calibration thread count. A mismatch
//! means an optimization perturbed float arithmetic, RNG consumption,
//! or event ordering somewhere between the detector and the report.

use dpm::policy::SleepState;
use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{Run, Workload};
use simcore::json::ToJson;
use simcore::par::set_default_jobs;
use trace::{NullSink, RingSink};

fn golden_config() -> SystemConfig {
    SystemConfig {
        governor: GovernorKind::change_point(),
        dpm: DpmKind::BreakEven {
            state: SleepState::Standby,
        },
        ..SystemConfig::default()
    }
}

fn golden_json() -> String {
    include_str!("golden/simreport_mp3_ab_changepoint_seed42.json")
        .trim_end()
        .to_string()
}

#[test]
fn simreport_matches_pre_rewrite_golden_bytes() {
    let report = Run::workload(&Workload::Mp3("AB".into()), &golden_config(), 42)
        .execute()
        .unwrap();
    assert_eq!(
        report.to_json().dump(),
        golden_json(),
        "SimReport JSON drifted from the pre-optimization kernel"
    );
}

#[test]
fn traced_simreport_matches_golden_bytes() {
    // Tracing must not perturb the run: a null sink and a recording
    // sink both produce the identical report bytes.
    let mut null = NullSink;
    let report = Run {
        sink: Some(&mut null),
        ..Run::workload(&Workload::Mp3("AB".into()), &golden_config(), 42)
    }
    .execute()
    .unwrap();
    assert_eq!(
        report.to_json().dump(),
        golden_json(),
        "null-sink run drifted"
    );

    let mut ring = RingSink::new(4096);
    let report = Run {
        sink: Some(&mut ring),
        ..Run::workload(&Workload::Mp3("AB".into()), &golden_config(), 42)
    }
    .execute()
    .unwrap();
    assert_eq!(
        report.to_json().dump(),
        golden_json(),
        "ring-sink run drifted"
    );
    assert!(!ring.is_empty(), "the traced run did emit events");
}

#[test]
fn simreport_matches_golden_at_any_calibration_thread_count() {
    // The change-point governor calibrates through the parallel engine
    // at the process-default job count; the report must not depend on it.
    for jobs in [1usize, 2, 4] {
        set_default_jobs(jobs);
        let report = Run::workload(&Workload::Mp3("AB".into()), &golden_config(), 42)
            .execute()
            .unwrap();
        assert_eq!(
            report.to_json().dump(),
            golden_json(),
            "jobs={jobs} drifted"
        );
    }
    set_default_jobs(0); // restore auto
}
