//! Tracing overhead guard: the observability layer must be free when
//! off and cheap when on.
//!
//! Runs the same MP3 scenario four ways — untraced, null sink, ring
//! sink, in-memory JSONL sink — timing each with a min-of-N loop, and
//!
//! * asserts all four produce byte-identical reports (tracing never
//!   perturbs the simulation), and
//! * fails (exit code 1) if the null-sink run is more than 10 % slower
//!   than the untraced run beyond a small absolute epsilon, so a
//!   regression on the disabled-tracing hot path fails CI.
//!
//! A fifth variant runs the ring sink with the streaming assertion
//! monitor attached (paper-default invariants) and holds it to the same
//! shape of budget against the plain ring-sink run: monitoring a traced
//! run must cost no more than 10 % + 2 ms on top of tracing alone, and
//! the report must stay byte-identical once its `assertions` verdict is
//! stripped.
//!
//! The Ideal governor is used on purpose: it involves no threshold
//! calibration, so the timed region is the pure simulation loop the
//! tracing hooks live in.

use bench::EXPERIMENT_SEED;
use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{Run, Workload};
use powermgr::SimReport;
use simcore::json::ToJson;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{AssertionConfig, AssertionMonitor, JsonlSink, NullSink, RingSink, TraceSink};

const ROUNDS: usize = 7;

fn config() -> SystemConfig {
    SystemConfig {
        governor: GovernorKind::Ideal,
        dpm: DpmKind::BreakEven {
            state: dpm::policy::SleepState::Standby,
        },
        ..SystemConfig::default()
    }
}

/// Minimum wall time over `ROUNDS` runs of `f` — the usual estimator
/// for "how fast can this go", robust to scheduler noise.
fn min_time<F: FnMut() -> SimReport>(mut f: F) -> (Duration, SimReport) {
    let mut best = Duration::MAX;
    let mut report = None;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed());
        report = Some(r);
    }
    (best, report.expect("at least one round"))
}

fn main() -> ExitCode {
    let cfg = config();
    let seed = EXPERIMENT_SEED;
    bench::header(
        "trace-overhead",
        "tracing hot-path cost vs untraced baseline",
    );

    let workload = Workload::Mp3("AB".to_owned());
    let run = |sink: Option<&mut dyn TraceSink>, monitor: Option<&mut AssertionMonitor>| {
        Run {
            // The cast lets the sink's lifetime shorten to the run's.
            sink: sink.map(|s| s as &mut dyn TraceSink),
            monitor,
            ..Run::workload(&workload, &cfg, seed)
        }
        .execute()
        .expect("trace-overhead run")
    };
    let (t_off, r_off) = min_time(|| run(None, None));
    let (t_null, r_null) = min_time(|| run(Some(&mut NullSink), None));
    let (t_ring, r_ring) = min_time(|| run(Some(&mut RingSink::new(1 << 16)), None));
    let (t_jsonl, r_jsonl) = min_time(|| {
        let mut sink = JsonlSink::new(Vec::with_capacity(1 << 20));
        let r = run(Some(&mut sink), None);
        sink.finish().expect("in-memory write");
        r
    });
    let (t_mon, mut r_mon) = min_time(|| {
        let mut monitor = AssertionMonitor::new(&AssertionConfig::paper()).expect("valid config");
        run(Some(&mut RingSink::new(1 << 16)), Some(&mut monitor))
    });

    assert!(
        r_mon.assertions.is_some(),
        "monitored run must carry a verdict"
    );
    r_mon.assertions = None; // the verdict is the only permitted delta
    let baseline = r_off.to_json().dump();
    for (label, r) in [
        ("null", &r_null),
        ("ring", &r_ring),
        ("jsonl", &r_jsonl),
        ("ring+mon", &r_mon),
    ] {
        assert_eq!(
            baseline,
            r.to_json().dump(),
            "{label}-sink report diverged from untraced baseline"
        );
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!("{:<10} {:>10}", "sink", "min_ms");
    println!("{:<10} {:>10.3}", "off", ms(t_off));
    println!("{:<10} {:>10.3}", "null", ms(t_null));
    println!("{:<10} {:>10.3}", "ring", ms(t_ring));
    println!("{:<10} {:>10.3}", "jsonl", ms(t_jsonl));
    println!("{:<10} {:>10.3}", "ring+mon", ms(t_mon));

    // Budget: disabled-or-null tracing within 10 % of untraced, plus a
    // 2 ms absolute epsilon so sub-millisecond jitter cannot flake.
    let budget = Duration::from_secs_f64(t_off.as_secs_f64() * 1.10) + Duration::from_millis(2);
    if t_null > budget {
        eprintln!(
            "FAIL: null-sink run {:.3} ms exceeds budget {:.3} ms (untraced {:.3} ms + 10% + 2 ms)",
            ms(t_null),
            ms(budget),
            ms(t_off)
        );
        return ExitCode::FAILURE;
    }
    println!(
        "\nnull-sink overhead {:+.1}% (budget +10% + 2 ms) — OK",
        (t_null.as_secs_f64() / t_off.as_secs_f64() - 1.0) * 100.0
    );

    // Same shape of budget for the assertion monitor, measured against
    // tracing alone: the invariant state machines are fixed-size and
    // allocation-free, so they must stay in the noise of a traced run.
    let mon_budget =
        Duration::from_secs_f64(t_ring.as_secs_f64() * 1.10) + Duration::from_millis(2);
    if t_mon > mon_budget {
        eprintln!(
            "FAIL: monitored run {:.3} ms exceeds budget {:.3} ms (ring-sink {:.3} ms + 10% + 2 ms)",
            ms(t_mon),
            ms(mon_budget),
            ms(t_ring)
        );
        return ExitCode::FAILURE;
    }
    println!(
        "monitor overhead {:+.1}% over ring sink (budget +10% + 2 ms) — OK",
        (t_mon.as_secs_f64() / t_ring.as_secs_f64() - 1.0) * 100.0
    );
    ExitCode::SUCCESS
}
