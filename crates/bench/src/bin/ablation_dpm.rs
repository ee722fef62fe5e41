//! Ablation: DPM policy family on the Table 5 session.
//!
//! The paper classifies DPM policies into deterministic (timeout,
//! predictive) and stochastic (renewal, TISMDP) and argues the
//! stochastic, time-indexed policies exploit non-exponential idle tails.
//! This bench runs every family on the same mixed session under the same
//! change-point DVS governor.

use dpm::policy::SleepState;
use powermgr::config::{DpmKind, SystemConfig};
use powermgr::scenario::{Run, Workload};

struct Row {
    policy: String,
    energy_kj: f64,
    frame_delay_s: f64,
    sleeps: u64,
    wakes: u64,
    standby_secs: f64,
    off_secs: f64,
}

simcore::impl_to_json!(Row {
    policy,
    energy_kj,
    frame_delay_s,
    sleeps,
    wakes,
    standby_secs,
    off_secs,
});

fn main() {
    bench::header(
        "Ablation",
        "DPM policy families on the mixed session (with change-point DVS)",
    );
    let policies: Vec<(&str, DpmKind)> = vec![
        ("none", DpmKind::None),
        (
            "fixed-timeout 1s",
            DpmKind::FixedTimeout {
                timeout_s: 1.0,
                state: SleepState::Standby,
            },
        ),
        (
            "break-even",
            DpmKind::BreakEven {
                state: SleepState::Standby,
            },
        ),
        (
            "adaptive",
            DpmKind::Adaptive {
                state: SleepState::Standby,
            },
        ),
        (
            "predictive g=0.3",
            DpmKind::Predictive {
                state: SleepState::Standby,
                gain: 0.3,
            },
        ),
        (
            "renewal (50ms budget)",
            DpmKind::Renewal {
                state: SleepState::Standby,
                delay_budget_s: 0.05,
            },
        ),
        ("tismdp η=2", DpmKind::Tismdp { delay_weight: 2.0 }),
        (
            "tismdp η=0 (energy-only)",
            DpmKind::Tismdp { delay_weight: 0.0 },
        ),
    ];

    println!(
        "{:<26} {:>11} {:>10} {:>8} {:>7} {:>11} {:>9}",
        "policy", "energy kJ", "delay s", "sleeps", "wakes", "standby s", "off s"
    );
    let mut rows = Vec::new();
    for (name, dpm) in policies {
        let config = SystemConfig {
            governor: bench::paper_change_point(),
            dpm,
            ..SystemConfig::default()
        };
        let report = Run::workload(&Workload::Session, &config, bench::EXPERIMENT_SEED)
            .execute()
            .expect("ablation runs");
        println!(
            "{:<26} {:>11.3} {:>10.3} {:>8} {:>7} {:>11.0} {:>9.0}",
            name,
            report.total_energy_kj(),
            report.mean_frame_delay_s(),
            report.sleeps,
            report.wakes,
            report.mode_secs(powermgr::metrics::ModeKey::Standby),
            report.mode_secs(powermgr::metrics::ModeKey::Off),
        );
        rows.push(Row {
            policy: name.to_owned(),
            energy_kj: report.total_energy_kj(),
            frame_delay_s: report.mean_frame_delay_s(),
            sleeps: report.sleeps,
            wakes: report.wakes,
            standby_secs: report.mode_secs(powermgr::metrics::ModeKey::Standby),
            off_secs: report.mode_secs(powermgr::metrics::ModeKey::Off),
        });
    }
    println!("\nExpected: every policy beats none; tismdp reaches off during long gaps");
    println!("and η trades delay for energy; naive timeouts churn on short gaps.");
    if let Some(path) = bench::json_path_from_args() {
        bench::write_json(&path, &rows);
    }
}
