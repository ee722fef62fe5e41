//! Regenerates **Table 5**: combined DVS + DPM on the mixed audio/video
//! session with idle gaps — energy for {no PM, DVS only, DPM only,
//! both}, with the savings factor relative to no PM.
//!
//! Expected shape (paper): "savings of a factor of three in energy
//! consumption for combined DVS and DPM approaches", with each technique
//! alone contributing a smaller factor.

use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{Run, Workload};
use simcore::par::{par_map_indexed, Jobs};

struct Row {
    algorithm: String,
    energy_kj: f64,
    factor: f64,
    frame_delay_s: f64,
    sleeps: u64,
}

simcore::impl_to_json!(Row {
    algorithm,
    energy_kj,
    factor,
    frame_delay_s,
    sleeps,
});

fn main() {
    bench::init_jobs_from_args();
    bench::header(
        "Table 5",
        "DPM and DVS combined on the mixed session (energy kJ / factor)",
    );
    let dvs = bench::paper_change_point();
    let dpm = DpmKind::Tismdp { delay_weight: 2.0 };
    let cells: Vec<(&str, GovernorKind, DpmKind)> = vec![
        ("None", GovernorKind::MaxPerformance, DpmKind::None),
        ("DVS", dvs.clone(), DpmKind::None),
        ("DPM", GovernorKind::MaxPerformance, dpm.clone()),
        ("Both", dvs, dpm),
    ];

    println!(
        "{:<6} {:>11} {:>8} {:>12} {:>8}",
        "alg", "energy kJ", "factor", "delay s", "sleeps"
    );
    // The four cells are independent simulations; run them concurrently
    // and derive savings factors from the "None" baseline afterwards.
    let reports = par_map_indexed(Jobs::Auto, &cells, |_, (_, governor, dpm)| {
        let config = SystemConfig {
            governor: governor.clone(),
            dpm: dpm.clone(),
            ..SystemConfig::default()
        };
        Run::workload(&Workload::Session, &config, bench::EXPERIMENT_SEED)
            .execute()
            .expect("table 5 runs")
    });
    let baseline = reports[0].total_energy_kj();
    let mut rows: Vec<Row> = Vec::new();
    for ((name, _, _), report) in cells.iter().zip(&reports) {
        let energy = report.total_energy_kj();
        let row = Row {
            algorithm: (*name).to_owned(),
            energy_kj: energy,
            factor: baseline / energy,
            frame_delay_s: report.mean_frame_delay_s(),
            sleeps: report.sleeps,
        };
        println!(
            "{:<6} {:>11.3} {:>8.2} {:>12.3} {:>8}",
            row.algorithm, row.energy_kj, row.factor, row.frame_delay_s, row.sleeps
        );
        rows.push(row);
    }

    let factor = |alg: &str| {
        rows.iter()
            .find(|r| r.algorithm == alg)
            .map_or(0.0, |r| r.factor)
    };
    println!(
        "\nShape check: DVS alone saves (>1.1x; its leverage is only the active fraction): {}",
        if factor("DVS") > 1.1 { "yes" } else { "NO" }
    );
    println!(
        "Shape check: DPM alone > 1.5x: {}",
        if factor("DPM") > 1.5 { "yes" } else { "NO" }
    );
    println!(
        "Shape check: combined ≈ 3x (>2.2x): {}",
        if factor("Both") > 2.2 { "yes" } else { "NO" }
    );
    println!(
        "Shape check: combined beats each alone: {}",
        if factor("Both") > factor("DVS") && factor("Both") > factor("DPM") {
            "yes"
        } else {
            "NO"
        }
    );
    if let Some(path) = bench::json_path_from_args() {
        bench::write_json(&path, &rows);
    }
}
