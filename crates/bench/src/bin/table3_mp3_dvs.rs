//! Regenerates **Table 3**: MP3 audio DVS — energy and mean total frame
//! delay for the three clip sequences (ACEFBD, BADECF, CEDAFB) under the
//! four detection algorithms.
//!
//! Expected shape (paper): change-point ≈ ideal in energy with no
//! performance loss; exponential average worse on both axes; maximum
//! performance the most energy with the least delay.

use powermgr::scenario::{Run, Workload};

struct Row {
    sequence: String,
    algorithm: String,
    energy_kj: f64,
    frame_delay_s: f64,
    freq_switches: u64,
}

simcore::impl_to_json!(Row {
    sequence,
    algorithm,
    energy_kj,
    frame_delay_s,
    freq_switches,
});

fn main() {
    bench::header("Table 3", "MP3 audio DVS (energy kJ / mean frame delay s)");
    let sequences = ["ACEFBD", "BADECF", "CEDAFB"];
    let mut rows = Vec::new();
    println!(
        "{:<9} {:<13} {:>11} {:>12} {:>10}",
        "sequence", "algorithm", "energy kJ", "delay s", "switches"
    );
    for (si, seq) in sequences.iter().enumerate() {
        let workload = Workload::Mp3((*seq).to_owned());
        for (name, governor) in bench::table_governors() {
            let config = bench::dvs_only(governor);
            let seed = bench::EXPERIMENT_SEED + si as u64;
            let report = Run::workload(&workload, &config, seed)
                .execute()
                .expect("table 3 scenario runs");
            println!(
                "{:<9} {:<13} {:>11.3} {:>12.3} {:>10}",
                seq,
                name,
                report.total_energy_kj(),
                report.mean_frame_delay_s(),
                report.freq_switches
            );
            rows.push(Row {
                sequence: (*seq).to_owned(),
                algorithm: name.to_owned(),
                energy_kj: report.total_energy_kj(),
                frame_delay_s: report.mean_frame_delay_s(),
                freq_switches: report.freq_switches,
            });
        }
        println!();
    }

    // Shape checks across all sequences.
    let avg = |alg: &str, f: &dyn Fn(&Row) -> f64| {
        let v: Vec<f64> = rows.iter().filter(|r| r.algorithm == alg).map(f).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let e_ideal = avg("Ideal", &|r| r.energy_kj);
    let e_cp = avg("Change Point", &|r| r.energy_kj);
    let e_max = avg("Max", &|r| r.energy_kj);
    println!("mean energy: ideal {e_ideal:.3}, change-point {e_cp:.3}, max {e_max:.3} kJ");
    println!(
        "Shape check: change-point within 15% of ideal: {}",
        if (e_cp - e_ideal).abs() / e_ideal < 0.15 {
            "yes"
        } else {
            "NO"
        }
    );
    println!(
        "Shape check: max spends >1.3x ideal: {}",
        if e_max > 1.3 * e_ideal { "yes" } else { "NO" }
    );
    if let Some(path) = bench::json_path_from_args() {
        bench::write_json(&path, &rows);
    }
}
