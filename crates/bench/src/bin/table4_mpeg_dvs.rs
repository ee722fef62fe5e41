//! Regenerates **Table 4**: MPEG video DVS — energy and mean total frame
//! delay for the football (875 s) and terminator2 (1200 s) clips under
//! the four detection algorithms.
//!
//! Expected shape (paper): "the exponential average shows poor
//! performance and higher energy consumption due to its instability";
//! the change-point algorithm achieves significant savings with a very
//! small delay penalty.

use powermgr::scenario::{Run, Workload};

struct Row {
    clip: String,
    algorithm: String,
    energy_kj: f64,
    frame_delay_s: f64,
    freq_switches: u64,
}

simcore::impl_to_json!(Row {
    clip,
    algorithm,
    energy_kj,
    frame_delay_s,
    freq_switches,
});

fn main() {
    bench::header("Table 4", "MPEG video DVS (energy kJ / mean frame delay s)");
    let clips = ["football", "terminator2"];
    let mut rows = Vec::new();
    println!(
        "{:<12} {:<13} {:>11} {:>12} {:>10}",
        "clip", "algorithm", "energy kJ", "delay s", "switches"
    );
    for (ci, clip) in clips.iter().enumerate() {
        let workload = Workload::Mpeg((*clip).to_owned());
        for (name, governor) in bench::table_governors() {
            let config = bench::dvs_only(governor);
            let seed = bench::EXPERIMENT_SEED + 100 + ci as u64;
            let report = Run::workload(&workload, &config, seed)
                .execute()
                .expect("table 4 scenario runs");
            println!(
                "{:<12} {:<13} {:>11.3} {:>12.3} {:>10}",
                clip,
                name,
                report.total_energy_kj(),
                report.mean_frame_delay_s(),
                report.freq_switches
            );
            rows.push(Row {
                clip: (*clip).to_owned(),
                algorithm: name.to_owned(),
                energy_kj: report.total_energy_kj(),
                frame_delay_s: report.mean_frame_delay_s(),
                freq_switches: report.freq_switches,
            });
        }
        println!();
    }

    let avg = |alg: &str, f: &dyn Fn(&Row) -> f64| {
        let v: Vec<f64> = rows.iter().filter(|r| r.algorithm == alg).map(f).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let e_ideal = avg("Ideal", &|r| r.energy_kj);
    let e_cp = avg("Change Point", &|r| r.energy_kj);
    let e_ema = avg("Exp. Ave.", &|r| r.energy_kj);
    let e_max = avg("Max", &|r| r.energy_kj);
    let d_cp = avg("Change Point", &|r| r.frame_delay_s);
    let d_ema = avg("Exp. Ave.", &|r| r.frame_delay_s);
    println!(
        "mean energy: ideal {e_ideal:.3}, change-point {e_cp:.3}, ema {e_ema:.3}, max {e_max:.3} kJ"
    );
    println!("mean delay : change-point {d_cp:.3} s, ema {d_ema:.3} s");
    println!(
        "Shape check: change-point close to ideal (≤20%): {}",
        if (e_cp - e_ideal) / e_ideal < 0.20 {
            "yes"
        } else {
            "NO"
        }
    );
    println!(
        "Shape check: change-point saves vs max: {}",
        if e_cp < e_max { "yes" } else { "NO" }
    );
    if let Some(path) = bench::json_path_from_args() {
        bench::write_json(&path, &rows);
    }
}
