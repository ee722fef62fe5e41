//! Regenerates the substance of **Figure 8**: the expansion of the
//! single active state into a family of (frequency, voltage) sub-states.
//! The figure is a state diagram; its content — that the power manager
//! actually *occupies* many active sub-states at run time — is printed
//! here as the decode-time residency per operating point for each
//! governor on the ACEFBD audio sequence.

use powermgr::scenario::{Run, Workload};

struct Row {
    governor: String,
    freq_mhz: f64,
    decode_secs: f64,
}

simcore::impl_to_json!(Row {
    governor,
    freq_mhz,
    decode_secs,
});

fn main() {
    bench::header(
        "Figure 8",
        "active-state expansion: decode-time residency per (f, V) sub-state",
    );
    let cpu = hardware::CpuModel::sa1100();
    let mut rows = Vec::new();

    print!("{:>9}", "f (MHz)");
    let governors = bench::table_governors();
    for (name, _) in &governors {
        print!(" {name:>13}");
    }
    println!();

    let mut residency: Vec<Vec<f64>> = Vec::new();
    let mut distinct_states = Vec::new();
    for (name, governor) in &governors {
        let config = bench::dvs_only(governor.clone());
        let report = Run::workload(
            &Workload::Mp3("ACEFBD".into()),
            &config,
            bench::EXPERIMENT_SEED,
        )
        .execute()
        .expect("figure 8 scenario runs");
        let col: Vec<f64> = cpu
            .operating_points()
            .iter()
            .map(|op| report.freq_secs(op.freq_mhz))
            .collect();
        distinct_states.push(col.iter().filter(|&&s| s > 0.5).count());
        for op in cpu.operating_points() {
            rows.push(Row {
                governor: (*name).to_owned(),
                freq_mhz: op.freq_mhz,
                decode_secs: report.freq_secs(op.freq_mhz),
            });
        }
        residency.push(col);
    }
    for (i, op) in cpu.operating_points().iter().enumerate() {
        print!("{:>9.1}", op.freq_mhz);
        for col in &residency {
            print!(" {:>12.1}s", col[i]);
        }
        println!();
    }

    println!("\ndistinct active sub-states occupied (>0.5 s):");
    for ((name, _), n) in governors.iter().zip(&distinct_states) {
        println!("  {name:<13} {n}");
    }
    let ideal_states = distinct_states[0];
    let max_states = distinct_states[3];
    println!(
        "\nShape check: DVS governors occupy multiple sub-states while max uses one: {}",
        if ideal_states >= 3 && max_states == 1 {
            "yes"
        } else {
            "NO"
        }
    );
    if let Some(path) = bench::json_path_from_args() {
        bench::write_json(&path, &rows);
    }
}
