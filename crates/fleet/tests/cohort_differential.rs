//! Differential contract of the cohort engine: stepping mixed
//! cohorts through the flattened kernel (per-policy pre-resolved
//! threshold tables, cohort-scheduled batches, block-sampled probes)
//! must be indistinguishable — byte for byte — from running each
//! device through the per-device reference path ([`fleet::run_device`]
//! + a caller-owned accumulator), at any worker count.

use fleet::{run_device, run_fleet, run_fleet_opts, FleetAccumulator, FleetSpec, RunOptions};
use powermgr::config::SystemConfig;
use powermgr::scenario::Run;
use simcore::json::ToJson;
use simcore::par::Jobs;
use trace::{JsonlSink, TraceSink};

/// Mixed cohorts: two workloads × three governors (quick change-point
/// so calibration is cheap but on the path, EMA, max) × two fault
/// presets, with a base seed per case.
fn mixed_spec(devices: usize, base_seed: u64, faults: &str) -> FleetSpec {
    FleetSpec::parse(&format!(
        r#"{{
            "name": "cohort-differential",
            "devices": {devices},
            "base_seed": {base_seed},
            "workloads": ["mp3:AB", "session"],
            "policies": [
                {{ "governor": "change-point", "dpm": "break-even" }},
                {{ "governor": "ema:0.05", "dpm": "timeout:1.0" }},
                {{ "governor": "max", "dpm": "none" }}
            ],
            "faults": {faults}
        }}"#
    ))
    .expect("test spec is valid")
}

/// The per-device reference: every device through [`run_device`] (no
/// cohort resources, per-construction cache traffic), folded in device
/// order by a caller-owned accumulator — exactly what the engine did
/// before cohort stepping existed.
fn reference_report_bytes(spec: &FleetSpec) -> String {
    let mut acc =
        FleetAccumulator::new(spec.policies.len(), u64::from(spec.on_error.max_attempts()));
    for device in 0..spec.devices {
        acc.push(run_device(spec, device).expect("reference device runs"));
    }
    acc.finish(&spec.name, spec.base_seed, &spec.on_error.to_string())
        .to_json()
        .pretty()
}

#[test]
fn cohort_engine_report_bytes_equal_per_device_reference() {
    // A small property sweep: device counts that wrap the cross
    // product unevenly, distinct base seeds, clean and faulty presets.
    let cases = [
        (13, 1234, r#"["off", "wlan"]"#),
        (7, 9, r#"["off"]"#),
        (24, 0xFEED, r#"["off", "wlan"]"#),
    ];
    for (devices, base_seed, faults) in cases {
        let spec = mixed_spec(devices, base_seed, faults);
        let reference = reference_report_bytes(&spec);
        for jobs in [1, 2, 8] {
            let got = run_fleet(&spec, Jobs::Count(jobs))
                .expect("cohort engine runs")
                .to_json()
                .pretty();
            assert_eq!(
                got, reference,
                "devices={devices} seed={base_seed} jobs={jobs}: cohort engine diverged from per-device reference"
            );
        }
    }
}

#[test]
fn cohort_engine_trace_streams_equal_per_device_reference() {
    // Clean-fault spec so the reference device config is exactly the
    // assignment's governor/dpm over defaults (fault presets add a
    // supervisor + bounded buffer inside the engine).
    let spec = mixed_spec(6, 4321, r#"["off"]"#);
    for jobs in [1, 2, 8] {
        let dir =
            std::env::temp_dir().join(format!("cohort_diff_traces_{}_{jobs}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        run_fleet_opts(
            &spec,
            Jobs::Count(jobs),
            &RunOptions {
                trace_dir: Some(dir.clone()),
                ..RunOptions::default()
            },
        )
        .expect("traced fleet runs");

        for device in 0..spec.devices {
            let engine_trace =
                std::fs::read_to_string(dir.join(format!("device_{device:05}.jsonl")))
                    .expect("engine trace exists");

            let a = spec.assignment(device);
            let config = SystemConfig {
                governor: a.policy.governor.clone(),
                dpm: a.policy.dpm.clone(),
                ..SystemConfig::default()
            };
            let mut sink = JsonlSink::new(Vec::new());
            Run {
                sink: Some(&mut sink),
                ..Run::workload(a.workload, &config, a.seed)
            }
            .execute()
            .expect("reference device runs");
            sink.finish().expect("reference trace flushes");
            let reference = String::from_utf8(sink.into_inner()).expect("trace is UTF-8");

            assert_eq!(
                engine_trace, reference,
                "device {device} jobs {jobs}: cohort engine trace diverged from per-device loop"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
