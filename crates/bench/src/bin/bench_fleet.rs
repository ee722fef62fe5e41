//! Fleet-engine throughput benchmark.
//!
//! Runs the same fleet spec at `jobs = 1`, `N`, and `2N` (N = `--jobs`
//! or the machine default), verifies the serialized `FleetReport` is
//! byte-identical across all three, measures devices/second and the
//! threshold-cache hit ratio per run, and writes the rows to
//! `BENCH_fleet.json` (override with `--json PATH`).
//!
//! The hit ratio is the headline number for calibration sharing: every
//! change-point device looks the same detector config up in the
//! process-wide cache, so only the very first lookup of the process
//! misses and the steady-state ratio approaches 1.
//!
//! With `--rss-ceiling-mb C` the benchmark also reads the process peak
//! RSS (`VmHWM` from `/proc/self/status`) after every run and fails if
//! it ever exceeds `C` MiB. This is the fleet-scale memory gate: the
//! streaming accumulator summarizes and drops device results per batch,
//! so peak RSS stays bounded no matter how many devices the fleet has
//! (a million-device run fits in the same ceiling as a thousand-device
//! one). `--no-oversubscribe` drops the `2N` row so huge gating runs
//! only pay for `jobs = 1` and `jobs = N`.
//!
//! The run also measures **two-distinct-key calibration overlap**: two
//! detector configs that differ only by calibration seed are calibrated
//! cold, first back-to-back and then on two concurrent threads, and the
//! ratio of the two wall times is reported. Under the sharded
//! per-entry cache the two misses overlap (ratio → ~2 on ≥ 2 cores);
//! under the old one-big-lock cache they serialized (ratio ≈ 1)
//! regardless of cores.
//!
//! With `--check`, the run is gated against the checked-in
//! `BENCH_fleet_baseline.json` (override with `--baseline PATH`):
//! a single-thread devices/sec floor (relaxed by the baseline's
//! `tolerance`), a parallel-speedup floor applied only on machines
//! with ≥ 4 cores, and a two-key overlap floor applied only with
//! ≥ 2 cores. Exits non-zero on any regression.
//!
//! Usage: `bench_fleet [--devices N] [--jobs N] [--json PATH]
//!         [--rss-ceiling-mb C] [--no-oversubscribe]
//!         [--check] [--baseline PATH]`

use detect::calibrate::{default_ratios, CalibrationConfig};
use fleet::{run_fleet, FleetSpec};
use simcore::json::ToJson;
use simcore::par::Jobs;
use std::time::Instant;

struct Row {
    jobs: u64,
    devices: u64,
    cores: u64,
    /// `true` when `jobs > cores`: the row's threads time-share the
    /// available cores, so its speedup measures scheduling overhead,
    /// not parallel scaling.
    oversubscribed: bool,
    wall_ms: f64,
    devices_per_sec: f64,
    speedup: f64,
    /// Threshold-cache hit ratio over this run's lookups only.
    cache_hit_ratio: f64,
    /// Report bytes equal to the `jobs = 1` reference run.
    identical: bool,
    /// Process peak RSS (`VmHWM`) after this run, MiB; 0 if unreadable.
    peak_rss_mb: f64,
    /// The `--rss-ceiling-mb` gate this run was held to; 0 = ungated.
    rss_ceiling_mb: f64,
}

simcore::impl_to_json!(Row {
    jobs,
    devices,
    cores,
    oversubscribed,
    wall_ms,
    devices_per_sec,
    speedup,
    cache_hit_ratio,
    identical,
    peak_rss_mb,
    rss_ceiling_mb,
});

struct TwoKeyOverlap {
    cores: u64,
    /// Wall time of two cold calibrations on distinct keys run
    /// back-to-back on one thread, milliseconds.
    sequential_ms: f64,
    /// Wall time of two cold calibrations on two more distinct keys run
    /// on two concurrent threads, milliseconds.
    concurrent_ms: f64,
    /// `sequential_ms / concurrent_ms` — ~2 when distinct-key misses
    /// overlap on ≥ 2 cores, ~1 when they serialize (the old
    /// lock-held-across-calibration cache, or a 1-core machine).
    overlap: f64,
}

simcore::impl_to_json!(TwoKeyOverlap {
    cores,
    sequential_ms,
    concurrent_ms,
    overlap,
});

/// Times two cold-miss calibrations on distinct cache keys, sequential
/// vs concurrent. The four keys are distinct and the cache is private
/// to this measurement, so every lookup is a true miss; each calibration runs single-threaded internally so the
/// measurement isolates cross-key concurrency, not intra-calibration
/// parallelism.
fn bench_two_key_overlap(cores: u64) -> TwoKeyOverlap {
    let config = CalibrationConfig {
        trials: 3_000,
        ..CalibrationConfig::default()
    };
    let ratios = default_ratios();
    let cache = detect::cache::ThresholdCache::default();
    let calibrate = |seed: u64| {
        cache
            .table(&ratios, config, seed, Jobs::Count(1))
            .expect("benchmark calibration succeeds")
    };

    let t0 = Instant::now();
    calibrate(0xBE9C_2001);
    calibrate(0xBE9C_2002);
    let sequential_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| calibrate(0xBE9C_2003));
        s.spawn(|| calibrate(0xBE9C_2004));
    });
    let concurrent_ms = t0.elapsed().as_secs_f64() * 1e3;

    TwoKeyOverlap {
        cores,
        sequential_ms,
        concurrent_ms,
        overlap: sequential_ms / concurrent_ms,
    }
}

/// The benchmark fleet: short MP3 clips, three policies (change-point
/// to exercise the shared threshold cache, EMA and max as contrast),
/// clean devices only so the runtime is dominated by the engine.
fn spec(devices: usize) -> FleetSpec {
    FleetSpec::parse(&format!(
        r#"{{
            "name": "bench",
            "devices": {devices},
            "base_seed": {seed},
            "workloads": ["mp3:A"],
            "policies": [
                {{ "governor": "change-point", "dpm": "break-even" }},
                {{ "governor": "ema:0.05", "dpm": "timeout:1.0" }},
                {{ "governor": "max", "dpm": "none" }}
            ],
            "faults": ["off"]
        }}"#,
        seed = bench::EXPERIMENT_SEED,
    ))
    .expect("benchmark spec is valid")
}

fn main() {
    let jobs = bench::init_jobs_from_args();
    let devices: usize = bench::flag_value("--devices").map_or(1000, |v| {
        v.parse()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| panic!("--devices expects a positive integer, got `{v}`"))
    });
    let rss_ceiling_mb: Option<f64> = bench::flag_value("--rss-ceiling-mb").map(|v| {
        v.parse()
            .ok()
            .filter(|&c: &f64| c.is_finite() && c > 0.0)
            .unwrap_or_else(|| panic!("--rss-ceiling-mb expects a positive number, got `{v}`"))
    });
    bench::header(
        "Bench",
        "fleet engine: devices/second and threshold-cache sharing",
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u64;
    let mut job_counts = vec![1, jobs, 2 * jobs];
    if bench::has_flag("--no-oversubscribe") {
        job_counts.truncate(2);
    }
    job_counts.dedup();
    let listed: Vec<String> = job_counts.iter().map(ToString::to_string).collect();
    println!(
        "[{devices} devices at jobs = {} on {cores} core(s)]",
        listed.join(", ")
    );

    // Warm the process-wide threshold cache outside the timed region:
    // the first change-point device of the process pays the one-off
    // calibration miss, which would otherwise swamp the jobs=1 row.
    let warmup = spec(3);
    let _ = run_fleet(&warmup, Jobs::Count(jobs)).expect("warmup runs");
    let spec = spec(devices);

    let mut rows: Vec<Row> = Vec::new();
    let mut reference: Option<String> = None;
    let mut baseline_ms = 0.0;
    for n in job_counts {
        let before = detect::cache::cache_stats_detailed();
        let t0 = Instant::now();
        let report = run_fleet(&spec, Jobs::Count(n)).expect("benchmark fleet runs");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cache = detect::cache::cache_stats_detailed().since(&before);

        let bytes = report.to_json_pretty();
        let identical = match &reference {
            None => {
                baseline_ms = wall_ms;
                reference = Some(bytes);
                true
            }
            Some(reference) => *reference == bytes,
        };
        assert!(
            identical,
            "fleet report diverged between jobs=1 and jobs={n}"
        );

        let peak_rss_mb = bench::peak_rss_mb().unwrap_or(0.0);
        if let Some(ceiling) = rss_ceiling_mb {
            assert!(
                peak_rss_mb > 0.0,
                "--rss-ceiling-mb needs /proc/self/status (VmHWM) to enforce the gate"
            );
            assert!(
                peak_rss_mb <= ceiling,
                "peak RSS {peak_rss_mb:.1} MiB exceeded the {ceiling:.1} MiB ceiling \
                 after the jobs={n} run — aggregation is accumulating per-device state"
            );
        }

        rows.push(Row {
            jobs: n as u64,
            devices: devices as u64,
            cores,
            oversubscribed: n as u64 > cores,
            wall_ms,
            devices_per_sec: devices as f64 / (wall_ms / 1e3),
            speedup: baseline_ms / wall_ms,
            cache_hit_ratio: cache.hit_ratio(),
            identical,
            peak_rss_mb,
            rss_ceiling_mb: rss_ceiling_mb.unwrap_or(0.0),
        });
    }

    println!(
        "{:>5} {:>9} {:>12} {:>13} {:>9} {:>11} {:>10}",
        "jobs", "devices", "wall (ms)", "devices/sec", "speedup", "cache hits", "rss (MiB)"
    );
    for r in &rows {
        println!(
            "{:>5} {:>9} {:>12.1} {:>13.1} {:>8.2}x {:>11.3} {:>10.1}",
            r.jobs,
            r.devices,
            r.wall_ms,
            r.devices_per_sec,
            r.speedup,
            r.cache_hit_ratio,
            r.peak_rss_mb
        );
    }
    println!("\nReports verified byte-identical across all jobs counts.");
    if let Some(ceiling) = rss_ceiling_mb {
        let peak = bench::peak_rss_mb().unwrap_or(0.0);
        println!("Peak RSS {peak:.1} MiB stayed under the {ceiling:.1} MiB ceiling.");
    }
    for r in &rows {
        assert!(
            r.cache_hit_ratio >= 0.9,
            "threshold-cache hit ratio {:.3} at jobs={} fell below 0.9 — calibration is being repaid per device",
            r.cache_hit_ratio,
            r.jobs
        );
    }

    println!("\n[two-key calibration overlap: cold misses on distinct detector configs]");
    // On a single core two "concurrent" calibrations just timeshare, so
    // the sequential/concurrent ratio says nothing about the cache — skip
    // the measurement instead of reporting a meaningless overlap.
    let overlap = if cores >= 2 {
        let o = bench_two_key_overlap(cores);
        println!(
            "  sequential {:.1} ms, concurrent {:.1} ms — overlap {:.2}x on {} core(s)",
            o.sequential_ms, o.concurrent_ms, o.overlap, o.cores
        );
        Some(o)
    } else {
        println!("  skipped: overlap needs >= 2 cores, this machine has {cores}");
        None
    };

    let two_key_json = match &overlap {
        Some(o) => o.to_json(),
        None => simcore::Json::Obj(vec![
            ("cores".to_string(), simcore::Json::Int(cores as i64)),
            ("skipped".to_string(), simcore::Json::Bool(true)),
            (
                "reason".to_string(),
                simcore::Json::Str(
                    "two-key overlap requires >= 2 cores; on one core the \
                     sequential/concurrent ratio does not measure the cache"
                        .to_string(),
                ),
            ),
        ]),
    };
    let report = simcore::Json::Obj(vec![
        ("rows".to_string(), rows.to_json()),
        ("two_key_calibration".to_string(), two_key_json),
    ]);
    let path = bench::json_path_from_args()
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_fleet.json"));
    bench::write_json(&path, &report);

    if bench::has_flag("--check") {
        let baseline = bench::flag_value("--baseline")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("BENCH_fleet_baseline.json"));
        check_against_baseline(&rows, overlap.as_ref(), &baseline);
    }
}

/// Gates the run against the checked-in devices/sec and overlap floors.
fn check_against_baseline(rows: &[Row], overlap: Option<&TwoKeyOverlap>, path: &std::path::Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
    let base = simcore::Json::parse(&text)
        .unwrap_or_else(|e| panic!("malformed baseline {}: {e}", path.display()));
    let get = |key: &str| {
        base.get(key)
            .and_then(simcore::Json::as_f64)
            .unwrap_or_else(|| panic!("baseline is missing `{key}`"))
    };
    let tolerance = get("tolerance");
    let mut failures = Vec::new();

    let j1 = rows
        .iter()
        .find(|r| r.jobs == 1)
        .expect("jobs=1 row always runs");
    let floor = get("min_devices_per_sec_j1");
    let relaxed = floor * (1.0 - tolerance);
    if j1.devices_per_sec < relaxed {
        failures.push(format!(
            "jobs=1 devices/sec {:.0} < floor {floor:.0} − {:.0}% tolerance = {relaxed:.0}",
            j1.devices_per_sec,
            tolerance * 100.0
        ));
    }

    // Parallel floors are machine-relative (both sides of each ratio
    // run in this process), so no tolerance — but they only make sense
    // with cores to scale onto.
    let cores = j1.cores;
    if cores >= 4 {
        let best = rows
            .iter()
            .filter(|r| !r.oversubscribed)
            .map(|r| r.speedup)
            .fold(0.0f64, f64::max);
        let min_speedup = get("min_parallel_speedup_4core");
        if best < min_speedup {
            failures.push(format!(
                "parallel speedup {best:.2}x < floor {min_speedup:.2}x on {cores} cores"
            ));
        }
    }
    if cores >= 2 {
        let o = overlap.expect("overlap is measured whenever cores >= 2");
        let min_overlap = get("min_two_key_overlap_2core");
        if o.overlap < min_overlap {
            failures.push(format!(
                "two-key calibration overlap {:.2}x < floor {min_overlap:.2}x on {cores} cores \
                 — distinct-key misses are serializing on the cache lock",
                o.overlap
            ));
        }
    }

    if failures.is_empty() {
        println!(
            "[gate] OK against {} (tolerance {:.0}%, {cores} core(s))",
            path.display(),
            tolerance * 100.0
        );
    } else {
        eprintln!("[gate] REGRESSION against {}:", path.display());
        for f in &failures {
            eprintln!("[gate]   {f}");
        }
        std::process::exit(1);
    }
}
