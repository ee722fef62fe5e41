//! `layers` — the fleet benchmark's traced run and cold set-up probe.
//!
//! ```text
//! layers setup  --spec <spec.json>
//! layers inproc --spec <spec.json> [fleet options]
//! layers ledger --spec <spec.json> --report <out.json> --spans <out.json> [fleet options]
//! layers measure <out.json> <program> [args...]
//! ```
//!
//! Fleet options mean what they mean to `dvsdpm fleet`: `--jobs <n>`,
//! `--trace-dir <dir>`, `--checkpoint <dir>`, `--checkpoint-every <b>`,
//! `--batch <n>`. Every subcommand prints one JSON object on stdout.
//!
//! * `setup` times the cold-process set-up before a fleet's first
//!   device: `FleetSpec::parse` plus `CohortResources::prepare` on the
//!   process's empty threshold cache, calibrating single-threaded as
//!   `dvsdpm fleet --jobs 1` does.
//! * `inproc` times one in-process `fleet::run_fleet_opts` call, so the
//!   harness can subtract it from the `dvsdpm fleet` process wall time.
//! * `ledger` replays every device of the spec through the layers'
//!   public functions, in device order on one thread, and records a
//!   span (name, start, end, parent, device index) around each call.
//!   It rebuilds the fleet report from its own calls and writes it
//!   with the CLI's serializer, so the harness can require it to be
//!   byte-identical to `dvsdpm fleet --json`. Spans stay in memory and
//!   are written to `--spans` when the run ends.
//! * `measure` runs `program` with inherited stdio, exits with its exit
//!   code, and writes its wall time and peak RSS to `out.json`. A child's
//!   `ru_maxrss` includes the RSS of the process it was forked from, so
//!   a child of the benchmark's Python harness would report at least the
//!   harness's own RSS; launched from this small process, it reports its
//!   own.

use std::fs;
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use fleet::{
    probe_detection_latency, CohortResources, DeviceAssertions, DeviceAssignment, DeviceFailure,
    DeviceOutcome, DeviceRecord, FleetAccumulator, FleetSpec, RunOptions,
};
use powermgr::config::{SupervisorConfig, SystemConfig};
use powermgr::{SharedResources, SimReport, SystemSimulator};
use simcore::json::{Json, ToJson};
use simcore::par::Jobs;
use trace::{AssertionConfig, AssertionMonitor, Event, JsonlSink, TraceSink};

/// Frame-buffer capacity the fleet engine pairs with fault presets.
/// The engine keeps it private; the replay must match it for the
/// rebuilt report to equal the CLI's.
const FAULT_BUFFER_FRAMES: usize = 64;

/// One timed call into a layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Device index of the request the span served, if any.
    request: Option<u64>,
}

/// An in-memory span recorder. Spans nest: `enter` makes the innermost
/// open span the new span's parent, and `exit` must close spans in the
/// reverse order they were opened.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span; `request: None` inherits the parent's request.
    fn enter(&mut self, name: &'static str, request: Option<u64>) -> usize {
        let parent = self.open.last().copied();
        let request = request.or_else(|| parent.and_then(|p| self.spans[p].request));
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes every span a caught panic left open above `depth`.
    fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = *self.open.last().expect("open spans above depth");
            self.exit(id);
        }
    }

    /// Runs `f` inside a span named `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, None);
        let out = f();
        self.exit(id);
        out
    }

    fn to_json(&self, window: (u64, u64)) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name".to_owned(), s.name.to_json()),
                    ("start_ns".to_owned(), s.start_ns.to_json()),
                    ("end_ns".to_owned(), s.end_ns.to_json()),
                    ("parent".to_owned(), s.parent.map(|p| p as u64).to_json()),
                    ("request".to_owned(), s.request.to_json()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("window_start_ns".to_owned(), window.0.to_json()),
            ("window_end_ns".to_owned(), window.1.to_json()),
            ("spans".to_owned(), Json::Arr(spans)),
        ])
    }
}

/// Parsed command line: the subcommand's inputs plus the fleet options
/// shared with `dvsdpm fleet`.
struct Args {
    spec: PathBuf,
    report: Option<PathBuf>,
    spans: Option<PathBuf>,
    jobs: usize,
    opts: RunOptions,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut spec = None;
    let mut report = None;
    let mut spans = None;
    let mut jobs = 1;
    let mut opts = RunOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let count = |v: String| {
            v.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{flag} expects a positive integer, got `{v}`"))
        };
        match flag.as_str() {
            "--spec" => spec = Some(PathBuf::from(value()?)),
            "--report" => report = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--jobs" => jobs = count(value()?)?,
            "--trace-dir" => opts.trace_dir = Some(PathBuf::from(value()?)),
            "--checkpoint" => opts.checkpoint_dir = Some(PathBuf::from(value()?)),
            "--checkpoint-every" => opts.checkpoint_every = count(value()?)?,
            "--batch" => opts.batch = count(value()?)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("missing --spec")?,
        report,
        spans,
        jobs,
        opts,
    })
}

fn read_spec_text(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn parse_spec(text: &str) -> Result<FleetSpec, String> {
    let spec = FleetSpec::parse(text).map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

fn cmd_setup(args: &Args) -> Result<Json, String> {
    let text = read_spec_text(&args.spec)?;
    let t0 = Instant::now();
    let spec = parse_spec(&text)?;
    let cohorts = CohortResources::prepare(&spec);
    let setup = t0.elapsed().as_secs_f64();
    std::hint::black_box(&cohorts);
    Ok(Json::obj(vec![("setup_s".to_owned(), setup.to_json())]))
}

fn cmd_inproc(args: &Args) -> Result<Json, String> {
    let spec = parse_spec(&read_spec_text(&args.spec)?)?;
    let t0 = Instant::now();
    let report = fleet::run_fleet_opts(&spec, Jobs::Auto, &args.opts).map_err(|e| e.to_string())?;
    let wall = t0.elapsed().as_secs_f64();
    std::hint::black_box(&report);
    Ok(Json::obj(vec![("run_fleet_s".to_owned(), wall.to_json())]))
}

/// Counts the replay gathers at the layer boundaries.
#[derive(Default)]
struct Totals {
    frames: u64,
    events: u64,
    bytes_written: u64,
    retries: u64,
}

/// How one replayed attempt ended, mirroring the engine's supervisor.
enum AttemptError {
    /// The simulation failed; the device may retry or fail.
    Contained(String),
    /// Trace or checkpoint I/O failed; the run stops.
    Fatal(String),
}

/// Collects a run's event stream in memory so it can be serialized in
/// its own span, after the kernel span closes.
#[derive(Default)]
struct VecSink(Vec<Event>);

impl TraceSink for VecSink {
    fn record(&mut self, event: &Event) {
        self.0.push(*event);
    }
}

/// The engine's device configuration: fault presets bring the
/// graceful-degradation supervisor and a bounded frame buffer.
fn device_config(a: &DeviceAssignment<'_>, seed: u64) -> SystemConfig {
    let faults = a.faults.spec(seed);
    let (supervisor, buffer_capacity) = if faults.is_some() {
        (Some(SupervisorConfig::default()), Some(FAULT_BUFFER_FRAMES))
    } else {
        (None, None)
    };
    SystemConfig {
        governor: a.policy.governor.clone(),
        dpm: a.policy.dpm.clone(),
        faults,
        supervisor,
        buffer_capacity,
        ..SystemConfig::default()
    }
}

/// One event-kernel run: construction plus `run_counted`, with the
/// optional in-memory sink and monitor attached.
fn run_kernel(
    trace: &workload::Trace,
    config: &SystemConfig,
    seed: u64,
    shared: &SharedResources,
    sink: Option<&mut VecSink>,
    monitor: Option<&mut AssertionMonitor>,
) -> Result<(SimReport, u64), String> {
    let mut sim = match sink {
        None => SystemSimulator::new_shared(trace, config.clone(), seed, shared),
        Some(sink) => SystemSimulator::new_traced_shared(trace, config.clone(), seed, shared, sink),
    }
    .map_err(|e| e.to_string())?;
    if let Some(monitor) = monitor {
        sim.attach_monitor(monitor);
    }
    sim.run_counted(trace.end()).map_err(|e| e.to_string())
}

fn trace_paths(dir: &Path, device: usize) -> (PathBuf, PathBuf) {
    (
        dir.join(format!("device_{device:05}.jsonl")),
        dir.join(format!("device_{device:05}.jsonl.tmp")),
    )
}

/// Serializes a device's events as the engine's `JsonlSink` would and
/// promotes the file durably; returns the bytes written.
fn write_trace(dir: &Path, device: usize, events: &[Event]) -> Result<u64, String> {
    let (path, tmp) = trace_paths(dir, device);
    let io = |what: &str, e: std::io::Error| format!("{what} {}: {e}", tmp.display());
    let file = fs::File::create(&tmp).map_err(|e| io("cannot create", e))?;
    let mut sink = JsonlSink::new(BufWriter::new(file));
    for event in events {
        sink.record(event);
    }
    sink.finish()?;
    let file = sink
        .into_inner()
        .into_inner()
        .map_err(|e| io("cannot flush", e.into_error()))?;
    file.sync_all().map_err(|e| io("cannot sync", e))?;
    let bytes = file.metadata().map_err(|e| io("cannot stat", e))?.len();
    trace::durable::promote(&tmp, &path).map_err(|e| io("cannot rename", e))?;
    Ok(bytes)
}

/// One attempt of one device, each layer call in its own span.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    t: &mut Tracer,
    totals: &mut Totals,
    a: &DeviceAssignment<'_>,
    seed: u64,
    attempt: u64,
    trace_dir: Option<&Path>,
    shared: &SharedResources,
    assertions: Option<&AssertionConfig>,
) -> Result<DeviceRecord, AttemptError> {
    let config = device_config(a, seed);
    let mut monitor = assertions
        .map(AssertionMonitor::new)
        .transpose()
        .map_err(AttemptError::Fatal)?;

    let built = t.time("workload.build", || a.workload.build(seed));
    let workload = built.map_err(|e| AttemptError::Contained(e.to_string()))?;
    totals.frames += workload.frames().len() as u64;

    let mut sink = trace_dir.map(|_| VecSink::default());
    let ran = t.time("core.kernel", || {
        run_kernel(
            &workload,
            &config,
            seed,
            shared,
            sink.as_mut(),
            monitor.as_mut(),
        )
    });
    let (report, events) = ran.map_err(AttemptError::Contained)?;
    totals.events += events;

    if let (Some(dir), Some(sink)) = (trace_dir, &sink) {
        let written = t.time("trace.sink_write", || write_trace(dir, a.device, &sink.0));
        totals.bytes_written += written.map_err(AttemptError::Fatal)?;
    }

    let latency = t.time("fleet.probe", || {
        probe_detection_latency(&config.governor, seed, shared)
    });

    let offered = report.frames_completed
        + report.robustness.arrivals_dropped
        + report.robustness.frames_dropped;
    let dropped = report.robustness.arrivals_dropped + report.robustness.frames_dropped;
    let drop_rate = if offered == 0 {
        0.0
    } else {
        dropped as f64 / offered as f64
    };
    Ok(DeviceRecord {
        device: a.device as u64,
        seed,
        workload: a.workload.to_string(),
        policy: a.policy_index as u64,
        governor: config.governor.label().to_string(),
        dpm: config.dpm.label().to_string(),
        faults: a.faults.to_string(),
        attempts: attempt,
        energy_kj: report.total_energy_kj(),
        mean_delay_s: report.mean_frame_delay_s(),
        drop_rate,
        detection_latency_frames: latency.map_err(AttemptError::Contained)?,
        frames_completed: report.frames_completed,
        duration_secs: report.duration_secs,
        deadline_miss_ratio: report.robustness.deadline_miss_ratio(),
        assertions: report.assertions.map(|r| DeviceAssertions::from_report(&r)),
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_string()
    }
}

/// One supervised device, as the engine runs it: attempts under
/// `catch_unwind`, retried on the spec's deterministic seed ladder.
fn replay_device(
    t: &mut Tracer,
    totals: &mut Totals,
    spec: &FleetSpec,
    device: usize,
    cohorts: &CohortResources,
    trace_dir: Option<&Path>,
) -> Result<DeviceOutcome, String> {
    let a = spec.assignment(device);
    let shared = cohorts.for_policy(a.policy_index);
    let max_attempts = spec.on_error.max_attempts();
    let span = t.enter("fleet.device", Some(device as u64));
    let depth = t.open.len();
    let mut last_error = String::new();
    let mut last_seed = a.seed;
    for attempt in 1..=max_attempts {
        let seed = spec.retry_seed(device, attempt - 1);
        last_seed = seed;
        if attempt > 1 {
            totals.retries += 1;
        }
        let attempted = catch_unwind(AssertUnwindSafe(|| {
            run_attempt(
                t,
                totals,
                &a,
                seed,
                u64::from(attempt),
                trace_dir,
                shared,
                spec.assertions.as_ref(),
            )
        }));
        match attempted {
            Ok(Ok(record)) => {
                t.exit(span);
                return Ok(DeviceOutcome::Completed(record));
            }
            Ok(Err(AttemptError::Fatal(e))) => return Err(e),
            Ok(Err(AttemptError::Contained(msg))) => last_error = msg,
            Err(payload) => {
                t.unwind_to(depth);
                last_error = format!("panic: {}", panic_message(&*payload));
            }
        }
        if let Some(dir) = trace_dir {
            fs::remove_file(trace_paths(dir, device).1).ok();
        }
    }
    t.exit(span);
    Ok(DeviceOutcome::Failed(DeviceFailure {
        device: device as u64,
        seed: last_seed,
        workload: a.workload.to_string(),
        policy: a.policy_index as u64,
        governor: a.policy.governor.label().to_string(),
        dpm: a.policy.dpm.label().to_string(),
        faults: a.faults.to_string(),
        attempts: u64::from(max_attempts),
        error: last_error,
    }))
}

fn file_len(path: &Path) -> Result<u64, String> {
    fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))
}

/// Kernel time of every completed device with its monitor attached and
/// detached, in alternation, with the ledger's sink setting. Outside
/// the ledger window: it is an A/B measurement, not part of a fleet run.
fn monitor_ab(
    spec: &FleetSpec,
    cohorts: &CohortResources,
    completed: &[(usize, u64)],
    collect: bool,
) -> Result<(f64, f64), String> {
    let Some(config) = spec.assertions.as_ref() else {
        return Ok((0.0, 0.0));
    };
    let (mut with, mut without) = (0.0, 0.0);
    for &(device, seed) in completed {
        let a = spec.assignment(device);
        let shared = cohorts.for_policy(a.policy_index);
        let sys = device_config(&a, seed);
        let workload = a.workload.build(seed).map_err(|e| e.to_string())?;
        for monitored in [true, false] {
            let mut monitor = monitored
                .then(|| AssertionMonitor::new(config))
                .transpose()?;
            let mut sink = collect.then(VecSink::default);
            let t0 = Instant::now();
            let out = run_kernel(
                &workload,
                &sys,
                seed,
                shared,
                sink.as_mut(),
                monitor.as_mut(),
            )?;
            let secs = t0.elapsed().as_secs_f64();
            std::hint::black_box(out);
            if monitored {
                with += secs;
            } else {
                without += secs;
            }
        }
    }
    Ok((with, without))
}

/// A directory beside `dir` for the untraced reference run's output.
fn sibling(dir: &Path) -> PathBuf {
    let mut name = dir.file_name().unwrap_or_default().to_os_string();
    name.push("_untraced");
    dir.with_file_name(name)
}

/// What one traced pass over the fleet produced besides its spans.
struct Replayed {
    totals: Totals,
    /// Completed devices: index, attempt seed, online verdict.
    online: Vec<(usize, u64, Option<DeviceAssertions>)>,
    checkpoint_bytes: u64,
    report_bytes: u64,
}

/// Every device through the layers in device order, folded and
/// checkpointed as the engine does at `--jobs 1`, then the report
/// serialized to `report_path`.
fn replay_fleet(
    t: &mut Tracer,
    spec: &FleetSpec,
    cohorts: &CohortResources,
    opts: &RunOptions,
    report_path: &Path,
) -> Result<Replayed, String> {
    let trace_dir = opts.trace_dir.as_deref();
    if let Some(dir) = trace_dir {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let every = match opts.checkpoint_every {
        0 => fleet::engine::DEFAULT_CHECKPOINT_EVERY,
        n => n,
    };
    let batch = match opts.batch {
        0 => fleet::engine::BATCH,
        n => n,
    };
    let max_attempts = u64::from(spec.on_error.max_attempts());
    let mut acc = FleetAccumulator::new(spec.policies.len(), max_attempts);
    let mut out = Replayed {
        totals: Totals::default(),
        online: Vec::new(),
        checkpoint_bytes: 0,
        report_bytes: 0,
    };
    let checkpoint = |t: &mut Tracer, acc: &FleetAccumulator| -> Result<u64, String> {
        let Some(dir) = opts.checkpoint_dir.as_deref() else {
            return Ok(0);
        };
        t.time("fleet.checkpoint_write", || {
            fleet::checkpoint::write_checkpoint(dir, spec, acc).map_err(|e| e.to_string())
        })?;
        file_len(&fleet::checkpoint::checkpoint_path(dir))
    };
    for device in 0..spec.devices {
        let outcome = replay_device(t, &mut out.totals, spec, device, cohorts, trace_dir)?;
        if let DeviceOutcome::Completed(r) = &outcome {
            out.online.push((device, r.seed, r.assertions));
        }
        t.time("fleet.fold", || acc.push(outcome));
        // The engine checkpoints after every `every`-th batch except
        // the last, then once more when the fleet is done.
        let done = device + 1;
        if done % batch == 0 && (done / batch) % every == 0 && done < spec.devices {
            out.checkpoint_bytes = checkpoint(t, &acc)?;
        }
    }
    if opts.checkpoint_dir.is_some() {
        out.checkpoint_bytes = checkpoint(t, &acc)?;
    }
    let on_error = spec.on_error.to_string();
    let report = t.time("fleet.fold", || {
        acc.finish(&spec.name, spec.base_seed, &on_error)
    });
    out.report_bytes = t.time("fleet.report_json", || {
        let json = report.to_json_pretty();
        fs::write(report_path, &json)
            .map(|()| json.len() as u64)
            .map_err(|e| format!("cannot write {}: {e}", report_path.display()))
    })?;
    Ok(out)
}

/// Traced-vs-untraced pairs run back to back, so both halves of a
/// pair see the same host speed.
const OVERHEAD_PAIRS: usize = 3;

fn cmd_ledger(args: &Args) -> Result<Json, String> {
    let report_path = args.report.as_ref().ok_or("ledger needs --report")?;
    let spans_path = args.spans.as_ref().ok_or("ledger needs --spans")?;
    let text = read_spec_text(&args.spec)?;
    let trace_dir = args.opts.trace_dir.as_deref();

    let mut t = Tracer::new();
    let cache_before = detect::cache::cache_stats_detailed();
    let window_start = t.now_ns();
    let spec = t.time("fleet.spec_parse", || parse_spec(&text))?;
    let cohorts = t.time("detect.calibrate", || CohortResources::prepare(&spec));
    let cache = detect::cache::cache_stats_detailed().since(&cache_before);
    let replayed = replay_fleet(&mut t, &spec, &cohorts, &args.opts, report_path)?;

    // `tracecat assert` over every device trace, checked against the
    // verdict the online monitor gave the same device.
    let mut replay_mismatches = 0u64;
    if let Some(dir) = trace_dir {
        let config = spec.assertions.unwrap_or_else(AssertionConfig::paper);
        for &(device, _, verdict) in &replayed.online {
            let span = t.enter("trace.replay", Some(device as u64));
            let path = trace_paths(dir, device).0;
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let events = trace::parse_jsonl(&text)?;
            let offline = AssertionMonitor::check(&config, &events)?;
            t.exit(span);
            let offline = DeviceAssertions::from_report(&offline);
            if verdict.is_some_and(|v| v != offline) {
                replay_mismatches += 1;
            }
        }
    }
    let window_end = t.now_ns();
    fs::write(
        spans_path,
        t.to_json((window_start, window_end)).dump() + "\n",
    )
    .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    let completed: Vec<(usize, u64)> = replayed.online.iter().map(|&(d, s, _)| (d, s)).collect();
    let (monitor_with_s, monitor_without_s) =
        monitor_ab(&spec, &cohorts, &completed, trace_dir.is_some())?;

    // The same fleet through the engine itself, untraced, alternating
    // with traced passes: the ratio is the tracing overhead, and the
    // engine's report must match the replay's.
    let mut untraced_opts = args.opts.clone();
    untraced_opts.trace_dir = trace_dir.map(sibling);
    untraced_opts.checkpoint_dir = args.opts.checkpoint_dir.as_deref().map(sibling);
    let traced_report = fs::read_to_string(report_path).map_err(|e| e.to_string())?;
    let mut untraced_identical = true;
    let mut overhead = Vec::with_capacity(OVERHEAD_PAIRS);
    for _ in 0..OVERHEAD_PAIRS {
        let t0 = Instant::now();
        let untraced = fleet::run_fleet_opts(&spec, Jobs::Count(1), &untraced_opts)
            .map_err(|e| e.to_string())?
            .to_json_pretty();
        let untraced_s = t0.elapsed().as_secs_f64();
        untraced_identical &= untraced == traced_report;
        let t0 = Instant::now();
        replay_fleet(&mut Tracer::new(), &spec, &cohorts, &args.opts, report_path)?;
        overhead.push(t0.elapsed().as_secs_f64() / untraced_s - 1.0);
    }
    overhead.sort_by(f64::total_cmp);

    let totals = &replayed.totals;
    Ok(Json::obj(vec![
        (
            "tracing_overhead_share".to_owned(),
            overhead[OVERHEAD_PAIRS / 2].to_json(),
        ),
        (
            "untraced_report_identical".to_owned(),
            untraced_identical.to_json(),
        ),
        ("frames".to_owned(), totals.frames.to_json()),
        ("events".to_owned(), totals.events.to_json()),
        ("bytes_written".to_owned(), totals.bytes_written.to_json()),
        (
            "checkpoint_bytes".to_owned(),
            replayed.checkpoint_bytes.to_json(),
        ),
        ("report_bytes".to_owned(), replayed.report_bytes.to_json()),
        ("retries".to_owned(), totals.retries.to_json()),
        ("cache_hits".to_owned(), cache.hits.to_json()),
        ("cache_misses".to_owned(), cache.misses.to_json()),
        ("monitor_with_s".to_owned(), monitor_with_s.to_json()),
        ("monitor_without_s".to_owned(), monitor_without_s.to_json()),
        ("replay_mismatches".to_owned(), replay_mismatches.to_json()),
    ]))
}

/// `struct rusage` of 64-bit Linux, the benchmark's platform: two
/// `timeval`s, then 14 `long`s.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Largest peak RSS among this process's waited-for children, KiB.
fn children_maxrss_kib() -> Result<i64, String> {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // layout of this target's C definition; getrusage writes only it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        Ok(usage.maxrss_kib)
    } else {
        Err(format!("getrusage: {}", std::io::Error::last_os_error()))
    }
}

fn cmd_measure(argv: &[String]) -> Result<ExitCode, String> {
    let [out, program, args @ ..] = argv else {
        return Err("measure needs <out.json> <program> [args...]".to_owned());
    };
    let t0 = Instant::now();
    let status = Command::new(program)
        .args(args)
        .status()
        .map_err(|e| format!("cannot run {program}: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    let json = Json::obj(vec![
        ("wall_s".to_owned(), wall.to_json()),
        ("maxrss_kib".to_owned(), children_maxrss_kib()?.to_json()),
    ]);
    fs::write(out, json.dump()).map_err(|e| format!("cannot write {out}: {e}"))?;
    // A child killed by a signal has no code; report it as failed.
    let code = status.code().map_or(1, |c| u8::try_from(c).unwrap_or(1));
    Ok(ExitCode::from(code))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: layers setup|inproc|ledger|measure ...");
        return ExitCode::from(2);
    };
    if cmd == "measure" {
        return cmd_measure(rest).unwrap_or_else(|e| {
            eprintln!("layers: {e}");
            ExitCode::FAILURE
        });
    }
    let result = parse_args(rest).and_then(|args| {
        simcore::par::set_default_jobs(args.jobs);
        match cmd.as_str() {
            "setup" => cmd_setup(&args),
            "inproc" => cmd_inproc(&args),
            "ledger" => cmd_ledger(&args),
            other => Err(format!("unknown subcommand `{other}`")),
        }
    });
    match result {
        Ok(json) => {
            println!("{}", json.dump());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("layers: {e}");
            ExitCode::FAILURE
        }
    }
}
