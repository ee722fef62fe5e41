#!/usr/bin/env python3
"""Fleet benchmark harness.

    python3 perfbench/run.py --workload <clean_mp3|faulted_monitored|traced_io>
                             [--seed N] [--seconds S] [--trace 0|1]

Builds `dvsdpm`, `tracecat` and the `layers` ledger from source, writes
the workload's fleet spec with `base_seed` = `--seed`, and then:

* `--trace 0` drives the real binaries for `--seconds` seconds as a
  closed loop (one `dvsdpm fleet --jobs 1` process at a time) and
  prints the end-to-end metrics;
* `--trace 1` runs the traced ledger, which replays the same devices
  through the layers' public functions with a span around every call,
  and prints the per-layer metrics.

Both modes check the program's outputs (report digests, jobs-1 vs
jobs-N bytes, online vs offline assertion verdicts, the ledger's
rebuilt report) and end with one JSON line:
`{"correct", "attempted", "failed", "metrics"}`.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
DIGESTS = HERE / "digests.json"

# `ledger.unaccounted_share` above this fails the traced run: the layer
# self times must add up to the in-process end-to-end time within it.
LEDGER_SLACK = 0.02

# The host's speed drifts by up to 2x over seconds to minutes on shared
# machines. A fixed reference loop (HOST_REF_CODE) is timed before and
# after each measured step; the step's time is scaled by (mean reference
# time / this nominal), so the end-to-end metrics read as on a host
# where the reference takes HOST_REF_NOMINAL_S.
HOST_REF_NOMINAL_S = 0.075

# Cold set-up probes per fleet run in the measuring loop; set-up is
# reported as the median of all of them.
SETUP_PROBES_PER_REP = 3
MIN_REPS = 5
# Minimum rounds of (jobs 1, in-process, jobs N) fleet runs in the
# traced run.
TRACED_REPS = 3

PAPER_ASSERTIONS = {
    "delay": {"bound_s": 0.2, "tolerance": 4.0},
    "oscillation": {"max_switches": 40, "window_s": 1.0},
    "occupancy": {"max": 64},
    "energy_monotone": True,
}


def policy(governor, dpm):
    return {"governor": governor, "dpm": dpm}


# Why each workload exists is in README.md. `replay_devices` is how many
# of the fleet's first devices a separate traced run writes for
# `tracecat assert` to read back, for workloads whose measured fleet
# writes no traces itself.
WORKLOADS = {
    "clean_mp3": {
        "spec": {
            "devices": 600,
            "workloads": ["mp3:A"],
            "policies": [
                policy("change-point", "break-even"),
                policy("ema:0.05", "timeout:1.0"),
                policy("max", "none"),
            ],
            "faults": ["off"],
        },
        "traced": False,
        "replay_devices": 12,
    },
    "faulted_monitored": {
        "spec": {
            "devices": 54,
            "workloads": ["mpeg:football", "session", "mp3:ACEFBD"],
            "policies": [
                policy("change-point", "tismdp"),
                policy("change-point", "renewal"),
                policy("ema:0.05", "timeout:1.0"),
            ],
            "faults": ["off", "wlan", "all"],
            "on_error": "continue",
            "assertions": PAPER_ASSERTIONS,
        },
        "traced": False,
        "replay_devices": 6,
    },
    "traced_io": {
        "spec": {
            "devices": 8,
            "workloads": ["mp3:ACEFBD", "session"],
            "policies": [
                policy("change-point", "tismdp"),
                policy("ema:0.05", "timeout:1.0"),
            ],
            "faults": ["off", "wlan"],
            "on_error": "continue",
            "assertions": PAPER_ASSERTIONS,
        },
        # Traces plus a checkpoint after every two-device batch.
        "traced": True,
        "batch": 2,
    },
}

END_TO_END_UNITS = {
    "devices_per_s": "devices/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "replay_mb_per_s": "MB/s",
}


class BenchError(Exception):
    """The benchmark cannot run or cannot finish; no result is printed."""


def log(message):
    print(message, flush=True)


class Runner:
    """Starts one child at a time from the repository root, waits for
    it, and keeps its wall time and peak RSS.

    Each child is launched through `layers measure`: a child's
    `ru_maxrss` counts the RSS of the process that forked it, and this
    Python process is larger than the programs it measures."""

    def __init__(self, work, launcher):
        self.work = work
        self.launcher = launcher
        self.count = 0

    def run(self, argv, check=True):
        """Runs `argv` to completion; returns (wall_s, rss_mib, code, stdout)."""
        self.count += 1
        out_path = self.work / f"child_{self.count}.out"
        err_path = self.work / f"child_{self.count}.err"
        usage_path = self.work / f"child_{self.count}.usage"
        launch = [self.launcher, "measure", usage_path, *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            # A session of its own, so an interrupted run can stop the
            # measured program along with its launcher.
            proc = subprocess.Popen([str(a) for a in launch], cwd=ROOT, stdout=out, stderr=err,
                                    start_new_session=True)
            try:
                code = proc.wait()
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        stdout = out_path.read_text()
        if check and code != 0:
            raise BenchError(
                f"{' '.join(map(str, argv))} exited {code}: " + err_path.read_text()[-2000:]
            )
        usage = json.loads(usage_path.read_text())
        for path in (out_path, err_path, usage_path):
            path.unlink()
        return usage["wall_s"], usage["maxrss_kib"] / 1024.0, code, stdout


def build(target):
    """Builds the two binaries users run and the ledger, release mode."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "fleet").is_dir():
        raise BenchError(f"no dvs-dpm source tree at {ROOT}")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for argv in (
        ["cargo", "build", "--release", "--offline", "--bin", "dvsdpm", "--bin", "tracecat"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         "perfbench/layers/Cargo.toml"],
    ):
        result = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            raise BenchError(f"{' '.join(argv)} failed with exit code {result.returncode}")
    release = target / "release"
    return {name: release / name for name in ("dvsdpm", "tracecat", "layers")}


# A fixed pure-Python loop of dict updates and string formatting, run
# in a fresh interpreter. It depends on nothing in the repository, so its
# time moves only with the host. Of the references tried (this loop, and
# native kernels of memory, arithmetic or event-queue work), it tracked
# the fleet's host-speed drift best: over six minutes it cut the spread
# of 32-second medians of `dvsdpm fleet` wall time from 0.15 to 0.024.
HOST_REF_CODE = """
import time
t0 = time.perf_counter()
table = {}
chars = 0
for i in range(100_000):
    key = (i * 2654435761) & 0xFFFF
    table[key] = table.get(key, 0) + i
    if i % 3 == 0:
        chars += len(str(i))
print(time.perf_counter() - t0)
"""


def host_record(seed):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "cpu_model": cpu,
        "rustc": rustc,
        "seed": seed,
    }


class Fleet:
    """One workload's spec on disk plus the commands that run it."""

    def __init__(self, name, seed, work, bins):
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.work = work
        self.bins = bins
        self.devices = self.workload["spec"]["devices"]
        self.spec_path = self.write_spec("spec.json", self.devices)
        self.assert_config = work / "assertions.json"
        self.assert_config.write_text(json.dumps(PAPER_ASSERTIONS))

    def write_spec(self, filename, devices, extra=None):
        """Writes the workload's spec, or a variant of it, with `base_seed` = the seed."""
        spec = {"name": self.name, **self.workload["spec"], **(extra or {})}
        spec["devices"] = devices
        spec["base_seed"] = self.seed
        path = self.work / filename
        path.write_text(json.dumps(spec, indent=2))
        return path

    def dirs(self, tag):
        """Trace and checkpoint directories of one fleet run, emptied."""
        if not self.workload["traced"]:
            return None
        trace_dir = self.work / f"traces_{tag}"
        ckpt_dir = self.work / f"ckpt_{tag}"
        for d in (trace_dir, ckpt_dir):
            shutil.rmtree(d, ignore_errors=True)
        return trace_dir, ckpt_dir

    def options(self, dirs):
        if dirs is None:
            return []
        trace_dir, ckpt_dir = dirs
        return ["--trace-dir", trace_dir, "--checkpoint", ckpt_dir,
                "--checkpoint-every", "1", "--batch", str(self.workload["batch"])]

    def cli(self, runner, jobs, report, dirs):
        argv = [self.bins["dvsdpm"], "fleet", "--spec", self.spec_path,
                "--jobs", jobs, "--json", report, *self.options(dirs)]
        wall, rss, code, _ = runner.run(argv, check=False)
        if code not in (0, 2):
            raise BenchError(f"dvsdpm fleet exited {code} on {self.name}")
        return wall, rss, report.read_bytes()


def failed_devices(report_bytes):
    return json.loads(report_bytes)["health"]["failed"]


def trace_files(trace_dir):
    return sorted(trace_dir.glob("device_*.jsonl"))


def replay(runner, fleet, trace_dir, report_bytes, checks):
    """`tracecat assert` over every device trace in `trace_dir`; each
    verdict must equal the online monitor's verdict for that device in
    the report. Returns (bytes read, wall seconds, peak RSS MiB)."""
    online = {r["device"]: r.get("assertions") for r in json.loads(report_bytes)["records"]}
    total_bytes, total_wall, peak = 0, 0.0, 0.0
    for path in trace_files(trace_dir):
        device = int(path.stem.split("_")[1])
        wall, rss, code, stdout = runner.run(
            [fleet.bins["tracecat"], "assert", "--json", "--config", fleet.assert_config, path],
            check=False,
        )
        total_bytes += path.stat().st_size
        total_wall += wall
        peak = max(peak, rss)
        if not checks.require(code in (0, 3), f"tracecat assert {path.name} exited {code}"):
            continue
        verdict = json.loads(stdout)
        offline = {k: v["violations"] for k, v in verdict.items()}
        checks.require(offline == online.get(device),
                       f"{path.name}: offline verdict {offline} != online {online.get(device)}")
    return total_bytes, total_wall, peak


def check_digest(fleet, report_bytes, checks):
    """Pins the default seed's jobs-1 report digest."""
    if fleet.seed != DEFAULT_SEED:
        return
    pinned = json.loads(DIGESTS.read_text())[fleet.name]
    checks.pinned_digest(report_bytes, pinned, f"{fleet.name} seed {DEFAULT_SEED} report")


def par_jobs():
    """The jobs-N setting: the host's cores, at least two so the
    parallel engine always runs."""
    return max(os.cpu_count() or 1, 2)


def measure_end_to_end(fleet, runner, seconds, checks):
    w = fleet.workload
    replay_dir = None
    if not w["traced"]:
        # The measured fleet writes no traces, so replay reads those of
        # the fleet's first devices, written once here with a monitor
        # attached so each has an online verdict to compare against.
        replay_dir = fleet.work / "replay_traces"
        sample = fleet.write_spec("replay_spec.json", w["replay_devices"],
                                  {"assertions": PAPER_ASSERTIONS})
        argv = [fleet.bins["dvsdpm"], "fleet", "--spec", sample, "--jobs", "1",
                "--json", fleet.work / "replay_report.json", "--trace-dir", replay_dir]
        runner.run(argv)
        replay_report = (fleet.work / "replay_report.json").read_bytes()
        checks.devices(w["replay_devices"], failed_devices(replay_report))

    def host_ref():
        return float(runner.run([sys.executable, "-c", HOST_REF_CODE])[3])

    host_refs = [host_ref()]

    def slowdown():
        """Times the reference loop again; returns how much slower than
        nominal the host ran since the previous time (> 1 when slower)."""
        host_refs.append(host_ref())
        return (host_refs[-2] + host_refs[-1]) / 2 / HOST_REF_NOMINAL_S

    report_path = fleet.work / "report_j1.json"
    samples = {name: [] for name in END_TO_END_UNITS}
    raw = {name: [] for name in END_TO_END_UNITS}
    reference = None
    reps = 0
    deadline = time.perf_counter() + seconds
    while reps < MIN_REPS or time.perf_counter() < deadline:
        reps += 1
        dirs = fleet.dirs("j1")
        wall, peak, report = fleet.cli(runner, 1, report_path, dirs)
        fleet_scale = slowdown()
        if reference is None:
            reference = report
        else:
            checks.same_bytes(report, reference, "repeated jobs-1 run")
        checks.devices(fleet.devices, failed_devices(report))

        setups = []
        for _ in range(SETUP_PROBES_PER_REP):
            _, rss, _, out = runner.run([fleet.bins["layers"], "setup", "--spec", fleet.spec_path])
            setups.append(json.loads(out)["setup_s"])
            peak = max(peak, rss)
        setup_scale = slowdown()

        if w["traced"]:
            nbytes, rwall, rss = replay(runner, fleet, dirs[0], report, checks)
        else:
            nbytes, rwall, rss = replay(runner, fleet, replay_dir, replay_report, checks)
        replay_scale = slowdown()

        for scaled, bucket in ((True, samples), (False, raw)):
            f, s, r = (fleet_scale, setup_scale, replay_scale) if scaled else (1.0, 1.0, 1.0)
            bucket["devices_per_s"].append(fleet.devices / (wall / f))
            bucket["setup_s"].extend(v / s for v in setups)
            bucket["replay_mb_per_s"].append(nbytes / (rwall / r) / 1e6)
            bucket["peak_rss_mb"].append(max(peak, rss))

    # Jobs-N must produce the same bytes, traces included.
    jn_dirs = fleet.dirs("jn")
    _, _, report_jn = fleet.cli(runner, par_jobs(), fleet.work / "report_jn.json", jn_dirs)
    checks.same_bytes(report_jn, reference, f"jobs-{par_jobs()} report vs jobs-1")
    if w["traced"]:
        compare_traces(fleet.work / "traces_j1", jn_dirs[0], checks, f"jobs-{par_jobs()}")
    check_digest(fleet, reference, checks)

    metrics = {name: benchlib.median(values) for name, values in samples.items()}
    log(f"{fleet.name}: {reps} closed-loop fleet runs x {fleet.devices} devices at jobs 1, "
        f"{len(samples['setup_s'])} cold set-up probes; host reference median "
        f"{benchlib.median(host_refs):.4g} s (nominal {HOST_REF_NOMINAL_S} s)")
    for name, values in samples.items():
        q1, q3 = benchlib.quartiles(values)
        tail = benchlib.tail_percentile(values)
        tail_text = f", p{tail[0]} {tail[1]:.6g}" if tail else ""
        log(f"  {name:<16} median {metrics[name]:.6g} {END_TO_END_UNITS[name]}"
            f"  (q1 {q1:.6g}, q3 {q3:.6g}{tail_text}, n {len(values)};"
            f" unscaled median {benchlib.median(raw[name]):.6g})")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def compare_traces(dir_a, dir_b, checks, what):
    files_a = [p.name for p in trace_files(dir_a)]
    files_b = [p.name for p in trace_files(dir_b)]
    if not checks.require(files_a == files_b, f"{what}: trace file sets differ"):
        return
    for name in files_a:
        checks.same_bytes((dir_b / name).read_bytes(), (dir_a / name).read_bytes(),
                          f"{what}: {name}")


def measure_layers(fleet, runner, seconds, checks):
    w = fleet.workload
    n = par_jobs()
    # Host speed drifts over seconds, so each quantity compared with
    # another comes from runs made back to back: jobs 1, the same fleet
    # in-process, jobs N.
    walls = {1: [], n: []}
    inproc = []
    reference = None
    deadline = time.perf_counter() + seconds
    while len(inproc) < TRACED_REPS or time.perf_counter() < deadline:
        wall, _, report = fleet.cli(runner, 1, fleet.work / "report_j1.json", fleet.dirs("j1"))
        walls[1].append(wall)
        if reference is None:
            reference = report
            checks.devices(fleet.devices, failed_devices(report))
        else:
            checks.same_bytes(report, reference, "repeated jobs-1 run")
        argv = [fleet.bins["layers"], "inproc", "--spec", fleet.spec_path, "--jobs", "1",
                *fleet.options(fleet.dirs("inproc"))]
        inproc.append(json.loads(runner.run(argv)[3])["run_fleet_s"])
        wall, _, report = fleet.cli(runner, n, fleet.work / f"report_j{n}.json",
                                    fleet.dirs(f"j{n}"))
        walls[n].append(wall)
        checks.same_bytes(report, reference, f"jobs-{n} report vs jobs-1")
    check_digest(fleet, reference, checks)

    dirs = fleet.dirs("ledger")
    spans_path = fleet.work / "spans.json"
    ledger_report = fleet.work / "ledger_report.json"
    for d in (fleet.work / "traces_ledger_untraced", fleet.work / "ckpt_ledger_untraced"):
        shutil.rmtree(d, ignore_errors=True)
    argv = [fleet.bins["layers"], "ledger", "--spec", fleet.spec_path, "--report", ledger_report,
            "--spans", spans_path, *fleet.options(dirs)]
    led = json.loads(runner.run(argv)[3])
    checks.same_bytes(ledger_report.read_bytes(), reference, "ledger rebuilt report vs CLI")
    checks.require(led["untraced_report_identical"], "in-process untraced report vs ledger")
    checks.require(led["replay_mismatches"] == 0,
                   f"{led['replay_mismatches']} offline verdicts differ from online")
    if w["traced"]:
        compare_traces(fleet.work / "traces_j1", dirs[0], checks, "ledger traces vs CLI")
        checks.same_bytes((dirs[1] / "fleet.ckpt").read_bytes(),
                          (fleet.work / "ckpt_j1" / "fleet.ckpt").read_bytes(),
                          "ledger final checkpoint vs CLI")

    doc = json.loads(spans_path.read_text())
    spans = doc["spans"]
    window_ns = doc["window_end_ns"] - doc["window_start_ns"]
    self_s = benchlib.self_time_by_name(spans)
    unaccounted = benchlib.unaccounted_share(spans, window_ns)
    overhead = led["tracing_overhead_share"]
    checks.require(unaccounted <= LEDGER_SLACK,
                   f"ledger.unaccounted_share {unaccounted:.4f} exceeds slack {LEDGER_SLACK}")

    def s(name):
        return self_s.get(name, 0.0)

    monitor_s = led["monitor_with_s"] - led["monitor_without_s"]
    kernel_s = s("core.kernel") - monitor_s
    device_ms = benchlib.durations_ms(spans, "fleet.device")
    tail = benchlib.tail_percentile(device_ms)
    j1 = benchlib.median(walls[1])
    jn = benchlib.median(walls[n])
    speedup = benchlib.median([a / b for a, b in zip(walls[1], walls[n])])
    process_overhead = benchlib.median([a - b for a, b in zip(walls[1], inproc)])
    hits, misses = led["cache_hits"], led["cache_misses"]
    sink_s = s("trace.sink_write")

    metrics = {
        "workload.build_s": (s("workload.build"), "s"),
        "workload.frames": (led["frames"], "count"),
        "workload.build_ns_per_frame": (s("workload.build") / led["frames"] * 1e9, "ns/frame"),
        "core.kernel_s": (kernel_s, "s"),
        "core.events": (led["events"], "count"),
        "core.ns_per_event": (kernel_s / led["events"] * 1e9, "ns/event"),
        "trace.monitor_s": (monitor_s, "s"),
        "trace.sink_write_s": (sink_s, "s"),
        "trace.bytes_written": (led["bytes_written"], "bytes"),
        "trace.write_mb_per_s": (led["bytes_written"] / sink_s / 1e6 if sink_s else 0.0, "MB/s"),
        "trace.replay_s": (s("trace.replay"), "s"),
        "detect.calibrate_s": (s("detect.calibrate"), "s"),
        "detect.cache_hits": (hits, "count"),
        "detect.cache_misses": (misses, "count"),
        "detect.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "fleet.spec_parse_s": (s("fleet.spec_parse"), "s"),
        "fleet.probe_s": (s("fleet.probe"), "s"),
        "fleet.fold_s": (s("fleet.fold"), "s"),
        "fleet.supervise_s": (s("fleet.device"), "s"),
        "fleet.report_json_s": (s("fleet.report_json"), "s"),
        "fleet.report_bytes": (led["report_bytes"], "bytes"),
        "fleet.checkpoint_write_s": (s("fleet.checkpoint_write"), "s"),
        "fleet.checkpoint_bytes": (led["checkpoint_bytes"], "bytes"),
        "fleet.retries": (led["retries"], "count"),
        "fleet.device_ms_p50": (benchlib.percentile(device_ms, 50), "ms"),
        "fleet.device_ms_p99": (benchlib.percentile(device_ms, 99), "ms"),
        # 0 and 0 when no percentile has ten devices beyond it.
        "fleet.device_ms_tail": (tail[1] if tail else 0.0, "ms"),
        "fleet.device_ms_tail_pct": (tail[0] if tail else 0, "percentile"),
        "fleet.device_samples": (len(device_ms), "count"),
        "simcore.par.devices_per_s_jN": (fleet.devices / jn, "devices/s"),
        "simcore.par.efficiency": (speedup / n, "ratio"),
        "cli.process_overhead_s": (process_overhead, "s"),
        "ledger.unaccounted_share": (unaccounted, "ratio"),
        "ledger.tracing_overhead_share": (overhead, "ratio"),
    }
    log(f"{fleet.name}: traced ledger over {fleet.devices} devices "
        f"(window {window_ns * 1e-9:.3f} s, {len(spans)} spans)")
    log(f"  ledger.unaccounted_share {unaccounted:.5f} (slack {LEDGER_SLACK})"
        f"  ledger.tracing_overhead_share {overhead:.5f}")
    log(f"  jobs-{n} row: oversubscribed {n > (os.cpu_count() or 1)}, "
        f"jobs-1 median {j1:.4f} s, jobs-{n} median {jn:.4f} s")
    for name, (value, unit) in metrics.items():
        log(f"  {name:<32} {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # On SIGTERM, unwind: the running child is killed and reaped, and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        bins = build(target)
        host = host_record(args.seed)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = Runner(work, bins["layers"])
        fleet = Fleet(args.workload, args.seed, work, bins)
        checks = benchlib.Checks()
        if args.trace:
            metrics = measure_layers(fleet, runner, args.seconds, checks)
        else:
            metrics = measure_end_to_end(fleet, runner, args.seconds, checks)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    host["loadavg_after"] = list(os.getloadavg())
    host["jobs_n"] = par_jobs()
    host["oversubscribed"] = par_jobs() > (os.cpu_count() or 1)
    for message in checks.messages:
        log(f"CHECK FAILED: {message}")
    log(f"failed_share {checks.failed / checks.attempted:.6g} "
        f"({checks.failed} of {checks.attempted} operations)")
    log("host " + json.dumps(host))
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
