//! `tracecat` — inspect and replay `dvsdpm` JSONL event traces.
//!
//! ```text
//! tracecat summary trace.jsonl
//! tracecat filter --kinds freq,sleep trace.jsonl
//! tracecat freq-table trace.jsonl
//! tracecat replay [--json] [--check report.json] trace.jsonl
//! tracecat assert [--json] [--config assertions.json] trace.jsonl
//! ```
//!
//! * `summary` — event counts by kind and the covered time range.
//! * `filter` — re-emit only the listed event kinds as JSONL on stdout.
//! * `freq-table` — the paper's Figure 6 view reconstructed from events
//!   alone: every frequency transition with its timestamp, plus the
//!   per-frequency decode residency.
//! * `replay` — integrate the events into run aggregates
//!   ([`trace::ReplaySummary`]); with `--check`, compare them against a
//!   `SimReport` JSON written by `dvsdpm run --json` and exit non-zero
//!   on any mismatch. Counters must match exactly and residency times
//!   bit-for-bit — the simulator and the replay share the same
//!   integer-nanosecond accumulation.
//! * `assert` — replay the trace through the same
//!   [`trace::AssertionMonitor`] the simulator attaches online (paper
//!   defaults, or a `--config` JSON `assertions` block) and print the
//!   verdict. Exit 0 when every invariant held, 3 on violations, 1 on
//!   any error.
//!
//! Both `replay` and `assert` *reject* out-of-time-order traces with an
//! error naming the first offending pair: a disordered trace is treated
//! as corrupt, never silently re-sorted.
//!
//! Output goes through one buffered stdout handle. When the reader
//! closes the pipe early (`tracecat filter … | head -1`), every
//! subcommand stops quietly and exits 0; any other write error exits 1.

use simcore::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use trace::{
    parse_jsonl, replay, AssertionConfig, AssertionMonitor, Event, KindSet, ReplaySummary,
};

/// Exit code for a trace that parses and replays cleanly but violates
/// at least one assertion (distinct from `1`, any hard error).
const EXIT_VIOLATIONS: u8 = 3;

/// Why a subcommand stopped before finishing.
#[derive(Debug)]
enum Failure {
    /// Bad usage, unreadable input or a failed check.
    Error(String),
    /// Writing stdout failed.
    Output(io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Error(message)
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::Output(e)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Error(message) => f.write_str(message),
            Failure::Output(e) => write!(f, "cannot write to stdout: {e}"),
        }
    }
}

fn load(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_summary(out: &mut dyn Write, events: &[Event]) -> io::Result<()> {
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ev in events {
        *by_kind.entry(ev.name()).or_insert(0) += 1;
    }
    writeln!(out, "events: {}", events.len())?;
    for (name, count) in &by_kind {
        writeln!(out, "  {name:<12} {count}")?;
    }
    if let (Some(first), Some(last)) = (events.first(), events.last()) {
        writeln!(
            out,
            "span  : {:.6} s .. {:.6} s",
            first.at().as_secs_f64(),
            last.at().as_secs_f64()
        )?;
    }
    let s = replay(events);
    for (mode, secs) in s.mode_secs() {
        writeln!(out, "mode  : {:<8} {secs:.6} s", mode.label())?;
    }
    Ok(())
}

fn cmd_filter(out: &mut dyn Write, events: &[Event], keep: KindSet) -> io::Result<()> {
    let mut line = String::new();
    for ev in events {
        if keep.contains(ev.kind()) {
            line.clear();
            ev.write_jsonl(&mut line);
            out.write_all(line.as_bytes())?;
        }
    }
    Ok(())
}

/// Prints the Figure 6 view: the decode frequency each time it changes,
/// reconstructed purely from `decode_start` and `freq_switch` events.
fn cmd_freq_table(out: &mut dyn Write, events: &[Event]) -> io::Result<()> {
    writeln!(out, "{:>12}  {:>10}", "t_s", "freq_mhz")?;
    let mut current: Option<u32> = None;
    for ev in events {
        let (at, tenths) = match *ev {
            Event::DecodeStart {
                at,
                freq_tenths_mhz,
            } => (at, freq_tenths_mhz),
            Event::FreqSwitch {
                at, to_tenths_mhz, ..
            } => (at, to_tenths_mhz),
            _ => continue,
        };
        if current != Some(tenths) {
            writeln!(
                out,
                "{:>12.6}  {:>10.1}",
                at.as_secs_f64(),
                f64::from(tenths) / 10.0
            )?;
            current = Some(tenths);
        }
    }
    let s = replay(events);
    writeln!(out)?;
    writeln!(out, "{:>10}  {:>14}", "freq_mhz", "decode_secs")?;
    for (tenths, secs) in s.freq_secs() {
        writeln!(out, "{:>10.1}  {secs:>14.6}", f64::from(tenths) / 10.0)?;
    }
    Ok(())
}

/// Compares a replayed summary against a `SimReport` JSON object and
/// returns a human-readable line per mismatch (empty = consistent).
fn check_against_report(summary: &ReplaySummary, report: &Json) -> Vec<String> {
    let mut mismatches = Vec::new();
    let counter = |name: &str| report.get(name).and_then(Json::as_u64);
    let pairs: [(&str, u64); 5] = [
        ("frames_completed", summary.frames_completed),
        ("freq_switches", summary.freq_switches),
        ("rate_changes", summary.rate_changes),
        ("sleeps", summary.sleeps),
        ("wakes", summary.wakes),
    ];
    for (name, replayed) in pairs {
        match counter(name) {
            Some(reported) if reported == replayed => {}
            got => mismatches.push(format!("{name}: trace {replayed}, report {got:?}")),
        }
    }
    let duration = report.get("duration_secs").and_then(Json::as_f64);
    if duration != Some(summary.duration_secs()) {
        mismatches.push(format!(
            "duration_secs: trace {}, report {duration:?}",
            summary.duration_secs()
        ));
    }
    let mean = report
        .get("frame_delays")
        .and_then(|d| d.get("mean"))
        .and_then(Json::as_f64);
    if mean != Some(summary.delays.mean()) {
        mismatches.push(format!(
            "mean frame delay: trace {}, report {mean:?}",
            summary.delays.mean()
        ));
    }
    let modes = summary.mode_secs();
    if let Some(Json::Obj(entries)) = report.get("mode_secs") {
        for (label, value) in entries {
            let reported = value.as_f64();
            let replayed = modes
                .iter()
                .find(|(m, _)| m.label() == label)
                .map(|(_, &s)| s);
            if reported != replayed {
                mismatches.push(format!(
                    "mode_secs[{label}]: trace {replayed:?}, report {reported:?}"
                ));
            }
        }
    }
    let freqs = summary.freq_secs();
    if let Some(Json::Obj(entries)) = report.get("freq_residency") {
        for (key, value) in entries {
            let replayed = key.parse::<u32>().ok().and_then(|k| freqs.get(&k).copied());
            if value.as_f64() != replayed {
                mismatches.push(format!(
                    "freq_residency[{key}]: trace {replayed:?}, report {:?}",
                    value.as_f64()
                ));
            }
        }
    }
    mismatches
}

fn cmd_replay(
    out: &mut dyn Write,
    events: &[Event],
    as_json: bool,
    check: Option<&str>,
) -> Result<(), Failure> {
    trace::ensure_time_ordered(events)?;
    let summary = replay(events);
    if as_json {
        writeln!(out, "{}", summary.to_json().pretty())?;
    } else {
        writeln!(
            out,
            "frames {} | switches {} | rate changes {} | sleeps {} | wakes {} | {:.3} s",
            summary.frames_completed,
            summary.freq_switches,
            summary.rate_changes,
            summary.sleeps,
            summary.wakes,
            summary.duration_secs()
        )?;
        for (mode, secs) in summary.mode_secs() {
            writeln!(out, "  {:<8} {secs:.6} s", mode.label())?;
        }
    }
    if let Some(path) = check {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let report = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let mismatches = check_against_report(&summary, &report);
        if mismatches.is_empty() {
            writeln!(out, "[check] trace is consistent with {path}")?;
        } else {
            out.flush()?;
            for m in &mismatches {
                eprintln!("[check] MISMATCH {m}");
            }
            return Err(Failure::Error(format!(
                "trace disagrees with {path} on {} aggregate(s)",
                mismatches.len()
            )));
        }
    }
    Ok(())
}

/// Replays the trace through the shared invariant definitions and
/// prints the verdict. Returns the process exit code: `0` clean,
/// [`EXIT_VIOLATIONS`] when any invariant tripped.
fn cmd_assert(
    out: &mut dyn Write,
    events: &[Event],
    config: &AssertionConfig,
    as_json: bool,
) -> Result<u8, Failure> {
    let report = AssertionMonitor::check(config, events)?;
    if as_json {
        writeln!(out, "{}", report.to_json().pretty())?;
    } else {
        writeln!(out, "{report}")?;
    }
    Ok(if report.is_clean() {
        0
    } else {
        EXIT_VIOLATIONS
    })
}

/// Loads an assertion config from a JSON file holding the same
/// `assertions` block a fleet spec embeds.
fn load_assert_config(path: &str) -> Result<AssertionConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    AssertionConfig::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

fn usage() -> &'static str {
    "usage: tracecat summary <trace.jsonl>\n       \
     tracecat filter --kinds <k1,k2,...> <trace.jsonl>\n       \
     tracecat freq-table <trace.jsonl>\n       \
     tracecat replay [--json] [--check <report.json>] <trace.jsonl>\n       \
     tracecat assert [--json] [--config <assertions.json>] <trace.jsonl>"
}

/// Parses the `[--json] [--<flag> <value>] <path>` tail shared by
/// `replay` and `assert`; returns (json, flag value, trace path).
fn parse_tail(args: &[String], flag: &str) -> Result<(bool, Option<String>, String), String> {
    let mut as_json = false;
    let mut value = None;
    let mut path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => as_json = true,
            a if a == flag => {
                value = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{flag} needs a path"))?,
                );
            }
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument `{other}`\n{}", usage())),
        }
    }
    Ok((as_json, value, path.ok_or_else(|| usage().to_owned())?))
}

/// Runs one subcommand, writing its output to `out` (buffered: the
/// caller flushes). Returns the exit code.
fn run(out: &mut dyn Write, args: &[String]) -> Result<u8, Failure> {
    let usage = || Failure::Error(usage().to_owned());
    match args.first().map(String::as_str) {
        Some("summary") => {
            let [path] = &args[1..] else {
                return Err(usage());
            };
            cmd_summary(out, &load(path)?)?;
            Ok(0)
        }
        Some("filter") => match &args[1..] {
            [kinds_flag, kinds, path] if kinds_flag == "--kinds" => {
                let keep = KindSet::parse(kinds)?;
                cmd_filter(out, &load(path)?, keep)?;
                Ok(0)
            }
            _ => Err(usage()),
        },
        Some("freq-table") => {
            let [path] = &args[1..] else {
                return Err(usage());
            };
            cmd_freq_table(out, &load(path)?)?;
            Ok(0)
        }
        Some("replay") => {
            let (as_json, check, path) = parse_tail(&args[1..], "--check")?;
            cmd_replay(out, &load(&path)?, as_json, check.as_deref())?;
            Ok(0)
        }
        Some("assert") => {
            let (as_json, config_path, path) = parse_tail(&args[1..], "--config")?;
            let config = match config_path {
                Some(p) => load_assert_config(&p)?,
                None => AssertionConfig::paper(),
            };
            cmd_assert(out, &load(&path)?, &config, as_json)
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = BufWriter::new(io::stdout().lock());
    let result = run(&mut out, &args).and_then(|code| {
        out.flush()?;
        Ok(code)
    });
    match result {
        Ok(code) => ExitCode::from(code),
        // The reader closed the pipe: it has all the output it wants.
        Err(Failure::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            // Best effort: whatever stdout still holds goes before the error.
            let _ = out.flush();
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::{SimDuration, SimTime};
    use trace::SleepKind;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStart { at: t(0) },
            Event::IdleEnter { at: t(0) },
            Event::DecodeStart {
                at: t(1_000),
                freq_tenths_mhz: 2212,
            },
            Event::FrameDone {
                at: t(3_000),
                delay_s: 2e-6,
                freq_tenths_mhz: 2212,
            },
            Event::IdleEnter { at: t(3_000) },
            Event::SleepEnter {
                at: t(5_000),
                state: SleepKind::Standby,
            },
            Event::WakeStart {
                at: t(8_000),
                latency: SimDuration::from_nanos(500),
            },
            Event::IdleEnter { at: t(8_500) },
            Event::RunEnd { at: t(10_000) },
        ]
    }

    #[test]
    fn check_accepts_a_consistent_report() {
        let summary = replay(&sample_events());
        // A minimal SimReport-shaped JSON carrying exactly the replayed
        // aggregates must produce no mismatches.
        let report = Json::obj(vec![
            ("frames_completed".into(), 1u64.to_json()),
            ("freq_switches".into(), 0u64.to_json()),
            ("rate_changes".into(), 0u64.to_json()),
            ("sleeps".into(), 1u64.to_json()),
            ("wakes".into(), 1u64.to_json()),
            ("duration_secs".into(), summary.duration_secs().to_json()),
            (
                "frame_delays".into(),
                Json::obj(vec![("mean".into(), summary.delays.mean().to_json())]),
            ),
            (
                "mode_secs".into(),
                Json::obj(
                    summary
                        .mode_secs()
                        .into_iter()
                        .map(|(m, s)| (m.label().to_owned(), s.to_json()))
                        .collect(),
                ),
            ),
            (
                "freq_residency".into(),
                Json::obj(
                    summary
                        .freq_secs()
                        .into_iter()
                        .map(|(k, s)| (k.to_string(), s.to_json()))
                        .collect(),
                ),
            ),
        ]);
        assert_eq!(
            check_against_report(&summary, &report),
            Vec::<String>::new()
        );
    }

    #[test]
    fn check_flags_counter_and_residency_drift() {
        let summary = replay(&sample_events());
        let report = Json::obj(vec![
            ("frames_completed".into(), 2u64.to_json()),
            ("freq_switches".into(), 0u64.to_json()),
            ("rate_changes".into(), 0u64.to_json()),
            ("sleeps".into(), 1u64.to_json()),
            ("wakes".into(), 1u64.to_json()),
            ("duration_secs".into(), summary.duration_secs().to_json()),
            (
                "mode_secs".into(),
                Json::obj(vec![("decoding".into(), 123.0.to_json())]),
            ),
        ]);
        let mismatches = check_against_report(&summary, &report);
        assert!(mismatches.iter().any(|m| m.contains("frames_completed")));
        assert!(mismatches.iter().any(|m| m.contains("mode_secs[decoding]")));
        // The absent frame_delays object also counts as a mismatch.
        assert!(mismatches.iter().any(|m| m.contains("mean frame delay")));
    }

    #[test]
    fn cli_shape_is_validated() {
        let run = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
            run(&mut io::sink(), &args)
        };
        assert!(run(&[]).is_err());
        assert!(run(&["summarize"]).is_err());
        assert!(run(&["summary"]).is_err());
        assert!(run(&["filter", "--kinds", "freq"]).is_err());
        assert!(run(&["replay", "--check"]).is_err());
        assert!(run(&["replay", "/nonexistent/trace.jsonl"]).is_err());
        assert!(run(&["assert", "--config"]).is_err());
        assert!(run(&["assert", "/nonexistent/trace.jsonl"]).is_err());
    }

    #[test]
    fn replay_rejects_out_of_order_traces() {
        let mut events = sample_events();
        events.swap(2, 3); // frame_done now precedes its decode_start
        let err = cmd_replay(&mut io::sink(), &events, false, None)
            .expect_err("disordered trace")
            .to_string();
        assert!(err.contains("out of time order"), "{err}");
        // The same trace in order replays fine.
        cmd_replay(&mut io::sink(), &sample_events(), false, None).expect("ordered trace");
    }

    #[test]
    fn filter_writes_the_kept_events_as_jsonl() {
        let mut out = Vec::new();
        let keep = KindSet::parse("run,sleep").unwrap();
        cmd_filter(&mut out, &sample_events(), keep).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "{\"kind\":\"run_start\",\"t\":0}\n\
             {\"kind\":\"sleep_enter\",\"t\":5000,\"state\":\"standby\"}\n\
             {\"kind\":\"run_end\",\"t\":10000}\n"
        );
    }

    #[test]
    fn write_errors_surface_as_output_failures() {
        struct ClosedPipe;
        impl Write for ClosedPipe {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = cmd_summary(&mut ClosedPipe, &sample_events()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let failure = cmd_assert(
            &mut ClosedPipe,
            &sample_events(),
            &AssertionConfig::paper(),
            false,
        )
        .unwrap_err();
        assert!(matches!(failure, Failure::Output(ref e) if e.kind() == io::ErrorKind::BrokenPipe));
    }

    #[test]
    fn assert_exit_codes_separate_clean_violating_and_corrupt() {
        let config = AssertionConfig::paper();
        let assert = |events: &[Event], as_json: bool| {
            cmd_assert(&mut io::sink(), events, &config, as_json).map_err(|e| e.to_string())
        };
        // The sample trace is clean under the paper invariants.
        assert_eq!(assert(&sample_events(), false), Ok(0));
        // An occupancy overflow trips the watchdog invariant: exit 3.
        let mut events = sample_events();
        events.insert(
            events.len() - 1,
            Event::BufferDrop {
                at: t(9_000),
                occupancy: 100,
            },
        );
        assert_eq!(assert(&events, true), Ok(EXIT_VIOLATIONS));
        // A disordered trace is an error, not a verdict.
        events.swap(2, 3);
        let err = assert(&events, false).expect_err("disordered");
        assert!(err.contains("out of time order"), "{err}");
    }
}
