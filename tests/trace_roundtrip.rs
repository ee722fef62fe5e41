//! Trace round-trip: a traced run's JSONL stream is a faithful,
//! replayable record of the simulation.
//!
//! Three properties are pinned down:
//!
//! 1. attaching a sink never perturbs the simulation (traced and
//!    untraced reports serialize byte-identically),
//! 2. parsing the JSONL back and replaying it reconstructs the report's
//!    aggregates **exactly** — counters as equal integers, residency
//!    and delay statistics as bit-equal `f64`s,
//! 3. filtering keeps the stream parseable and the kept kinds intact.

use powermgr::config::{DpmKind, GovernorKind, SystemConfig};
use powermgr::scenario::{Run, Workload};
use simcore::json::ToJson;
use trace::{parse_jsonl, replay, EventKind, FilteredSink, JsonlSink, KindSet, TraceSink};

fn traced_jsonl(config: &SystemConfig, seed: u64) -> (String, powermgr::SimReport) {
    let mut sink = JsonlSink::new(Vec::new());
    let report = Run {
        sink: Some(&mut sink),
        ..Run::workload(&Workload::Mp3("AB".into()), config, seed)
    }
    .execute()
    .expect("runs");
    sink.finish().expect("in-memory write");
    (String::from_utf8(sink.into_inner()).expect("utf8"), report)
}

#[test]
fn traced_jsonl_replays_to_the_exact_report() {
    let config = SystemConfig {
        governor: GovernorKind::Ideal,
        dpm: DpmKind::BreakEven {
            state: dpm::policy::SleepState::Standby,
        },
        ..SystemConfig::default()
    };
    let untraced = Run::workload(&Workload::Mp3("AB".into()), &config, 101)
        .execute()
        .expect("runs");
    let (text, traced) = traced_jsonl(&config, 101);
    assert_eq!(
        untraced.to_json().dump(),
        traced.to_json().dump(),
        "tracing must not perturb the run"
    );

    let events = parse_jsonl(&text).expect("valid JSONL");
    assert!(events.len() > 1000, "rich event stream expected");
    let summary = replay(&events);
    assert_eq!(summary.frames_completed, traced.frames_completed);
    assert_eq!(summary.freq_switches, traced.freq_switches);
    assert_eq!(summary.rate_changes, traced.rate_changes);
    assert_eq!(summary.sleeps, traced.sleeps);
    assert_eq!(summary.wakes, traced.wakes);
    assert!(traced.sleeps > 0 && traced.freq_switches > 0);

    // Residency: bit-equal, both sides built from the same integer
    // nanosecond totals through the same conversion.
    let modes = summary.mode_secs();
    for (&key, &secs) in &traced.mode_secs {
        let replayed = modes
            .iter()
            .find(|(m, _)| m.label() == key.to_string())
            .map(|(_, &s)| s)
            .unwrap_or(0.0);
        assert_eq!(replayed.to_bits(), secs.to_bits(), "mode {key}");
    }
    let freqs = summary.freq_secs();
    for (&key, &secs) in &traced.freq_residency {
        let replayed = freqs.get(&key).copied().unwrap_or(0.0);
        assert_eq!(replayed.to_bits(), secs.to_bits(), "freq key {key}");
    }
    assert_eq!(
        summary.duration_secs().to_bits(),
        traced.duration_secs.to_bits()
    );
    // Delays go through the same Welford accumulator in the same order.
    assert_eq!(
        summary.delays.mean().to_bits(),
        traced.frame_delays.mean().to_bits()
    );
    assert_eq!(
        summary.delays.max().to_bits(),
        traced.frame_delays.max().to_bits()
    );
    assert_eq!(summary.delays.count(), traced.frame_delays.count());
}

#[test]
fn events_survive_a_json_round_trip_individually() {
    let config = SystemConfig {
        governor: GovernorKind::quick_change_point(),
        dpm: DpmKind::BreakEven {
            state: dpm::policy::SleepState::Standby,
        },
        ..SystemConfig::default()
    };
    let (text, _) = traced_jsonl(&config, 102);
    let events = parse_jsonl(&text).expect("valid JSONL");
    let mut line = String::new();
    for (i, ev) in events.iter().enumerate() {
        line.clear();
        ev.write_jsonl(&mut line);
        let back = parse_jsonl(&line).expect("single line parses");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], *ev, "event {i} changed across a round trip");
    }
}

#[test]
fn filtered_stream_keeps_only_requested_kinds() {
    let config = SystemConfig {
        governor: GovernorKind::Ideal,
        dpm: DpmKind::BreakEven {
            state: dpm::policy::SleepState::Standby,
        },
        ..SystemConfig::default()
    };
    let keep = KindSet::parse("freq,sleep").expect("valid kinds");
    let mut sink = FilteredSink::new(JsonlSink::new(Vec::new()), keep);
    let report = Run {
        sink: Some(&mut sink),
        ..Run::workload(&Workload::Mp3("AB".into()), &config, 101)
    }
    .execute()
    .expect("runs");
    sink.finish().expect("in-memory write");
    let text = String::from_utf8(sink.into_inner().into_inner()).expect("utf8");
    let events = parse_jsonl(&text).expect("valid JSONL");
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .all(|e| matches!(e.kind(), EventKind::Freq | EventKind::Sleep)));
    let switches = events
        .iter()
        .filter(|e| e.kind() == EventKind::Freq)
        .count() as u64;
    let sleeps = events
        .iter()
        .filter(|e| e.kind() == EventKind::Sleep)
        .count() as u64;
    assert_eq!(switches, report.freq_switches);
    assert_eq!(sleeps, report.sleeps);
}
