//! Structured event tracing and metrics for the DVS/DPM simulator.
//!
//! The paper's claims (Simunic et al., DAC 2001) are *time-series*
//! claims — frequency trajectories tracking arrival-rate changes,
//! idle-interval distributions driving shutdown decisions — but an
//! end-of-run report only shows their averages. This crate adds the
//! observability layer underneath the simulator:
//!
//! * [`Event`] — a typed, `Copy`, allocation-free event vocabulary
//!   covering frequency/voltage switches, rate-change detections (with
//!   the change-point statistic and threshold), sleep/wake transitions,
//!   buffer drops, supervisor degradations, and frame completions,
//!   each stamped with a [`simcore::time::SimTime`];
//! * [`TraceSink`] — where events go: [`NullSink`] (overhead baseline),
//!   [`RingSink`] (preallocated, most-recent-N), [`JsonlSink`] (one
//!   JSON object per line), [`FilteredSink`] (kind mask);
//! * [`MetricsRegistry`] — named counters/gauges/time-weighted series
//!   the simulator's report is assembled from, with residency kept in
//!   integer nanoseconds so trace replay reconstructs it bit-exactly;
//! * [`replay()`] — rebuilds the run aggregates from a parsed event
//!   stream alone (the `tracecat` CLI's engine).
//!
//! The crate depends only on `simcore` (the workspace builds offline).

#![warn(missing_docs)]

pub mod assert;
pub mod durable;
pub mod event;
pub mod fleet;
pub mod registry;
pub mod replay;
pub mod sink;

pub use assert::{
    eq5_delay_bound, AssertionConfig, AssertionMonitor, AssertionReport, DelayBound,
    InvariantReport, OccupancyBound, OscillationBound, ViolationSample,
};
pub use event::{Event, EventKind, KindSet, SleepKind, StreamKind, TraceMode};
pub use fleet::{parse_fleet_jsonl, FleetEvent};
pub use registry::{ns_to_secs, MetricsRegistry};
pub use replay::{replay, ReplaySummary};
pub use sink::{FilteredSink, JsonlSink, NullSink, RingSink, TraceSink};

/// Parses a JSONL trace (one event object per non-empty line).
///
/// Each line is decoded directly into an [`Event`] by a single pass of
/// `simcore::json`'s lexer, without building a JSON tree; the accepted
/// language is exactly that of `Json::parse` (see DESIGN.md §9, "Trace
/// wire format").
///
/// # Errors
///
/// Returns `"line N: <cause>"` for the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        events.push(Event::decode_jsonl(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

/// Verifies that `events` are in non-decreasing time order.
///
/// Replay-side consumers ([`replay()`], `tracecat replay --check`,
/// `tracecat assert`) **reject** disordered traces instead of
/// re-sorting them: a trace whose timestamps run backwards was either
/// truncated/corrupted or concatenated from multiple runs, and sorting
/// it would silently manufacture a plausible-looking stream that no
/// simulator ever produced.
///
/// # Errors
///
/// Names the first offending event (1-based, matching JSONL line
/// numbering for traces without blank lines) and both timestamps.
pub fn ensure_time_ordered(events: &[Event]) -> Result<(), String> {
    for (i, pair) in events.windows(2).enumerate() {
        if pair[1].at() < pair[0].at() {
            return Err(format!(
                "trace is out of time order: event {} ({} at t={}ns) precedes event {} ({} at t={}ns)",
                i + 2,
                pair[1].name(),
                pair[1].at().as_nanos(),
                i + 1,
                pair[0].name(),
                pair[0].at().as_nanos(),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimTime;

    #[test]
    fn parse_jsonl_round_trips_a_stream() {
        let events = vec![
            Event::RunStart { at: SimTime::ZERO },
            Event::FrameDone {
                at: SimTime::from_nanos(10),
                delay_s: 1.5e-9,
                freq_tenths_mhz: 591,
            },
            Event::RunEnd {
                at: SimTime::from_nanos(20),
            },
        ];
        let mut text = String::new();
        for ev in &events {
            ev.write_jsonl(&mut text);
        }
        text.push('\n'); // trailing blank line is tolerated
        assert_eq!(parse_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn parse_jsonl_reports_the_offending_line() {
        let err = parse_jsonl("{\"kind\":\"run_start\",\"t\":0}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse_jsonl("\n{\"kind\":\"frame_done\",\"t\":0}\n").unwrap_err();
        assert_eq!(err, "line 2: bad \"delay_s\"");
    }

    #[test]
    fn time_order_check_accepts_ties_and_names_the_regression() {
        let ordered = vec![
            Event::RunStart { at: SimTime::ZERO },
            Event::IdleEnter {
                at: SimTime::from_nanos(5),
            },
            Event::RunEnd {
                at: SimTime::from_nanos(5), // ties are legal
            },
        ];
        assert!(ensure_time_ordered(&ordered).is_ok());
        assert!(ensure_time_ordered(&[]).is_ok());

        let disordered = vec![
            Event::RunStart {
                at: SimTime::from_nanos(10),
            },
            Event::RunEnd {
                at: SimTime::from_nanos(9),
            },
        ];
        let err = ensure_time_ordered(&disordered).unwrap_err();
        assert!(
            err.contains("event 2") && err.contains("t=9ns") && err.contains("t=10ns"),
            "{err}"
        );
    }
}
