//! Trace sinks: where emitted events go.
//!
//! The simulator holds an `Option<&mut dyn TraceSink>`; with no sink
//! attached it never formats or stores anything. The implementations
//! here cover the three standard destinations:
//!
//! * [`NullSink`] — accepts and discards every event; the baseline for
//!   measuring instrumentation overhead.
//! * [`RingSink`] — a preallocated in-memory ring that keeps the most
//!   recent `capacity` events and counts the rest as dropped. Recording
//!   into a non-full ring does not allocate.
//! * [`JsonlSink`] — serializes each event as one JSON line into any
//!   [`std::io::Write`]. The first I/O error is remembered ("sticky")
//!   and reported by [`TraceSink::finish`]; later records are ignored
//!   rather than panicking mid-simulation.
//! * [`FilteredSink`] — wraps another sink, forwarding only the event
//!   kinds in a [`KindSet`].

use crate::event::{Event, KindSet};
use std::io::Write;

/// Destination for simulator events.
pub trait TraceSink {
    /// Records one event. Must not panic; I/O failures are deferred to
    /// [`TraceSink::finish`].
    fn record(&mut self, event: &Event);

    /// Flushes buffered output and reports the first error encountered,
    /// if any. The default does nothing and succeeds.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first failure.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// A sink that discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &Event) {}
}

/// A bounded in-memory sink keeping the most recent events.
///
/// Storage is preallocated up front; once full, each new event
/// overwrites the oldest and increments [`RingSink::dropped`].
#[derive(Debug)]
pub struct RingSink {
    buf: Vec<Event>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Number of events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(*event);
        } else {
            self.buf[self.head] = *event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

/// A sink writing one JSON object per line to a [`Write`] target.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    error: Option<String>,
    written: u64,
    /// Reusable serialization buffer: each record clears and refills it
    /// instead of allocating a fresh `String` per event.
    line: String,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `writer`; callers wanting buffering should pass a
    /// [`std::io::BufWriter`].
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer,
            error: None,
            written: 0,
            line: String::new(),
        }
    }

    /// Number of events successfully serialized.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Consumes the sink, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        event.write_jsonl(&mut self.line);
        if let Err(e) = self.writer.write_all(self.line.as_bytes()) {
            self.error = Some(format!("trace write failed: {e}"));
        } else {
            self.written += 1;
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        self.writer
            .flush()
            .map_err(|e| format!("trace flush failed: {e}"))
    }
}

/// A sink forwarding only the event kinds in a [`KindSet`].
#[derive(Debug)]
pub struct FilteredSink<S: TraceSink> {
    inner: S,
    keep: KindSet,
}

impl<S: TraceSink> FilteredSink<S> {
    /// Wraps `inner`, keeping only events whose kind is in `keep`.
    pub fn new(inner: S, keep: KindSet) -> FilteredSink<S> {
        FilteredSink { inner, keep }
    }

    /// Consumes the filter, returning the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for FilteredSink<S> {
    fn record(&mut self, event: &Event) {
        if self.keep.contains(event.kind()) {
            self.inner.record(event);
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use simcore::time::SimTime;

    fn ev(n: u64) -> Event {
        Event::FrameDone {
            at: SimTime::from_nanos(n),
            delay_s: 0.0,
            freq_tenths_mhz: 591,
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut ring = RingSink::new(3);
        assert!(ring.is_empty());
        for n in 0..5 {
            ring.record(&ev(n));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let times: Vec<u64> = ring.events().iter().map(|e| e.at().as_nanos()).collect();
        assert_eq!(times, vec![2, 3, 4], "oldest first, newest kept");
        assert!(ring.finish().is_ok());
    }

    #[test]
    fn ring_capacity_zero_is_clamped() {
        let mut ring = RingSink::new(0);
        ring.record(&ev(1));
        ring.record(&ev(2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn jsonl_writes_one_parseable_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&ev(7));
        sink.record(&Event::RunEnd {
            at: SimTime::from_nanos(9),
        });
        assert!(sink.finish().is_ok());
        assert_eq!(sink.written(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let events = crate::parse_jsonl(&text).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], ev(7));
    }

    struct FailWriter;
    impl Write for FailWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_io_errors_are_sticky_and_reported_at_finish() {
        let mut sink = JsonlSink::new(FailWriter);
        sink.record(&ev(1));
        sink.record(&ev(2)); // must not panic after the first failure
        assert_eq!(sink.written(), 0);
        let err = sink.finish().unwrap_err();
        assert!(err.contains("disk full"), "{err}");
    }

    #[test]
    fn filtered_sink_forwards_only_selected_kinds() {
        let keep = KindSet::EMPTY.with(EventKind::Run);
        let mut sink = FilteredSink::new(RingSink::new(8), keep);
        sink.record(&ev(1)); // Frame: filtered out
        sink.record(&Event::RunStart { at: SimTime::ZERO });
        assert!(sink.finish().is_ok());
        let inner = sink.into_inner();
        assert_eq!(inner.len(), 1);
        assert!(matches!(inner.events()[0], Event::RunStart { .. }));
    }
}
