//! Typed simulator events and their JSONL wire format.
//!
//! Every [`Event`] is a small `Copy` enum variant stamped with the
//! [`SimTime`] at which it occurred. Constructing one never allocates,
//! so the simulator can build events unconditionally on its hot path
//! and let the attached sink decide whether anything further happens.
//!
//! The wire format is one JSON object per line (JSONL). Timestamps
//! serialize as integer nanoseconds — the simulator's native clock —
//! so a parsed trace reconstructs time *exactly*, with no float
//! round-trip involved.

use simcore::json::{self, JsonError, Lexer, Token};
use simcore::time::{SimDuration, SimTime};

#[cfg(test)]
mod oracle;

/// Operating mode of the simulated system, as carried by mode-boundary
/// events. Indices double as the metrics-registry series keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceMode {
    /// CPU busy decoding a frame.
    Decoding,
    /// Awake but idle.
    Idle,
    /// Light sleep (fast wake).
    Standby,
    /// Deep sleep (slow wake).
    Off,
    /// Transitioning from sleep back to idle.
    Waking,
}

impl TraceMode {
    /// All modes, in index order.
    pub const ALL: [TraceMode; 5] = [
        TraceMode::Decoding,
        TraceMode::Idle,
        TraceMode::Standby,
        TraceMode::Off,
        TraceMode::Waking,
    ];

    /// Stable small-integer key (`0..5`) for registry series.
    #[must_use]
    pub fn index(self) -> u32 {
        match self {
            TraceMode::Decoding => 0,
            TraceMode::Idle => 1,
            TraceMode::Standby => 2,
            TraceMode::Off => 3,
            TraceMode::Waking => 4,
        }
    }

    /// Inverse of [`TraceMode::index`].
    #[must_use]
    pub fn from_index(index: u32) -> Option<TraceMode> {
        TraceMode::ALL.get(index as usize).copied()
    }

    /// Human-readable label; matches the simulator report's mode keys.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceMode::Decoding => "decoding",
            TraceMode::Idle => "idle",
            TraceMode::Standby => "standby",
            TraceMode::Off => "off",
            TraceMode::Waking => "waking",
        }
    }
}

/// Which sleep state a [`Event::SleepEnter`] transition targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SleepKind {
    /// Light sleep: clocks gated, fast wake.
    Standby,
    /// Deep sleep: power removed, slow wake.
    Off,
}

impl SleepKind {
    /// The mode the system occupies while in this sleep state.
    #[must_use]
    pub fn mode(self) -> TraceMode {
        match self {
            SleepKind::Standby => TraceMode::Standby,
            SleepKind::Off => TraceMode::Off,
        }
    }

    fn label(self) -> &'static str {
        match self {
            SleepKind::Standby => "standby",
            SleepKind::Off => "off",
        }
    }

    fn parse(s: &str) -> Option<SleepKind> {
        match s {
            "standby" => Some(SleepKind::Standby),
            "off" => Some(SleepKind::Off),
            _ => None,
        }
    }
}

/// Which rate stream a [`Event::RateChange`] detection fired on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Frame inter-arrival rate.
    Arrival,
    /// Frame service (decode) rate.
    Service,
}

impl StreamKind {
    fn label(self) -> &'static str {
        match self {
            StreamKind::Arrival => "arrival",
            StreamKind::Service => "service",
        }
    }

    fn parse(s: &str) -> Option<StreamKind> {
        match s {
            "arrival" => Some(StreamKind::Arrival),
            "service" => Some(StreamKind::Service),
            _ => None,
        }
    }
}

/// A structured simulator event, stamped with its simulation time.
///
/// Frequencies are carried as tenths of a MHz (`u32`), the same
/// quantization the report's residency histogram uses; voltages as
/// millivolts. Both are exact integers on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Simulation run began.
    RunStart {
        /// Event timestamp.
        at: SimTime,
    },
    /// System entered the awake-idle mode.
    IdleEnter {
        /// Event timestamp.
        at: SimTime,
    },
    /// System started decoding a frame.
    DecodeStart {
        /// Event timestamp.
        at: SimTime,
        /// Operating frequency during the decode, in tenths of a MHz.
        freq_tenths_mhz: u32,
    },
    /// The DVS layer committed a frequency/voltage switch.
    FreqSwitch {
        /// Event timestamp.
        at: SimTime,
        /// Previous frequency, tenths of a MHz.
        from_tenths_mhz: u32,
        /// New frequency, tenths of a MHz.
        to_tenths_mhz: u32,
        /// Previous core voltage, millivolts.
        from_mv: u32,
        /// New core voltage, millivolts.
        to_mv: u32,
    },
    /// A rate estimator reported a change in arrival or service rate.
    RateChange {
        /// Event timestamp.
        at: SimTime,
        /// Which stream changed.
        stream: StreamKind,
        /// The stream's new rate estimate (events per second).
        new_rate: f64,
        /// Peak log-likelihood ratio of the change-point test, when the
        /// detecting estimator computes one.
        ln_p_max: Option<f64>,
        /// Calibrated detection threshold the statistic cleared, when
        /// the detecting estimator uses one.
        threshold: Option<f64>,
    },
    /// The DPM layer put the system into a sleep state.
    SleepEnter {
        /// Event timestamp.
        at: SimTime,
        /// Which sleep state was entered.
        state: SleepKind,
    },
    /// The system began waking from sleep.
    WakeStart {
        /// Event timestamp.
        at: SimTime,
        /// Wake-up latency: the system reaches idle at `at + latency`.
        latency: SimDuration,
    },
    /// The bounded frame buffer dropped an arriving frame.
    BufferDrop {
        /// Event timestamp.
        at: SimTime,
        /// Buffer occupancy after the drop.
        occupancy: u32,
    },
    /// The supervisor entered (`entered = true`) or left degraded mode.
    Degraded {
        /// Event timestamp.
        at: SimTime,
        /// `true` when degradation began, `false` when it was lifted.
        entered: bool,
    },
    /// A frame finished decoding.
    FrameDone {
        /// Event timestamp.
        at: SimTime,
        /// Queueing delay the frame experienced, seconds.
        delay_s: f64,
        /// Frequency the frame was decoded at, tenths of a MHz.
        freq_tenths_mhz: u32,
    },
    /// Simulation run ended; `at` is the end of the accounted interval.
    RunEnd {
        /// Event timestamp.
        at: SimTime,
    },
}

impl Event {
    /// The simulation time stamped on the event.
    #[must_use]
    pub fn at(&self) -> SimTime {
        match *self {
            Event::RunStart { at }
            | Event::IdleEnter { at }
            | Event::DecodeStart { at, .. }
            | Event::FreqSwitch { at, .. }
            | Event::RateChange { at, .. }
            | Event::SleepEnter { at, .. }
            | Event::WakeStart { at, .. }
            | Event::BufferDrop { at, .. }
            | Event::Degraded { at, .. }
            | Event::FrameDone { at, .. }
            | Event::RunEnd { at } => at,
        }
    }

    /// The filterable category the event belongs to.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        match self {
            Event::RunStart { .. } | Event::RunEnd { .. } => EventKind::Run,
            Event::IdleEnter { .. } | Event::DecodeStart { .. } => EventKind::Mode,
            Event::FreqSwitch { .. } => EventKind::Freq,
            Event::RateChange { .. } => EventKind::Rate,
            Event::SleepEnter { .. } => EventKind::Sleep,
            Event::WakeStart { .. } => EventKind::Wake,
            Event::BufferDrop { .. } => EventKind::Drop,
            Event::Degraded { .. } => EventKind::Degrade,
            Event::FrameDone { .. } => EventKind::Frame,
        }
    }

    /// The event's wire name (the `"kind"` field of its JSON object).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::IdleEnter { .. } => "idle_enter",
            Event::DecodeStart { .. } => "decode_start",
            Event::FreqSwitch { .. } => "freq_switch",
            Event::RateChange { .. } => "rate_change",
            Event::SleepEnter { .. } => "sleep_enter",
            Event::WakeStart { .. } => "wake_start",
            Event::BufferDrop { .. } => "buffer_drop",
            Event::Degraded { .. } => "degraded",
            Event::FrameDone { .. } => "frame_done",
            Event::RunEnd { .. } => "run_end",
        }
    }

    /// Appends the event's JSONL line, newline included, to `out`.
    ///
    /// Keys are static literals and numbers go through
    /// [`simcore::json`]'s own formatters, so the bytes are exactly the
    /// compact [`Json`](simcore::json::Json) serialization of the event
    /// object plus `\n`, without building that object. Appending to a
    /// reused buffer allocates nothing once the buffer has grown.
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"kind\":\"");
        out.push_str(self.name());
        out.push_str("\",\"t\":");
        // Clock values go on the wire as `i64`, the JSON integer type;
        // simulated spans are nowhere near the 292-year limit.
        json::write_int(out, self.at().as_nanos() as i64);
        match *self {
            Event::RunStart { .. } | Event::IdleEnter { .. } | Event::RunEnd { .. } => {}
            Event::DecodeStart {
                freq_tenths_mhz, ..
            } => int_field(out, ",\"freq_tenths_mhz\":", freq_tenths_mhz.into()),
            Event::FreqSwitch {
                from_tenths_mhz,
                to_tenths_mhz,
                from_mv,
                to_mv,
                ..
            } => {
                int_field(out, ",\"from_tenths_mhz\":", from_tenths_mhz.into());
                int_field(out, ",\"to_tenths_mhz\":", to_tenths_mhz.into());
                int_field(out, ",\"from_mv\":", from_mv.into());
                int_field(out, ",\"to_mv\":", to_mv.into());
            }
            Event::RateChange {
                stream,
                new_rate,
                ln_p_max,
                threshold,
                ..
            } => {
                str_field(out, ",\"stream\":\"", stream.label());
                f64_field(out, ",\"new_rate\":", Some(new_rate));
                f64_field(out, ",\"ln_p_max\":", ln_p_max);
                f64_field(out, ",\"threshold\":", threshold);
            }
            Event::SleepEnter { state, .. } => str_field(out, ",\"state\":\"", state.label()),
            Event::WakeStart { latency, .. } => {
                int_field(out, ",\"latency_ns\":", latency.as_nanos() as i64);
            }
            Event::BufferDrop { occupancy, .. } => {
                int_field(out, ",\"occupancy\":", occupancy.into());
            }
            Event::Degraded { entered, .. } => {
                out.push_str(",\"entered\":");
                out.push_str(if entered { "true" } else { "false" });
            }
            Event::FrameDone {
                delay_s,
                freq_tenths_mhz,
                ..
            } => {
                f64_field(out, ",\"delay_s\":", Some(delay_s));
                int_field(out, ",\"freq_tenths_mhz\":", freq_tenths_mhz.into());
            }
        }
        out.push_str("}\n");
    }

    /// Decodes one JSONL line (without its newline) into an event.
    ///
    /// Reads the flat object in one pass with [`simcore::json`]'s
    /// lexer, so it accepts exactly what [`Json::parse`] accepts: any
    /// key order and whitespace, escapes, and unknown keys with values
    /// of any shape (checked, then dropped). Keys are borrowed from the
    /// line and dispatched to fixed slots; the first occurrence of a
    /// key wins, as [`Json::get`] finds it. Integers are accepted where
    /// floats are expected, not the reverse.
    ///
    /// [`Json::parse`]: simcore::json::Json::parse
    /// [`Json::get`]: simcore::json::Json::get
    ///
    /// # Errors
    ///
    /// The JSON error for malformed lines, else the first missing or
    /// mistyped field, named.
    pub(crate) fn decode_jsonl(line: &str) -> Result<Event, String> {
        let mut fields = Fields::default();
        let mut lexer = Lexer::new(line);
        fields.scan(&mut lexer).map_err(|e| e.to_string())?;
        fields.event()
    }
}

/// The value of each key an event line can carry, as first seen.
#[derive(Default)]
struct Fields<'a> {
    kind: Option<Token<'a>>,
    t: Option<Token<'a>>,
    freq_tenths_mhz: Option<Token<'a>>,
    from_tenths_mhz: Option<Token<'a>>,
    to_tenths_mhz: Option<Token<'a>>,
    from_mv: Option<Token<'a>>,
    to_mv: Option<Token<'a>>,
    stream: Option<Token<'a>>,
    new_rate: Option<Token<'a>>,
    ln_p_max: Option<Token<'a>>,
    threshold: Option<Token<'a>>,
    state: Option<Token<'a>>,
    latency_ns: Option<Token<'a>>,
    occupancy: Option<Token<'a>>,
    entered: Option<Token<'a>>,
    delay_s: Option<Token<'a>>,
}

impl<'a> Fields<'a> {
    fn slot(&mut self, key: &str) -> Option<&mut Option<Token<'a>>> {
        Some(match key {
            "kind" => &mut self.kind,
            "t" => &mut self.t,
            "freq_tenths_mhz" => &mut self.freq_tenths_mhz,
            "from_tenths_mhz" => &mut self.from_tenths_mhz,
            "to_tenths_mhz" => &mut self.to_tenths_mhz,
            "from_mv" => &mut self.from_mv,
            "to_mv" => &mut self.to_mv,
            "stream" => &mut self.stream,
            "new_rate" => &mut self.new_rate,
            "ln_p_max" => &mut self.ln_p_max,
            "threshold" => &mut self.threshold,
            "state" => &mut self.state,
            "latency_ns" => &mut self.latency_ns,
            "occupancy" => &mut self.occupancy,
            "entered" => &mut self.entered,
            "delay_s" => &mut self.delay_s,
            _ => return None,
        })
    }

    /// Reads one whole JSON document. Members of a top-level object
    /// fill the slots; any other document leaves them empty (and so
    /// fails as a missing `"kind"`, as a non-object has no keys).
    fn scan(&mut self, lexer: &mut Lexer<'a>) -> Result<(), JsonError> {
        let root = lexer.token()?;
        if root == Token::ObjectStart {
            let mut first = true;
            while let Some(key) = lexer.next_key(first)? {
                first = false;
                let value = lexer.token()?;
                lexer.skip_rest(&value)?;
                if let Some(slot) = self.slot(&key) {
                    slot.get_or_insert(value);
                }
            }
        } else {
            lexer.skip_rest(&root)?;
        }
        lexer.end()
    }

    fn event(&self) -> Result<Event, String> {
        let kind = self
            .kind
            .as_ref()
            .and_then(Token::as_str)
            .ok_or("missing \"kind\"")?;
        let at = SimTime::from_nanos(u64_value(&self.t, "t")?);
        let ev = match kind {
            "run_start" => Event::RunStart { at },
            "idle_enter" => Event::IdleEnter { at },
            "decode_start" => Event::DecodeStart {
                at,
                freq_tenths_mhz: u32_value(&self.freq_tenths_mhz, "freq_tenths_mhz")?,
            },
            "freq_switch" => Event::FreqSwitch {
                at,
                from_tenths_mhz: u32_value(&self.from_tenths_mhz, "from_tenths_mhz")?,
                to_tenths_mhz: u32_value(&self.to_tenths_mhz, "to_tenths_mhz")?,
                from_mv: u32_value(&self.from_mv, "from_mv")?,
                to_mv: u32_value(&self.to_mv, "to_mv")?,
            },
            "rate_change" => Event::RateChange {
                at,
                stream: self
                    .stream
                    .as_ref()
                    .and_then(Token::as_str)
                    .and_then(StreamKind::parse)
                    .ok_or("bad \"stream\"")?,
                new_rate: self
                    .new_rate
                    .as_ref()
                    .and_then(Token::as_f64)
                    .ok_or("bad \"new_rate\"")?,
                ln_p_max: self.ln_p_max.as_ref().and_then(Token::as_f64),
                threshold: self.threshold.as_ref().and_then(Token::as_f64),
            },
            "sleep_enter" => Event::SleepEnter {
                at,
                state: self
                    .state
                    .as_ref()
                    .and_then(Token::as_str)
                    .and_then(SleepKind::parse)
                    .ok_or("bad \"state\"")?,
            },
            "wake_start" => Event::WakeStart {
                at,
                latency: SimDuration::from_nanos(u64_value(&self.latency_ns, "latency_ns")?),
            },
            "buffer_drop" => Event::BufferDrop {
                at,
                occupancy: u32_value(&self.occupancy, "occupancy")?,
            },
            "degraded" => Event::Degraded {
                at,
                entered: self
                    .entered
                    .as_ref()
                    .and_then(Token::as_bool)
                    .ok_or("bad \"entered\"")?,
            },
            "frame_done" => Event::FrameDone {
                at,
                delay_s: self
                    .delay_s
                    .as_ref()
                    .and_then(Token::as_f64)
                    .ok_or("bad \"delay_s\"")?,
                freq_tenths_mhz: u32_value(&self.freq_tenths_mhz, "freq_tenths_mhz")?,
            },
            "run_end" => Event::RunEnd { at },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(ev)
    }
}

fn u64_value(slot: &Option<Token<'_>>, key: &str) -> Result<u64, String> {
    slot.as_ref()
        .and_then(Token::as_u64)
        .ok_or_else(|| format!("bad {key:?}"))
}

fn u32_value(slot: &Option<Token<'_>>, key: &str) -> Result<u32, String> {
    slot.as_ref()
        .and_then(Token::as_u64)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| format!("bad {key:?}"))
}

fn int_field(out: &mut String, key: &str, value: i64) {
    out.push_str(key);
    json::write_int(out, value);
}

fn f64_field(out: &mut String, key: &str, value: Option<f64>) {
    out.push_str(key);
    match value {
        Some(x) => json::write_f64(out, x),
        None => out.push_str("null"),
    }
}

/// `key` ends with the opening quote; `value` needs no escaping.
fn str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(key);
    out.push_str(value);
    out.push('"');
}

/// Filterable event category, used by `--trace-filter` and `tracecat
/// filter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// `run_start` / `run_end` markers.
    Run,
    /// Mode boundaries: `idle_enter`, `decode_start`.
    Mode,
    /// `freq_switch`.
    Freq,
    /// `rate_change`.
    Rate,
    /// `sleep_enter`.
    Sleep,
    /// `wake_start`.
    Wake,
    /// `buffer_drop`.
    Drop,
    /// `degraded`.
    Degrade,
    /// `frame_done`.
    Frame,
}

impl EventKind {
    /// All kinds, in bit order.
    pub const ALL: [EventKind; 9] = [
        EventKind::Run,
        EventKind::Mode,
        EventKind::Freq,
        EventKind::Rate,
        EventKind::Sleep,
        EventKind::Wake,
        EventKind::Drop,
        EventKind::Degrade,
        EventKind::Frame,
    ];

    /// The kind's filter name, as accepted by [`KindSet::parse`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Run => "run",
            EventKind::Mode => "mode",
            EventKind::Freq => "freq",
            EventKind::Rate => "rate",
            EventKind::Sleep => "sleep",
            EventKind::Wake => "wake",
            EventKind::Drop => "drop",
            EventKind::Degrade => "degrade",
            EventKind::Frame => "frame",
        }
    }

    fn bit(self) -> u16 {
        1 << (EventKind::ALL.iter().position(|&k| k == self).unwrap_or(0) as u16)
    }
}

/// A set of [`EventKind`]s, stored as a bitmask. Used to filter traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KindSet(u16);

impl KindSet {
    /// The empty set.
    pub const EMPTY: KindSet = KindSet(0);

    /// The set containing every kind.
    #[must_use]
    pub fn all() -> KindSet {
        EventKind::ALL
            .iter()
            .fold(KindSet::EMPTY, |s, &k| s.with(k))
    }

    /// Returns the set with `kind` added.
    #[must_use]
    pub fn with(self, kind: EventKind) -> KindSet {
        KindSet(self.0 | kind.bit())
    }

    /// `true` if `kind` is in the set.
    #[must_use]
    pub fn contains(self, kind: EventKind) -> bool {
        self.0 & kind.bit() != 0
    }

    /// `true` if no kind is in the set.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parses a comma-separated kind list, e.g. `"freq,sleep"`.
    ///
    /// # Errors
    ///
    /// Returns the first unrecognized name, with the valid vocabulary.
    pub fn parse(list: &str) -> Result<KindSet, String> {
        let mut set = KindSet::EMPTY;
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let kind = EventKind::ALL
                .iter()
                .copied()
                .find(|k| k.name() == name)
                .ok_or_else(|| {
                    let valid: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown event kind {name:?} (valid: {})", valid.join(", "))
                })?;
            set = set.with(kind);
        }
        if set.is_empty() {
            return Err("empty event-kind list".into());
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStart { at: SimTime::ZERO },
            Event::IdleEnter { at: SimTime::ZERO },
            Event::DecodeStart {
                at: SimTime::from_nanos(1_500),
                freq_tenths_mhz: 2212,
            },
            Event::FreqSwitch {
                at: SimTime::from_nanos(1_500),
                from_tenths_mhz: 1032,
                to_tenths_mhz: 2212,
                from_mv: 1100,
                to_mv: 1650,
            },
            Event::RateChange {
                at: SimTime::from_nanos(2_000),
                stream: StreamKind::Arrival,
                new_rate: 38.75,
                ln_p_max: Some(12.5),
                threshold: Some(9.25),
            },
            Event::RateChange {
                at: SimTime::from_nanos(2_100),
                stream: StreamKind::Service,
                new_rate: 120.0,
                ln_p_max: None,
                threshold: None,
            },
            Event::SleepEnter {
                at: SimTime::from_nanos(9_000),
                state: SleepKind::Off,
            },
            Event::WakeStart {
                at: SimTime::from_nanos(12_345),
                latency: SimDuration::from_nanos(640_000),
            },
            Event::BufferDrop {
                at: SimTime::from_nanos(13_000),
                occupancy: 64,
            },
            Event::Degraded {
                at: SimTime::from_nanos(14_000),
                entered: true,
            },
            Event::FrameDone {
                at: SimTime::from_nanos(15_000),
                delay_s: 0.002_5,
                freq_tenths_mhz: 2212,
            },
            Event::RunEnd {
                at: SimTime::from_nanos(20_000),
            },
        ]
    }

    /// One literal line per variant: the wire format, pinned.
    const EXPECTED_LINES: [&str; 12] = [
        r#"{"kind":"run_start","t":0}"#,
        r#"{"kind":"idle_enter","t":0}"#,
        r#"{"kind":"decode_start","t":1500,"freq_tenths_mhz":2212}"#,
        r#"{"kind":"freq_switch","t":1500,"from_tenths_mhz":1032,"to_tenths_mhz":2212,"from_mv":1100,"to_mv":1650}"#,
        r#"{"kind":"rate_change","t":2000,"stream":"arrival","new_rate":38.75,"ln_p_max":12.5,"threshold":9.25}"#,
        r#"{"kind":"rate_change","t":2100,"stream":"service","new_rate":120.0,"ln_p_max":null,"threshold":null}"#,
        r#"{"kind":"sleep_enter","t":9000,"state":"off"}"#,
        r#"{"kind":"wake_start","t":12345,"latency_ns":640000}"#,
        r#"{"kind":"buffer_drop","t":13000,"occupancy":64}"#,
        r#"{"kind":"degraded","t":14000,"entered":true}"#,
        r#"{"kind":"frame_done","t":15000,"delay_s":0.0025,"freq_tenths_mhz":2212}"#,
        r#"{"kind":"run_end","t":20000}"#,
    ];

    #[test]
    fn every_variant_writes_its_pinned_line_and_decodes_back() {
        let mut line = String::new();
        for (ev, expected) in sample_events().into_iter().zip(EXPECTED_LINES) {
            line.clear();
            ev.write_jsonl(&mut line);
            assert_eq!(line, format!("{expected}\n"), "{}", ev.name());
            assert_eq!(Event::decode_jsonl(expected), Ok(ev), "{}", ev.name());
        }
    }

    #[test]
    fn write_jsonl_appends_to_the_buffer() {
        let mut line = String::from("kept|");
        Event::RunStart { at: SimTime::ZERO }.write_jsonl(&mut line);
        Event::RunEnd {
            at: SimTime::from_nanos(7),
        }
        .write_jsonl(&mut line);
        assert_eq!(
            line,
            "kept|{\"kind\":\"run_start\",\"t\":0}\n{\"kind\":\"run_end\",\"t\":7}\n"
        );
    }

    #[test]
    fn timestamps_are_exact_integer_nanos() {
        let ev = Event::RunEnd {
            at: SimTime::from_nanos(123_456_789_012_345),
        };
        let mut line = String::new();
        ev.write_jsonl(&mut line);
        assert!(line.contains(r#""t":123456789012345}"#), "{line}");
        assert_eq!(Event::decode_jsonl(line.trim_end()), Ok(ev));
    }

    #[test]
    fn decoder_takes_first_keys_and_skips_unknown_values() {
        let line =
            r#" { "extra" : {"a":[1,{"b":null}]}, "t":5, "kind":"run\u005fstart", "t":"x" } "#;
        assert_eq!(
            Event::decode_jsonl(line),
            Ok(Event::RunStart {
                at: SimTime::from_nanos(5)
            })
        );
    }

    #[test]
    fn unknown_kind_and_missing_fields_are_rejected() {
        let decode = Event::decode_jsonl;
        assert_eq!(
            decode(r#"{"kind":"warp_drive","t":1}"#),
            Err(r#"unknown event kind "warp_drive""#.to_owned())
        );
        assert_eq!(
            decode(r#"{"kind":"frame_done","t":1}"#),
            Err(r#"bad "delay_s""#.to_owned())
        );
        assert_eq!(
            decode(r#"{"kind":"run_start"}"#),
            Err(r#"bad "t""#.to_owned())
        );
        assert_eq!(
            decode(r#"{"kind":"run_start","t":1.0}"#),
            Err(r#"bad "t""#.to_owned())
        );
        assert_eq!(
            decode(r#"{"kind":"buffer_drop","t":1,"occupancy":4294967296}"#),
            Err(r#"bad "occupancy""#.to_owned())
        );
        assert_eq!(decode("[1]"), Err(r#"missing "kind""#.to_owned()));
        let malformed = decode(r#"{"kind":"run_start","t":1"#).unwrap_err();
        assert!(
            malformed.starts_with("JSON error at byte 25"),
            "{malformed}"
        );
    }

    #[test]
    fn kind_set_parses_and_filters() {
        let set = KindSet::parse("freq, sleep").unwrap();
        assert!(set.contains(EventKind::Freq));
        assert!(set.contains(EventKind::Sleep));
        assert!(!set.contains(EventKind::Frame));
        assert!(KindSet::parse("bogus").is_err());
        assert!(KindSet::parse("").is_err());
        assert!(KindSet::all().contains(EventKind::Degrade));
        for ev in sample_events() {
            assert!(KindSet::all().contains(ev.kind()));
        }
    }

    #[test]
    fn mode_indices_round_trip() {
        for mode in TraceMode::ALL {
            assert_eq!(TraceMode::from_index(mode.index()), Some(mode));
        }
        assert_eq!(TraceMode::from_index(99), None);
    }
}
