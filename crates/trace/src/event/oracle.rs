//! The tree-based JSON conversions of [`Event`], kept as the test
//! oracle for the direct wire code in the parent module.
//!
//! These are the conversions the JSONL trace format was first defined
//! by: [`ToJson`] builds a [`Json`] object and `dump` prints it, and
//! [`Json::parse`] + [`Event::from_json`] read it back through a tree.
//! [`Event::write_jsonl`] must produce the same bytes and
//! [`crate::parse_jsonl`] the same events, or the same error, for
//! every input; the property tests below check both.

use super::{Event, SleepKind, StreamKind};
use proptest::prelude::*;
use proptest::TestRng;
use simcore::json::{Json, ToJson};
use simcore::time::{SimDuration, SimTime};

impl Event {
    /// Decodes one event from its parsed JSON object.
    pub(crate) fn from_json(json: &Json) -> Result<Event, String> {
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing \"kind\"")?;
        let at = time_field(json, "t")?;
        let ev = match kind {
            "run_start" => Event::RunStart { at },
            "idle_enter" => Event::IdleEnter { at },
            "decode_start" => Event::DecodeStart {
                at,
                freq_tenths_mhz: u32_field(json, "freq_tenths_mhz")?,
            },
            "freq_switch" => Event::FreqSwitch {
                at,
                from_tenths_mhz: u32_field(json, "from_tenths_mhz")?,
                to_tenths_mhz: u32_field(json, "to_tenths_mhz")?,
                from_mv: u32_field(json, "from_mv")?,
                to_mv: u32_field(json, "to_mv")?,
            },
            "rate_change" => Event::RateChange {
                at,
                stream: json
                    .get("stream")
                    .and_then(Json::as_str)
                    .and_then(StreamKind::parse)
                    .ok_or("bad \"stream\"")?,
                new_rate: f64_field(json, "new_rate")?,
                ln_p_max: opt_f64_field(json, "ln_p_max"),
                threshold: opt_f64_field(json, "threshold"),
            },
            "sleep_enter" => Event::SleepEnter {
                at,
                state: json
                    .get("state")
                    .and_then(Json::as_str)
                    .and_then(SleepKind::parse)
                    .ok_or("bad \"state\"")?,
            },
            "wake_start" => Event::WakeStart {
                at,
                latency: SimDuration::from_nanos(
                    json.get("latency_ns")
                        .and_then(Json::as_u64)
                        .ok_or("bad \"latency_ns\"")?,
                ),
            },
            "buffer_drop" => Event::BufferDrop {
                at,
                occupancy: u32_field(json, "occupancy")?,
            },
            "degraded" => Event::Degraded {
                at,
                entered: json
                    .get("entered")
                    .and_then(Json::as_bool)
                    .ok_or("bad \"entered\"")?,
            },
            "frame_done" => Event::FrameDone {
                at,
                delay_s: f64_field(json, "delay_s")?,
                freq_tenths_mhz: u32_field(json, "freq_tenths_mhz")?,
            },
            "run_end" => Event::RunEnd { at },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(ev)
    }
}

fn time_field(json: &Json, key: &str) -> Result<SimTime, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .map(SimTime::from_nanos)
        .ok_or_else(|| format!("bad {key:?}"))
}

fn u32_field(json: &Json, key: &str) -> Result<u32, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| format!("bad {key:?}"))
}

fn f64_field(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("bad {key:?}"))
}

fn opt_f64_field(json: &Json, key: &str) -> Option<f64> {
    json.get(key).and_then(Json::as_f64)
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("kind".into(), Json::Str(self.name().into())),
            ("t".into(), Json::Int(self.at().as_nanos() as i64)),
        ];
        match *self {
            Event::RunStart { .. } | Event::IdleEnter { .. } | Event::RunEnd { .. } => {}
            Event::DecodeStart {
                freq_tenths_mhz, ..
            } => {
                pairs.push(("freq_tenths_mhz".into(), freq_tenths_mhz.to_json()));
            }
            Event::FreqSwitch {
                from_tenths_mhz,
                to_tenths_mhz,
                from_mv,
                to_mv,
                ..
            } => {
                pairs.push(("from_tenths_mhz".into(), from_tenths_mhz.to_json()));
                pairs.push(("to_tenths_mhz".into(), to_tenths_mhz.to_json()));
                pairs.push(("from_mv".into(), from_mv.to_json()));
                pairs.push(("to_mv".into(), to_mv.to_json()));
            }
            Event::RateChange {
                stream,
                new_rate,
                ln_p_max,
                threshold,
                ..
            } => {
                pairs.push(("stream".into(), Json::Str(stream.label().into())));
                pairs.push(("new_rate".into(), new_rate.to_json()));
                pairs.push(("ln_p_max".into(), ln_p_max.to_json()));
                pairs.push(("threshold".into(), threshold.to_json()));
            }
            Event::SleepEnter { state, .. } => {
                pairs.push(("state".into(), Json::Str(state.label().into())));
            }
            Event::WakeStart { latency, .. } => {
                pairs.push(("latency_ns".into(), Json::Int(latency.as_nanos() as i64)));
            }
            Event::BufferDrop { occupancy, .. } => {
                pairs.push(("occupancy".into(), occupancy.to_json()));
            }
            Event::Degraded { entered, .. } => {
                pairs.push(("entered".into(), Json::Bool(entered)));
            }
            Event::FrameDone {
                delay_s,
                freq_tenths_mhz,
                ..
            } => {
                pairs.push(("delay_s".into(), delay_s.to_json()));
                pairs.push(("freq_tenths_mhz".into(), freq_tenths_mhz.to_json()));
            }
        }
        Json::Obj(pairs)
    }
}

/// `parse_jsonl` as it was first written: every line through the tree.
fn parse_jsonl_via_tree(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let event = Event::from_json(&json).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(event);
    }
    Ok(events)
}

/// Floats that stress the formatter: signed zeros, subnormals, the
/// extremes, non-finite values (written as `null`), and integral values
/// (which must keep a `.0`).
const EDGE_F64: [f64; 22] = [
    0.0,
    -0.0,
    5e-324,
    -2.225_073_858_507_201e-308,
    1e-300,
    1e300,
    -1e300,
    f64::MAX,
    f64::MIN,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0,
    -7.0,
    1e15,
    1e16,
    1e21,
    9_007_199_254_740_993.0,
    0.1,
    38.75,
    0.002_5,
    120.0,
];

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[(rng.next_u64() % items.len() as u64) as usize]
}

fn any_f64(rng: &mut TestRng) -> f64 {
    match rng.next_u64() % 4 {
        0 | 1 => pick(rng, &EDGE_F64),
        // Any bit pattern: NaN payloads, subnormals, huge exponents.
        2 => f64::from_bits(rng.next_u64()),
        _ => {
            let scale = 10f64.powi((rng.next_u64() % 40) as i32 - 20);
            (rng.next_f64() * 2.0 - 1.0) * scale
        }
    }
}

fn any_opt_f64(rng: &mut TestRng) -> Option<f64> {
    (!rng.next_u64().is_multiple_of(3)).then(|| any_f64(rng))
}

fn any_u32(rng: &mut TestRng) -> u32 {
    match rng.next_u64() % 3 {
        0 => pick(rng, &[0, 1, u32::MAX]),
        1 => (rng.next_u64() % 3_000) as u32,
        _ => rng.next_u64() as u32,
    }
}

/// Nanosecond values up to `i64::MAX`, the largest the wire carries.
fn any_nanos(rng: &mut TestRng) -> u64 {
    match rng.next_u64() % 3 {
        0 => pick(rng, &[0, 1, i64::MAX as u64]),
        1 => rng.next_u64() % 1_000_000_000_000,
        _ => rng.next_u64() >> 1,
    }
}

/// One event of a uniformly drawn variant with adversarial fields.
fn any_event(rng: &mut TestRng) -> Event {
    let at = SimTime::from_nanos(any_nanos(rng));
    match rng.next_u64() % 11 {
        0 => Event::RunStart { at },
        1 => Event::IdleEnter { at },
        2 => Event::DecodeStart {
            at,
            freq_tenths_mhz: any_u32(rng),
        },
        3 => Event::FreqSwitch {
            at,
            from_tenths_mhz: any_u32(rng),
            to_tenths_mhz: any_u32(rng),
            from_mv: any_u32(rng),
            to_mv: any_u32(rng),
        },
        4 => Event::RateChange {
            at,
            stream: pick(rng, &[StreamKind::Arrival, StreamKind::Service]),
            new_rate: any_f64(rng),
            ln_p_max: any_opt_f64(rng),
            threshold: any_opt_f64(rng),
        },
        5 => Event::SleepEnter {
            at,
            state: pick(rng, &[SleepKind::Standby, SleepKind::Off]),
        },
        6 => Event::WakeStart {
            at,
            latency: SimDuration::from_nanos(any_nanos(rng)),
        },
        7 => Event::BufferDrop {
            at,
            occupancy: any_u32(rng),
        },
        8 => Event::Degraded {
            at,
            entered: rng.next_u64() & 1 == 1,
        },
        9 => Event::FrameDone {
            at,
            delay_s: any_f64(rng),
            freq_tenths_mhz: any_u32(rng),
        },
        _ => Event::RunEnd { at },
    }
}

fn assert_writer_matches_tree(ev: &Event, line: &mut String) {
    line.clear();
    ev.write_jsonl(line);
    assert_eq!(*line, format!("{}\n", ev.to_json().dump()), "{ev:?}");
}

/// Byte offsets `[start, end)` of every number that follows a `:`.
fn number_spans(line: &str) -> Vec<(usize, usize)> {
    let bytes = line.as_bytes();
    let mut spans = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b':' {
            let start = i + 1;
            let len = bytes[start..]
                .iter()
                .take_while(|c| c.is_ascii_digit() || b"-+.eE".contains(c))
                .count();
            if len > 0 {
                spans.push((start, start + len));
            }
        }
    }
    spans
}

fn char_boundary(rng: &mut TestRng, text: &str) -> usize {
    let mut at = (rng.next_u64() % (text.len() as u64 + 1)) as usize;
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

fn replace_span(line: &str, (start, end): (usize, usize), with: &str) -> String {
    format!("{}{with}{}", &line[..start], &line[end..])
}

/// Values an inserted key may hold, well-formed or not.
const ODD_VALUES: [&str; 10] = [
    r#"{"a":[1,{"b":[]}],"c":"A"}"#,
    r#"[[[]],{},null,true,false,-0.5e3]"#,
    r#""s\"t\\r\/""#,
    "12",
    r#""run_end""#,
    r#"[1,]"#,
    r#"{"a" 1}"#,
    r#"{"a":1,}"#,
    r#""\uZZZZ""#,
    "tru",
];

/// Characters that make up JSON, for random near-JSON text.
const JSON_CHARS: &[u8] = b"{}[]\":,0123456789.-+eE \t\\/truefalsnkidt_\x01";

/// One mutation of a written event line (without its newline).
fn mutate(rng: &mut TestRng, line: &str) -> String {
    let numbers = number_spans(line);
    match rng.next_u64() % 11 {
        // Reordered keys.
        0 => match Json::parse(line) {
            Ok(Json::Obj(mut pairs)) => {
                for i in (1..pairs.len()).rev() {
                    pairs.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                }
                Json::Obj(pairs).dump()
            }
            _ => line.to_owned(),
        },
        // Whitespace anywhere, even inside tokens.
        1 => {
            let at = char_boundary(rng, line);
            let ws = pick(rng, &[" ", "\t", "\r", "  \t "]);
            format!("{}{ws}{}", &line[..at], &line[at..])
        }
        // An unknown key holding a nested or malformed value.
        2 => {
            let member = format!("\"extra\":{},", pick(rng, &ODD_VALUES));
            match line.find('{') {
                Some(i) => format!("{}{member}{}", &line[..=i], &line[i + 1..]),
                None => line.to_owned(),
            }
        }
        // A character escaped as \uXXXX (inside a string it decodes to
        // the same text; outside one it breaks the syntax).
        3 => {
            let at = char_boundary(rng, line);
            match line[at..].chars().next() {
                Some(c) if c.is_ascii_lowercase() || c == '_' => {
                    format!("{}\\u{:04x}{}", &line[..at], u32::from(c), &line[at + 1..])
                }
                _ => line.replacen("_", "\\u005f", 1),
            }
        }
        // A duplicate key: first wins, so a leading one overrides.
        4 => {
            let key = pick(
                rng,
                &["kind", "t", "delay_s", "new_rate", "stream", "state"],
            );
            let member = format!("\"{key}\":{}", pick(rng, &ODD_VALUES));
            if rng.next_u64() & 1 == 0 {
                line.replacen('{', &format!("{{{member},"), 1)
            } else {
                match line.rfind('}') {
                    Some(i) => format!("{},{member}{}", &line[..i], &line[i..]),
                    None => line.to_owned(),
                }
            }
        }
        // A float where an integer is expected, or the reverse.
        5 | 6 if !numbers.is_empty() => {
            let span = pick(rng, &numbers);
            let text = &line[span.0..span.1];
            let with = if text.contains(['.', 'e', 'E']) {
                text.split(['.', 'e', 'E']).next().unwrap_or("0").to_owned()
            } else {
                format!("{text}{}", pick(rng, &[".0", "e0", "E+0"]))
            };
            replace_span(line, span, &with)
        }
        // Negative and out-of-range numbers.
        7 if !numbers.is_empty() => {
            let with = pick(
                rng,
                &[
                    "-1",
                    "-0",
                    "4294967296",
                    "9223372036854775807",
                    "9223372036854775808",
                    "99999999999999999999",
                    "1e400",
                    "-1e400",
                    "1.5.5",
                    "--1",
                    "-",
                ],
            );
            replace_span(line, pick(rng, &numbers), with)
        }
        // Truncation.
        8 => line[..char_boundary(rng, line)].to_owned(),
        // One character replaced with JSON punctuation or a letter.
        9 => {
            let at = char_boundary(rng, line);
            let len = line[at..].chars().next().map_or(0, char::len_utf8);
            let c = char::from(pick(rng, JSON_CHARS));
            format!("{}{c}{}", &line[..at], &line[at + len..])
        }
        _ => {
            let once = mutate(rng, line);
            mutate(rng, &once)
        }
    }
}

/// A random multi-line document: written, mutated and random lines.
fn any_document(rng: &mut TestRng) -> String {
    let mut text = String::new();
    let mut line = String::new();
    for _ in 0..rng.next_u64() % 6 {
        line.clear();
        match rng.next_u64() % 8 {
            0 => {
                let n = rng.next_u64() % 40;
                let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                line.push_str(&String::from_utf8_lossy(&bytes));
            }
            1 => {
                let n = rng.next_u64() % 40;
                line.extend((0..n).map(|_| char::from(pick(rng, JSON_CHARS))));
            }
            2 | 3 => any_event(rng).write_jsonl(&mut line),
            _ => {
                let mut written = String::new();
                any_event(rng).write_jsonl(&mut written);
                line.push_str(&mutate(rng, written.trim_end()));
            }
        }
        text.push_str(line.trim_end_matches('\n'));
        text.push_str(pick(rng, &["\n", "\r\n", "\n\n", "\n  \n"]));
    }
    text
}

#[test]
fn write_jsonl_matches_the_tree_serializer_on_edge_values() {
    let mut rng = TestRng::seed_from(7);
    let mut line = String::new();
    for (i, &x) in EDGE_F64.iter().enumerate() {
        let at = SimTime::from_nanos(pick(&mut rng, &[0, i as u64, i64::MAX as u64]));
        for ev in [
            Event::RateChange {
                at,
                stream: StreamKind::Service,
                new_rate: x,
                ln_p_max: Some(x),
                threshold: None,
            },
            Event::RateChange {
                at,
                stream: StreamKind::Arrival,
                new_rate: -x,
                ln_p_max: None,
                threshold: Some(x),
            },
            Event::FrameDone {
                at,
                delay_s: x,
                freq_tenths_mhz: u32::MAX,
            },
            Event::FreqSwitch {
                at,
                from_tenths_mhz: u32::MAX,
                to_tenths_mhz: 0,
                from_mv: u32::MAX,
                to_mv: i as u32,
            },
            Event::WakeStart {
                at,
                latency: SimDuration::from_nanos(i64::MAX as u64),
            },
        ] {
            assert_writer_matches_tree(&ev, &mut line);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn write_jsonl_matches_the_tree_serializer(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from(seed);
        let mut line = String::new();
        for _ in 0..8 {
            assert_writer_matches_tree(&any_event(&mut rng), &mut line);
        }
    }

    #[test]
    fn parse_jsonl_agrees_with_the_tree_decoder(seed in any::<u64>()) {
        let text = any_document(&mut TestRng::seed_from(seed));
        prop_assert_eq!(
            crate::parse_jsonl(&text),
            parse_jsonl_via_tree(&text),
            "input: {:?}",
            text
        );
        // Line by line too, so one bad line does not hide the others.
        for line in text.lines() {
            prop_assert_eq!(
                crate::parse_jsonl(line),
                parse_jsonl_via_tree(line),
                "input: {:?}",
                line
            );
        }
    }
}

/// What decoding a written event yields: the event itself, except that
/// a non-finite float is written as `null`, which an optional field
/// reads back as `None` and a required one rejects.
fn after_round_trip(ev: Event) -> Option<Event> {
    let finite = |x: Option<f64>| x.filter(|x| x.is_finite());
    match ev {
        Event::RateChange { new_rate, .. }
        | Event::FrameDone {
            delay_s: new_rate, ..
        } if !new_rate.is_finite() => None,
        Event::RateChange {
            at,
            stream,
            new_rate,
            ln_p_max,
            threshold,
        } => Some(Event::RateChange {
            at,
            stream,
            new_rate,
            ln_p_max: finite(ln_p_max),
            threshold: finite(threshold),
        }),
        other => Some(other),
    }
}

#[test]
fn written_events_decode_back_through_both_decoders() {
    let mut rng = TestRng::seed_from(11);
    let mut line = String::new();
    for _ in 0..5_000 {
        let ev = any_event(&mut rng);
        line.clear();
        ev.write_jsonl(&mut line);
        let direct = crate::parse_jsonl(&line);
        assert_eq!(direct, parse_jsonl_via_tree(&line), "{line}");
        assert_eq!(direct.ok(), after_round_trip(ev).map(|e| vec![e]), "{line}");
    }
}
