//! Fleet-level trace events.
//!
//! A fleet run (`crates/fleet`) simulates many devices; its trace
//! output is two-layered: each device optionally records its own
//! [`Event`](crate::Event) JSONL stream, and the fleet engine records a
//! *fleet-level* JSONL log of [`FleetEvent`]s — one `device_start`
//! followed by `device_done` or `device_failed` per device, plus a
//! `fleet_checkpoint` marker per resume snapshot, bracketed by
//! `fleet_start` and `fleet_done`. The log is written in device-index
//! order after the
//! parallel run completes, so it is byte-identical at any `--jobs`
//! count, like everything else the engine emits.
//!
//! The wire format mirrors [`Event`](crate::Event): one JSON object per line with a
//! `"kind"` discriminator, round-tripped by [`FleetEvent::from_json`]
//! and [`parse_fleet_jsonl`].

use simcore::json::{Json, ToJson};

/// One fleet-level event.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEvent {
    /// The fleet run began.
    FleetStart {
        /// Fleet spec name.
        name: String,
        /// Number of devices in the fleet.
        devices: u64,
        /// The fleet's base seed (each device forks its own stream).
        base_seed: u64,
    },
    /// One device's simulation was dispatched.
    DeviceStart {
        /// Device index within the fleet.
        device: u64,
        /// The device's forked seed.
        seed: u64,
        /// Workload name (e.g. `mp3:AB`).
        workload: String,
        /// Governor label.
        governor: String,
        /// DPM policy label.
        dpm: String,
        /// Fault preset name.
        faults: String,
    },
    /// One device's simulation completed.
    DeviceDone {
        /// Device index within the fleet.
        device: u64,
        /// Frames the device decoded.
        frames_completed: u64,
        /// Total energy, joules.
        energy_j: f64,
        /// Mean total frame delay, seconds.
        mean_delay_s: f64,
    },
    /// One device failed every attempt its failure policy allowed; the
    /// fleet carried on without it (or aborted, under `fail_fast`).
    DeviceFailed {
        /// Device index within the fleet.
        device: u64,
        /// The seed of the last attempt.
        seed: u64,
        /// Attempts consumed before giving up.
        attempts: u64,
        /// The last attempt's error message.
        error: String,
    },
    /// The engine wrote a resume checkpoint of the outcome prefix.
    FleetCheckpoint {
        /// Devices whose outcomes the checkpoint covers (`0..done`).
        done: u64,
    },
    /// The whole fleet completed.
    FleetDone {
        /// Number of devices that completed.
        devices: u64,
    },
}

impl FleetEvent {
    /// The wire-format `"kind"` discriminator.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FleetEvent::FleetStart { .. } => "fleet_start",
            FleetEvent::DeviceStart { .. } => "device_start",
            FleetEvent::DeviceDone { .. } => "device_done",
            FleetEvent::DeviceFailed { .. } => "device_failed",
            FleetEvent::FleetCheckpoint { .. } => "fleet_checkpoint",
            FleetEvent::FleetDone { .. } => "fleet_done",
        }
    }

    /// Decodes one fleet event from its JSON object form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(json: &Json) -> Result<FleetEvent, String> {
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing \"kind\"")?;
        let ev = match kind {
            "fleet_start" => FleetEvent::FleetStart {
                name: str_field(json, "name")?,
                devices: u64_field(json, "devices")?,
                base_seed: u64_field(json, "base_seed")?,
            },
            "device_start" => FleetEvent::DeviceStart {
                device: u64_field(json, "device")?,
                seed: u64_field(json, "seed")?,
                workload: str_field(json, "workload")?,
                governor: str_field(json, "governor")?,
                dpm: str_field(json, "dpm")?,
                faults: str_field(json, "faults")?,
            },
            "device_done" => FleetEvent::DeviceDone {
                device: u64_field(json, "device")?,
                frames_completed: u64_field(json, "frames_completed")?,
                energy_j: f64_field(json, "energy_j")?,
                mean_delay_s: f64_field(json, "mean_delay_s")?,
            },
            "device_failed" => FleetEvent::DeviceFailed {
                device: u64_field(json, "device")?,
                seed: u64_field(json, "seed")?,
                attempts: u64_field(json, "attempts")?,
                error: str_field(json, "error")?,
            },
            "fleet_checkpoint" => FleetEvent::FleetCheckpoint {
                done: u64_field(json, "done")?,
            },
            "fleet_done" => FleetEvent::FleetDone {
                devices: u64_field(json, "devices")?,
            },
            other => return Err(format!("unknown fleet event kind `{other}`")),
        };
        Ok(ev)
    }
}

impl ToJson for FleetEvent {
    fn to_json(&self) -> Json {
        let mut pairs = vec![("kind".to_string(), Json::Str(self.name().to_string()))];
        match self {
            FleetEvent::FleetStart {
                name,
                devices,
                base_seed,
            } => {
                pairs.push(("name".into(), name.to_json()));
                pairs.push(("devices".into(), devices.to_json()));
                pairs.push(("base_seed".into(), base_seed.to_json()));
            }
            FleetEvent::DeviceStart {
                device,
                seed,
                workload,
                governor,
                dpm,
                faults,
            } => {
                pairs.push(("device".into(), device.to_json()));
                pairs.push(("seed".into(), seed.to_json()));
                pairs.push(("workload".into(), workload.to_json()));
                pairs.push(("governor".into(), governor.to_json()));
                pairs.push(("dpm".into(), dpm.to_json()));
                pairs.push(("faults".into(), faults.to_json()));
            }
            FleetEvent::DeviceDone {
                device,
                frames_completed,
                energy_j,
                mean_delay_s,
            } => {
                pairs.push(("device".into(), device.to_json()));
                pairs.push(("frames_completed".into(), frames_completed.to_json()));
                pairs.push(("energy_j".into(), energy_j.to_json()));
                pairs.push(("mean_delay_s".into(), mean_delay_s.to_json()));
            }
            FleetEvent::DeviceFailed {
                device,
                seed,
                attempts,
                error,
            } => {
                pairs.push(("device".into(), device.to_json()));
                pairs.push(("seed".into(), seed.to_json()));
                pairs.push(("attempts".into(), attempts.to_json()));
                pairs.push(("error".into(), error.to_json()));
            }
            FleetEvent::FleetCheckpoint { done } => {
                pairs.push(("done".into(), done.to_json()));
            }
            FleetEvent::FleetDone { devices } => {
                pairs.push(("devices".into(), devices.to_json()));
            }
        }
        Json::obj(pairs)
    }
}

/// Parses a fleet-level JSONL log back into events. Blank lines are
/// skipped; any malformed line aborts with its line number.
///
/// # Errors
///
/// Returns a message naming the offending line.
pub fn parse_fleet_jsonl(text: &str) -> Result<Vec<FleetEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        events.push(FleetEvent::from_json(&json).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(events)
}

fn str_field(json: &Json, name: &'static str) -> Result<String, String> {
    json.get(name)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing \"{name}\""))
}

fn u64_field(json: &Json, name: &'static str) -> Result<u64, String> {
    // `ToJson` serializes u64 as `Json::Int(v as i64)`, so values above
    // `i64::MAX` (full-width seeds in particular) come back negative;
    // reverse the two's-complement cast rather than rejecting them.
    match json.get(name) {
        Some(Json::Int(i)) => Ok(*i as u64),
        _ => Err(format!("missing \"{name}\"")),
    }
}

fn f64_field(json: &Json, name: &'static str) -> Result<f64, String> {
    json.get(name)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing \"{name}\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<FleetEvent> {
        vec![
            FleetEvent::FleetStart {
                name: "smoke".into(),
                devices: 3,
                base_seed: 42,
            },
            FleetEvent::DeviceStart {
                device: 0,
                seed: 17,
                workload: "mp3:AB".into(),
                governor: "change-point".into(),
                dpm: "break-even".into(),
                faults: "off".into(),
            },
            FleetEvent::DeviceDone {
                device: 0,
                frames_completed: 1234,
                energy_j: 56.25,
                mean_delay_s: 0.125,
            },
            FleetEvent::DeviceFailed {
                device: 1,
                seed: u64::MAX - 7,
                attempts: 3,
                error: "injected panic: boom".into(),
            },
            FleetEvent::FleetCheckpoint { done: 2 },
            FleetEvent::FleetDone { devices: 3 },
        ]
    }

    #[test]
    fn events_round_trip_through_jsonl() {
        let text: String = samples()
            .iter()
            .map(|e| e.to_json().dump() + "\n")
            .collect();
        let back = parse_fleet_jsonl(&text).expect("parses");
        assert_eq!(back, samples());
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        let err = parse_fleet_jsonl("{\"kind\":\"fleet_start\"}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse_fleet_jsonl("{\"kind\":\"warp_drive\"}\n").unwrap_err();
        assert!(err.contains("warp_drive"), "{err}");
        let ok = parse_fleet_jsonl("\n\n").expect("blank lines skipped");
        assert!(ok.is_empty());
    }
}
