//! Canned paper scenarios and the one way to run a device.
//!
//! A [`Workload`] names a paper experiment family — an MP3 sequence
//! (a Table 3 cell), an MPEG clip (a Table 4 cell), or the mixed
//! audio/video session with idle gaps (a Table 5 cell) — and builds its
//! frame trace. A [`Run`] plays one workload (or any prepared trace)
//! through the merged DVS + DPM power manager, so tests, examples, the
//! CLI, the fleet engine and the bench harness all run the *same* code
//! path.

use crate::config::SystemConfig;
use crate::metrics::SimReport;
use crate::resolve::SharedResources;
use crate::system::SystemSimulator;
use crate::PmError;
use simcore::rng::SimRng;
use std::fmt;
use trace::{AssertionMonitor, TraceSink};
use workload::session::Session;
use workload::{mp3, MpegClip, Trace};

/// A named workload choice — the `--workload` axis of the CLI and the
/// per-device workload mix of a fleet spec. Parsing and execution live
/// here so every front end (CLI `run`, `dvsdpm fleet`, benches)
/// resolves the same string to the same scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// An MP3 clip sequence over the Table 3 clips `A`–`F`.
    Mp3(String),
    /// One of the Table 4 MPEG clips (`football` or `terminator2`).
    Mpeg(String),
    /// The Table 5 mixed audio/video session with idle gaps.
    Session,
}

impl Workload {
    /// Parses `mp3:<labels>`, `mpeg:<clip>`, or `session`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the expected forms.
    pub fn parse(s: &str) -> Result<Workload, String> {
        if let Some(labels) = s.strip_prefix("mp3:") {
            if labels.is_empty() {
                return Err("mp3 workload needs clip labels, e.g. mp3:ACEFBD".to_owned());
            }
            Ok(Workload::Mp3(labels.to_owned()))
        } else if let Some(clip) = s.strip_prefix("mpeg:") {
            match clip {
                "football" | "terminator2" => Ok(Workload::Mpeg(clip.to_owned())),
                other => Err(format!(
                    "unknown MPEG clip `{other}` (expected football|terminator2)"
                )),
            }
        } else if s == "session" {
            Ok(Workload::Session)
        } else {
            Err(format!(
                "unknown workload `{s}` (expected mp3:<labels>|mpeg:<clip>|session)"
            ))
        }
    }

    /// Generates this workload's frame trace at `seed`: the trace a
    /// [`Run`] of this workload at the same seed plays.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown clip labels or names.
    pub fn build(&self, seed: u64) -> Result<Trace, PmError> {
        let root = SimRng::seed_from(seed);
        match self {
            Workload::Mp3(labels) => Ok(mp3::sequence(labels, &mut root.fork("mp3-sequence"))?),
            Workload::Mpeg(name) => {
                let clip = match name.as_str() {
                    "football" => MpegClip::football(),
                    "terminator2" => MpegClip::terminator2(),
                    _ => {
                        return Err(PmError::InvalidParameter {
                            name: "clip name (expected football|terminator2)",
                            value: f64::NAN,
                        })
                    }
                };
                Ok(clip.generate(&mut root.fork("mpeg-clip")))
            }
            Workload::Session => {
                let mut rng = root.fork("session");
                let session = Session::table5(&mut rng);
                Ok(session.generate(&mut rng)?)
            }
        }
    }
}

impl fmt::Display for Workload {
    /// Formats back to the parseable `mp3:…` / `mpeg:…` / `session`
    /// form, so `Workload::parse(&w.to_string()) == Ok(w)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Workload::Mp3(labels) => write!(f, "mp3:{labels}"),
            Workload::Mpeg(clip) => write!(f, "mpeg:{clip}"),
            Workload::Session => write!(f, "session"),
        }
    }
}

/// What a [`Run`] plays.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// A named workload, built at the run's seed by [`Workload::build`].
    Workload(&'a Workload),
    /// A prepared frame trace.
    Trace(&'a Trace),
}

/// One device run: an input played under a configuration at a seed,
/// with optional pre-resolved resources, event sink and streaming
/// assertion monitor. [`Run::execute`] is the only runner above the
/// event kernel ([`SystemSimulator::run_counted`]).
///
/// Neither attachment perturbs the simulation: the report's numbers are
/// bit-identical with and without a sink or monitor, and
/// [`SimReport::assertions`] is populated exactly when a monitor is
/// attached. With neither, the run takes the untraced event-loop
/// instantiation, which constructs no trace events at all.
///
/// ```
/// use powermgr::config::{GovernorKind, SystemConfig};
/// use powermgr::scenario::{Run, Workload};
///
/// # fn main() -> Result<(), powermgr::PmError> {
/// let config = SystemConfig {
///     governor: GovernorKind::Ideal,
///     ..SystemConfig::default()
/// };
/// let mut sink = trace::RingSink::new(1 << 16);
/// let report = Run {
///     sink: Some(&mut sink),
///     ..Run::workload(&Workload::Mp3("A".into()), &config, 7)
/// }
/// .execute()?;
/// assert_eq!(trace::replay(&sink.events()).frames_completed, report.frames_completed);
/// # Ok(())
/// # }
/// ```
pub struct Run<'a> {
    /// The workload or trace to play.
    pub input: Input<'a>,
    /// The system configuration.
    pub config: &'a SystemConfig,
    /// Seeds the workload build and every stochastic element of the
    /// simulation (wake-up latencies, randomized timeouts, faults).
    pub seed: u64,
    /// Pre-resolved resources (the fleet engine's cohort tables). `None`
    /// resolves the threshold table through the process-wide threshold
    /// cache; resources resolved from `config` give the same report.
    pub shared: Option<&'a SharedResources>,
    /// Receives every structured event of the run.
    pub sink: Option<&'a mut dyn TraceSink>,
    /// Checks the event stream online; its verdict lands in
    /// [`SimReport::assertions`].
    pub monitor: Option<&'a mut AssertionMonitor>,
}

impl<'a> Run<'a> {
    /// A run of `workload` with no shared resources, sink or monitor.
    #[must_use]
    pub fn workload(workload: &'a Workload, config: &'a SystemConfig, seed: u64) -> Self {
        Self::of(Input::Workload(workload), config, seed)
    }

    /// A run of a prepared `trace` with no shared resources, sink or
    /// monitor.
    #[must_use]
    pub fn trace(trace: &'a Trace, config: &'a SystemConfig, seed: u64) -> Self {
        Self::of(Input::Trace(trace), config, seed)
    }

    fn of(input: Input<'a>, config: &'a SystemConfig, seed: u64) -> Self {
        Run {
            input,
            config,
            seed,
            shared: None,
            sink: None,
            monitor: None,
        }
    }

    /// Plays the input to its end and returns the report.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown clip labels, an invalid
    /// configuration, or a simulator invariant violation.
    pub fn execute(self) -> Result<SimReport, PmError> {
        let built;
        let trace = match self.input {
            Input::Workload(workload) => {
                built = workload.build(self.seed)?;
                &built
            }
            Input::Trace(trace) => trace,
        };
        let unshared = SharedResources::default();
        let shared = self.shared.unwrap_or(&unshared);
        let config = self.config.clone();
        let mut sim = match self.sink {
            Some(sink) => {
                SystemSimulator::new_traced_shared(trace, config, self.seed, shared, sink)?
            }
            None => SystemSimulator::new_shared(trace, config, self.seed, shared)?,
        };
        if let Some(monitor) = self.monitor {
            sim.attach_monitor(monitor);
        }
        Ok(sim.run_counted(trace.end())?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DpmKind, GovernorKind};
    use dpm::policy::SleepState;
    use simcore::json::ToJson;
    use trace::{AssertionConfig, RingSink};

    fn cfg(governor: GovernorKind, dpm: DpmKind) -> SystemConfig {
        SystemConfig {
            governor,
            dpm,
            ..SystemConfig::default()
        }
    }

    fn run(workload: &str, config: &SystemConfig, seed: u64) -> SimReport {
        let workload = Workload::parse(workload).unwrap();
        Run::workload(&workload, config, seed).execute().unwrap()
    }

    #[test]
    fn workload_parse_round_trips_and_runs_its_built_trace() {
        for s in ["mp3:ACE", "mpeg:football", "mpeg:terminator2", "session"] {
            let w = Workload::parse(s).unwrap();
            assert_eq!(w.to_string(), s);
        }
        for bad in ["mp3:", "mpeg:matrix", "vhs:ghostbusters", ""] {
            assert!(Workload::parse(bad).is_err(), "{bad}");
        }
        // A workload input plays exactly the trace `build` returns.
        let config = cfg(GovernorKind::MaxPerformance, DpmKind::None);
        let workload = Workload::parse("mp3:A").unwrap();
        let via_workload = Run::workload(&workload, &config, 5).execute().unwrap();
        let built = workload.build(5).unwrap();
        let via_trace = Run::trace(&built, &config, 5).execute().unwrap();
        assert_eq!(via_workload.to_json().dump(), via_trace.to_json().dump());
    }

    #[test]
    fn mp3_sequence_runs_and_labels_match() {
        let report = run(
            "mp3:AF",
            &cfg(GovernorKind::MaxPerformance, DpmKind::None),
            11,
        );
        assert_eq!(report.governor, "max");
        assert_eq!(report.dpm, "none");
        assert!(report.frames_completed > 1000);
    }

    #[test]
    fn unknown_clip_is_rejected() {
        let config = SystemConfig::default();
        for bad in [Workload::Mpeg("matrix".into()), Workload::Mp3("XYZ".into())] {
            assert!(bad.build(0).is_err(), "{bad}");
            assert!(Run::workload(&bad, &config, 0).execute().is_err(), "{bad}");
        }
    }

    /// Every combination of shared resources, sink and monitor, for
    /// every governor kind: one report, a verdict exactly when a monitor
    /// is attached, and the online verdict equal to an offline check of
    /// the recorded events.
    #[test]
    fn run_is_identical_across_resources_sinks_and_monitors() {
        let assert_config = AssertionConfig::paper();
        let workload = Workload::parse("mp3:AB").unwrap();
        for governor in [
            GovernorKind::Ideal,
            GovernorKind::MaxPerformance,
            GovernorKind::ExpAverage { gain: 0.05 },
            GovernorKind::quick_change_point(),
        ] {
            let config = cfg(governor, DpmKind::None);
            let resolved = SharedResources::resolve_governor(&config.governor).unwrap();
            let (mut stripped_reports, mut verdicts) = (Vec::new(), Vec::new());
            for shared in [Some(&resolved), None] {
                for traced in [false, true] {
                    for monitored in [false, true] {
                        let case = format!(
                            "{} shared={} sink={traced} monitor={monitored}",
                            config.governor.label(),
                            shared.is_some()
                        );
                        let mut sink = RingSink::new(1 << 20);
                        let mut monitor = AssertionMonitor::new(&assert_config).unwrap();
                        let report = Run {
                            shared,
                            sink: traced.then_some(&mut sink as &mut dyn TraceSink),
                            monitor: monitored.then_some(&mut monitor),
                            ..Run::workload(&workload, &config, 7)
                        }
                        .execute()
                        .unwrap();
                        assert_eq!(report.assertions.is_some(), monitored, "{case}");
                        if traced {
                            assert_eq!(sink.dropped(), 0, "ring must hold the full trace");
                            let events = sink.events();
                            let summary = trace::replay(&events);
                            assert_eq!(summary.frames_completed, report.frames_completed);
                            if let Some(online) = &report.assertions {
                                let offline =
                                    AssertionMonitor::check(&assert_config, &events).unwrap();
                                assert_eq!(
                                    offline.to_json().dump(),
                                    online.to_json().dump(),
                                    "{case}"
                                );
                            }
                        }
                        if let Some(online) = &report.assertions {
                            assert!(online.delay.unwrap().checked > 1000, "{case}");
                            verdicts.push((case.clone(), online.to_json().dump()));
                        }
                        let mut stripped = report;
                        stripped.assertions = None;
                        stripped_reports.push((case, stripped.to_json().dump()));
                    }
                }
            }
            for runs in [&stripped_reports, &verdicts] {
                let (_, first) = &runs[0];
                for (case, json) in runs {
                    assert_eq!(json, first, "{case}");
                }
            }
        }
    }

    #[test]
    fn ideal_beats_max_on_mp3_sequence() {
        let max = run(
            "mp3:AF",
            &cfg(GovernorKind::MaxPerformance, DpmKind::None),
            12,
        );
        let ideal = run("mp3:AF", &cfg(GovernorKind::Ideal, DpmKind::None), 12);
        assert!(ideal.total_energy_j() < max.total_energy_j());
    }

    #[test]
    fn session_with_both_beats_either_alone() {
        let standby = DpmKind::BreakEven {
            state: SleepState::Standby,
        };
        let neither = run(
            "session",
            &cfg(GovernorKind::MaxPerformance, DpmKind::None),
            13,
        );
        let dvs_only = run("session", &cfg(GovernorKind::Ideal, DpmKind::None), 13);
        let dpm_only = run(
            "session",
            &cfg(GovernorKind::MaxPerformance, standby.clone()),
            13,
        );
        let both = run("session", &cfg(GovernorKind::Ideal, standby), 13);
        assert!(dvs_only.total_energy_j() < neither.total_energy_j());
        assert!(dpm_only.total_energy_j() < neither.total_energy_j());
        assert!(both.total_energy_j() < dvs_only.total_energy_j());
        assert!(both.total_energy_j() < dpm_only.total_energy_j());
    }
}
