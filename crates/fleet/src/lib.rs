//! Fleet-scale batched simulation: N independent SmartBadge devices —
//! each a seed-forked [`powermgr::SystemSimulator`] run with its own
//! workload mix, DVS/DPM policy, and fault preset — executed over the
//! deterministic parallel engine and aggregated into one
//! [`FleetReport`] of percentile distributions and per-policy cohort
//! comparisons (the paper's Table 5, at population scale).
//!
//! The contract: a fleet run is a pure function of its [`FleetSpec`].
//! Worker count changes wall-clock time only — the serialized report is
//! byte-identical at `--jobs 1` and `--jobs 1024`. Change-point
//! calibration cost is paid once per distinct detector configuration
//! via the process-wide threshold cache, not once per device.
//!
//! Failures are part of the contract too: each device runs supervised
//! (panics caught, typed errors contained), and the spec's [`OnError`]
//! policy decides whether one failing device aborts the run
//! (`fail_fast`), is recorded in a partial report (`continue`), or is
//! deterministically retried first (`retry:<n>`). Long runs can
//! checkpoint and resume ([`engine::RunOptions`]) with byte-identical
//! results.
//!
//! ```
//! use fleet::{run_fleet, FleetSpec, OnError, PolicySpec};
//! use powermgr::config::{DpmKind, GovernorKind};
//! use powermgr::scenario::Workload;
//! use simcore::par::Jobs;
//!
//! let spec = FleetSpec {
//!     name: "doc".into(),
//!     devices: 2,
//!     base_seed: 42,
//!     workloads: vec![Workload::Mp3("A".into())],
//!     policies: vec![
//!         PolicySpec { governor: GovernorKind::MaxPerformance, dpm: DpmKind::None },
//!         PolicySpec { governor: GovernorKind::Ideal, dpm: DpmKind::None },
//!     ],
//!     faults: vec![faults::FaultPreset::Off],
//!     on_error: OnError::FailFast,
//!     assertions: None,
//! };
//! let report = run_fleet(&spec, Jobs::Count(2))?;
//! assert_eq!(report.devices, 2);
//! assert_eq!(report.cohorts.len(), 2);
//! assert!(!report.partial);
//! # Ok::<(), fleet::FleetError>(())
//! ```

use std::fmt;

pub mod accum;
pub mod checkpoint;
pub mod cohort;
pub mod engine;
pub mod report;
pub mod spec;

pub use accum::{FleetAccumulator, MetricAcc, RECORD_SAMPLE_CAP, SKETCH_CAPACITY};
pub use cohort::{cohort_key, probe_detection_latency, CohortResources};
pub use engine::{run_device, run_fleet, run_fleet_opts, RunOptions};
pub use report::{
    CohortHealth, CohortSummary, DeviceAssertions, DeviceFailure, DeviceOutcome, DeviceRecord,
    FailureSample, FleetHealth, FleetReport, MetricSummary, SloSummary,
};
pub use spec::{DeviceAssignment, FleetSpec, OnError, PolicySpec};

/// Errors from parsing a fleet spec or running a fleet.
#[derive(Debug)]
pub enum FleetError {
    /// The spec is malformed or violates a structural invariant.
    Spec(String),
    /// A device simulation failed.
    Sim(powermgr::PmError),
    /// A device exhausted its attempts under the `fail_fast` policy.
    Device {
        /// Device index within the fleet.
        device: u64,
        /// Attempts the device consumed.
        attempts: u64,
        /// The last attempt's error message.
        error: String,
    },
    /// A resume checkpoint failed verification.
    Checkpoint(String),
    /// Trace or checkpoint output could not be written or read.
    Io(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Spec(msg) => write!(f, "fleet spec: {msg}"),
            FleetError::Sim(e) => write!(f, "device simulation failed: {e}"),
            FleetError::Device {
                device,
                attempts,
                error,
            } => write!(
                f,
                "device {device} failed after {attempts} attempt(s) (on_error: fail_fast): {error}"
            ),
            FleetError::Checkpoint(msg) => write!(f, "fleet checkpoint: {msg}"),
            FleetError::Io(msg) => write!(f, "fleet io: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Sim(e) => Some(e),
            FleetError::Spec(_)
            | FleetError::Device { .. }
            | FleetError::Checkpoint(_)
            | FleetError::Io(_) => None,
        }
    }
}

impl From<powermgr::PmError> for FleetError {
    fn from(e: powermgr::PmError) -> Self {
        FleetError::Sim(e)
    }
}
