//! # dvs-dpm — DVS + DPM for portable systems, reproduced in Rust
//!
//! A full reproduction of *"Dynamic Voltage Scaling and Power Management
//! for Portable Systems"* (Simunic, Benini, Acquaviva, Glynn, De Micheli —
//! DAC 2001): the maximum-likelihood change-point detector, the M/M/1
//! frequency/voltage policy, the renewal-theory and TISMDP dynamic power
//! management policies, and a full SmartBadge system simulator with
//! statistically matched MP3/MPEG workloads.
//!
//! This facade crate re-exports the workspace members; depend on the
//! individual crates for finer-grained control.
//!
//! ```
//! use dvs_dpm::powermgr::config::{DpmKind, GovernorKind, SystemConfig};
//! use dvs_dpm::powermgr::scenario::{Run, Workload};
//!
//! # fn main() -> Result<(), dvs_dpm::powermgr::PmError> {
//! let config = SystemConfig {
//!     governor: GovernorKind::Ideal,
//!     dpm: DpmKind::None,
//!     ..SystemConfig::default()
//! };
//! let report = Run::workload(&Workload::Mp3("ACE".into()), &config, 1).execute()?;
//! assert!(report.total_energy_j() > 0.0);
//! # Ok(())
//! # }
//! ```

pub use detect;
pub use dpm;
pub use framequeue;
pub use hardware;
pub use powermgr;
pub use simcore;
pub use trace;
pub use workload;
