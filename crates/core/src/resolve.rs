//! Pre-resolved shared construction resources for batch harnesses.
//!
//! Constructing a simulator is cheap except for one step: a
//! change-point governor's threshold table, which is resolved through
//! the process-wide [`detect::cache`] (a hash of the full calibration
//! key per lookup, plus the one-off Monte-Carlo calibration on the
//! first miss). A harness that steps thousands of identically
//! configured devices — the fleet engine's cohort batches — can resolve
//! that table **once per cohort** and hand it to every construction,
//! so the per-device path performs zero cache traffic.
//!
//! Byte-identity: [`SharedResources::resolve_governor`] performs exactly the
//! lookup [`detect::ChangePointDetector::new`] would (same key, same
//! cache), so a simulator built from pre-resolved resources produces
//! bit-identical reports to one built without them.

use crate::config::GovernorKind;
use crate::PmError;
use detect::calibrate::ThresholdTable;
use std::sync::Arc;

/// Shared, immutable resources resolved once and reused across many
/// identically configured simulator constructions.
#[derive(Debug, Clone, Default)]
pub struct SharedResources {
    /// The change-point governor's calibrated threshold table; `None`
    /// for governors without one — or when the caller wants each
    /// construction to go through the cache itself.
    pub threshold_table: Option<Arc<ThresholdTable>>,
}

impl SharedResources {
    /// Resolves the shared resources for a governor kind alone.
    ///
    /// # Errors
    ///
    /// Propagates threshold-calibration errors.
    pub fn resolve_governor(kind: &GovernorKind) -> Result<Self, PmError> {
        let threshold_table = match kind {
            GovernorKind::ChangePoint(cfg) => Some(cfg.resolve_table()?),
            GovernorKind::Ideal
            | GovernorKind::MaxPerformance
            | GovernorKind::ExpAverage { .. } => None,
        };
        Ok(SharedResources { threshold_table })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_matches_detector_construction() {
        let kind = GovernorKind::quick_change_point();
        let res = SharedResources::resolve_governor(&kind).unwrap();
        let table = res.threshold_table.expect("change-point has a table");
        let GovernorKind::ChangePoint(cfg) = &kind else {
            unreachable!()
        };
        let det = detect::ChangePointDetector::new(25.0, cfg.clone()).unwrap();
        assert!(
            Arc::ptr_eq(&table, &det.shared_table()),
            "resolve and detector construction share the same cached table"
        );
    }

    #[test]
    fn non_change_point_governors_have_no_table() {
        for kind in [
            GovernorKind::Ideal,
            GovernorKind::MaxPerformance,
            GovernorKind::ExpAverage { gain: 0.05 },
        ] {
            let res = SharedResources::resolve_governor(&kind).unwrap();
            assert!(res.threshold_table.is_none());
        }
    }
}
