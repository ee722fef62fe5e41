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
//! The second costly step is solving a renewal or TISMDP DPM policy
//! (milliseconds, against microseconds for a whole device under any
//! other policy). The first device built from a [`SharedResources`]
//! solves it and leaves the solved policy behind; every later device
//! with the same DPM configuration gets a copy.
//!
//! Byte-identity: [`SharedResources::resolve_governor`] performs exactly the
//! lookup [`detect::ChangePointDetector::new`] would (same key, same
//! cache), so a simulator built from pre-resolved resources produces
//! bit-identical reports to one built without them. A solved policy is
//! immutable after its deterministic solve, so a copy plans exactly as a
//! fresh solve would.

use crate::config::{DpmKind, GovernorKind, SolvedDpm};
use crate::PmError;
use detect::calibrate::ThresholdTable;
use dpm::costs::DpmCosts;
use dpm::idle::IdleMixture;
use dpm::policy::DpmPolicy;
use std::sync::{Arc, OnceLock};

/// Shared resources resolved once and reused across many identically
/// configured simulator constructions.
#[derive(Debug, Clone, Default)]
pub struct SharedResources {
    /// The change-point governor's calibrated threshold table; `None`
    /// for governors without one — or when the caller wants each
    /// construction to go through the cache itself.
    pub threshold_table: Option<Arc<ThresholdTable>>,
    /// The DPM policy the first device built from these resources
    /// solved, under the inputs it was solved for.
    solved_dpm: OnceLock<DpmMemo>,
}

/// A solved DPM policy and the inputs of its solve.
#[derive(Debug, Clone)]
struct DpmMemo {
    kind: DpmKind,
    costs: DpmCosts,
    idle_model: IdleMixture,
    solved: SolvedDpm,
}

impl SharedResources {
    /// Empty resources: every construction resolves its own table.
    /// [`Self::default`], usable in a `static`.
    #[must_use]
    pub const fn new() -> Self {
        SharedResources {
            threshold_table: None,
            solved_dpm: OnceLock::new(),
        }
    }

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
        Ok(SharedResources {
            threshold_table,
            ..SharedResources::new()
        })
    }

    /// A device's DPM policy. A renewal or TISMDP policy is solved by
    /// the first construction and copied for every later one with the
    /// same inputs; inputs that differ from the memoized solve's get a
    /// solve of their own. Other kinds are built directly.
    ///
    /// # Errors
    ///
    /// Returns an error if the policy parameters are invalid for these
    /// costs. Failed solves are not memoized.
    pub(crate) fn dpm_policy(
        &self,
        kind: &DpmKind,
        costs: &DpmCosts,
        idle_model: &IdleMixture,
    ) -> Result<Box<dyn DpmPolicy>, PmError> {
        if let Some(memo) = self.solved_dpm.get() {
            if memo.kind == *kind && memo.costs == *costs && memo.idle_model == *idle_model {
                return Ok(memo.solved.boxed());
            }
        }
        let Some(solved) = kind.solve(costs, idle_model)? else {
            return kind.build(costs, idle_model);
        };
        // A concurrent first construction may have set it meanwhile;
        // its solve equals this one.
        let _ = self.solved_dpm.set(DpmMemo {
            kind: kind.clone(),
            costs: *costs,
            idle_model: *idle_model,
            solved,
        });
        Ok(solved.boxed())
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
    fn a_solved_dpm_policy_is_memoized_for_its_own_inputs_only() {
        use dpm::policy::SleepState;
        use hardware::SmartBadge;
        use simcore::rng::SimRng;
        let costs = DpmCosts::managed_subsystem(&SmartBadge::new());
        let idle = IdleMixture::streaming_default().unwrap();
        let renewal = DpmKind::Renewal {
            state: SleepState::Standby,
            delay_budget_s: 0.05,
        };
        let tismdp = DpmKind::Tismdp { delay_weight: 2.0 };
        let plans = |policy: &mut Box<dyn DpmPolicy>| -> Vec<_> {
            let mut rng = SimRng::seed_from(5);
            (0..64).map(|_| policy.plan_idle(&mut rng)).collect()
        };
        let shared = SharedResources::new();
        for kind in [&renewal, &tismdp, &renewal] {
            let mut fresh = kind.build(&costs, &idle).unwrap();
            let mut copied = shared.dpm_policy(kind, &costs, &idle).unwrap();
            assert_eq!(copied.name(), fresh.name());
            assert_eq!(plans(&mut copied), plans(&mut fresh), "{}", kind.label());
        }
        // The first solve stays memoized; other inputs solved their own.
        let memo = shared.solved_dpm.get().expect("first solve memoized");
        assert_eq!(memo.kind, renewal);
        let other_budget = DpmKind::Renewal {
            state: SleepState::Standby,
            delay_budget_s: 0.5,
        };
        let mut other = shared.dpm_policy(&other_budget, &costs, &idle).unwrap();
        let mut fresh = other_budget.build(&costs, &idle).unwrap();
        assert_eq!(plans(&mut other), plans(&mut fresh));
        // Kinds that are not solved are never memoized.
        let cheap = SharedResources::new();
        cheap.dpm_policy(&DpmKind::None, &costs, &idle).unwrap();
        assert!(cheap.solved_dpm.get().is_none());
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
