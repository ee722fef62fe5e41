//! Experiment configuration: which governor, which DPM policy, which
//! targets.

use crate::dvs::QueueModel;
use crate::PmError;
use detect::changepoint::ChangePointConfig;
use dpm::costs::DpmCosts;
use dpm::idle::IdleMixture;
use dpm::policy::{DpmPolicy, SleepState};
use dpm::predictive::PredictiveShutdown;
use dpm::renewal::{RenewalConfig, RenewalPolicy};
use dpm::timeout::{AdaptiveTimeout, FixedTimeout};
use dpm::tismdp::{TismdpConfig, TismdpPolicy};
use dpm::NoSleep;
use simcore::time::SimDuration;

/// The detection strategy driving DVS — the four columns of the paper's
/// Tables 3 and 4.
#[derive(Debug, Clone, PartialEq)]
pub enum GovernorKind {
    /// Ideal detection: reads the ground-truth rates from the trace
    /// ("assumes knowledge of the future").
    Ideal,
    /// The paper's change-point detection algorithm.
    ChangePoint(ChangePointConfig),
    /// Exponential moving average of instantaneous rates (Eq. 6) with
    /// the given gain.
    ExpAverage {
        /// EMA gain `g ∈ (0, 1]`; the paper plots 0.3 and 0.5.
        gain: f64,
    },
    /// No DVS: always run at maximum frequency and voltage.
    MaxPerformance,
}

impl GovernorKind {
    /// A change-point governor with the paper's default parameters
    /// (m = 100, 99.5 %, checked every 10 samples).
    #[must_use]
    pub fn change_point() -> Self {
        GovernorKind::ChangePoint(ChangePointConfig::default())
    }

    /// A change-point governor with a reduced calibration budget —
    /// identical online behaviour class, faster to construct. Used by
    /// doctests and unit tests.
    #[must_use]
    pub fn quick_change_point() -> Self {
        GovernorKind::ChangePoint(ChangePointConfig {
            window: 60,
            check_interval: 6,
            k_step: 6,
            calibration_trials: 400,
            ..ChangePointConfig::default()
        })
    }

    /// The label used in experiment tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            GovernorKind::Ideal => "ideal",
            GovernorKind::ChangePoint(_) => "change-point",
            GovernorKind::ExpAverage { .. } => "exp-average",
            GovernorKind::MaxPerformance => "max",
        }
    }

    /// Parses the command-line / fleet-spec form of a governor name:
    /// `ideal`, `change-point`, `ema:<gain>`, or `max`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the expected forms.
    pub fn parse(s: &str) -> Result<GovernorKind, String> {
        match s {
            "ideal" => Ok(GovernorKind::Ideal),
            "change-point" => Ok(GovernorKind::change_point()),
            "max" => Ok(GovernorKind::MaxPerformance),
            other => {
                if let Some(gain) = other.strip_prefix("ema:") {
                    let gain: f64 = gain
                        .parse()
                        .map_err(|_| format!("invalid EMA gain `{gain}`"))?;
                    Ok(GovernorKind::ExpAverage { gain })
                } else {
                    Err(format!(
                        "unknown governor `{other}` (expected ideal|change-point|ema:<gain>|max)"
                    ))
                }
            }
        }
    }
}

/// The DPM policy choice for idle periods.
#[derive(Debug, Clone, PartialEq)]
pub enum DpmKind {
    /// Never sleep (the "DVS only" / "no PM" rows of Table 5).
    None,
    /// Fixed timeout into a sleep state.
    FixedTimeout {
        /// Timeout in seconds.
        timeout_s: f64,
        /// Target sleep state.
        state: SleepState,
    },
    /// The 2-competitive break-even timeout.
    BreakEven {
        /// Target sleep state.
        state: SleepState,
    },
    /// Adaptive timeout.
    Adaptive {
        /// Target sleep state.
        state: SleepState,
    },
    /// Predictive shutdown with the given EMA gain.
    Predictive {
        /// Target sleep state.
        state: SleepState,
        /// Idle-length EMA gain.
        gain: f64,
    },
    /// Renewal-theory optimal (possibly randomized) timeout.
    Renewal {
        /// Target sleep state.
        state: SleepState,
        /// Expected wake-delay budget per idle period, seconds.
        delay_budget_s: f64,
    },
    /// Time-indexed SMDP policy over both sleep states.
    Tismdp {
        /// Lagrangian weight on wake-up delay (J per second of delay).
        delay_weight: f64,
    },
}

impl DpmKind {
    /// The label used in experiment tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DpmKind::None => "none",
            DpmKind::FixedTimeout { .. } => "fixed-timeout",
            DpmKind::BreakEven { .. } => "break-even",
            DpmKind::Adaptive { .. } => "adaptive-timeout",
            DpmKind::Predictive { .. } => "predictive",
            DpmKind::Renewal { .. } => "renewal",
            DpmKind::Tismdp { .. } => "tismdp",
        }
    }

    /// Parses the command-line / fleet-spec form of a DPM policy name:
    /// `none`, `timeout:<secs>`, `break-even`, `adaptive`, `predictive`,
    /// `renewal`, or `tismdp`. Parameterized policies use the same
    /// defaults as the paper's experiments (Standby target state,
    /// predictive gain 0.3, renewal delay budget 0.05 s, TISMDP delay
    /// weight 2.0).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the expected forms.
    pub fn parse(s: &str) -> Result<DpmKind, String> {
        match s {
            "none" => Ok(DpmKind::None),
            "break-even" => Ok(DpmKind::BreakEven {
                state: SleepState::Standby,
            }),
            "adaptive" => Ok(DpmKind::Adaptive {
                state: SleepState::Standby,
            }),
            "predictive" => Ok(DpmKind::Predictive {
                state: SleepState::Standby,
                gain: 0.3,
            }),
            "renewal" => Ok(DpmKind::Renewal {
                state: SleepState::Standby,
                delay_budget_s: 0.05,
            }),
            "tismdp" => Ok(DpmKind::Tismdp { delay_weight: 2.0 }),
            other => {
                if let Some(t) = other.strip_prefix("timeout:") {
                    // The simulator clock ticks in whole nanoseconds: a
                    // timeout must survive that conversion as a positive,
                    // representable span.
                    let timeout_s = t
                        .parse::<f64>()
                        .ok()
                        .filter(|&s| s >= 1e-9 && s * 1e9 <= u64::MAX as f64)
                        .ok_or_else(|| {
                            format!(
                                "invalid timeout in `{other}` \
                                 (expected finite seconds, at least the 1 ns clock resolution)"
                            )
                        })?;
                    Ok(DpmKind::FixedTimeout {
                        timeout_s,
                        state: SleepState::Standby,
                    })
                } else {
                    Err(format!(
                        "unknown dpm `{other}` \
                         (expected none|timeout:<s>|break-even|adaptive|predictive|renewal|tismdp)"
                    ))
                }
            }
        }
    }

    /// Instantiates the policy against device costs and the idle-period
    /// model.
    ///
    /// # Errors
    ///
    /// Returns an error if the policy parameters are invalid for these
    /// costs.
    pub fn build(
        &self,
        costs: &DpmCosts,
        idle_model: &IdleMixture,
    ) -> Result<Box<dyn DpmPolicy>, PmError> {
        Ok(match self {
            DpmKind::None => Box::new(NoSleep::new()),
            DpmKind::FixedTimeout { timeout_s, state } => Box::new(FixedTimeout::new(
                SimDuration::from_secs_f64(*timeout_s),
                *state,
            )?),
            DpmKind::BreakEven { state } => Box::new(FixedTimeout::break_even(costs, *state)?),
            DpmKind::Adaptive { state } => Box::new(AdaptiveTimeout::new(
                costs,
                *state,
                SimDuration::from_millis(50),
                SimDuration::from_secs(120),
            )?),
            DpmKind::Predictive { state, gain } => {
                Box::new(PredictiveShutdown::new(costs, *state, *gain)?)
            }
            DpmKind::Renewal {
                state,
                delay_budget_s,
            } => Box::new(RenewalPolicy::solve(
                costs,
                idle_model,
                *state,
                *delay_budget_s,
                RenewalConfig::default(),
            )?),
            DpmKind::Tismdp { delay_weight } => Box::new(TismdpPolicy::solve(
                costs,
                idle_model,
                TismdpConfig {
                    delay_weight: *delay_weight,
                    ..TismdpConfig::default()
                },
            )?),
        })
    }
}

/// Graceful-degradation supervisor: the watchdog half of the fault
/// model.
///
/// The supervisor watches two health signals — the deadline-miss ratio
/// over a rolling window of completed frames, and the instantaneous
/// buffer occupancy. When either crosses its threshold it forces the
/// maximum operating point ("degraded mode", the paper's
/// max-performance column), and it re-enters rate-driven governing only
/// after the miss ratio has decayed below the exit threshold, the
/// backlog has drained, and a minimum dwell time has elapsed
/// (hysteresis, so a flapping fault cannot make the manager thrash).
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Rolling window of completed frames over which the deadline-miss
    /// ratio is computed.
    pub miss_window: usize,
    /// Enter degraded mode when the windowed miss ratio reaches this
    /// (evaluated only once the window is full).
    pub miss_ratio_enter: f64,
    /// Leave degraded mode when the windowed miss ratio has decayed to
    /// this or below.
    pub miss_ratio_exit: f64,
    /// Enter degraded mode when the buffer occupancy reaches this many
    /// frames; the exit path requires it to drain below half of this.
    pub occupancy_enter: usize,
    /// Minimum time to stay degraded once entered, seconds.
    pub min_dwell_s: f64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            miss_window: 50,
            miss_ratio_enter: 0.25,
            miss_ratio_exit: 0.05,
            occupancy_enter: 64,
            min_dwell_s: 2.0,
        }
    }
}

impl SupervisorConfig {
    /// Validates the thresholds.
    ///
    /// # Errors
    ///
    /// Returns an error if the window is empty, a ratio is outside
    /// `[0, 1]`, the exit ratio exceeds the enter ratio, the occupancy
    /// threshold is zero, or the dwell is negative/non-finite.
    pub fn validate(&self) -> Result<(), PmError> {
        if self.miss_window == 0 {
            return Err(PmError::InvalidParameter {
                name: "supervisor.miss_window",
                value: 0.0,
            });
        }
        if self.occupancy_enter == 0 {
            return Err(PmError::InvalidParameter {
                name: "supervisor.occupancy_enter",
                value: 0.0,
            });
        }
        for (name, v) in [
            ("supervisor.miss_ratio_enter", self.miss_ratio_enter),
            ("supervisor.miss_ratio_exit", self.miss_ratio_exit),
        ] {
            if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
                return Err(PmError::InvalidParameter { name, value: v });
            }
        }
        if self.miss_ratio_exit > self.miss_ratio_enter {
            return Err(PmError::InvalidParameter {
                name: "supervisor.miss_ratio_exit",
                value: self.miss_ratio_exit,
            });
        }
        if !(self.min_dwell_s.is_finite() && self.min_dwell_s >= 0.0) {
            return Err(PmError::InvalidParameter {
                name: "supervisor.min_dwell_s",
                value: self.min_dwell_s,
            });
        }
        Ok(())
    }
}

/// Full experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// DVS detection strategy.
    pub governor: GovernorKind,
    /// DPM policy for idle periods.
    pub dpm: DpmKind,
    /// Target mean total frame delay for MP3 audio, seconds (≈ 6 extra
    /// buffered frames at typical audio rates).
    pub mp3_target_delay_s: f64,
    /// Target mean total frame delay for MPEG video, seconds (the
    /// paper's 0.1 s ≈ 2 extra buffered frames).
    pub mpeg_target_delay_s: f64,
    /// Queue model inverting the delay target into a decode rate.
    pub queue_model: QueueModel,
    /// Overload control: when `Some(n)`, the power manager observes the
    /// buffer occupancy (the paper's PM watches "the number of jobs in
    /// the queue") and forces the maximum operating point whenever `n`
    /// or more frames are waiting, releasing with hysteresis at `n/2`.
    /// `None` reproduces the paper's pure rate-driven policy.
    pub overload_boost_depth: Option<usize>,
    /// Arrival gaps longer than this are idle periods, not samples of
    /// the streaming interarrival distribution (the paper excludes idle
    /// state arrivals from the exponential model).
    pub streaming_gap_threshold_s: f64,
    /// Fraction of idle periods that are short intra-stream gaps in the
    /// model the stochastic DPM policies optimize against.
    pub idle_short_weight: f64,
    /// Rate of the short intra-stream idle gaps, 1/seconds.
    pub idle_short_rate: f64,
    /// Pareto scale of the long (session-gap) idle component, seconds.
    pub idle_pareto_scale: f64,
    /// Pareto shape of the long idle component.
    pub idle_pareto_shape: f64,
    /// Fault models to inject (`None` = the paper's clean runs).
    pub faults: Option<faults::FaultSpec>,
    /// Graceful-degradation supervisor (`None` = disabled; clean runs
    /// behave exactly as before).
    pub supervisor: Option<SupervisorConfig>,
    /// Frame-buffer capacity in frames (`None` = unbounded, the paper's
    /// idealization). Arrivals beyond the bound resolve via
    /// [`drop_policy`](Self::drop_policy) and are counted in the report.
    pub buffer_capacity: Option<usize>,
    /// What a full bounded buffer does with an arriving frame.
    pub drop_policy: framequeue::DropPolicy,
    /// A completed frame misses its deadline when its total delay
    /// exceeds `deadline_factor ×` the media kind's target mean delay.
    /// Deadlines are only tracked when faults or the supervisor are
    /// enabled, so baseline reports stay byte-identical.
    pub deadline_factor: f64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            governor: GovernorKind::change_point(),
            dpm: DpmKind::None,
            mp3_target_delay_s: 0.2,
            mpeg_target_delay_s: 0.1,
            queue_model: QueueModel::Mm1,
            overload_boost_depth: None,
            streaming_gap_threshold_s: 2.0,
            idle_short_weight: 0.95,
            idle_short_rate: 25.0,
            idle_pareto_scale: 2.0,
            idle_pareto_shape: 1.5,
            faults: None,
            supervisor: None,
            buffer_capacity: None,
            drop_policy: framequeue::DropPolicy::DropNewest,
            deadline_factor: 4.0,
        }
    }
}

impl SystemConfig {
    /// The idle-period distribution used to solve stochastic DPM
    /// policies: a short-gap/session-gap mixture.
    ///
    /// # Errors
    ///
    /// Returns an error if the mixture parameters are invalid.
    pub fn idle_model(&self) -> Result<IdleMixture, PmError> {
        Ok(IdleMixture::new(
            self.idle_short_weight,
            self.idle_short_rate,
            self.idle_pareto_scale,
            self.idle_pareto_shape,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardware::SmartBadge;

    #[test]
    fn labels_are_distinct() {
        let labels = [
            GovernorKind::Ideal.label(),
            GovernorKind::change_point().label(),
            GovernorKind::ExpAverage { gain: 0.3 }.label(),
            GovernorKind::MaxPerformance.label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    #[test]
    fn parse_round_trips_labels() {
        for name in ["ideal", "change-point", "max"] {
            assert_eq!(GovernorKind::parse(name).unwrap().label(), name);
        }
        assert_eq!(
            GovernorKind::parse("ema:0.3").unwrap().label(),
            "exp-average"
        );
        assert!(GovernorKind::parse("turbo").is_err());
        assert!(GovernorKind::parse("ema:fast").is_err());
        for name in ["none", "break-even", "predictive", "renewal", "tismdp"] {
            assert_eq!(DpmKind::parse(name).unwrap().label(), name);
        }
        assert_eq!(
            DpmKind::parse("adaptive").unwrap().label(),
            "adaptive-timeout"
        );
        assert_eq!(
            DpmKind::parse("timeout:2.5").unwrap().label(),
            "fixed-timeout"
        );
        assert!(DpmKind::parse("sleepy").is_err());
        assert!(DpmKind::parse("timeout:soon").is_err());
    }

    #[test]
    fn timeout_must_be_a_representable_positive_span() {
        assert_eq!(
            DpmKind::parse("timeout:1e-9"),
            Ok(DpmKind::FixedTimeout {
                timeout_s: 1e-9,
                state: SleepState::Standby,
            })
        );
        for bad in [
            "timeout:1e-300",
            "timeout:9e-10",
            "timeout:0",
            "timeout:-1",
            "timeout:nan",
            "timeout:inf",
            "timeout:1e300",
            "timeout:soon",
        ] {
            let err = DpmKind::parse(bad).expect_err(bad);
            assert!(err.contains(&format!("`{bad}`")), "{bad}: {err}");
            assert!(err.contains("1 ns"), "{bad}: {err}");
        }
    }

    #[test]
    fn all_dpm_kinds_build() {
        let costs = DpmCosts::managed_subsystem(&SmartBadge::new());
        let idle = IdleMixture::streaming_default().unwrap();
        let kinds = [
            DpmKind::None,
            DpmKind::FixedTimeout {
                timeout_s: 1.0,
                state: SleepState::Standby,
            },
            DpmKind::BreakEven {
                state: SleepState::Standby,
            },
            DpmKind::Adaptive {
                state: SleepState::Standby,
            },
            DpmKind::Predictive {
                state: SleepState::Standby,
                gain: 0.3,
            },
            DpmKind::Renewal {
                state: SleepState::Standby,
                delay_budget_s: 0.05,
            },
            DpmKind::Tismdp { delay_weight: 2.0 },
        ];
        for k in kinds {
            let policy = k.build(&costs, &idle).unwrap();
            assert!(!policy.name().is_empty(), "{:?}", k.label());
        }
    }

    #[test]
    fn bad_dpm_parameters_error() {
        let costs = DpmCosts::managed_subsystem(&SmartBadge::new());
        let idle = IdleMixture::streaming_default().unwrap();
        let bad = DpmKind::FixedTimeout {
            timeout_s: 0.0,
            state: SleepState::Standby,
        };
        assert!(bad.build(&costs, &idle).is_err());
        let bad = DpmKind::Predictive {
            state: SleepState::Standby,
            gain: 2.0,
        };
        assert!(bad.build(&costs, &idle).is_err());
    }

    #[test]
    fn default_config_is_sane() {
        let c = SystemConfig::default();
        assert_eq!(c.governor.label(), "change-point");
        assert_eq!(c.dpm.label(), "none");
        assert!(c.idle_model().is_ok());
        assert!(c.mp3_target_delay_s > c.mpeg_target_delay_s);
        assert!(c.faults.is_none());
        assert!(c.supervisor.is_none());
        assert!(c.buffer_capacity.is_none());
        assert!(c.deadline_factor > 1.0);
    }

    #[test]
    fn default_supervisor_validates() {
        let s = SupervisorConfig::default();
        assert!(s.validate().is_ok());
        assert!(s.miss_ratio_exit < s.miss_ratio_enter);
    }

    #[test]
    fn supervisor_rejects_bad_thresholds() {
        let ok = SupervisorConfig::default();
        for bad in [
            SupervisorConfig {
                miss_window: 0,
                ..ok.clone()
            },
            SupervisorConfig {
                occupancy_enter: 0,
                ..ok.clone()
            },
            SupervisorConfig {
                miss_ratio_enter: 1.5,
                ..ok.clone()
            },
            SupervisorConfig {
                miss_ratio_exit: f64::NAN,
                ..ok.clone()
            },
            SupervisorConfig {
                miss_ratio_enter: 0.1,
                miss_ratio_exit: 0.2,
                ..ok.clone()
            },
            SupervisorConfig {
                min_dwell_s: -1.0,
                ..ok.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
