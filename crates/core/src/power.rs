//! Per-component power profiles of each system mode.
//!
//! The simulator's energy accounting is piecewise constant: the system is
//! in one *mode* (decoding at some operating point, idle, a sleep state,
//! or waking) and each mode corresponds to a [`PowerProfile`] — one power
//! value per **managed** component — integrated over the mode's duration.
//!
//! ## Scope of the energy metric
//!
//! Profiles cover the **managed subsystem**: CPU, FLASH, SRAM and DRAM —
//! the components whose power the DVS+DPM manager actually modulates.
//! The display and the WLAN radio are excluded: the display draws the
//! same whether the decoder runs fast or slow, and the radio duty-cycles
//! with network traffic, not with policy decisions. Including their
//! combined ~2.5 W constant draw would make the paper's reported savings
//! (≈1.5–2× for DVS, ≈3× combined) arithmetically impossible, so the
//! paper's energy numbers must refer to this same subsystem. See
//! `DESIGN.md` § "Energy metric scope".

use hardware::component::ComponentId;
use hardware::cpu::OperatingPoint;
use hardware::energy::EnergyMeter;
use hardware::smartbadge::DecodeMemory;
use hardware::{PowerState, SmartBadge};
use simcore::time::SimDuration;
use workload::MediaKind;

/// The components the power manager controls and meters.
pub const MANAGED_COMPONENTS: [ComponentId; 4] = [
    ComponentId::Cpu,
    ComponentId::Flash,
    ComponentId::Sram,
    ComponentId::Dram,
];

/// Power draw per managed component, milliwatts, in
/// [`MANAGED_COMPONENTS`] order. Every constructor checks that each
/// power is finite and non-negative, so integrating a profile needs no
/// check per interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerProfile {
    mw: [f64; 4],
}

impl PowerProfile {
    /// A profile of checked powers.
    ///
    /// # Panics
    ///
    /// Panics if any power is negative or not finite.
    fn checked(mw: [f64; 4]) -> Self {
        for p in mw {
            assert!(
                p.is_finite() && p >= 0.0,
                "power must be finite and non-negative, got {p}"
            );
        }
        PowerProfile { mw }
    }

    /// Profile while decoding `kind` at operating point `op`: CPU active
    /// at the (frequency/voltage-scaled) DVS power, FLASH idle, the
    /// decode memory active, the other memory bank idle.
    ///
    /// `mem_activity` is the memory access-rate ratio relative to the
    /// maximum frequency — i.e. the application's normalized performance
    /// at `op`. A frame needs a fixed number of memory accesses, so when
    /// the clock drops the accesses spread over a longer time and the
    /// memory's *power* falls proportionally (its *energy per frame*
    /// stays constant). Without this scaling, stretching decode time
    /// would charge extra memory energy that no hardware pays, and the
    /// decreasing energy curves of the paper's Figures 4/5 could not be
    /// reproduced.
    ///
    /// # Panics
    ///
    /// Panics if `mem_activity` is outside `(0, 1]` or a component's
    /// power is negative or not finite.
    #[must_use]
    pub fn decode(
        badge: &SmartBadge,
        op: OperatingPoint,
        kind: MediaKind,
        mem_activity: f64,
    ) -> Self {
        assert!(
            mem_activity.is_finite() && mem_activity > 0.0 && mem_activity <= 1.0 + 1e-9,
            "mem_activity must be in (0, 1], got {mem_activity}"
        );
        let memory = decode_memory(kind);
        let (decode_mem, other_mem) = match memory {
            DecodeMemory::Sram => (ComponentId::Sram, ComponentId::Dram),
            DecodeMemory::Dram => (ComponentId::Dram, ComponentId::Sram),
        };
        let mut mw = [0.0; 4];
        for (i, id) in MANAGED_COMPONENTS.iter().enumerate() {
            mw[i] = match *id {
                ComponentId::Cpu => badge.cpu().active_power_mw(op),
                ComponentId::Flash => badge.component(*id).idle_mw,
                id if id == decode_mem => {
                    let spec = badge.component(id);
                    spec.idle_mw + (spec.active_mw - spec.idle_mw) * mem_activity
                }
                id if id == other_mem => badge.component(id).idle_mw,
                _ => unreachable!("all managed components covered"),
            };
        }
        Self::checked(mw)
    }

    /// Profile with every managed component in `state`.
    ///
    /// # Panics
    ///
    /// Panics if a component's power is negative or not finite.
    #[must_use]
    pub fn uniform(badge: &SmartBadge, state: PowerState) -> Self {
        Self::checked(MANAGED_COMPONENTS.map(|id| badge.component(id).power_mw(state)))
    }

    /// Profile during a wake-up transition: every managed component at
    /// active power (a conservative model of the reinitialization cost).
    #[must_use]
    pub fn waking(badge: &SmartBadge) -> Self {
        Self::uniform(badge, PowerState::Active)
    }

    /// Total subsystem power, milliwatts.
    #[must_use]
    pub fn total_mw(&self) -> f64 {
        self.mw.iter().sum()
    }

    /// Integrates this profile over `dt` into the meter, attributing per
    /// component, and advances the meter's elapsed time. The span is
    /// converted to seconds once; each component then adds exactly what
    /// [`EnergyMeter::accumulate`] would.
    #[inline]
    pub fn accumulate_into(&self, meter: &mut EnergyMeter, dt: SimDuration) {
        let dt_s = dt.as_secs_f64();
        for (i, id) in MANAGED_COMPONENTS.iter().enumerate() {
            meter.accumulate_secs(*id, self.mw[i], dt_s);
        }
        meter.advance_secs(dt_s);
    }
}

/// Which memory bank decodes a media kind (paper Section 2.1: MP3 uses
/// SRAM, MPEG uses SDRAM).
#[must_use]
pub fn decode_memory(kind: MediaKind) -> DecodeMemory {
    match kind {
        MediaKind::Mp3Audio => DecodeMemory::Sram,
        MediaKind::MpegVideo => DecodeMemory::Dram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn badge() -> SmartBadge {
        SmartBadge::new()
    }

    #[test]
    fn decode_profile_sums_managed_components() {
        let b = badge();
        let op = b.cpu().max_operating_point();
        // MP3 at full activity: CPU 400 + FLASH idle 5 + SRAM active 115
        // + DRAM idle 10.
        let p = PowerProfile::decode(&b, op, MediaKind::Mp3Audio, 1.0);
        assert!((p.total_mw() - 530.0).abs() < 1e-9);
        // MPEG: CPU 400 + FLASH idle 5 + DRAM active 400 + SRAM idle 17.
        let p = PowerProfile::decode(&b, op, MediaKind::MpegVideo, 1.0);
        assert!((p.total_mw() - 822.0).abs() < 1e-9);
    }

    #[test]
    fn decode_profile_scales_with_operating_point() {
        let b = badge();
        let hi = PowerProfile::decode(&b, b.cpu().max_operating_point(), MediaKind::MpegVideo, 1.0);
        let lo = PowerProfile::decode(&b, b.cpu().min_operating_point(), MediaKind::MpegVideo, 0.3);
        assert!(lo.total_mw() < hi.total_mw() - 250.0);
    }

    #[test]
    fn memory_power_scales_with_activity() {
        let b = badge();
        let op = b.cpu().max_operating_point();
        let full = PowerProfile::decode(&b, op, MediaKind::MpegVideo, 1.0);
        let half = PowerProfile::decode(&b, op, MediaKind::MpegVideo, 0.5);
        // DRAM: idle 10 + (400-10)*0.5 = 205 instead of 400.
        assert!((full.total_mw() - half.total_mw() - 195.0).abs() < 1e-9);
    }

    #[test]
    fn memory_energy_per_frame_is_activity_invariant() {
        // P_mem(f)·t(f) = const: the defining property of the model.
        let b = badge();
        let curve = hardware::perf::PerformanceCurve::mpeg_on_sdram(b.cpu());
        let e_mem = |op: hardware::cpu::OperatingPoint| {
            let perf = curve.performance_at(op.freq_mhz);
            let spec = b.component(ComponentId::Dram);
            let p_mw = spec.idle_mw + (spec.active_mw - spec.idle_mw) * perf;
            // per-frame decode time ∝ 1/perf; drop idle floor for the check
            (p_mw - spec.idle_mw) / perf
        };
        let hi = e_mem(b.cpu().max_operating_point());
        let lo = e_mem(b.cpu().min_operating_point());
        assert!((hi - lo).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "mem_activity")]
    fn zero_activity_panics() {
        let b = badge();
        let _ = PowerProfile::decode(&b, b.cpu().max_operating_point(), MediaKind::Mp3Audio, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn bad_powers_are_rejected_when_the_profile_is_built() {
        let _ = PowerProfile::checked([400.0, 5.0, f64::NAN, 10.0]);
    }

    #[test]
    fn accumulate_into_adds_what_per_component_accumulate_adds() {
        let b = badge();
        let op = b.cpu().min_operating_point();
        let p = PowerProfile::decode(&b, op, MediaKind::MpegVideo, 0.37);
        let (mut once, mut each) = (EnergyMeter::new(), EnergyMeter::new());
        for ns in [1u64, 999, 33_333_333, 7_000_000_001] {
            let dt = SimDuration::from_nanos(ns);
            p.accumulate_into(&mut once, dt);
            for (i, id) in MANAGED_COMPONENTS.iter().enumerate() {
                each.accumulate(*id, p.mw[i], dt);
            }
            each.advance_time(dt);
        }
        assert_eq!(once, each);
    }

    #[test]
    fn uniform_profiles_exclude_display_and_wlan() {
        let b = badge();
        let idle = PowerProfile::uniform(&b, PowerState::Idle);
        // CPU 170 + FLASH 5 + SRAM 17 + DRAM 10.
        assert!((idle.total_mw() - 202.0).abs() < 1e-9);
        let standby = PowerProfile::uniform(&b, PowerState::Standby);
        assert!(standby.total_mw() < 1.0);
        assert_eq!(PowerProfile::uniform(&b, PowerState::Off).total_mw(), 0.0);
    }

    #[test]
    fn accumulate_attributes_per_component() {
        let b = badge();
        let p = PowerProfile::uniform(&b, PowerState::Idle);
        let mut meter = EnergyMeter::new();
        p.accumulate_into(&mut meter, SimDuration::from_secs(10));
        assert!((meter.total_joules() - 2.02).abs() < 1e-9);
        assert!(meter.component_joules(ComponentId::Cpu) > 0.0);
        assert_eq!(meter.component_joules(ComponentId::Display), 0.0);
        assert!((meter.elapsed_secs() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn memory_bank_assignment() {
        assert_eq!(decode_memory(MediaKind::Mp3Audio), DecodeMemory::Sram);
        assert_eq!(decode_memory(MediaKind::MpegVideo), DecodeMemory::Dram);
    }
}
