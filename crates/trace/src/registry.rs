//! Named metrics registry: counters, gauges, and time-weighted series.
//!
//! The registry is the simulator's single source of truth for run
//! statistics — `SimReport` is assembled *from* it rather than from
//! scattered per-struct fields. Three metric shapes cover everything
//! the report needs:
//!
//! * **counters** — monotonically increasing `u64` event counts
//!   (frames completed, frequency switches, sleeps, …);
//! * **gauges** — instantaneous `f64` values (peak queue depth);
//! * **time-weighted series** — per-key residency accumulators, kept in
//!   integer **nanoseconds** keyed by a small `u32` (operating mode
//!   index, frequency in tenths of a MHz).
//!
//! Residency is integrated in integer nanoseconds on purpose: integer
//! addition is associative, so a trace replay that integrates the same
//! intervals in coarser chunks reproduces the histogram *bit-exactly*,
//! and the nanosecond totals of any realistic run (≤ ~10⁴ s ≈ 10¹³ ns)
//! convert to `f64` seconds without rounding surprises at report time.
//!
//! Metric names are `&'static str` so registering and bumping a metric
//! never allocates after its first touch.

use simcore::json::{Json, ToJson};
use simcore::time::SimDuration;
use std::collections::BTreeMap;

/// Converts integer nanoseconds to seconds.
///
/// This is *the* conversion used by both the simulator's report
/// assembly and trace replay; sharing it guarantees the two produce
/// identical `f64` values from identical nanosecond totals. It equals
/// `ns as f64 / 1e9` bit for bit.
#[must_use]
#[inline]
pub fn ns_to_secs(ns: u64) -> f64 {
    SimDuration::from_nanos(ns).as_secs_f64()
}

/// Registry of named counters, gauges, and time-weighted series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    series: BTreeMap<&'static str, BTreeMap<u32, u64>>,
    elapsed_ns: u64,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Current value of counter `name` (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Raises gauge `name` to `value` if `value` is larger (or the
    /// gauge was unset).
    pub fn gauge_max(&mut self, name: &'static str, value: f64) {
        let g = self.gauges.entry(name).or_insert(value);
        if value > *g {
            *g = value;
        }
    }

    /// Current value of gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Adds `ns` nanoseconds to bucket `key` of time-weighted series
    /// `name`.
    pub fn add_span_ns(&mut self, name: &'static str, key: u32, ns: u64) {
        *self.series.entry(name).or_default().entry(key).or_insert(0) += ns;
    }

    /// The buckets of series `name`, keyed by `u32`, in nanoseconds.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&BTreeMap<u32, u64>> {
        self.series.get(name)
    }

    /// Total nanoseconds accumulated across all buckets of `name`.
    #[must_use]
    pub fn series_total_ns(&self, name: &str) -> u64 {
        self.series.get(name).map_or(0, |s| s.values().sum())
    }

    /// Advances the registry's wall clock by `ns` nanoseconds.
    pub fn advance_ns(&mut self, ns: u64) {
        self.elapsed_ns += ns;
    }

    /// Total simulated nanoseconds the registry clock has advanced.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.elapsed_ns
    }

    /// The registry clock in seconds (via [`ns_to_secs`]).
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        ns_to_secs(self.elapsed_ns)
    }
}

impl ToJson for MetricsRegistry {
    fn to_json(&self) -> Json {
        let counters: BTreeMap<String, u64> = self
            .counters
            .iter()
            .map(|(k, v)| ((*k).to_owned(), *v))
            .collect();
        let gauges: BTreeMap<String, f64> = self
            .gauges
            .iter()
            .map(|(k, v)| ((*k).to_owned(), *v))
            .collect();
        let series: BTreeMap<String, Json> = self
            .series
            .iter()
            .map(|(k, buckets)| ((*k).to_owned(), buckets.to_json()))
            .collect();
        Json::obj(vec![
            ("counters".into(), counters.to_json()),
            ("gauges".into(), gauges.to_json()),
            ("series_ns".into(), series.to_json()),
            ("elapsed_ns".into(), Json::Int(self.elapsed_ns as i64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.counter("frames"), 0);
        reg.inc("frames");
        reg.add("frames", 2);
        assert_eq!(reg.counter("frames"), 3);
    }

    #[test]
    fn gauge_max_keeps_the_peak() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_max("depth", 3.0);
        reg.gauge_max("depth", 1.0);
        reg.gauge_max("depth", 7.5);
        assert_eq!(reg.gauge("depth"), Some(7.5));
        assert_eq!(reg.gauge("missing"), None);
    }

    #[test]
    fn series_accumulate_in_integer_nanos() {
        let mut reg = MetricsRegistry::new();
        reg.add_span_ns("mode", 0, 1_000);
        reg.add_span_ns("mode", 1, 500);
        reg.add_span_ns("mode", 0, 250);
        assert_eq!(reg.series("mode").unwrap()[&0], 1_250);
        assert_eq!(reg.series_total_ns("mode"), 1_750);
        assert_eq!(reg.series_total_ns("absent"), 0);
    }

    #[test]
    fn chunked_and_fine_grained_integration_agree_exactly() {
        // The associativity property the trace replay relies on: many
        // small spans and one big span of the same total are identical.
        let mut fine = MetricsRegistry::new();
        for _ in 0..1_000 {
            fine.add_span_ns("mode", 2, 333);
            fine.advance_ns(333);
        }
        let mut coarse = MetricsRegistry::new();
        coarse.add_span_ns("mode", 2, 333_000);
        coarse.advance_ns(333_000);
        assert_eq!(fine, coarse);
        assert_eq!(
            fine.elapsed_secs().to_bits(),
            coarse.elapsed_secs().to_bits()
        );
    }

    #[test]
    fn ns_to_secs_is_exact_for_realistic_magnitudes() {
        // Totals below 2^53 ns (~104 days) convert without precision loss.
        let ns = 86_400_000_000_000u64; // one day
        assert_eq!(ns_to_secs(ns), 86_400.0);
        assert!(((1u64 << 53) as f64) > 1e16 * 0.9);
    }

    #[test]
    fn registry_serializes_to_json() {
        let mut reg = MetricsRegistry::new();
        reg.inc("frames");
        reg.set_gauge("peak", 4.0);
        reg.add_span_ns("mode", 0, 42);
        reg.advance_ns(42);
        let json = Json::parse(&reg.to_json().dump()).unwrap();
        assert_eq!(
            json.get("counters")
                .and_then(|c| c.get("frames"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(json.get("elapsed_ns").and_then(Json::as_u64), Some(42));
    }
}
