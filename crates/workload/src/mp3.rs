//! MP3 audio clips (paper Table 2).
//!
//! Six audio clips labelled A–F, each with a different bit rate and sample
//! rate, totalling 653 seconds. An MP3 frame carries 1152 samples, so the
//! frame arrival rate is `sample_rate / 1152`. The paper found "very
//! little variation on frame-by-frame basis in decoding rate within a
//! given audio clip, but the variation in decoding rate between clips can
//! be large" — so within a clip the decode time is nearly constant, and
//! the DVS opportunity comes from clip-to-clip changes, which is what the
//! change-point detector tracks through the test sequences (ACEFBD,
//! BADECF, CEDAFB of Table 3).
//!
//! The scan of Table 2 is OCR-garbled; bit rates, sample rates and decode
//! rates below are chosen to match the paper's stated ranges (arrival
//! 16–44 fr/s across sequences, large inter-clip decode-rate spread, 653 s
//! total). See `DESIGN.md`.

use crate::arrivals;
use crate::frame::{FrameRecord, MediaKind};
use crate::schedule::RateSchedule;
use crate::trace::Trace;
use crate::WorkloadError;
use simcore::rng::SimRng;
use simcore::time::SimTime;

/// Samples per MP3 frame.
pub const SAMPLES_PER_FRAME: f64 = 1152.0;

/// Relative half-width of the per-frame decode-time jitter within a clip
/// (uniform ±5 %): "very little variation on frame-by-frame basis".
pub const INTRA_CLIP_JITTER: f64 = 0.05;

/// One MP3 audio clip (a row of paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mp3Clip {
    /// Clip label A–F.
    pub label: char,
    /// Bit rate, kilobits/second.
    pub bit_rate_kbps: f64,
    /// Sample rate, kilohertz.
    pub sample_rate_khz: f64,
    /// Decode capability at the maximum CPU frequency, frames/second.
    pub decode_rate: f64,
    /// Clip length, seconds.
    pub duration_secs: f64,
}

impl Mp3Clip {
    /// The six clips of Table 2, totalling 653 seconds of audio.
    #[must_use]
    pub fn table2() -> [Mp3Clip; 6] {
        [
            Mp3Clip {
                label: 'A',
                bit_rate_kbps: 128.0,
                sample_rate_khz: 44.1,
                decode_rate: 80.0,
                duration_secs: 100.0,
            },
            Mp3Clip {
                label: 'B',
                bit_rate_kbps: 112.0,
                sample_rate_khz: 48.0,
                decode_rate: 95.0,
                duration_secs: 120.0,
            },
            Mp3Clip {
                label: 'C',
                bit_rate_kbps: 64.0,
                sample_rate_khz: 32.0,
                decode_rate: 130.0,
                duration_secs: 110.0,
            },
            Mp3Clip {
                label: 'D',
                bit_rate_kbps: 56.0,
                sample_rate_khz: 24.0,
                decode_rate: 160.0,
                duration_secs: 105.0,
            },
            Mp3Clip {
                label: 'E',
                bit_rate_kbps: 40.0,
                sample_rate_khz: 22.05,
                decode_rate: 190.0,
                duration_secs: 108.0,
            },
            Mp3Clip {
                label: 'F',
                bit_rate_kbps: 32.0,
                sample_rate_khz: 16.0,
                decode_rate: 215.0,
                duration_secs: 110.0,
            },
        ]
    }

    /// Looks up a Table 2 clip by its label.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::UnknownClip`] for labels outside A–F.
    pub fn by_label(label: char) -> Result<Mp3Clip, WorkloadError> {
        Self::table2()
            .into_iter()
            .find(|c| c.label == label.to_ascii_uppercase())
            .ok_or(WorkloadError::UnknownClip { label })
    }

    /// Frame arrival rate: `sample_rate / 1152`, frames/second.
    #[must_use]
    pub fn arrival_rate(&self) -> f64 {
        self.sample_rate_khz * 1000.0 / SAMPLES_PER_FRAME
    }

    /// Mean decode time per frame at the maximum CPU frequency, seconds.
    #[must_use]
    pub fn mean_decode_time(&self) -> f64 {
        1.0 / self.decode_rate
    }

    /// Generates a trace of this clip alone.
    #[must_use]
    pub fn generate(&self, rng: &mut SimRng) -> Trace {
        sequence_trace(&[*self], rng)
    }
}

/// Generates the trace of an MP3 listening sequence such as `"ACEFBD"`:
/// clips play back-to-back, so both the arrival rate and the decode rate
/// step at every clip boundary.
///
/// # Errors
///
/// Returns an error if `labels` is empty or contains an unknown label.
pub fn sequence(labels: &str, rng: &mut SimRng) -> Result<Trace, WorkloadError> {
    if labels.is_empty() {
        return Err(WorkloadError::Empty { name: "labels" });
    }
    let clips: Result<Vec<Mp3Clip>, WorkloadError> =
        labels.chars().map(Mp3Clip::by_label).collect();
    Ok(sequence_trace(&clips?, rng))
}

fn sequence_trace(clips: &[Mp3Clip], rng: &mut SimRng) -> Trace {
    let schedule = RateSchedule::new(
        clips
            .iter()
            .map(|c| (c.duration_secs, c.arrival_rate()))
            .collect(),
    )
    .expect("table2 clips have valid rates and durations");
    let arrivals = arrivals::generate(&schedule, rng);
    let mut frames = Vec::with_capacity(arrivals.len());
    // The clip playing, looked up again only once the (ascending)
    // arrivals pass its end, with its per-frame constants.
    let (mut clip, mut clip_end) = (&clips[0], f64::NEG_INFINITY);
    let (mut decode_time, mut arrival_rate) = (0.0, 0.0);
    for (i, &t) in arrivals.iter().enumerate() {
        if t >= clip_end {
            (clip, clip_end) = clip_at(clips, t);
            decode_time = clip.mean_decode_time();
            arrival_rate = clip.arrival_rate();
        }
        // Nearly constant decode time within a clip: uniform ±5 % jitter.
        let jitter = 1.0 + INTRA_CLIP_JITTER * (2.0 * rng.next_f64() - 1.0);
        frames.push(FrameRecord {
            index: i as u64,
            kind: MediaKind::Mp3Audio,
            arrival: SimTime::from_secs_f64(t),
            work: decode_time * jitter,
            true_arrival_rate: arrival_rate,
            true_service_rate: clip.decode_rate,
        });
    }
    let end = SimTime::from_secs_f64(schedule.total_duration());
    Trace::new(frames, end).expect("generated frames are sorted and valid")
}

/// The clip playing at `t`, and the time it ends (the sequence's end
/// past the last clip).
fn clip_at(clips: &[Mp3Clip], t: f64) -> (&Mp3Clip, f64) {
    let mut elapsed = 0.0;
    for c in clips {
        elapsed += c.duration_secs;
        if t < elapsed {
            return (c, elapsed);
        }
    }
    (clips.last().expect("at least one clip"), elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_totals_653_seconds() {
        let total: f64 = Mp3Clip::table2().iter().map(|c| c.duration_secs).sum();
        assert!((total - 653.0).abs() < 1e-9);
    }

    #[test]
    fn arrival_rates_span_paper_range() {
        let rates: Vec<f64> = Mp3Clip::table2().iter().map(|c| c.arrival_rate()).collect();
        let lo = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = rates.iter().cloned().fold(0.0, f64::max);
        // Paper: "the frame arrival rate varied between 16 and 44 frames/sec".
        assert!((13.0..17.0).contains(&lo), "lowest {lo}");
        assert!((38.0..45.0).contains(&hi), "highest {hi}");
    }

    #[test]
    fn decode_rates_vary_widely_between_clips() {
        let clips = Mp3Clip::table2();
        let min = clips
            .iter()
            .map(|c| c.decode_rate)
            .fold(f64::INFINITY, f64::min);
        let max = clips.iter().map(|c| c.decode_rate).fold(0.0, f64::max);
        assert!(max / min > 2.0, "inter-clip spread {min}..{max}");
    }

    #[test]
    fn by_label_is_case_insensitive_and_validates() {
        assert_eq!(Mp3Clip::by_label('a').unwrap().label, 'A');
        assert_eq!(Mp3Clip::by_label('F').unwrap().label, 'F');
        assert!(Mp3Clip::by_label('G').is_err());
    }

    #[test]
    fn generated_clip_matches_nominal_rates() {
        let clip = Mp3Clip::by_label('C').unwrap();
        let trace = clip.generate(&mut SimRng::seed_from(21));
        let rate = trace.mean_arrival_rate();
        assert!(
            (rate - clip.arrival_rate()).abs() / clip.arrival_rate() < 0.1,
            "arrival rate {rate} vs {}",
            clip.arrival_rate()
        );
        // Decode times cluster tightly around the clip mean.
        let works = trace.decode_works();
        let mean = works.iter().sum::<f64>() / works.len() as f64;
        assert!((mean - clip.mean_decode_time()).abs() / clip.mean_decode_time() < 0.02);
        for w in &works {
            let rel = (w - clip.mean_decode_time()).abs() / clip.mean_decode_time();
            assert!(
                rel <= INTRA_CLIP_JITTER + 1e-9,
                "jitter bound violated: {rel}"
            );
        }
    }

    #[test]
    fn sequence_steps_rates_at_boundaries() {
        let trace = sequence("AF", &mut SimRng::seed_from(5)).unwrap();
        let a = Mp3Clip::by_label('A').unwrap();
        let f = Mp3Clip::by_label('F').unwrap();
        let in_a: Vec<_> = trace
            .frames()
            .iter()
            .filter(|fr| fr.arrival.as_secs_f64() < a.duration_secs)
            .collect();
        let in_f: Vec<_> = trace
            .frames()
            .iter()
            .filter(|fr| fr.arrival.as_secs_f64() >= a.duration_secs)
            .collect();
        assert!(in_a.iter().all(|fr| fr.true_service_rate == a.decode_rate));
        assert!(in_f.iter().all(|fr| fr.true_service_rate == f.decode_rate));
        assert!(!in_a.is_empty() && !in_f.is_empty());
        let total = a.duration_secs + f.duration_secs;
        assert!((trace.duration_secs() - total).abs() < 1e-9);
    }

    #[test]
    fn sequence_validates_input() {
        assert!(sequence("", &mut SimRng::seed_from(0)).is_err());
        assert!(sequence("AXE", &mut SimRng::seed_from(0)).is_err());
    }

    #[test]
    fn paper_sequences_have_653_seconds() {
        for labels in ["ACEFBD", "BADECF", "CEDAFB"] {
            let trace = sequence(labels, &mut SimRng::seed_from(9)).unwrap();
            assert!((trace.duration_secs() - 653.0).abs() < 1e-9, "{labels}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = sequence("ACE", &mut SimRng::seed_from(3)).unwrap();
        let b = sequence("ACE", &mut SimRng::seed_from(3)).unwrap();
        assert_eq!(a, b);
    }
}
