//! Sliding sample window with O(1) suffix sums.
//!
//! The `ln P_max` statistic needs, for every candidate change index `k`,
//! the sum of the **last** `m − k` samples. [`SampleWindow`] keeps the
//! window in a ring buffer together with a running prefix-sum offset so
//! any suffix sum is answered from two subtractions, and the paper's note
//! that "only the sum of interarrival times needs to be updated upon
//! every arrival" holds in the implementation too.
//!
//! # Hot-path layout
//!
//! The window is the innermost data structure of both Monte-Carlo
//! calibration (`trials × ratios` windows per table) and the online
//! detector, so its layout is flat: one `Box<[f64]>` for the samples and
//! one for the running prefix sums, addressed through a `head`/`len`
//! ring. This replaces an earlier two-`VecDeque` layout (retained
//! verbatim in [`reference`](mod@reference) for differential tests and benchmarks)
//! while reproducing its arithmetic **bit for bit**: the prefix-sum
//! values and the subtraction order in [`SampleWindow::suffix_sum`] are
//! identical, only the storage changed. Construction is the only
//! allocation; [`SampleWindow::clear`] and reuse across trials cost
//! nothing.

use simcore::dist::Exponential;
use simcore::rng::SimRng;

/// A fixed-capacity sliding window of positive samples.
///
/// # Example
///
/// ```
/// use detect::window::SampleWindow;
///
/// let mut w = SampleWindow::new(3);
/// w.push(1.0);
/// w.push(2.0);
/// w.push(3.0);
/// w.push(4.0); // evicts 1.0
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.suffix_sum(2), 7.0); // last two samples: 3 + 4
/// assert_eq!(w.total(), 9.0);
/// ```
#[derive(Debug, Clone)]
pub struct SampleWindow {
    /// Sample ring: logical index `i` (0 = oldest) lives at
    /// `(head + i) % capacity`.
    samples: Box<[f64]>,
    /// Running prefix sums aligned with `samples`: the cumulative total
    /// of every sample pushed so far (plus an arbitrary base offset
    /// carried across evictions), never renormalized.
    cumsum: Box<[f64]>,
    head: usize,
    len: usize,
}

impl SampleWindow {
    /// Creates a window holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SampleWindow {
            samples: vec![0.0; capacity].into_boxed_slice(),
            cumsum: vec![0.0; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Maximum number of samples retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.samples.len()
    }

    /// Current number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no samples are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when the window holds `capacity` samples.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity()
    }

    /// Physical slot of logical index `i` (0 = oldest).
    #[inline]
    fn slot(&self, i: usize) -> usize {
        let cap = self.samples.len();
        let s = self.head + i;
        if s >= cap {
            s - cap
        } else {
            s
        }
    }

    /// Appends a sample, evicting the oldest if full.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is negative or not finite.
    pub fn push(&mut self, sample: f64) {
        assert!(
            sample.is_finite() && sample >= 0.0,
            "samples must be finite and non-negative, got {sample}"
        );
        let cap = self.samples.len();
        if self.len == cap {
            // Evict the oldest; the running totals of the survivors are
            // untouched, exactly as popping the front of a deque was.
            self.head = if self.head + 1 == cap {
                0
            } else {
                self.head + 1
            };
            self.len -= 1;
        }
        let base = if self.len == 0 {
            0.0
        } else {
            self.cumsum[self.slot(self.len - 1)]
        };
        let at = self.slot(self.len);
        self.samples[at] = sample;
        self.cumsum[at] = base + sample;
        self.len += 1;
    }

    /// Refills the window to capacity with draws from `dist`.
    ///
    /// Equivalent to [`Self::clear`] followed by `capacity` calls of
    /// `push(dist.sample(rng))` — bit for bit, including the stored
    /// prefix sums — but routed through
    /// [`Exponential::fill_with_cumsum`], which fuses the RNG draws,
    /// the `ln` kernel, and the running sum into one pass. This is the
    /// Monte-Carlo calibration inner loop. Exponential samples are
    /// finite and non-negative by construction (`-ln(1-u)/λ` with
    /// `u ∈ [0, 1)`), so [`Self::push`]'s per-sample domain checks hold
    /// without being re-evaluated.
    pub fn refill_exponential(&mut self, dist: &Exponential, rng: &mut SimRng) {
        self.head = 0;
        self.len = self.samples.len();
        dist.fill_with_cumsum(rng, &mut self.samples, &mut self.cumsum);
    }

    /// Replaces the window's contents with `samples`, oldest first.
    ///
    /// Equivalent to [`Self::clear`] followed by one [`Self::push`] per
    /// sample — including bit for bit: the running sum starts at `0.0`
    /// and accumulates as `prev + x` exactly as the push path does
    /// (which matters because a sample may be `-0.0`, and
    /// `0.0 + (-0.0)` is `+0.0`). The fused loop exists for the
    /// Monte-Carlo hot path, where it replaces `capacity` individual
    /// pushes (each re-deriving its ring slot and eviction state) with
    /// a straight-line cumulative-sum fill.
    ///
    /// # Panics
    ///
    /// Panics if `samples` exceeds the capacity, or if any sample is
    /// negative or not finite.
    pub fn refill(&mut self, samples: &[f64]) {
        assert!(
            samples.len() <= self.capacity(),
            "refill of {} samples exceeds capacity {}",
            samples.len(),
            self.capacity()
        );
        self.head = 0;
        self.len = samples.len();
        let mut prev = 0.0f64;
        for (i, &x) in samples.iter().enumerate() {
            assert!(
                x.is_finite() && x >= 0.0,
                "samples must be finite and non-negative, got {x}"
            );
            self.samples[i] = x;
            prev += x;
            self.cumsum[i] = prev;
        }
    }

    /// Sum of the most recent `n` samples.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the current length.
    #[must_use]
    pub fn suffix_sum(&self, n: usize) -> f64 {
        assert!(n <= self.len, "suffix longer than window");
        if n == 0 {
            return 0.0;
        }
        let last = self.cumsum[self.slot(self.len - 1)];
        let cut = self.len - n;
        if cut == 0 {
            let front = self.slot(0);
            last - (self.cumsum[front] - self.samples[front])
        } else {
            last - self.cumsum[self.slot(cut - 1)]
        }
    }

    /// Sum of all samples in the window.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.suffix_sum(self.len)
    }

    /// Mean of all samples; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.total() / self.len as f64
        }
    }

    /// Maximum-likelihood exponential rate of the most recent `n`
    /// samples: `n / suffix_sum(n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, exceeds the length, or the suffix sum is
    /// zero.
    #[must_use]
    pub fn suffix_rate(&self, n: usize) -> f64 {
        assert!(n > 0, "rate of zero samples");
        let s = self.suffix_sum(n);
        assert!(s > 0.0, "rate undefined for all-zero samples");
        n as f64 / s
    }

    /// Keeps only the most recent `n` samples, discarding the rest. Used
    /// after a detected change so the window contains post-change samples
    /// only.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the current length.
    pub fn retain_last(&mut self, n: usize) {
        assert!(n <= self.len, "cannot retain more than held");
        let drop = self.len - n;
        self.head = self.slot(drop);
        self.len = n;
    }

    /// Clears all samples. Storage is retained, so a cleared window can
    /// be refilled with zero allocations.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Iterates the samples oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len).map(|i| self.samples[self.slot(i)])
    }
}

/// A reusable window-plus-sample-buffer arena for Monte-Carlo trials.
///
/// One calibration trial needs a `window`-capacity [`SampleWindow`] and
/// a staging buffer for the batched exponential draws. Allocating both
/// per trial dominated the old kernel's cost; a `ScratchWindow` owns
/// them once and hands out cleared views, so a worker thread runs any
/// number of trials with **zero heap allocations** after the first
/// (re)size.
#[derive(Debug)]
pub struct ScratchWindow {
    window: SampleWindow,
    samples: Vec<f64>,
}

impl ScratchWindow {
    /// Creates an arena for windows of `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ScratchWindow {
            window: SampleWindow::new(capacity),
            samples: vec![0.0; capacity],
        }
    }

    /// Resizes the arena if `capacity` differs from the current one;
    /// otherwise a no-op. Returns `true` when a reallocation happened.
    pub fn ensure_capacity(&mut self, capacity: usize) -> bool {
        if self.window.capacity() == capacity {
            return false;
        }
        self.window = SampleWindow::new(capacity);
        self.samples = vec![0.0; capacity];
        true
    }

    /// The cleared window and the full-capacity staging buffer, ready
    /// for one trial.
    pub fn begin_trial(&mut self) -> (&mut SampleWindow, &mut [f64]) {
        self.window.clear();
        (&mut self.window, &mut self.samples)
    }
}

pub mod reference {
    //! The pre-optimization two-`VecDeque` window, retained verbatim.
    //!
    //! This is the exact seed-era implementation [`SampleWindow`](super::SampleWindow)
    //! replaced. It exists for two jobs: the differential property test
    //! that drives both windows through random operation sequences and
    //! asserts bit-equal results, and `bench_hotpath`, which measures
    //! the ring-buffer kernel's speedup against this as the "pre-PR
    //! kernel" in the same run. Do not use it in production paths.

    use std::collections::VecDeque;

    /// The original deque-backed sliding window (pre-PR kernel).
    #[derive(Debug, Clone)]
    pub struct VecDequeWindow {
        samples: VecDeque<f64>,
        cumsum: VecDeque<f64>,
        capacity: usize,
    }

    impl VecDequeWindow {
        /// Creates a window holding at most `capacity` samples.
        ///
        /// # Panics
        ///
        /// Panics if `capacity` is zero.
        #[must_use]
        pub fn new(capacity: usize) -> Self {
            assert!(capacity > 0, "window capacity must be positive");
            VecDequeWindow {
                samples: VecDeque::with_capacity(capacity),
                cumsum: VecDeque::with_capacity(capacity),
                capacity,
            }
        }

        /// Current number of samples.
        #[must_use]
        pub fn len(&self) -> usize {
            self.samples.len()
        }

        /// `true` when no samples are held.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.samples.is_empty()
        }

        /// Appends a sample, evicting the oldest if full.
        ///
        /// # Panics
        ///
        /// Panics if `sample` is negative or not finite.
        pub fn push(&mut self, sample: f64) {
            assert!(
                sample.is_finite() && sample >= 0.0,
                "samples must be finite and non-negative, got {sample}"
            );
            if self.samples.len() == self.capacity {
                self.samples.pop_front();
                self.cumsum.pop_front();
            }
            let base = self.cumsum.back().copied().unwrap_or(0.0);
            self.samples.push_back(sample);
            self.cumsum.push_back(base + sample);
        }

        /// Sum of the most recent `n` samples.
        ///
        /// # Panics
        ///
        /// Panics if `n` exceeds the current length.
        #[must_use]
        pub fn suffix_sum(&self, n: usize) -> f64 {
            assert!(n <= self.samples.len(), "suffix longer than window");
            if n == 0 {
                return 0.0;
            }
            let last = *self.cumsum.back().expect("n > 0 implies non-empty");
            let cut = self.samples.len() - n;
            if cut == 0 {
                last - (self.cumsum.front().expect("non-empty")
                    - self.samples.front().expect("non-empty"))
            } else {
                last - self.cumsum[cut - 1]
            }
        }

        /// Sum of all samples in the window.
        #[must_use]
        pub fn total(&self) -> f64 {
            self.suffix_sum(self.samples.len())
        }

        /// Keeps only the most recent `n` samples.
        ///
        /// # Panics
        ///
        /// Panics if `n` exceeds the current length.
        pub fn retain_last(&mut self, n: usize) {
            assert!(n <= self.samples.len(), "cannot retain more than held");
            while self.samples.len() > n {
                self.samples.pop_front();
                self.cumsum.pop_front();
            }
        }

        /// Clears all samples.
        pub fn clear(&mut self) {
            self.samples.clear();
            self.cumsum.clear();
        }

        /// Iterates the samples oldest → newest.
        pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
            self.samples.iter().copied()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_evict() {
        let mut w = SampleWindow::new(2);
        w.push(1.0);
        assert!(!w.is_full());
        w.push(2.0);
        assert!(w.is_full());
        w.push(3.0);
        let v: Vec<f64> = w.iter().collect();
        assert_eq!(v, vec![2.0, 3.0]);
    }

    #[test]
    fn suffix_sums_match_naive() {
        let mut w = SampleWindow::new(5);
        let data = [0.5, 1.5, 2.0, 0.25, 3.0, 1.0, 0.75];
        for &x in &data {
            w.push(x);
        }
        let held: Vec<f64> = w.iter().collect();
        for n in 0..=held.len() {
            let naive: f64 = held[held.len() - n..].iter().sum();
            assert!((w.suffix_sum(n) - naive).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn suffix_sums_stay_accurate_after_many_evictions() {
        let mut w = SampleWindow::new(10);
        for i in 0..100_000 {
            w.push((i % 7) as f64 * 0.1);
        }
        let held: Vec<f64> = w.iter().collect();
        let naive: f64 = held.iter().sum();
        assert!((w.total() - naive).abs() < 1e-6);
    }

    #[test]
    fn mean_and_rate() {
        let mut w = SampleWindow::new(4);
        for x in [0.1, 0.1, 0.1, 0.1] {
            w.push(x);
        }
        assert!((w.mean() - 0.1).abs() < 1e-12);
        assert!((w.suffix_rate(4) - 10.0).abs() < 1e-9);
        assert!((w.suffix_rate(2) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn retain_last_keeps_tail() {
        let mut w = SampleWindow::new(5);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(x);
        }
        w.retain_last(2);
        let v: Vec<f64> = w.iter().collect();
        assert_eq!(v, vec![4.0, 5.0]);
        assert_eq!(w.total(), 9.0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.suffix_sum(0), 0.0);
    }

    #[test]
    fn refill_after_retain_wraps_correctly() {
        // Exercise the ring wrap: evictions move the head, then pushes
        // write past the physical end of the buffer.
        let mut w = SampleWindow::new(4);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
            w.push(x); // holds [3, 4, 5, 6], head has wrapped
        }
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![3.0, 4.0, 5.0, 6.0]);
        w.retain_last(1);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![6.0]);
        w.push(7.0);
        w.push(8.0);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![6.0, 7.0, 8.0]);
        assert!((w.suffix_sum(2) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn matches_reference_window_bitwise_on_a_fixed_sequence() {
        use simcore::dist::{Exponential, Sample};
        use simcore::rng::SimRng;
        let unit = Exponential::new(1.0).unwrap();
        let mut rng = SimRng::seed_from(99);
        let mut ring = SampleWindow::new(7);
        let mut deque = reference::VecDequeWindow::new(7);
        for i in 0..500 {
            let x = unit.sample(&mut rng);
            ring.push(x);
            deque.push(x);
            for n in 0..=ring.len() {
                assert_eq!(
                    ring.suffix_sum(n).to_bits(),
                    deque.suffix_sum(n).to_bits(),
                    "i={i} n={n}"
                );
            }
            if i % 97 == 0 && ring.len() > 2 {
                ring.retain_last(2);
                deque.retain_last(2);
            }
        }
    }

    #[test]
    fn refill_is_bit_identical_to_clear_plus_pushes() {
        use simcore::dist::{Exponential, Sample};
        use simcore::rng::SimRng;
        let unit = Exponential::new(1.0).unwrap();
        let mut rng = SimRng::seed_from(0x5EED);
        let mut pushed = SampleWindow::new(64);
        let mut refilled = SampleWindow::new(64);
        // Dirty both windows first so refill must overwrite stale state,
        // including a wrapped head.
        for _ in 0..100 {
            let x = unit.sample(&mut rng);
            pushed.push(x);
            refilled.push(x);
        }
        for len in [0usize, 1, 7, 63, 64] {
            let batch: Vec<f64> = (0..len).map(|_| unit.sample(&mut rng)).collect();
            pushed.clear();
            for &x in &batch {
                pushed.push(x);
            }
            refilled.refill(&batch);
            assert_eq!(refilled.len(), pushed.len());
            for n in 0..=len {
                assert_eq!(
                    refilled.suffix_sum(n).to_bits(),
                    pushed.suffix_sum(n).to_bits(),
                    "len={len} n={n}"
                );
            }
            assert!(refilled.iter().eq(pushed.iter()));
        }
    }

    #[test]
    fn refill_exponential_matches_sample_push_loop_bitwise() {
        use simcore::dist::Sample;
        // The fused sampler must leave the window exactly as the naive
        // clear + per-sample push loop would, for both rate arms, and
        // must fully overwrite stale wrapped-ring state.
        for rate in [1.0, 25.0] {
            let dist = Exponential::new(rate).unwrap();
            let mut fused = SampleWindow::new(100);
            let mut naive = SampleWindow::new(100);
            for _ in 0..150 {
                fused.push(0.5); // wrap the head
            }
            let mut a = SimRng::seed_from(0xCAFE);
            let mut b = SimRng::seed_from(0xCAFE);
            fused.refill_exponential(&dist, &mut a);
            naive.clear();
            for _ in 0..100 {
                naive.push(dist.sample(&mut b));
            }
            assert_eq!(fused.len(), naive.len());
            for n in 0..=100 {
                assert_eq!(
                    fused.suffix_sum(n).to_bits(),
                    naive.suffix_sum(n).to_bits(),
                    "rate {rate} n={n}"
                );
            }
            assert!(fused.iter().eq(naive.iter()), "rate {rate}");
            assert_eq!(a.next_u64(), b.next_u64(), "rate {rate} RNG state");
        }
    }

    #[test]
    fn refill_handles_negative_zero_like_push() {
        // -0.0 passes the `>= 0.0` check and 0.0 + (-0.0) == +0.0; the
        // fused sum must take the same path.
        let mut pushed = SampleWindow::new(3);
        let mut refilled = SampleWindow::new(3);
        let batch = [-0.0f64, 1.0, -0.0];
        for &x in &batch {
            pushed.push(x);
        }
        refilled.refill(&batch);
        for n in 0..=3 {
            assert_eq!(
                refilled.suffix_sum(n).to_bits(),
                pushed.suffix_sum(n).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_refill_panics() {
        SampleWindow::new(2).refill(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn refill_rejects_negative_samples() {
        SampleWindow::new(4).refill(&[1.0, -0.5]);
    }

    #[test]
    fn scratch_window_reuses_storage() {
        let mut scratch = ScratchWindow::new(8);
        assert!(!scratch.ensure_capacity(8), "same capacity: no realloc");
        assert!(scratch.ensure_capacity(16), "new capacity: realloc");
        let (w, buf) = scratch.begin_trial();
        assert!(w.is_empty());
        assert_eq!(w.capacity(), 16);
        assert_eq!(buf.len(), 16);
        w.push(1.0);
        let (w2, _) = scratch.begin_trial();
        assert!(w2.is_empty(), "begin_trial clears the window");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SampleWindow::new(0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_sample_panics() {
        SampleWindow::new(2).push(-0.1);
    }

    #[test]
    #[should_panic(expected = "suffix longer")]
    fn oversized_suffix_panics() {
        let mut w = SampleWindow::new(3);
        w.push(1.0);
        let _ = w.suffix_sum(2);
    }
}
