//! Online statistics: running moments, histograms, and quantiles.
//!
//! These accumulators are used throughout the workspace: frame delays,
//! energy per component, and the Monte-Carlo calibration
//! histograms of the change-point detector all flow through this module.

/// Running mean/variance/min/max accumulator (Welford's algorithm).
///
/// Numerically stable for long simulations; constant memory.
///
/// # Example
///
/// ```
/// use simcore::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`); `0.0` when fewer than one
    /// observation.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n − 1`); `0.0` when fewer than two
    /// observations.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation; `+∞` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `−∞` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The running sum of squared deviations from the mean (Welford's
    /// `M2` term) — exposed so accumulator state can be serialized and
    /// restored bit-exactly by checkpointing callers.
    #[must_use]
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Reconstructs an accumulator from raw state previously read off
    /// [`count`](Self::count), [`mean`](Self::mean), [`m2`](Self::m2),
    /// [`min`](Self::min), [`max`](Self::max), and [`sum`](Self::sum) —
    /// the checkpoint-restore counterpart of those accessors. The
    /// fields are trusted verbatim; feeding inconsistent values yields
    /// an accumulator that reports them back unchanged.
    #[must_use]
    pub fn from_raw(count: u64, mean: f64, m2: f64, min: f64, max: f64, sum: f64) -> OnlineStats {
        OnlineStats {
            count,
            mean,
            m2,
            min,
            max,
            sum,
        }
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

crate::impl_to_json!(OnlineStats {
    count,
    mean,
    m2,
    min,
    max,
    sum,
});

/// Fixed-range uniform-bin histogram with overflow/underflow buckets and
/// quantile queries.
///
/// Used for the offline change-point threshold characterization, where the
/// 99.5 % quantile of the log-likelihood-ratio statistic under the no-change
/// hypothesis becomes the detection threshold.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), simcore::SimError> {
/// use simcore::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 100)?;
/// for i in 0..1000 {
///     h.record(i as f64 % 10.0);
/// }
/// let median = h.quantile(0.5);
/// assert!((4.0..=6.0).contains(&median));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    nan: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram covering `[lo, hi)` with `bins` uniform buckets.
    ///
    /// # Errors
    ///
    /// Returns an error if `lo >= hi`, either bound is non-finite, or
    /// `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, crate::SimError> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(crate::SimError::InvalidParameter {
                name: "lo..hi",
                value: hi - lo,
                expected: "finite bounds with lo < hi",
            });
        }
        if bins == 0 {
            return Err(crate::SimError::Empty { name: "bins" });
        }
        Ok(Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            nan: 0,
            count: 0,
        })
    }

    /// Records one observation. Values below `lo` land in the underflow
    /// bucket; values at or above `hi` land in the overflow bucket. NaN
    /// is counted in its own bucket (see [`nan`](Self::nan)) and never
    /// contributes to quantiles — counting it as overflow would silently
    /// bias them toward `hi`.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x.is_nan() {
            self.nan += 1;
        } else if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total number of recorded observations, including under/overflow.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations below the histogram range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the histogram range.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// NaN observations (excluded from every quantile).
    #[must_use]
    pub fn nan(&self) -> u64 {
        self.nan
    }

    /// Number of finite, orderable observations — everything except NaN.
    #[must_use]
    pub fn finite_count(&self) -> u64 {
        self.count - self.nan
    }

    /// The per-bin counts.
    #[must_use]
    pub fn bin_counts(&self) -> &[u64] {
        &self.bins
    }

    /// The inclusive lower edge of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bin_lower_edge(&self, i: usize) -> f64 {
        assert!(i < self.bins.len(), "bin index out of range");
        self.lo + (self.hi - self.lo) * i as f64 / self.bins.len() as f64
    }

    /// Estimates the `q`-quantile (0 ≤ q ≤ 1) by scanning the cumulative
    /// counts; returns the upper edge of the bucket where the quantile
    /// falls. Underflow maps to `lo`; overflow to `hi`; NaN observations
    /// are excluded entirely.
    ///
    /// When the result would be the `lo`/`hi` clamp, the true quantile
    /// lies outside the histogram range — use
    /// [`quantile_is_clamped`](Self::quantile_is_clamped) to detect that
    /// before trusting the value.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]` or the histogram holds no finite
    /// observations.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let target = self.quantile_target(q);
        let mut cum = self.underflow;
        if cum >= target {
            return self.lo;
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= target {
                return self.lo + w * (i + 1) as f64;
            }
        }
        self.hi
    }

    /// `true` when the `q`-quantile falls in the underflow or overflow
    /// bucket, i.e. [`quantile`](Self::quantile) would silently clamp it
    /// to a range edge instead of estimating it.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]` or the histogram holds no finite
    /// observations.
    #[must_use]
    pub fn quantile_is_clamped(&self, q: f64) -> bool {
        let target = self.quantile_target(q);
        let in_range: u64 = self.bins.iter().sum();
        self.underflow >= target || self.underflow + in_range < target
    }

    /// Rank (1-based, over finite observations) the `q`-quantile scan
    /// stops at.
    fn quantile_target(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile requires q in [0, 1]");
        let finite = self.finite_count();
        assert!(finite > 0, "quantile of an empty histogram");
        ((q * finite as f64).ceil() as u64).max(1)
    }
}

/// Batch-means estimator for steady-state simulation output analysis.
///
/// Correlated per-event observations (queue delays, power samples) are
/// grouped into fixed-size batches; the batch means are approximately
/// independent, so their spread yields an honest confidence interval for
/// the long-run mean — the standard method for discrete-event
/// simulation output.
///
/// # Example
///
/// ```
/// use simcore::stats::BatchMeans;
///
/// let mut bm = BatchMeans::new(100);
/// for i in 0..10_000 {
///     bm.push((i % 7) as f64);
/// }
/// let mean = bm.mean();
/// let half = bm.ci95_halfwidth().expect("enough batches");
/// assert!((mean - 3.0).abs() < half + 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMeans {
    batch_size: usize,
    current_sum: f64,
    current_count: usize,
    batch_means: Vec<f64>,
    overall: OnlineStats,
}

impl BatchMeans {
    /// Creates an estimator with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    #[must_use]
    pub fn new(batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        BatchMeans {
            batch_size,
            current_sum: 0.0,
            current_count: 0,
            batch_means: Vec::new(),
            overall: OnlineStats::new(),
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.overall.push(x);
        self.current_sum += x;
        self.current_count += 1;
        if self.current_count == self.batch_size {
            self.batch_means
                .push(self.current_sum / self.batch_size as f64);
            self.current_sum = 0.0;
            self.current_count = 0;
        }
    }

    /// Number of completed batches.
    #[must_use]
    pub fn batches(&self) -> usize {
        self.batch_means.len()
    }

    /// Overall sample mean (all observations, including the partial
    /// batch).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.overall.mean()
    }

    /// Standard error of the mean estimated from the batch means;
    /// `None` with fewer than two completed batches.
    #[must_use]
    pub fn std_error(&self) -> Option<f64> {
        let k = self.batch_means.len();
        if k < 2 {
            return None;
        }
        let mut s = OnlineStats::new();
        for &m in &self.batch_means {
            s.push(m);
        }
        Some((s.sample_variance() / k as f64).sqrt())
    }

    /// Half-width of the 95 % confidence interval for the long-run mean
    /// (Student's t on the batch means); `None` with fewer than two
    /// completed batches.
    #[must_use]
    pub fn ci95_halfwidth(&self) -> Option<f64> {
        let k = self.batch_means.len();
        let se = self.std_error()?;
        Some(se * t_quantile_975(k - 1))
    }
}

/// Two-sided 95 % Student-t quantile for `df` degrees of freedom
/// (tabulated for small df, 1.96 asymptote beyond 30).
fn t_quantile_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// Computes the `q`-quantile of a slice by sorting a copy (linear
/// interpolation between order statistics).
///
/// Convenient for small sample sets such as per-clip decode-time
/// summaries. Sorting uses [`f64::total_cmp`], so NaN never panics; NaN
/// entries sort after `+∞` and only perturb the top quantiles. Callers
/// taking several quantiles of the same data should sort once and use
/// [`exact_quantile_sorted`].
///
/// # Panics
///
/// Panics if `data` is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn exact_quantile(data: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = data.to_vec();
    v.sort_by(f64::total_cmp);
    exact_quantile_sorted(&v, q)
}

/// [`exact_quantile`] over data already sorted ascending (in
/// [`f64::total_cmp`] order) — the one-sort path for callers that take
/// several quantiles of the same sample.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`. Debug builds
/// also assert the slice is actually sorted.
#[must_use]
pub fn exact_quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&q), "q must be in [0, 1]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
        "exact_quantile_sorted requires total_cmp-sorted data"
    );
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// One weight class of a [`QuantileSketch`]: level `h` holds items each
/// standing for `2^h` original observations.
#[derive(Debug, Clone, PartialEq)]
struct SketchLevel {
    /// Items at this level. Level 0 is the insertion buffer and is
    /// unsorted; every level is sorted on compaction.
    items: Vec<f64>,
    /// Parity of the next compaction: `false` keeps even sorted
    /// indices, `true` keeps odd ones. Alternating the parity each
    /// compaction makes the per-compaction rank errors alternate in
    /// sign, so they largely cancel in practice while the tracked
    /// worst-case bound stays valid.
    keep_odd: bool,
}

impl SketchLevel {
    fn empty() -> SketchLevel {
        SketchLevel {
            items: Vec::new(),
            keep_odd: false,
        }
    }
}

/// A deterministic fixed-capacity quantile sketch (KLL-style compactor
/// hierarchy without randomization).
///
/// Level `h` stores items of weight `2^h`, at most `capacity` per
/// level. When a level overflows it is sorted and *compacted*: every
/// other item survives to level `h + 1` (the starting offset alternates
/// between compactions via a stored parity bit; an odd straggler stays
/// behind at its own level, so total weight is always preserved
/// exactly). There is no randomness anywhere, so the sketch state —
/// and every quantile it reports — is a pure function of the insertion
/// and merge order. Feeding observations in a canonical order (the
/// fleet engine's ascending device order) therefore yields bit-identical
/// results at any thread count.
///
/// Memory is `O(capacity × log(n / capacity))` for `n` insertions.
///
/// # Error bound
///
/// Compacting a level of weight `w` perturbs the rank of any query
/// point by at most `w`; the sketch accumulates those worst-case
/// contributions in [`rank_error_bound`](Self::rank_error_bound). For
/// `n` insertions at capacity `k` the bound is ≈ `log2(n/k) · n/k`
/// ranks (about 1 % of `n` at `k = 1024`, `n = 10^6`); the alternating
/// parity keeps observed error well below it. While no compaction has
/// occurred (`n ≤ capacity`, no merges past capacity), quantiles are
/// **exact** — identical to [`exact_quantile_sorted`].
///
/// # Example
///
/// ```
/// use simcore::stats::QuantileSketch;
///
/// let mut s = QuantileSketch::new(64);
/// for i in 0..1000 {
///     s.push(f64::from(i));
/// }
/// let p50 = s.quantile(0.5);
/// assert!((p50 - 499.5).abs() <= s.rank_error_bound() as f64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    capacity: usize,
    count: u64,
    /// Accumulated worst-case rank error from every compaction so far,
    /// in ranks (`Σ 2^h` over compactions at level `h`).
    err_ranks: u64,
    levels: Vec<SketchLevel>,
}

impl QuantileSketch {
    /// Creates an empty sketch holding at most `capacity` items per
    /// level before compacting.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (a one-item level can never compact in
    /// pairs).
    #[must_use]
    pub fn new(capacity: usize) -> QuantileSketch {
        assert!(capacity >= 2, "sketch capacity must be at least 2");
        QuantileSketch {
            capacity,
            count: 0,
            err_ranks: 0,
            levels: vec![SketchLevel::empty()],
        }
    }

    /// Per-level capacity the sketch was built with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total observations inserted (directly or via merge).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Worst-case absolute rank error of any quantile query, in ranks
    /// (0 while the sketch is still exact). Divide by
    /// [`count`](Self::count) for the relative bound.
    #[must_use]
    pub fn rank_error_bound(&self) -> u64 {
        self.err_ranks
    }

    /// Inserts one observation. Values compare via [`f64::total_cmp`],
    /// so NaN is accepted and sorts after `+∞` (callers wanting
    /// finite-only quantiles filter before pushing).
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.levels[0].items.push(x);
        self.restore_capacity();
    }

    /// Merges `other` into `self`. Deterministic — the result is a pure
    /// function of the two operand states and their order — but not
    /// commutative, so callers must merge in a canonical order (the
    /// fleet engine merges in ascending batch order).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(
            self.capacity, other.capacity,
            "cannot merge sketches of different capacities"
        );
        self.count += other.count;
        self.err_ranks += other.err_ranks;
        while self.levels.len() < other.levels.len() {
            self.levels.push(SketchLevel::empty());
        }
        for (h, lvl) in other.levels.iter().enumerate() {
            self.levels[h].items.extend_from_slice(&lvl.items);
        }
        self.restore_capacity();
    }

    /// Compacts every over-full level, bottom up. Promotion can push
    /// the next level over capacity; the upward sweep handles it in the
    /// same pass.
    fn restore_capacity(&mut self) {
        let mut h = 0;
        while h < self.levels.len() {
            if self.levels[h].items.len() > self.capacity {
                self.compact(h);
            }
            h += 1;
        }
    }

    /// Compacts level `h`: sort, leave an odd straggler behind, promote
    /// every other item of the rest to level `h + 1`, flip the parity.
    fn compact(&mut self, h: usize) {
        if self.levels.len() <= h + 1 {
            self.levels.push(SketchLevel::empty());
        }
        let lvl = &mut self.levels[h];
        let mut items = std::mem::take(&mut lvl.items);
        items.sort_by(f64::total_cmp);
        if items.len() % 2 == 1 {
            // An odd straggler keeps its weight and stays behind: total
            // weight is preserved exactly, no rank error introduced.
            let straggler = items.pop().expect("non-empty: len is odd");
            lvl.items.push(straggler);
        }
        let start = usize::from(lvl.keep_odd);
        lvl.keep_odd = !lvl.keep_odd;
        let survivors: Vec<f64> = items.iter().copied().skip(start).step_by(2).collect();
        // Each compaction of weight-w items moves any query rank by at
        // most w; 2^h ≤ 2^63 for any reachable level count.
        self.err_ranks += 1_u64 << h;
        self.levels[h + 1].items.extend_from_slice(&survivors);
    }

    /// The `q`-quantile estimate.
    ///
    /// While no compaction has occurred, this is exactly
    /// [`exact_quantile_sorted`] over everything inserted. Afterwards
    /// it returns the stored item covering the weighted target rank —
    /// within [`rank_error_bound`](Self::rank_error_bound) ranks of the
    /// true order statistic.
    ///
    /// # Panics
    ///
    /// Panics if the sketch is empty or `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.is_empty(), "quantile of an empty sketch");
        assert!((0.0..=1.0).contains(&q), "q must be in [0, 1]");
        if self.err_ranks == 0 {
            // Everything still sits at weight 1 (level 0, plus possibly
            // weight-1 items brought in by merges before any
            // compaction): exact path.
            let mut v: Vec<f64> = self
                .levels
                .iter()
                .flat_map(|l| l.items.iter().copied())
                .collect();
            v.sort_by(f64::total_cmp);
            return exact_quantile_sorted(&v, q);
        }
        let mut points: Vec<(f64, u64)> = Vec::new();
        for (h, lvl) in self.levels.iter().enumerate() {
            let w = 1_u64 << h;
            points.extend(lvl.items.iter().map(|&x| (x, w)));
        }
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: u64 = points.iter().map(|p| p.1).sum();
        debug_assert_eq!(total, self.count, "compaction must preserve weight");
        // Target rank in [0, total): the item whose cumulative weight
        // range covers it is the estimate.
        let pos = q * (total - 1) as f64;
        let target = pos.round() as u64;
        let mut cum = 0_u64;
        for &(x, w) in &points {
            cum += w;
            if cum > target {
                return x;
            }
        }
        points.last().expect("non-empty").0
    }

    /// Decomposes the sketch into raw state for serialization:
    /// `(capacity, count, err_ranks, levels)` where each level is its
    /// items (level 0 in insertion order) plus its compaction parity.
    #[must_use]
    pub fn to_parts(&self) -> (usize, u64, u64, Vec<(Vec<f64>, bool)>) {
        (
            self.capacity,
            self.count,
            self.err_ranks,
            self.levels
                .iter()
                .map(|l| (l.items.clone(), l.keep_odd))
                .collect(),
        )
    }

    /// Rebuilds a sketch from [`to_parts`](Self::to_parts) output — the
    /// checkpoint-restore path. Continuing to push into the rebuilt
    /// sketch behaves bit-identically to the original.
    ///
    /// # Errors
    ///
    /// Rejects states no push/merge sequence can produce: capacity
    /// below 2, no levels, an over-capacity level, or a stored weight
    /// total disagreeing with `count`.
    pub fn from_parts(
        capacity: usize,
        count: u64,
        err_ranks: u64,
        levels: Vec<(Vec<f64>, bool)>,
    ) -> Result<QuantileSketch, String> {
        if capacity < 2 {
            return Err(format!("sketch capacity {capacity} is below 2"));
        }
        if levels.is_empty() {
            return Err("sketch must have at least one level".into());
        }
        let mut weight: u64 = 0;
        for (h, (items, _)) in levels.iter().enumerate() {
            if items.len() > capacity {
                return Err(format!(
                    "level {h} holds {} items, over capacity {capacity}",
                    items.len()
                ));
            }
            weight += (items.len() as u64) << h;
        }
        if weight != count {
            return Err(format!(
                "stored weight {weight} disagrees with count {count}"
            ));
        }
        if err_ranks == 0 && levels.iter().skip(1).any(|(items, _)| !items.is_empty()) {
            return Err("a never-compacted sketch cannot hold items above level 0".into());
        }
        Ok(QuantileSketch {
            capacity,
            count,
            err_ranks,
            levels: levels
                .into_iter()
                .map(|(items, keep_odd)| SketchLevel { items, keep_odd })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        s.push(1.0);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert!((s.sample_variance() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert!((s.sum() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(5.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn histogram_records_and_counts() {
        let mut h = Histogram::new(0.0, 1.0, 10).unwrap();
        h.record(-0.5);
        h.record(0.05);
        h.record(0.95);
        h.record(1.5);
        assert_eq!(h.count(), 4);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bin_counts()[0], 1);
        assert_eq!(h.bin_counts()[9], 1);
    }

    #[test]
    fn histogram_quantile_uniform() {
        let mut h = Histogram::new(0.0, 100.0, 1000).unwrap();
        for i in 0..10_000 {
            h.record(i as f64 / 100.0);
        }
        assert!((h.quantile(0.5) - 50.0).abs() < 1.0);
        assert!((h.quantile(0.995) - 99.5).abs() < 1.0);
        assert!(h.quantile(0.0) <= h.quantile(1.0));
    }

    #[test]
    fn histogram_counts_nan_separately_from_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 10).unwrap();
        h.record(f64::NAN);
        h.record(2.0);
        h.record(0.5);
        assert_eq!(h.count(), 3);
        assert_eq!(h.nan(), 1);
        assert_eq!(h.overflow(), 1, "NaN must not inflate overflow");
        assert_eq!(h.finite_count(), 2);
    }

    #[test]
    fn nan_does_not_bias_quantiles_toward_hi() {
        // 99 in-range samples + 1 NaN: every quantile must come from the
        // real data, not from a phantom observation at `hi`.
        let mut with_nan = Histogram::new(0.0, 100.0, 100).unwrap();
        let mut clean = Histogram::new(0.0, 100.0, 100).unwrap();
        for i in 0..99 {
            with_nan.record(f64::from(i) * 0.5);
            clean.record(f64::from(i) * 0.5);
        }
        with_nan.record(f64::NAN);
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(with_nan.quantile(q), clean.quantile(q), "q={q}");
        }
    }

    #[test]
    fn quantile_clamp_detection() {
        let mut h = Histogram::new(0.0, 1.0, 10).unwrap();
        for _ in 0..99 {
            h.record(0.5);
        }
        assert!(!h.quantile_is_clamped(0.99));
        h.record(7.0); // one overflow sample
        assert!(!h.quantile_is_clamped(0.5));
        assert!(
            h.quantile_is_clamped(0.995),
            "top quantile now falls in overflow"
        );
        assert_eq!(h.quantile(0.995), 1.0, "clamped to hi");
        let mut low = Histogram::new(0.0, 1.0, 10).unwrap();
        low.record(-3.0);
        low.record(0.5);
        assert!(low.quantile_is_clamped(0.25), "underflow clamps to lo");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_all_nan_histogram_panics() {
        let mut h = Histogram::new(0.0, 1.0, 10).unwrap();
        h.record(f64::NAN);
        let _ = h.quantile(0.5);
    }

    #[test]
    fn histogram_rejects_bad_bounds() {
        assert!(Histogram::new(1.0, 1.0, 10).is_err());
        assert!(Histogram::new(2.0, 1.0, 10).is_err());
        assert!(Histogram::new(0.0, f64::INFINITY, 10).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
    }

    #[test]
    fn histogram_bin_edges() {
        let h = Histogram::new(0.0, 10.0, 5).unwrap();
        assert_eq!(h.bin_lower_edge(0), 0.0);
        assert_eq!(h.bin_lower_edge(4), 8.0);
    }

    #[test]
    fn batch_means_mean_matches_overall() {
        let mut bm = BatchMeans::new(10);
        for i in 0..105 {
            bm.push(i as f64);
        }
        assert_eq!(bm.batches(), 10);
        assert!((bm.mean() - 52.0).abs() < 1e-12);
    }

    #[test]
    fn batch_means_ci_covers_iid_mean() {
        // IID uniform noise: the CI should bracket the true mean 0.5.
        let mut rng = crate::rng::SimRng::seed_from(5);
        let mut bm = BatchMeans::new(50);
        for _ in 0..5000 {
            bm.push(rng.next_f64());
        }
        let half = bm.ci95_halfwidth().unwrap();
        assert!(half > 0.0);
        assert!(
            (bm.mean() - 0.5).abs() < 3.0 * half,
            "mean {} ± {half}",
            bm.mean()
        );
    }

    #[test]
    fn batch_means_needs_two_batches() {
        let mut bm = BatchMeans::new(100);
        for i in 0..150 {
            bm.push(i as f64);
        }
        assert_eq!(bm.batches(), 1);
        assert_eq!(bm.std_error(), None);
        assert_eq!(bm.ci95_halfwidth(), None);
        for i in 0..50 {
            bm.push(i as f64);
        }
        assert!(bm.ci95_halfwidth().is_some());
    }

    #[test]
    fn t_quantiles_decrease_toward_normal() {
        let mut bm1 = BatchMeans::new(1);
        bm1.push(0.0);
        bm1.push(1.0);
        bm1.push(2.0);
        // df = 2 → 4.303; wide but finite.
        let se = bm1.std_error().unwrap();
        let half = bm1.ci95_halfwidth().unwrap();
        assert!((half / se - 4.303).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_panics() {
        let _ = BatchMeans::new(0);
    }

    #[test]
    fn exact_quantile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(exact_quantile(&data, 0.0), 1.0);
        assert_eq!(exact_quantile(&data, 1.0), 4.0);
        assert!((exact_quantile(&data, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn exact_quantile_empty_panics() {
        let _ = exact_quantile(&[], 0.5);
    }

    #[test]
    fn exact_quantile_tolerates_nan_instead_of_panicking() {
        // Regression: the old `partial_cmp(..).expect("NaN in quantile
        // data")` sort panicked on any NaN entry. `total_cmp` sorts NaN
        // after +∞, so lower quantiles stay meaningful.
        let data = [3.0, f64::NAN, 1.0, 2.0];
        assert!((exact_quantile(&data, 0.0) - 1.0).abs() < 1e-12);
        assert!((exact_quantile(&data, 1.0 / 3.0) - 2.0).abs() < 1e-12);
        assert!(exact_quantile(&data, 1.0).is_nan());
    }

    #[test]
    fn exact_quantile_sorted_matches_unsorted_entry_point() {
        let data = [5.0, -1.0, 3.5, 0.0, 9.0, 2.0];
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(exact_quantile(&data, q), exact_quantile_sorted(&sorted, q));
        }
    }

    #[test]
    fn online_stats_raw_round_trip() {
        let mut s = OnlineStats::new();
        for x in [1.0, 4.0, -2.5, 9.0] {
            s.push(x);
        }
        let back = OnlineStats::from_raw(s.count(), s.mean(), s.m2(), s.min(), s.max(), s.sum());
        assert_eq!(back, s);
    }

    #[test]
    fn sketch_is_exact_until_capacity_is_exceeded() {
        let mut s = QuantileSketch::new(64);
        let data: Vec<f64> = (0..64).map(|i| f64::from((i * 37) % 64)).collect();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 64);
        assert_eq!(s.rank_error_bound(), 0, "no compaction at n == capacity");
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), exact_quantile_sorted(&sorted, q));
        }
    }

    #[test]
    fn sketch_stays_within_its_rank_error_bound() {
        let mut s = QuantileSketch::new(32);
        let data: Vec<f64> = (0..5000_u64)
            .map(|i| ((i * 2_654_435) % 5000) as f64)
            .collect();
        for &x in &data {
            s.push(x);
        }
        assert!(s.rank_error_bound() > 0, "compaction must have happened");
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        for q in [0.01, 0.1, 0.5, 0.9, 0.99] {
            let est = s.quantile(q);
            // Rank of the estimate in the true data vs the target rank.
            let rank_lo = sorted.partition_point(|&x| x < est);
            let rank_hi = sorted.partition_point(|&x| x <= est);
            let target = q * (n - 1) as f64;
            let err = if (rank_lo as f64) > target {
                rank_lo as f64 - target
            } else if (rank_hi as f64) < target {
                target - rank_hi as f64
            } else {
                0.0
            };
            assert!(
                err <= s.rank_error_bound() as f64,
                "q={q}: rank error {err} exceeds bound {}",
                s.rank_error_bound()
            );
        }
    }

    #[test]
    fn sketch_is_a_pure_function_of_insertion_order() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let build = || {
            let mut s = QuantileSketch::new(16);
            for &x in &data {
                s.push(x);
            }
            s
        };
        assert_eq!(build(), build(), "same order, bit-identical state");
    }

    #[test]
    fn sketch_merge_is_deterministic_and_weight_preserving() {
        let data: Vec<f64> = (0..900).map(|i| ((i * 31) % 900) as f64).collect();
        let merged = || {
            let mut a = QuantileSketch::new(16);
            let mut b = QuantileSketch::new(16);
            for &x in &data[..400] {
                a.push(x);
            }
            for &x in &data[400..] {
                b.push(x);
            }
            a.merge(&b);
            a
        };
        let m1 = merged();
        assert_eq!(m1, merged(), "merge is deterministic");
        assert_eq!(m1.count(), 900);
        let est = m1.quantile(0.5);
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        let target = 0.5 * (sorted.len() - 1) as f64;
        let rank_lo = sorted.partition_point(|&x| x < est) as f64;
        let rank_hi = sorted.partition_point(|&x| x <= est) as f64;
        let err = (rank_lo - target).max(target - rank_hi).max(0.0);
        assert!(err <= m1.rank_error_bound() as f64);
    }

    #[test]
    fn sketch_parts_round_trip_preserves_future_behaviour() {
        let mut a = QuantileSketch::new(8);
        for i in 0..100 {
            s_push(&mut a, i);
        }
        let (cap, count, err, levels) = a.to_parts();
        let mut b = QuantileSketch::from_parts(cap, count, err, levels).expect("valid parts");
        assert_eq!(a, b);
        for i in 100..200 {
            s_push(&mut a, i);
            s_push(&mut b, i);
        }
        assert_eq!(a, b, "restored sketch must continue bit-identically");
    }

    fn s_push(s: &mut QuantileSketch, i: i32) {
        s.push(f64::from((i * 131) % 997));
    }

    #[test]
    fn sketch_from_parts_rejects_impossible_states() {
        assert!(QuantileSketch::from_parts(1, 0, 0, vec![(vec![], false)]).is_err());
        assert!(QuantileSketch::from_parts(4, 0, 0, vec![]).is_err());
        // Over-capacity level.
        assert!(QuantileSketch::from_parts(2, 3, 0, vec![(vec![1.0, 2.0, 3.0], false)]).is_err());
        // Weight/count mismatch.
        assert!(QuantileSketch::from_parts(4, 5, 0, vec![(vec![1.0, 2.0], false)]).is_err());
        // Items above level 0 without any recorded compaction.
        assert!(
            QuantileSketch::from_parts(4, 2, 0, vec![(vec![], false), (vec![1.0], false)]).is_err()
        );
        // A consistent state loads.
        assert!(QuantileSketch::from_parts(
            4,
            4,
            1,
            vec![(vec![1.0, 2.0], true), (vec![5.0], false)]
        )
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "empty sketch")]
    fn sketch_quantile_of_empty_panics() {
        let _ = QuantileSketch::new(8).quantile(0.5);
    }
}
