//! Log-bucketed streaming histogram.
//!
//! Object lifespans span nine orders of magnitude (a few bytes to gigabytes
//! of allocation), so the natural x-axis is logarithmic — exactly how the
//! paper plots Figures 1c/1d. [`LogHistogram`] buckets by power of two and
//! keeps exact totals, which is all the CDFs need.

use std::fmt;

/// A histogram over `u64` values with one bucket per power of two.
///
/// Bucket `i` covers `[2^i, 2^(i+1))`; value `0` lands in bucket 0 together
/// with value 1 (lifespans of 0 and 1 byte are indistinguishable for our
/// purposes).
///
/// # Examples
///
/// ```
/// use scalesim_metrics::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [1u64, 2, 3, 1024, 4096] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.fraction_below(1024), 0.6); // 1, 2, 3
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical observations at once.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(value)] += n;
        self.count += n;
        self.sum += u128::from(value) * u128::from(n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observations have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean observation, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Smallest observation, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Fraction of observations strictly below `threshold` (bucket
    /// resolution: exact when `threshold` is a power of two).
    ///
    /// Returns 0.0 for an empty histogram.
    #[must_use]
    pub fn fraction_below(&self, threshold: u64) -> f64 {
        if self.count == 0 || threshold == 0 {
            return 0.0;
        }
        let limit = Self::bucket_of(threshold);
        let below: u64 = self.buckets[..limit].iter().sum();
        // Within the threshold's own bucket, attribute a linear share —
        // exact for power-of-two thresholds (share = 0).
        let lo = if limit == 0 { 0 } else { 1u64 << limit };
        let hi = 1u64.checked_shl(limit as u32 + 1).unwrap_or(u64::MAX);
        let share = if threshold <= lo {
            0.0
        } else {
            (threshold - lo) as f64 / (hi - lo) as f64
        };
        (below as f64 + self.buckets[limit] as f64 * share) / self.count as f64
    }

    /// Approximate quantile `q` in `[0, 1]` (bucket upper bound), or `None`
    /// when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(1u64.checked_shl(i as u32 + 1).map_or(u64::MAX, |v| v - 1));
            }
        }
        Some(self.max)
    }

    /// The raw per-bucket counts, indexed by power-of-two bucket.
    ///
    /// Unlike [`LogHistogram::iter`] this exposes every bucket (including
    /// empty ones) so callers can persist and rebuild the histogram
    /// losslessly.
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; 64] {
        self.buckets
    }

    /// The raw `min` field, including the `u64::MAX` empty sentinel.
    ///
    /// Persistence needs the sentinel verbatim so a round-tripped
    /// histogram compares (and `Debug`-formats) identically; ordinary
    /// callers want [`LogHistogram::min`].
    #[must_use]
    pub fn raw_min(&self) -> u64 {
        self.min
    }

    /// The raw `max` field, including the `0` empty sentinel.
    /// See [`LogHistogram::raw_min`].
    #[must_use]
    pub fn raw_max(&self) -> u64 {
        self.max
    }

    /// Rebuilds a histogram from raw parts captured via
    /// [`LogHistogram::bucket_counts`], [`LogHistogram::count`],
    /// [`LogHistogram::sum`], [`LogHistogram::raw_min`] and
    /// [`LogHistogram::raw_max`].
    ///
    /// The parts are trusted as-is (this is a persistence hook, not a
    /// constructor for new data); feeding back unmodified parts yields a
    /// histogram equal to the original.
    #[must_use]
    pub fn from_raw_parts(buckets: [u64; 64], count: u64, sum: u128, min: u64, max: u64) -> Self {
        LogHistogram {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// Iterates over `(bucket_lower_bound, count)` for non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LogHistogram(n={}", self.count)?;
        if let (Some(mn), Some(mx)) = (self.min(), self.max()) {
            write!(f, ", min={mn}, max={mx}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<u64> for LogHistogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = LogHistogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

impl Extend<u64> for LogHistogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_none() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.fraction_below(100), 0.0);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 0);
        assert_eq!(LogHistogram::bucket_of(2), 1);
        assert_eq!(LogHistogram::bucket_of(3), 1);
        assert_eq!(LogHistogram::bucket_of(4), 2);
        assert_eq!(LogHistogram::bucket_of(1023), 9);
        assert_eq!(LogHistogram::bucket_of(1024), 10);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn count_sum_min_max_mean() {
        let h: LogHistogram = [4u64, 8, 12].into_iter().collect();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 24);
        assert_eq!(h.min(), Some(4));
        assert_eq!(h.max(), Some(12));
        assert_eq!(h.mean(), Some(8.0));
    }

    #[test]
    fn fraction_below_power_of_two_is_exact() {
        let h: LogHistogram = [1u64, 2, 3, 1024, 4096].into_iter().collect();
        assert_eq!(h.fraction_below(1024), 0.6);
        // bucket 0 spans {0,1}; at the bucket boundary 2 the count is exact:
        // only the value 1 lies below
        assert_eq!(h.fraction_below(2), 0.2);
        assert!((h.fraction_below(u64::MAX) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fraction_below_is_monotone() {
        let h: LogHistogram = (1u64..1000).collect();
        let mut prev = 0.0;
        for t in [1u64, 2, 10, 100, 512, 1024, 1 << 20] {
            let f = h.fraction_below(t);
            assert!(f >= prev, "fraction_below({t})={f} < {prev}");
            prev = f;
        }
    }

    #[test]
    fn quantile_brackets_the_data() {
        let h: LogHistogram = (0..100u64).map(|_| 700u64).collect();
        // all values in bucket [512,1024)
        assert_eq!(h.quantile(0.5), Some(1023));
        assert_eq!(h.quantile(1.0), Some(1023));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn quantile_out_of_range_panics() {
        let h: LogHistogram = [1u64].into_iter().collect();
        let _ = h.quantile(1.5);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a: LogHistogram = [1u64, 2].into_iter().collect();
        let b: LogHistogram = [1024u64].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(1024));
        assert_eq!(a.min(), Some(1));
    }

    #[test]
    fn record_n_is_bulk_record() {
        let mut a = LogHistogram::new();
        a.record_n(7, 5);
        let b: LogHistogram = std::iter::repeat_n(7u64, 5).collect();
        assert_eq!(a, b);
        a.record_n(9, 0); // no-op
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn iter_yields_nonempty_buckets_in_order() {
        let h: LogHistogram = [1u64, 100, 100_000].into_iter().collect();
        let v: Vec<_> = h.iter().collect();
        assert_eq!(v, vec![(0, 1), (64, 1), (65536, 1)]);
    }

    #[test]
    fn raw_parts_round_trip_preserves_equality() {
        let h: LogHistogram = [0u64, 1, 7, 1024, u64::MAX].into_iter().collect();
        let back = LogHistogram::from_raw_parts(
            h.bucket_counts(),
            h.count(),
            h.sum(),
            h.raw_min(),
            h.raw_max(),
        );
        assert_eq!(h, back);
        assert_eq!(format!("{h:?}"), format!("{back:?}"));
        // The empty sentinels survive verbatim too.
        let e = LogHistogram::new();
        let eb = LogHistogram::from_raw_parts(
            e.bucket_counts(),
            e.count(),
            e.sum(),
            e.raw_min(),
            e.raw_max(),
        );
        assert_eq!(e, eb);
        assert_eq!(e.raw_min(), u64::MAX);
        assert_eq!(e.raw_max(), 0);
    }

    #[test]
    fn display_nonempty() {
        let h: LogHistogram = [5u64].into_iter().collect();
        assert!(h.to_string().contains("n=1"));
    }
}
