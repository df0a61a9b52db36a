//! Log-bucketed histograms with exact bucket-resolution quantiles.
//!
//! The bucket layout is HdrHistogram-style: values below
//! [`LINEAR_LIMIT`] get exact width-1 buckets; above it every power-of-two
//! octave splits into [`SUB_BUCKETS`] sub-buckets, so the relative bucket width
//! is at most `1 / SUB_BUCKETS` (12.5%) everywhere. Recording is a handful of
//! relaxed atomic adds; quantile extraction happens on [`HistogramSnapshot`]s,
//! whose [`merge`](HistogramSnapshot::merge) is associative and commutative
//! (bucket counts add), so per-shard snapshots fold into cluster-wide ones in
//! any order.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two octave (as a power of two: 2^3 = 8).
pub const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Values below this limit get exact, width-1 buckets.
pub const LINEAR_LIMIT: u64 = 1 << (SUB_BITS + 1);
/// Total bucket count covering the full `u64` range.
pub const BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) << SUB_BITS;

/// The bucket index a value falls into.
///
/// # Examples
///
/// ```
/// use blockconc_telemetry::hist::{bucket_index, bucket_lower_bound};
///
/// let v = 12_345u64;
/// let i = bucket_index(v);
/// let lb = bucket_lower_bound(i);
/// assert!(lb <= v);
/// assert!(bucket_lower_bound(i + 1) > v);
/// ```
pub fn bucket_index(value: u64) -> usize {
    if value < LINEAR_LIMIT {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let octave = msb - SUB_BITS;
        let sub = (value >> octave) & (SUB_BUCKETS - 1);
        (((octave + 1) as usize) << SUB_BITS) + sub as usize
    }
}

/// The smallest value mapping to bucket `index`.
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index < LINEAR_LIMIT as usize {
        index as u64
    } else {
        let octave = (index >> SUB_BITS) as u32 - 1;
        let sub = (index as u64) & (SUB_BUCKETS - 1);
        (SUB_BUCKETS + sub) << octave
    }
}

/// The width of bucket `index` in values.
pub fn bucket_width(index: usize) -> u64 {
    if index < LINEAR_LIMIT as usize {
        1
    } else {
        1u64 << ((index >> SUB_BITS) as u32 - 1)
    }
}

/// A representative value inside bucket `index` (its midpoint), used when a
/// quantile resolves to the bucket.
pub fn bucket_representative(index: usize) -> u64 {
    bucket_lower_bound(index) + bucket_width(index) / 2
}

/// A concurrent log-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, sizes in bytes, work in counts — the histogram does not
/// care which).
///
/// Recording is lock-free (relaxed atomics) and callable through `&self`, so
/// one histogram can absorb samples from many shard threads.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(index, bucket)| {
                let n = bucket.load(Ordering::Relaxed);
                (n > 0).then_some(BucketCount {
                    index: index as u32,
                    count: n,
                })
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// One non-empty bucket of a [`HistogramSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Bucket index (see [`bucket_index`]).
    pub index: u32,
    /// Samples in the bucket.
    pub count: u64,
}

/// A serializable, mergeable point-in-time copy of a [`Histogram`].
///
/// # Examples
///
/// ```
/// use blockconc_telemetry::Histogram;
///
/// let h = Histogram::new();
/// for v in [1u64, 2, 3, 100, 200, 300, 400, 500, 600, 1_000] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 10);
/// assert!(snap.p50() >= 200 && snap.p50() <= 330);
/// assert!(snap.p99() >= 960);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// The sample at quantile `q` (0 < q ≤ 1), resolved to its bucket's
    /// representative value: the returned value is guaranteed to land in the
    /// same bucket as the exact rank-`⌈q·count⌉` order statistic. Returns 0 for
    /// an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for bucket in &self.buckets {
            seen += bucket.count;
            if seen >= rank {
                // Clamp to the observed extremes so tiny histograms do not
                // report representatives outside the sampled range.
                return bucket_representative(bucket.index as usize)
                    .clamp(self.min, self.max.max(self.min));
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self` (bucket counts add; min/max/sum/count fold).
    /// Associative and commutative, so per-shard snapshots merge in any order —
    /// property-tested in `tests/histogram_props.rs`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: Vec<BucketCount> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) if x.index == y.index => {
                    merged.push(BucketCount {
                        index: x.index,
                        count: x.count + y.count,
                    });
                    a.next();
                    b.next();
                }
                (Some(x), Some(y)) if x.index < y.index => {
                    merged.push(**x);
                    a.next();
                }
                (Some(_), Some(y)) => {
                    merged.push(**y);
                    b.next();
                }
                (Some(x), None) => {
                    merged.push(**x);
                    a.next();
                }
                (None, Some(y)) => {
                    merged.push(**y);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every bucket's lower bound equals the previous bucket's upper edge.
        for index in 1..BUCKETS - 1 {
            assert_eq!(
                bucket_lower_bound(index) + bucket_width(index),
                bucket_lower_bound(index + 1),
                "gap after bucket {index}"
            );
        }
        // Spot values map into the bucket whose range claims them.
        for value in [0u64, 1, 7, 15, 16, 17, 31, 32, 100, 1_000, 123_456_789] {
            let i = bucket_index(value);
            assert!(bucket_lower_bound(i) <= value, "value {value}");
            assert!(
                value < bucket_lower_bound(i) + bucket_width(i),
                "value {value}"
            );
        }
        // Extremes stay in range.
        assert!(bucket_index(u64::MAX) < BUCKETS);
        assert_eq!(bucket_index(0), 0);
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for value in [20u64, 100, 5_000, 1 << 30, 1 << 50] {
            let i = bucket_index(value);
            let width = bucket_width(i) as f64;
            let lb = bucket_lower_bound(i) as f64;
            assert!(
                width / lb <= 1.0 / SUB_BUCKETS as f64 + 1e-12,
                "value {value}"
            );
        }
    }

    #[test]
    fn quantiles_resolve_to_the_right_bucket() {
        let h = Histogram::new();
        let samples: Vec<u64> = (1..=1_000).collect();
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1_000);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1_000);
        for (q, exact) in [(0.5, 500u64), (0.95, 950), (0.99, 990)] {
            let got = snap.quantile(q);
            assert_eq!(
                bucket_index(got),
                bucket_index(exact),
                "q={q}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_snapshots() {
        let h = Histogram::new();
        let empty = h.snapshot();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.mean(), 0.0);
        h.record(42);
        let one = h.snapshot();
        assert_eq!(one.p50(), 42);
        assert_eq!(one.p99(), 42);
        assert_eq!(one.min, 42);
        assert_eq!(one.max, 42);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 3);
            both.record(v * 3);
        }
        for v in 0..300u64 {
            b.record(v * 7 + 1);
            both.record(v * 7 + 1);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn snapshots_roundtrip_through_json() {
        let h = Histogram::new();
        for v in [1u64, 10, 100, 1_000, 10_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let parsed: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, snap);
    }
}
