//! The metric primitives: sharded [`Counter`], [`Gauge`], log-linear
//! [`LatencyHistogram`] with a mergeable [`HistogramSnapshot`], and the
//! [`Span`] timing guard.
//!
//! Every primitive checks [`enabled`] on its write path, so
//! a disabled process pays one relaxed atomic load per call and nothing
//! else — no time source, no contention, no allocation.

use crate::registry::enabled;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Counter shards. A power of two so the thread-slot mask is a single AND;
/// eight 64-byte-aligned slots keep unrelated writer threads off each
/// other's cache lines without bloating idle registries.
const SHARDS: usize = 8;

/// One cache line per shard so concurrent writers do not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Padded(AtomicU64);

/// Round-robin thread→shard assignment: each thread draws a slot once and
/// keeps it for life, so a worker pool spreads evenly over the shards.
fn shard_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|slot| *slot) & (SHARDS - 1)
}

/// A monotonically increasing sum, sharded across cache lines so the hot
/// worker threads never contend on one atomic.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [Padded; SHARDS],
}

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` to this thread's shard. A no-op while metrics are disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !enabled() {
            return;
        }
        self.shards[shard_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Convenience for `add(1)`.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The summed value across every shard.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Resets the counter to zero (tests and benchmark repeats).
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A signed up/down value (open sessions, queue depth). Gauges sit on cold
/// paths — one atomic is enough.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Adds `n` (may be negative). A no-op while metrics are disabled.
    #[inline]
    pub fn add(&self, n: i64) {
        if !enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the gauge outright. A no-op while metrics are disabled.
    #[inline]
    pub fn set(&self, n: i64) {
        if !enabled() {
            return;
        }
        self.value.store(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the gauge to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Sub-bucket resolution: 2³ = 8 linear sub-buckets per power of two, a
/// worst-case quantile error of 12.5% — plenty for latency percentiles.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;

/// Bucket count covering the full `u64` range at `SUB_BITS` resolution:
/// values below `SUBS` map to themselves, and each of the `64 - SUB_BITS`
/// remaining octaves contributes `SUBS` buckets.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS;

/// The log-linear bucket index of `value`: exact below [`SUBS`], then
/// `SUBS` linear sub-buckets per power of two.
fn bucket_index(value: u64) -> usize {
    if value < SUBS as u64 {
        return value as usize;
    }
    let top = 63 - value.leading_zeros();
    let sub = ((value >> (top - SUB_BITS)) as usize) & (SUBS - 1);
    ((top - SUB_BITS + 1) as usize) * SUBS + sub
}

/// The inclusive lower bound of bucket `index` — the inverse of
/// [`bucket_index`] up to sub-bucket resolution.
fn bucket_bound(index: usize) -> u64 {
    if index < SUBS {
        return index as u64;
    }
    let octave = (index / SUBS) as u32;
    let sub = (index % SUBS) as u64;
    (SUBS as u64 + sub) << (octave - 1)
}

/// A log-linear latency histogram: exact counts below 8 µs, then eight
/// linear sub-buckets per power of two, covering the whole `u64` range in
/// a fixed array of atomics. Recording is wait-free; merging bucket
/// vectors is commutative and associative, so per-worker histograms fold
/// in any order to the same result — the same discipline as every report
/// tally in the system.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// A fresh empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation (microseconds by convention). A no-op while
    /// metrics are disabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration, truncated to whole microseconds.
    #[inline]
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Starts a timing guard that records the elapsed time on drop. While
    /// metrics are disabled the guard is inert and never reads the clock.
    #[inline]
    pub fn span(&self) -> Span<'_> {
        Span {
            histogram: self,
            start: enabled().then(Instant::now),
        }
    }

    /// The current contents as a mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(index, bucket)| {
                let count = bucket.load(Ordering::Relaxed);
                (count > 0).then(|| (bucket_bound(index), count))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Resets every bucket (tests and benchmark repeats).
    pub fn reset(&self) {
        for bucket in self.buckets.iter() {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`LatencyHistogram`]: total count, sum, true
/// max, and the non-empty `(bucket lower bound, count)` pairs in ascending
/// bound order. Snapshots merge commutatively, cross process boundaries in
/// worker epilogue frames, and answer quantile queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (µs by convention).
    pub sum: u64,
    /// Largest observed value — exact, not bucket-rounded.
    pub max: u64,
    /// Non-empty buckets as `(inclusive lower bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Folds `other` into `self`. Commutative and associative: any merge
    /// order over any partition of the observations yields the same
    /// snapshot.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ba, ca)), Some(&&(bb, cb))) => {
                    if ba == bb {
                        merged.push((ba, ca + cb));
                        a.next();
                        b.next();
                    } else if ba < bb {
                        merged.push((ba, ca));
                        a.next();
                    } else {
                        merged.push((bb, cb));
                        b.next();
                    }
                }
                (Some(&&pair), None) => {
                    merged.push(pair);
                    a.next();
                }
                (None, Some(&&pair)) => {
                    merged.push(pair);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }

    /// The value at quantile `q` in `[0, 1]`, reported at bucket
    /// resolution (the lower bound of the bucket holding the target
    /// observation; the exact `max` for the top of the distribution).
    /// `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        if target >= self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for &(bound, count) in &self.buckets {
            seen += count;
            if seen >= target {
                return Some(bound.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Mean observed value, `None` on an empty histogram.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// A timing guard from [`LatencyHistogram::span`]: measures from creation
/// to drop and records the elapsed microseconds. Inert (no clock read at
/// either end) while metrics are disabled.
#[derive(Debug)]
pub struct Span<'a> {
    histogram: &'a LatencyHistogram,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.histogram.record_duration(start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{set_enabled, set_enabled_for_test};

    #[test]
    fn bucket_index_and_bound_are_inverse_at_bucket_resolution() {
        for value in (0..64u32).map(|shift| 1u64 << shift).chain(0..2048) {
            let index = bucket_index(value);
            let bound = bucket_bound(index);
            assert!(bound <= value, "bound {bound} > value {value}");
            // The bucket's width is at most value / SUBS (12.5%).
            assert!(
                value - bound <= (value >> SUB_BITS),
                "value {value} bound {bound}"
            );
            assert_eq!(bucket_index(bound), index, "bound {bound} moved bucket");
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn counter_shards_sum_and_reset() {
        let _flag = set_enabled_for_test(true);
        let counter = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        counter.incr();
                    }
                });
            }
        });
        assert_eq!(counter.value(), 4000);
        counter.reset();
        assert_eq!(counter.value(), 0);
    }

    #[test]
    fn disabled_primitives_record_nothing() {
        let _flag = set_enabled_for_test(false);
        let counter = Counter::new();
        let gauge = Gauge::new();
        let histogram = LatencyHistogram::new();
        counter.add(5);
        gauge.add(5);
        gauge.set(9);
        histogram.record(5);
        drop(histogram.span());
        set_enabled(true);
        assert_eq!(counter.value(), 0);
        assert_eq!(gauge.value(), 0);
        assert_eq!(histogram.snapshot().count, 0);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let _flag = set_enabled_for_test(true);
        let histogram = LatencyHistogram::new();
        for value in 1..=1000u64 {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 1000);
        assert_eq!(snapshot.max, 1000);
        let p50 = snapshot.quantile(0.5).unwrap();
        assert!((440..=500).contains(&p50), "p50 {p50}");
        let p99 = snapshot.quantile(0.99).unwrap();
        assert!((900..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(snapshot.quantile(1.0), Some(1000));
        assert_eq!(snapshot.mean(), Some(500.5));
    }

    #[test]
    fn snapshot_merge_equals_single_histogram() {
        let _flag = set_enabled_for_test(true);
        let left = LatencyHistogram::new();
        let right = LatencyHistogram::new();
        let whole = LatencyHistogram::new();
        for value in 0..500u64 {
            left.record(value * 7);
            whole.record(value * 7);
        }
        for value in 0..500u64 {
            right.record(value * 13 + 1);
            whole.record(value * 13 + 1);
        }
        let mut ab = left.snapshot();
        ab.merge(&right.snapshot());
        let mut ba = right.snapshot();
        ba.merge(&left.snapshot());
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab, whole.snapshot(), "merge must equal the fused whole");
    }
}
