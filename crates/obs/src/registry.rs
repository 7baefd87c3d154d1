//! The process-wide metric [`Registry`], the global enable switch, and the
//! mergeable [`MetricsSnapshot`] that crosses process boundaries and renders
//! the Prometheus-style text exposition.

use crate::metrics::{Counter, Gauge, HistogramSnapshot, LatencyHistogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Tri-state enable flag: 0 = not yet resolved from the environment,
/// 1 = disabled, 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether metrics are being recorded. The first call resolves
/// `SPARQLOG_METRICS` (`0`, `off` or `false` disable; anything else —
/// including unset — enables); after that it is a single relaxed atomic
/// load, so a disabled process pays nothing measurable per metric call.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => resolve_from_env(),
        state => state == 2,
    }
}

#[cold]
fn resolve_from_env() -> bool {
    let on = crate::env::switch(crate::env::METRICS);
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Overrides the enable flag in-process, taking precedence over the
/// environment. Used by tests and the benchmark's overhead passes to compare
/// enabled and disabled runs inside one process; spawned worker processes
/// still resolve from their inherited environment.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Sets the process-global flag for one unit test and holds it: the tests
/// of this crate run on parallel threads, and one of them turns the flag off.
#[cfg(test)]
pub(crate) fn set_enabled_for_test(on: bool) -> std::sync::MutexGuard<'static, ()> {
    static FLAG: Mutex<()> = Mutex::new(());
    let guard = FLAG.lock().unwrap_or_else(|error| error.into_inner());
    set_enabled(on);
    guard
}

/// The process-wide registry behind [`global`]: named counters, gauges and
/// histograms, plus every snapshot absorbed from worker processes.
/// Handles are `&'static` (leaked on first registration) so hot paths
/// hoist them once and never touch the registry lock again.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static LatencyHistogram>>,
    absorbed: Mutex<MetricsSnapshot>,
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    /// A fresh, empty registry (tests; production code uses [`global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, registered on first use. The handle is
    /// `&'static` — hoist it out of loops.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut counters = self.counters.lock().expect("obs registry lock");
        if let Some(counter) = counters.get(name) {
            return counter;
        }
        let counter: &'static Counter = Box::leak(Box::new(Counter::new()));
        counters.insert(name.to_string(), counter);
        counter
    }

    /// The gauge named `name`, registered on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut gauges = self.gauges.lock().expect("obs registry lock");
        if let Some(gauge) = gauges.get(name) {
            return gauge;
        }
        let gauge: &'static Gauge = Box::leak(Box::new(Gauge::new()));
        gauges.insert(name.to_string(), gauge);
        gauge
    }

    /// The latency histogram named `name`, registered on first use.
    pub fn histogram(&self, name: &str) -> &'static LatencyHistogram {
        let mut histograms = self.histograms.lock().expect("obs registry lock");
        if let Some(histogram) = histograms.get(name) {
            return histogram;
        }
        let histogram: &'static LatencyHistogram = Box::leak(Box::new(LatencyHistogram::new()));
        histograms.insert(name.to_string(), histogram);
        histogram
    }

    /// Folds a snapshot from another process (a shard worker's epilogue
    /// frame) into this registry. Absorbed values live beside the live
    /// metrics and appear merged in [`Registry::snapshot`]; absorption is
    /// commutative, so worker completion order never changes the result.
    pub fn absorb(&self, snapshot: &MetricsSnapshot) {
        self.absorbed
            .lock()
            .expect("obs registry lock")
            .merge(snapshot);
    }

    /// A point-in-time snapshot: every live metric with a non-zero value,
    /// merged with everything absorbed from worker processes. Sorted by
    /// name, so equal registries snapshot to equal bytes.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::default();
        for (name, counter) in self.counters.lock().expect("obs registry lock").iter() {
            let value = counter.value();
            if value > 0 {
                snapshot.counters.push((name.clone(), value));
            }
        }
        for (name, gauge) in self.gauges.lock().expect("obs registry lock").iter() {
            let value = gauge.value();
            if value != 0 {
                snapshot.gauges.push((name.clone(), value));
            }
        }
        for (name, histogram) in self.histograms.lock().expect("obs registry lock").iter() {
            let contents = histogram.snapshot();
            if contents.count > 0 {
                snapshot.histograms.push((name.clone(), contents));
            }
        }
        let absorbed = self.absorbed.lock().expect("obs registry lock");
        snapshot.merge(&absorbed);
        snapshot
    }

    /// Zeroes every live metric and drops everything absorbed (tests and
    /// benchmark repeats). Handles stay valid.
    pub fn reset(&self) {
        for counter in self.counters.lock().expect("obs registry lock").values() {
            counter.reset();
        }
        for gauge in self.gauges.lock().expect("obs registry lock").values() {
            gauge.reset();
        }
        for histogram in self.histograms.lock().expect("obs registry lock").values() {
            histogram.reset();
        }
        *self.absorbed.lock().expect("obs registry lock") = MetricsSnapshot::default();
    }
}

/// A mergeable point-in-time copy of a registry: `(name, value)` pairs
/// sorted by name. Snapshots ride worker epilogue frames across the
/// process boundary, answer the service's `Metrics` request, and render
/// the text exposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals, ascending by name, zero values omitted.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, ascending by name, zero values omitted.
    pub gauges: Vec<(String, i64)>,
    /// Histogram contents, ascending by name, empty histograms omitted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Merges two sorted-by-name vectors, combining same-name values.
fn merge_sorted<T: Clone>(
    target: &mut Vec<(String, T)>,
    other: &[(String, T)],
    combine: impl Fn(&mut T, &T),
) {
    let mut merged = Vec::with_capacity(target.len() + other.len());
    let mut ours = std::mem::take(target).into_iter().peekable();
    let mut theirs = other.iter().peekable();
    loop {
        let take_ours = match (ours.peek(), theirs.peek()) {
            (Some((a, _)), Some((b, _))) => {
                if a == b {
                    let (name, mut value) = ours.next().expect("peeked");
                    let (_, addend) = theirs.next().expect("peeked");
                    combine(&mut value, addend);
                    merged.push((name, value));
                    continue;
                }
                a < b
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_ours {
            merged.push(ours.next().expect("peeked"));
        } else {
            merged.push(theirs.next().expect("peeked").clone());
        }
    }
    *target = merged;
}

impl MetricsSnapshot {
    /// Folds `other` into `self`: counters and gauges add, histograms
    /// merge bucket-wise. Commutative and associative.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        merge_sorted(&mut self.counters, &other.counters, |a, b| *a += *b);
        merge_sorted(&mut self.gauges, &other.gauges, |a, b| *a += *b);
        merge_sorted(&mut self.histograms, &other.histograms, |a, b| a.merge(b));
    }

    /// The counter named `name`, if it recorded anything.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|index| self.counters[index].1)
    }

    /// The gauge named `name`, if non-zero.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|index| self.gauges[index].1)
    }

    /// The histogram named `name`, if it recorded anything.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|index| &self.histograms[index].1)
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Prometheus-style text exposition: every metric prefixed
    /// `sparqlog_`, counters as `counter`, gauges as `gauge`, histograms
    /// as `summary` quantile series (p50/p90/p99) plus `_sum`, `_count`
    /// and `_max`.
    ///
    /// ```text
    /// # TYPE sparqlog_pipeline_entries_total counter
    /// sparqlog_pipeline_entries_total 100000
    /// # TYPE sparqlog_pipeline_parse_us summary
    /// sparqlog_pipeline_parse_us{quantile="0.5"} 1792
    /// sparqlog_pipeline_parse_us_sum 231731
    /// sparqlog_pipeline_parse_us_count 128
    /// sparqlog_pipeline_parse_us_max 3411
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# TYPE sparqlog_{name} counter");
            let _ = writeln!(out, "sparqlog_{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "# TYPE sparqlog_{name} gauge");
            let _ = writeln!(out, "sparqlog_{name} {value}");
        }
        for (name, histogram) in &self.histograms {
            let _ = writeln!(out, "# TYPE sparqlog_{name} summary");
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                if let Some(value) = histogram.quantile(q) {
                    let _ = writeln!(out, "sparqlog_{name}{{quantile=\"{label}\"}} {value}");
                }
            }
            let _ = writeln!(out, "sparqlog_{name}_sum {}", histogram.sum);
            let _ = writeln!(out, "sparqlog_{name}_count {}", histogram.count);
            let _ = writeln!(out, "sparqlog_{name}_max {}", histogram.max);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_hands_out_stable_handles_and_snapshots_sorted() {
        let _flag = set_enabled_for_test(true);
        let registry = Registry::new();
        let a = registry.counter("zeta");
        let b = registry.counter("alpha");
        assert!(std::ptr::eq(registry.counter("zeta"), a));
        a.add(2);
        b.add(1);
        registry.gauge("open").set(3);
        registry.histogram("lat_us").record(10);
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counters,
            vec![("alpha".to_string(), 1), ("zeta".to_string(), 2)]
        );
        assert_eq!(snapshot.gauge("open"), Some(3));
        assert_eq!(snapshot.histogram("lat_us").unwrap().count, 1);
        registry.reset();
        assert!(registry.snapshot().is_empty());
        assert_eq!(a.value(), 0, "handles survive reset");
    }

    #[test]
    fn absorbed_snapshots_merge_into_the_registry_view() {
        let _flag = set_enabled_for_test(true);
        let registry = Registry::new();
        registry.counter("pipeline_entries_total").add(10);
        let mut worker = MetricsSnapshot::default();
        worker
            .counters
            .push(("pipeline_entries_total".to_string(), 32));
        worker.counters.push(("worker_only_total".to_string(), 5));
        registry.absorb(&worker);
        registry.absorb(&worker);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("pipeline_entries_total"), Some(74));
        assert_eq!(snapshot.counter("worker_only_total"), Some(10));
    }

    #[test]
    fn snapshot_merge_is_commutative() {
        let mut left = MetricsSnapshot {
            counters: vec![("a".to_string(), 1), ("c".to_string(), 3)],
            gauges: vec![("g".to_string(), -2)],
            histograms: vec![(
                "h".to_string(),
                HistogramSnapshot {
                    count: 1,
                    sum: 5,
                    max: 5,
                    buckets: vec![(5, 1)],
                },
            )],
        };
        let right = MetricsSnapshot {
            counters: vec![("b".to_string(), 2), ("c".to_string(), 4)],
            gauges: vec![("g".to_string(), 7)],
            histograms: vec![(
                "h".to_string(),
                HistogramSnapshot {
                    count: 2,
                    sum: 20,
                    max: 12,
                    buckets: vec![(8, 2)],
                },
            )],
        };
        let mut mirrored = right.clone();
        mirrored.merge(&left.clone());
        left.merge(&right);
        assert_eq!(left, mirrored);
        assert_eq!(left.counter("c"), Some(7));
        assert_eq!(left.gauge("g"), Some(5));
        assert_eq!(left.histogram("h").unwrap().count, 3);
    }

    #[test]
    fn text_exposition_is_prometheus_shaped() {
        let _flag = set_enabled_for_test(true);
        let registry = Registry::new();
        registry.counter("serve_jobs_total").add(2);
        registry.histogram("serve_recovery_us").record(100);
        let text = registry.snapshot().render_text();
        assert!(text.contains("# TYPE sparqlog_serve_jobs_total counter"));
        assert!(text.contains("sparqlog_serve_jobs_total 2"));
        assert!(text.contains("# TYPE sparqlog_serve_recovery_us summary"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("sparqlog_serve_recovery_us_count 1"));
    }
}
