//! Deterministic metrics: counters, gauges and log2-bucketed
//! histograms in a name-sorted registry with a stable JSON rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A histogram with power-of-two buckets: bucket 0 holds the value 0,
/// bucket `i > 0` holds values in `[2^(i-1), 2^i)`. Cheap to record
/// into (one `leading_zeros`), exact to merge, and wide enough for any
/// cycle count.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    counts: [u64; 65],
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            counts: [0; 65],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty histogram, usable in `const`/`static` position.
    pub const fn empty() -> Self {
        Log2Histogram {
            counts: [0; 65],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The lowest value a bucket index covers.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Non-empty buckets as `(bucket lower bound, count)`, in
    /// ascending value order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), c))
    }

    /// The quantile `q` (in `[0, 1]`) of the recorded distribution,
    /// resolved to bucket granularity: the lower bound of the bucket
    /// holding the q-th ranked value, clamped to the observed
    /// `[min, max]` range (so a single-valued histogram reports that
    /// exact value at every quantile). Returns 0 when empty. Purely a
    /// function of the recorded values — deterministic across runs.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_lo(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub(crate) fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"type\": \"hist\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
            self.count(),
            self.sum(),
            self.min(),
            self.max()
        );
        for (i, (lo, c)) in self.buckets().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{lo}, {c}]");
        }
        out.push_str("]}");
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// A monotonically accumulated count.
    Counter(u64),
    /// A point-in-time value (always derived from deterministic
    /// inputs; merging keeps the last writer).
    Gauge(f64),
    /// A value distribution (boxed: a histogram is ~550 bytes and most
    /// registry entries are counters).
    Hist(Box<Log2Histogram>),
}

/// A name-sorted metrics registry.
///
/// Names are dot-separated paths (`lock.Runqlk.spin_cycles`); the
/// `BTreeMap` spine makes every iteration — and so [`Metrics::to_json`]
/// — deterministic.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    map: BTreeMap<String, MetricValue>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `name` (creating it at 0).
    pub fn add(&mut self, name: &str, n: u64) {
        match self
            .map
            .entry(name.to_string())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(c) => *c += n,
            other => *other = MetricValue::Counter(n),
        }
    }

    /// Sets the gauge `name`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.map.insert(name.to_string(), MetricValue::Gauge(v));
    }

    /// Records `v` into the histogram `name` (creating it empty).
    pub fn record_hist(&mut self, name: &str, v: u64) {
        match self
            .map
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Hist(Box::default()))
        {
            MetricValue::Hist(h) => h.record(v),
            other => {
                let mut h = Log2Histogram::new();
                h.record(v);
                *other = MetricValue::Hist(Box::new(h));
            }
        }
    }

    /// Stores a whole histogram under `name` (merging into an existing
    /// one).
    pub fn insert_hist(&mut self, name: &str, hist: &Log2Histogram) {
        match self
            .map
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Hist(Box::default()))
        {
            MetricValue::Hist(h) => h.merge(hist),
            other => *other = MetricValue::Hist(Box::new(hist.clone())),
        }
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.map.get(name)
    }

    /// The counter `name`, or 0.
    pub fn counter(&self, name: &str) -> u64 {
        match self.map.get(name) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds `other` into this registry with every name prefixed:
    /// counters add, histograms merge, gauges keep the incoming value.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &Metrics) {
        for (name, v) in &other.map {
            let key = format!("{prefix}{name}");
            match v {
                MetricValue::Counter(n) => self.add(&key, *n),
                MetricValue::Gauge(g) => self.set_gauge(&key, *g),
                MetricValue::Hist(h) => self.insert_hist(&key, h),
            }
        }
    }

    /// Renders the registry as one flat, key-sorted JSON object —
    /// stable byte-for-byte for identical contents. Every histogram
    /// additionally contributes flat `NAME.p50`/`NAME.p90`/`NAME.p99`
    /// quantile keys (gauges, 0 when the histogram is empty), sorted in
    /// with everything else.
    pub fn to_json(&self) -> String {
        let mut rendered: BTreeMap<&str, String> = BTreeMap::new();
        let mut quantiles: BTreeMap<String, String> = BTreeMap::new();
        for (name, v) in &self.map {
            let mut s = String::new();
            match v {
                MetricValue::Counter(c) => {
                    let _ = write!(s, "{{\"type\": \"counter\", \"value\": {c}}}");
                }
                MetricValue::Gauge(g) => {
                    let _ = write!(s, "{{\"type\": \"gauge\", \"value\": {}}}", json_num(*g));
                }
                MetricValue::Hist(h) => {
                    h.write_json(&mut s);
                    for (q, label) in [(0.50, "p50"), (0.90, "p90"), (0.99, "p99")] {
                        quantiles.insert(
                            format!("{name}.{label}"),
                            format!("{{\"type\": \"gauge\", \"value\": {}}}", h.quantile(q)),
                        );
                    }
                }
            }
            rendered.insert(name, s);
        }
        for (name, s) in &quantiles {
            // A real metric with the same name wins over the synthesized
            // quantile key; collisions don't occur with oscar's naming.
            rendered.entry(name).or_insert_with(|| s.clone());
        }
        let mut out = String::with_capacity(64 * rendered.len() + 8);
        out.push_str("{\n");
        for (i, (name, s)) in rendered.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(out, "  {}: {s}", json_str(name));
        }
        out.push_str("\n}\n");
        out
    }
}

/// JSON string escaping: quotes, backslashes and control characters
/// (`\n`, `\t`, `\r` by name, the rest as `\u00XX`).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite-number JSON rendering (NaN/inf degrade to 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_handles_special_chars() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
    }

    #[test]
    fn log2_buckets_cover_powers_of_two() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1 << 20] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1 << 20);
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        // 0 | [1,2) | [2,4) x2 | [4,8) x2 | [8,16) | [2^19,2^20)... wait:
        // 2^20 lands in bucket lo=2^20.
        assert_eq!(
            buckets,
            vec![(0, 1), (1, 1), (2, 2), (4, 2), (8, 1), (1 << 20, 1)]
        );
    }

    #[test]
    fn log2_merge_adds_everything() {
        let mut a = Log2Histogram::new();
        a.record(5);
        let mut b = Log2Histogram::new();
        b.record(100);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 105);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 100);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Log2Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn quantiles_walk_buckets_and_clamp() {
        let mut h = Log2Histogram::new();
        for v in [3, 3, 3, 3, 100] {
            h.record(v);
        }
        // Ranks 1-4 land in the [2,4) bucket; min-clamping reports 3.
        assert_eq!(h.quantile(0.50), 3);
        assert_eq!(h.quantile(0.80), 3);
        // Rank 5 lands in the [64,128) bucket, reported by lower bound.
        assert_eq!(h.quantile(0.99), 64);

        let mut single = Log2Histogram::new();
        single.record(42);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(single.quantile(q), 42);
        }

        assert_eq!(Log2Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn json_emits_flat_quantile_keys_for_hists() {
        let mut m = Metrics::new();
        m.record_hist("m.hist", 7);
        m.record_hist("m.hist", 9);
        let j = m.to_json();
        assert!(j.contains("\"m.hist.p50\": {\"type\": \"gauge\", \"value\": 7}"));
        assert!(j.contains("\"m.hist.p90\": {\"type\": \"gauge\", \"value\": 8}"));
        assert!(j.contains("\"m.hist.p99\": {\"type\": \"gauge\", \"value\": 8}"));
        let base = j.find("\"m.hist\"").unwrap();
        let p50 = j.find("\"m.hist.p50\"").unwrap();
        assert!(base < p50, "quantile keys sort with everything else");

        let mut e = Metrics::new();
        e.insert_hist("empty", &Log2Histogram::new());
        let ej = e.to_json();
        assert!(ej.contains("\"empty.p50\": {\"type\": \"gauge\", \"value\": 0}"));
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let mut m = Metrics::new();
        m.add("b.two", 2);
        m.add("a.one", 1);
        m.add("b.two", 3);
        assert_eq!(m.counter("b.two"), 5);
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.one", "b.two"]);
    }

    #[test]
    fn merge_prefixed_combines_kinds() {
        let mut src = Metrics::new();
        src.add("c", 7);
        src.set_gauge("g", 1.5);
        src.record_hist("h", 9);
        let mut dst = Metrics::new();
        dst.add("pmake.c", 1);
        dst.merge_prefixed("pmake.", &src);
        assert_eq!(dst.counter("pmake.c"), 8);
        assert!(matches!(
            dst.get("pmake.g"),
            Some(MetricValue::Gauge(v)) if *v == 1.5
        ));
        assert!(matches!(
            dst.get("pmake.h"),
            Some(MetricValue::Hist(h)) if h.count() == 1
        ));
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let mut m = Metrics::new();
        m.add("z.last", 1);
        m.add("a.first", 2);
        m.set_gauge("m.rate", 2.5);
        m.record_hist("m.hist", 3);
        let j = m.to_json();
        let a = j.find("\"a.first\"").unwrap();
        let mm = j.find("\"m.hist\"").unwrap();
        let z = j.find("\"z.last\"").unwrap();
        assert!(a < mm && mm < z, "keys must be sorted");
        assert_eq!(j, m.to_json(), "rendering must be stable");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"buckets\": [[2, 1]]"));
    }
}
