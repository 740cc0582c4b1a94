//! Lightweight metrics for the experiment harness.
//!
//! [`Counter`]s count discrete outcomes (commits, aborts by cause, messages,
//! resubmissions); [`SampleStats`] accumulates a full sample set and reports
//! mean/min/max and exact quantiles. Experiments are short enough (tens of
//! thousands of samples) that storing raw samples is cheaper and more
//! faithful than a streaming sketch.

use std::collections::BTreeMap;
use std::fmt;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increase by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increase by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A sample set with exact quantiles.
#[derive(Debug, Clone, Default)]
pub struct SampleStats {
    samples: Vec<f64>,
}

impl SampleStats {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// The observations, in recording order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// Exact q-quantile (nearest-rank), `0.0 <= q <= 1.0`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Median (p50).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// A named bundle of counters and sample sets.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, Counter>,
    stats: BTreeMap<String, SampleStats>,
}

impl Metrics {
    /// An empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment the named counter.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Add `n` to the named counter. The name is copied only the first
    /// time: counters are bumped per message, and almost every bump finds
    /// its counter.
    pub fn add(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => c.add(n),
            None => {
                self.counters.insert(name.to_owned(), Counter(n));
            }
        }
    }

    /// Current value of the named counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |c| c.get())
    }

    /// Record an observation into the named sample set (the name is copied
    /// only for the first one).
    pub fn observe(&mut self, name: &str, x: f64) {
        match self.stats.get_mut(name) {
            Some(s) => s.record(x),
            None => {
                self.stats
                    .insert(name.to_owned(), SampleStats { samples: vec![x] });
            }
        }
    }

    /// The named sample set, if any observation has been recorded.
    pub fn stats(&self, name: &str) -> Option<&SampleStats> {
        self.stats.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), v.get()))
    }

    /// Iterate sample sets in name order.
    pub fn sample_sets(&self) -> impl Iterator<Item = (&str, &SampleStats)> {
        self.stats.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merge another bundle into this one (counters add, samples append).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            self.counters.entry(k.clone()).or_default().add(v.get());
        }
        for (k, v) in &other.stats {
            let dst = self.stats.entry(k.clone()).or_default();
            for s in &v.samples {
                dst.record(*s);
            }
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in self.counters() {
            writeln!(f, "{name:40} {v}")?;
        }
        for (name, s) in self.sample_sets() {
            writeln!(
                f,
                "{name:40} n={} mean={:.3} p50={:.3} p99={:.3} max={:.3}",
                s.count(),
                s.mean().unwrap_or(f64::NAN),
                s.p50().unwrap_or(f64::NAN),
                s.p99().unwrap_or(f64::NAN),
                s.max().unwrap_or(f64::NAN),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn stats_empty_is_none() {
        let s = SampleStats::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.p50(), None);
    }

    #[test]
    fn stats_mean_min_max() {
        let mut s = SampleStats::new();
        for x in [3.0, 1.0, 2.0] {
            s.record(x);
        }
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut s = SampleStats::new();
        for x in 1..=100 {
            s.record(x as f64);
        }
        assert_eq!(s.p50(), Some(50.0));
        assert_eq!(s.p99(), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
    }

    #[test]
    fn metrics_bundle() {
        let mut m = Metrics::new();
        m.inc("commits");
        m.add("commits", 2);
        m.observe("latency", 1.0);
        m.observe("latency", 3.0);
        assert_eq!(m.counter("commits"), 3);
        assert_eq!(m.counter("aborts"), 0);
        assert_eq!(m.stats("latency").unwrap().mean(), Some(2.0));
    }

    #[test]
    fn metrics_merge() {
        let mut a = Metrics::new();
        a.inc("x");
        a.observe("s", 1.0);
        let mut b = Metrics::new();
        b.add("x", 4);
        b.observe("s", 3.0);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.stats("s").unwrap().count(), 2);
    }

    #[test]
    fn display_does_not_panic() {
        let mut m = Metrics::new();
        m.inc("c");
        m.observe("s", 2.0);
        let out = m.to_string();
        assert!(out.contains('c') && out.contains('s'));
    }
}
