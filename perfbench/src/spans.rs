//! Spans recorded from the benchmark's own files around calls into the
//! photonn crates (the traced run). Nothing here reaches inside a crate:
//! a span is the wall time of one public call as its caller sees it.

use std::collections::BTreeMap;
use std::time::Instant;

/// Durations per span name, in milliseconds.
#[derive(Debug, Default)]
pub struct Spans {
    samples: BTreeMap<&'static str, Vec<f64>>,
    records: u64,
}

impl Spans {
    /// Records the time since `start` under `name`.
    pub fn record(&mut self, name: &'static str, start: Instant) {
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.samples.entry(name).or_default().push(ms);
        self.records += 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start);
        out
    }

    /// Every duration recorded under `name` (empty if none).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Summed duration under `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.samples(name).iter().sum()
    }

    /// Mean duration under `name`, in ms (0 when never recorded).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let s = self.samples(name);
        if s.is_empty() {
            0.0
        } else {
            self.total_ms(name) / s.len() as f64
        }
    }

    /// Spans recorded so far.
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// `trace.overhead_pct`: `records` spans times the measured cost of
/// recording one, as a percentage of `wall_s` traced seconds.
pub fn overhead_pct(records: u64, wall_s: f64) -> f64 {
    const N: u32 = 20_000;
    let mut scratch = Spans::default();
    let start = Instant::now();
    for _ in 0..N {
        scratch.record("calibrate", Instant::now());
    }
    let cost_s = start.elapsed().as_secs_f64() / f64::from(N);
    records as f64 * cost_s / wall_s * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_per_name() {
        let mut s = Spans::default();
        let v = s.time("a", || 7);
        assert_eq!(v, 7);
        s.time("a", || ());
        s.time("b", || ());
        assert_eq!(s.samples("a").len(), 2);
        assert_eq!(s.samples("missing").len(), 0);
        assert_eq!(s.mean_ms("missing"), 0.0);
        assert_eq!(s.records(), 3);
        assert!(s.total_ms("a") >= 0.0);
        assert!(overhead_pct(1000, 1.0) > 0.0);
    }
}
