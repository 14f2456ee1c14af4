//! Server observability: request counters, the coalesced-batch-size
//! histogram, end-to-end latency percentiles and cache statistics —
//! everything the `/metrics` endpoint reports.
//!
//! Counters are lock-free atomics on the hot path; latencies go into a
//! fixed-size ring reservoir guarded by a mutex (one push per request, and
//! percentile computation sorts a copy off the hot path).

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Batch-size histogram bucket upper bounds (inclusive); the last bucket
/// is open-ended.
pub const BATCH_BUCKETS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, usize::MAX];

/// Capacity of the latency reservoir (most recent samples win).
const LATENCY_RESERVOIR: usize = 4096;

#[derive(Default)]
struct LatencyRing {
    samples_us: Vec<u64>,
    next: usize,
}

/// Per-model accumulators behind the [`Metrics`] per-model map.
#[derive(Default)]
struct ModelCounters {
    requests: u64,
    completed: u64,
    latency_total_us: u64,
    latency_max_us: u64,
}

/// Live per-shard counters, written by one dispatcher thread and read by
/// `/metrics` snapshots. The shard pool installs one per dispatcher via
/// [`Metrics::install_shards`].
#[derive(Default)]
pub struct ShardCounters {
    /// Batches this shard dispatched.
    pub batches: AtomicU64,
    /// Jobs this shard completed.
    pub jobs: AtomicU64,
}

/// A point-in-time copy of one shard's counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardStats {
    /// Batches this shard dispatched.
    pub batches: u64,
    /// Jobs this shard completed.
    pub jobs: u64,
}

/// Shared server metrics. All recording methods take `&self` and are safe
/// to call from any thread.
pub struct Metrics {
    started: Instant,
    requests_total: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_429: AtomicU64,
    responses_5xx: AtomicU64,
    batches_total: AtomicU64,
    batch_hist: [AtomicU64; 8],
    max_batch_observed: AtomicUsize,
    queue_depth: AtomicUsize,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    sheds_total: AtomicU64,
    connections: AtomicUsize,
    latencies: Mutex<LatencyRing>,
    per_model: Mutex<BTreeMap<String, ModelCounters>>,
    shards: Mutex<Arc<Vec<ShardCounters>>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_429: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            batches_total: AtomicU64::new(0),
            batch_hist: Default::default(),
            max_batch_observed: AtomicUsize::new(0),
            queue_depth: AtomicUsize::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            sheds_total: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
            latencies: Mutex::new(LatencyRing::default()),
            per_model: Mutex::new(BTreeMap::new()),
            shards: Mutex::new(Arc::new(Vec::new())),
        }
    }
}

/// Per-model request/latency statistics in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct ModelStats {
    /// Registry name of the model variant.
    pub name: String,
    /// Requests accepted into this model's queue.
    pub requests: u64,
    /// Responses fanned back out for this model.
    pub completed: u64,
    /// Mean end-to-end latency of completed requests, microseconds.
    pub mean_latency_us: f64,
    /// Worst completed-request latency, microseconds.
    pub max_latency_us: u64,
}

/// A point-in-time copy of every metric, with percentiles computed.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Seconds since these metrics (i.e. the server) were created.
    pub uptime_seconds: f64,
    /// Requests accepted into the inference path.
    pub requests_total: u64,
    /// Responses by class.
    pub responses_2xx: u64,
    /// 4xx responses other than 429.
    pub responses_4xx: u64,
    /// Backpressure rejections.
    pub responses_429: u64,
    /// Server-side failures.
    pub responses_5xx: u64,
    /// Number of coalesced batches dispatched.
    pub batches_total: u64,
    /// Histogram counts aligned with [`BATCH_BUCKETS`].
    pub batch_hist: [u64; 8],
    /// Largest batch ever dispatched.
    pub max_batch_observed: usize,
    /// Jobs currently parked in the dispatcher queue.
    pub queue_depth: usize,
    /// Input-hop cache hits (0 when the cache is disabled).
    pub cache_hits: u64,
    /// Input-hop cache misses (0 when the cache is disabled).
    pub cache_misses: u64,
    /// Requests shed because the queue was full (answered 429).
    pub sheds_total: u64,
    /// Always 0: dispatchers share one queue, so nothing is stolen.
    pub steals_total: u64,
    /// Always 0: batch sizes are never degraded under latency pressure.
    pub degraded_batches: u64,
    /// Live client connections on the event loop.
    pub connections: usize,
    /// Per-shard dispatcher statistics, in shard order.
    pub per_shard: Vec<ShardStats>,
    /// Latency samples currently in the reservoir.
    pub latency_samples: usize,
    /// Median end-to-end latency in microseconds (0 with no samples).
    pub p50_latency_us: u64,
    /// 99th-percentile end-to-end latency in microseconds.
    pub p99_latency_us: u64,
    /// Per-model request/latency statistics, sorted by model name.
    pub per_model: Vec<ModelStats>,
    /// Engine-level `photonn-trace` counters (SIMD kernel dispatches, FFT
    /// stage sweeps) at snapshot time. Empty unless `PHOTONN_TRACE` is
    /// enabled for the server process.
    pub engine_counters: Vec<(String, u64)>,
}

impl Metrics {
    /// Fresh all-zero metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Counts one request entering the inference path.
    pub fn record_request(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a response by status code.
    pub fn record_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_2xx,
            429 => &self.responses_429,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one dispatched batch of `size` jobs.
    pub fn record_batch(&self, size: usize) {
        self.batches_total.fetch_add(1, Ordering::Relaxed);
        let bucket = BATCH_BUCKETS
            .iter()
            .position(|&b| size <= b)
            .expect("last bucket is open-ended");
        self.batch_hist[bucket].fetch_add(1, Ordering::Relaxed);
        self.max_batch_observed.fetch_max(size, Ordering::Relaxed);
    }

    /// Records one request's end-to-end latency.
    pub fn record_latency_us(&self, us: u64) {
        let mut ring = self.latencies.lock().expect("metrics lock");
        if ring.samples_us.len() < LATENCY_RESERVOIR {
            ring.samples_us.push(us);
        } else {
            let at = ring.next;
            ring.samples_us[at] = us;
        }
        ring.next = (ring.next + 1) % LATENCY_RESERVOIR;
    }

    /// Updates the queue-depth gauge.
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Counts one input-hop cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one input-hop cache miss.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request shed because the queue was full.
    pub fn record_shed(&self) {
        self.sheds_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Updates the live-connections gauge.
    pub fn set_connections(&self, count: usize) {
        self.connections.store(count, Ordering::Relaxed);
    }

    /// Installs the per-shard counter block (called once by the shard
    /// pool; the previous block, if any, is replaced).
    pub fn install_shards(&self, shards: Arc<Vec<ShardCounters>>) {
        *self.shards.lock().expect("metrics lock") = shards;
    }

    /// Counts one request accepted for the named model.
    pub fn record_model_request(&self, model: &str) {
        let mut map = self.per_model.lock().expect("metrics lock");
        map.entry(model.to_string()).or_default().requests += 1;
    }

    /// Records one completed request's end-to-end latency for the named
    /// model (alongside the global reservoir in
    /// [`Metrics::record_latency_us`]).
    pub fn record_model_latency(&self, model: &str, us: u64) {
        let mut map = self.per_model.lock().expect("metrics lock");
        let entry = map.entry(model.to_string()).or_default();
        entry.completed += 1;
        entry.latency_total_us += us;
        entry.latency_max_us = entry.latency_max_us.max(us);
    }

    /// Copies every metric out and computes latency percentiles.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let (latency_samples, p50, p99) = {
            let ring = self.latencies.lock().expect("metrics lock");
            let mut sorted = ring.samples_us.clone();
            sorted.sort_unstable();
            let pick = |p: usize| {
                if sorted.is_empty() {
                    0
                } else {
                    sorted[(sorted.len() - 1) * p / 100]
                }
            };
            (sorted.len(), pick(50), pick(99))
        };
        let mut batch_hist = [0u64; 8];
        for (out, counter) in batch_hist.iter_mut().zip(&self.batch_hist) {
            *out = counter.load(Ordering::Relaxed);
        }
        let per_model = {
            let map = self.per_model.lock().expect("metrics lock");
            map.iter()
                .map(|(name, c)| ModelStats {
                    name: name.clone(),
                    requests: c.requests,
                    completed: c.completed,
                    mean_latency_us: if c.completed == 0 {
                        0.0
                    } else {
                        c.latency_total_us as f64 / c.completed as f64
                    },
                    max_latency_us: c.latency_max_us,
                })
                .collect()
        };
        let engine_counters = photonn_trace::counters_snapshot()
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect();
        let per_shard = {
            let shards = self.shards.lock().expect("metrics lock");
            shards
                .iter()
                .map(|s| ShardStats {
                    batches: s.batches.load(Ordering::Relaxed),
                    jobs: s.jobs.load(Ordering::Relaxed),
                })
                .collect()
        };
        MetricsSnapshot {
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            requests_total: self.requests_total.load(Ordering::Relaxed),
            responses_2xx: self.responses_2xx.load(Ordering::Relaxed),
            responses_4xx: self.responses_4xx.load(Ordering::Relaxed),
            responses_429: self.responses_429.load(Ordering::Relaxed),
            responses_5xx: self.responses_5xx.load(Ordering::Relaxed),
            batches_total: self.batches_total.load(Ordering::Relaxed),
            batch_hist,
            max_batch_observed: self.max_batch_observed.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            sheds_total: self.sheds_total.load(Ordering::Relaxed),
            steals_total: 0,
            degraded_batches: 0,
            connections: self.connections.load(Ordering::Relaxed),
            per_shard,
            latency_samples,
            p50_latency_us: p50,
            p99_latency_us: p99,
            per_model,
            engine_counters,
        }
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as the `/metrics` JSON document.
    pub fn to_json(&self) -> Json {
        let hist = BATCH_BUCKETS
            .iter()
            .zip(&self.batch_hist)
            .map(|(&le, &count)| {
                let le_json = if le == usize::MAX {
                    Json::Str("inf".into())
                } else {
                    Json::Num(le as f64)
                };
                Json::object(vec![
                    ("le".into(), le_json),
                    ("count".into(), Json::Num(count as f64)),
                ])
            })
            .collect();
        let models = self
            .per_model
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::object(vec![
                        ("requests".into(), Json::Num(m.requests as f64)),
                        ("completed".into(), Json::Num(m.completed as f64)),
                        ("mean_latency_us".into(), Json::Num(m.mean_latency_us)),
                        ("max_latency_us".into(), Json::Num(m.max_latency_us as f64)),
                    ]),
                )
            })
            .collect();
        let engine = self
            .engine_counters
            .iter()
            .map(|(name, value)| (name.clone(), Json::Num(*value as f64)))
            .collect();
        let shards = self
            .per_shard
            .iter()
            .map(|s| {
                Json::object(vec![
                    ("batches".into(), Json::Num(s.batches as f64)),
                    ("jobs".into(), Json::Num(s.jobs as f64)),
                ])
            })
            .collect();
        Json::object(vec![
            ("uptime_seconds".into(), Json::Num(self.uptime_seconds)),
            (
                "requests_total".into(),
                Json::Num(self.requests_total as f64),
            ),
            ("responses_2xx".into(), Json::Num(self.responses_2xx as f64)),
            ("responses_4xx".into(), Json::Num(self.responses_4xx as f64)),
            ("responses_429".into(), Json::Num(self.responses_429 as f64)),
            ("responses_5xx".into(), Json::Num(self.responses_5xx as f64)),
            ("queue_depth".into(), Json::Num(self.queue_depth as f64)),
            ("batches_total".into(), Json::Num(self.batches_total as f64)),
            (
                "max_batch_observed".into(),
                Json::Num(self.max_batch_observed as f64),
            ),
            ("batch_size_hist".into(), Json::Arr(hist)),
            ("cache_hits".into(), Json::Num(self.cache_hits as f64)),
            ("cache_misses".into(), Json::Num(self.cache_misses as f64)),
            (
                "latency_samples".into(),
                Json::Num(self.latency_samples as f64),
            ),
            (
                "p50_latency_us".into(),
                Json::Num(self.p50_latency_us as f64),
            ),
            (
                "p99_latency_us".into(),
                Json::Num(self.p99_latency_us as f64),
            ),
            ("sheds_total".into(), Json::Num(self.sheds_total as f64)),
            ("connections".into(), Json::Num(self.connections as f64)),
            ("shards".into(), Json::Arr(shards)),
            ("models".into(), Json::object(models)),
            ("engine".into(), Json::object(engine)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_histogram_buckets() {
        let m = Metrics::new();
        for size in [1, 2, 3, 4, 9, 100] {
            m.record_batch(size);
        }
        let s = m.snapshot();
        assert_eq!(s.batches_total, 6);
        assert_eq!(s.batch_hist[0], 1); // 1
        assert_eq!(s.batch_hist[1], 1); // 2
        assert_eq!(s.batch_hist[2], 2); // 3, 4 -> ≤4
        assert_eq!(s.batch_hist[4], 1); // 9 -> ≤16
        assert_eq!(s.batch_hist[7], 1); // 100 -> inf
        assert_eq!(s.max_batch_observed, 100);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let m = Metrics::new();
        for us in 1..=100u64 {
            m.record_latency_us(us);
        }
        let s = m.snapshot();
        assert_eq!(s.latency_samples, 100);
        assert_eq!(s.p50_latency_us, 50);
        assert_eq!(s.p99_latency_us, 99);
        // Empty reservoir is all-zero, not a panic.
        assert_eq!(Metrics::new().snapshot().p99_latency_us, 0);
    }

    #[test]
    fn reservoir_wraps_without_growing() {
        let m = Metrics::new();
        for us in 0..(LATENCY_RESERVOIR as u64 + 10) {
            m.record_latency_us(us);
        }
        assert_eq!(m.snapshot().latency_samples, LATENCY_RESERVOIR);
    }

    #[test]
    fn status_classes_routed() {
        let m = Metrics::new();
        for s in [200, 200, 400, 429, 500, 503] {
            m.record_status(s);
        }
        let s = m.snapshot();
        assert_eq!(s.responses_2xx, 2);
        assert_eq!(s.responses_4xx, 1);
        assert_eq!(s.responses_429, 1);
        assert_eq!(s.responses_5xx, 2);
    }

    #[test]
    fn per_model_counters_and_uptime() {
        let m = Metrics::new();
        m.record_model_request("mnist-16");
        m.record_model_request("mnist-16");
        m.record_model_request("fashion-16");
        m.record_model_latency("mnist-16", 100);
        m.record_model_latency("mnist-16", 300);
        let s = m.snapshot();
        assert!(s.uptime_seconds >= 0.0);
        assert_eq!(s.per_model.len(), 2);
        // BTreeMap ordering: "fashion-16" before "mnist-16".
        assert_eq!(s.per_model[0].name, "fashion-16");
        assert_eq!(s.per_model[0].requests, 1);
        assert_eq!(s.per_model[0].completed, 0);
        assert_eq!(s.per_model[0].mean_latency_us, 0.0);
        assert_eq!(s.per_model[1].name, "mnist-16");
        assert_eq!(s.per_model[1].requests, 2);
        assert_eq!(s.per_model[1].completed, 2);
        assert_eq!(s.per_model[1].mean_latency_us, 200.0);
        assert_eq!(s.per_model[1].max_latency_us, 300);
        let text = s.to_json().to_string();
        let parsed = Json::parse(&text).unwrap();
        assert!(parsed
            .get("uptime_seconds")
            .and_then(Json::as_f64)
            .is_some());
        let models = parsed.get("models").unwrap();
        assert_eq!(
            models
                .get("mnist-16")
                .and_then(|m| m.get("requests"))
                .and_then(Json::as_usize),
            Some(2)
        );
        // The engine object is always present (possibly empty).
        assert!(parsed.get("engine").is_some());
    }

    #[test]
    fn shard_and_admission_counters_surface_in_json() {
        let m = Metrics::new();
        let shards = Arc::new(vec![ShardCounters::default(), ShardCounters::default()]);
        shards[1].batches.fetch_add(3, Ordering::Relaxed);
        shards[1].jobs.fetch_add(5, Ordering::Relaxed);
        m.install_shards(Arc::clone(&shards));
        m.record_shed();
        m.record_shed();
        m.set_connections(17);
        let s = m.snapshot();
        assert_eq!(s.sheds_total, 2);
        assert_eq!((s.steals_total, s.degraded_batches), (0, 0));
        assert_eq!(s.connections, 17);
        let per_shard: Vec<(u64, u64)> = s.per_shard.iter().map(|d| (d.batches, d.jobs)).collect();
        assert_eq!(per_shard, [(0, 0), (3, 5)]);
        let parsed = Json::parse(&s.to_json().to_string()).unwrap();
        assert_eq!(parsed.get("sheds_total").and_then(Json::as_usize), Some(2));
        assert_eq!(parsed.get("connections").and_then(Json::as_usize), Some(17));
        assert!(parsed.get("steals_total").is_none());
        assert!(parsed.get("degraded_batches").is_none());
        let shards_json = parsed.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(shards_json.len(), 2);
        assert_eq!(
            shards_json[1].get("batches").and_then(Json::as_usize),
            Some(3)
        );
        assert_eq!(shards_json[1].get("jobs").and_then(Json::as_usize), Some(5));
        assert!(shards_json[1].get("steals").is_none());
        assert!(shards_json[1].get("queue_depth").is_none());
    }

    #[test]
    fn snapshot_serializes() {
        let m = Metrics::new();
        m.record_request();
        m.record_batch(3);
        m.record_latency_us(250);
        m.set_queue_depth(7);
        let text = m.snapshot().to_json().to_string();
        let parsed = crate::json::Json::parse(&text).unwrap();
        assert_eq!(parsed.get("queue_depth").and_then(Json::as_usize), Some(7));
        assert_eq!(
            parsed
                .get("batch_size_hist")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(8)
        );
    }
}
