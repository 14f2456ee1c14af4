//! `serve_g32`: a grid-32 server with the settings `photonn serve` takes
//! by default on a 2-core host, pinned explicitly — 2 shards, 2 FFT
//! threads per batch, `max_batch` 16, 2 ms linger, queue 256, a 64 MiB
//! first-hop cache — serving `ideal` and `deployed` (crosstalk 0.1)
//! variants of one seeded model.
//!
//! Traffic comes from one generator thread on two keep-alive, pipelined
//! connections: 80% `/v1/logits` single images to `ideal`, 20% `/v2/logits`
//! 4-input batches to `deployed` under the differential head
//! (arXiv:1906.03417). A quarter of the images come from a 16-image hot
//! set; the rest are new to the server. Each round is an open-loop window
//! at a fixed 1000 req/s, then a closed-loop window with 16 in flight (8
//! per connection); rounds repeat for the budget.
//!
//! The event loop, HTTP/JSON decode, shard dispatch, the first-hop cache
//! and per-hop thread dispatch on ≤16-sample batches do most of the work
//! here and none elsewhere. The defaults oversubscribe two cores, which
//! is what users get.

use std::sync::Arc;
use std::time::{Duration, Instant};

use photonn_datasets::{Dataset, Family};
use photonn_donn::deploy::FabricationModel;
use photonn_donn::{Donn, DonnConfig};
use photonn_math::{Grid, Rng};
use photonn_serve::http::{parse_available, ParseOutcome, MAX_BODY_BYTES};
use photonn_serve::{
    BatchPolicy, MetricsSnapshot, ModelRegistry, ReadoutHead, ServedModel, ServerBuilder,
    ServerHandle,
};
use photonn_wire::Json;

use crate::loadgen::{Generator, Mode, PhaseResult};
use crate::procfs::{quiet_median, StealMeter};
use crate::report::Report;
use crate::spans::{self, Spans};
use crate::stats::{median, Summary};
use crate::{repeat_setup, Args};

const GRID: usize = 32;
/// Setups per run; `setup_s` is their median. A set-up takes under 0.1 s,
/// so many are cheap and steady the median.
const SETUPS: usize = 15;
const HOT_IMAGES: usize = 16;
/// Distinct base images the new ("cold") images are derived from.
const BASE_IMAGES: usize = 256;
const OPEN_RATE: f64 = 1000.0;
const CLOSED_DEPTH: usize = 8;
const WARMUP: Duration = Duration::from_millis(500);
/// Fewest rounds per run, whatever the budget.
const MIN_ROUNDS: usize = 3;
/// Every this many requests one reply is kept and checked bit for bit.
const SAMPLE_EVERY: u64 = 32;
/// Pixel values are multiples of 1/100, so request bodies are short and
/// every value's text parses back to exactly `level / 100`.
const LEVELS: usize = 101;

fn sampled(id: u64) -> bool {
    id.is_multiple_of(SAMPLE_EVERY)
}

/// An image as pixel levels (value = level / 100).
type Levels = Arc<[u8]>;

fn quantize(image: &Grid) -> Levels {
    image
        .as_slice()
        .iter()
        .map(|v| (v.clamp(0.0, 1.0) * 100.0).round() as u8)
        .collect()
}

fn to_grid(levels: &[u8]) -> Grid {
    let values: Vec<f64> = levels.iter().map(|&l| f64::from(l) / 100.0).collect();
    Grid::from_vec(GRID, GRID, values)
}

/// One request as generated, kept for the sampled ones.
#[derive(Clone, Debug)]
struct Planned {
    v1: bool,
    images: Vec<Levels>,
}

/// The seeded traffic mix.
struct Traffic {
    rng: Rng,
    hot: Vec<Levels>,
    base: Vec<Levels>,
    next_cold: usize,
    level_text: Vec<String>,
    planned: Vec<(u64, Planned)>,
}

impl Traffic {
    fn new(seed: u64) -> Traffic {
        let data = Dataset::synthetic(Family::Mnist, HOT_IMAGES + BASE_IMAGES, seed).resized(GRID);
        let all: Vec<Levels> = (0..data.len()).map(|i| quantize(data.image(i))).collect();
        Traffic {
            rng: Rng::seed_from(seed ^ 0x7e57),
            hot: all[..HOT_IMAGES].to_vec(),
            base: all[HOT_IMAGES..].to_vec(),
            next_cold: 0,
            level_text: (0..LEVELS)
                .map(|l| format!("{}", l as f64 / 100.0))
                .collect(),
            planned: Vec::new(),
        }
    }

    /// A hot image a quarter of the time; otherwise one the server has
    /// never seen: a base image with its first three pixels set to the
    /// digits of a counter, unique for a billion images.
    fn image(&mut self) -> Levels {
        if self.rng.uniform() < 0.25 {
            return Arc::clone(&self.hot[self.rng.below(HOT_IMAGES)]);
        }
        let j = self.next_cold;
        self.next_cold += 1;
        let mut px = self.base[j % BASE_IMAGES].to_vec();
        let code = j / BASE_IMAGES;
        for (d, p) in px.iter_mut().take(3).enumerate() {
            *p = ((code / 100usize.pow(d as u32)) % 100) as u8;
        }
        px.into()
    }

    fn push_image(&self, out: &mut Vec<u8>, image: &[u8]) {
        out.push(b'[');
        for (i, &l) in image.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(self.level_text[usize::from(l)].as_bytes());
        }
        out.push(b']');
    }

    fn body(&self, plan: &Planned) -> Vec<u8> {
        let mut body = Vec::with_capacity(4 * 1024 * plan.images.len());
        if plan.v1 {
            body.extend_from_slice(b"{\"model\":\"ideal\",\"image\":");
            self.push_image(&mut body, &plan.images[0]);
        } else {
            body.extend_from_slice(
                b"{\"model\":\"deployed\",\"head\":\"differential\",\"inputs\":[",
            );
            for (i, image) in plan.images.iter().enumerate() {
                if i > 0 {
                    body.push(b',');
                }
                self.push_image(&mut body, image);
            }
            body.push(b']');
        }
        body.push(b'}');
        body
    }

    /// Renders request `id` (ids must arrive in order: the mix is one
    /// seeded stream).
    fn request(&mut self, id: u64) -> Vec<u8> {
        let v1 = self.rng.uniform() < 0.8;
        let images = (0..if v1 { 1 } else { 4 }).map(|_| self.image()).collect();
        let plan = Planned { v1, images };
        let bytes = http_request(plan.v1, &self.body(&plan));
        if sampled(id) {
            self.planned.push((id, plan));
        }
        bytes
    }
}

fn http_request(v1: bool, body: &[u8]) -> Vec<u8> {
    let path = if v1 { "/v1/logits" } else { "/v2/logits" };
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Everything built before the first timed request.
struct Session {
    server: ServerHandle,
    ideal: Arc<ServedModel>,
    deployed: Arc<ServedModel>,
    traffic: Traffic,
    synth_s: f64,
}

impl Session {
    fn open(seed: u64) -> Session {
        let t = Instant::now();
        let traffic = Traffic::new(seed);
        let synth_s = t.elapsed().as_secs_f64();
        let donn = Donn::random(DonnConfig::scaled(GRID), &mut Rng::seed_from(seed));
        let mut registry = ModelRegistry::new();
        registry.register("ideal", donn.clone());
        registry.register_deployed("deployed", &donn, FabricationModel::new(0.1));
        let ideal = Arc::clone(registry.get("ideal").expect("registered"));
        let deployed = Arc::clone(registry.get("deployed").expect("registered"));
        let server = ServerBuilder::new(registry)
            .policy(BatchPolicy {
                max_batch: 16,
                max_wait_us: 2_000,
                queue_capacity: 256,
                threads: 2,
            })
            .shards(2)
            .cache_budget_bytes(64 << 20)
            .bind("127.0.0.1:0")
            .expect("bind the server on loopback");
        Session {
            server,
            ideal,
            deployed,
            traffic,
            synth_s,
        }
    }
}

fn numbers(doc: Option<&Json>) -> Option<Vec<f64>> {
    doc?.as_array()?.iter().map(Json::as_f64).collect()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks a sampled reply against the engine called directly.
fn verify(session: &Session, plan: &Planned, body: &[u8]) -> bool {
    let Some(doc) = std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
    else {
        return false;
    };
    let grids: Vec<Grid> = plan.images.iter().map(|l| to_grid(l)).collect();
    let refs: Vec<&Grid> = grids.iter().collect();
    if plan.v1 {
        let want = session.ideal.logits_batch(&refs, 1).remove(0);
        return numbers(doc.get("logits")).is_some_and(|got| same_bits(&got, &want));
    }
    let intensity = session.deployed.intensity_batch(&refs, 1);
    let regions = session.deployed.regions();
    let Some(results) = doc.get("results").and_then(Json::as_array) else {
        return false;
    };
    results.len() == grids.len()
        && results.iter().zip(intensity.samples()).all(|(r, sample)| {
            let want = ReadoutHead::Differential.readout(sample, intensity.cols(), regions);
            numbers(r.get("logits")).is_some_and(|got| same_bits(&got, &want))
        })
}

/// Server counters summed over the closed-loop windows.
#[derive(Debug, Default)]
struct Deltas {
    batches: u64,
    jobs: u64,
    steals: u64,
    hits: u64,
    lookups: u64,
    sheds: u64,
    degraded: u64,
}

impl Deltas {
    fn add(&mut self, a: &MetricsSnapshot, b: &MetricsSnapshot) {
        let jobs = |m: &MetricsSnapshot| m.per_shard.iter().map(|s| s.jobs).sum::<u64>();
        self.batches += b.batches_total - a.batches_total;
        self.jobs += jobs(b) - jobs(a);
        self.steals += b.steals_total - a.steals_total;
        self.hits += b.cache_hits - a.cache_hits;
        self.lookups += b.cache_hits + b.cache_misses - a.cache_hits - a.cache_misses;
        self.sheds += b.sheds_total - a.sheds_total;
        self.degraded += b.degraded_batches - a.degraded_batches;
    }

    fn report(&self, report: &mut Report) {
        report.metric("serve.batches", self.batches as f64);
        let mean_batch = self.jobs as f64 / self.batches.max(1) as f64;
        report.metric("serve.mean_batch", mean_batch);
        report.metric("serve.steals", self.steals as f64);
        let hit_pct = self.hits as f64 / self.lookups.max(1) as f64 * 100.0;
        report.metric("serve.cache_hit_pct", hit_pct);
        report.metric("serve.sheds", self.sheds as f64);
        report.metric("serve.degraded_batches", self.degraded as f64);
    }
}

/// Per-round figures, each reduced by [`quiet_median`] over the windows.
#[derive(Debug, Default)]
struct Rounds {
    open_p50_ms: Vec<f64>,
    open_steal_pct: Vec<f64>,
    closed_rps: Vec<f64>,
    closed_p99_ms: Vec<f64>,
    closed_steal_pct: Vec<f64>,
    server_p50_ms: Vec<f64>,
    server_p99_ms: Vec<f64>,
    open_latencies_ms: Vec<f64>,
    closed_latencies_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    backlog_max: usize,
    deltas: Deltas,
}

/// A latency percentile of one window; infinite when the server refused
/// every request in it, so that window ranks slowest instead of leaving
/// nothing to rank.
fn window_latency(window: &PhaseResult, pick: fn(&Summary) -> f64) -> f64 {
    if window.latencies_ms.is_empty() {
        f64::INFINITY
    } else {
        pick(&Summary::of(&window.latencies_ms))
    }
}

/// Open- and closed-loop window lengths. Untraced runs alternate short
/// windows: host steal comes in bursts of a second or so, and short
/// windows let the quiet ones be picked out. A traced run's windows each
/// fill the server's 4096-sample latency reservoir (a request carries 1.6
/// images on average), so a snapshot after a window describes that window
/// alone.
fn windows(trace: bool) -> (Duration, Duration) {
    if trace {
        (Duration::from_millis(2600), Duration::from_millis(1600))
    } else {
        (Duration::from_millis(1000), Duration::from_millis(500))
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let mut synth = Vec::new();
    let (setup_s, mut session) = repeat_setup(SETUPS, || {
        let s = Session::open(args.seed);
        synth.push(s.synth_s);
        s
    });
    let synth_s = median(&synth);
    let mut generator = Generator::connect(session.server.addr()).expect("connect to the server");
    let mut phases = Vec::new();
    let closed = Mode::Closed {
        depth: CLOSED_DEPTH,
    };
    let traffic = &mut session.traffic;
    phases.push(generator.run(closed, WARMUP, |id| traffic.request(id), sampled));

    let mut rounds = Rounds::default();
    let start = Instant::now();
    let (open_window, closed_window) = windows(args.trace);
    let round = open_window + closed_window;
    while rounds.open_p50_ms.len() < MIN_ROUNDS || start.elapsed() + round <= args.budget() {
        let meter = StealMeter::start();
        let traffic = &mut session.traffic;
        let open = generator.run(
            Mode::Open { rate: OPEN_RATE },
            open_window,
            |id| traffic.request(id),
            sampled,
        );
        rounds.open_steal_pct.push(meter.pct());
        let after_open = session.server.metrics();
        let meter = StealMeter::start();
        let traffic = &mut session.traffic;
        let closed = generator.run(closed, closed_window, |id| traffic.request(id), sampled);
        rounds.closed_steal_pct.push(meter.pct());
        let after_closed = session.server.metrics();

        rounds.open_p50_ms.push(window_latency(&open, |s| s.p50));
        rounds
            .closed_rps
            .push(closed.completed_in_window as f64 / closed.window_s);
        rounds
            .closed_p99_ms
            .push(window_latency(&closed, |s| s.p99));
        rounds
            .server_p50_ms
            .push(after_open.p50_latency_us as f64 / 1e3);
        rounds
            .server_p99_ms
            .push(after_closed.p99_latency_us as f64 / 1e3);
        rounds.deltas.add(&after_open, &after_closed);
        rounds
            .open_latencies_ms
            .extend_from_slice(&open.latencies_ms);
        rounds
            .closed_latencies_ms
            .extend_from_slice(&closed.latencies_ms);
        rounds.lateness_ms.extend_from_slice(&open.lateness_ms);
        rounds.backlog_max = rounds.backlog_max.max(open.backlog);
        phases.push(open);
        phases.push(closed);
    }
    drop(generator);
    let (refused, lost) = phases
        .iter()
        .fold((0, 0), |(r, l), p| (r + p.refused, l + p.lost));
    report.ops(phases.iter().map(|p| p.sent).sum(), refused + lost);
    report.detail_num("refused", refused as f64);
    report.detail_num("lost", lost as f64);

    // Bit-identity of a sample of replies against direct engine calls.
    let planned = std::mem::take(&mut session.traffic.planned);
    let mut checked = 0;
    for (id, body) in phases.iter().flat_map(|p| &p.sampled) {
        let Ok(at) = planned.binary_search_by_key(id, |(pid, _)| *pid) else {
            report.check(false, format!("reply {id} has no recorded request"));
            continue;
        };
        checked += 1;
        report.check(
            verify(&session, &planned[at].1, body),
            format!("reply {id} differs from a direct engine call"),
        );
    }
    report.check(checked > 0, "at least one reply checked");

    let open_lat = Summary::of(&rounds.open_latencies_ms);
    let closed_lat = Summary::of(&rounds.closed_latencies_ms);
    let late = Summary::of(&rounds.lateness_ms);
    report.detail_num("rounds", rounds.open_p50_ms.len() as f64);
    report.detail_range("open.steal_pct", &rounds.open_steal_pct);
    report.detail_range("closed.steal_pct", &rounds.closed_steal_pct);
    report.detail_num("checked_replies", f64::from(checked));
    report.detail_summary("open", &open_lat);
    report.detail_num("open.backlog_max", rounds.backlog_max as f64);
    report.detail_summary("open.gen_late", &late);
    report.detail_range("open.round_p50_ms", &rounds.open_p50_ms);
    report.detail_summary("closed", &closed_lat);
    report.detail_range("closed.round_rps", &rounds.closed_rps);

    if !args.trace {
        report.metric("setup_s", setup_s);
        report.metric(
            "throughput_per_s",
            quiet_median(&rounds.closed_rps, &rounds.closed_steal_pct),
        );
        report.metric(
            "latency_ms",
            quiet_median(&rounds.open_p50_ms, &rounds.open_steal_pct),
        );
        session.server.shutdown();
        return;
    }

    rounds.deltas.report(report);
    report.metric(
        "serve.server_p50_ms",
        quiet_median(&rounds.server_p50_ms, &rounds.open_steal_pct),
    );
    report.metric(
        "serve.server_p99_ms",
        quiet_median(&rounds.server_p99_ms, &rounds.closed_steal_pct),
    );
    report.metric(
        "serve.client_p99_ms",
        quiet_median(&rounds.closed_p99_ms, &rounds.closed_steal_pct),
    );
    report.metric("serve.gen_late_ms", late.max);
    report.metric("serve.open_p99_ms", open_lat.p99);
    report.metric("serve.open_backlog", rounds.backlog_max as f64);
    report.metric("datasets.synth_s", synth_s);
    session.server.shutdown();

    let phases_s = start.elapsed().as_secs_f64() + WARMUP.as_secs_f64();
    let wall = Instant::now();
    let mut spans = Spans::default();
    layer_costs(&mut session, &mut spans, report);
    let overhead = spans::overhead_pct(spans.records(), phases_s + wall.elapsed().as_secs_f64());
    report.metric("trace.overhead_pct", overhead);
}

/// Single-call costs of the layers a request crosses, timed from here on
/// the idle host after the traffic phases.
fn layer_costs(session: &mut Session, spans: &mut Spans, report: &mut Report) {
    let traffic = &mut session.traffic;
    let images: Vec<Grid> = (0..16).map(|_| to_grid(&traffic.image())).collect();
    let refs: Vec<&Grid> = images.iter().collect();
    let model = &session.ideal;
    for (reps, batch, span, metric) in [
        (200, 1, "serve.engine_b1", "serve.engine_b1_ms"),
        (50, 16, "serve.engine_b16", "serve.engine_b16_ms"),
    ] {
        for _ in 0..reps {
            spans.time(span, || {
                std::hint::black_box(model.logits_batch(&refs[..batch], 2))
            });
        }
        report.metric(metric, median(spans.samples(span)));
    }

    let v1 = Planned {
        v1: true,
        images: vec![traffic.image()],
    };
    let v2 = Planned {
        v1: false,
        images: (0..4).map(|_| traffic.image()).collect(),
    };
    let v1_body = String::from_utf8(traffic.body(&v1)).expect("ASCII body");
    let v2_body = String::from_utf8(traffic.body(&v2)).expect("ASCII body");
    let v1_request = http_request(true, v1_body.as_bytes());
    for _ in 0..500 {
        let ok = spans.time("serve.http_parse", || {
            matches!(
                parse_available(std::hint::black_box(&v1_request), MAX_BODY_BYTES),
                Ok(ParseOutcome::Ready { .. })
            )
        });
        if !ok {
            report.check(false, "http::parse_available rejects a generated request");
            break;
        }
        spans.time("wire.json_v1", || {
            Json::parse(std::hint::black_box(&v1_body)).is_ok()
        });
        spans.time("wire.json_v2", || {
            Json::parse(std::hint::black_box(&v2_body)).is_ok()
        });
    }
    for (span, metric) in [
        ("serve.http_parse", "serve.http_parse_us"),
        ("wire.json_v1", "wire.json_v1_us"),
        ("wire.json_v2", "wire.json_v2_us"),
    ] {
        report.metric(metric, median(spans.samples(span)) * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_text_parses_back_to_the_checked_value() {
        let t = Traffic::new(1);
        for (l, text) in t.level_text.iter().enumerate() {
            assert_eq!(text.parse::<f64>().unwrap(), l as f64 / 100.0);
        }
    }

    #[test]
    fn cold_images_are_distinct_and_hot_ones_repeat() {
        let mut t = Traffic::new(2);
        let mut seen = std::collections::HashSet::new();
        let (mut hot, mut cold) = (0, 0);
        for _ in 0..4000 {
            let img = t.image();
            if t.hot.contains(&img) {
                hot += 1;
            } else {
                cold += 1;
                assert!(seen.insert(img), "a new image repeated");
            }
        }
        assert!((800..1200).contains(&hot), "hot share off: {hot}");
        assert_eq!(hot + cold, 4000);
    }

    #[test]
    fn requests_are_well_formed_and_deterministic_per_seed() {
        let mut a = Traffic::new(3);
        let mut b = Traffic::new(3);
        for id in 0..64 {
            let ra = a.request(id);
            assert_eq!(ra, b.request(id));
            let text = String::from_utf8(ra).unwrap();
            let (head, body) = text.split_once("\r\n\r\n").unwrap();
            assert!(head.contains(&format!("Content-Length: {}", body.len())));
            let doc = Json::parse(body).unwrap();
            assert!(doc.get("image").is_some() || doc.get("inputs").is_some());
        }
        assert_eq!(a.planned.len(), 2, "ids 0 and 32 are sampled");
    }
}
