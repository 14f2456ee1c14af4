//! `train_g200`: grid-200 training steps (batch 50, a fixed 200-sample
//! set), run twice from the same seeded model and batch order:
//!
//! * in process — `batched_gradients` + `Adam::step`, 2 FFT threads;
//! * rank 0 plus one peer over loopback — `TcpPool::connect` and
//!   `elastic_step`, 1 FFT thread each; the peer runs in this process
//!   through `serve_peer_once`.
//!
//! FFT column passes over planes larger than the caches dominate both
//! phases; only the TCP phase adds the JSON wire, so the pair separates
//! compute from transport on identical inputs. An equal 25/25 split is a
//! complete subtree of the tape's reduction tree, so the dist determinism
//! contract makes the two phases' masks bit-identical.

use std::io;
use std::net::TcpListener;
use std::thread::JoinHandle;
use std::time::Instant;

use photonn_autodiff::{Adam, MaskGrads, Tape};
use photonn_datasets::{BatchIter, Dataset, Family};
use photonn_dist::proto::{decode, encode, encode_steps, Message};
use photonn_dist::{all_reduce, serve_peer_once, shard_batch, FaultConfig, TcpPool};
use photonn_donn::train::{batched_gradients, shard_gradients};
use photonn_donn::{Donn, DonnConfig};
use photonn_math::{Grid, Rng};

use crate::procfs::{quiet_median, StealMeter};
use crate::report::Report;
use crate::spans::{self, Spans};
use crate::stats::median;
use crate::{repeat_setup, Args};

const GRID: usize = 200;
const SAMPLES: usize = 200;
const BATCH: usize = 50;
const LEARNING_RATE: f64 = 0.05;
const IN_PROCESS_THREADS: usize = 2;
const TCP_THREADS: usize = 1;
/// Rank 0 plus one peer; losing the peer fails the step rather than
/// silently re-splitting onto rank 0 alone.
const WORKERS: usize = 2;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of the budget given to the in-process window; a TCP step costs
/// about as much as an in-process one, and both phases run the same steps.
const IN_PROCESS_SHARE: f64 = 0.45;
/// Fewest timed steps per phase, whatever the budget.
const MIN_TIMED_STEPS: usize = 6;
/// Repetitions of each single-call measurement in the traced run.
const REPS: usize = 5;

/// Everything built before the first timed step.
struct Session {
    data: Dataset,
    donn: Donn,
    pool: Option<TcpPool>,
    peer: Option<JoinHandle<io::Result<()>>>,
    synth_s: f64,
    connect_s: f64,
}

impl Session {
    fn open(seed: u64) -> Session {
        let t = Instant::now();
        let data = Dataset::synthetic(Family::Mnist, SAMPLES, seed).resized(GRID);
        let synth_s = t.elapsed().as_secs_f64();
        let donn = Donn::random(DonnConfig::paper(), &mut Rng::seed_from(seed));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address").to_string();
        let peer = std::thread::spawn(move || serve_peer_once(&listener, TCP_THREADS));
        let t = Instant::now();
        let pool = TcpPool::connect(&[addr], donn.config(), &data, None, FaultConfig::default())
            .expect("connect to the loopback peer");
        Session {
            data,
            donn,
            pool: Some(pool),
            peer: Some(peer),
            synth_s,
            connect_s: t.elapsed().as_secs_f64(),
        }
    }

    fn pool(&mut self) -> &mut TcpPool {
        self.pool.as_mut().expect("pool open until drop")
    }

    /// Ends the peer session and joins the peer thread; `false` if the
    /// peer ended with an error.
    fn close(&mut self) -> bool {
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
        match self.peer.take().map(JoinHandle::join) {
            None | Some(Ok(Ok(()))) => true,
            Some(Ok(Err(e))) => {
                eprintln!("perfbench: peer ended with {e}");
                false
            }
            Some(Err(_)) => false,
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.close();
    }
}

/// The seeded batch order, continued across epochs.
struct Order {
    iter: BatchIter,
    queue: std::vec::IntoIter<Vec<usize>>,
}

impl Order {
    fn new(seed: u64) -> Order {
        Order {
            iter: BatchIter::new(SAMPLES, BATCH, seed),
            queue: Vec::new().into_iter(),
        }
    }

    fn next_batch(&mut self) -> Vec<usize> {
        loop {
            if let Some(b) = self.queue.next() {
                return b;
            }
            self.queue = self.iter.epoch().collect::<Vec<_>>().into_iter();
        }
    }
}

/// One phase's outcome: final masks, and each timed step's wall time
/// with the host steal measured over it.
struct Phase {
    masks: Vec<Grid>,
    step_s: Vec<f64>,
    steal_pct: Vec<f64>,
    failed: u64,
}

impl Phase {
    fn steps(&self) -> usize {
        self.step_s.len()
    }

    fn window_s(&self) -> f64 {
        self.step_s.iter().sum()
    }

    /// Steps per second over the whole timed window.
    fn window_rate(&self) -> f64 {
        self.steps() as f64 / self.window_s()
    }

    /// Seconds of a typical timed step, by [`quiet_median`].
    fn step_s(&self) -> f64 {
        quiet_median(&self.step_s, &self.steal_pct)
    }
}

/// Runs one untimed warm-up step, then timed steps: until `window_s` has
/// passed (and at least [`MIN_TIMED_STEPS`]) when `total` is `None`, or
/// exactly up to `total` steps overall.
fn phase(
    seed: u64,
    start: &Donn,
    window_s: f64,
    total: Option<usize>,
    mut step: impl FnMut(&mut Donn, &mut Adam, &[usize]) -> bool,
) -> Phase {
    let mut donn = start.clone();
    let mut adam = Adam::new(LEARNING_RATE);
    let mut order = Order::new(seed);
    let mut failed = u64::from(!step(&mut donn, &mut adam, &order.next_batch()));
    let (mut step_s, mut steal_pct) = (Vec::new(), Vec::new());
    loop {
        let steps = step_s.len();
        let done = match total {
            Some(n) => steps + 1 >= n,
            None => steps >= MIN_TIMED_STEPS && step_s.iter().sum::<f64>() >= window_s,
        };
        if done {
            break;
        }
        let batch = order.next_batch();
        let meter = StealMeter::start();
        let t = Instant::now();
        failed += u64::from(!step(&mut donn, &mut adam, &batch));
        step_s.push(t.elapsed().as_secs_f64());
        steal_pct.push(meter.pct());
    }
    Phase {
        masks: donn.masks().to_vec(),
        step_s,
        steal_pct,
        failed,
    }
}

fn batch_refs<'a>(data: &'a Dataset, batch: &[usize]) -> (Vec<&'a Grid>, Vec<usize>) {
    (
        batch.iter().map(|&i| data.image(i)).collect(),
        batch.iter().map(|&i| data.label(i)).collect(),
    )
}

pub fn run(args: &Args, report: &mut Report) {
    let (mut synth, mut connect) = (Vec::new(), Vec::new());
    let (setup_s, mut session) = repeat_setup(SETUPS, || {
        let s = Session::open(args.seed);
        synth.push(s.synth_s);
        connect.push(s.connect_s);
        s
    });
    let in_window = args.seconds * IN_PROCESS_SHARE;
    let mut spans = Spans::default();
    let traced = args.trace;
    let data = session.data.clone();
    let start = session.donn.clone();

    let local = phase(args.seed, &start, in_window, None, |donn, adam, batch| {
        let grads = if traced {
            traced_gradients(donn, &data, batch, &mut spans)
        } else {
            batched_gradients(donn, &data, batch, None, IN_PROCESS_THREADS).0
        };
        let t = Instant::now();
        adam.step(donn.masks_mut(), &grads);
        if traced {
            spans.record("autodiff.g200.adam", t);
        }
        true
    });
    let pool = session.pool();
    let total = local.steps() + 1;
    let mut tcp_spans = Spans::default();
    let remote = phase(args.seed, &start, 0.0, Some(total), |donn, adam, batch| {
        let result = if traced {
            traced_dist_step(pool, donn, &data, batch, &mut tcp_spans)
        } else {
            pool.elastic_step(donn, &data, batch, None, TCP_THREADS, WORKERS)
                .map(|(grads, _)| grads)
                .map_err(|e| io::Error::other(e.to_string()))
        };
        match result {
            Ok(grads) => {
                let t = Instant::now();
                adam.step(donn.masks_mut(), &grads);
                if traced {
                    tcp_spans.record("dist.adam", t);
                }
                true
            }
            Err(e) => {
                eprintln!("perfbench: TCP step failed: {e}");
                false
            }
        }
    });
    report.ops(2 * total as u64, local.failed + remote.failed);
    report.check(
        remote.failed == 0 && remote.masks == local.masks,
        format!("TCP masks differ from in-process masks after {total} steps"),
    );
    report.detail_num("steps_per_phase", total as f64);
    report.detail_num("train_window_s", local.window_s());
    report.detail_num("dist_window_s", remote.window_s());
    report.detail_num("train_window_steps_per_s", local.window_rate());
    report.detail_num("dist_window_steps_per_s", remote.window_rate());
    report.detail_range("train_step_steal_pct", &local.steal_pct);
    report.detail_range("dist_step_steal_pct", &remote.steal_pct);

    if !traced {
        report.check(session.close(), "loopback peer ended cleanly");
        report.metric("setup_s", setup_s);
        report.metric("throughput_per_s", 1.0 / local.step_s());
        report.metric("latency_ms", remote.step_s() * 1e3);
        return;
    }

    // Per-step decomposition of each phase's window. The first sample of
    // every span is the untimed warm-up step, outside the window.
    let local_parts = [
        "autodiff.g200.forward",
        "autodiff.g200.backward",
        "autodiff.g200.adam",
    ];
    let local_step: f64 = local_parts.iter().map(|n| timed_mean(&spans, n)).sum();
    let local_cover = local_step / (1e3 / local.window_rate());
    report.check(
        (0.9..=1.05).contains(&local_cover),
        format!("forward+backward+Adam cover {local_cover:.4} of an in-process step"),
    );
    let dist_parts = [
        "dist.send",
        "dist.local_shard",
        "dist.collect",
        "dist.allreduce",
        "dist.adam",
    ];
    let dist_step: f64 = dist_parts.iter().map(|n| timed_mean(&tcp_spans, n)).sum();
    let dist_cover = dist_step / (1e3 / remote.window_rate());
    report.check(
        (0.9..=1.05).contains(&dist_cover),
        format!("send+local+collect+all-reduce+Adam cover {dist_cover:.4} of a TCP step"),
    );
    report.detail_num("train_step_coverage", local_cover);
    report.detail_num("dist_step_coverage", dist_cover);

    for (span, metric) in local_parts.iter().zip([
        "autodiff.g200.forward_ms",
        "autodiff.g200.backward_ms",
        "autodiff.g200.adam_ms",
    ]) {
        report.metric(metric, timed_mean(&spans, span));
    }
    let wire = wire_costs(&session, &start, report);
    for (span, metric) in dist_parts.iter().zip([
        "dist.send_ms",
        "dist.local_shard_ms",
        "dist.collect_ms",
        "dist.allreduce_ms",
    ]) {
        report.metric(metric, timed_mean(&tcp_spans, span));
    }
    report.metric(
        "dist.peer_wait_ms",
        timed_mean(&tcp_spans, "dist.collect") - wire.grads_decode_ms,
    );
    report.metric("fft.g200.hop_ms", hop_cost(&session, &start));
    report.metric("fft.g200.hop_gflop", hop_gflop(GRID, BATCH));
    report.metric("fft.g200.hop_mb", hop_mb(GRID, BATCH));
    report.metric("datasets.synth_s", median(&synth));
    report.metric("dist.connect_s", median(&connect));
    let records = spans.records() + tcp_spans.records();
    let overhead = spans::overhead_pct(records, local.window_s() + remote.window_s());
    report.metric("trace.overhead_pct", overhead);
    report.check(session.close(), "loopback peer ended cleanly");
}

/// Mean of a per-step span over the timed steps (all but the first,
/// warm-up, sample).
fn timed_mean(spans: &Spans, name: &str) -> f64 {
    let s = spans.samples(name);
    if s.len() < 2 {
        return 0.0;
    }
    s[1..].iter().sum::<f64>() / (s.len() - 1) as f64
}

/// `batched_gradients` restated with forward and backward in their own
/// spans; same calls, same bits.
fn traced_gradients(donn: &Donn, data: &Dataset, batch: &[usize], spans: &mut Spans) -> Vec<Grid> {
    let start = Instant::now();
    let (images, labels) = batch_refs(data, batch);
    let mut tape = Tape::new();
    let (loss, mask_vars) =
        donn.build_batch_loss(&mut tape, &images, &labels, None, IN_PROCESS_THREADS);
    std::hint::black_box(tape.scalar(loss));
    spans.record("autodiff.g200.forward", start);
    let start = Instant::now();
    let g = tape.backward(loss);
    let grads = mask_vars
        .iter()
        .map(|v| {
            g.real(*v)
                .cloned()
                .unwrap_or_else(|| Grid::zeros(GRID, GRID))
        })
        .collect();
    drop((g, tape));
    spans.record("autodiff.g200.backward", start);
    grads
}

/// One `elastic_step` restated through the pool's public send / collect
/// calls with a span around each (no peer fails here, so the recovery
/// ladder `elastic_step` wraps around them never runs).
fn traced_dist_step(
    pool: &mut TcpPool,
    donn: &Donn,
    data: &Dataset,
    batch: &[usize],
    spans: &mut Spans,
) -> io::Result<Vec<Grid>> {
    let shards = shard_batch(batch, WORKERS);
    let denom = batch.len();
    spans.time("dist.send", || {
        pool.send_steps(donn.masks(), &shards[1..], denom)
    })?;
    let local = spans.time("dist.local_shard", || {
        shard_gradients(donn, data, shards[0], None, TCP_THREADS, denom)
    });
    let remote = spans.time("dist.collect", || pool.collect_grads(shards.len() - 1))?;
    let mut parts = vec![local];
    parts.extend(remote);
    let (grads, _) = spans.time("dist.allreduce", || all_reduce(parts, donn.masks(), None));
    Ok(grads)
}

/// Frame sizes and codec times of the three dist messages, measured on
/// this session's data with the protocol's public encode/decode.
struct Wire {
    grads_decode_ms: f64,
}

fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        walls.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&walls), last.expect("REPS > 0"))
}

fn wire_costs(session: &Session, start: &Donn, report: &mut Report) -> Wire {
    let data = &session.data;
    let init = encode(&Message::Init {
        config: *start.config(),
        images: (0..data.len()).map(|i| data.image(i).clone()).collect(),
        labels: data.labels().to_vec(),
        freeze: None,
        heartbeat_ms: FaultConfig::default().heartbeat_ms,
    });
    report.metric("wire.init_mb", init.len() as f64 / 1e6);
    drop(init);

    let batch: Vec<usize> = (0..BATCH).collect();
    let shards = shard_batch(&batch, WORKERS);
    let (encode_ms, step) = timed(|| encode_steps(start.masks(), &shards[1..], BATCH).remove(0));
    let (decode_ms, decoded) = timed(|| decode(&step, Some(GRID)));
    report.check(decoded.is_ok(), "step frame decodes");
    report.metric("wire.step_mb", step.len() as f64 / 1e6);
    report.metric("wire.step_encode_ms", encode_ms);
    report.metric("wire.step_decode_ms", decode_ms);

    let mg: MaskGrads = shard_gradients(start, data, shards[1], None, TCP_THREADS, BATCH);
    let msg = Message::Grads(mg);
    let (encode_ms, grads) = timed(|| encode(&msg));
    let (decode_ms, decoded) = timed(|| decode(&grads, Some(GRID)));
    report.check(
        decoded.as_ref().ok() == Some(&msg),
        "grads frame round-trips bit-exactly",
    );
    report.metric("wire.grads_mb", grads.len() as f64 / 1e6);
    report.metric("wire.grads_encode_ms", encode_ms);
    report.metric("wire.grads_decode_ms", decode_ms);
    Wire {
        grads_decode_ms: decode_ms,
    }
}

/// Median time of the mask-independent first hop over one batch.
fn hop_cost(session: &Session, start: &Donn) -> f64 {
    let images: Vec<&Grid> = (0..BATCH).map(|i| session.data.image(i)).collect();
    timed(|| start.first_hop_batch(&images, IN_PROCESS_THREADS)).0
}

/// Computed FLOPs of one batched hop: a forward and an inverse 2-D FFT
/// (5·N·log2 N each, N = n²) and the complex kernel product (6 per pixel).
fn hop_gflop(n: usize, batch: usize) -> f64 {
    let pixels = (n * n) as f64;
    batch as f64 * (2.0 * 5.0 * pixels * pixels.log2() + 6.0 * pixels) / 1e9
}

/// Computed bytes one batched hop moves, from plane sizes: each of the
/// four 1-D passes reads and writes the split re/im field, the kernel
/// product reads field and kernel and writes the field, and encoding
/// writes it once: 12 field-sized transfers per sample.
fn hop_mb(n: usize, batch: usize) -> f64 {
    let field_bytes = (2 * n * n * std::mem::size_of::<f64>()) as f64;
    batch as f64 * 12.0 * field_bytes / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_order_continues_across_epochs() {
        let mut order = Order::new(3);
        let mut seen = vec![0usize; SAMPLES];
        for _ in 0..(2 * SAMPLES / BATCH) {
            for i in order.next_batch() {
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 2),
            "two epochs see every sample twice"
        );
    }

    #[test]
    fn hop_work_is_computed_from_the_grid() {
        let g = hop_gflop(200, 50);
        assert!((g - 0.3178).abs() < 1e-3, "{g}");
        assert!((hop_mb(200, 50) - 384.0).abs() < 1e-9);
    }
}
