//! Serving throughput: dynamic micro-batching vs the batch=1 baseline,
//! plus an open-loop saturation run against the event-loop frontend.
//!
//! Closed loop: starts the real TCP server under three batch policies —
//! `max_batch = 1` (every request dispatched alone), demand-driven
//! dynamic batching (`max_wait_us = 0`: coalesce whatever queued while
//! the previous batch ran), and dynamic batching with a 2 ms linger —
//! and hammers each with concurrent keep-alive clients. Batching wins
//! even on one core: the batched engine's per-sample cost drops ~40 % by
//! batch 8 (shared FFT scratch, hot kernels), so the same hardware
//! answers more traffic at lower p50.
//!
//! Open loop: a poller-driven load generator launches one-shot
//! (`Connection: close`) requests on a **fixed arrival schedule** — 25 %
//! past the measured closed-loop throughput, independent of completions —
//! across `--open-loop` connections (default 10 000), which is what a
//! saturated frontend actually faces: arrivals do not politely wait for
//! answers. The server runs several dispatcher threads over one shared,
//! bounded queue, and the bench records completions, sheds (429) and
//! client-observed latency.
//!
//! Writes `BENCH_serving.json` so successive PRs can track the serving
//! trajectory. `--check-open-loop` turns the open-loop stage into a CI
//! gate: the process exits nonzero if any connection ends in a transport
//! error (sheds are fine — they are the queue bound working) or no
//! connection completes at all.
//!
//! ```sh
//! cargo run --release -p photonn-bench --bin bench_serving
//! cargo run --release -p photonn-bench --bin bench_serving -- --clients 8 --requests 50
//! cargo run --release -p photonn-bench --bin bench_serving -- --grid 32 --open-loop 1000
//! ```

use photonn_datasets::{Dataset, Family};
use photonn_donn::{Donn, DonnConfig};
use photonn_math::{simd, Rng};
use photonn_serve::poll::{raise_nofile_limit, Interest, Poller};
use photonn_serve::{client, BatchPolicy, Json, ModelRegistry, ServerBuilder};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

struct Options {
    grids: Vec<usize>,
    clients: usize,
    requests: usize,
    threads: usize,
    open_loop: usize,
    check_open_loop: bool,
    out: String,
}

/// A silently mis-parsed flag would write a `BENCH_serving.json` labeled
/// with the wrong configuration into the perf trajectory — abort instead.
fn usage_error(message: String) -> ! {
    eprintln!("bench_serving: {message}");
    eprintln!(
        "usage: bench_serving [--grid N]... [--clients C] [--requests R] [--threads T] [--open-loop CONNS] [--check-open-loop] [--out FILE]"
    );
    std::process::exit(2);
}

fn parsed<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let value = value.unwrap_or_else(|| usage_error(format!("{flag} requires a value")));
    value
        .parse()
        .unwrap_or_else(|_| usage_error(format!("cannot parse {flag} value '{value}'")))
}

fn parse_options() -> Options {
    let mut opts = Options {
        grids: Vec::new(),
        clients: 8,
        requests: 30,
        threads: std::thread::available_parallelism().map_or(2, |p| p.get().min(8)),
        open_loop: 10_000,
        check_open_loop: false,
        out: "BENCH_serving.json".to_string(),
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).cloned();
        match flag {
            // Repeatable, like bench_batched_step: one JSON entry per
            // grid, so the CI regression job can pin a single fast one.
            "--grid" => opts.grids.push(parsed(flag, value)),
            "--clients" => opts.clients = parsed(flag, value),
            "--requests" => opts.requests = parsed(flag, value),
            "--threads" => opts.threads = parsed(flag, value),
            // 0 disables the open-loop stage entirely.
            "--open-loop" => opts.open_loop = parsed(flag, value),
            // Turns the open-loop stage into a CI gate: exit nonzero when
            // any connection errored or none completed. Valueless flag.
            "--check-open-loop" => {
                opts.check_open_loop = true;
                i += 1;
                continue;
            }
            "--out" => {
                opts.out = value.unwrap_or_else(|| usage_error("--out requires a value".into()));
            }
            other => usage_error(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    if opts.grids.is_empty() {
        opts.grids.push(64);
    }
    opts
}

struct PolicyResult {
    name: &'static str,
    policy: BatchPolicy,
    req_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    max_batch_observed: usize,
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[(sorted.len() - 1) * p / 100]
    }
}

fn run_policy(
    name: &'static str,
    policy: BatchPolicy,
    donn: &Donn,
    grid: usize,
    opts: &Options,
) -> PolicyResult {
    let mut registry = ModelRegistry::new();
    registry.register("ideal", donn.clone());
    // One shard and no cache: the closed-loop numbers stay comparable
    // with the trajectory recorded before the sharded frontend existed.
    let mut server = ServerBuilder::new(registry)
        .policy(policy)
        .cache_budget_bytes(0) // measure raw engine throughput, not cache hits
        .shards(1)
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let addr = server.addr();

    // Distinct images per client keep payload encoding honest.
    let data = Dataset::synthetic(Family::Mnist, opts.clients * 4, 17).resized(grid);
    let bodies: Vec<String> = (0..data.len())
        .map(|i| {
            Json::object(vec![(
                "image".into(),
                Json::numbers(data.image(i).as_slice()),
            )])
            .to_string()
        })
        .collect();
    let bodies = Arc::new(bodies);

    let barrier = Arc::new(Barrier::new(opts.clients + 1));
    let mut workers = Vec::new();
    for c in 0..opts.clients {
        let bodies = Arc::clone(&bodies);
        let barrier = Arc::clone(&barrier);
        let requests = opts.requests;
        let clients = opts.clients;
        workers.push(std::thread::spawn(move || {
            let mut conn = client::Connection::connect(addr).expect("connect");
            // Warm the connection and the engine outside the timed window.
            let (status, _) = conn
                .request("POST", "/v1/logits", Some(&bodies[c]))
                .expect("warmup");
            assert_eq!(status, 200);
            barrier.wait(); // start together
            let mut latencies = Vec::with_capacity(requests);
            for r in 0..requests {
                let body = &bodies[(c + r * clients) % bodies.len()];
                let start = Instant::now();
                let (status, text) = conn
                    .request("POST", "/v1/logits", Some(body))
                    .expect("request");
                latencies.push(start.elapsed().as_micros() as u64);
                assert_eq!(status, 200, "{text}");
            }
            latencies
        }));
    }
    barrier.wait();
    let wall = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(opts.clients * opts.requests);
    for worker in workers {
        latencies.extend(worker.join().expect("client panicked"));
    }
    let elapsed = wall.elapsed().as_secs_f64();
    let snapshot = server.metrics();
    server.shutdown();

    latencies.sort_unstable();
    PolicyResult {
        name,
        policy,
        req_per_sec: (opts.clients * opts.requests) as f64 / elapsed,
        p50_us: percentile(&latencies, 50),
        p99_us: percentile(&latencies, 99),
        max_batch_observed: snapshot.max_batch_observed,
    }
}

// ------------------------------------------------------------ open loop

/// The load generator caps its own concurrently-open sockets: past this
/// the schedule still advances (arrivals are never gated on completions)
/// but launches defer until sockets free up, keeping the bench inside
/// the fd budget while the server is the saturated party.
const MAX_OPEN_SOCKETS: usize = 4096;
/// Hard wall-clock cap on the open-loop stage; anything still in flight
/// when it expires counts as an error.
const OPEN_LOOP_DEADLINE: Duration = Duration::from_secs(180);

struct OpenLoopResult {
    connections: usize,
    offered_req_per_sec: f64,
    req_per_sec: f64,
    completed: usize,
    shed: usize,
    errors: usize,
    p50_us: u64,
    p99_us: u64,
}

/// One in-flight one-shot request: write the canned bytes, read to EOF
/// (the request carries `Connection: close`, so the server's close
/// delimits the response).
struct Flight {
    stream: TcpStream,
    request: Arc<Vec<u8>>,
    written: usize,
    response: Vec<u8>,
    started: Instant,
}

/// Classifies a finished flight by its HTTP status line.
fn flight_status(response: &[u8]) -> Option<u16> {
    let text = std::str::from_utf8(response).ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

/// Open-loop saturation: `conns` one-shot requests launched on a fixed
/// arrival schedule at `rate` req/s against a server with several
/// dispatchers over one bounded queue. Returns what actually happened —
/// completions, sheds, errors, client-observed latency.
fn run_open_loop(
    donn: &Donn,
    grid: usize,
    opts: &Options,
    conns: usize,
    rate: f64,
) -> OpenLoopResult {
    let mut registry = ModelRegistry::new();
    registry.register("ideal", donn.clone());
    let shards = opts.threads.clamp(2, 4);
    let mut server = ServerBuilder::new(registry)
        .policy(BatchPolicy {
            max_batch: 16,
            max_wait_us: 0,
            queue_capacity: 1024,
            threads: opts.threads,
        })
        .cache_budget_bytes(0)
        .shards(shards)
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let addr: SocketAddr = server.addr();

    // Every open socket is a client fd (the server holds its own); ask
    // for headroom above the generator's cap and let the server's
    // accept-side shedding handle the rest. Best effort: on a tight
    // rlimit the MAX_OPEN_SOCKETS gate below still keeps us honest.
    let _ = raise_nofile_limit((2 * MAX_OPEN_SOCKETS + 512) as u64);

    // A handful of distinct pre-serialized requests keeps encoding out of
    // the timed path without letting the server see a single hot body.
    let data = Dataset::synthetic(Family::Mnist, 32, 23).resized(grid);
    let requests: Vec<Arc<Vec<u8>>> = (0..data.len())
        .map(|i| {
            let body = Json::object(vec![(
                "image".into(),
                Json::numbers(data.image(i).as_slice()),
            )])
            .to_string();
            Arc::new(
                format!(
                    "POST /v1/logits HTTP/1.1\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes(),
            )
        })
        .collect();

    let mut poller = Poller::new().expect("poller");
    let mut events = Vec::new();
    let mut flights: Vec<Option<Flight>> = Vec::new();
    let mut free: VecDeque<usize> = VecDeque::new();
    let mut active = 0usize;
    let mut launched = 0usize;
    let mut completed = 0usize;
    let mut shed = 0usize;
    let mut errors = 0usize;
    let mut latencies: Vec<u64> = Vec::with_capacity(conns);

    let interval = Duration::from_secs_f64(1.0 / rate.max(1.0));
    let bench_start = Instant::now();
    let mut next_launch = bench_start;
    let deadline = bench_start + OPEN_LOOP_DEADLINE;

    loop {
        let now = Instant::now();
        if now > deadline {
            errors += conns - completed - shed - errors;
            break;
        }
        // Launch every arrival the schedule owes us (bounded per spin so
        // reads are serviced between bursts).
        let mut burst = 0;
        while launched < conns && now >= next_launch && active < MAX_OPEN_SOCKETS && burst < 128 {
            next_launch += interval;
            launched += 1;
            burst += 1;
            let stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(_) => {
                    errors += 1;
                    continue;
                }
            };
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                errors += 1;
                continue;
            }
            let slot = free.pop_front().unwrap_or_else(|| {
                flights.push(None);
                flights.len() - 1
            });
            let mut flight = Flight {
                stream,
                request: Arc::clone(&requests[launched % requests.len()]),
                written: 0,
                response: Vec::new(),
                started: Instant::now(),
            };
            // Optimistic immediate write: loopback almost always takes
            // the whole request, skipping one poll round trip.
            let done_writing = pump_write(&mut flight);
            let interest = match done_writing {
                Some(true) => Interest::READ,
                Some(false) => Interest::READ_WRITE,
                None => {
                    errors += 1;
                    free.push_back(slot);
                    continue;
                }
            };
            if poller
                .register(flight.stream.as_raw_fd(), slot as u64, interest)
                .is_err()
            {
                errors += 1;
                free.push_back(slot);
                continue;
            }
            flights[slot] = Some(flight);
            active += 1;
        }
        if launched >= conns && active == 0 {
            break;
        }
        let timeout = if launched < conns {
            next_launch
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(5))
        } else {
            Duration::from_millis(50)
        };
        if poller.wait(&mut events, Some(timeout)).is_err() {
            break;
        }
        for event in events.drain(..) {
            let slot = event.token as usize;
            let Some(flight) = flights[slot].as_mut() else {
                continue;
            };
            let mut finished = false;
            let mut failed = false;
            if event.writable && flight.written < flight.request.len() {
                match pump_write(flight) {
                    Some(true) => {
                        let _ =
                            poller.modify(flight.stream.as_raw_fd(), slot as u64, Interest::READ);
                    }
                    Some(false) => {}
                    None => failed = true,
                }
            }
            if !failed && event.readable {
                match pump_read(flight) {
                    Some(true) => finished = true,
                    Some(false) => {}
                    None => failed = true,
                }
            }
            if finished || failed {
                let flight = flights[slot].take().expect("in flight");
                let _ = poller.deregister(flight.stream.as_raw_fd());
                free.push_back(slot);
                active -= 1;
                if failed {
                    errors += 1;
                } else {
                    match flight_status(&flight.response) {
                        Some(status) if (200..300).contains(&status) => {
                            completed += 1;
                            latencies.push(flight.started.elapsed().as_micros() as u64);
                        }
                        Some(429) => shed += 1,
                        _ => errors += 1,
                    }
                }
            }
        }
    }
    let elapsed = bench_start.elapsed().as_secs_f64();
    server.shutdown();
    latencies.sort_unstable();
    OpenLoopResult {
        connections: conns,
        offered_req_per_sec: rate,
        req_per_sec: completed as f64 / elapsed,
        completed,
        shed,
        errors,
        p50_us: percentile(&latencies, 50),
        p99_us: percentile(&latencies, 99),
    }
}

/// Writes as much of the request as the socket takes. `Some(true)` =
/// fully written, `Some(false)` = would block, `None` = connection failed.
fn pump_write(flight: &mut Flight) -> Option<bool> {
    while flight.written < flight.request.len() {
        match flight.stream.write(&flight.request[flight.written..]) {
            Ok(0) => return None,
            Ok(n) => flight.written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Some(false),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
    Some(true)
}

/// Reads whatever the socket has. `Some(true)` = EOF (response complete),
/// `Some(false)` = would block, `None` = connection failed mid-read.
fn pump_read(flight: &mut Flight) -> Option<bool> {
    let mut chunk = [0u8; 8192];
    loop {
        match flight.stream.read(&mut chunk) {
            Ok(0) => return Some(true),
            Ok(n) => flight.response.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Some(false),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
}

/// Benchmarks the three policies at one grid size, returning the JSON
/// entry for the document's `entries[]`.
fn bench_grid(grid: usize, opts: &Options) -> Json {
    println!(
        "== bench_serving :: grid {0}x{0} | {1} clients x {2} requests | {3} FFT threads ==",
        grid, opts.clients, opts.requests, opts.threads
    );

    let mut rng = Rng::seed_from(42);
    let donn = Donn::random(DonnConfig::scaled(grid), &mut rng);

    let baseline = BatchPolicy {
        max_batch: 1,
        max_wait_us: 0,
        queue_capacity: 1024,
        threads: opts.threads,
    };
    // Demand-driven batching: never idle-wait; coalesce whatever queued
    // while the previous batch was running. Under closed-loop clients this
    // converges to batch ≈ concurrency with zero added latency.
    let dynamic = BatchPolicy {
        max_batch: 16,
        max_wait_us: 0,
        queue_capacity: 1024,
        threads: opts.threads,
    };
    // The same coalescing with a 2 ms linger: trades latency for larger
    // batches when traffic is sparse.
    let dynamic_wait = BatchPolicy {
        max_batch: 16,
        max_wait_us: 2_000,
        queue_capacity: 1024,
        threads: opts.threads,
    };

    let mut results = Vec::new();
    for (name, policy) in [
        ("batch1", baseline),
        ("dynamic", dynamic),
        ("dynamic_wait2ms", dynamic_wait),
    ] {
        let result = run_policy(name, policy, &donn, grid, opts);
        println!(
            "{:>8}: {:8.1} req/s | p50 {:6} us | p99 {:6} us | max batch {}",
            result.name,
            result.req_per_sec,
            result.p50_us,
            result.p99_us,
            result.max_batch_observed
        );
        results.push(result);
    }
    let speedup = results[1].req_per_sec / results[0].req_per_sec;
    println!("dynamic-batching speedup: {speedup:.2}x on req/s");

    // Open loop: offer 25 % more than the measured closed-loop dynamic
    // throughput so the frontend is genuinely saturated — the interesting
    // regime for the queue bound and shedding.
    let open_loop = (opts.open_loop > 0).then(|| {
        let rate = (results[1].req_per_sec * 1.25).max(50.0);
        let result = run_open_loop(&donn, grid, opts, opts.open_loop, rate);
        println!(
            "open-loop: {} conns @ {:.0}/s offered | {:8.1} req/s | {} ok / {} shed / {} err | p50 {:6} us | p99 {:6} us",
            result.connections,
            result.offered_req_per_sec,
            result.req_per_sec,
            result.completed,
            result.shed,
            result.errors,
            result.p50_us,
            result.p99_us,
        );
        // The saturation smoke gate: every offered connection must end in
        // a response — 2xx or a deliberate 429 shed — never a transport
        // error, and the frontend must have actually served something.
        if opts.check_open_loop && (result.errors > 0 || result.completed == 0) {
            eprintln!(
                "bench_serving: open-loop check FAILED at grid {grid}: {} completed, {} errors",
                result.completed, result.errors
            );
            std::process::exit(1);
        }
        result
    });

    // Rounded to centi-units first so the file stays readable.
    let round2 = |v: f64| (v * 100.0).round() / 100.0;
    let policies = results
        .iter()
        .map(|r| {
            Json::object(vec![
                ("name".into(), Json::Str(r.name.into())),
                ("max_batch".into(), Json::Num(r.policy.max_batch as f64)),
                ("max_wait_us".into(), Json::Num(r.policy.max_wait_us as f64)),
                ("req_per_sec".into(), Json::Num(round2(r.req_per_sec))),
                ("p50_latency_us".into(), Json::Num(r.p50_us as f64)),
                ("p99_latency_us".into(), Json::Num(r.p99_us as f64)),
                (
                    "max_batch_observed".into(),
                    Json::Num(r.max_batch_observed as f64),
                ),
            ])
        })
        .collect();
    let mut entry = vec![
        ("grid".to_string(), Json::Num(grid as f64)),
        ("policies".to_string(), Json::Arr(policies)),
        (
            "dynamic_speedup".to_string(),
            Json::Num((speedup * 10_000.0).round() / 10_000.0),
        ),
    ];
    if let Some(o) = open_loop {
        entry.push((
            "open_loop".to_string(),
            Json::object(vec![
                ("connections".into(), Json::Num(o.connections as f64)),
                (
                    "offered_req_per_sec".into(),
                    Json::Num(round2(o.offered_req_per_sec)),
                ),
                ("req_per_sec".into(), Json::Num(round2(o.req_per_sec))),
                ("completed".into(), Json::Num(o.completed as f64)),
                ("shed".into(), Json::Num(o.shed as f64)),
                ("errors".into(), Json::Num(o.errors as f64)),
                ("p50_latency_us".into(), Json::Num(o.p50_us as f64)),
                ("p99_latency_us".into(), Json::Num(o.p99_us as f64)),
            ]),
        ));
    }
    Json::object(entry)
}

fn main() {
    let opts = parse_options();
    let entries: Vec<Json> = opts.grids.iter().map(|&g| bench_grid(g, &opts)).collect();

    // Reuse the serve crate's tested serializer rather than hand-splicing
    // strings: it cannot emit malformed JSON into the perf-trajectory
    // artifact.
    //
    // Like bench_dist_step, the document records the machine it ran on:
    // req/s from a single-core host or a scalar-only CPU is not
    // comparable to a committed baseline from a wider box.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let kernels = simd::active();
    let features = simd::cpu_features()
        .iter()
        .map(|f| Json::Str((*f).into()))
        .collect();
    let doc = Json::object(vec![
        ("bench".into(), Json::Str("serving".into())),
        ("clients".into(), Json::Num(opts.clients as f64)),
        (
            "requests_per_client".into(),
            Json::Num(opts.requests as f64),
        ),
        ("threads".into(), Json::Num(opts.threads as f64)),
        ("cores".into(), Json::Num(cores as f64)),
        ("simd".into(), Json::Str(kernels.name.into())),
        ("cpu_features".into(), Json::Arr(features)),
        ("entries".into(), Json::Arr(entries)),
    ]);
    match std::fs::write(&opts.out, format!("{doc}\n")) {
        Ok(()) => println!("wrote {}", opts.out),
        Err(e) => eprintln!("could not write {}: {e}", opts.out),
    }
}
