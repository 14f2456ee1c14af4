//! End-to-end serving tests: real TCP sockets, concurrent clients, and
//! bit-identity between served logits and direct `Donn::logits` calls.

use photonn::datasets::{Dataset, Family};
use photonn::donn::{Donn, DonnConfig};
use photonn::math::{Grid, Rng};
use photonn::serve::{client, BatchPolicy, Json, ModelRegistry, ServerBuilder};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const GRID: usize = 32;

fn model() -> Donn {
    let mut rng = Rng::seed_from(3);
    Donn::random(DonnConfig::scaled(GRID), &mut rng)
}

fn registry(donn: &Donn) -> ModelRegistry {
    let mut reg = ModelRegistry::new();
    reg.register("ideal", donn.clone());
    reg
}

fn logits_body(image: &Grid) -> String {
    Json::object(vec![("image".into(), Json::numbers(image.as_slice()))]).to_string()
}

fn parse_logits(body: &str) -> Vec<f64> {
    Json::parse(body)
        .expect("valid JSON")
        .get("logits")
        .and_then(Json::as_array)
        .expect("logits array")
        .iter()
        .map(|v| v.as_f64().expect("number"))
        .collect()
}

/// The acceptance-criteria test: N concurrent clients over real TCP, each
/// receiving logits bit-identical to a direct `Donn::logits` call on its
/// own image, while the dispatcher coalesces the traffic.
#[test]
fn concurrent_clients_receive_bit_identical_logits() {
    let donn = model();
    let mut server = ServerBuilder::new(registry(&donn))
        .policy(BatchPolicy {
            max_batch: 8,
            max_wait_us: 3_000,
            queue_capacity: 256,
            threads: 2,
        })
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.addr();

    const CLIENTS: usize = 6;
    const REQUESTS: usize = 3;
    let data = Dataset::synthetic(Family::Mnist, CLIENTS * REQUESTS, 11).resized(GRID);
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let donn = Arc::new(donn);
    let data = Arc::new(data);

    let mut workers = Vec::new();
    for c in 0..CLIENTS {
        let barrier = Arc::clone(&barrier);
        let donn = Arc::clone(&donn);
        let data = Arc::clone(&data);
        workers.push(std::thread::spawn(move || {
            // One keep-alive connection per client, several requests each,
            // all clients released together to exercise coalescing.
            let mut conn = client::Connection::connect(addr).expect("connect");
            barrier.wait();
            for r in 0..REQUESTS {
                let image = data.image(c * REQUESTS + r);
                let (status, body) = conn
                    .request("POST", "/v1/logits", Some(&logits_body(image)))
                    .expect("request");
                assert_eq!(status, 200, "client {c} request {r}: {body}");
                let served = parse_logits(&body);
                assert_eq!(
                    served,
                    donn.logits(image),
                    "client {c} request {r}: served logits not bit-identical"
                );
            }
        }));
    }
    for worker in workers {
        worker.join().expect("client panicked");
    }

    // The server observed all traffic; under concurrent load at least one
    // batch should have coalesced more than one request (not asserted —
    // timing-dependent), but the accounting must always balance.
    let snapshot = server.metrics();
    assert_eq!(snapshot.requests_total, (CLIENTS * REQUESTS) as u64);
    assert_eq!(snapshot.responses_2xx, (CLIENTS * REQUESTS) as u64);
    assert!(snapshot.max_batch_observed <= 8, "max_batch violated");
    assert_eq!(
        snapshot.batch_hist.iter().sum::<u64>(),
        snapshot.batches_total
    );
    assert!(snapshot.latency_samples >= CLIENTS * REQUESTS);
    assert!(snapshot.p50_latency_us <= snapshot.p99_latency_us);
    server.shutdown();
}

/// The planar-engine serving invariant: with the field stack stored as
/// split re/im planes end-to-end (and the input-hop cache exercising both
/// conversion edges — interleaved `CGrid` hops deinterleaved into the
/// planar stack, fresh hops interleaved back out for caching), served
/// logits stay bit-identical to direct per-sample `Donn::logits` calls.
/// Pinned at a mixed-radix grid (20 = 2²·5) so the vectorized planar
/// mixed-radix path — the paper-native 200-grid path in miniature — is the
/// engine under test, including repeat requests answered from the cache.
#[test]
fn planar_backed_logits_bit_identical_to_direct_calls() {
    let mut rng = Rng::seed_from(41);
    let donn = Donn::random(DonnConfig::scaled(20), &mut rng);
    let mut server = ServerBuilder::new(registry(&donn))
        .policy(BatchPolicy {
            max_batch: 4,
            max_wait_us: 0,
            queue_capacity: 64,
            threads: 2,
        })
        .cache_budget_bytes(8 << 20) // force the cache-assisted stack path
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.addr();

    let data = Dataset::synthetic(Family::Mnist, 5, 41).resized(20);
    let mut conn = client::Connection::connect(addr).expect("connect");
    // Two passes over the same images: the first misses the input-hop
    // cache (fresh planar hops, interleaved back out for caching), the
    // second hits it (cached CGrids deinterleaved into the planar stack).
    for pass in 0..2 {
        for i in 0..data.len() {
            let image = data.image(i);
            let (status, body) = conn
                .request("POST", "/v1/logits", Some(&logits_body(image)))
                .expect("request");
            assert_eq!(status, 200, "pass {pass} image {i}: {body}");
            assert_eq!(
                parse_logits(&body),
                donn.logits(image),
                "pass {pass} image {i}: planar-backed logits not bit-identical"
            );
        }
    }
    let snapshot = server.metrics();
    assert!(
        snapshot.cache_hits >= data.len() as u64,
        "second pass should hit the input-hop cache"
    );
    server.shutdown();
}

/// Backpressure: with a 2-deep queue and a dispatcher parked waiting for a
/// large batch, a third request must bounce with HTTP 429 while the two
/// parked requests still complete.
#[test]
fn full_queue_returns_429_and_parked_requests_complete() {
    let donn = model();
    let mut server = ServerBuilder::new(registry(&donn))
        .policy(BatchPolicy {
            max_batch: 8,
            max_wait_us: 500_000, // park half a second waiting for a batch
            queue_capacity: 2,
            threads: 1,
        })
        .cache_budget_bytes(0)
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.addr();
    let data = Dataset::synthetic(Family::Mnist, 3, 5).resized(GRID);

    let mut parked = Vec::new();
    for i in 0..2 {
        let image = data.image(i).clone();
        let donn = donn.clone();
        parked.push(std::thread::spawn(move || {
            let (status, body) =
                client::request(addr, "POST", "/v1/logits", Some(&logits_body(&image)))
                    .expect("request");
            assert_eq!(status, 200, "parked request failed: {body}");
            assert_eq!(parse_logits(&body), donn.logits(&image));
        }));
        // Let request i reach the queue before sending i+1.
        std::thread::sleep(Duration::from_millis(100));
    }

    let (status, body) = client::request(
        addr,
        "POST",
        "/v1/logits",
        Some(&logits_body(data.image(2))),
    )
    .expect("request");
    assert_eq!(status, 429, "expected backpressure, got {status}: {body}");
    assert!(body.contains("queue full"), "unexpected body: {body}");

    for p in parked {
        p.join().expect("parked client panicked");
    }
    let snapshot = server.metrics();
    assert_eq!(snapshot.responses_429, 1);
    assert_eq!(snapshot.responses_2xx, 2);
    server.shutdown();
}

/// Ancillary endpoints and error paths over real TCP.
#[test]
fn endpoints_and_error_paths() {
    let donn = model();
    let mut reg = registry(&donn);
    reg.register_quantized("q8", &donn, 8);
    let mut server = ServerBuilder::new(reg).bind("127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let (status, body) = client::request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!((status, body.contains("ok")), (200, true));

    let (status, body) = client::request(addr, "GET", "/models", None).unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("default").and_then(Json::as_str), Some("ideal"));
    assert_eq!(doc.get("models").and_then(Json::as_array).unwrap().len(), 2);

    let (status, _) = client::request(addr, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);

    let image = Grid::full(GRID, GRID, 0.5);
    let body = Json::object(vec![
        ("model".into(), Json::Str("missing".into())),
        ("image".into(), Json::numbers(image.as_slice())),
    ])
    .to_string();
    let (status, text) = client::request(addr, "POST", "/v1/logits", Some(&body)).unwrap();
    assert_eq!(status, 404);
    assert!(text.contains("unknown model"));

    let (status, _) = client::request(addr, "POST", "/v1/logits", Some("{not json")).unwrap();
    assert_eq!(status, 400);

    let wrong_shape = Json::object(vec![("image".into(), Json::numbers(&[0.0; 16]))]).to_string();
    let (status, text) = client::request(addr, "POST", "/v1/logits", Some(&wrong_shape)).unwrap();
    assert_eq!(status, 400);
    assert!(text.contains("does not match"), "body: {text}");

    // Routed through a named variant, results match that variant exactly.
    let q_body = Json::object(vec![
        ("model".into(), Json::Str("q8".into())),
        ("image".into(), Json::numbers(image.as_slice())),
    ])
    .to_string();
    let (status, text) = client::request(addr, "POST", "/v1/logits", Some(&q_body)).unwrap();
    assert_eq!(status, 200);
    let mut quantized = donn.clone();
    quantized.set_masks(
        donn.masks()
            .iter()
            .map(|m| photonn::donn::quantize::quantize_mask(m, 8))
            .collect(),
    );
    assert_eq!(parse_logits(&text), quantized.logits(&image));

    server.shutdown();
    // After shutdown the port no longer answers.
    assert!(client::request(addr, "GET", "/healthz", None).is_err());
}

/// Reads one `Content-Length`-delimited HTTP response off a pipelined
/// stream.
fn read_one_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    assert!(
        reader.read_line(&mut status_line).expect("status line") > 0,
        "server closed mid-pipeline"
    );
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("malformed status line");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("header") > 0);
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

/// The ordering property the write layer guarantees: per-model groups
/// and four dispatchers racing over the shared queue may scramble
/// *dispatch* order freely, but one client's pipelined requests are
/// answered strictly in the order they were sent.
///
/// One raw socket sends a burst of back-to-back requests — alternating
/// between two models (so jobs land in different model groups and groups
/// churn) and between `/v1` and `/v2` (so both dialects share the
/// response-slot queue) — then reads every response in order. Each
/// request carries a distinct image, so any reordering is caught as a
/// bit-exact logits mismatch, not just a plausible-looking answer.
/// Swept over seeds to vary batch boundaries and which dispatcher runs
/// each batch.
#[test]
fn pipelined_requests_answered_in_order_under_shard_churn() {
    let donn = model();
    let mut quantized = donn.clone();
    quantized.set_masks(
        donn.masks()
            .iter()
            .map(|m| photonn::donn::quantize::quantize_mask(m, 8))
            .collect(),
    );
    let mut reg = registry(&donn);
    reg.register_quantized("q8", &donn, 8);
    let mut server = ServerBuilder::new(reg)
        .policy(BatchPolicy {
            max_batch: 3, // small ceiling: a burst spans many batches
            max_wait_us: 0,
            queue_capacity: 256,
            threads: 1,
        })
        .shards(4)
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.addr();

    const REQUESTS: usize = 16;
    for seed in 0..6u64 {
        let data = Dataset::synthetic(Family::Mnist, REQUESTS, 100 + seed).resized(GRID);
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);

        // The whole burst goes out before any response is read.
        let mut burst = String::new();
        for r in 0..REQUESTS {
            let image = data.image(r);
            let model = if (seed as usize + r).is_multiple_of(2) {
                "ideal"
            } else {
                "q8"
            };
            let (path, body) = if r % 3 == 2 {
                (
                    "/v2/logits",
                    Json::object(vec![
                        ("model".into(), Json::Str(model.into())),
                        (
                            "inputs".into(),
                            Json::Arr(vec![Json::numbers(image.as_slice())]),
                        ),
                    ])
                    .to_string(),
                )
            } else {
                (
                    "/v1/logits",
                    Json::object(vec![
                        ("model".into(), Json::Str(model.into())),
                        ("image".into(), Json::numbers(image.as_slice())),
                    ])
                    .to_string(),
                )
            };
            burst.push_str(&format!(
                "POST {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ));
        }
        writer.write_all(burst.as_bytes()).expect("write burst");
        writer.flush().expect("flush");

        for r in 0..REQUESTS {
            let (status, body) = read_one_response(&mut reader);
            assert_eq!(status, 200, "seed {seed} response {r}: {body}");
            let image = data.image(r);
            let model = if (seed as usize + r).is_multiple_of(2) {
                &donn
            } else {
                &quantized
            };
            let expected = model.logits(image);
            let doc = Json::parse(&body).expect("valid JSON");
            let got: Vec<f64> = if r % 3 == 2 {
                doc.get("results")
                    .and_then(Json::as_array)
                    .expect("results")[0]
                    .get("logits")
                    .and_then(Json::as_array)
                    .expect("logits")
                    .iter()
                    .map(|v| v.as_f64().expect("number"))
                    .collect()
            } else {
                doc.get("logits")
                    .and_then(Json::as_array)
                    .expect("logits")
                    .iter()
                    .map(|v| v.as_f64().expect("number"))
                    .collect()
            };
            assert_eq!(
                got, expected,
                "seed {seed} response {r} out of order or wrong model"
            );
        }
    }
    // With 4 dispatchers and two models the burst routinely runs on
    // several dispatchers at once; the accounting must balance anyway.
    let snapshot = server.metrics();
    assert_eq!(snapshot.responses_2xx, (6 * REQUESTS) as u64);
    server.shutdown();
}
