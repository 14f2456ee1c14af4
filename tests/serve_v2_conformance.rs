//! `/v2` API conformance over real TCP: the structured error contract
//! (`{"code", "message", "retry_after_ms"}` on every failure path), head
//! and model selection, and bit-identity between coalesced `/v2` batch
//! logits and direct `Donn::logits_batch` calls.

use photonn::datasets::{Dataset, Family};
use photonn::donn::{Donn, DonnConfig};
use photonn::math::Grid;
use photonn::math::Rng;
use photonn::serve::{
    client, BatchPolicy, ClientError, Json, ModelRegistry, ReadoutHead, ServerBuilder, ServerHandle,
};
use std::time::{Duration, Instant};

const GRID: usize = 16;

fn model() -> Donn {
    let mut rng = Rng::seed_from(9);
    Donn::random(DonnConfig::scaled(GRID), &mut rng)
}

fn registry(donn: &Donn) -> ModelRegistry {
    let mut reg = ModelRegistry::new();
    reg.register("ideal", donn.clone());
    reg.register_noise_injected("noisy", donn, 0.05, 13);
    reg
}

fn serve(donn: &Donn) -> ServerHandle {
    ServerBuilder::new(registry(donn))
        .policy(BatchPolicy {
            max_batch: 8,
            max_wait_us: 1_000,
            queue_capacity: 64,
            threads: 1,
        })
        .shards(2)
        .bind("127.0.0.1:0")
        .expect("bind")
}

/// Asserts `body` is a structured v2 error with exactly the given code,
/// and returns its `retry_after_ms`.
fn assert_v2_error(status_got: u16, status_want: u16, body: &str, code: &str) -> Option<u64> {
    assert_eq!(status_got, status_want, "body: {body}");
    let doc = Json::parse(body).unwrap_or_else(|e| panic!("unparseable error body {body}: {e}"));
    assert_eq!(
        doc.get("code").and_then(Json::as_str),
        Some(code),
        "body: {body}"
    );
    assert!(
        doc.get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| !m.is_empty()),
        "message missing: {body}"
    );
    // The key must always be present — null when not retryable.
    let retry = doc
        .get("retry_after_ms")
        .unwrap_or_else(|| panic!("retry_after_ms key missing: {body}"));
    match retry {
        Json::Null => None,
        other => other.as_f64().map(|ms| ms as u64),
    }
}

fn v2_body(model: Option<&str>, head: Option<&str>, inputs: &[&Grid]) -> String {
    let mut pairs = Vec::new();
    if let Some(name) = model {
        pairs.push(("model".to_string(), Json::Str(name.into())));
    }
    if let Some(name) = head {
        pairs.push(("head".to_string(), Json::Str(name.into())));
    }
    pairs.push((
        "inputs".to_string(),
        Json::Arr(inputs.iter().map(|g| Json::numbers(g.as_slice())).collect()),
    ));
    Json::object(pairs).to_string()
}

#[test]
fn every_v2_error_path_answers_the_structured_contract() {
    let donn = model();
    let mut server = serve(&donn);
    let addr = server.addr();
    let image = Grid::full(GRID, GRID, 0.5);
    let post = |body: &str| client::request(addr, "POST", "/v2/logits", Some(body)).expect("post");

    // Malformed JSON → 400 bad_request.
    let (status, body) = post("{not json");
    assert_v2_error(status, 400, &body, "bad_request");

    // Non-string model → 400 bad_request.
    let (status, body) = post(r#"{"model": 3, "inputs": [[0, 1, 2, 3]]}"#);
    assert_v2_error(status, 400, &body, "bad_request");

    // Missing / empty / malformed inputs → 400 bad_request, the message
    // naming the offending index.
    let (status, body) = post(r#"{"model": "ideal"}"#);
    assert_v2_error(status, 400, &body, "bad_request");
    let (status, body) = post(r#"{"inputs": []}"#);
    assert_v2_error(status, 400, &body, "bad_request");
    let (status, body) = post(r#"{"inputs": [[0, 1, 2, 3], [0, 1, 2]]}"#);
    assert_v2_error(status, 400, &body, "bad_request");
    assert!(body.contains("inputs[1]"), "index not named: {body}");

    // Wrong image shape for the model → 400 bad_request.
    let small = Grid::full(4, 4, 0.1);
    let (status, body) = post(&v2_body(None, None, &[&small]));
    assert_v2_error(status, 400, &body, "bad_request");

    // Unknown model → 404 unknown_model.
    let (status, body) = post(&v2_body(Some("missing"), None, &[&image]));
    assert_v2_error(status, 404, &body, "unknown_model");

    // Unknown head → 400 unknown_head.
    let (status, body) = post(&v2_body(None, Some("quadrature"), &[&image]));
    assert_v2_error(status, 400, &body, "unknown_head");

    // Unknown /v2 endpoint → 404 not_found; bad method → 405
    // method_not_allowed. Both structured — /v2 never speaks the legacy
    // `{"error"}` dialect.
    let (status, body) = client::request(addr, "GET", "/v2/nope", None).expect("get");
    assert_v2_error(status, 404, &body, "not_found");
    let (status, body) = client::request(addr, "PUT", "/v2/logits", Some("{}")).expect("put");
    assert_v2_error(status, 405, &body, "method_not_allowed");

    server.shutdown();
}

#[test]
fn oversized_v2_body_answers_structured_413() {
    let donn = model();
    let mut server = ServerBuilder::new(registry(&donn))
        .max_body_bytes(1024)
        .bind("127.0.0.1:0")
        .expect("bind");
    let big = "x".repeat(4096);
    let body = format!(r#"{{"inputs": [["{big}"]]}}"#);
    let (status, text) =
        client::request(server.addr(), "POST", "/v2/logits", Some(&body)).expect("post");
    assert_v2_error(status, 413, &text, "payload_too_large");

    // The same oversize against a /v1 path keeps the legacy body —
    // pinned separately by the byte-compat fixtures, asserted here for
    // the contrast.
    let (status, text) =
        client::request(server.addr(), "POST", "/v1/logits", Some(&body)).expect("post");
    assert_eq!(status, 400);
    assert!(text.contains("\"error\""), "legacy body expected: {text}");
    server.shutdown();
}

#[test]
fn shed_answers_429_with_retry_hint() {
    let donn = model();
    // Capacity 2 behind a coalescing wait no test outlives: a parked
    // 2-input request fills the queue until shutdown drains it.
    let mut server = ServerBuilder::new(registry(&donn))
        .policy(BatchPolicy {
            max_batch: 8,
            max_wait_us: 60_000_000,
            queue_capacity: 2,
            threads: 1,
        })
        .retry_after_ms(75)
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.addr();
    let image = Grid::full(GRID, GRID, 0.5);
    let pair = v2_body(None, None, &[&image, &image]);
    let parked = std::thread::spawn(move || {
        let (status, body) =
            client::request(addr, "POST", "/v2/logits", Some(&pair)).expect("post");
        assert_eq!(status, 200, "parked request failed: {body}");
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.metrics().queue_depth < 2 {
        assert!(Instant::now() < deadline, "parked request never queued");
        std::thread::sleep(Duration::from_millis(1));
    }

    // One more input does not fit now; retrying later can.
    let (status, body) = client::request(
        addr,
        "POST",
        "/v2/logits",
        Some(&v2_body(None, None, &[&image])),
    )
    .expect("post");
    let retry = assert_v2_error(status, 429, &body, "shed");
    assert_eq!(retry, Some(75), "configured retry hint must round-trip");

    // More inputs than the queue can ever hold: no retry helps.
    let (status, body) = client::request(
        addr,
        "POST",
        "/v2/logits",
        Some(&v2_body(None, None, &[&image, &image, &image])),
    )
    .expect("post");
    assert_eq!(
        assert_v2_error(status, 413, &body, "payload_too_large"),
        None
    );

    let snapshot = server.metrics();
    assert_eq!(snapshot.sheds_total, 1, "shed must be counted");
    server.shutdown();
    parked.join().expect("parked client panicked");
}

#[test]
fn v2_batch_logits_bit_identical_to_direct_logits_batch() {
    let donn = model();
    let mut server = serve(&donn);
    let data = Dataset::synthetic(Family::Mnist, 6, 29).resized(GRID);
    let images: Vec<&Grid> = (0..data.len()).map(|i| data.image(i)).collect();

    let mut api = client::Client::new(server.addr());
    let reply = api.logits_v2(Some("ideal"), None, &images).expect("v2");
    assert_eq!(reply.model, "ideal");
    assert_eq!(reply.head, "sum");
    let direct = donn.logits_batch(&images, 1);
    assert_eq!(reply.results.len(), direct.len());
    for (i, (got, want)) in reply.results.iter().zip(&direct).enumerate() {
        assert_eq!(
            &got.logits, want,
            "input {i}: /v2 batch logits not bit-identical to logits_batch"
        );
    }

    // The same single sample through /v1 and /v2 agrees bitwise (the sum
    // head IS the /v1 readout).
    let one = api.logits_v1(Some("ideal"), images[0]).expect("v1");
    let v2_one = api
        .logits_v2(Some("ideal"), None, &images[..1])
        .expect("v2");
    assert_eq!(one.logits, v2_one.results[0].logits);
    server.shutdown();
}

#[test]
fn head_selection_switches_the_readout() {
    let donn = model();
    let mut server = serve(&donn);
    let data = Dataset::synthetic(Family::Mnist, 3, 31).resized(GRID);
    let images: Vec<&Grid> = (0..data.len()).map(|i| data.image(i)).collect();
    let mut api = client::Client::new(server.addr());

    let sum = api
        .logits_v2(Some("ideal"), Some("sum"), &images)
        .expect("sum");
    let diff = api
        .logits_v2(Some("ideal"), Some("differential"), &images)
        .expect("differential");
    assert_eq!(diff.head, "differential");
    assert_ne!(
        sum.results[0].logits, diff.results[0].logits,
        "differential head must not reproduce the sum readout"
    );
    // Differential logits are normalized contrasts: every value in [-1, 1].
    for entry in &diff.results {
        assert!(
            entry.logits.iter().all(|v| v.is_finite() && v.abs() <= 1.0),
            "differential logits out of range: {:?}",
            entry.logits
        );
    }
    // Oracle: the served differential readout equals the head applied to
    // the same batched intensity the server computed.
    let reg = registry(&donn);
    let served = reg.get("ideal").expect("registered");
    let intensity = served.intensity_batch(&images, 1);
    let regions = served.regions().to_vec();
    let (_, _, cols) = intensity.shape();
    for (i, (sample, entry)) in intensity.samples().zip(&diff.results).enumerate() {
        let want = ReadoutHead::Differential.readout(sample, cols, &regions);
        assert_eq!(
            entry.logits, want,
            "input {i}: differential readout drifted"
        );
    }
    server.shutdown();
}

#[test]
fn model_variant_selection_per_request() {
    let donn = model();
    let mut server = serve(&donn);
    let image = Dataset::synthetic(Family::Mnist, 1, 37)
        .resized(GRID)
        .image(0)
        .clone();
    let mut api = client::Client::new(server.addr());

    let ideal = api
        .logits_v2(Some("ideal"), None, &[&image])
        .expect("ideal");
    let noisy = api
        .logits_v2(Some("noisy"), None, &[&image])
        .expect("noisy");
    assert_eq!(noisy.model, "noisy");
    assert_ne!(
        ideal.results[0].logits, noisy.results[0].logits,
        "noise-injected variant must differ from ideal"
    );
    // Seeded noise: the same variant answers identically across requests.
    let again = api
        .logits_v2(Some("noisy"), None, &[&image])
        .expect("noisy again");
    assert_eq!(noisy.results[0].logits, again.results[0].logits);

    // Typed client surfaces the structured error fields.
    let err = api.logits_v2(Some("absent"), None, &[&image]).unwrap_err();
    match err {
        ClientError::Api(e) => {
            assert_eq!((e.status, e.code.as_str()), (404, "unknown_model"));
            assert_eq!(e.retry_after_ms, None);
        }
        ClientError::Io(e) => panic!("expected ApiError, got transport error {e}"),
    }
    server.shutdown();
}

#[test]
fn v2_models_lists_heads_and_variants() {
    let donn = model();
    let mut server = serve(&donn);
    let (status, body) = client::request(server.addr(), "GET", "/v2/models", None).expect("get");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("valid JSON");
    assert_eq!(doc.get("default").and_then(Json::as_str), Some("ideal"));
    let models = doc.get("models").and_then(Json::as_array).expect("models");
    assert_eq!(models.len(), 2);
    let heads: Vec<&str> = doc
        .get("heads")
        .and_then(Json::as_array)
        .expect("heads")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(heads, vec!["sum", "differential"]);
    server.shutdown();
}
