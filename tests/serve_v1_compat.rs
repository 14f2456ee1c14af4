//! `/v1` byte-compatibility gate: every response the pre-redesign server
//! produced — success bodies, error bodies, ancillary endpoints — must stay
//! byte-identical through the event-loop frontend redesign.
//!
//! The committed fixtures in `tests/fixtures/v1_compat.txt` were captured
//! from the thread-per-connection server immediately before the v2
//! redesign. Regenerate (only when intentionally changing the v1 surface)
//! with:
//!
//! ```sh
//! PHOTONN_REGEN_FIXTURES=1 cargo test --test serve_v1_compat
//! ```
//!
//! The one nondeterministic field, `latency_us`, is normalized to `0` on
//! both sides before comparison; everything else — field order, float
//! formatting, error phrasing, status codes — is compared byte for byte.

use photonn::datasets::{Dataset, Family};
use photonn::donn::{Donn, DonnConfig};
use photonn::math::{Grid, Rng};
use photonn::serve::{client, Json, ModelRegistry, ServerBuilder};
use std::net::SocketAddr;
use std::path::Path;

const GRID: usize = 32;
const FIXTURE_PATH: &str = "tests/fixtures/v1_compat.txt";

fn fixture_registry() -> (ModelRegistry, Donn) {
    let mut rng = Rng::seed_from(3);
    let donn = Donn::random(DonnConfig::scaled(GRID), &mut rng);
    let mut reg = ModelRegistry::new();
    reg.register("ideal", donn.clone());
    reg.register_quantized("q8", &donn, 8);
    (reg, donn)
}

fn logits_body(image: &Grid, model: Option<&str>) -> String {
    let mut fields = Vec::new();
    if let Some(name) = model {
        fields.push(("model".to_string(), Json::Str(name.to_string())));
    }
    fields.push(("image".to_string(), Json::numbers(image.as_slice())));
    Json::object(fields).to_string()
}

/// Replaces the digits of `"latency_us":<number>` with `0` so the only
/// nondeterministic field compares equal across runs.
fn normalize(body: &str) -> String {
    const KEY: &str = "\"latency_us\":";
    match body.find(KEY) {
        None => body.to_string(),
        Some(at) => {
            let tail = &body[at + KEY.len()..];
            let end = tail
                .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | 'e' | 'E' | '+'))
                .unwrap_or(tail.len());
            format!("{}{KEY}0{}", &body[..at], &tail[end..])
        }
    }
}

/// The exchanges pinned by the fixture file, in order. Each yields one
/// `name | status | normalized-body` record.
fn exchanges(addr: SocketAddr, data: &Dataset) -> Vec<(&'static str, u16, String)> {
    let mut conn = client::Connection::connect(addr).expect("connect");
    let mut shot = |name: &'static str, method: &str, path: &str, body: Option<&str>| {
        let (status, text) = conn.request(method, path, body).expect(name);
        (name, status, normalize(&text))
    };
    let image = data.image(0);
    let mut records = vec![
        shot("healthz", "GET", "/healthz", None),
        shot("models", "GET", "/models", None),
        shot(
            "logits_default",
            "POST",
            "/v1/logits",
            Some(&logits_body(image, None)),
        ),
        shot(
            "logits_named",
            "POST",
            "/v1/logits",
            Some(&logits_body(data.image(1), Some("q8"))),
        ),
        shot(
            "unknown_model",
            "POST",
            "/v1/logits",
            Some(&logits_body(image, Some("missing"))),
        ),
        shot(
            "wrong_shape",
            "POST",
            "/v1/logits",
            Some(&logits_body(&Grid::full(16, 16, 0.5), None)),
        ),
        shot(
            "model_not_string",
            "POST",
            "/v1/logits",
            Some(r#"{"model": 3, "image": [0, 1, 2, 3]}"#),
        ),
        shot(
            "image_missing",
            "POST",
            "/v1/logits",
            Some(r#"{"model": "ideal"}"#),
        ),
        shot(
            "image_empty",
            "POST",
            "/v1/logits",
            Some(r#"{"image": []}"#),
        ),
        shot(
            "image_not_square",
            "POST",
            "/v1/logits",
            Some(r#"{"image": [0, 1, 2]}"#),
        ),
        shot(
            "image_non_finite",
            "POST",
            "/v1/logits",
            Some(r#"{"image": [0, 1, 2, 1e999]}"#),
        ),
        shot(
            "image_mixed_rows",
            "POST",
            "/v1/logits",
            Some(r#"{"image": [[0, 1], 2]}"#),
        ),
        shot("no_such_endpoint", "GET", "/nope", None),
        shot("post_no_such_endpoint", "POST", "/nope", Some("{}")),
    ];
    // Bad JSON and bad method close or answer on a fresh connection so a
    // possibly-desynced stream never contaminates the keep-alive records.
    let (status, text) =
        client::request(addr, "POST", "/v1/logits", Some("{not json")).expect("bad json");
    records.push(("malformed_json", status, normalize(&text)));
    let (status, text) = client::request(addr, "PUT", "/v1/logits", Some("{}")).expect("put");
    records.push(("method_not_allowed", status, normalize(&text)));
    records
}

fn render(records: &[(&'static str, u16, String)]) -> String {
    let mut out = String::new();
    for (name, status, body) in records {
        out.push_str(&format!("{name} | {status} | {body}\n"));
    }
    out
}

#[test]
fn v1_responses_byte_identical_to_pre_redesign_fixtures() {
    let (registry, _donn) = fixture_registry();
    let mut server = ServerBuilder::new(registry)
        .bind("127.0.0.1:0")
        .expect("bind");
    let data = Dataset::synthetic(Family::Mnist, 3, 11).resized(GRID);
    let records = exchanges(server.addr(), &data);
    server.shutdown();
    let live = render(&records);

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE_PATH);
    if std::env::var("PHOTONN_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixture dir");
        std::fs::write(&path, &live).expect("write fixtures");
        eprintln!("regenerated {FIXTURE_PATH}");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture file {FIXTURE_PATH}: {e}"));
    for (live_line, committed_line) in live.lines().zip(committed.lines()) {
        assert_eq!(
            live_line, committed_line,
            "/v1 response drifted from the pre-redesign fixture"
        );
    }
    assert_eq!(
        live.lines().count(),
        committed.lines().count(),
        "fixture record count drifted"
    );
}
