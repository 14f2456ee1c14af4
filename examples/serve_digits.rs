//! Train → register → serve → query: the full serving round trip on one
//! machine.
//!
//! Trains a small DONN on synthetic digits, registers the trained model
//! alongside its quantized and crosstalk-deployed variants, starts the
//! inference server on a loopback port via [`ServerBuilder`], and
//! queries every variant with a test digit over real HTTP — `/v1` for
//! the single-sample wire format and `/v2` for batched inputs with
//! readout-head selection.
//!
//! ```sh
//! cargo run --release --example serve_digits            # full demo
//! cargo run --release --example serve_digits -- --smoke # CI smoke: one
//! # untrained model, one request, assert HTTP 200 with 10 logits
//! ```

use photonn::datasets::{Dataset, Family};
use photonn::donn::train::{train, TrainOptions};
use photonn::donn::{deploy::FabricationModel, Donn, DonnConfig};
use photonn::math::{Grid, Rng};
use photonn::serve::{client, BatchPolicy, Json, ModelRegistry, ServerBuilder};

const GRID: usize = 32;

fn image_body(model: Option<&str>, image: &Grid) -> String {
    let mut pairs = Vec::new();
    if let Some(name) = model {
        pairs.push(("model".to_string(), Json::Str(name.into())));
    }
    pairs.push(("image".to_string(), Json::numbers(image.as_slice())));
    Json::object(pairs).to_string()
}

fn smoke() {
    let mut rng = Rng::seed_from(7);
    let donn = Donn::random(DonnConfig::scaled(GRID), &mut rng);
    let mut registry = ModelRegistry::new();
    registry.register("ideal", donn.clone());
    let mut server = ServerBuilder::new(registry)
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    println!("smoke server on {}", server.addr());

    let digit = Dataset::synthetic(Family::Mnist, 1, 3)
        .resized(GRID)
        .image(0)
        .clone();
    let (status, body) = client::request(
        server.addr(),
        "POST",
        "/v1/logits",
        Some(&image_body(None, &digit)),
    )
    .expect("request");
    assert_eq!(status, 200, "expected HTTP 200, got {status}: {body}");
    let doc = Json::parse(&body).expect("valid JSON response");
    let logits = doc
        .get("logits")
        .and_then(Json::as_array)
        .expect("logits array");
    assert_eq!(logits.len(), 10, "expected 10 logits");
    let served: Vec<f64> = logits.iter().map(|v| v.as_f64().expect("number")).collect();
    assert_eq!(
        served,
        donn.logits(&digit),
        "served logits not bit-identical"
    );
    server.shutdown();
    println!("smoke ok: HTTP 200 with 10 bit-identical logits");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    // 1. Train a small model on synthetic digits.
    let data = Dataset::synthetic(Family::Mnist, 600, 7).resized(GRID);
    let (train_set, test_set) = data.split(500);
    let mut rng = Rng::seed_from(7);
    let mut donn = Donn::random(DonnConfig::scaled(GRID), &mut rng);
    let opts = TrainOptions {
        epochs: 2,
        batch_size: 25,
        ..TrainOptions::default()
    };
    println!(
        "training 2 epochs on {} synthetic digits...",
        train_set.len()
    );
    train(&mut donn, &train_set, &opts);
    println!("test accuracy: {:.1}%", donn.accuracy(&test_set, 4) * 100.0);

    // 2. Register the trained model and two hardware-facing variants.
    let mut registry = ModelRegistry::new();
    registry.register("ideal", donn.clone());
    registry.register_quantized("quantized8", &donn, 8);
    registry.register_deployed("deployed", &donn, FabricationModel::new(0.1));

    // 3. Serve on a loopback port: dynamic batching by two dispatcher
    //    threads over one shared queue.
    let mut server = ServerBuilder::new(registry)
        .policy(BatchPolicy {
            max_batch: 16,
            max_wait_us: 2_000,
            ..BatchPolicy::default()
        })
        .shards(2)
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    println!("serving on http://{}\n", server.addr());

    // 4. Query every variant with the same test digit over a keep-alive
    //    typed client.
    let digit = test_set.image(0);
    let truth = test_set.label(0);
    let mut api = client::Client::new(server.addr());
    let (_, models) = api.request("GET", "/models", None).expect("models");
    println!("GET /models -> {models}\n");
    for name in ["ideal", "quantized8", "deployed"] {
        let reply = api.logits_v1(Some(name), digit).expect("v1 inference");
        println!(
            "{name:>11}: class {} (truth {truth}) | {:.0} us",
            reply.class, reply.latency_us
        );
    }

    // 5. The same digit through /v2: one batched request, three copies,
    //    differential readout head.
    let batch = api
        .logits_v2(Some("ideal"), Some("differential"), &[digit, digit, digit])
        .expect("v2 inference");
    println!(
        "\nPOST /v2/logits (head {}): {} results, class {} | {:.0} us",
        batch.head,
        batch.results.len(),
        batch.results[0].class,
        batch.latency_us
    );
    let (_, metrics) = api.request("GET", "/metrics", None).expect("metrics");
    println!("\nGET /metrics -> {metrics}");
    server.shutdown();
}
