//! The `photonn` command-line facade.
//!
//! Subcommands:
//!
//! ```sh
//! photonn serve [--addr 127.0.0.1:7878] [--grid 32] [--epochs 0]
//!               [--max-batch 16] [--max-wait-us 2000] [--queue-cap 256]
//!               [--threads N] [--cache-mb 64] [--levels 8] [--crosstalk 0.1]
//!               [--noise-sigma 0.05] [--shards N] [--retry-after-ms 50]
//!               [--max-connections 8192]
//! photonn train [--grid 32] [--samples 600] [--epochs 3] [--batch 25]
//!               [--lr 0.05] [--seed 7] [--workers N] [--threads T]
//!               [--peers host:port,host:port,...] [--hostfile PATH]
//!               [--min-workers N] [--trace out.json]
//! photonn dist-worker [--addr 127.0.0.1:0] [--threads T] [--keep-alive]
//! photonn bench-report [--dir .] [--trace FILE [--require a,b,c]]
//! ```
//!
//! `serve` trains (optionally) a DONN on synthetic digits, registers the
//! ideal model plus its quantized, crosstalk-deployed, and
//! phase-noise-injected variants, and serves them over HTTP until the
//! process is killed (see `examples/serve_digits.rs`): `/v1/logits` is
//! the original single-sample wire format, `/v2/logits` accepts batched
//! inputs with per-request model and readout-head selection, and
//! `--shards` sets how many dispatcher threads take batches from the one
//! shared queue. `train` runs the sharded data-parallel
//! trainer — in-process worker threads by default, or rank-0-plus-peers
//! over loopback TCP when `--peers` lists `dist-worker` processes (see
//! `examples/dist_digits.rs`); `--trace out.json` turns on `photonn-trace`
//! and writes a Chrome trace-event file loadable in Perfetto or
//! `chrome://tracing`, plus the aggregate span table on stdout (setting
//! `PHOTONN_TRACE=on` prints the table without writing a file).
//! `bench-report` renders the committed `BENCH_*.json` trackers as
//! markdown for a CI job summary; `--trace FILE` instead renders a trace
//! file's aggregate span table, and `--require` fails the process when a
//! comma-listed span name is absent (the CI trace-smoke gate).

use photonn::datasets::{Dataset, Family};
use photonn::dist::{serve_peer_forever, serve_peer_once, train_with_sharded, DistConfig};
use photonn::donn::train::{train, TrainOptions};
use photonn::donn::{deploy::FabricationModel, Donn, DonnConfig};
use photonn::math::Rng;
use photonn::serve::{BatchPolicy, ModelRegistry, ServeConfig, ServerBuilder};

struct ServeOptions {
    addr: String,
    grid: usize,
    epochs: usize,
    max_batch: usize,
    max_wait_us: u64,
    queue_cap: usize,
    threads: usize,
    cache_mb: usize,
    levels: usize,
    crosstalk: f64,
    noise_sigma: f64,
    shards: usize,
    retry_after_ms: u64,
    max_connections: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let policy = BatchPolicy::default();
        let serve = ServeConfig::default();
        ServeOptions {
            addr: "127.0.0.1:7878".to_string(),
            grid: 32,
            epochs: 0,
            max_batch: policy.max_batch,
            max_wait_us: policy.max_wait_us,
            queue_cap: policy.queue_capacity,
            threads: policy.threads,
            cache_mb: 64,
            levels: 8,
            crosstalk: 0.1,
            noise_sigma: 0.05,
            shards: serve.shards,
            retry_after_ms: serve.retry_after_ms,
            max_connections: serve.max_connections,
        }
    }
}

/// A server misconfigured by a silently ignored typo is worse than no
/// server: unknown flags, missing values and unparseable values all abort
/// with a usage error instead of falling back to defaults.
fn usage_error(message: String) -> ! {
    eprintln!("photonn serve: {message}");
    eprintln!("usage: photonn serve [--addr A] [--grid N] [--epochs E] [--max-batch B]");
    eprintln!("                     [--max-wait-us U] [--queue-cap Q] [--threads T]");
    eprintln!("                     [--cache-mb M] [--levels L] [--crosstalk K]");
    eprintln!("                     [--noise-sigma S] [--shards N] [--retry-after-ms R]");
    eprintln!("                     [--max-connections C]");
    std::process::exit(2);
}

/// Parses a flag value, aborting through the *calling subcommand's* usage
/// function on a missing or unparseable value — each subcommand keeps its
/// own flag list in the error output.
fn parsed_or<T: std::str::FromStr>(flag: &str, value: Option<String>, usage: fn(String) -> !) -> T {
    let value = value.unwrap_or_else(|| usage(format!("{flag} requires a value")));
    if value.starts_with("--") {
        usage(format!("{flag} requires a value, found flag '{value}'"));
    }
    value
        .parse()
        .unwrap_or_else(|_| usage(format!("cannot parse {flag} value '{value}'")))
}

fn parsed<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    parsed_or(flag, value, usage_error)
}

fn parse_serve_options(args: &[String]) -> ServeOptions {
    let mut opts = ServeOptions::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).cloned();
        match flag {
            "--addr" => {
                opts.addr = value.unwrap_or_else(|| usage_error("--addr requires a value".into()));
            }
            "--grid" => opts.grid = parsed(flag, value),
            "--epochs" => opts.epochs = parsed(flag, value),
            "--max-batch" => opts.max_batch = parsed(flag, value),
            "--max-wait-us" => opts.max_wait_us = parsed(flag, value),
            "--queue-cap" => opts.queue_cap = parsed(flag, value),
            "--threads" => opts.threads = parsed(flag, value),
            "--cache-mb" => opts.cache_mb = parsed(flag, value),
            "--levels" => opts.levels = parsed(flag, value),
            "--crosstalk" => opts.crosstalk = parsed(flag, value),
            "--noise-sigma" => opts.noise_sigma = parsed(flag, value),
            "--shards" => opts.shards = parsed(flag, value),
            "--retry-after-ms" => opts.retry_after_ms = parsed(flag, value),
            "--max-connections" => opts.max_connections = parsed(flag, value),
            other => usage_error(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    opts
}

fn serve(args: &[String]) {
    let opts = parse_serve_options(args);
    let mut rng = Rng::seed_from(7);
    let mut donn = Donn::random(DonnConfig::scaled(opts.grid), &mut rng);
    if opts.epochs > 0 {
        println!("training {} epoch(s) on synthetic digits...", opts.epochs);
        let data = Dataset::synthetic(Family::Mnist, 600, 7).resized(opts.grid);
        let train_opts = TrainOptions {
            epochs: opts.epochs,
            batch_size: 25,
            ..TrainOptions::default()
        };
        train(&mut donn, &data, &train_opts);
        println!(
            "train accuracy: {:.1}%",
            donn.accuracy(&data, opts.threads) * 100.0
        );
    }

    let mut registry = ModelRegistry::new();
    registry.register("ideal", donn.clone());
    registry.register_quantized(format!("quantized{}", opts.levels), &donn, opts.levels);
    registry.register_deployed("deployed", &donn, FabricationModel::new(opts.crosstalk));
    registry.register_noise_injected("noisy", &donn, opts.noise_sigma, 7);

    let server = ServerBuilder::new(registry)
        .policy(BatchPolicy {
            max_batch: opts.max_batch,
            max_wait_us: opts.max_wait_us,
            queue_capacity: opts.queue_cap,
            threads: opts.threads,
        })
        .cache_budget_bytes(opts.cache_mb << 20)
        .shards(opts.shards)
        .retry_after_ms(opts.retry_after_ms)
        .max_connections(opts.max_connections)
        .bind(opts.addr.as_str())
        .unwrap_or_else(|e| {
            eprintln!("cannot bind {}: {e}", opts.addr);
            std::process::exit(1);
        });
    println!("photonn-serve listening on http://{}", server.addr());
    println!("  GET  /healthz");
    println!("  GET  /models");
    println!("  GET  /metrics");
    println!(
        "  POST /v1/logits   {{\"model\": \"ideal\", \"image\": [<{0}x{0} values>]}}",
        opts.grid
    );
    println!("  GET  /v2/models");
    println!(
        "  POST /v2/logits   {{\"model\": \"ideal\", \"head\": \"sum\", \"inputs\": [<images>]}}"
    );
    println!(
        "policy: max_batch {} | max_wait {} us | queue {} | {} threads | cache {} MiB",
        opts.max_batch, opts.max_wait_us, opts.queue_cap, opts.threads, opts.cache_mb
    );
    println!(
        "frontend: {} shard(s) | retry-after {} ms | max {} conns",
        opts.shards, opts.retry_after_ms, opts.max_connections
    );
    // Serve until the process is killed; the handle's Drop shuts down.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

// ------------------------------------------------------------------ train

struct TrainCliOptions {
    grid: usize,
    samples: usize,
    epochs: usize,
    batch: usize,
    lr: f64,
    seed: u64,
    workers: usize,
    threads: usize,
    peers: Vec<String>,
    hostfile: Option<String>,
    min_workers: usize,
    trace: Option<String>,
}

impl Default for TrainCliOptions {
    fn default() -> Self {
        TrainCliOptions {
            grid: 32,
            samples: 600,
            epochs: 3,
            batch: 25,
            lr: 0.05,
            seed: 7,
            workers: 1,
            threads: 1,
            peers: Vec::new(),
            hostfile: None,
            min_workers: 1,
            trace: None,
        }
    }
}

fn train_usage_error(message: String) -> ! {
    eprintln!("photonn train: {message}");
    eprintln!("usage: photonn train [--grid N] [--samples S] [--epochs E] [--batch B]");
    eprintln!("                     [--lr LR] [--seed S] [--workers N] [--threads T]");
    eprintln!("                     [--peers host:port,host:port,...] [--hostfile PATH]");
    eprintln!("                     [--min-workers N] [--trace out.json]");
    std::process::exit(2);
}

fn parse_train_options(args: &[String]) -> TrainCliOptions {
    let mut opts = TrainCliOptions::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).cloned();
        match flag {
            "--grid" => opts.grid = parsed_or(flag, value, train_usage_error),
            "--samples" => opts.samples = parsed_or(flag, value, train_usage_error),
            "--epochs" => opts.epochs = parsed_or(flag, value, train_usage_error),
            "--batch" => opts.batch = parsed_or(flag, value, train_usage_error),
            "--lr" => opts.lr = parsed_or(flag, value, train_usage_error),
            "--seed" => opts.seed = parsed_or(flag, value, train_usage_error),
            "--workers" => opts.workers = parsed_or(flag, value, train_usage_error),
            "--threads" => opts.threads = parsed_or(flag, value, train_usage_error),
            "--trace" => {
                opts.trace = Some(
                    value.unwrap_or_else(|| train_usage_error("--trace requires a value".into())),
                );
            }
            "--peers" => {
                let list: String =
                    value.unwrap_or_else(|| train_usage_error("--peers requires a value".into()));
                opts.peers = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--hostfile" => {
                opts.hostfile =
                    Some(value.unwrap_or_else(|| {
                        train_usage_error("--hostfile requires a value".into())
                    }));
            }
            "--min-workers" => opts.min_workers = parsed_or(flag, value, train_usage_error),
            other => train_usage_error(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    opts
}

fn train_cmd(args: &[String]) {
    let opts = parse_train_options(args);
    // --trace forces tracing on; bare PHOTONN_TRACE=on still prints the
    // aggregate table at the end without writing a file.
    if opts.trace.is_some() {
        photonn::trace::set_enabled(true);
    }
    let tracing = photonn::trace::enabled();
    // --hostfile and --peers both name the peer topology; giving both
    // would leave shard order ambiguous, so refuse.
    if opts.hostfile.is_some() && !opts.peers.is_empty() {
        train_usage_error("--hostfile and --peers are mutually exclusive".into());
    }
    let peers = match &opts.hostfile {
        Some(path) => photonn::dist::load_hostfile(path).unwrap_or_else(|e| {
            eprintln!("photonn train: {e}");
            std::process::exit(1);
        }),
        None => opts.peers.clone(),
    };
    // In peer mode the shard count is fixed by the topology: rank 0 plus
    // one shard per peer.
    let workers = if peers.is_empty() {
        opts.workers
    } else {
        peers.len() + 1
    };
    if opts.min_workers > workers {
        train_usage_error(format!(
            "--min-workers {} exceeds the starting worker count {workers}",
            opts.min_workers
        ));
    }
    let dist = DistConfig {
        workers,
        threads_per_worker: opts.threads,
        peers,
        min_workers: opts.min_workers,
        ..DistConfig::default()
    };
    println!(
        "training on synthetic digits: grid {} | {} samples | {} epochs | batch {} | {} worker(s){}",
        opts.grid,
        opts.samples,
        opts.epochs,
        opts.batch,
        dist.workers,
        if dist.peers.is_empty() {
            " (in-process)".to_string()
        } else {
            format!(" (rank 0 + peers {})", dist.peers.join(", "))
        }
    );
    let data = Dataset::synthetic(Family::Mnist, opts.samples, opts.seed).resized(opts.grid);
    let mut rng = Rng::seed_from(opts.seed);
    let mut donn = Donn::random(DonnConfig::scaled(opts.grid), &mut rng);
    let train_opts = TrainOptions {
        epochs: opts.epochs,
        batch_size: opts.batch,
        learning_rate: opts.lr,
        seed: opts.seed,
        ..TrainOptions::default()
    };
    let start = std::time::Instant::now();
    let mut hook = |s: &photonn::donn::train::EpochStats| {
        println!(
            "epoch {}: mean loss {:.6} | grad norm {:.4} | {:.2} steps/sec | {:.1}% phase saturation",
            s.epoch,
            s.mean_loss,
            s.grad_norm,
            s.steps_per_sec,
            s.phase_saturation * 100.0
        );
    };
    if let Err(e) = train_with_sharded(
        &mut donn,
        &data,
        &train_opts,
        None,
        None,
        &dist,
        Some(&mut hook),
    ) {
        eprintln!("photonn train: {e}");
        std::process::exit(1);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let steps = opts.epochs * opts.samples.div_ceil(opts.batch);
    println!(
        "trained {steps} steps in {elapsed:.1}s ({:.2} steps/sec) | train accuracy {:.1}%",
        steps as f64 / elapsed,
        donn.accuracy(&data, opts.threads) * 100.0
    );
    if tracing {
        let trace = photonn::trace::collect();
        if let Some(path) = &opts.trace {
            if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
                eprintln!("photonn train: cannot write trace {path}: {e}");
                std::process::exit(1);
            }
            println!(
                "trace: {} span events -> {path} (load in Perfetto or chrome://tracing)",
                trace.events.len()
            );
        }
        println!("\n{}", trace.render_table());
    }
}

// ------------------------------------------------------------ dist-worker

fn dist_worker_usage_error(message: String) -> ! {
    eprintln!("photonn dist-worker: {message}");
    eprintln!("usage: photonn dist-worker [--addr A] [--threads T] [--keep-alive]");
    std::process::exit(2);
}

fn dist_worker_cmd(args: &[String]) {
    let mut addr = "127.0.0.1:0".to_string();
    let mut threads = 1usize;
    let mut keep_alive = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--addr" => {
                addr = args
                    .get(i + 1)
                    .cloned()
                    .unwrap_or_else(|| dist_worker_usage_error("--addr requires a value".into()));
                i += 2;
            }
            "--threads" => {
                threads = parsed_or(flag, args.get(i + 1).cloned(), dist_worker_usage_error);
                i += 2;
            }
            "--keep-alive" => {
                keep_alive = true;
                i += 1;
            }
            other => dist_worker_usage_error(format!("unknown flag '{other}'")),
        }
    }
    let listener = std::net::TcpListener::bind(addr.as_str()).unwrap_or_else(|e| {
        eprintln!("photonn dist-worker: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    // Machine-parseable: coordinators read this line to learn the actual
    // port when launched with :0 (see examples/dist_digits.rs).
    println!("PEER_ADDR={}", listener.local_addr().expect("bound socket"));
    let result = if keep_alive {
        serve_peer_forever(&listener, threads)
    } else {
        serve_peer_once(&listener, threads)
    };
    if let Err(e) = result {
        eprintln!("photonn dist-worker: {e}");
        std::process::exit(1);
    }
}

// ------------------------------------------------------------ bench-report

fn bench_report_usage_error(message: String) -> ! {
    eprintln!("photonn bench-report: {message}");
    eprintln!("usage: photonn bench-report [--dir PATH] [--trace FILE [--require a,b,c]]");
    std::process::exit(2);
}

fn bench_report_cmd(args: &[String]) {
    let mut dir = ".".to_string();
    let mut trace: Option<String> = None;
    let mut require: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                bench_report_usage_error(format!("{} requires a value", args[i]))
            })
        };
        match args[i].as_str() {
            "--dir" => dir = value(),
            "--trace" => trace = Some(value()),
            "--require" => {
                require = value()
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            other => bench_report_usage_error(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    if !require.is_empty() && trace.is_none() {
        bench_report_usage_error("--require needs --trace".into());
    }
    // --trace renders (and optionally validates) one trace file instead of
    // the committed benchmark trackers.
    if let Some(path) = trace {
        let path = std::path::Path::new(&path);
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("photonn bench-report: cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        let doc = photonn::wire::Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("photonn bench-report: {}: {e}", path.display());
            std::process::exit(1);
        });
        let markdown = photonn::bench::report::render_trace_doc(&doc).unwrap_or_else(|e| {
            eprintln!("photonn bench-report: {}: {e}", path.display());
            std::process::exit(1);
        });
        print!("{markdown}");
        if !require.is_empty() {
            let names = photonn::bench::report::trace_span_names(&doc).expect("rendered above");
            let missing: Vec<&String> = require.iter().filter(|r| !names.contains(r)).collect();
            if !missing.is_empty() {
                eprintln!(
                    "photonn bench-report: trace {} is missing required span(s): {}",
                    path.display(),
                    missing
                        .iter()
                        .map(|s| s.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(1);
            }
            println!("\nall {} required spans present", require.len());
        }
        return;
    }
    match photonn::bench::report::render_dir(std::path::Path::new(&dir)) {
        Ok(markdown) => print!("{markdown}"),
        Err(e) => {
            eprintln!("photonn bench-report: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("serve") => serve(&args[2..]),
        Some("train") => train_cmd(&args[2..]),
        Some("dist-worker") => dist_worker_cmd(&args[2..]),
        Some("bench-report") => bench_report_cmd(&args[2..]),
        _ => {
            eprintln!("usage: photonn <serve|train|dist-worker|bench-report> [options]");
            eprintln!("       (see src/main.rs header for per-subcommand flags)");
            std::process::exit(2);
        }
    }
}
