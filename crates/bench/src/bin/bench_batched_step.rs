//! Training-step throughput: batched propagation engine vs the per-sample
//! tape oracle.
//!
//! Runs full optimizer steps (gradients + Adam update) of a 3-layer DONN
//! through two gradient paths at each requested grid and reports
//! steps/sec, writing `BENCH_batched_step.json` so successive PRs can
//! track the throughput trajectory:
//!
//! * **per-sample oracle** — one tape per sample;
//! * **batched** — one tape per mini-batch through the planar
//!   radix-8/4/2/5 engine on the grids it covers (all powers of two and
//!   the paper's native 200 = 2³·5² grid).
//!
//! `--grid` and `--threads` may both be repeated: the batched path is
//! timed at every `(grid, threads)` combination — the thread-scaling
//! curve — while the oracle baseline is timed once per grid (it is a
//! diagnostic, not the scaling subject). Every entry carries a
//! `"threads"` field, and the document records the host's `cores` and
//! SIMD kernel table: on a single-core host multi-thread entries measure
//! dispatch overhead, not parallel speedup, and `photonn bench-report`
//! flags them as such. `--paths` selects which gradient paths to time
//! (comma list of `oracle,batched`; default both — the CI
//! regression gate passes `--paths batched` since only the batched
//! metrics are compared, and the bench then reports the delta against the
//! previously committed numbers as `speedup_vs_prior`):
//!
//! ```sh
//! cargo run --release -p photonn-bench --bin bench_batched_step
//! cargo run --release -p photonn-bench --bin bench_batched_step -- \
//!     --grid 200 --batch 50 --threads 1 --threads 2 --threads 4 --paths batched
//! ```
//!
//! `--check-scaling R` turns the run into a gate: it exits nonzero if any
//! multi-thread entry on a host with at least that many cores measures
//! below `R`× the same grid's single-thread entry — the CI enforcement of
//! the thread-scaling claim, skipped (with a loud note) on hosts too
//! small to parallelize.
//!
//! `--trace FILE` runs one extra traced optimizer step per grid *after*
//! the timing windows (so instrumentation never pollutes the numbers) and
//! writes the spans as Chrome trace-event JSON, loadable in Perfetto.
//! `--check-trace-overhead FRAC` gates the `PHOTONN_TRACE=off` contract:
//! it measures the disabled per-call span cost, counts the instrumentation
//! points one step actually crosses, and fails if their product exceeds
//! `FRAC` of the measured single-thread step time (CI passes `0.01` for
//! the documented <1% ceiling).

use photonn_autodiff::Adam;
use photonn_datasets::{Dataset, Family};
use photonn_donn::train::{batched_gradients, per_sample_batch_gradients};
use photonn_donn::{Donn, DonnConfig};
use photonn_math::{simd, Grid, Rng};
use photonn_serve::Json;
use std::time::Instant;

struct Options {
    grids: Vec<usize>,
    batch: usize,
    steps: usize,
    threads: Vec<usize>,
    out: String,
    /// Which gradient paths to time (`oracle`, `batched`). The CI
    /// regression gate only compares the batched metrics, so
    /// `--paths batched` keeps that job from paying for the slow
    /// oracle; untimed paths write 0 and omit speedup fields.
    paths: Paths,
    check_scaling: Option<f64>,
    trace: Option<String>,
    check_trace_overhead: Option<f64>,
}

#[derive(Clone, Copy)]
struct Paths {
    oracle: bool,
    batched: bool,
}

impl Paths {
    fn all() -> Self {
        Paths {
            oracle: true,
            batched: true,
        }
    }

    fn parse(spec: &str) -> Option<Self> {
        let mut p = Paths {
            oracle: false,
            batched: false,
        };
        for part in spec.split(',') {
            match part.trim() {
                "oracle" => p.oracle = true,
                "batched" => p.batched = true,
                _ => return None,
            }
        }
        Some(p)
    }
}

/// This binary backs CI perf gates, so a typo'd flag silently falling
/// back to defaults would make a gate measure (or skip) the wrong
/// configuration while still exiting 0 — unknown flags and unparseable
/// values abort loudly instead.
fn usage_error(message: String) -> ! {
    eprintln!("bench_batched_step: {message}");
    eprintln!(
        "usage: bench_batched_step [--grid N]... [--threads T]... [--batch B] [--steps S]\n\
         \u{20}                        [--paths oracle,batched] [--out FILE]\n\
         \u{20}                        [--check-scaling R] [--trace FILE]\n\
         \u{20}                        [--check-trace-overhead FRAC]"
    );
    std::process::exit(2);
}

fn required<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let value = value.unwrap_or_else(|| usage_error(format!("{flag} requires a value")));
    value
        .parse()
        .unwrap_or_else(|_| usage_error(format!("cannot parse {flag} value '{value}'")))
}

fn parse_options() -> Options {
    let mut opts = Options {
        grids: Vec::new(),
        batch: 50,
        steps: 12,
        threads: Vec::new(),
        out: "BENCH_batched_step.json".to_string(),
        paths: Paths::all(),
        check_scaling: None,
        trace: None,
        check_trace_overhead: None,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).cloned();
        match flag {
            "--grid" => opts.grids.push(required(flag, value)),
            "--threads" => opts.threads.push(required(flag, value)),
            "--batch" => opts.batch = required(flag, value),
            "--steps" => opts.steps = required(flag, value),
            "--paths" => {
                opts.paths = match value.as_deref().and_then(Paths::parse) {
                    Some(p) => p,
                    None => {
                        let got = value.as_deref().unwrap_or("<missing>");
                        usage_error(format!(
                            "--paths takes a comma list of oracle,batched (got '{got}')"
                        ));
                    }
                };
            }
            "--check-scaling" => opts.check_scaling = Some(required(flag, value)),
            "--check-trace-overhead" => opts.check_trace_overhead = Some(required(flag, value)),
            "--trace" => {
                opts.trace =
                    Some(value.unwrap_or_else(|| usage_error("--trace requires a value".into())));
            }
            "--out" => {
                opts.out = value.unwrap_or_else(|| usage_error("--out requires a value".into()));
            }
            other => usage_error(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    if opts.grids.is_empty() {
        opts.grids.push(32);
    }
    if opts.threads.is_empty() {
        opts.threads
            .push(std::thread::available_parallelism().map_or(2, |p| p.get().min(8)));
    }
    // Ascending order so the scaling gate's single-thread reference is
    // timed before (and printed next to) the multi-thread entries.
    opts.threads.sort_unstable();
    opts.threads.dedup();
    opts
}

/// One full optimizer step through a gradient path.
type GradFn =
    fn(&Donn, &Dataset, &[usize], Option<&[std::sync::Arc<Grid>]>, usize) -> (Vec<Grid>, f64);

fn run_steps(
    donn: &mut Donn,
    data: &Dataset,
    batch: &[usize],
    threads: usize,
    steps: usize,
    grad: GradFn,
) -> f64 {
    let mut adam = Adam::new(0.05);
    // Warm-up step outside the timing window (allocator, FFT plan caches).
    let (g, _) = grad(donn, data, batch, None, threads);
    adam.step(donn.masks_mut(), &g);
    let start = Instant::now();
    for _ in 0..steps {
        let (g, _) = grad(donn, data, batch, None, threads);
        adam.step(donn.masks_mut(), &g);
    }
    steps as f64 / start.elapsed().as_secs_f64()
}

/// Throughput numbers at one `(grid, threads)` configuration. The oracle
/// baseline is timed once per grid and recorded on its first entry only
/// (0 elsewhere).
struct Entry {
    grid: usize,
    threads: usize,
    per_sample: f64,
    batched: f64,
}

fn bench_grid(grid: usize, opts: &Options, entries: &mut Vec<Entry>) {
    println!(
        "== bench_batched_step :: grid {grid}x{grid} | batch {0} | threads {1:?} | {2} timed steps per path ==",
        opts.batch, opts.threads, opts.steps
    );
    let data = Dataset::synthetic(Family::Mnist, opts.batch, 42).resized(grid);
    let batch: Vec<usize> = (0..opts.batch).collect();
    let donn = Donn::random(DonnConfig::scaled(grid), &mut Rng::seed_from(42));

    let first_threads = opts.threads[0];
    let mut per_sample = 0.0;
    if opts.paths.oracle {
        per_sample = run_steps(
            &mut donn.clone(),
            &data,
            &batch,
            first_threads,
            opts.steps,
            per_sample_batch_gradients,
        );
        println!("per-sample oracle        : {per_sample:8.3} steps/sec");
    }

    for (k, &threads) in opts.threads.iter().enumerate() {
        let mut batched = 0.0;
        if opts.paths.batched {
            batched = run_steps(
                &mut donn.clone(),
                &data,
                &batch,
                threads,
                opts.steps,
                batched_gradients,
            );
            println!("batched vectorized (t={threads}) : {batched:8.3} steps/sec");
        }
        if k == 0 && opts.paths.oracle && opts.paths.batched {
            println!(
                "speedup                  : {:8.2}x vs oracle",
                batched / per_sample
            );
        }
        entries.push(Entry {
            grid,
            threads,
            per_sample: if k == 0 { per_sample } else { 0.0 },
            batched,
        });
    }
}

/// One traced optimizer step per grid, run *after* every timing window so
/// the instrumentation cannot pollute the committed numbers. Returns the
/// collected trace.
fn traced_steps(grids: &[usize], batch_size: usize, threads: usize) -> photonn_trace::Trace {
    photonn_trace::set_enabled(true);
    photonn_trace::reset();
    for &grid in grids {
        let data = Dataset::synthetic(Family::Mnist, batch_size, 42).resized(grid);
        let batch: Vec<usize> = (0..batch_size).collect();
        let mut donn = Donn::random(DonnConfig::scaled(grid), &mut Rng::seed_from(42));
        let mut adam = Adam::new(0.05);
        let (g, _) = batched_gradients(&donn, &data, &batch, None, threads);
        adam.step(donn.masks_mut(), &g);
    }
    let trace = photonn_trace::collect();
    photonn_trace::set_enabled(false);
    trace
}

/// The disabled-tracing overhead gate. Measures the cost of one
/// `span()` call with tracing off, counts how many instrumentation points
/// (spans + counter bumps) one real step crosses, and compares their
/// product against the step time the timing window measured. Returns
/// `false` on failure.
fn check_trace_overhead(frac: f64, entries: &[Entry], opts: &Options) -> bool {
    // The gate needs a measured step time: the first grid's slowest-thread
    // batched entry.
    let Some(entry) = entries.iter().find(|e| e.batched > 0.0) else {
        println!("check-trace-overhead: no batched entry was timed (--paths), skipping");
        return true;
    };
    let step_s = 1.0 / entry.batched;

    // Disabled per-call cost: one relaxed atomic load + branch. Millions
    // of iterations so the measurement rises above timer noise.
    photonn_trace::set_enabled(false);
    const CALLS: u64 = 20_000_000;
    let start = Instant::now();
    for _ in 0..CALLS {
        let _s = photonn_trace::span("gate.probe");
    }
    let per_call_s = start.elapsed().as_secs_f64() / CALLS as f64;

    // Instrumentation points per step: run one step traced and count the
    // events plus counter increments it produced. reset() zeroes the
    // counters, so the post-step sum is exactly this step's increments.
    photonn_trace::set_enabled(true);
    photonn_trace::reset();
    {
        let data = Dataset::synthetic(Family::Mnist, opts.batch, 42).resized(entry.grid);
        let batch: Vec<usize> = (0..opts.batch).collect();
        let mut donn = Donn::random(DonnConfig::scaled(entry.grid), &mut Rng::seed_from(42));
        let mut adam = Adam::new(0.05);
        let (g, _) = batched_gradients(&donn, &data, &batch, None, entry.threads);
        adam.step(donn.masks_mut(), &g);
    }
    let trace = photonn_trace::collect();
    photonn_trace::set_enabled(false);
    let bumps: u64 = trace.counters.iter().map(|(_, v)| v).sum();
    let ops = trace.events.len() as u64 + bumps;

    let overhead_s = per_call_s * ops as f64;
    let ratio = overhead_s / step_s;
    let verdict = if ratio < frac { "ok" } else { "FAILED" };
    println!(
        "check-trace-overhead {verdict}: grid {} threads {}: {ops} instrumentation points \
         x {:.2} ns/call = {:.3} us disabled overhead vs {:.3} ms step ({:.4}% < {:.2}%{})",
        entry.grid,
        entry.threads,
        per_call_s * 1e9,
        overhead_s * 1e6,
        step_s * 1e3,
        ratio * 100.0,
        frac * 100.0,
        if ratio < frac { "" } else { " VIOLATED" }
    );
    ratio < frac
}

/// Single-thread `batched_steps_per_sec` per grid from the previously
/// committed output file, so a refreshed run can report its delta against
/// the prior PR's engine in the same document. Entries without a
/// `threads` field predate the thread sweep and were single-thread runs.
fn prior_throughput(path: &str) -> Vec<(usize, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return Vec::new();
    };
    doc.get("entries")
        .and_then(Json::as_array)
        .map(|entries| {
            entries
                .iter()
                .filter(|e| e.get("threads").and_then(Json::as_usize).unwrap_or(1) == 1)
                .filter_map(|e| {
                    Some((
                        e.get("grid").and_then(Json::as_usize)?,
                        e.get("batched_steps_per_sec").and_then(Json::as_f64)?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn main() {
    let opts = parse_options();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let kernels = simd::active();
    println!(
        "host: {cores} core(s) | simd kernel table '{}' ({:?})",
        kernels.name,
        simd::cpu_features()
    );
    // Snapshot the committed numbers before this run overwrites them.
    let prior = prior_throughput(&opts.out);
    let mut entries: Vec<Entry> = Vec::new();
    for &g in &opts.grids {
        bench_grid(g, &opts, &mut entries);
    }

    let body: Vec<String> = entries
        .iter()
        .map(|e| {
            let mut fields = format!(
                "    {{\n      \"grid\": {},\n      \"threads\": {}",
                e.grid, e.threads
            );
            if e.per_sample > 0.0 {
                fields.push_str(&format!(
                    ",\n      \"per_sample_steps_per_sec\": {:.4}",
                    e.per_sample
                ));
            }
            if opts.paths.batched {
                fields.push_str(&format!(
                    ",\n      \"batched_steps_per_sec\": {:.4}",
                    e.batched
                ));
            }
            if e.per_sample > 0.0 && opts.paths.batched {
                fields.push_str(&format!(
                    ",\n      \"speedup_vs_oracle\": {:.4}",
                    e.batched / e.per_sample
                ));
            }
            let prior_entry = (opts.paths.batched && e.threads == 1)
                .then(|| prior.iter().find(|(g, _)| *g == e.grid))
                .flatten();
            if let Some(&(_, prev)) = prior_entry {
                println!(
                    "grid {} (t=1): {:.3} steps/sec vs {:.3} prior ({:.2}x)",
                    e.grid,
                    e.batched,
                    prev,
                    e.batched / prev
                );
                fields.push_str(&format!(
                    ",\n      \"prior_batched_steps_per_sec\": {:.4},\n      \"speedup_vs_prior\": {:.4}",
                    prev,
                    e.batched / prev
                ));
            }
            fields.push_str("\n    }");
            fields
        })
        .collect();
    let features: Vec<String> = simd::cpu_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"batched_step\",\n  \"batch\": {},\n  \"timed_steps\": {},\n  \"cores\": {},\n  \"simd\": \"{}\",\n  \"cpu_features\": [{}],\n  \"entries\": [\n{}\n  ]\n}}\n",
        opts.batch,
        opts.steps,
        cores,
        kernels.name,
        features.join(", "),
        body.join(",\n")
    );
    match std::fs::write(&opts.out, &json) {
        Ok(()) => println!("wrote {}", opts.out),
        Err(e) => eprintln!("could not write {}: {e}", opts.out),
    }

    if let Some(path) = &opts.trace {
        let trace = traced_steps(&opts.grids, opts.batch, opts.threads[0]);
        match std::fs::write(path, trace.to_chrome_json()) {
            Ok(()) => println!("wrote trace: {} span events -> {path}", trace.events.len()),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        println!("\n{}", trace.render_table());
    }

    if let Some(frac) = opts.check_trace_overhead {
        if !check_trace_overhead(frac, &entries, &opts) {
            std::process::exit(1);
        }
    }

    if let Some(floor) = opts.check_scaling {
        let mut failed = false;
        let mut checked = false;
        for e in entries.iter().filter(|e| e.threads > 1) {
            let Some(single) = entries
                .iter()
                .find(|s| s.grid == e.grid && s.threads == 1 && s.batched > 0.0)
            else {
                println!(
                    "check-scaling: grid {} threads {}: no single-thread entry to compare \
                     against (pass --threads 1 too), skipping",
                    e.grid, e.threads
                );
                continue;
            };
            let speedup = e.batched / single.batched;
            if cores < e.threads {
                println!(
                    "check-scaling: grid {} threads {}: only {cores} core(s) — parallel \
                     speedup is not measurable here, skipping the {floor}x gate",
                    e.grid, e.threads
                );
            } else if speedup < floor {
                eprintln!(
                    "check-scaling FAILED: grid {} threads {}: {speedup:.2}x < {floor}x",
                    e.grid, e.threads
                );
                checked = true;
                failed = true;
            } else {
                println!(
                    "check-scaling ok: grid {} threads {}: {speedup:.2}x >= {floor}x",
                    e.grid, e.threads
                );
                checked = true;
            }
        }
        if !checked && !failed {
            println!("check-scaling: no multi-thread entry was gate-eligible on this host");
        }
        if failed {
            std::process::exit(1);
        }
    }
}
