//! # photonn-perfbench
//!
//! The repository's benchmark: one command, three workloads, each loading
//! a different layer of photonn so every optimisation has one workload
//! that exercises it and one that bypasses it.
//!
//! * `paper_table` — the scaled Table II (MNIST) at one FFT thread: tape
//!   bookkeeping on small grids, regularizer gradients, SLR and 2π.
//! * `train_g200` — grid-200 training steps, in process and over loopback
//!   TCP from the same seeded model: FFT column passes, plus the JSON wire
//!   on the TCP phase only.
//! * `serve_g32` — the default-config server under one generator thread:
//!   event loop, HTTP/JSON decode, shard dispatch, first-hop cache.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_table --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run; every workload reports every metric
//! (`METRICS.md` says what each means per workload). The last line of
//! standard output is the result object; the line before it carries
//! sample counts, host health and the name of every failed check. A
//! failed output check makes the exit code nonzero; failed operations
//! (refused or lost requests, failed TCP steps) are counted in `failed`.

#![forbid(unsafe_code)]

mod httpframe;
mod loadgen;
mod paper;
mod procfs;
mod report;
mod serve;
mod spans;
mod stats;
mod train;

use report::Report;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload paper_table|train_g200|serve_g32 \
                     --seed N --seconds S --trace 0|1";

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Scaled Table II at one FFT thread.
    PaperTable,
    /// Grid-200 training, in process and over TCP.
    TrainG200,
    /// Default-config grid-32 serving.
    ServeG32,
}

/// Parsed command line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// The measurement budget as a duration.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "paper_table" => Workload::PaperTable,
                    "train_g200" => Workload::TrainG200,
                    "serve_g32" => Workload::ServeG32,
                    _ => return Err(bad("unknown workload")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs `setup` `times` times and returns the median wall time in seconds
/// with the last result; earlier results are dropped (torn down) in turn.
/// Repeating makes `setup_s` a median rather than one sample.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        walls.push(start.elapsed().as_secs_f64());
    }
    (stats::median(&walls), last.expect("at least one setup"))
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let steal_meter = procfs::StealMeter::start();
    let net_before = procfs::net_now();
    let mut report = Report::default();
    match args.workload {
        Workload::PaperTable => paper::run(&args, &mut report),
        Workload::TrainG200 => train::run(&args, &mut report),
        Workload::ServeG32 => serve::run(&args, &mut report),
    }

    let steal = steal_meter.pct();
    let net = procfs::net_now().since(net_before);
    let peak_rss = procfs::peak_rss_mb();
    report.check(peak_rss.is_some(), "VmHWM readable from /proc/self/status");
    if args.trace {
        report.metric("host.steal_pct", steal);
        report.metric("net.listen_overflows", net.listen_overflows as f64);
        report.metric("net.syn_retrans", net.syn_retrans as f64);
    } else {
        report.metric("peak_rss_mb", peak_rss.unwrap_or(f64::NAN));
    }
    report.finish(args.trace);
    report.detail_num("seed", args.seed as f64);
    report.detail_num("seconds", args.seconds);
    report.detail_num(
        "nproc",
        std::thread::available_parallelism().map_or(0, |p| p.get()) as f64,
    );
    report.detail_str("simd", photonn_math::simd::active().name);
    report.detail_num("host.steal_pct", steal);
    report.detail_num("net.listen_overflows", net.listen_overflows as f64);
    report.detail_num("net.syn_retrans", net.syn_retrans as f64);
    println!("{}", report.detail_line());
    println!("{}", report.result_line(args.trace));
    std::process::exit(if report.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload serve_g32 --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeG32);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
    }

    #[test]
    fn rejects_missing_unknown_and_malformed_flags() {
        assert!(parse("--workload paper_table --seed 1 --seconds 5").is_err());
        assert!(parse("--workload nope --seed 1 --seconds 5 --trace 0").is_err());
        assert!(parse("--workload paper_table --seed -1 --seconds 5 --trace 0").is_err());
        assert!(parse("--workload paper_table --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload paper_table --seed 1 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload paper_table --seed 1 --seconds 5 --trace 0 --x 1").is_err());
        assert!(parse("--workload paper_table --seed").is_err());
    }

    #[test]
    fn repeat_setup_keeps_the_last_result() {
        let mut n = 0;
        let (secs, last) = repeat_setup(3, || {
            n += 1;
            n
        });
        assert_eq!(last, 3);
        assert!(secs >= 0.0);
    }
}
