//! Perf-regression comparison over the committed `BENCH_*.json` baselines.
//!
//! The CI `bench-regression` job re-runs `bench_batched_step` and
//! `bench_serving` on the PR (best-of-N to tolerate runner noise, a single
//! pinned grid to bound wall clock) and feeds the fresh documents plus the
//! committed baseline to [`compare`]: every headline throughput metric —
//! training `batched_steps_per_sec`, serving dynamic-policy `req_per_sec`
//! — present in *both* documents must stay above
//! `baseline · (1 − tolerance)`. The result renders as a markdown table
//! for the job summary (see the `bench_compare` binary).
//!
//! Only the headline metrics gate: baseline columns like the per-sample
//! oracle are diagnostics, not service-level numbers, and may
//! legitimately move as the engine evolves.

use photonn_serve::Json;

/// One `(grid, metric)` throughput sample extracted from a bench document.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSample {
    /// Grid side length the number was measured at.
    pub grid: usize,
    /// Metric name (`batched_steps_per_sec`, `dynamic_req_per_sec`).
    pub metric: String,
    /// The measured throughput (higher is better).
    pub value: f64,
}

/// One baseline-vs-fresh verdict produced by [`compare`].
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// Grid side length.
    pub grid: usize,
    /// Metric name.
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Best value across the fresh runs.
    pub best: f64,
    /// `best / baseline`.
    pub ratio: f64,
    /// `true` if `best ≥ baseline · (1 − tolerance)`.
    pub pass: bool,
}

/// Extracts the headline throughput metrics from a parsed `BENCH_*.json`
/// document. Understands the three trackers:
///
/// * `bench_batched_step` — one `batched_steps_per_sec` per `entries[]`
///   grid; thread-sweep entries (`"threads" > 1`) gate independently
///   under `batched_steps_per_sec_t{N}`, while single-thread entries —
///   including pre-sweep documents with no `threads` field — keep the
///   bare name so refreshed baselines stay comparable across schema
///   generations;
/// * `bench_serving` — the `dynamic` policy's `req_per_sec` per grid,
///   from the multi-grid `entries[]` schema or the legacy single-grid
///   top-level layout;
/// * `bench_dist_step` — one `sharded_steps_per_sec` per
///   grid/batch/worker configuration, the batch and worker count encoded
///   into the metric name (`sharded_steps_per_sec_b50_w2`) so every
///   configuration gates independently.
///
/// # Errors
///
/// Returns a description when the document is not a recognized bench
/// format.
pub fn headline_metrics(doc: &Json) -> Result<Vec<MetricSample>, String> {
    let kind = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing \"bench\" field")?;
    match kind {
        "batched_step" => {
            let entries = doc
                .get("entries")
                .and_then(Json::as_array)
                .ok_or("batched_step: missing entries[]")?;
            entries
                .iter()
                .map(|e| {
                    let grid = e
                        .get("grid")
                        .and_then(Json::as_usize)
                        .ok_or("batched_step entry: missing grid")?;
                    let value = e
                        .get("batched_steps_per_sec")
                        .and_then(Json::as_f64)
                        .ok_or("batched_step entry: missing batched_steps_per_sec")?;
                    let threads = e.get("threads").and_then(Json::as_usize).unwrap_or(1);
                    let metric = if threads == 1 {
                        "batched_steps_per_sec".into()
                    } else {
                        format!("batched_steps_per_sec_t{threads}")
                    };
                    Ok(MetricSample {
                        grid,
                        metric,
                        value,
                    })
                })
                .collect()
        }
        "serving" => {
            let entry_metrics = |entry: &Json| -> Result<Vec<MetricSample>, String> {
                let grid = entry
                    .get("grid")
                    .and_then(Json::as_usize)
                    .ok_or("serving entry: missing grid")?;
                let policies = entry
                    .get("policies")
                    .and_then(Json::as_array)
                    .ok_or("serving entry: missing policies[]")?;
                let dynamic = policies
                    .iter()
                    .find(|p| p.get("name").and_then(Json::as_str) == Some("dynamic"))
                    .ok_or("serving entry: no \"dynamic\" policy")?;
                let value = dynamic
                    .get("req_per_sec")
                    .and_then(Json::as_f64)
                    .ok_or("serving dynamic policy: missing req_per_sec")?;
                let mut samples = vec![MetricSample {
                    grid,
                    metric: "dynamic_req_per_sec".into(),
                    value,
                }];
                // Open-loop saturation (optional: older documents predate
                // it). The connection count is part of the metric name —
                // a 1k smoke and a 10k soak are different workloads and
                // must gate against their own baselines.
                if let Some(open_loop) = entry.get("open_loop") {
                    let conns = open_loop
                        .get("connections")
                        .and_then(Json::as_usize)
                        .ok_or("serving open_loop: missing connections")?;
                    let value = open_loop
                        .get("req_per_sec")
                        .and_then(Json::as_f64)
                        .ok_or("serving open_loop: missing req_per_sec")?;
                    samples.push(MetricSample {
                        grid,
                        metric: format!("open_loop_req_per_sec_c{conns}"),
                        value,
                    });
                }
                Ok(samples)
            };
            match doc.get("entries").and_then(Json::as_array) {
                Some(entries) => {
                    let nested: Vec<Vec<MetricSample>> = entries
                        .iter()
                        .map(entry_metrics)
                        .collect::<Result<_, _>>()?;
                    Ok(nested.into_iter().flatten().collect())
                }
                // Legacy single-grid layout: grid + policies at top level.
                None => entry_metrics(doc),
            }
        }
        "dist" => {
            let entries = doc
                .get("entries")
                .and_then(Json::as_array)
                .ok_or("dist: missing entries[]")?;
            entries
                .iter()
                .map(|e| {
                    let grid = e
                        .get("grid")
                        .and_then(Json::as_usize)
                        .ok_or("dist entry: missing grid")?;
                    let batch = e
                        .get("batch")
                        .and_then(Json::as_usize)
                        .ok_or("dist entry: missing batch")?;
                    let workers = e
                        .get("workers")
                        .and_then(Json::as_usize)
                        .ok_or("dist entry: missing workers")?;
                    let value = e
                        .get("sharded_steps_per_sec")
                        .and_then(Json::as_f64)
                        .ok_or("dist entry: missing sharded_steps_per_sec")?;
                    Ok(MetricSample {
                        grid,
                        metric: format!("sharded_steps_per_sec_b{batch}_w{workers}"),
                        value,
                    })
                })
                .collect()
        }
        other => Err(format!("unrecognized bench kind \"{other}\"")),
    }
}

/// Compares the committed baseline against the best of N fresh runs.
/// Gates only on `(grid, metric)` pairs present in the baseline **and** at
/// least one fresh document — the regression job pins one grid, so the
/// baseline's other grids are informational.
///
/// # Errors
///
/// Returns a description when a document is malformed or when no metric
/// overlaps at all (a silent no-op gate would be worse than a loud
/// failure).
pub fn compare(baseline: &Json, fresh: &[Json], tolerance: f64) -> Result<Vec<Comparison>, String> {
    assert!(
        (0.0..1.0).contains(&tolerance),
        "tolerance must be in [0, 1)"
    );
    let base = headline_metrics(baseline)?;
    let mut fresh_samples: Vec<MetricSample> = Vec::new();
    for doc in fresh {
        fresh_samples.extend(headline_metrics(doc)?);
    }
    let mut out = Vec::new();
    for b in &base {
        let best = fresh_samples
            .iter()
            .filter(|f| f.grid == b.grid && f.metric == b.metric)
            .map(|f| f.value)
            .fold(f64::NEG_INFINITY, f64::max);
        if best == f64::NEG_INFINITY {
            continue; // not re-measured in this run
        }
        let ratio = best / b.value;
        out.push(Comparison {
            grid: b.grid,
            metric: b.metric.clone(),
            baseline: b.value,
            best,
            ratio,
            pass: best >= b.value * (1.0 - tolerance),
        });
    }
    if out.is_empty() {
        return Err("no (grid, metric) overlap between baseline and fresh runs".into());
    }
    Ok(out)
}

/// Renders the comparison as a GitHub-flavored markdown table (the CI job
/// summary), best-of count and tolerance in the header.
pub fn markdown_report(comparisons: &[Comparison], runs: usize, tolerance: f64) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "## Bench regression gate (best of {runs}, tolerance −{:.0}%)\n\n",
        tolerance * 100.0
    ));
    s.push_str("| grid | metric | baseline | best of fresh | ratio | status |\n");
    s.push_str("|-----:|--------|---------:|--------------:|------:|:------:|\n");
    for c in comparisons {
        s.push_str(&format!(
            "| {} | {} | {:.3} | {:.3} | {:.2}x | {} |\n",
            c.grid,
            c.metric,
            c.baseline,
            c.best,
            c.ratio,
            if c.pass { "✅" } else { "❌ regression" }
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batched_doc(grid: usize, steps: f64) -> Json {
        Json::parse(&format!(
            "{{\"bench\":\"batched_step\",\"entries\":[{{\"grid\":{grid},\"batched_steps_per_sec\":{steps}}}]}}"
        ))
        .unwrap()
    }

    fn serving_doc(grid: usize, req: f64) -> Json {
        Json::parse(&format!(
            "{{\"bench\":\"serving\",\"entries\":[{{\"grid\":{grid},\"policies\":[{{\"name\":\"batch1\",\"req_per_sec\":1.0}},{{\"name\":\"dynamic\",\"req_per_sec\":{req}}}]}}]}}"
        ))
        .unwrap()
    }

    #[test]
    fn best_of_three_passes_within_tolerance() {
        let baseline = batched_doc(32, 100.0);
        let fresh = [
            batched_doc(32, 70.0),
            batched_doc(32, 90.0),
            batched_doc(32, 80.0),
        ];
        let report = compare(&baseline, &fresh, 0.25).unwrap();
        assert_eq!(report.len(), 1);
        assert!(report[0].pass, "90 ≥ 100·0.75 must pass");
        assert!((report[0].best - 90.0).abs() < 1e-12);
    }

    #[test]
    fn drop_beyond_tolerance_fails() {
        let baseline = batched_doc(32, 100.0);
        let fresh = [batched_doc(32, 74.0)];
        let report = compare(&baseline, &fresh, 0.25).unwrap();
        assert!(!report[0].pass, "74 < 75 must fail");
        let md = markdown_report(&report, 1, 0.25);
        assert!(md.contains("❌"));
    }

    #[test]
    fn non_overlapping_grids_are_skipped() {
        let baseline = Json::parse(
            "{\"bench\":\"batched_step\",\"entries\":[\
             {\"grid\":32,\"batched_steps_per_sec\":100.0},\
             {\"grid\":200,\"batched_steps_per_sec\":1.0}]}",
        )
        .unwrap();
        let fresh = [batched_doc(32, 95.0)];
        let report = compare(&baseline, &fresh, 0.25).unwrap();
        assert_eq!(report.len(), 1, "grid 200 not re-measured → skipped");
        assert_eq!(report[0].grid, 32);
    }

    #[test]
    fn zero_overlap_is_an_error() {
        let baseline = batched_doc(200, 1.0);
        let fresh = [batched_doc(32, 95.0)];
        assert!(compare(&baseline, &fresh, 0.25).is_err());
    }

    #[test]
    fn serving_doc_reads_dynamic_policy() {
        let samples = headline_metrics(&serving_doc(64, 1234.5)).unwrap();
        assert_eq!(
            samples,
            vec![MetricSample {
                grid: 64,
                metric: "dynamic_req_per_sec".into(),
                value: 1234.5
            }]
        );
    }

    #[test]
    fn serving_open_loop_gates_per_connection_count() {
        let doc = Json::parse(
            "{\"bench\":\"serving\",\"entries\":[{\"grid\":32,\"policies\":[\
             {\"name\":\"dynamic\",\"req_per_sec\":1000.0}],\
             \"open_loop\":{\"connections\":10000,\"req_per_sec\":850.5}}]}",
        )
        .unwrap();
        let samples = headline_metrics(&doc).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].metric, "open_loop_req_per_sec_c10000");
        assert_eq!(samples[1].value, 850.5);
        // A baseline without open_loop must still compare cleanly against
        // a fresh run that has it: only shared metrics gate.
        let baseline = serving_doc(32, 1000.0);
        let report = compare(&baseline, std::slice::from_ref(&doc), 0.25).unwrap();
        assert_eq!(report.len(), 1, "open_loop metric skipped, not failed");
        assert!(report[0].pass);
    }

    #[test]
    fn legacy_single_grid_serving_doc_still_parses() {
        let doc = Json::parse(
            "{\"bench\":\"serving\",\"grid\":64,\"policies\":[\
             {\"name\":\"dynamic\",\"req_per_sec\":42.0}]}",
        )
        .unwrap();
        let samples = headline_metrics(&doc).unwrap();
        assert_eq!(samples[0].grid, 64);
        assert_eq!(samples[0].value, 42.0);
    }

    #[test]
    fn unknown_bench_kind_errors() {
        let doc = Json::parse("{\"bench\":\"mystery\"}").unwrap();
        assert!(headline_metrics(&doc).is_err());
    }

    #[test]
    fn batched_step_threads_encode_into_the_metric() {
        let doc = Json::parse(
            "{\"bench\":\"batched_step\",\"entries\":[\
             {\"grid\":200,\"threads\":1,\"batched_steps_per_sec\":2.0},\
             {\"grid\":200,\"threads\":4,\"batched_steps_per_sec\":6.0}]}",
        )
        .unwrap();
        let samples = headline_metrics(&doc).unwrap();
        assert_eq!(
            samples,
            vec![
                MetricSample {
                    grid: 200,
                    metric: "batched_steps_per_sec".into(),
                    value: 2.0
                },
                MetricSample {
                    grid: 200,
                    metric: "batched_steps_per_sec_t4".into(),
                    value: 6.0
                },
            ]
        );
        // A pre-sweep baseline (no threads field) gates against the
        // refreshed document's t=1 entry under the same bare metric.
        let legacy = batched_doc(200, 1.9);
        let report = compare(&legacy, &[doc], 0.25).unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].metric, "batched_steps_per_sec");
        assert!(report[0].pass);
    }

    #[test]
    fn dist_doc_encodes_batch_and_workers_into_the_metric() {
        let doc = Json::parse(
            "{\"bench\":\"dist\",\"entries\":[\
             {\"grid\":200,\"batch\":50,\"workers\":2,\
              \"sharded_steps_per_sec\":5.5,\"speedup_vs_single\":1.8},\
             {\"grid\":200,\"batch\":200,\"workers\":4,\
              \"sharded_steps_per_sec\":2.1,\"speedup_vs_single\":3.1}]}",
        )
        .unwrap();
        let samples = headline_metrics(&doc).unwrap();
        assert_eq!(
            samples,
            vec![
                MetricSample {
                    grid: 200,
                    metric: "sharded_steps_per_sec_b50_w2".into(),
                    value: 5.5
                },
                MetricSample {
                    grid: 200,
                    metric: "sharded_steps_per_sec_b200_w4".into(),
                    value: 2.1
                },
            ]
        );
    }
}
