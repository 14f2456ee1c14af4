//! What one run prints: a detail line (sample counts, host health, check
//! failures), then, as the last line of standard output, the result object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Every workload reports the same metrics, listed in [`END_TO_END`] and
//! [`PER_LAYER`] in `BENCHMARK.json` order, so each figure can be compared
//! across workloads: a layer a workload bypasses reads 0 in its traced run.

use std::fmt::Write as _;

use crate::stats::Summary;

/// The end-to-end metrics every untraced run reports, with their units.
/// Each workload measures each of them; `METRICS.md` gives the unit of
/// work behind `throughput_per_s` and `latency_ms` per workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
];

/// The per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("datasets.synth_s", "s"),
    ("donn.train_s", "s"),
    ("donn.slr_s", "s"),
    ("donn.finetune_s", "s"),
    ("donn.accuracy_s", "s"),
    ("donn.two_pi_s", "s"),
    ("donn.steps", "count"),
    ("slr.accepted_ratio", "ratio"),
    ("two_pi.improved_ratio", "ratio"),
    ("r_reduction_pct", "%"),
    ("ours_c_acc_pct", "%"),
    ("autodiff.g32.forward_ms", "ms"),
    ("autodiff.g32.backward_ms", "ms"),
    ("autodiff.g32.adam_ms", "ms"),
    ("donn.g32.reg_grad_ms", "ms"),
    ("autodiff.g200.forward_ms", "ms"),
    ("autodiff.g200.backward_ms", "ms"),
    ("autodiff.g200.adam_ms", "ms"),
    ("fft.g200.hop_ms", "ms"),
    ("fft.g200.hop_gflop", "GFLOP"),
    ("fft.g200.hop_mb", "MB"),
    ("wire.init_mb", "MB"),
    ("wire.step_mb", "MB"),
    ("wire.grads_mb", "MB"),
    ("wire.step_encode_ms", "ms"),
    ("wire.step_decode_ms", "ms"),
    ("wire.grads_encode_ms", "ms"),
    ("wire.grads_decode_ms", "ms"),
    ("dist.connect_s", "s"),
    ("dist.send_ms", "ms"),
    ("dist.local_shard_ms", "ms"),
    ("dist.collect_ms", "ms"),
    ("dist.peer_wait_ms", "ms"),
    ("dist.allreduce_ms", "ms"),
    ("wire.json_v1_us", "us"),
    ("wire.json_v2_us", "us"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.steals", "count"),
    ("serve.cache_hit_pct", "%"),
    ("serve.sheds", "count"),
    ("serve.degraded_batches", "count"),
    ("serve.engine_b1_ms", "ms"),
    ("serve.engine_b16_ms", "ms"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.http_parse_us", "us"),
    ("serve.client_p99_ms", "ms"),
    ("host.steal_pct", "%"),
    ("serve.gen_late_ms", "ms"),
    ("serve.open_p99_ms", "ms"),
    ("serve.open_backlog", "count"),
    ("net.listen_overflows", "count"),
    ("net.syn_retrans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Operations, checks and metrics gathered by one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    detail: Vec<(String, String)>,
    failures: Vec<String>,
}

impl Report {
    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Counts one output check as an operation; a failed check is named in
    /// the detail line and on standard error. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) -> bool {
        self.ops(1, u64::from(!ok));
        if !ok {
            let what = what.into();
            eprintln!("perfbench: check failed: {what}");
            self.failures.push(what);
        }
        ok
    }

    /// Records a catalogued metric. A non-finite value fails the run.
    ///
    /// # Panics
    ///
    /// Panics on a name in neither catalogue, or one recorded twice.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not catalogued"
        );
        assert!(self.value(name).is_none(), "metric {name} recorded twice");
        self.check(value.is_finite(), format!("metric {name} is {value}"));
        self.metrics.push((name, value));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Adds a number to the detail line.
    pub fn detail_num(&mut self, key: &str, value: f64) {
        self.detail.push((key.to_string(), number(value)));
    }

    /// Adds the smallest and largest of `values` to the detail line.
    pub fn detail_range(&mut self, key: &str, values: &[f64]) {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.detail_num(&format!("{key}.min"), min);
        self.detail_num(&format!("{key}.max"), max);
    }

    /// Adds a latency sample's count, median, 99th percentile (and whether
    /// ten samples lie beyond it) and maximum to the detail line.
    pub fn detail_summary(&mut self, key: &str, s: &Summary) {
        self.detail_num(&format!("{key}.n"), s.n as f64);
        self.detail_num(&format!("{key}.p50_ms"), s.p50);
        self.detail_num(&format!("{key}.p99_ms"), s.p99);
        self.detail_num(
            &format!("{key}.p99_supported"),
            f64::from(u8::from(s.p99_supported)),
        );
        self.detail_num(&format!("{key}.max_ms"), s.max);
    }

    /// Adds a string to the detail line.
    pub fn detail_str(&mut self, key: &str, value: &str) {
        self.detail.push((key.to_string(), string(value)));
    }

    /// `true` when every output check passed. Failed operations (a
    /// refused request, a lost connection) count in `failed` without
    /// making the outputs wrong.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// The catalogue a run reports: per-layer for a traced run.
    fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Checks that an untraced run measured every end-to-end metric. A
    /// traced run's unmeasured per-layer metrics read 0 in the result: the
    /// workload bypassed that layer.
    pub fn finish(&mut self, trace: bool) {
        for &(name, _) in Self::catalogue(trace) {
            if !trace && self.value(name).is_none() {
                self.check(false, format!("end-to-end metric {name} not measured"));
            }
        }
        let stray: Vec<&str> = self
            .metrics
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !Self::catalogue(trace).iter().any(|(c, _)| c == n))
            .collect();
        for name in stray {
            self.check(
                false,
                format!("metric {name} belongs to the other run kind"),
            );
        }
    }

    /// The detail line: everything recorded beside the metrics.
    pub fn detail_line(&self) -> String {
        let mut fields = self.detail.clone();
        let failures: Vec<String> = self.failures.iter().map(|f| string(f)).collect();
        fields.push(("check_failures".into(), format!("[{}]", failures.join(","))));
        format!("{{\"detail\":{}}}", object(&fields))
    }

    /// The result line the benchmark contract reads: every metric of the
    /// run kind's catalogue, in catalogue order.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<(String, String)> = Self::catalogue(trace)
            .iter()
            .map(|&(name, unit)| {
                let value = self.value(name).unwrap_or(0.0);
                (
                    name.to_string(),
                    format!("{{\"value\":{},\"unit\":{}}}", number(value), string(unit)),
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            object(&metrics)
        )
    }
}

fn object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (already failed by [`Report::metric`]) become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use photonn_wire::Json;

    fn untraced() -> Report {
        let mut r = Report::default();
        r.ops(10, 0);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.metric(name, i as f64 + 0.25);
        }
        r
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = untraced();
        r.finish(false);
        let line = r.result_line(false);
        // Ten operations plus one finiteness check per metric.
        assert!(line.starts_with(
            "{\"correct\":true,\"attempted\":14,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"},"
        ));
        let doc = Json::parse(&line).unwrap();
        let latency = doc
            .get("metrics")
            .and_then(|m| m.get("latency_ms"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(latency, Some(3.25));
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_fails_the_run_and_a_layer_reads_zero() {
        let mut r = Report::default();
        r.ops(1, 0);
        r.metric("setup_s", 1.0);
        r.finish(false);
        assert!(!r.correct());
        assert!(r.detail_line().contains("latency_ms not measured"));

        let mut r = Report::default();
        r.ops(1, 0);
        r.metric("host.steal_pct", 2.5);
        r.finish(true);
        assert!(r.correct());
        let line = r.result_line(true);
        assert!(line.contains("\"host.steal_pct\":{\"value\":2.5,\"unit\":\"%\"}"));
        assert!(line.contains("\"serve.batches\":{\"value\":0,\"unit\":\"count\"}"));
    }

    #[test]
    fn failed_operations_are_counted_without_making_outputs_wrong() {
        let mut r = untraced();
        r.ops(5, 2);
        assert!(r.correct());
        assert!(r
            .result_line(false)
            .contains("\"attempted\":19,\"failed\":2,"));
    }

    #[test]
    fn failed_checks_and_non_finite_metrics_make_the_run_incorrect() {
        let mut r = untraced();
        assert!(r.correct());
        let mut r2 = Report::default();
        r2.ops(3, 0);
        r2.metric("latency_ms", f64::NAN);
        assert!(!r2.correct());
        assert!(r2.result_line(false).contains("\"value\":null"));
        assert!(!r.check(false, "quote \" and\nnewline"));
        assert!(r.detail_line().contains("quote \\\" and\\u000anewline"));
        // A per-layer metric in an untraced run is a harness bug.
        r.metric("serve.batches", 1.0);
        r.finish(false);
        assert!(r
            .detail_line()
            .contains("serve.batches belongs to the other run kind"));
    }

    /// The catalogues are `BENCHMARK.json`'s metric lists, names, units and
    /// order, so the two cannot drift apart.
    #[test]
    fn catalogues_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, catalogue, "{key}");
        }
    }
}
