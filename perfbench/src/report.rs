//! Metric names, the run outcome, and its JSON renderings.
//!
//! Every workload reports every metric in [`END_TO_END`] (untraced runs)
//! and every metric in [`PER_LAYER`] (traced runs), so the result line has
//! the same keys on every workload. A per-layer metric of a layer the
//! workload does not exercise reads 0; `perfbench/workloads.json` records
//! for each metric which workloads it should and should not move on.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported with tracing off.
///
/// Work per second is the one host-time metric besides set-up time: on a
/// shared host the CPU moves between a fast and a much slower regime for
/// seconds to minutes, and a run's median op latency jumps with the share
/// of the window that was slow, while the window's mean rate moves in
/// proportion. Latency medians and tails are reported as named numbers.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MiB"), ("text_bytes", "bytes")];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parse.ms", "ms"),
    ("elaborate.ms", "ms"),
    ("elaborate.instances", "count"),
    ("constraints.ms", "ms"),
    ("schedule.ms", "ms"),
    ("compile.ms", "ms"),
    ("compile.units_compiled", "count"),
    ("objcopy.ms", "ms"),
    ("flatten.ms", "ms"),
    ("flatten.groups", "count"),
    ("generate.ms", "ms"),
    ("link.ms", "ms"),
    ("build.other_ms", "ms"),
    ("build.wall_ms", "ms"),
    ("session.units_compiled_per_edit", "count"),
    ("lint.ms", "ms"),
    ("server.handle_ms", "ms"),
    ("wire.ms", "ms"),
    ("proto.decode_ms", "ms"),
    ("proto.line_bytes", "bytes"),
    ("load.ms", "ms"),
    ("exec.mips", "Minstr/s"),
    ("exec.instrs_per_pkt", "instr"),
    ("exec.cycles_per_pkt", "cycles"),
    ("icache.misses_per_pkt", "count"),
    ("icache.stalls_per_pkt", "cycles"),
    ("mesi.bus_stalls_per_pkt", "cycles"),
    ("mesi.coherence_misses_per_kpkt", "count"),
    ("mesi.invalidations_per_kpkt", "count"),
    ("mesi.bus_txns_per_pkt", "count"),
    ("trace.overhead_pct", "%"),
];

/// The build phases `BuildReport.phases` reports, in pipeline order, and
/// the per-layer metric each one feeds.
pub const PHASES: &[(&str, &str)] = &[
    ("elaborate", "elaborate.ms"),
    ("constraints", "constraints.ms"),
    ("schedule", "schedule.ms"),
    ("compile", "compile.ms"),
    ("objcopy", "objcopy.ms"),
    ("flatten", "flatten.ms"),
    ("generate", "generate.ms"),
    ("link", "link.ms"),
];

/// Metric names are `[A-Za-z0-9_.-]`, start with a letter or digit, and
/// are at most 64 characters long.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run observed.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that failed, including ops whose oracle failed.
    pub failed: u64,
    /// Oracle failures, human-readable (empty = correct).
    pub failures: Vec<String>,
    /// End-to-end metric values by name (see [`END_TO_END`]).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (see [`PER_LAYER`]); absent = 0.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The workload's own names for its headline numbers (`build_s`,
    /// `edit_p90_ms`, ...), `(value, unit)`; printed and saved, not part
    /// of the result line.
    pub named: BTreeMap<String, (f64, String)>,
    /// Run facts: seed, nproc, jobs, exec tier, op counts per kind, and
    /// the sample count behind each percentile.
    pub env: BTreeMap<String, String>,
    /// Per-layer self time from the trace: name → (ms, spans).
    pub self_times: BTreeMap<String, (f64, usize)>,
    /// The recorded spans (traced runs only).
    pub spans: Vec<crate::trace::Span>,
}

impl Outcome {
    /// Set an end-to-end metric; panics on a name not in [`END_TO_END`].
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(END_TO_END.iter().any(|(n, _)| *n == name), "undeclared end-to-end metric {name}");
        self.end_to_end.insert(name, value);
    }

    /// Set a per-layer metric; panics on a name not in [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "undeclared per-layer metric {name}");
        self.per_layer.insert(name, value);
    }

    /// Record a workload-named headline number.
    pub fn named(&mut self, name: &str, value: f64, unit: &str) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        self.named.insert(name.to_string(), (value, unit.to_string()));
    }

    /// Record a run fact.
    pub fn env(&mut self, key: &str, value: impl ToString) {
        self.env.insert(key.to_string(), value.to_string());
    }

    /// Record an oracle failure (counted as one failed op).
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
        self.failed += 1;
    }

    /// True when every oracle held.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The metrics the result line carries: every end-to-end metric when
    /// untraced, every per-layer metric when traced, `(name, value, unit)`.
    pub fn line_metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|(n, u)| (*n, self.per_layer.get(n).copied().unwrap_or(0.0), *u))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| {
                    let v = *self
                        .end_to_end
                        .get(n)
                        .unwrap_or_else(|| panic!("end-to-end metric {n} was not measured"));
                    (*n, v, *u)
                })
                .collect()
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .line_metrics(trace)
            .into_iter()
            .map(|(n, v, u)| {
                format!("{}: {{\"value\": {}, \"unit\": {}}}", json_str(n), num(v), json_str(u))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record saved next to the trace: the result line's fields
    /// plus every named metric, run fact, self time, and failure.
    pub fn full_json(&self, workload: &str, trace: bool) -> String {
        let obj = |pairs: Vec<(String, String)>| {
            let body: Vec<String> =
                pairs.into_iter().map(|(k, v)| format!("{}: {v}", json_str(&k))).collect();
            format!("{{{}}}", body.join(", "))
        };
        let metrics = obj(self
            .line_metrics(trace)
            .into_iter()
            .map(|(n, v, u)| {
                (n.to_string(), format!("{{\"value\": {}, \"unit\": {}}}", num(v), json_str(u)))
            })
            .collect());
        let named = obj(self
            .named
            .iter()
            .map(|(n, (v, u))| {
                (n.clone(), format!("{{\"value\": {}, \"unit\": {}}}", num(*v), json_str(u)))
            })
            .collect());
        let env = obj(self.env.iter().map(|(k, v)| (k.clone(), json_str(v))).collect());
        let selft = obj(self
            .self_times
            .iter()
            .map(|(k, (ms, n))| {
                (k.clone(), format!("{{\"self_ms\": {}, \"spans\": {n}}}", num(*ms)))
            })
            .collect());
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\"workload\": {}, \"trace\": {trace}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}, \"named\": {named}, \"env\": {env}, \"self_time\": {selft}, \"failures\": [{}]}}\n",
            json_str(workload),
            self.correct(),
            self.attempted,
            self.failed,
            failures.join(", ")
        )
    }

    /// A human-readable report: facts, headline numbers, the result
    /// line's metrics, and the self-time table.
    pub fn human(&self, workload: &str, trace: bool) -> String {
        let mut s = format!("# perfbench {workload} (trace {})\n", trace as u8);
        for (k, v) in &self.env {
            s.push_str(&format!("env  {k:<34} {v}\n"));
        }
        for (k, (v, u)) in &self.named {
            s.push_str(&format!("named  {k:<32} {v:>14.4} {u}\n"));
        }
        for (n, v, u) in self.line_metrics(trace) {
            s.push_str(&format!("metric {n:<32} {v:>14.4} {u}\n"));
        }
        if !self.self_times.is_empty() {
            let total: f64 = self.self_times.values().map(|v| v.0).sum();
            s.push_str("self time by layer (ms, spans):\n");
            for (k, (ms, n)) in &self.self_times {
                s.push_str(&format!("  {k:<32} {ms:>12.3} {n:>8}\n"));
            }
            s.push_str(&format!("  {:<32} {total:>12.3}\n", "total"));
        }
        for f in &self.failures {
            s.push_str(&format!("FAIL {f}\n"));
        }
        s
    }
}

/// A finite JSON number (non-finite values render as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_checked() {
        for ok in ["op_p50_ms", "mesi.bus_txns_per_pkt", "a-b.c_d", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "op p50", "lat/ms", "_x", ".x", "naïve", "a:b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        for (n, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(n), "{n}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut o = Outcome { attempted: 3, ..Default::default() };
        for (n, _) in END_TO_END {
            o.e2e(n, 1.5);
        }
        let line = o.result_line(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert_eq!(o.result_line(true).matches("\"value\"").count(), PER_LAYER.len());
    }

    /// `BENCHMARK.json` declares exactly the metrics, with the units, the
    /// binary reports: the end-to-end ones before `per_layer`, the
    /// per-layer ones after it.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let bench: String =
            include_str!("../../BENCHMARK.json").chars().filter(|c| !c.is_whitespace()).collect();
        let (e2e, layers) = bench.split_once("\"per_layer\"").expect("a per_layer section");
        for (section, table) in [(e2e, END_TO_END), (layers, PER_LAYER)] {
            for (n, u) in table {
                let entry = format!("{{\"name\":\"{n}\",\"unit\":\"{u}\"");
                assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
            assert_eq!(section.matches("\"unit\":").count(), table.len());
        }
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn undeclared_metrics_are_rejected() {
        Outcome::default().layer("made.up", 1.0);
    }
}
