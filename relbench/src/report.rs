//! What a workload hands back, and how a run prints it.
//!
//! Every workload reports the same end-to-end metrics (each defined for its
//! own user, see `README.md`), the named metrics it measures natively, and
//! — in a traced run — every per-layer metric of [`LAYERS`], reading 0 on
//! layers the workload bypasses.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-layer metrics, named after the module they time, with their units.
pub const LAYERS: [(&str, &str); 28] = [
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.queue_depth", "count"),
    ("serve.catalog.load_ms", "ms"),
    ("dsl.parse_ms", "ms"),
    ("core.eval.hot_us", "us"),
    ("core.eval.fresh_us", "us"),
    ("core.value_cache.hit_ratio", "ratio"),
    ("core.plan_cache.hit_ratio", "ratio"),
    ("core.program.compile_us", "us"),
    ("markov.plan.compile_us", "us"),
    ("store.load_plan_us", "us"),
    ("core.program.memo_hit_ratio", "ratio"),
    ("core.program.pin_hits", "count"),
    ("core.fixedpoint.sweeps_per_point", "count"),
    ("core.staged.stage_ns_per_point", "ns"),
    ("markov.plan.replay_ns_per_point", "ns"),
    ("markov.plan.block_occupancy", "ratio"),
    ("core.staged.unattributed_share", "ratio"),
    ("profile.streaming.observe_ns_per_trace", "ns"),
    ("profile.streaming.drain_us", "us"),
    ("core.refresh.apply_us", "us"),
    ("core.refresh.services_refreshed", "count"),
    ("core.refresh.fallback_solves", "count"),
    ("core.plan_cache.rank1_share", "ratio"),
    ("reconcile.residual_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// End-to-end metrics, reported by every workload with tracing off.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Median set-up time over the run's set-up repeats.
    pub setup_s: f64,
    /// Completed work units per second of the measuring window.
    pub throughput_per_s: f64,
    /// Median latency of the workload's interactive operation.
    pub latency_p50_ms: f64,
}

/// A reconciliation row: end-to-end time against the layer times inside it.
#[derive(Debug, Clone)]
pub struct Reconciliation {
    /// What the end-to-end time is.
    pub label: String,
    /// End-to-end time, in `unit`.
    pub total: f64,
    /// Named layer times inside it, in `unit`.
    pub layers: Vec<(&'static str, f64)>,
    /// Unit of every figure in the row.
    pub unit: &'static str,
}

impl Reconciliation {
    /// End-to-end time minus the layer times.
    pub fn residual(&self) -> f64 {
        self.total - self.layers.iter().map(|(_, t)| t).sum::<f64>()
    }

    /// The residual as a share of the end-to-end time.
    pub fn residual_share(&self) -> f64 {
        if self.total > 0.0 {
            self.residual() / self.total
        } else {
            0.0
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (timed operations plus checked answers).
    pub attempted: u64,
    /// Operations that errored or whose answer failed its check.
    pub failed: u64,
    /// The end-to-end metrics.
    pub e2e: EndToEnd,
    /// The workload's own named metrics: `(name, value, unit)`.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer values by [`LAYERS`] name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Reconciliation row (traced runs only).
    pub reconciliation: Option<Reconciliation>,
}

impl Outcome {
    /// Records a named metric.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    /// Records a per-layer value.
    ///
    /// # Panics
    ///
    /// When `name` is not in [`LAYERS`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Counts one checked answer; a mismatch counts as failed.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// A JSON number with all its digits; non-finite values become 0.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Human-readable lines printed before the result line.
pub fn table(outcome: &Outcome, traced: bool) -> String {
    let mut out = String::new();
    for (name, value, unit) in &outcome.named {
        let _ = writeln!(out, "# {name:<34} {value:>16.4} {unit}");
    }
    if traced {
        for (name, unit) in LAYERS {
            let value = outcome.layers.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "# layer {name:<40} {value:>14.4} {unit}");
        }
        if let Some(r) = &outcome.reconciliation {
            let parts: Vec<String> = r
                .layers
                .iter()
                .map(|(n, t)| format!("{n}={t:.3}"))
                .collect();
            let _ = writeln!(
                out,
                "# reconcile {}: total={:.3} {} = {} + residual={:.3} ({:.1}%)",
                r.label,
                r.total,
                r.unit,
                parts.join(" + "),
                r.residual(),
                100.0 * r.residual_share()
            );
        }
        let overhead = outcome
            .layers
            .get("trace.overhead_share")
            .copied()
            .unwrap_or(0.0);
        let _ = writeln!(
            out,
            "# tracing overhead (traced minus untraced, share of untraced): {:.1}%",
            100.0 * overhead
        );
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let mut metrics: Vec<String> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &str| {
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(value)
        ));
    };
    if traced {
        for (name, unit) in LAYERS {
            push(name, outcome.layers.get(name).copied().unwrap_or(0.0), unit);
        }
    } else {
        push("setup_s", outcome.e2e.setup_s, "s");
        push("throughput_per_s", outcome.e2e.throughput_per_s, "1/s");
        push("latency_p50_ms", outcome.e2e.latency_p50_ms, "ms");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_metric() {
        let mut o = Outcome::default();
        o.check(true);
        o.e2e.setup_s = 0.5;
        let line = result_line(&o, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        for name in ["setup_s", "throughput_per_s", "latency_p50_ms"] {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        let traced = result_line(&o, true);
        for (name, _) in LAYERS {
            assert!(traced.contains(&format!("\"{name}\"")), "{name} missing");
        }
        o.check(false);
        assert!(result_line(&o, false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn reconciliation_shows_the_residual() {
        let r = Reconciliation {
            label: "x".into(),
            total: 10.0,
            layers: vec![("a", 6.0), ("b", 3.0)],
            unit: "ms",
        };
        assert_eq!(r.residual(), 1.0);
        assert!((r.residual_share() - 0.1).abs() < 1e-15);
    }
}
