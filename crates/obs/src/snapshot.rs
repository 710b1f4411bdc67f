//! Point-in-time metric snapshots, their stable JSON schema
//! (`tl-metrics/1`), and the human-readable report renderer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json, JsonError};

/// Schema identifier written into every snapshot.
pub(crate) const SCHEMA: &str = "tl-metrics/1";

/// A captured histogram: total observation count, saturating sum, and the
/// non-empty buckets as `(inclusive lower bound, count)` pairs in
/// ascending bound order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Non-empty buckets as `(lower_bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the highest non-empty bucket (an order-of-magnitude
    /// maximum), or 0 when empty.
    pub fn max_bucket_lo(&self) -> u64 {
        self.buckets.last().map_or(0, |&(lo, _)| lo)
    }
}

/// Captured wall-clock statistics of one span name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Number of completed spans.
    pub count: u64,
    /// Total nanoseconds across all spans.
    pub total_ns: u64,
    /// Shortest span in nanoseconds (0 when `count == 0`).
    pub min_ns: u64,
    /// Longest span in nanoseconds.
    pub max_ns: u64,
}

/// A point-in-time capture of every metric a [`crate::MetricsRecorder`]
/// holds. Maps are ordered (`BTreeMap`) so serialization is deterministic:
/// the same metric values always produce byte-identical JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Free-form configuration echo (dataset, scale, command line).
    pub meta: BTreeMap<String, String>,
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins float values.
    pub gauges: BTreeMap<String, f64>,
    /// Value distributions.
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Wall-clock span statistics.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl Snapshot {
    /// Serializes to the `tl-metrics/1` JSON schema:
    ///
    /// ```json
    /// {
    ///   "schema": "tl-metrics/1",
    ///   "meta": {"dataset": "xmark"},
    ///   "counters": {"engine.queries": 50},
    ///   "gauges": {"bench.kernel.p50_ms": 1.25},
    ///   "histograms": {
    ///     "engine.query.latency_us": {
    ///       "count": 50, "sum": 12345,
    ///       "buckets": [[64, 12], [128, 38]]
    ///     }
    ///   },
    ///   "spans": {
    ///     "miner.mine": {"count": 1, "total_ns": 9, "min_ns": 9, "max_ns": 9}
    ///   }
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": ");
        json::write_escaped(&mut out, SCHEMA);
        out.push_str(",\n  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            json::write_escaped(&mut out, k);
            out.push_str(": ");
            json::write_escaped(&mut out, v);
        }
        if !self.meta.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            json::write_escaped(&mut out, k);
            let _ = write!(out, ": {v}");
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            json::write_escaped(&mut out, k);
            out.push_str(": ");
            json::write_f64(&mut out, *v);
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            json::write_escaped(&mut out, k);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                h.count, h.sum
            );
            for (j, (lo, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{lo}, {n}]");
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"spans\": {");
        for (i, (k, s)) in self.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            json::write_escaped(&mut out, k);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                s.count, s.total_ns, s.min_ns, s.max_ns
            );
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses a `tl-metrics/1` document produced by [`Snapshot::to_json`]
    /// (or hand-written, e.g. gate threshold files).
    pub fn from_json(input: &str) -> Result<Self, JsonError> {
        let value = json::parse(input)?;
        let fail = |message: &str| JsonError {
            offset: 0,
            message: message.to_string(),
        };
        match value.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(fail(&format!("unsupported schema `{other}`"))),
            None => return Err(fail("missing `schema` field")),
        }
        let mut snap = Snapshot::default();
        if let Some(entries) = value.get("meta").and_then(Json::entries) {
            for (k, v) in entries {
                let v = v
                    .as_str()
                    .ok_or_else(|| fail("meta values must be strings"))?;
                snap.meta.insert(k.clone(), v.to_string());
            }
        }
        if let Some(entries) = value.get("counters").and_then(Json::entries) {
            for (k, v) in entries {
                let v = v.as_u64().ok_or_else(|| fail("counters must be u64"))?;
                snap.counters.insert(k.clone(), v);
            }
        }
        if let Some(entries) = value.get("gauges").and_then(Json::entries) {
            for (k, v) in entries {
                let v = v.as_f64().ok_or_else(|| fail("gauges must be numbers"))?;
                snap.gauges.insert(k.clone(), v);
            }
        }
        if let Some(entries) = value.get("histograms").and_then(Json::entries) {
            for (k, v) in entries {
                let mut h = HistSnapshot {
                    count: v
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| fail("histogram missing `count`"))?,
                    sum: v
                        .get("sum")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| fail("histogram missing `sum`"))?,
                    buckets: Vec::new(),
                };
                if let Some(buckets) = v.get("buckets").and_then(Json::as_arr) {
                    for pair in buckets {
                        let pair = pair.as_arr().filter(|p| p.len() == 2);
                        let (lo, n) = pair
                            .and_then(|p| Some((p[0].as_u64()?, p[1].as_u64()?)))
                            .ok_or_else(|| fail("histogram buckets must be [lo, count] pairs"))?;
                        h.buckets.push((lo, n));
                    }
                }
                snap.histograms.insert(k.clone(), h);
            }
        }
        if let Some(entries) = value.get("spans").and_then(Json::entries) {
            for (k, v) in entries {
                let field = |name: &str| {
                    v.get(name)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| fail(&format!("span missing `{name}`")))
                };
                snap.spans.insert(
                    k.clone(),
                    SpanSnapshot {
                        count: field("count")?,
                        total_ns: field("total_ns")?,
                        min_ns: field("min_ns")?,
                        max_ns: field("max_ns")?,
                    },
                );
            }
        }
        Ok(snap)
    }

    /// Renders the snapshot as a human-readable table (the output of
    /// `treelattice metrics report`). Zero-valued entries are skipped so
    /// the report only shows what the run actually exercised.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics snapshot ({SCHEMA})");
        if !self.meta.is_empty() {
            let _ = writeln!(out, "\nmeta");
            for (k, v) in &self.meta {
                let _ = writeln!(out, "  {k:<32} {v}");
            }
        }
        let live_counters: Vec<_> = self.counters.iter().filter(|(_, &v)| v > 0).collect();
        if !live_counters.is_empty() {
            let _ = writeln!(out, "\ncounters");
            for (k, v) in live_counters {
                let _ = writeln!(out, "  {k:<32} {v}");
            }
        }
        let live_gauges: Vec<_> = self.gauges.iter().filter(|(_, &v)| v != 0.0).collect();
        if !live_gauges.is_empty() {
            let _ = writeln!(out, "\ngauges");
            for (k, v) in live_gauges {
                let _ = writeln!(out, "  {k:<32} {v:.4}");
            }
        }
        let live_hists: Vec<_> = self
            .histograms
            .iter()
            .filter(|(_, h)| h.count > 0)
            .collect();
        if !live_hists.is_empty() {
            let _ = writeln!(out, "\nhistograms");
            let _ = writeln!(
                out,
                "  {:<32} {:>10} {:>14} {:>12} {:>12}",
                "name", "count", "sum", "mean", "max_bucket"
            );
            for (k, h) in live_hists {
                let _ = writeln!(
                    out,
                    "  {k:<32} {:>10} {:>14} {:>12.2} {:>12}",
                    h.count,
                    h.sum,
                    h.mean(),
                    h.max_bucket_lo()
                );
            }
        }
        let live_spans: Vec<_> = self.spans.iter().filter(|(_, s)| s.count > 0).collect();
        if !live_spans.is_empty() {
            let _ = writeln!(out, "\nspans");
            let _ = writeln!(
                out,
                "  {:<32} {:>10} {:>12} {:>12} {:>12}",
                "name", "count", "total", "min", "max"
            );
            for (k, s) in live_spans {
                let _ = writeln!(
                    out,
                    "  {k:<32} {:>10} {:>12} {:>12} {:>12}",
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.min_ns),
                    fmt_ns(s.max_ns)
                );
            }
        }
        out
    }
}

/// Formats nanoseconds with a unit chosen by magnitude.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.meta.insert("dataset".into(), "xmark".into());
        snap.meta.insert("scale".into(), "8000".into());
        snap.counters.insert("engine.queries".into(), 50);
        snap.counters.insert("engine.cache.hits".into(), 0);
        snap.counters.insert("xml.parse.bytes".into(), u64::MAX);
        snap.gauges.insert("bench.kernel.p50_ms".into(), 1.25);
        snap.gauges.insert("accuracy.mean_error_pct".into(), 33.7);
        snap.histograms.insert(
            "engine.query.latency_us".into(),
            HistSnapshot {
                count: 50,
                sum: 12_345,
                buckets: vec![(64, 12), (128, 38)],
            },
        );
        snap.spans.insert(
            "miner.mine".into(),
            SpanSnapshot {
                count: 1,
                total_ns: 9_876_543,
                min_ns: 9_876_543,
                max_ns: 9_876_543,
            },
        );
        snap
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample();
        let parsed = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(snap, parsed);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::default();
        let encoded = snap.to_json();
        assert_eq!(Snapshot::from_json(&encoded).unwrap(), snap);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn schema_field_is_checked() {
        assert!(Snapshot::from_json("{}").is_err());
        assert!(Snapshot::from_json(r#"{"schema": "other/9"}"#).is_err());
    }

    #[test]
    fn large_counters_survive_exactly() {
        let parsed = Snapshot::from_json(&sample().to_json()).unwrap();
        assert_eq!(parsed.counters["xml.parse.bytes"], u64::MAX);
    }

    #[test]
    fn hist_helpers() {
        let h = sample().histograms["engine.query.latency_us"].clone();
        assert!((h.mean() - 246.9).abs() < 1e-9);
        assert_eq!(h.max_bucket_lo(), 128);
        assert_eq!(HistSnapshot::default().mean(), 0.0);
        assert_eq!(HistSnapshot::default().max_bucket_lo(), 0);
    }

    #[test]
    fn report_skips_zero_entries() {
        let report = sample().render_report();
        assert!(report.contains("engine.queries"));
        assert!(!report.contains("engine.cache.hits"), "zero counter shown");
        assert!(report.contains("dataset"));
        assert!(report.contains("miner.mine"));
        assert!(report.contains("9.88ms"));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
