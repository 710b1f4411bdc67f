//! Check tallies, named metrics, and the JSON the benchmark prints.

use tl_obs::json::{write_escaped, write_f64, Json};

/// The end-to-end metrics every untraced run prints, with their units.
/// `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("summary_bytes", "B"),
    ("qerr_gmean", "ratio"),
];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.encode_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("protocol.frame_ns", "ns"),
    ("protocol.req_bytes", "B"),
    ("protocol.resp_bytes", "B"),
    ("twig.parse_ns", "ns"),
    ("twig.canon_ns", "ns"),
    ("queue.op_ns", "ns"),
    ("engine.resilient_p50_ns", "ns"),
    ("engine.resilient_p99_ns", "ns"),
    ("engine.hit_ratio", "ratio"),
    ("engine.dag_dedup_ratio", "ratio"),
    ("engine.interner_keys", "count"),
    ("online.observe_us", "us"),
    ("wal.apply_us", "us"),
    ("wal.fsyncs_per_update", "ratio"),
    ("wal.bytes_per_update", "B"),
    ("snapshot.bytes_per_update", "B"),
    ("wal.recover_ms", "ms"),
    ("xml.parse_ms", "ms"),
    ("xml.parse_mb_s", "MB/s"),
    ("xml.index_ms", "ms"),
    ("miner.mine_ms", "ms"),
    ("miner.kept_ratio", "ratio"),
    ("serialize.to_bytes_ms", "ms"),
    ("serialize.from_bytes_ms", "ms"),
    ("catalog.mmap_open_ms", "ms"),
    ("unattributed_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Output checks: every comparison the benchmark makes counts as one
/// attempt, every mismatch as one failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 16 {
                self.notes.push(n);
            }
        }
    }

    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Named values in insertion order.
#[derive(Default)]
pub struct Named(pub Vec<(String, f64)>);

impl Named {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v)| (n.clone(), Json::Num(*v)))
                .collect(),
        )
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for the declared metrics,
/// taken from `values`. A declared metric with no finite value is an
/// error: the caller counts it as a failed check.
pub fn metrics_json(declared: &[(&str, &str)], values: &Named) -> (Json, Vec<String>) {
    let mut missing = Vec::new();
    let entries = declared
        .iter()
        .map(|&(name, unit)| {
            let value = match values.get(name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    missing.push(name.to_string());
                    0.0
                }
            };
            let obj = Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]);
            (name.to_string(), obj)
        })
        .collect();
    (Json::Obj(entries), missing)
}

pub fn to_string(json: &Json) -> String {
    let mut out = String::new();
    write(&mut out, json);
    out
}

fn write(out: &mut String, json: &Json) {
    match json {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::UInt(n) => out.push_str(&n.to_string()),
        Json::Num(x) => write_f64(out, *x),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(out, item);
            }
            out.push(']');
        }
        Json::Obj(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write(out, v);
            }
            out.push('}');
        }
    }
}
