//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer's public function.
//!
//! Each thread owns a [`Tracer`]; spans are kept in memory, merged when
//! the run ends, and written out as one tab-separated file. A span's self
//! time is its duration minus the part its child spans cover. A disabled
//! tracer takes no timestamps, so untraced runs pay one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// All tracers of one run share `epoch`, so their timestamps compare.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span id to
    /// pass as the parent of nested spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce(&mut Self, u32) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, ROOT);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per thread");
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        let out = f(self, id);
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Merges per-thread span lists into one, rebasing parent ids.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for list in lists {
        let base = u32::try_from(all.len()).expect("fewer than 2^32 spans");
        all.extend(list.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus the time its children
/// cover. Children of one parent run one after another on the parent's
/// thread, so their durations do not overlap and can be summed.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Self-time statistics of one span name.
#[derive(Clone, Debug, Default)]
pub struct NameStats {
    pub count: usize,
    pub total_ns: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

impl NameStats {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

/// Self-time statistics per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut groups: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        groups.entry(s.name).or_default().push(t);
    }
    groups
        .into_iter()
        .map(|(name, mut v)| {
            v.sort_unstable();
            let stats = NameStats {
                count: v.len(),
                total_ns: v.iter().sum(),
                p50_ns: stats::percentile(&v, 0.50),
                p99_ns: stats::percentile(&v, 0.99),
            };
            (name, stats)
        })
        .collect()
}

/// Per-request sums of the self time of spans named `name`, sorted; a
/// request id groups a root span with every span beneath it.
pub fn per_request_self(spans: &[Span], names: &[&str]) -> Vec<u64> {
    let selfs = self_times(spans);
    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        if s.parent == ROOT {
            sums.entry(s.request).or_insert(0);
        }
        if names.contains(&s.name) {
            *sums.entry(s.request).or_insert(0) += t;
        }
    }
    let mut v: Vec<u64> = sums.into_values().collect();
    v.sort_unstable();
    v
}

/// Writes every span as `id name start_ns end_ns parent request` lines.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "req",
                start_ns: 0,
                end_ns: 100,
                parent: ROOT,
                request: 1,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 30,
                parent: 0,
                request: 1,
            },
            Span {
                name: "b",
                start_ns: 40,
                end_ns: 90,
                parent: 0,
                request: 1,
            },
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 50]);
        assert_eq!(per_request_self(&spans, &["a", "b"]), vec![70]);
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![
            Span {
                name: "x",
                start_ns: 0,
                end_ns: 5,
                parent: ROOT,
                request: 0,
            },
            Span {
                name: "y",
                start_ns: 1,
                end_ns: 2,
                parent: 0,
                request: 0,
            },
        ];
        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged[3].parent, 2);
        assert_eq!(merged[2].parent, ROOT);
    }
}
