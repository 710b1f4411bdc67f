//! The IMDB-shaped summary fixture shared by the served and estimation
//! workloads, and the query pools drawn from its document.

use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

use tl_datagen::{Dataset, GenConfig};
use tl_obs::{names, MetricsRecorder};
use tl_twig::canonical::key_of;
use tl_workload::{positive_workload_with_index, q_error};
use tl_xml::{parse_document, write_document, DocIndex, Document, ParseOptions};
use treelattice::{BuildConfig, MmapCatalog, TreeLattice};

use crate::report::Checks;
use crate::report::Named;
use crate::trace::{self, Span, Tracer, ROOT};

pub struct Fixture {
    pub doc: Document,
    pub lattice: TreeLattice,
    pub summary_path: PathBuf,
    pub summary_bytes: usize,
    pub xml_bytes: usize,
    /// Patterns kept / candidates counted while mining.
    pub kept_ratio: f64,
}

/// Generates the document, writes it as XML text and parses it back (the
/// way a user's corpus arrives), mines it at order `k`, and writes the
/// summary to `dir`. Reloading and mapping the file check it round-trips.
pub fn build(
    seed: u64,
    elements: usize,
    k: usize,
    dir: &Path,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Fixture {
    let generated = tr.span("datagen.generate", ROOT, 0, |_, _| {
        Dataset::Imdb.generate(GenConfig {
            seed,
            target_elements: elements,
        })
    });
    let xml = tr.span("xml.write", ROOT, 0, |_, _| {
        let mut out = Vec::new();
        write_document(&generated, &mut out).expect("writing XML to memory cannot fail");
        out
    });
    drop(generated);
    let doc = tr.span("xml.parse", ROOT, 0, |_, _| {
        parse_document(&xml, ParseOptions::default()).expect("generated XML parses")
    });
    let index = tr.span("xml.index", ROOT, 0, |_, _| DocIndex::new(&doc));
    let rec = MetricsRecorder::new();
    let lattice = tr.span("miner.mine", ROOT, 0, |_, _| {
        TreeLattice::build_with_index_observed(&doc, &index, &BuildConfig::with_k(k), &rec)
    });
    let counters = rec.snapshot().counters;
    let kept = counters.get(names::MINER_KEPT).copied().unwrap_or(0);
    let candidates = counters.get(names::MINER_CANDIDATES).copied().unwrap_or(0);
    let bytes = tr.span("serialize.to_bytes", ROOT, 0, |_, _| lattice.to_bytes());
    let summary_path = dir.join("fixture.tlat");
    std::fs::write(&summary_path, &bytes).expect("write the summary inside the checkout");
    let reloaded = tr.span("serialize.from_bytes", ROOT, 0, |_, _| {
        TreeLattice::from_bytes(&bytes)
    });
    checks.check(
        reloaded.map(|l| l.to_bytes() == bytes).unwrap_or(false),
        || "fixture summary does not round-trip through from_bytes".into(),
    );
    let mapped = tr.span("catalog.mmap_open", ROOT, 0, |_, _| {
        MmapCatalog::open(&summary_path)
    });
    checks.check(mapped.is_ok(), || "fixture summary does not map".into());
    Fixture {
        doc,
        lattice,
        summary_path,
        summary_bytes: bytes.len(),
        xml_bytes: xml.len(),
        kept_ratio: kept as f64 / candidates.max(1) as f64,
    }
}

/// One pool query: its text as a client sends it and its true count.
#[derive(Clone, Debug)]
pub struct Query {
    pub text: String,
    pub truth: u64,
}

/// Up to `per_size` distinct occurring patterns of each size, with their
/// true counts in `doc`, rendered as query strings that reparse to the
/// same canonical pattern against `lattice`'s labels.
pub fn pool(
    doc: &Document,
    lattice: &TreeLattice,
    sizes: RangeInclusive<usize>,
    per_size: usize,
    seed: u64,
) -> Vec<Query> {
    let index = DocIndex::new(doc);
    let mut out = Vec::new();
    for size in sizes {
        let w =
            positive_workload_with_index(doc, &index, size, per_size, seed ^ (size as u64) << 32);
        for case in w.cases {
            let text = case.twig.to_query_string(lattice.labels());
            let same = lattice
                .parse_query(&text)
                .is_ok_and(|t| key_of(&t) == key_of(&case.twig));
            if same {
                out.push(Query {
                    text,
                    truth: case.true_count,
                });
            }
        }
    }
    assert!(!out.is_empty(), "the query pool is empty");
    out
}

/// Build-path layer figures from the set-up spans: the median self time
/// of each call across set-up repetitions.
pub fn setup_layers(spans: &[Span], xml_bytes: usize, kept_ratio: f64, layers: &mut Named) {
    let by = trace::by_name(spans);
    let ms = |name: &str| by.get(name).map_or(f64::NAN, |s| s.p50_ns / 1e6);
    layers.set("xml.parse_ms", ms("xml.parse"));
    layers.set(
        "xml.parse_mb_s",
        xml_bytes as f64 / 1e6 / (ms("xml.parse") / 1e3),
    );
    layers.set("xml.index_ms", ms("xml.index"));
    layers.set("miner.mine_ms", ms("miner.mine"));
    layers.set("miner.kept_ratio", kept_ratio);
    layers.set("serialize.to_bytes_ms", ms("serialize.to_bytes"));
    layers.set("serialize.from_bytes_ms", ms("serialize.from_bytes"));
    layers.set("catalog.mmap_open_ms", ms("catalog.mmap_open"));
}

/// Arithmetic and geometric mean q-error of `(true count, estimate)`
/// pairs. The arithmetic mean follows the few worst estimates; the
/// geometric mean follows the typical one.
pub fn qerr_means(pairs: impl IntoIterator<Item = (u64, f64)>) -> (f64, f64) {
    let (mut n, mut sum, mut log_sum) = (0usize, 0.0, 0.0);
    for (truth, estimate) in pairs {
        let q = q_error(truth, estimate);
        n += 1;
        sum += q;
        log_sum += q.ln();
    }
    let n = n.max(1) as f64;
    (sum / n, (log_sum / n).exp())
}

/// Indices of the pool queries larger than the summary order `k`: the
/// ones whose true count the summary does not already hold, so feeding
/// it back changes the summary.
pub fn above_order(lattice: &TreeLattice, pool: &[Query], k: usize) -> Vec<usize> {
    let above: Vec<usize> = (0..pool.len())
        .filter(|&i| {
            lattice
                .parse_query(&pool[i].text)
                .is_ok_and(|t| t.len() > k)
        })
        .collect();
    assert!(
        !above.is_empty(),
        "the pool has no query above the summary order"
    );
    above
}
