//! `build-corpus`: IMDB-shaped documents, written out as XML during
//! set-up, go through `parse_document`, `TreeLattice::build_corpus`
//! (sharded mining and merging), `to_bytes` and `from_bytes`. The only
//! workload that exercises XML parsing, mining and serialization inside
//! its timed loop; the others load a summary built during set-up.

use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use tl_datagen::{Dataset, GenConfig};
use tl_obs::json::Json;
use tl_obs::{names, MetricsRecorder};
use tl_twig::{parse_twig_in, MatchCounter};
use tl_workload::positive_workload_with_index;
use tl_xml::{parse_document, write_document, DocIndex, Document, ParseOptions};
use treelattice::{
    CorpusConfig, EngineConfig, EstimationEngine, Estimator, MmapCatalog, TreeLattice,
};

use crate::fixture::Query;
use crate::replay::{self, Read, Stream};
use crate::report::Checks;
use crate::stats;
use crate::trace::{self, Span, Tracer, ROOT};
use crate::{Ctx, Outcome};

struct Params {
    docs: usize,
    elements: usize,
    k: usize,
    shards: usize,
    setup_reps: usize,
}

/// Mined counts compared against the matcher per run.
const COUNT_SAMPLE: usize = 24;

fn doc_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}

/// Generates and writes the corpus, then reads it back into memory.
fn set_up(ctx: &Ctx, p: &Params) -> Vec<Vec<u8>> {
    let dir = ctx.dir.join("corpus");
    std::fs::create_dir_all(&dir).expect("create the corpus directory inside the checkout");
    (0..p.docs)
        .map(|i| {
            let doc = Dataset::Imdb.generate(GenConfig {
                seed: doc_seed(ctx.seed, i),
                target_elements: p.elements,
            });
            let path = dir.join(format!("doc{i:02}.xml"));
            let mut file = std::io::BufWriter::new(
                std::fs::File::create(&path).expect("create a corpus file"),
            );
            write_document(&doc, &mut file).expect("write a corpus file");
            drop(file);
            std::fs::read(&path).expect("read a corpus file back")
        })
        .collect()
}

struct Built {
    docs: Vec<Document>,
    lattice: TreeLattice,
    bytes: Vec<u8>,
    merge_ms: u64,
}

/// One parse → build → serialize → deserialize pass.
fn build_once(files: &[Vec<u8>], p: &Params, tr: &mut Tracer, id: u64) -> Built {
    tr.span("build", ROOT, id, |tr, parent| {
        let docs: Vec<Document> = files
            .iter()
            .map(|f| {
                tr.span("xml.parse", parent, id, |_, _| {
                    parse_document(f, ParseOptions::default()).expect("corpus XML parses")
                })
            })
            .collect();
        let rec = MetricsRecorder::new();
        let config = CorpusConfig {
            max_size: p.k,
            shards: p.shards,
            threads: 1,
        };
        let lattice = tr.span("miner.mine", parent, id, |_, _| {
            TreeLattice::build_corpus_observed(&docs, config, None, &rec)
        });
        let bytes = tr.span("serialize.to_bytes", parent, id, |_, _| lattice.to_bytes());
        let lattice = tr
            .span("serialize.from_bytes", parent, id, |_, _| {
                TreeLattice::from_bytes(&bytes)
            })
            .expect("a summary reloads from its own bytes");
        let merge_ms = rec
            .snapshot()
            .counters
            .get(names::MINER_MERGE_MS)
            .copied()
            .unwrap_or(0);
        Built {
            docs,
            lattice,
            bytes,
            merge_ms,
        }
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let p = if ctx.short {
        Params {
            docs: 3,
            elements: 2_000,
            k: 4,
            shards: 2,
            setup_reps: 1,
        }
    } else {
        Params {
            docs: 16,
            elements: 12_500,
            k: 5,
            shards: 2,
            setup_reps: 9,
        }
    };
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut files = Vec::new();
    for _ in 0..p.setup_reps {
        let t0 = Instant::now();
        files = set_up(ctx, &p);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let xml_bytes: usize = files.iter().map(Vec::len).sum();
    out.named.set("setup.peak_rss_mb", stats::peak_rss_mb());

    // Untraced builds give the end-to-end figures; a traced run adds as
    // many traced builds for the overhead and the layer self times. A
    // build always completes, so a run may overrun `--seconds` by one.
    let run_builds = |traced: bool, seconds: f64, first_id: u64| {
        let mut tr = Tracer::new(traced, ctx.epoch);
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let mut times = Vec::new();
        let mut first = None;
        let mut digests = Vec::new();
        while times.is_empty() || Instant::now() < end {
            let t0 = Instant::now();
            let b = build_once(&files, &p, &mut tr, first_id + times.len() as u64);
            times.push(t0.elapsed().as_nanos() as u64);
            digests.push(tl_server::protocol::fnv1a(&b.bytes));
            first.get_or_insert(b);
        }
        (times, first.expect("one build"), digests, tr.into_spans())
    };
    let plain_secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (times, first, mut digests, plain_spans) = run_builds(false, plain_secs, 0);
    let traced = ctx
        .trace
        .then(|| run_builds(true, ctx.seconds / 2.0, 1 << 32));
    if let Some((_, _, d, _)) = &traced {
        digests.extend(d);
    }
    // The same corpus must give the same summary bytes on every build.
    for (i, &d) in digests.iter().enumerate() {
        out.checks.check(d == digests[0], || {
            format!("build {i} digest {d:x} differs from {:x}", digests[0])
        });
    }
    out.checks
        .check(first.lattice.to_bytes() == first.bytes, || {
            "the corpus summary does not round-trip through from_bytes".into()
        });

    let mut check_tr = Tracer::new(ctx.trace, ctx.epoch);
    let indexes: Vec<DocIndex> = check_tr.span("corpus.index", ROOT, 2 << 32, |tr, parent| {
        first
            .docs
            .iter()
            .map(|d| tr.span("xml.index", parent, 2 << 32, |_, _| DocIndex::new(d)))
            .collect()
    });
    check_counts(ctx, &first, &indexes, &mut out.checks);
    let pool = qerr_pool(ctx, &first, &indexes, p.k);
    let (qerr_mean, qerr_gmean) = crate::serve::qerr(&first.lattice, &pool);

    let e2e = build_figures(&times);
    out.windows = e2e.windows_json();
    let elements: usize = first.docs.iter().map(Document::len).sum();
    let elems_per_s = elements as f64 / (e2e.p50_us / 1e6);
    out.e2e.set("setup_s", stats::median_f64(&setup_s));
    out.e2e.set("p50_us", e2e.p50_us);
    out.e2e.set("p99_us", e2e.p99_us);
    out.e2e.set("ops_per_s", elems_per_s);
    out.e2e.set("summary_bytes", first.bytes.len() as f64);
    out.e2e.set("qerr_gmean", qerr_gmean);
    out.named.set("qerr_mean", qerr_mean);
    out.named.set("build.elems_per_s", elems_per_s);
    out.named.set("build.seconds", e2e.p50_us / 1e6);
    out.named.set("build.builds", e2e.samples as f64);
    out.named.set("summary.bytes", first.bytes.len() as f64);
    out.named.set("miner.merge_ms", first.merge_ms as f64);
    out.named.set("corpus.elements", elements as f64);
    out.named.set("corpus.xml_bytes", xml_bytes as f64);

    if let Some((t_times, _, _, t_spans)) = traced {
        let t = build_figures(&t_times);
        out.layers
            .set("trace.overhead_pct", (t.p50_us / e2e.p50_us - 1.0) * 100.0);
        let per_build_ms = |name: &str| replay::path_p50_us(&t_spans, "build", &[name]) / 1e3;
        let parse_ms = per_build_ms("xml.parse");
        out.layers.set("xml.parse_ms", parse_ms);
        out.layers
            .set("xml.parse_mb_s", xml_bytes as f64 / 1e6 / (parse_ms / 1e3));
        out.layers.set("miner.mine_ms", per_build_ms("miner.mine"));
        out.layers
            .set("serialize.to_bytes_ms", per_build_ms("serialize.to_bytes"));
        out.layers.set(
            "serialize.from_bytes_ms",
            per_build_ms("serialize.from_bytes"),
        );
        // A build's own self time is the part no layer call covers.
        let build_self = trace::by_name(&t_spans)
            .get("build")
            .map_or(0.0, |s| s.p50_ns);
        out.layers.set("unattributed_us", build_self / 1e3);
        let check_spans = check_tr.into_spans();
        out.layers.set(
            "xml.index_ms",
            replay::path_p50_us(&check_spans, "corpus.index", &["xml.index"]) / 1e3,
        );
        let probe_spans = layer_probes(ctx, &first, &indexes, &pool, p.k, &mut out);
        out.spans = trace::merge(vec![plain_spans, t_spans, check_spans, probe_spans]);
    }
    out.params = vec![
        ("dataset".into(), Json::Str("imdb".into())),
        ("docs".into(), Json::UInt(p.docs as u64)),
        ("elements_per_doc".into(), Json::UInt(p.elements as u64)),
        ("k".into(), Json::UInt(p.k as u64)),
        ("shards".into(), Json::UInt(p.shards as u64)),
        ("setup_reps".into(), Json::UInt(p.setup_reps as u64)),
    ];
    out
}

/// Build-time figures. Each build is one window, and a run holds too few
/// builds for any percentile above the median to have ten samples
/// beyond it, so the p99 figure repeats the p50 one.
fn build_figures(times_ns: &[u64]) -> stats::Summary {
    let us: Vec<f64> = times_ns.iter().map(|&t| t as f64 / 1e3).collect();
    let fast = stats::fast_quartile(&us, true);
    stats::Summary {
        samples: times_ns.len() as u64,
        windows: times_ns.len(),
        p50_us: fast,
        p99_us: fast,
        ops_per_s: 1e6 / fast,
        per_window: us.iter().map(|&u| (u, u, 1e6 / u)).collect(),
    }
}

/// Corpus-wide true count of `query`: the matcher summed over every
/// parsed document (a document lacking one of the labels contributes 0).
fn corpus_count(docs: &[Document], indexes: &[DocIndex], query: &str) -> u64 {
    docs.iter()
        .zip(indexes)
        .map(|(d, ix)| {
            parse_twig_in(query, d.labels())
                .map_or(0, |t| MatchCounter::with_index(d, ix).count(&t))
        })
        .sum()
}

/// A seeded sample of mined counts must equal the matcher's count summed
/// over the parsed corpus.
fn check_counts(ctx: &Ctx, b: &Built, indexes: &[DocIndex], checks: &mut Checks) {
    let keys: Vec<_> = b
        .lattice
        .summary()
        .iter()
        .map(|(k, c)| (k.clone(), c))
        .collect();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xC0FFEE);
    for i in 0..COUNT_SAMPLE.min(keys.len()) {
        let (key, mined) = &keys[rng.gen_range(0..keys.len())];
        let query = key.decode().to_query_string(b.lattice.labels());
        let truth = corpus_count(&b.docs, indexes, &query);
        let expected = if ctx.perturb && i == 0 {
            truth + 1
        } else {
            truth
        };
        checks.check(*mined == expected, || {
            format!("mined count of `{query}` is {mined}, the matcher counts {expected}")
        });
    }
}

/// Accuracy pool: occurring patterns of sizes 3..=k+2 from the first
/// document, with corpus-wide true counts (sizes above `k` are estimated,
/// not stored).
fn qerr_pool(ctx: &Ctx, b: &Built, indexes: &[DocIndex], k: usize) -> Vec<Query> {
    let mut pool = Vec::new();
    for size in 3..=k + 2 {
        let w =
            positive_workload_with_index(&b.docs[0], &indexes[0], size, 24, ctx.seed ^ size as u64);
        for case in w.cases {
            let text = case.twig.to_query_string(b.docs[0].labels());
            if b.lattice.parse_query(&text).is_ok() {
                let truth = corpus_count(&b.docs, indexes, &text);
                pool.push(Query { text, truth });
            }
        }
    }
    assert!(!pool.is_empty(), "the accuracy pool is empty");
    pool
}

/// Layers the build loop does not reach by itself: the mapped open of the
/// summary, the kept ratio of one document's mine, and the accuracy
/// pool replayed as wire requests and as feedback updates.
fn layer_probes(
    ctx: &Ctx,
    b: &Built,
    indexes: &[DocIndex],
    pool: &[Query],
    k: usize,
    out: &mut Outcome,
) -> Vec<Span> {
    let mut tr = Tracer::new(true, ctx.epoch);
    let path = ctx.dir.join("corpus.tlat");
    std::fs::write(&path, &b.bytes).expect("write the corpus summary inside the checkout");
    let mapped = tr.span("catalog.mmap_open", ROOT, 3 << 32, |_, _| {
        MmapCatalog::open(&path)
    });
    out.checks
        .check(mapped.is_ok(), || "the corpus summary does not map".into());
    let open_spans = tr.into_spans();
    let open_ms = trace::by_name(&open_spans)
        .get("catalog.mmap_open")
        .map_or(f64::NAN, |s| s.p50_ns / 1e6);
    out.layers.set("catalog.mmap_open_ms", open_ms);
    let rec = MetricsRecorder::new();
    tl_miner::mine_with_index_observed(&indexes[0], tl_miner::MineConfig::with_max_size(k), &rec);
    let counters = rec.snapshot().counters;
    let kept = counters.get(names::MINER_KEPT).copied().unwrap_or(0);
    let candidates = counters.get(names::MINER_CANDIDATES).copied().unwrap_or(0);
    out.layers
        .set("miner.kept_ratio", kept as f64 / candidates.max(1) as f64);

    let engine = EstimationEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    let reads: Vec<Read> = (0..pool.len() * Estimator::ALL.len())
        .map(|i| Read {
            estimator: Estimator::ALL[i % Estimator::ALL.len()],
            queries: vec![(i / Estimator::ALL.len()) as u16],
            batch: false,
        })
        .collect();
    let updates = replay::feedback_updates(&b.lattice, pool, k);
    let stream = Stream {
        lattice: &b.lattice,
        pool,
        reads: &reads,
        engine: Some(&engine),
        updates: &updates,
    };
    let spans = replay::run(
        &stream,
        &ctx.dir.join("replica"),
        ctx.epoch,
        &mut out.checks,
        &mut out.layers,
    );
    let s = engine.stats();
    out.layers.set("engine.hit_ratio", s.hit_rate());
    out.layers.set("engine.dag_dedup_ratio", s.dedup_ratio());
    out.layers
        .set("engine.interner_keys", s.interner_keys as f64);
    trace::merge(vec![open_spans, spans])
}
