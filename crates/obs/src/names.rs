//! The stable metric-name vocabulary of the pipeline.
//!
//! Every instrumented crate records under one of these names (plus a small
//! set of dynamic per-level miner names, `miner.level<N>.*`). The CLI's
//! `--metrics` snapshots pre-register the whole vocabulary through
//! [`crate::MetricsRecorder::with_schema`], so a snapshot always contains
//! every family — zero-valued when the command did not exercise it — and
//! consumers can rely on key presence.

/// Documents parsed (`tl_xml::parse_document`).
pub const XML_PARSE_DOCS: &str = "xml.parse.docs";
/// Input bytes consumed by the XML parser.
pub const XML_PARSE_BYTES: &str = "xml.parse.bytes";
/// Element nodes produced by the XML parser.
pub const XML_PARSE_NODES: &str = "xml.parse.nodes";
/// Document indexes built (`tl_xml::DocIndex`).
pub const XML_INDEX_BUILDS: &str = "xml.index.builds";
/// Nodes indexed across all `DocIndex` builds.
pub const XML_INDEX_NODES: &str = "xml.index.nodes";

/// Exact match-kernel invocations (`tl_twig::MatchCounter`).
pub const TWIG_MATCH_CALLS: &str = "twig.match.calls";
/// Histogram: total m-table entries allocated per match-kernel call.
pub const TWIG_MATCH_M_ENTRIES: &str = "twig.match.m_entries";

/// Mining runs (`tl_miner::mine`).
pub const MINER_RUNS: &str = "miner.runs";
/// Candidate patterns generated across all levels.
pub const MINER_CANDIDATES: &str = "miner.candidates";
/// Patterns kept (count > 0) across all levels.
pub const MINER_KEPT: &str = "miner.patterns_kept";
/// Candidates counted to zero and dropped, across all levels.
pub const MINER_PRUNED_ZERO: &str = "miner.pruned_zero";
/// Shards (worker partial lattices) used by the last corpus mining run.
pub const MINER_CORPUS_SHARDS: &str = "miner.corpus.shards";
/// Milliseconds spent tree-reducing per-shard partial lattices into the
/// merged corpus lattice.
pub const MINER_MERGE_MS: &str = "miner.merge.ms";

/// Mmap catalogs opened (`treelattice::MmapCatalog`).
pub const CATALOG_MMAP_OPENS: &str = "catalog.mmap.opens";
/// Pattern-count lookups served straight from mapped frame bytes.
pub const CATALOG_MMAP_LOOKUPS: &str = "catalog.mmap.lookups";
/// Bytes mapped (or read, on the non-mmap fallback) across all opens.
pub const CATALOG_MMAP_BYTES_MAPPED: &str = "catalog.mmap.bytes_mapped";

/// Sub-twig lookups answered from the engine's shared cache.
pub const ENGINE_CACHE_HITS: &str = "engine.cache.hits";
/// Sub-twig lookups that had to be computed.
pub const ENGINE_CACHE_MISSES: &str = "engine.cache.misses";
/// Queries estimated (engine or observed per-query path).
pub const ENGINE_QUERIES: &str = "engine.queries";
/// Distinct sub-twig nodes materialized across all evaluation DAGs.
pub const ENGINE_DAG_NODES: &str = "engine.dag.nodes";
/// Total sub-twig references across all evaluation DAGs; the ratio to
/// `engine.dag.nodes` is the structural dedup factor.
pub const ENGINE_DAG_REFS: &str = "engine.dag.refs";
/// Fresh canonical encodings assigned an interned id (cumulative interner
/// occupancy when one engine feeds the recorder).
pub const ENGINE_INTERNER_KEYS: &str = "engine.interner.keys";
/// Canonical key bytes cloned into the interner; stays flat on warm
/// workloads — the allocation-free-probe guarantee, measurable.
pub const ENGINE_KEY_CLONE_BYTES: &str = "engine.interner.key_clone_bytes";
/// Histogram: per-query estimation latency in microseconds.
pub const QUERY_LATENCY_US: &str = "engine.query.latency_us";
/// Histogram: maximum decomposition recursion depth per query.
pub const DECOMP_DEPTH: &str = "engine.decomposition.depth";

/// Requests admitted by the server and answered through the full path
/// (queue + worker + requested estimator).
pub const SERVER_ACCEPTED: &str = "server.requests.accepted";
/// Admitted requests that had to wait behind other work (queue depth was
/// non-zero at enqueue time). Always ≤ `server.requests.accepted`.
pub const SERVER_QUEUED: &str = "server.requests.queued";
/// Requests rejected by admission control (tenant queue full or shutdown
/// draining) and answered degraded-with-provenance instead of queued.
pub const SERVER_SHED: &str = "server.requests.shed";
/// Client connections accepted by the listener.
pub const SERVER_CONNECTIONS: &str = "server.connections";
/// Server responses tagged with a non-`None` degradation (budget trips on
/// the worker path plus admission-control sheds).
pub const SERVER_RESP_DEGRADED: &str = "server.responses.degraded";
/// Server responses carrying a typed fault or usage error.
pub const SERVER_RESP_FAULT: &str = "server.responses.fault";
/// Gauge: queue depth sampled after each enqueue/dequeue.
pub const SERVER_QUEUE_DEPTH: &str = "server.queue.depth";
/// Histogram: server-side request latency (enqueue to response written),
/// microseconds. Per-tenant variants are `server.tenant.<name>.latency_us`.
pub const SERVER_LATENCY_US: &str = "server.latency_us";

/// Socket-option failures (`set_nodelay`/`set_read_timeout`) on accepted
/// connections — surfaced, never silently swallowed.
pub const SERVER_SOCKOPT_ERRORS: &str = "server.sockopt_errors";
/// Connections closed by the server's idle deadline (`--idle-timeout-ms`):
/// half-open or slow-loris peers shed deterministically.
pub const SERVER_IDLE_CLOSED: &str = "server.conn.idle_closed";
/// Gauge (durable backend): sequence number of the last WAL record,
/// sampled at each scrape — the acked prefix recovery must reproduce.
pub const SERVER_WAL_LAST_SEQ: &str = "server.wal.last_seq";
/// Gauge (durable backend): the WAL sequence number the newest published
/// snapshot covers, sampled at each scrape.
pub const SERVER_SNAPSHOT_SEQ: &str = "server.snapshot.seq";

/// The per-tenant latency histogram name for `tenant`.
pub fn server_tenant_latency(tenant: &str) -> String {
    format!("server.tenant.{tenant}.latency_us")
}

/// WAL records appended (each one gates an update acknowledgement).
pub const WAL_APPENDS: &str = "wal.appends";
/// Bytes appended to the WAL (frames, including length/checksum).
pub const WAL_APPEND_BYTES: &str = "wal.append.bytes";
/// fsync(2) calls issued by the WAL writer (policy-dependent).
pub const WAL_FSYNCS: &str = "wal.fsyncs";
/// Appends that failed (torn/short write, fsync error, poisoned log);
/// each one is a typed fault to the caller, never an ack.
pub const WAL_APPEND_FAILURES: &str = "wal.append.failures";
/// WAL records replayed by startup recovery.
pub const WAL_REPLAYED: &str = "wal.replayed";
/// WAL truncations after a snapshot became durable.
pub const WAL_TRUNCATIONS: &str = "wal.truncations";
/// Atomic snapshots published (temp-file → fsync → rename).
pub const SNAPSHOT_WRITES: &str = "snapshot.writes";
/// Bytes written across all published snapshots.
pub const SNAPSHOT_BYTES: &str = "snapshot.bytes";
/// Snapshot attempts that failed (the WAL keeps covering the tail).
pub const SNAPSHOT_FAILURES: &str = "snapshot.failures";

/// Typed faults surfaced to callers (parse failures, corrupt summaries,
/// contained worker panics — injected or organic).
pub const FAULT_TOTAL: &str = "fault.total";
/// Batch worker panics contained by the engine's `catch_unwind` shell.
pub const FAULT_WORKER_PANICS: &str = "fault.worker_panics";
/// Faults injected by active `tl-fault` fail-points (chaos runs only).
pub const FAULT_INJECTED: &str = "fault.injected";
/// Resilient estimates that came from a degraded rung of the ladder
/// (reduced-k or Markov fall-back) after a budget trip.
pub const ENGINE_DEGRADED: &str = "engine.degraded";

/// Workload queries generated (`tl_workload`).
pub const WORKLOAD_QUERIES: &str = "workload.queries";
/// Synthetic elements generated (`tl_datagen`).
pub const DATAGEN_ELEMENTS: &str = "datagen.elements";

/// Span: XML parse wall-clock.
pub const SPAN_PARSE: &str = "xml.parse";
/// Span: document index build wall-clock.
pub const SPAN_INDEX: &str = "xml.index.build";
/// Span: full mining run wall-clock (per-level spans are
/// `miner.level<N>`).
pub const SPAN_MINE: &str = "miner.mine";
/// Span: one engine batch estimation call.
pub const SPAN_BATCH: &str = "engine.batch";
/// Span: workload generation.
pub const SPAN_WORKLOAD: &str = "workload.generate";
/// Span: synthetic document generation.
pub const SPAN_DATAGEN: &str = "datagen.generate";
/// Span: baseline synopsis construction (`tl_baselines`).
pub const SPAN_BASELINE_BUILD: &str = "baseline.build";

/// Counters pre-registered by [`crate::MetricsRecorder::with_schema`].
pub const SCHEMA_COUNTERS: &[&str] = &[
    XML_PARSE_DOCS,
    XML_PARSE_BYTES,
    XML_PARSE_NODES,
    XML_INDEX_BUILDS,
    XML_INDEX_NODES,
    TWIG_MATCH_CALLS,
    MINER_RUNS,
    MINER_CANDIDATES,
    MINER_KEPT,
    MINER_PRUNED_ZERO,
    MINER_CORPUS_SHARDS,
    MINER_MERGE_MS,
    CATALOG_MMAP_OPENS,
    CATALOG_MMAP_LOOKUPS,
    CATALOG_MMAP_BYTES_MAPPED,
    ENGINE_CACHE_HITS,
    ENGINE_CACHE_MISSES,
    ENGINE_QUERIES,
    ENGINE_DAG_NODES,
    ENGINE_DAG_REFS,
    ENGINE_INTERNER_KEYS,
    ENGINE_KEY_CLONE_BYTES,
    ENGINE_DEGRADED,
    SERVER_ACCEPTED,
    SERVER_QUEUED,
    SERVER_SHED,
    SERVER_CONNECTIONS,
    SERVER_RESP_DEGRADED,
    SERVER_RESP_FAULT,
    SERVER_SOCKOPT_ERRORS,
    SERVER_IDLE_CLOSED,
    WAL_APPENDS,
    WAL_APPEND_BYTES,
    WAL_FSYNCS,
    WAL_APPEND_FAILURES,
    WAL_REPLAYED,
    WAL_TRUNCATIONS,
    SNAPSHOT_WRITES,
    SNAPSHOT_BYTES,
    SNAPSHOT_FAILURES,
    FAULT_TOTAL,
    FAULT_WORKER_PANICS,
    FAULT_INJECTED,
    WORKLOAD_QUERIES,
    DATAGEN_ELEMENTS,
];

/// Histograms pre-registered by [`crate::MetricsRecorder::with_schema`].
pub const SCHEMA_HISTOGRAMS: &[&str] = &[
    TWIG_MATCH_M_ENTRIES,
    QUERY_LATENCY_US,
    DECOMP_DEPTH,
    SERVER_LATENCY_US,
];

/// Spans pre-registered by [`crate::MetricsRecorder::with_schema`].
pub const SCHEMA_SPANS: &[&str] = &[
    SPAN_PARSE,
    SPAN_INDEX,
    SPAN_MINE,
    SPAN_BATCH,
    SPAN_WORKLOAD,
    SPAN_DATAGEN,
    SPAN_BASELINE_BUILD,
];
