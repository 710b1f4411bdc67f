//! The estimation service: listener, worker pool, and the
//! degraded-with-provenance overload path.
//!
//! Request lifecycle:
//!
//! 1. A connection thread reads one frame through a buffered reader,
//!    decodes it, and parses the query against the catalog's label table,
//!    borrowed (a label the summary lacks gets a fresh id past the table,
//!    which every estimator answers as zero). Malformed bytes are a typed
//!    fault (status 3); a bad query string is a usage error (status 2).
//!    Neither costs a queue slot. A frame that stalls after its first byte
//!    is read to the end within the idle deadline, or answered with a
//!    typed timeout fault and the connection closed — never half-read.
//! 2. The tenant's [`Budget`] is minted: its deadline runs from here
//!    (admission), so any queue wait counts against it.
//! 3. **Warm short path.** When the engine can answer without decomposing
//!    ([`EstimationEngine::is_warm`]: a cached root answer, or a label
//!    the summary lacks) — for a batch, only when every item can — the
//!    connection thread charges the tenant's lane
//!    ([`FairQueue::charge`]: the drain refusal and virtual-time advance
//!    of an enqueue plus its dispatch) and runs the same
//!    [`EstimationEngine::estimate_resilient`] call a worker would, so
//!    the answer, its degradation tag and its cause are the same bits.
//! 4. Otherwise the request is admitted into its tenant's fair-queue lane
//!    and a worker dequeues it in weighted-fair order and runs the
//!    requested estimator under the budget. Cold estimates, cold batches,
//!    `truth` and `update` take this path. Budget trips degrade down the
//!    ladder inside the engine; the response carries the rung. Both
//!    backends — the in-memory lattice and the read-only mmap catalog —
//!    answer through the same call, so mmap tenants get the same budgets,
//!    degradation tags and shared sub-twig cache as memory tenants.
//! 5. A refused charge or enqueue (lane full, or the server draining) is
//!    **shed**: the connection thread answers with the closed-form Markov
//!    estimate ([`treelattice::markov_estimate`]) tagged
//!    [`Degradation::Markov`] and a cause fault naming the refusal — the
//!    [`treelattice::ResilientEstimate`] contract, so overload is never an
//!    untyped error and never silence.
//! 6. The answer is encoded and written as one frame from a buffer the
//!    connection reuses.
//!
//! `scrape` bypasses the queue entirely: observability must work *best*
//! exactly when the server is overloaded.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use tl_fault::{Budget, Degradation, Fault};
use tl_obs::{names, MetricsRecorder, Recorder};
use tl_twig::canonical::key_of;
use tl_twig::{parse_twig_borrowed, Twig, TwigParseError};
use treelattice::{
    markov_estimate, Catalog, DurabilityPolicy, DurableLattice, DurableOptions, EngineConfig,
    EstimateOptions, EstimationEngine, Estimator, Lookup, MmapCatalog, PatternStore,
    ResilientEstimate, TreeLattice, TunedLattice,
};

use crate::protocol::{
    read_frame_into, release_oversized, write_frame_with, FrameError, Request, Response,
    WireEstimate,
};
use crate::queue::{FairQueue, Refusal, TenantConfig};

/// Per-tenant budget template; a concrete [`Budget`] (with its deadline
/// anchored at admission time) is minted per request.
#[derive(Clone, Copy, Debug, Default)]
pub struct BudgetSpec {
    pub time_limit_ms: Option<u64>,
    pub max_mem_bytes: Option<u64>,
    pub max_k: Option<usize>,
}

impl BudgetSpec {
    pub fn is_unlimited(&self) -> bool {
        self.time_limit_ms.is_none() && self.max_mem_bytes.is_none() && self.max_k.is_none()
    }

    /// Mints the per-request budget, anchoring the deadline now.
    pub fn to_budget(&self) -> Budget {
        let mut b = Budget {
            max_mem_bytes: self.max_mem_bytes,
            deadline: None,
            max_k: self.max_k,
        };
        if let Some(ms) = self.time_limit_ms {
            b = b.with_time_limit(Duration::from_millis(ms));
        }
        b
    }
}

/// One tenant: scheduling lane plus an optional budget override.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    pub config: TenantConfig,
    /// `None` inherits [`ServerConfig::default_budget`].
    pub budget: Option<BudgetSpec>,
}

impl TenantSpec {
    pub fn new(name: impl Into<String>, weight: u32, queue_cap: usize) -> Self {
        Self {
            config: TenantConfig::new(name, weight, queue_cap),
            budget: None,
        }
    }
}

/// Full server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    pub summary_path: PathBuf,
    /// Serve from the zero-copy mmap catalog instead of deserializing
    /// into memory. Read-only: `update` requests are refused as usage
    /// errors. Estimates run the same engine and degradation ladder as the
    /// memory backend, under the same tenant budgets.
    pub mmap: bool,
    /// Port to bind on 127.0.0.1; `0` asks the OS for an ephemeral port
    /// (read it back from [`ServerHandle::addr`] or `--port-file`).
    pub port: u16,
    /// Worker threads; `0` means available parallelism.
    pub workers: usize,
    pub tenants: Vec<TenantSpec>,
    /// Budget for tenants without an override.
    pub default_budget: BudgetSpec,
    /// Byte budget of the online feedback layer (`update` requests).
    pub online_budget_bytes: usize,
    /// Durability directory. When set, every accepted `update` is
    /// appended to a write-ahead log here before it is acknowledged, and
    /// startup recovers from the newest valid snapshot plus the WAL
    /// tail. Incompatible with `mmap` (read-only backend).
    pub wal_dir: Option<PathBuf>,
    /// fsync policy for WAL appends (only meaningful with `wal_dir`).
    pub durability: DurabilityPolicy,
    /// Publish an atomic snapshot (and truncate the WAL) every N
    /// acknowledged updates; `0` disables count-triggered snapshots
    /// (drain still writes a final one).
    pub snapshot_every: u64,
    /// Close connections idle longer than this many milliseconds;
    /// `0` keeps half-open peers forever (the pre-durability behavior).
    pub idle_timeout_ms: u64,
}

impl ServerConfig {
    pub fn new(summary_path: impl Into<PathBuf>) -> Self {
        Self {
            summary_path: summary_path.into(),
            mmap: false,
            port: 0,
            workers: 0,
            tenants: Vec::new(),
            default_budget: BudgetSpec::default(),
            online_budget_bytes: 1 << 20,
            wal_dir: None,
            durability: DurabilityPolicy::Batch,
            snapshot_every: 512,
            idle_timeout_ms: 60_000,
        }
    }
}

/// The lane every unconfigured tenant name maps to.
pub const DEFAULT_TENANT: &str = "default";
const DEFAULT_QUEUE_CAP: usize = 256;

/// The in-memory store behind `update`: a plain tuned lattice (loss on
/// crash) or a [`DurableLattice`] whose WAL append gates every ack.
enum Store {
    Plain(TunedLattice),
    Durable(DurableLattice),
}

impl Store {
    fn tuned(&self) -> &TunedLattice {
        match self {
            Store::Plain(t) => t,
            Store::Durable(d) => d.tuned(),
        }
    }
}

enum Backend {
    Memory {
        // Boxed so the enum stays near the size of its mmap variant.
        store: Box<RwLock<Store>>,
    },
    Mmap {
        catalog: MmapCatalog,
    },
}

impl Backend {
    /// Rung 3 for sheds and expired deadlines: closed-form Markov over
    /// whatever store backs the server. Bit-identical across backends by
    /// the store-identity contract.
    fn markov(&self, twig: &Twig) -> f64 {
        match self {
            Backend::Memory { store } => markov_estimate(store.read().tuned().lattice(), twig),
            Backend::Mmap { catalog } => markov_estimate(catalog, twig),
        }
    }

    /// Parses against the catalog's label table, borrowed: no clone, and
    /// the table is never extended.
    fn parse(&self, query: &str) -> Result<Twig, TwigParseError> {
        match self {
            Backend::Memory { store } => {
                parse_twig_borrowed(query, store.read().tuned().lattice().labels())
            }
            Backend::Mmap { catalog } => parse_twig_borrowed(query, catalog.labels()),
        }
    }

    fn is_warm(
        &self,
        engine: &EstimationEngine,
        twig: &Twig,
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> bool {
        match self {
            Backend::Memory { store } => {
                engine.is_warm(store.read().tuned().lattice(), twig, estimator, opts)
            }
            Backend::Mmap { catalog } => engine.is_warm(catalog, twig, estimator, opts),
        }
    }

    fn estimate(
        &self,
        engine: &EstimationEngine,
        twig: &Twig,
        estimator: Estimator,
        budget: Budget,
    ) -> Response {
        match self {
            Backend::Memory { store } => answer(
                engine,
                store.read().tuned().lattice(),
                twig,
                estimator,
                budget,
            ),
            Backend::Mmap { catalog } => answer(engine, catalog, twig, estimator, budget),
        }
    }

    /// The stored count of the twig's pattern. A twig naming a label the
    /// summary lacks has none, and is answered without a probe.
    fn truth(&self, twig: &Twig) -> Response {
        let stored = match self {
            Backend::Memory { store } => {
                let guard = store.read();
                let lattice = guard.tuned().lattice();
                lattice
                    .knows_labels(twig)
                    .then(|| lattice.summary().stored(&key_of(twig)))
                    .flatten()
            }
            Backend::Mmap { catalog } => catalog
                .knows_labels(twig)
                .then(|| match catalog.lookup_bytes(key_of(twig).as_bytes()) {
                    Lookup::Exact(c) => Some(c),
                    Lookup::Derivable | Lookup::TooLarge => None,
                })
                .flatten(),
        };
        Response::Truth { stored }
    }

    fn update(&self, twig: &Twig, true_count: u64, idem: u64, rec: &dyn Recorder) -> Response {
        match self {
            Backend::Memory { store } => {
                let mut guard = store.write();
                // The summary cannot hold a count for a label it lacks; the
                // id such a label parsed to names nothing, so storing under
                // it would alias every other unknown label.
                if !guard.tuned().lattice().knows_labels(twig) {
                    return Response::usage(Fault::parse(
                        "update names a label the summary does not contain",
                    ));
                }
                match &mut *guard {
                    Store::Plain(tuned) => {
                        tuned.observe(twig, true_count);
                        Response::Updated {
                            generation: tuned.lattice().generation(),
                        }
                    }
                    // The WAL append gates the ack: an append failure is a
                    // typed fault and the observation is NOT applied, so a
                    // client never holds an ack the log cannot replay.
                    Store::Durable(durable) => match durable.apply(twig, true_count, idem, rec) {
                        Ok(applied) => Response::Updated {
                            generation: applied.generation,
                        },
                        Err(fault) => Response::fault(fault),
                    },
                }
            }
            Backend::Mmap { .. } => Response::usage(Fault::parse(
                "update is not supported on the read-only --mmap backend",
            )),
        }
    }
}

/// The estimate options of a served request: defaults under its budget.
fn options(budget: Budget) -> EstimateOptions {
    EstimateOptions {
        budget,
        ..EstimateOptions::default()
    }
}

/// One estimate through the engine's degradation ladder under `budget`, on
/// whichever catalog backs the server (monomorphized per backend).
fn answer<C: Catalog + ?Sized>(
    engine: &EstimationEngine,
    catalog: &C,
    twig: &Twig,
    estimator: Estimator,
    budget: Budget,
) -> Response {
    match engine.estimate_resilient(catalog, twig, estimator, &options(budget)) {
        Ok(est) => Response::Estimate(wire(est)),
        Err(fault) => Response::fault(fault),
    }
}

fn wire(est: ResilientEstimate) -> WireEstimate {
    WireEstimate {
        value: est.value,
        degradation: est.degradation,
        cause: est.cause,
    }
}

/// Pre-parsed work a queue job carries to a worker.
enum Work {
    Estimate {
        twig: Twig,
        estimator: Estimator,
    },
    Batch {
        twigs: Vec<Twig>,
        estimator: Estimator,
    },
    Truth {
        twig: Twig,
    },
    Update {
        twig: Twig,
        true_count: u64,
        idem: u64,
    },
}

struct Job {
    work: Work,
    budget: Budget,
    admitted: Instant,
    reply: mpsc::Sender<Response>,
}

struct Shared {
    backend: Backend,
    engine: EstimationEngine,
    queue: FairQueue<Job>,
    budgets: Vec<BudgetSpec>,
    /// `server.tenant.<name>.latency_us` per lane, built once at start.
    tenant_latency: Vec<String>,
    rec: Arc<MetricsRecorder>,
    shutting_down: AtomicBool,
    /// Per-connection idle deadline; zero disables shedding.
    idle_timeout: Duration,
}

impl Shared {
    fn lane_for(&self, tenant: &str) -> usize {
        self.queue
            .lane_of(tenant)
            .or_else(|| self.queue.lane_of(DEFAULT_TENANT))
            .expect("default lane always configured")
    }

    fn parse(&self, query: &str) -> Result<Twig, Response> {
        self.backend
            .parse(query)
            .map_err(|e| Response::usage(Fault::parse(format!("query `{query}`: {e}"))))
    }

    /// True when the engine answers `work` without decomposing: an
    /// estimate whose answer is warm, or a batch whose every item is.
    fn is_warm(&self, work: &Work, budget: Budget) -> bool {
        let opts = options(budget);
        let warm = |twig: &Twig, estimator: Estimator| {
            self.backend.is_warm(&self.engine, twig, estimator, &opts)
        };
        match work {
            Work::Estimate { twig, estimator } => warm(twig, *estimator),
            Work::Batch { twigs, estimator } => twigs.iter().all(|t| warm(t, *estimator)),
            Work::Truth { .. } | Work::Update { .. } => false,
        }
    }

    /// Answers a refused admission with its shed response.
    fn refuse(&self, work: &Work, refusal: Refusal) -> Response {
        let resp = self.shed(work, refusal);
        if matches!(resp, Response::Error { .. }) {
            self.rec.add(names::SERVER_RESP_FAULT, 1);
        } else {
            self.rec.add(names::SERVER_RESP_DEGRADED, 1);
        }
        resp
    }

    /// Records an answered request: latency since admission, overall and
    /// for the tenant, and whether it came back degraded or faulted.
    fn record_answer(&self, lane: usize, admitted: Instant, resp: &Response) {
        let us = admitted.elapsed().as_micros() as u64;
        self.rec.observe(names::SERVER_LATENCY_US, us);
        self.rec.observe(&self.tenant_latency[lane], us);
        match resp {
            Response::Error { .. } => self.rec.add(names::SERVER_RESP_FAULT, 1),
            Response::Estimate(e) if e.degradation.is_degraded() => {
                self.rec.add(names::SERVER_RESP_DEGRADED, 1)
            }
            Response::Batch(items)
                if items
                    .iter()
                    .any(|i| matches!(i, Ok(e) if e.degradation.is_degraded()) || i.is_err()) =>
            {
                self.rec.add(names::SERVER_RESP_DEGRADED, 1)
            }
            _ => {}
        }
    }

    /// The shed answer: rung 3 with provenance, never an untyped error.
    fn shed(&self, work: &Work, refusal: Refusal) -> Response {
        self.rec.add(names::SERVER_SHED, 1);
        let cause = Fault::budget(match refusal {
            Refusal::LaneFull => "shed by admission control: tenant lane full",
            Refusal::Draining => "shed: server draining for shutdown",
        });
        let degraded = |twig: &Twig| WireEstimate {
            value: self.backend.markov(twig),
            degradation: Degradation::Markov,
            cause: Some(cause.clone()),
        };
        match work {
            Work::Estimate { twig, .. } => Response::Estimate(degraded(twig)),
            Work::Batch { twigs, .. } => {
                Response::Batch(twigs.iter().map(|t| Ok(degraded(t))).collect())
            }
            // Truth and update have no degraded form; the refusal itself
            // is the typed answer.
            Work::Truth { .. } | Work::Update { .. } => Response::fault(cause),
        }
    }

    /// Decodes and answers one request body. Blocks until the response
    /// is ready (workers run queued ops; warm estimates, sheds and scrapes
    /// are answered on the calling thread).
    fn process(&self, body: &[u8]) -> Response {
        let request = match Request::decode(body) {
            Ok(r) => r,
            Err(fault) => {
                self.rec.add(names::SERVER_RESP_FAULT, 1);
                return Response::fault(fault);
            }
        };
        if let Request::Scrape { .. } = request {
            self.rec.add(names::SERVER_ACCEPTED, 1);
            self.rec
                .gauge(names::SERVER_QUEUE_DEPTH, self.queue.depth() as f64);
            match &self.backend {
                Backend::Memory { store } => {
                    if let Store::Durable(durable) = &*store.read() {
                        self.rec
                            .gauge(names::SERVER_WAL_LAST_SEQ, durable.last_seq() as f64);
                        self.rec
                            .gauge(names::SERVER_SNAPSHOT_SEQ, durable.snapshot_seq() as f64);
                    }
                }
                Backend::Mmap { catalog } => catalog.flush_lookups(self.rec.as_ref()),
            }
            return Response::Scrape {
                json: self.rec.snapshot().to_json(),
            };
        }
        let lane = self.lane_for(request.tenant());
        let work = match self.build_work(request) {
            Ok(w) => w,
            Err(resp) => {
                self.rec.add(names::SERVER_RESP_FAULT, 1);
                return resp;
            }
        };
        let budget = self.budgets[lane].to_budget();
        let admitted = Instant::now();
        if self.is_warm(&work, budget) {
            if let Err(refusal) = self.queue.charge(lane) {
                return self.refuse(&work, refusal);
            }
            self.rec.add(names::SERVER_ACCEPTED, 1);
            self.rec.add(names::SERVER_INLINE, 1);
            let resp = self.run_work(&work, budget);
            self.record_answer(lane, admitted, &resp);
            return resp;
        }
        let (tx, rx) = mpsc::channel();
        let job = Job {
            work,
            budget,
            admitted,
            reply: tx,
        };
        match self.queue.enqueue(lane, job) {
            Ok(depth) => {
                self.rec.add(names::SERVER_ACCEPTED, 1);
                if depth > 1 {
                    self.rec.add(names::SERVER_QUEUED, 1);
                }
                self.rec.gauge(names::SERVER_QUEUE_DEPTH, depth as f64);
            }
            Err((job, refusal)) => return self.refuse(&job.work, refusal),
        }
        match rx.recv() {
            Ok(resp) => resp,
            // Worker pool gone mid-request: only happens in shutdown.
            Err(_) => Response::fault(Fault::timeout("server shut down before answering")),
        }
    }

    fn build_work(&self, request: Request) -> Result<Work, Response> {
        Ok(match request {
            Request::Estimate {
                estimator, query, ..
            } => Work::Estimate {
                twig: self.parse(&query)?,
                estimator,
            },
            Request::EstimateBatch {
                estimator, queries, ..
            } => {
                let mut twigs = Vec::with_capacity(queries.len());
                for q in &queries {
                    twigs.push(self.parse(q)?);
                }
                Work::Batch { twigs, estimator }
            }
            Request::Truth { query, .. } => Work::Truth {
                twig: self.parse(&query)?,
            },
            Request::Update {
                query,
                true_count,
                idem,
                ..
            } => Work::Update {
                twig: self.parse(&query)?,
                true_count,
                idem,
            },
            Request::Scrape { .. } => unreachable!("scrape handled inline"),
        })
    }

    fn run_work(&self, work: &Work, budget: Budget) -> Response {
        match work {
            Work::Estimate { twig, estimator } => {
                self.backend
                    .estimate(&self.engine, twig, *estimator, budget)
            }
            Work::Batch { twigs, estimator } => Response::Batch(
                twigs
                    .iter()
                    .map(
                        |t| match self.backend.estimate(&self.engine, t, *estimator, budget) {
                            Response::Estimate(e) => Ok(e),
                            Response::Error { fault, .. } => Err(fault),
                            _ => unreachable!("estimate returns estimate or error"),
                        },
                    )
                    .collect(),
            ),
            Work::Truth { twig } => self.backend.truth(twig),
            Work::Update {
                twig,
                true_count,
                idem,
            } => self
                .backend
                .update(twig, *true_count, *idem, self.rec.as_ref()),
        }
    }

    fn worker_loop(&self) {
        while let Some((lane, job)) = self.queue.dequeue() {
            self.rec
                .gauge(names::SERVER_QUEUE_DEPTH, self.queue.depth() as f64);
            let resp = self.run_work(&job.work, job.budget);
            self.record_answer(lane, job.admitted, &resp);
            // A gone receiver means the connection died; nothing to do.
            let _ = job.reply.send(resp);
        }
    }
}

/// A running server. Dropping without [`ServerHandle::shutdown`] leaves
/// threads running; call `shutdown` for a clean drain-and-join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Taken (and joined) by the first shutdown.
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn recorder(&self) -> Arc<MetricsRecorder> {
        self.shared.rec.clone()
    }

    /// Flags shutdown without blocking (signal-handler safe side:
    /// the handler only stores a flag; this runs on the main thread).
    pub fn signal_shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Stops admitting new work while continuing to serve queued requests
    /// and scrapes — the load-balancer-removal half of a graceful
    /// shutdown. New estimates are answered shed (degraded Markov with a
    /// draining cause), not refused.
    pub fn begin_drain(&self) {
        self.shared.queue.begin_drain();
    }

    /// Graceful shutdown: stop accepting, refuse new admissions, drain
    /// queued work, join the listener and workers, then — on a durable
    /// backend — flush the WAL and publish a final snapshot. An error
    /// from the durable drain is a typed fault (the previous snapshot
    /// and WAL are left intact on disk); the threads are already joined
    /// either way.
    pub fn shutdown(mut self) -> Result<(), Fault> {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; a connection of our own wakes
        // it to see the flag. Should that connect fail while the loop is
        // still parked (no descriptor left), the thread is left detached
        // rather than hanging the drain.
        if let Some(accept) = self.accept.take() {
            let woken = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1)).is_ok();
            if woken || accept.is_finished() {
                let _ = accept.join();
            }
        }
        self.shared.queue.begin_drain();
        let drain_deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.queue.depth() > 0 && Instant::now() < drain_deadline {
            thread::sleep(Duration::from_millis(5));
        }
        self.shared.queue.shutdown();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        if let Backend::Memory { store } = &self.shared.backend {
            if let Store::Durable(durable) = &mut *store.write() {
                durable.drain(self.shared.rec.as_ref())?;
            }
        }
        Ok(())
    }
}

/// Loads the summary, binds the listener, and spawns the accept loop and
/// worker pool. Returns once the socket is live.
pub fn serve(config: ServerConfig) -> Result<ServerHandle, Fault> {
    let rec = Arc::new(MetricsRecorder::with_schema());
    rec.set_meta("server.summary", config.summary_path.display().to_string());
    rec.set_meta(
        "server.backend",
        if config.mmap { "mmap" } else { "memory" },
    );

    let backend = if config.mmap {
        if config.wal_dir.is_some() {
            return Err(Fault::parse(
                "--wal-dir is incompatible with the read-only --mmap backend",
            ));
        }
        let catalog =
            MmapCatalog::open_observed(&config.summary_path, rec.as_ref()).map_err(|e| {
                Fault::corrupt_summary(format!("{}: {e}", config.summary_path.display()))
            })?;
        Backend::Mmap { catalog }
    } else {
        let bytes = std::fs::read(&config.summary_path).map_err(|e| {
            Fault::corrupt_summary(format!("{}: {e}", config.summary_path.display()))
        })?;
        let lattice = TreeLattice::from_bytes(&bytes).map_err(|e| {
            Fault::corrupt_summary(format!("{}: {e}", config.summary_path.display()))
        })?;
        let store = match &config.wal_dir {
            Some(dir) => {
                let opts = DurableOptions {
                    online_budget: config.online_budget_bytes,
                    policy: config.durability,
                    snapshot_every: config.snapshot_every,
                    ..DurableOptions::default()
                };
                let (durable, report) =
                    DurableLattice::open(dir, Some(&lattice), &opts, rec.as_ref())?;
                rec.set_meta("server.wal_dir", dir.display().to_string());
                rec.set_meta("server.durability", config.durability.to_string());
                rec.set_meta("server.recovery", report.to_string());
                Store::Durable(durable)
            }
            None => Store::Plain(TunedLattice::new(lattice, config.online_budget_bytes)),
        };
        Backend::Memory {
            store: Box::new(RwLock::new(store)),
        }
    };
    let engine = EstimationEngine::with_recorder(EngineConfig::default(), rec.clone());

    let mut tenants = config.tenants.clone();
    if !tenants.iter().any(|t| t.config.name == DEFAULT_TENANT) {
        tenants.push(TenantSpec::new(DEFAULT_TENANT, 1, DEFAULT_QUEUE_CAP));
    }
    let lanes: Vec<TenantConfig> = tenants.iter().map(|t| t.config.clone()).collect();
    let budgets: Vec<BudgetSpec> = tenants
        .iter()
        .map(|t| t.budget.unwrap_or(config.default_budget))
        .collect();
    for t in &tenants {
        rec.set_meta(
            format!("server.tenant.{}", t.config.name),
            format!("weight={} cap={}", t.config.weight, t.config.queue_cap),
        );
    }

    let tenant_latency = lanes
        .iter()
        .map(|l| names::server_tenant_latency(&l.name))
        .collect();
    let shared = Arc::new(Shared {
        backend,
        engine,
        queue: FairQueue::new(&lanes),
        budgets,
        tenant_latency,
        rec,
        shutting_down: AtomicBool::new(false),
        idle_timeout: Duration::from_millis(config.idle_timeout_ms),
    });

    let listener = TcpListener::bind(("127.0.0.1", config.port))
        .map_err(|e| Fault::new(tl_fault::FaultKind::Timeout, format!("bind: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| Fault::new(tl_fault::FaultKind::Timeout, format!("local_addr: {e}")))?;

    let worker_count = if config.workers == 0 {
        thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        config.workers
    };
    let workers = (0..worker_count)
        .map(|i| {
            let shared = shared.clone();
            thread::Builder::new()
                .name(format!("tl-server-worker-{i}"))
                .spawn(move || shared.worker_loop())
                .expect("spawn worker")
        })
        .collect();
    let accept = {
        let shared = shared.clone();
        thread::Builder::new()
            .name("tl-server-accept".into())
            .spawn(move || accept_loop(listener, shared))
            .expect("spawn accept loop")
    };

    Ok(ServerHandle {
        addr,
        shared,
        workers,
        accept: Some(accept),
    })
}

/// Accepts connections until shutdown, one detached handler thread each.
/// `accept` blocks; [`ServerHandle::shutdown`] wakes it with a connection of
/// its own once the shutdown flag is set.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok(stream) => {
                shared.rec.add(names::SERVER_CONNECTIONS, 1);
                let handler = shared.clone();
                // Connection threads are detached: they poll the shutdown
                // flag via read timeouts and exit on their own. A refused
                // spawn drops the stream, closing the connection.
                let spawned = thread::Builder::new()
                    .name("tl-server-conn".into())
                    .spawn(move || connection_loop(stream, handler));
                if spawned.is_err() {
                    shared.rec.add(names::SERVER_CONN_SPAWN_FAILURES, 1);
                }
            }
            // Accept failures such as descriptor exhaustion persist for a
            // while; back off instead of spinning on them.
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn connection_loop(stream: TcpStream, shared: Arc<Shared>) {
    // Socket-option failures are surfaced, never silently swallowed:
    // a connection that cannot poll (no read timeout) would pin a thread
    // through shutdown, so it is dropped instead of served blind.
    if stream.set_nodelay(true).is_err() {
        shared.rec.add(names::SERVER_SOCKOPT_ERRORS, 1);
    }
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        shared.rec.add(names::SERVER_SOCKOPT_ERRORS, 1);
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Frame buffers reused for the connection's life (released if one
    // oversized frame grew them).
    let mut body = Vec::new();
    let mut out = Vec::new();
    let mut last_activity = Instant::now();
    // Idle deadline: shed half-open / slow-loris peers deterministically
    // instead of holding a thread forever.
    let idle =
        |since: Instant| !shared.idle_timeout.is_zero() && since.elapsed() >= shared.idle_timeout;
    loop {
        // A frame that has started is read to its end: a pause inside it
        // waits (up to the idle deadline) instead of dropping the bytes
        // read so far.
        let read = read_frame_into(&mut reader, &mut body, &mut |_| {
            if shared.shutting_down.load(Ordering::SeqCst) || idle(last_activity) {
                Err(FrameError::Corrupt(Fault::timeout(
                    "frame stalled mid-read past the idle deadline",
                )))
            } else {
                Ok(())
            }
        });
        match read {
            Ok(()) => {}
            Err(FrameError::Eof) => return,
            Err(FrameError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                if idle(last_activity) {
                    shared.rec.add(names::SERVER_IDLE_CLOSED, 1);
                    return;
                }
                continue;
            }
            Err(FrameError::Io(_)) => return,
            Err(FrameError::Corrupt(fault)) => {
                // The stream cannot be resynchronized after garbage or a
                // half-read frame: answer the typed fault, then close.
                shared.rec.add(names::SERVER_RESP_FAULT, 1);
                let resp = Response::fault(fault);
                let _ = write_frame_with(&mut writer, &mut out, |b| resp.encode_into(b));
                return;
            }
        }
        last_activity = Instant::now();
        let resp = shared.process(&body);
        release_oversized(&mut body);
        if write_frame_with(&mut writer, &mut out, |b| resp.encode_into(b)).is_err() {
            return;
        }
    }
}
