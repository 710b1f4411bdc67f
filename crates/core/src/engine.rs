//! Batched estimation with a shared cross-query sub-twig cache.
//!
//! The per-query estimators in [`crate::estimator`] memoize sub-twig
//! estimates only for the duration of one query. Realistic workloads
//! (Figure 9's query sets, the online tuner's feedback loop) estimate many
//! structurally overlapping twigs against the same summary, recomputing the
//! same decompositions query after query. [`EstimationEngine`] keeps those
//! sub-twig estimates in a hash-sharded cache that persists across queries
//! and is shared by the worker threads of [`EstimationEngine::estimate_batch`].
//!
//! ## Correctness
//!
//! A cached value is a pure function of three inputs: the summary content,
//! the canonical sub-twig key, and the *effective voting width* (the number
//! of removable pairs averaged per recursion node — 1 for
//! [`Estimator::Recursive`] and both fix-sized estimators, `voting_cap` for
//! [`Estimator::RecursiveVoting`]). The cache is therefore keyed by
//! (generation, voting class, canonical key):
//!
//! * **Generation** — every [`TreeLattice`] carries a generation drawn from
//!   a process-wide counter, reassigned by every mutation
//!   ([`TreeLattice::update_after_edit`], [`TreeLattice::prune`],
//!   [`TreeLattice::set_summary`] — including the online tuner's feedback
//!   path). A shard only answers lookups whose generation matches the one
//!   its entries were computed against, so stale entries are unreachable by
//!   construction and are evicted lazily on the next write.
//! * **Voting class** — estimates computed under different effective voting
//!   widths are distinct cache populations; [`Estimator::Recursive`],
//!   [`Estimator::FixSized`], and [`Estimator::FixSizedVoting`] share class
//!   1 (their inner recursions are identical), `RecursiveVoting` uses its
//!   saturated `voting_cap`. A fix-sized estimator's *whole-query* answer —
//!   a telescoping product, not the recursive estimate of the same twig —
//!   lives in a class of its own that names the estimator and the summary
//!   order `k` the windows were cut at (`CacheClass`), so a warm
//!   fix-sized query is one probe too.
//!
//! Since the interned-id rework, the key axis is a dense [`TwigId`] from the
//! engine-wide [`TwigInterner`] rather than the canonical byte string
//! itself: each distinct sub-twig encoding is hashed and cloned exactly
//! once, at id assignment; every later probe — including across generations
//! and voting classes — is a `u32` shard-table lookup with no hashing of key
//! bytes and no allocation. Ids are content-addressed and never recycled, so
//! generation invalidation stays a per-value concern exactly as before.
//!
//! Because cached values equal what a per-query evaluation would compute,
//! batch results are bit-for-bit identical to a sequential
//! [`TreeLattice::estimate_with`] loop, for every estimator and any thread
//! count. Two workers may race to compute the same key; both arrive at the
//! same `f64`, so the duplicate store is benign.
//!
//! ## When the batch path wins
//!
//! The shared cache pays off when queries overlap structurally: workload
//! sweeps over one dataset, repeated estimation during tuning, and skewed
//! query logs. For a single isolated query it degenerates to the per-query
//! memo plus some locking overhead; use [`TreeLattice::estimate`] there.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use tl_fault::{failpoints, Fault};
use tl_twig::{Twig, TwigId, TwigInterner};
use tl_xml::FxHashMap;

use crate::catalog::Catalog;
use crate::dag::with_root_key;
use crate::dag::{DagStats, IdCache};
use crate::resilient::{estimate_guarded, runs_rung_one, ResilientEstimate};
#[cfg(doc)]
use crate::TreeLattice;
use crate::{EstimateOptions, Estimator};

/// Construction knobs for [`EstimationEngine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of cache shards, rounded up to a power of two. More shards
    /// reduce write contention between batch workers; 16 is plenty up to a
    /// few dozen threads.
    pub shards: usize,
    /// Worker threads for [`EstimationEngine::estimate_batch`]
    /// (`0` = available parallelism).
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            shards: 16,
            threads: 0,
        }
    }
}

/// Point-in-time cache counters, exposed by [`EstimationEngine::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Sub-twig lookups answered from the shared cache.
    pub hits: u64,
    /// Sub-twig lookups that had to be computed (each is followed by a
    /// store, so this is also the number of entries ever written).
    pub misses: u64,
    /// Entries currently cached across all shards.
    pub entries: usize,
    /// Approximate heap footprint of the cached entries, in bytes (shard
    /// tables plus the interner's stored encodings, mirroring
    /// `Summary::heap_bytes` accounting).
    pub bytes: usize,
    /// Wall-clock duration of the most recent
    /// [`EstimationEngine::estimate_batch`] call.
    pub last_batch: Duration,
    /// Interner occupancy: distinct canonical encodings ever id-assigned.
    pub interner_keys: usize,
    /// Distinct sub-twig nodes materialized across all evaluation DAGs.
    pub dag_nodes: u64,
    /// Total sub-twig references across all evaluation DAGs; exceeds
    /// `dag_nodes` whenever decomposition operands are shared.
    pub dag_refs: u64,
    /// Canonical key bytes cloned into the interner — charged only on first
    /// sighting of an encoding. A warm probe clones zero key bytes; this
    /// counter staying flat across a repeat workload is the allocation-free
    /// lookup guarantee.
    pub key_clone_bytes: u64,
}

impl EngineStats {
    /// Fraction of lookups served from cache; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Shared-sub-twig dedup ratio: DAG references per distinct DAG node.
    /// Greater than 1 whenever structural sharing collapsed any references;
    /// 0 when no DAG was built yet.
    pub fn dedup_ratio(&self) -> f64 {
        if self.dag_nodes == 0 {
            0.0
        } else {
            self.dag_refs as f64 / self.dag_nodes as f64
        }
    }
}

/// One lock-guarded slice of the cache.
struct Shard {
    /// Generation the entries were computed against. Lookups for any other
    /// generation miss; stores for a newer one clear the shard first.
    generation: u64,
    /// `(cache class, interned twig id) -> estimate`, flattened to a
    /// single probe on the warm path.
    entries: FxHashMap<(CacheClass, TwigId), f64>,
}

/// Which population a cached value belongs to. Values of different classes
/// for the same twig differ, so the class is part of every key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum CacheClass {
    /// A sub-twig's recursive estimate under this effective voting width.
    SubTwig(u32),
    /// A fix-sized estimator's whole-query answer: windows cut at order
    /// `k`, one cover (`voting: false`) or the two-cover average.
    FixedWhole { k: u32, voting: bool },
}

impl CacheClass {
    /// The class of the sub-twig values `estimator`'s DAG reads and writes:
    /// the effective voting width they were computed under.
    fn sub_twig(estimator: Estimator, opts: &EstimateOptions) -> Self {
        CacheClass::SubTwig(match estimator {
            // The inner recursion of both fix-sized estimators runs
            // non-voting, identical to plain recursive decomposition.
            Estimator::Recursive | Estimator::FixSized | Estimator::FixSizedVoting => 1,
            Estimator::RecursiveVoting => opts.voting_cap.clamp(1, u32::MAX as usize) as u32,
        })
    }

    /// The class a query's root answer lives in: its sub-twig class for the
    /// recursive estimators, a whole-query class for the fix-sized ones.
    fn root(estimator: Estimator, opts: &EstimateOptions, k: usize) -> Self {
        match estimator {
            Estimator::Recursive | Estimator::RecursiveVoting => Self::sub_twig(estimator, opts),
            Estimator::FixSized | Estimator::FixSizedVoting => CacheClass::FixedWhole {
                k: u32::try_from(k).unwrap_or(u32::MAX),
                voting: estimator == Estimator::FixSizedVoting,
            },
        }
    }
}

/// A persistent, thread-safe estimation service over any [`Catalog`].
///
/// ```
/// use tl_xml::{parse_document, ParseOptions};
/// use treelattice::{BuildConfig, EstimationEngine, Estimator, TreeLattice};
///
/// let doc = parse_document(
///     b"<r><a><b/><c/></a><a><b/></a></r>",
///     ParseOptions::default(),
/// ).unwrap();
/// let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(2));
/// let engine = EstimationEngine::default();
/// let twigs = vec![lattice.parse_query("a[b][c]").unwrap(); 8];
/// let batch = engine.estimate_batch(
///     &lattice,
///     &twigs,
///     Estimator::RecursiveVoting,
///     &Default::default(),
/// );
/// assert_eq!(batch.len(), 8);
/// assert!(engine.stats().hits > 0); // repeated queries share sub-twigs
/// ```
pub struct EstimationEngine {
    shards: Box<[RwLock<Shard>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
    threads: usize,
    /// Engine-wide id assignment for canonical sub-twig encodings. Read-lock
    /// fast path for warm probes; a write lock is taken only to assign a
    /// fresh id. Survives [`EstimationEngine::clear`] and generation bumps —
    /// ids are content-addressed, so they stay valid forever.
    interner: RwLock<TwigInterner>,
    hits: AtomicU64,
    misses: AtomicU64,
    key_clone_bytes: AtomicU64,
    dag_nodes: AtomicU64,
    dag_refs: AtomicU64,
    last_batch_nanos: AtomicU64,
    /// Metric sink shared with batch worker threads; [`tl_obs::Noop`]
    /// unless [`EstimationEngine::with_recorder`] installed a live one.
    rec: Arc<dyn tl_obs::Recorder>,
}

impl Default for EstimationEngine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl EstimationEngine {
    /// Creates an engine with an empty cache.
    pub fn new(config: EngineConfig) -> Self {
        Self::with_recorder(config, Arc::new(tl_obs::Noop))
    }

    /// Creates an engine reporting to `rec`: per-query `engine.queries` /
    /// `engine.query.latency_us` / `engine.decomposition.depth`, cache
    /// `engine.cache.{hits,misses}`, and the `engine.batch` span. The
    /// recorder is `Arc`-shared so batch worker threads report too.
    pub fn with_recorder(config: EngineConfig, rec: Arc<dyn tl_obs::Recorder>) -> Self {
        let n = config.shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| {
                RwLock::new(Shard {
                    generation: 0,
                    entries: FxHashMap::default(),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            shards,
            mask: n - 1,
            threads: config.threads,
            interner: RwLock::new(TwigInterner::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            key_clone_bytes: AtomicU64::new(0),
            dag_nodes: AtomicU64::new(0),
            dag_refs: AtomicU64::new(0),
            last_batch_nanos: AtomicU64::new(0),
            rec,
        }
    }

    /// Estimates one query through the shared cache against any [`Catalog`]
    /// backend — the in-memory lattice or the zero-copy mmap reader. Returns
    /// exactly what [`TreeLattice::estimate_with`] returns for the same
    /// inputs. Generations keep backends apart: every opened catalog carries
    /// a fresh one, so cached values never leak between stores.
    pub fn estimate<C: Catalog + ?Sized>(
        &self,
        catalog: &C,
        twig: &Twig,
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> f64 {
        let mut cache = SharedIdCache::new(self, catalog, estimator, opts);
        self.estimate_in(catalog, twig, estimator, opts, &mut cache, false)
            .value
    }

    /// True when [`estimate_resilient`](EstimationEngine::estimate_resilient)
    /// answers `twig` without decomposing anything: its root answer is
    /// cached for `catalog`'s generation under this estimator's class, or it
    /// names a label the summary lacks (answered zero). Deciding fires no
    /// fail-point, checks no budget and moves no counter, so a caller can
    /// route on it — answer now, or queue — and the call it then makes sees
    /// exactly the fail-point sequence it would have seen anyway.
    ///
    /// A `true` is a snapshot: should the entry vanish before the call (a
    /// generation bump in between), `estimate_resilient` computes it cold
    /// and returns the same answer.
    pub fn is_warm<C: Catalog + ?Sized>(
        &self,
        catalog: &C,
        twig: &Twig,
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> bool {
        if !catalog.knows_labels(twig) {
            return true;
        }
        let k = catalog.max_size();
        if !runs_rung_one(k, twig, opts) {
            return false;
        }
        let class = CacheClass::root(estimator, opts, k);
        with_root_key(twig, |bytes| {
            let Some(id) = self.interner.read().get(bytes) else {
                return false;
            };
            let shard = self.shard_for_id(id).read();
            shard.generation == catalog.generation() && shard.entries.contains_key(&(class, id))
        })
    }

    /// One query against an existing cache adapter (whose `(generation,
    /// voting class)` must match the arguments): plain when `ladder` is
    /// false, down the degradation ladder under `opts.budget` when true.
    /// Batch workers reuse one adapter across all their queries so counters
    /// flush once per worker, not once per query.
    fn estimate_in<C: Catalog + ?Sized>(
        &self,
        catalog: &C,
        twig: &Twig,
        estimator: Estimator,
        opts: &EstimateOptions,
        cache: &mut SharedIdCache<'_>,
        ladder: bool,
    ) -> ResilientEstimate {
        let start = cache.recording.then(Instant::now);
        match estimate_guarded(catalog, twig, estimator, opts, cache, ladder) {
            Some((est, dag)) => {
                self.record_query(cache, start, dag);
                est
            }
            None => ResilientEstimate::exact(0.0),
        }
    }

    /// The per-query recording both the plain and the resilient paths
    /// share: DAG size into the adapter's batched counters, and — when
    /// recording — `engine.queries`, `engine.query.latency_us` since
    /// `start`, and `engine.decomposition.depth`. `dag` is `None` when the
    /// budgeted rung 1 tripped, so a degraded query adds no depth sample.
    fn record_query(
        &self,
        cache: &mut SharedIdCache<'_>,
        start: Option<Instant>,
        dag: Option<(usize, DagStats)>,
    ) {
        if let Some((_, stats)) = dag {
            cache.dag_nodes += stats.nodes;
            cache.dag_refs += stats.refs;
        }
        if let Some(start) = start {
            self.rec.add(tl_obs::names::ENGINE_QUERIES, 1);
            self.rec.observe(
                tl_obs::names::QUERY_LATENCY_US,
                start.elapsed().as_micros() as u64,
            );
            if let Some((depth, _)) = dag {
                self.rec.observe(tl_obs::names::DECOMP_DEPTH, depth as u64);
            }
        }
    }

    /// Estimates every twig in `batch`, in order, splitting the work over
    /// the configured worker threads. Workers pull indices from a shared
    /// atomic cursor, so an expensive query does not stall the others.
    /// `Sync` because workers probe the store concurrently — every backend
    /// qualifies (the mmap catalog's lookup counter is atomic).
    ///
    /// Results are bit-for-bit equal to calling
    /// [`TreeLattice::estimate_with`] per twig, regardless of thread count.
    pub fn estimate_batch<C: Catalog + Sync + ?Sized>(
        &self,
        catalog: &C,
        batch: &[Twig],
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> Vec<f64> {
        let _span = tl_obs::SpanGuard::start(&*self.rec, tl_obs::names::SPAN_BATCH);
        let start = Instant::now();
        let threads = self.effective_threads(batch.len());
        let results: Vec<f64> = if threads <= 1 {
            let mut cache = SharedIdCache::new(self, catalog, estimator, opts);
            batch
                .iter()
                .map(|t| {
                    self.estimate_in(catalog, t, estimator, opts, &mut cache, false)
                        .value
                })
                .collect()
        } else {
            let slots: Vec<AtomicU64> = batch.iter().map(|_| AtomicU64::new(0)).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let mut cache = SharedIdCache::new(self, catalog, estimator, opts);
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(twig) = batch.get(i) else { break };
                            let v = self
                                .estimate_in(catalog, twig, estimator, opts, &mut cache, false)
                                .value;
                            slots[i].store(v.to_bits(), Ordering::Relaxed);
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|bits| f64::from_bits(bits.into_inner()))
                .collect()
        };
        self.last_batch_nanos
            .store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        results
    }

    /// Estimates one query through the shared cache under the budget in
    /// `opts`, degrading instead of erroring (see [`crate::resilient`]),
    /// and containing any panic in the estimation path as
    /// [`tl_fault::FaultKind::WorkerPanic`]. Any [`Catalog`] backend runs
    /// the same ladder.
    ///
    /// Rung 1 runs on the DAG through the shared cache with the budget
    /// enforced; degraded rungs use per-query caches and never touch the
    /// shards, so a budget-constrained caller can never pollute estimates
    /// served to unconstrained ones.
    pub fn estimate_resilient<C: Catalog + ?Sized>(
        &self,
        catalog: &C,
        twig: &Twig,
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> Result<ResilientEstimate, Fault> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if failpoints::fire(failpoints::sites::ENGINE_WORKER) {
                panic!(
                    "injected by fail-point `{}`",
                    failpoints::sites::ENGINE_WORKER
                );
            }
            let mut cache = SharedIdCache::new(self, catalog, estimator, opts);
            self.estimate_in(catalog, twig, estimator, opts, &mut cache, true)
        }));
        match outcome {
            Ok(est) => {
                if self.rec.enabled() && est.degradation.is_degraded() {
                    self.rec.add(tl_obs::names::ENGINE_DEGRADED, 1);
                }
                Ok(est)
            }
            Err(payload) => {
                self.rec.add(tl_obs::names::FAULT_WORKER_PANICS, 1);
                self.rec.add(tl_obs::names::FAULT_TOTAL, 1);
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".to_owned());
                Err(Fault::worker_panic(msg))
            }
        }
    }

    /// [`estimate_batch`](EstimationEngine::estimate_batch) with per-query
    /// fault isolation: each worker item runs under `catch_unwind`, so one
    /// poisoned query comes back as `Err(FaultKind::WorkerPanic)` while
    /// every other entry completes normally. The shard locks are
    /// `parking_lot` (no poisoning) and the shared cache only ever holds
    /// fully-computed undegraded values, so a contained panic cannot leave
    /// the cache inconsistent.
    pub fn estimate_batch_resilient<C: Catalog + Sync + ?Sized>(
        &self,
        catalog: &C,
        batch: &[Twig],
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> Vec<Result<ResilientEstimate, Fault>> {
        let _span = tl_obs::SpanGuard::start(&*self.rec, tl_obs::names::SPAN_BATCH);
        let start = Instant::now();
        let threads = self.effective_threads(batch.len());
        let results: Vec<Result<ResilientEstimate, Fault>> = if threads <= 1 {
            batch
                .iter()
                .map(|t| self.estimate_resilient(catalog, t, estimator, opts))
                .collect()
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(twig) = batch.get(i) else { break };
                                local.push((
                                    i,
                                    self.estimate_resilient(catalog, twig, estimator, opts),
                                ));
                            }
                            local
                        })
                    })
                    .collect();
                let mut slots: Vec<Option<Result<ResilientEstimate, Fault>>> =
                    (0..batch.len()).map(|_| None).collect();
                for handle in handles {
                    // Workers contain estimation panics internally; a join
                    // failure would mean the harness itself is broken.
                    for (i, result) in handle.join().expect("resilient worker exited cleanly") {
                        slots[i] = Some(result);
                    }
                }
                slots
                    .into_iter()
                    .map(|slot| slot.expect("cursor visits every index"))
                    .collect()
            })
        };
        self.last_batch_nanos
            .store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        results
    }

    /// Drops every cached entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut guard = shard.write();
            guard.entries.clear();
            guard.generation = 0;
        }
    }

    /// Current cache statistics.
    pub fn stats(&self) -> EngineStats {
        let mut entries = 0usize;
        let mut bytes = 0usize;
        for shard in &self.shards {
            let guard = shard.read();
            entries += guard.entries.len();
            bytes +=
                guard.entries.capacity() * (std::mem::size_of::<((CacheClass, TwigId), f64)>() + 1);
        }
        let interner = self.interner.read();
        EngineStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            bytes: bytes + interner.heap_bytes(),
            last_batch: Duration::from_nanos(self.last_batch_nanos.load(Ordering::Relaxed)),
            interner_keys: interner.len(),
            dag_nodes: self.dag_nodes.load(Ordering::Relaxed),
            dag_refs: self.dag_refs.load(Ordering::Relaxed),
            key_clone_bytes: self.key_clone_bytes.load(Ordering::Relaxed),
        }
    }

    fn effective_threads(&self, batch_len: usize) -> usize {
        let configured = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        configured.min(batch_len.max(1))
    }

    /// Dense ids need no hashing to pick a shard: the low bits are already
    /// uniformly spread by first-sighting order.
    fn shard_for_id(&self, id: TwigId) -> &RwLock<Shard> {
        &self.shards[(id as usize) & self.mask]
    }
}

/// Routes the DAG evaluator's id-keyed cache traffic to the engine's
/// shards, batching counter updates until drop. Valid for one
/// `(generation, estimator, options)` triple, so a batch worker holds a
/// single adapter across all its queries and pays the atomic flush once.
struct SharedIdCache<'e> {
    engine: &'e EstimationEngine,
    generation: u64,
    /// Class of the sub-twig values (`lookup`/`store`).
    class: CacheClass,
    /// Class of the fix-sized whole-query answers (`*_whole`).
    whole: CacheClass,
    hits: u64,
    misses: u64,
    key_clone_bytes: u64,
    fresh_keys: u64,
    dag_nodes: u64,
    dag_refs: u64,
    /// `rec.enabled()` sampled once at construction, so the per-query path
    /// skips the dynamic dispatch entirely while a worker holds the adapter.
    recording: bool,
}

impl<'e> SharedIdCache<'e> {
    fn new<C: Catalog + ?Sized>(
        engine: &'e EstimationEngine,
        catalog: &C,
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> Self {
        Self {
            engine,
            generation: catalog.generation(),
            class: CacheClass::sub_twig(estimator, opts),
            whole: CacheClass::root(estimator, opts, catalog.max_size()),
            hits: 0,
            misses: 0,
            key_clone_bytes: 0,
            fresh_keys: 0,
            dag_nodes: 0,
            dag_refs: 0,
            recording: engine.rec.enabled(),
        }
    }
}

impl IdCache for SharedIdCache<'_> {
    fn intern(&mut self, bytes: &[u8]) -> TwigId {
        // Warm probe: a shared read lock and no allocation. Only a
        // first-sighting encoding escalates to the write lock and pays the
        // one-time clone.
        if let Some(id) = self.engine.interner.read().get(bytes) {
            return id;
        }
        let (id, cloned) = self.engine.interner.write().intern_bytes(bytes);
        // `cloned > 0` iff this thread won the assignment race; a loser's
        // write-lock re-probe hits and clones nothing.
        self.key_clone_bytes += cloned as u64;
        self.fresh_keys += (cloned > 0) as u64;
        id
    }

    fn lookup(&mut self, id: TwigId) -> Option<f64> {
        self.lookup_in(self.class, id)
    }

    fn store(&mut self, id: TwigId, value: f64) {
        self.store_in(self.class, id, value);
    }

    fn lookup_whole(&mut self, id: TwigId) -> Option<f64> {
        self.lookup_in(self.whole, id)
    }

    fn store_whole(&mut self, id: TwigId, value: f64) {
        self.store_in(self.whole, id, value);
    }
}

impl SharedIdCache<'_> {
    fn lookup_in(&mut self, class: CacheClass, id: TwigId) -> Option<f64> {
        let guard = self.engine.shard_for_id(id).read();
        let value = if guard.generation == self.generation {
            guard.entries.get(&(class, id)).copied()
        } else {
            None
        };
        match value {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        value
    }

    fn store_in(&mut self, class: CacheClass, id: TwigId, value: f64) {
        let mut guard = self.engine.shard_for_id(id).write();
        if guard.generation != self.generation {
            // Entries belong to a superseded summary; evict lazily.
            guard.entries.clear();
            guard.generation = self.generation;
        }
        guard.entries.insert((class, id), value);
    }
}

impl Drop for SharedIdCache<'_> {
    fn drop(&mut self) {
        // Zero deltas skip the shared-line RMW: a warm single-probe query
        // flushes exactly one counter.
        if self.hits > 0 {
            self.engine.hits.fetch_add(self.hits, Ordering::Relaxed);
        }
        if self.misses > 0 {
            self.engine.misses.fetch_add(self.misses, Ordering::Relaxed);
        }
        if self.key_clone_bytes > 0 {
            self.engine
                .key_clone_bytes
                .fetch_add(self.key_clone_bytes, Ordering::Relaxed);
        }
        if self.dag_nodes > 0 {
            self.engine
                .dag_nodes
                .fetch_add(self.dag_nodes, Ordering::Relaxed);
        }
        if self.dag_refs > 0 {
            self.engine
                .dag_refs
                .fetch_add(self.dag_refs, Ordering::Relaxed);
        }
        if self.recording {
            self.engine
                .rec
                .add(tl_obs::names::ENGINE_CACHE_HITS, self.hits);
            self.engine
                .rec
                .add(tl_obs::names::ENGINE_CACHE_MISSES, self.misses);
            self.engine
                .rec
                .add(tl_obs::names::ENGINE_INTERNER_KEYS, self.fresh_keys);
            self.engine
                .rec
                .add(tl_obs::names::ENGINE_KEY_CLONE_BYTES, self.key_clone_bytes);
            self.engine
                .rec
                .add(tl_obs::names::ENGINE_DAG_NODES, self.dag_nodes);
            self.engine
                .rec
                .add(tl_obs::names::ENGINE_DAG_REFS, self.dag_refs);
        }
    }
}

#[cfg(test)]
mod tests {
    use tl_xml::{parse_document, Document, ParseOptions};

    use super::*;
    use crate::{BuildConfig, Degradation, TreeLattice};

    fn doc(s: &str) -> Document {
        parse_document(s.as_bytes(), ParseOptions::default()).unwrap()
    }

    fn sample_lattice() -> TreeLattice {
        let mut s = String::from("<r>");
        for _ in 0..6 {
            s.push_str("<a><b><c/><d/></b><e/></a>");
        }
        s.push_str("</r>");
        TreeLattice::build(&doc(&s), &BuildConfig::with_k(3))
    }

    #[test]
    fn engine_matches_per_query_estimates() {
        let lat = sample_lattice();
        let engine = EstimationEngine::default();
        let queries = ["a[b[c][d]][e]", "a/b/c", "a[b][e]", "r/a/b/c"];
        for est in Estimator::ALL {
            for q in queries {
                let twig = lat.parse_query(q).unwrap();
                let direct = lat.estimate(&twig, est);
                let cached = engine.estimate(&lat, &twig, est, &EstimateOptions::default());
                assert_eq!(direct.to_bits(), cached.to_bits(), "{est} {q}");
                // Second pass answers from cache with the same bits.
                let warm = engine.estimate(&lat, &twig, est, &EstimateOptions::default());
                assert_eq!(direct.to_bits(), warm.to_bits(), "{est} {q} warm");
            }
        }
        let stats = engine.stats();
        assert!(stats.hits > 0, "repeat queries must hit");
        assert!(stats.entries > 0);
        assert!(stats.bytes > 0);
    }

    /// The engine's batch path must produce bit-identical results whether
    /// it reads from the in-memory lattice or the zero-copy mmap catalog,
    /// and the two generations must not share cache entries.
    #[test]
    fn engine_batch_agrees_across_catalog_backends() {
        let lat = sample_lattice();
        let dir = std::env::temp_dir().join(format!(
            "tl-engine-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.tlat");
        std::fs::write(&path, lat.to_bytes()).unwrap();
        let mmap = crate::catalog::MmapCatalog::open(&path).unwrap();
        let queries = ["a[b[c][d]][e]", "a/b/c", "a[b][e]", "r/a/b/c"];
        let batch: Vec<Twig> = queries
            .iter()
            .map(|q| lat.parse_query(q).unwrap())
            .collect();
        let engine = EstimationEngine::default();
        for est in Estimator::ALL {
            let opts = EstimateOptions::default();
            let mem = engine.estimate_batch(&lat, &batch, est, &opts);
            let via_mmap = engine.estimate_batch(&mmap, &batch, est, &opts);
            for (q, (a, b)) in queries.iter().zip(mem.iter().zip(&via_mmap)) {
                assert_eq!(a.to_bits(), b.to_bits(), "{est} {q}");
            }
        }
        assert!(mmap.lookups() > 0, "mmap backend actually served probes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_labels_estimate_zero_without_caching() {
        let lat = sample_lattice();
        let engine = EstimationEngine::default();
        let twig = lat.parse_query("nosuchlabel/other").unwrap();
        assert_eq!(
            engine.estimate(
                &lat,
                &twig,
                Estimator::Recursive,
                &EstimateOptions::default()
            ),
            0.0
        );
        assert_eq!(engine.stats().entries, 0);
    }

    #[test]
    fn voting_classes_do_not_collide() {
        let lat = sample_lattice();
        let engine = EstimationEngine::default();
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        let opts = EstimateOptions::default();
        // Warm the non-voting class first, then voting must not reuse it.
        let plain = engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        let voted = engine.estimate(&lat, &twig, Estimator::RecursiveVoting, &opts);
        assert_eq!(
            plain.to_bits(),
            lat.estimate(&twig, Estimator::Recursive).to_bits()
        );
        assert_eq!(
            voted.to_bits(),
            lat.estimate(&twig, Estimator::RecursiveVoting).to_bits()
        );
    }

    /// A fix-sized whole-query answer and the recursive estimate of the same
    /// twig live in different classes: warming one never answers the other,
    /// in either order, and every warm answer keeps its estimator's bits.
    #[test]
    fn fixed_whole_query_entry_does_not_collide_with_recursive_entry() {
        // Correlated optional children, so covering windows and recursive
        // decomposition assume different independences.
        let mut s = String::from("<r>");
        for i in 0..12 {
            s.push_str("<a>");
            s.push_str(if i % 2 == 0 { "<b/>" } else { "" });
            s.push_str(if i % 3 == 0 { "<c/>" } else { "" });
            s.push_str(if i % 2 == 0 || i % 3 == 0 { "<d/>" } else { "" });
            s.push_str(if i % 4 == 0 { "<e/><e/>" } else { "<e/>" });
            s.push_str("</a>");
        }
        s.push_str("</r>");
        let lat = TreeLattice::build(&doc(&s), &BuildConfig::with_k(3));
        let twig = lat.parse_query("a[b][c][d]").unwrap();
        assert!(twig.len() > lat.k(), "the query must need covering windows");
        let expect = |est| lat.estimate(&twig, est).to_bits();
        assert_ne!(
            expect(Estimator::FixSized),
            expect(Estimator::Recursive),
            "the fixture must tell the two classes apart"
        );
        let opts = EstimateOptions::default();
        let mut orders = vec![Estimator::ALL.to_vec()];
        orders.push(Estimator::ALL.iter().rev().copied().collect());
        for order in orders {
            let engine = EstimationEngine::default();
            for &est in &order {
                assert!(!engine.is_warm(&lat, &twig, est, &opts), "{est} cold");
                let cold = engine.estimate_resilient(&lat, &twig, est, &opts).unwrap();
                assert_eq!(cold.value.to_bits(), expect(est), "{est} cold");
                assert!(engine.is_warm(&lat, &twig, est, &opts), "{est} warmed");
            }
            for &est in &order {
                let hits = engine.stats().hits;
                let warm = engine.estimate_resilient(&lat, &twig, est, &opts).unwrap();
                assert_eq!(warm.value.to_bits(), expect(est), "{est} warm");
                assert_eq!(engine.stats().hits, hits + 1, "{est}: one root probe");
            }
        }
        // The whole-query class carries the order its windows were cut at.
        let whole = |k| CacheClass::root(Estimator::FixSized, &opts, k);
        assert_ne!(whole(3), whole(4));
        assert_ne!(whole(3), CacheClass::sub_twig(Estimator::FixSized, &opts));
        assert_ne!(
            whole(3),
            CacheClass::root(Estimator::FixSizedVoting, &opts, 3)
        );
    }

    #[test]
    fn generation_bump_invalidates() {
        let mut lat = sample_lattice();
        let engine = EstimationEngine::default();
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        let opts = EstimateOptions::default();
        let before = engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        assert!(before > 0.0);
        let g0 = lat.generation();
        lat.prune(0.0);
        assert_ne!(lat.generation(), g0);
        let after = engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        assert_eq!(
            after.to_bits(),
            lat.estimate(&twig, Estimator::Recursive).to_bits(),
            "post-mutation estimates come from the new summary"
        );
    }

    #[test]
    fn clear_empties_the_cache() {
        let lat = sample_lattice();
        let engine = EstimationEngine::default();
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        engine.estimate(
            &lat,
            &twig,
            Estimator::Recursive,
            &EstimateOptions::default(),
        );
        assert!(engine.stats().entries > 0);
        engine.clear();
        assert_eq!(engine.stats().entries, 0);
    }

    #[test]
    fn recorder_sees_queries_cache_traffic_and_batch_span() {
        let lat = sample_lattice();
        let rec = Arc::new(tl_obs::MetricsRecorder::new());
        let engine = EstimationEngine::with_recorder(
            EngineConfig {
                shards: 4,
                threads: 2,
            },
            rec.clone(),
        );
        let plain = EstimationEngine::default();
        let twigs: Vec<_> = ["a[b[c][d]][e]", "a/b/c", "a[b[c][d]][e]"]
            .iter()
            .map(|q| lat.parse_query(q).unwrap())
            .collect();
        let opts = EstimateOptions::default();
        let observed = engine.estimate_batch(&lat, &twigs, Estimator::RecursiveVoting, &opts);
        let expected = plain.estimate_batch(&lat, &twigs, Estimator::RecursiveVoting, &opts);
        for (a, b) in observed.iter().zip(&expected) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "recording must not change results"
            );
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counters[tl_obs::names::ENGINE_QUERIES], 3);
        assert_eq!(snap.histograms[tl_obs::names::QUERY_LATENCY_US].count, 3);
        assert_eq!(snap.histograms[tl_obs::names::DECOMP_DEPTH].count, 3);
        assert_eq!(snap.spans[tl_obs::names::SPAN_BATCH].count, 1);
        let stats = engine.stats();
        assert_eq!(snap.counters[tl_obs::names::ENGINE_CACHE_HITS], stats.hits);
        assert_eq!(
            snap.counters[tl_obs::names::ENGINE_CACHE_MISSES],
            stats.misses
        );
        assert!(stats.hits > 0, "the repeated query must hit the cache");
    }

    /// The served path (`estimate_resilient`) feeds the same per-query
    /// metrics as the plain path: one depth sample per query and the DAG
    /// size counters, flushed with the cache counters.
    #[test]
    fn resilient_path_records_depth_and_dag_size() {
        let lat = sample_lattice();
        let rec = Arc::new(tl_obs::MetricsRecorder::new());
        let engine = EstimationEngine::with_recorder(EngineConfig::default(), rec.clone());
        let queries = ["a[b[c][d]][e]", "a/b/c", "a[b[c][d]][e]", "r/a/b/c"];
        let opts = EstimateOptions::default();
        for q in queries {
            let twig = lat.parse_query(q).unwrap();
            let res = engine
                .estimate_resilient(&lat, &twig, Estimator::RecursiveVoting, &opts)
                .expect("no fault injected");
            assert_eq!(res.degradation, Degradation::None, "{q}");
        }
        let snap = rec.snapshot();
        assert_eq!(
            snap.histograms[tl_obs::names::DECOMP_DEPTH].count,
            queries.len() as u64
        );
        let stats = engine.stats();
        assert!(stats.dag_refs > 0, "resilient queries build DAGs");
        assert_eq!(
            snap.counters[tl_obs::names::ENGINE_DAG_REFS],
            stats.dag_refs
        );
        assert_eq!(
            snap.counters[tl_obs::names::ENGINE_DAG_NODES],
            stats.dag_nodes
        );
    }

    #[test]
    fn warm_probes_clone_zero_key_bytes() {
        let lat = sample_lattice();
        let engine = EstimationEngine::default();
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        let opts = EstimateOptions::default();
        engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        let cold = engine.stats();
        assert!(cold.key_clone_bytes > 0, "first sighting pays the clone");
        assert!(cold.interner_keys > 0);
        for _ in 0..4 {
            engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        }
        let warm = engine.stats();
        assert_eq!(
            warm.key_clone_bytes, cold.key_clone_bytes,
            "warm probes must clone zero key bytes"
        );
        assert_eq!(warm.interner_keys, cold.interner_keys);
        assert!(
            warm.hits > cold.hits,
            "repeat queries answer from the shards"
        );
    }

    #[test]
    fn dedup_ratio_exceeds_one_on_standard_workload() {
        let lat = sample_lattice();
        let engine = EstimationEngine::default();
        let opts = EstimateOptions::default();
        for q in ["a[b[c][d]][e]", "a/b/c", "a[b][e]", "r/a/b/c"] {
            let twig = lat.parse_query(q).unwrap();
            engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        }
        let stats = engine.stats();
        assert!(stats.dag_nodes > 0);
        assert!(
            stats.dedup_ratio() > 1.0,
            "shared sub-twigs must collapse references: {}",
            stats.dedup_ratio()
        );
    }

    #[test]
    fn interner_survives_clear_and_generation_bumps() {
        let mut lat = sample_lattice();
        let engine = EstimationEngine::default();
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        let opts = EstimateOptions::default();
        engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        let keys = engine.stats().interner_keys;
        engine.clear();
        lat.prune(0.0);
        // Pruning may force deeper expansion (new sub-twigs, new ids) …
        engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        let first = engine.stats();
        assert!(first.interner_keys >= keys, "ids are never recycled");
        // … but ids are content-addressed: repeating the workload against
        // the cleared cache and new generation re-clones nothing.
        engine.clear();
        engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        let second = engine.stats();
        assert_eq!(second.interner_keys, first.interner_keys);
        assert_eq!(second.key_clone_bytes, first.key_clone_bytes);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let engine = EstimationEngine::new(EngineConfig {
            shards: 3,
            threads: 1,
        });
        assert_eq!(engine.shards.len(), 4);
        assert_eq!(engine.mask, 3);
    }
}
