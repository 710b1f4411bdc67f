//! The iterative decomposition-DAG evaluator — the one kernel behind every
//! estimate: plain, batched, resilient, and fix-sized at an explicit `k`.
//!
//! The recursive scheme (Figure 4) re-derives the same sub-twigs constantly:
//! the three operands of neighboring removable pairs overlap in all but one
//! or two nodes, so one voting step over `p` pairs references `3p` operands
//! of which typically far fewer are distinct. This module makes the sharing
//! explicit:
//!
//! 1. every sub-twig is interned to a dense [`TwigId`] once (the
//!    [`IdCache`]'s interner), after which all bookkeeping is `u32`s;
//! 2. a query is expanded — iteratively, with an explicit stack — into a
//!    *decomposition DAG* held in flat arenas (`nodes`, `pairs`): one node
//!    per distinct sub-twig, one `[t1, t2, t12]` id triple per taken
//!    removable pair, structural dedup via an id-to-node index;
//! 3. unresolved nodes are evaluated bottom-up in one pass, ordered by
//!    (size, creation index) — a valid topological order because every
//!    operand is strictly smaller than the twig it decomposes — and each
//!    unique node is evaluated exactly once, its value stored back to the
//!    shared cache so later queries in the batch resolve it on sight.
//!
//! The arithmetic per node is Figure 4's pair average (pair enumeration
//! order, `<= 0` short-circuits and summation order as written in the
//! paper), so results are bit-identical to the plain recursion — the
//! independent reference in `tl-oracle` checks exactly that. The only
//! difference from a recursion is *eagerness*: operands a recursion would
//! skip past a zero factor still get evaluated and cached, which can only
//! add cache entries, never change a value (every sub-twig's estimate is a
//! pure function of the summary and the voting class).
//!
//! An evaluator built with a [`Budget`] enforces it for the degradation
//! ladder ([`crate::resilient`]): the deadline (and the `budget.deadline`
//! fail-point) is checked before the root probe and on every sub-twig
//! reference, and every cache store charges its key bytes plus 32 bytes of
//! entry overhead against the memory cap (and the `budget.mem`
//! fail-point). Built without one, no check runs and evaluation cannot
//! fail.
//!
//! Two cold-path economies keep single-query latency low (the decompose
//! gate's cold ceiling): the arena buffers live in a thread-local
//! [`DagScratch`] pool, so a cold query reuses the previous query's
//! capacity instead of growing fresh vectors — a budget trip mid-build
//! returns every pooled buffer, and the next evaluation's reset clears the
//! rest; and roots the pattern store can answer directly (within-`k`
//! patterns — exact counts or trivially-zero levels) return after one
//! store probe without touching the arenas at all.
//!
//! The evaluator is generic over [`PatternStore`], so the same DAG runs
//! against the in-memory summary, the eager file catalog, or the zero-copy
//! mmap catalog (see [`crate::catalog`]).

use tl_fault::{Budget, Fault};
use tl_twig::canonical::{decode_bytes_into, key_of, KeyEncoder};
use tl_twig::ops::{decompose_pair_into, fixed_cover_with, removable_pairs_into, CoverStrategy};
use tl_twig::{Twig, TwigId, TwigInterner, TwigNodeId};
use tl_xml::{FxHashMap, LabelId};

use crate::catalog::PatternStore;
use crate::estimator::{EstimateOptions, Estimator};
use crate::summary::Lookup;

/// Where interned ids and resolved sub-twig estimates live during DAG
/// evaluation: the per-query implementation is [`LocalIdCache`]; the engine
/// substitutes its sharded cross-query cache.
pub(crate) trait IdCache {
    /// Interns a canonical encoding, returning its dense id.
    fn intern(&mut self, bytes: &[u8]) -> TwigId;

    /// Returns the cached estimate for an interned id, if present.
    fn lookup(&mut self, id: TwigId) -> Option<f64>;

    /// Records the estimate for an interned id.
    fn store(&mut self, id: TwigId, value: f64);

    /// Returns a fix-sized estimator's cached whole-query answer for an
    /// interned root. Kept apart from the sub-twig values: a whole-query
    /// product differs from the recursive estimate of the same twig. A
    /// per-query cache never sees a repeat, so the default keeps nothing.
    fn lookup_whole(&mut self, _id: TwigId) -> Option<f64> {
        None
    }

    /// Records a fix-sized estimator's whole-query answer for an interned
    /// root (see [`IdCache::lookup_whole`]).
    fn store_whole(&mut self, _id: TwigId, _value: f64) {}
}

/// Per-query id cache: a private interner plus a dense value table. Ids are
/// dense and first-sighting ordered, so the values live in a flat vector —
/// no hashing after the intern.
#[derive(Debug, Default)]
pub(crate) struct LocalIdCache {
    interner: TwigInterner,
    values: Vec<Option<f64>>,
}

impl IdCache for LocalIdCache {
    fn intern(&mut self, bytes: &[u8]) -> TwigId {
        self.interner.intern_bytes(bytes).0
    }

    fn lookup(&mut self, id: TwigId) -> Option<f64> {
        self.values.get(id as usize).copied().flatten()
    }

    fn store(&mut self, id: TwigId, value: f64) {
        let ix = id as usize;
        if self.values.len() <= ix {
            self.values.resize(ix + 1, None);
        }
        self.values[ix] = Some(value);
    }
}

/// Evaluation statistics for one DAG build: `nodes` distinct sub-twigs
/// materialized, `refs` total references to them. `refs / nodes` is the
/// shared-sub-twig dedup ratio — strictly greater than 1 whenever
/// decomposition operands overlap.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct DagStats {
    pub nodes: u64,
    pub refs: u64,
}

/// What [`estimate_dag`] returns: the estimate, the deepest expansion the
/// query forced (0 when the root resolved without decomposing), and the
/// DAG's size.
pub(crate) type DagEstimate = (f64, usize, DagStats);

/// Why an unbudgeted evaluation's `Result` is always `Ok`.
pub(crate) const UNBUDGETED: &str = "unbudgeted estimation cannot fault";

/// Bytes charged against [`Budget::max_mem_bytes`] per cache entry on top
/// of its key bytes.
const ENTRY_OVERHEAD: u64 = 32;

enum State {
    Resolved(f64),
    /// Awaiting bottom-up evaluation; the fields slice this node's operand
    /// triples out of the shared pair arena.
    Pending {
        first_pair: u32,
        n_pairs: u32,
    },
}

/// One distinct sub-twig: its interned id, node count, and resolution state.
struct DagNode {
    id: TwigId,
    size: u32,
    state: State,
}

/// The pooled arena storage behind a [`DagEvaluator`]: node and pair
/// arenas, the dedup index, worklists, and the encode/decode scratch
/// buffers. One instance lives per thread (see [`with_dag_scratch`]) and is
/// reset — clearing lengths, keeping capacities — at the start of every
/// evaluation, so cold queries stop paying the arena's allocation ramp-up
/// after the thread's first query.
#[derive(Default)]
pub(crate) struct DagScratch {
    /// Node arena, in first-reference order.
    nodes: Vec<DagNode>,
    /// Pair arena: `[t1, t2, t12]` node indices per taken removable pair.
    pairs: Vec<[u32; 3]>,
    /// Structural dedup: interned id → node index.
    index: FxHashMap<TwigId, u32>,
    /// Node indices awaiting evaluation this round.
    pending: Vec<u32>,
    /// Expansion worklist: (node index, expansion depth, decoded twig).
    build_stack: Vec<(u32, usize, Twig)>,
    encoder: KeyEncoder,
    twig_pool: Vec<Twig>,
    byte_pool: Vec<Vec<u8>>,
    rm_nodes: Vec<TwigNodeId>,
    rm_pairs: Vec<(TwigNodeId, TwigNodeId)>,
    /// Evaluation order scratch for `evaluate`.
    order: Vec<u32>,
}

impl DagScratch {
    /// Clears per-evaluation state; pools and capacities survive.
    fn reset(&mut self) {
        // Twigs still queued for expansion — left behind by a budget trip
        // mid-build — go back to the pool.
        for (_, _, twig) in self.build_stack.drain(..) {
            self.twig_pool.push(twig);
        }
        self.nodes.clear();
        self.pairs.clear();
        self.index.clear();
        self.pending.clear();
        self.order.clear();
    }
}

thread_local! {
    /// One arena pool per thread: DAG evaluation never nests (no callback
    /// re-enters the estimator), so a single borrow is always available.
    static DAG_SCRATCH: std::cell::RefCell<DagScratch> =
        std::cell::RefCell::new(DagScratch::default());
}

/// Runs `f` with the thread's pooled [`DagScratch`].
fn with_dag_scratch<R>(f: impl FnOnce(&mut DagScratch) -> R) -> R {
    DAG_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The explicit decomposition DAG of one query (or one batch of fix-sized
/// windows), built and evaluated without recursion against any
/// [`PatternStore`] backend.
pub(crate) struct DagEvaluator<'a, 's, 'c, C: IdCache, S: PatternStore + ?Sized> {
    store: &'s S,
    cache: &'c mut C,
    voting: bool,
    cap: usize,
    /// Limits enforced on every reference and store; `None` evaluates
    /// unchecked and cannot fail.
    budget: Option<Budget>,
    /// Cache-entry bytes charged against `budget` so far.
    charged: u64,
    scratch: &'a mut DagScratch,
    /// Deepest expansion reached: the root of each `eval_twig` expands at
    /// depth 1, its operands at 2, …
    max_depth: usize,
    refs: u64,
}

impl<'a, 's, 'c, C: IdCache, S: PatternStore + ?Sized> DagEvaluator<'a, 's, 'c, C, S> {
    pub(crate) fn new(
        store: &'s S,
        cache: &'c mut C,
        voting: bool,
        cap: usize,
        budget: Option<Budget>,
        scratch: &'a mut DagScratch,
    ) -> Self {
        scratch.reset();
        Self {
            store,
            cache,
            voting,
            cap,
            budget,
            charged: 0,
            scratch,
            max_depth: 0,
            refs: 0,
        }
    }

    pub(crate) fn stats(&self) -> DagStats {
        DagStats {
            nodes: self.scratch.nodes.len() as u64,
            refs: self.refs,
        }
    }

    pub(crate) fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Evaluates one twig: interns it, expands everything reachable, runs
    /// one bottom-up pass, returns the root's estimate. Callable repeatedly
    /// on the same evaluator — fix-sized windows share the node table.
    pub(crate) fn eval_twig(&mut self, twig: &Twig) -> Result<f64, Fault> {
        let mut buf = self.scratch.byte_pool.pop().unwrap_or_default();
        self.scratch.encoder.encode_into(twig, &mut buf);
        let root = self.ensure(&buf, 1);
        self.scratch.byte_pool.push(buf);
        let root = root?;
        self.build()?;
        self.evaluate()?;
        Ok(self.resolved(root))
    }

    /// [`eval_twig`](Self::eval_twig) for a root whose canonical `bytes`
    /// were already encoded, deadline-checked, interned to `id`, and looked
    /// up (missing) by the caller's fast-path probe — the cache must see
    /// exactly one probe per root either way.
    fn eval_probed_root(&mut self, bytes: &[u8], id: TwigId) -> Result<f64, Fault> {
        self.refs += 1;
        let root = self.admit(bytes, 1, id, None)?;
        self.build()?;
        self.evaluate()?;
        Ok(self.resolved(root))
    }

    /// Stores a resolved value, first charging the entry against the
    /// budget's memory cap when one is enforced.
    fn cache_store(&mut self, id: TwigId, key_bytes: usize, value: f64) -> Result<(), Fault> {
        if let Some(budget) = &self.budget {
            self.charged += key_bytes as u64 + ENTRY_OVERHEAD;
            budget.check_mem(self.charged)?;
        }
        self.cache.store(id, value);
        Ok(())
    }

    /// Interns `bytes` and returns its node index, creating the node if this
    /// is its first reference: resolved straight from the cache or store
    /// where possible, queued for expansion otherwise. `depth` is the
    /// expansion depth the node gets *if* it needs decomposing. Every call
    /// is one sub-twig reference, so it checks an enforced deadline.
    fn ensure(&mut self, bytes: &[u8], depth: usize) -> Result<u32, Fault> {
        if let Some(budget) = &self.budget {
            budget.check_deadline()?;
        }
        self.refs += 1;
        let id = self.cache.intern(bytes);
        if let Some(&ix) = self.scratch.index.get(&id) {
            return Ok(ix);
        }
        let cached = self.cache.lookup(id);
        self.admit(bytes, depth, id, cached)
    }

    /// Materializes the node for a first-referenced id, given the result of
    /// its (already counted) cache lookup.
    fn admit(
        &mut self,
        bytes: &[u8],
        depth: usize,
        id: TwigId,
        cached: Option<f64>,
    ) -> Result<u32, Fault> {
        let ix = u32::try_from(self.scratch.nodes.len()).expect("DAG node arena overflow");
        let size = (bytes.len() / 6) as u32;
        let state = if let Some(v) = cached {
            State::Resolved(v)
        } else {
            match self.store.lookup_bytes(bytes) {
                Lookup::Exact(c) => {
                    let v = c as f64;
                    self.cache_store(id, bytes.len(), v)?;
                    State::Resolved(v)
                }
                Lookup::Derivable | Lookup::TooLarge => {
                    if size <= 2 {
                        // Levels 1–2 are never pruned; reaching here means
                        // the store genuinely lacks the pattern.
                        self.cache_store(id, bytes.len(), 0.0)?;
                        State::Resolved(0.0)
                    } else {
                        let mut twig = self.pooled_twig();
                        decode_bytes_into(bytes, &mut twig);
                        self.scratch.build_stack.push((ix, depth, twig));
                        self.scratch.pending.push(ix);
                        // Placeholder; `expand` fills the pair slice in.
                        State::Pending {
                            first_pair: 0,
                            n_pairs: 0,
                        }
                    }
                }
            }
        };
        self.scratch.nodes.push(DagNode { id, size, state });
        self.scratch.index.insert(id, ix);
        Ok(ix)
    }

    /// Drains the expansion worklist depth-first.
    fn build(&mut self) -> Result<(), Fault> {
        while let Some((ix, depth, twig)) = self.scratch.build_stack.pop() {
            self.max_depth = self.max_depth.max(depth);
            let expanded = self.expand(ix, depth, &twig);
            self.scratch.twig_pool.push(twig);
            expanded?;
        }
        Ok(())
    }

    /// Materializes one node's removable-pair operands into the arenas.
    fn expand(&mut self, ix: u32, depth: usize, twig: &Twig) -> Result<(), Fault> {
        let mut rm_nodes = std::mem::take(&mut self.scratch.rm_nodes);
        let mut rm_pairs = std::mem::take(&mut self.scratch.rm_pairs);
        removable_pairs_into(twig, &mut rm_nodes, &mut rm_pairs);
        debug_assert!(!rm_pairs.is_empty(), "size >= 3 twigs always decompose");
        let take = if self.voting { self.cap } else { 1 };
        let n = take.min(rm_pairs.len());
        let first_pair = u32::try_from(self.scratch.pairs.len()).expect("DAG pair arena overflow");
        let mut t1 = self.pooled_twig();
        let mut t2 = self.pooled_twig();
        let mut t12 = self.pooled_twig();
        let mut operands = || -> Result<(), Fault> {
            for &(u, v) in rm_pairs.iter().take(n) {
                decompose_pair_into(twig, u, v, &mut t1, &mut t2, &mut t12);
                let a = self.ensure_twig(&t1, depth + 1)?;
                let b = self.ensure_twig(&t2, depth + 1)?;
                let c = self.ensure_twig(&t12, depth + 1)?;
                self.scratch.pairs.push([a, b, c]);
            }
            Ok(())
        };
        let expanded = operands();
        self.scratch.twig_pool.extend([t1, t2, t12]);
        self.scratch.rm_nodes = rm_nodes;
        self.scratch.rm_pairs = rm_pairs;
        expanded?;
        self.scratch.nodes[ix as usize].state = State::Pending {
            first_pair,
            n_pairs: n as u32,
        };
        Ok(())
    }

    fn pooled_twig(&mut self) -> Twig {
        self.scratch
            .twig_pool
            .pop()
            .unwrap_or_else(|| Twig::single(LabelId(0)))
    }

    fn ensure_twig(&mut self, twig: &Twig, depth: usize) -> Result<u32, Fault> {
        let mut buf = self.scratch.byte_pool.pop().unwrap_or_default();
        self.scratch.encoder.encode_into(twig, &mut buf);
        let ix = self.ensure(&buf, depth);
        self.scratch.byte_pool.push(buf);
        ix
    }

    /// One bottom-up pass over this round's pending nodes, smallest first.
    /// Every operand of a pending node is strictly smaller, so by the time a
    /// node is reached all its operands are resolved — either earlier this
    /// round or in a previous one. Each node's value is Figure 4's average
    /// over its taken pairs.
    fn evaluate(&mut self) -> Result<(), Fault> {
        if self.scratch.pending.is_empty() {
            return Ok(());
        }
        std::mem::swap(&mut self.scratch.pending, &mut self.scratch.order);
        self.scratch.pending.clear();
        let order = std::mem::take(&mut self.scratch.order);
        {
            let nodes = &self.scratch.nodes;
            let mut order = order;
            order.sort_unstable_by_key(|&ix| (nodes[ix as usize].size, ix));
            self.scratch.order = order;
        }
        for i in 0..self.scratch.order.len() {
            let ix = self.scratch.order[i];
            let (first, n) = match self.scratch.nodes[ix as usize].state {
                State::Pending {
                    first_pair,
                    n_pairs,
                } => (first_pair as usize, n_pairs as usize),
                State::Resolved(_) => unreachable!("pending list holds only pending nodes"),
            };
            let mut sum = 0.0;
            let mut cnt = 0usize;
            for p in first..first + n {
                let [a, b, c] = self.scratch.pairs[p];
                let e1 = self.resolved(a);
                if e1 <= 0.0 {
                    cnt += 1;
                    continue;
                }
                let e2 = self.resolved(b);
                if e2 <= 0.0 {
                    cnt += 1;
                    continue;
                }
                let e12 = self.resolved(c);
                if e12 > 0.0 {
                    sum += e1 * e2 / e12;
                }
                cnt += 1;
            }
            let value = if cnt == 0 { 0.0 } else { sum / cnt as f64 };
            let node = &mut self.scratch.nodes[ix as usize];
            node.state = State::Resolved(value);
            let (id, key_bytes) = (node.id, node.size as usize * 6);
            self.cache_store(id, key_bytes, value)?;
        }
        self.scratch.order.clear();
        Ok(())
    }

    fn resolved(&self, ix: u32) -> f64 {
        match self.scratch.nodes[ix as usize].state {
            State::Resolved(v) => v,
            State::Pending { .. } => unreachable!("operand evaluated before its dependent"),
        }
    }
}

thread_local! {
    /// Scratch for the root-probe fast path: one pooled encoder and key
    /// buffer reused across queries on this thread, so a repeat (or
    /// store-answered) query is handled with zero allocations.
    static PROBE_SCRATCH: std::cell::RefCell<(KeyEncoder, Vec<u8>)> =
        std::cell::RefCell::new((KeyEncoder::new(), Vec::new()));
}

/// Runs `f` on the canonical encoding of `twig`, encoded into the thread's
/// pooled probe buffer (no allocation once the buffer has grown).
pub(crate) fn with_root_key<R>(twig: &Twig, f: impl FnOnce(&[u8]) -> R) -> R {
    PROBE_SCRATCH.with(|s| {
        let (enc, buf) = &mut *s.borrow_mut();
        enc.encode_into(twig, buf);
        f(buf)
    })
}

/// Runs `estimator` on the DAG against any pattern-store backend, through
/// `cache`. The fix-sized estimators canonicalize first, so isomorphic
/// queries get identical covers. With `budget` set, the evaluation enforces
/// it (see the module docs) and returns the first trip as `Err`; with
/// `None` it cannot fail.
///
/// Every estimator probes the query's root first: on a warm cache the whole
/// query resolves to one intern and one lookup, with no arena, no
/// expansion, and no allocation. The recursive estimators find their answer
/// among the sub-twig values; the fix-sized ones keep a whole-query entry
/// of their own ([`IdCache::lookup_whole`]).
pub(crate) fn estimate_dag<C: IdCache, S: PatternStore + ?Sized>(
    store: &S,
    twig: &Twig,
    estimator: Estimator,
    opts: &EstimateOptions,
    cache: &mut C,
    budget: Option<Budget>,
) -> Result<DagEstimate, Fault> {
    let voting = matches!(estimator, Estimator::RecursiveVoting);
    let cap = match estimator {
        Estimator::RecursiveVoting => opts.voting_cap.max(1),
        _ => 1,
    };
    let k = store.max_size();
    // The deadline comes before the root probe, so an expired budget
    // degrades even a query the cache could answer.
    if let Some(budget) = &budget {
        budget.check_deadline()?;
    }
    // One reference, no node materialized: warm repeats raise the
    // cross-query dedup ratio instead of diluting it.
    const PROBED: DagStats = DagStats { nodes: 0, refs: 1 };
    with_root_key(twig, |buf| {
        let id = cache.intern(buf);
        match estimator {
            Estimator::Recursive | Estimator::RecursiveVoting => {
                if let Some(v) = cache.lookup(id) {
                    return Ok((v, 0, PROBED));
                }
                // Cold direct probe, mirroring `admit`'s resolution rules:
                // roots the store can answer (within-k exact counts,
                // trivially absent size ≤ 2 patterns) skip the arena
                // machinery entirely.
                let direct = match store.lookup_bytes(buf) {
                    Lookup::Exact(c) => Some(c as f64),
                    Lookup::Derivable | Lookup::TooLarge if buf.len() / 6 <= 2 => Some(0.0),
                    Lookup::Derivable | Lookup::TooLarge => None,
                };
                if let Some(v) = direct {
                    if let Some(budget) = &budget {
                        budget.check_mem(buf.len() as u64 + ENTRY_OVERHEAD)?;
                    }
                    cache.store(id, v);
                    return Ok((v, 0, PROBED));
                }
                with_dag_scratch(|scratch| {
                    let mut ev = DagEvaluator::new(store, cache, voting, cap, budget, scratch);
                    let value = ev.eval_probed_root(buf, id)?;
                    Ok((value, ev.max_depth(), ev.stats()))
                })
            }
            Estimator::FixSized | Estimator::FixSizedVoting => {
                if let Some(v) = cache.lookup_whole(id) {
                    return Ok((v, 0, PROBED));
                }
                let (value, depth, stats) = with_dag_scratch(|scratch| {
                    let mut ev = DagEvaluator::new(store, cache, voting, cap, budget, scratch);
                    let canonical = key_of(twig).decode();
                    let value = if estimator == Estimator::FixSized {
                        eval_fixed(&mut ev, &canonical, CoverStrategy::AncestorsFirst, k)?
                    } else {
                        let strategies =
                            [CoverStrategy::AncestorsFirst, CoverStrategy::ChildrenFirst];
                        let mut sum = 0.0f64;
                        for &st in &strategies {
                            sum += eval_fixed(&mut ev, &canonical, st, k)?;
                        }
                        sum / strategies.len() as f64
                    };
                    Ok::<_, Fault>((value, ev.max_depth(), ev.stats()))
                })?;
                // Only a completed answer is memoized, so the entry holds the
                // same bits a budget-free evaluation computes.
                cache.store_whole(id, value);
                Ok((value, depth, stats))
            }
        }
    })
}

/// Fix-sized estimation over windows of an explicit `k` nodes — possibly
/// smaller than the store's order — on a fresh per-query cache: the
/// computation behind [`crate::estimate_fixed_at`] and, with `budget` set,
/// the ladder's `ReducedK` rung.
pub(crate) fn estimate_fixed_at_dag<S: PatternStore + ?Sized>(
    store: &S,
    twig: &Twig,
    k: usize,
    budget: Option<Budget>,
) -> Result<f64, Fault> {
    let mut cache = LocalIdCache::default();
    with_dag_scratch(|scratch| {
        let mut ev = DagEvaluator::new(store, &mut cache, false, 1, budget, scratch);
        eval_fixed(
            &mut ev,
            &key_of(twig).decode(),
            CoverStrategy::AncestorsFirst,
            k,
        )
    })
}

/// The fix-sized telescoping product (Lemma 3) over DAG-evaluated windows.
/// Windows are evaluated lazily in cover order and the product returns zero
/// at the first zero factor, so windows past it are never touched.
fn eval_fixed<C: IdCache, S: PatternStore + ?Sized>(
    ev: &mut DagEvaluator<'_, '_, '_, C, S>,
    twig: &Twig,
    strategy: CoverStrategy,
    k: usize,
) -> Result<f64, Fault> {
    if twig.len() <= k {
        return ev.eval_twig(twig);
    }
    assert!(
        k >= 2,
        "fix-sized estimation requires a summary of order >= 2"
    );
    let mut numerator = 1.0f64;
    let mut denominator = 1.0f64;
    for step in fixed_cover_with(twig, k, strategy) {
        let s_sub = ev.eval_twig(&step.subtree)?;
        if s_sub <= 0.0 {
            return Ok(0.0);
        }
        numerator *= s_sub;
        if let Some(overlap) = &step.overlap {
            let s_ov = ev.eval_twig(overlap)?;
            if s_ov <= 0.0 {
                return Ok(0.0);
            }
            denominator *= s_ov;
        }
    }
    Ok(numerator / denominator)
}

#[cfg(test)]
mod tests {
    use tl_twig::canonical::key_of;
    use tl_xml::LabelInterner;

    use super::*;
    use crate::estimator::{EstimateOptions, Estimator};
    use crate::summary::Summary;

    fn summary_of(patterns: &[(&str, u64)], k: usize) -> (Summary, LabelInterner) {
        let mut it = LabelInterner::new();
        let mut levels = vec![FxHashMap::default(); k];
        for (q, c) in patterns {
            let t = tl_twig::parse_twig(q, &mut it).unwrap();
            assert!(t.len() <= k, "pattern {q} larger than k");
            levels[t.len() - 1].insert(key_of(&t), *c);
        }
        (Summary::from_parts(levels, vec![false; k]), it)
    }

    fn q(it: &mut LabelInterner, s: &str) -> Twig {
        tl_twig::parse_twig(s, it).unwrap()
    }

    /// Unbudgeted evaluation, which cannot fail.
    fn plain<C: IdCache>(
        s: &Summary,
        t: &Twig,
        e: Estimator,
        opts: &EstimateOptions,
        cache: &mut C,
    ) -> DagEstimate {
        estimate_dag(s, t, e, opts, cache, None).expect(UNBUDGETED)
    }

    /// Pinned DAG shape for a known query: the Markov chain `a/b/c/d` over
    /// an order-2 summary expands root → {b/c/d, a/b/c} → shared operands.
    /// Distinct sub-twigs: abcd, bcd, abc, bc, cd, c, ab, b = 8 nodes;
    /// references: 1 (root) + 3 per expansion × 3 expansions = 10, so the
    /// dedup ratio is 10/8 — the `b/c` operand is shared between branches.
    #[test]
    fn dag_node_count_is_pinned_for_markov_chain() {
        let (s, mut it) = summary_of(
            &[
                ("a", 2),
                ("b", 4),
                ("c", 8),
                ("d", 16),
                ("a/b", 6),
                ("b/c", 12),
                ("c/d", 24),
            ],
            2,
        );
        let t = q(&mut it, "a/b/c/d");
        let mut cache = LocalIdCache::default();
        let (value, depth, stats) = plain(
            &s,
            &t,
            Estimator::Recursive,
            &EstimateOptions::default(),
            &mut cache,
        );
        let expected = 6.0 * 12.0 * 24.0 / (4.0 * 8.0);
        assert!((value - expected).abs() < 1e-9);
        assert_eq!(stats.nodes, 8, "distinct sub-twigs");
        assert_eq!(stats.refs, 10, "total references");
        assert!(stats.refs > stats.nodes, "dedup ratio > 1");
        assert_eq!(depth, 2, "root at 1, b/c/d and a/b/c at 2");
    }

    /// A warm shared cache resolves repeat queries without re-expansion.
    #[test]
    fn warm_cache_resolves_without_expansion() {
        let (s, mut it) = summary_of(&[("a", 2), ("b", 4), ("c", 8), ("a/b", 6), ("b/c", 12)], 2);
        let t = q(&mut it, "a/b/c");
        let opts = EstimateOptions::default();
        let mut cache = LocalIdCache::default();
        let (cold, _, cold_stats) = plain(&s, &t, Estimator::Recursive, &opts, &mut cache);
        let (warm, warm_depth, warm_stats) = plain(&s, &t, Estimator::Recursive, &opts, &mut cache);
        assert_eq!(cold.to_bits(), warm.to_bits());
        assert!(cold_stats.nodes > 1);
        assert_eq!(warm_stats.nodes, 0, "no node materialized on a warm root");
        assert_eq!(warm_stats.refs, 1, "the repeat query is one reference");
        assert_eq!(warm_depth, 0, "no expansion on a warm cache");
    }

    /// A root the summary answers directly (size ≤ k) must not build a DAG
    /// even on a stone-cold cache — the cold-path economy behind the
    /// decompose gate's cold-speedup floor.
    #[test]
    fn within_k_roots_skip_the_arena_when_cold() {
        let (s, mut it) = summary_of(&[("a", 2), ("b", 4), ("a/b", 6)], 2);
        let opts = EstimateOptions::default();
        // Stored pattern: answered exactly.
        let t = q(&mut it, "a/b");
        let mut cache = LocalIdCache::default();
        let (v, depth, stats) = plain(&s, &t, Estimator::Recursive, &opts, &mut cache);
        assert_eq!(v, 6.0);
        assert_eq!(stats.nodes, 0, "no node materialized");
        assert_eq!(stats.refs, 1);
        assert_eq!(depth, 0);
        // Absent small pattern: exact zero, same shape.
        let t0 = q(&mut it, "b/a");
        let (v0, _, stats0) = plain(&s, &t0, Estimator::Recursive, &opts, &mut cache);
        assert_eq!(v0, 0.0);
        assert_eq!(stats0.nodes, 0);
        // Both roots are cached now: a repeat is a pure cache hit.
        let (v1, _, _) = plain(&s, &t, Estimator::Recursive, &opts, &mut cache);
        assert_eq!(v1.to_bits(), v.to_bits());
    }

    /// Voting over capped pairs only expands the taken pairs, like the
    /// recursion's `pairs.iter().take(cap)`.
    #[test]
    fn voting_cap_limits_expansion() {
        let (s, mut it) = summary_of(
            &[
                ("a", 2),
                ("a/b", 4),
                ("a/c", 6),
                ("a/d", 8),
                ("a[b][c]", 10),
                ("a[b][d]", 20),
                ("a[c][d]", 30),
            ],
            3,
        );
        let t = q(&mut it, "a[b][c][d]");
        let full_opts = EstimateOptions::default();
        let mut cache = LocalIdCache::default();
        let (_, _, full) = plain(&s, &t, Estimator::RecursiveVoting, &full_opts, &mut cache);
        let capped_opts = EstimateOptions {
            voting_cap: 1,
            ..EstimateOptions::default()
        };
        let mut cache2 = LocalIdCache::default();
        let (capped_v, _, capped) = plain(
            &s,
            &t,
            Estimator::RecursiveVoting,
            &capped_opts,
            &mut cache2,
        );
        assert!(capped.refs < full.refs, "cap must shrink the DAG");
        let plain = crate::estimator::estimate(&s, &t, Estimator::Recursive, &full_opts);
        assert_eq!(capped_v.to_bits(), plain.to_bits());
    }

    /// Back-to-back evaluations on one thread reuse the pooled scratch and
    /// stay bit-identical (the pool only recycles capacity, never state);
    /// the differential suite diffs the same sequence against the
    /// independent reference.
    #[test]
    fn pooled_scratch_is_reset_between_queries() {
        let (s, mut it) = markov_chain_summary();
        let opts = EstimateOptions::default();
        let queries = ["a/b/c/d", "a/b/c", "b/c/d", "a/b/c/d"];
        let mut first_pass: Vec<u64> = Vec::new();
        for qs in queries {
            let t = q(&mut it, qs);
            // Fresh cache every time: every evaluation is fully cold and
            // reuses the thread's scratch left dirty by the previous one.
            let mut cache = LocalIdCache::default();
            let (v, _, _) = plain(&s, &t, Estimator::Recursive, &opts, &mut cache);
            first_pass.push(v.to_bits());
        }
        assert_eq!(first_pass[0], first_pass[3], "same query, same bits");
    }

    fn markov_chain_summary() -> (Summary, LabelInterner) {
        summary_of(
            &[
                ("a", 2),
                ("b", 4),
                ("c", 8),
                ("d", 16),
                ("a/b", 6),
                ("b/c", 12),
                ("c/d", 24),
            ],
            2,
        )
    }

    /// A memory trip in the middle of a DAG build leaves the thread's
    /// pooled scratch reusable: the next clean query on the same thread is
    /// bit-identical to the same query on a fresh thread's fresh scratch.
    #[test]
    fn budget_trip_mid_build_leaves_the_scratch_reusable() {
        let (s, mut it) = markov_chain_summary();
        let opts = EstimateOptions::default();
        let big = q(&mut it, "a/b/c/d");
        // Two 2-node entries fit (12 + 32 bytes each); the third store trips
        // during expansion, with an operand still queued on the stack.
        let tight = Budget::unlimited().with_max_mem_bytes(90);
        let mut cache = LocalIdCache::default();
        let err = estimate_dag(
            &s,
            &big,
            Estimator::Recursive,
            &opts,
            &mut cache,
            Some(tight),
        )
        .expect_err("the cap trips mid-build");
        assert_eq!(err.kind, tl_fault::FaultKind::BudgetExhausted);
        assert!(
            with_dag_scratch(|scratch| !scratch.build_stack.is_empty()),
            "the trip landed mid-build"
        );
        let clean = |s: &Summary, t: &Twig| {
            Estimator::ALL.map(|e| {
                let mut cache = LocalIdCache::default();
                plain(s, t, e, &opts, &mut cache).0.to_bits()
            })
        };
        let same_thread = clean(&s, &big);
        let fresh_thread = std::thread::scope(|scope| scope.spawn(|| clean(&s, &big)).join())
            .expect("fresh thread ran");
        assert_eq!(same_thread, fresh_thread);
    }

    /// An enforced budget is checked before the root probe: an expired
    /// deadline fails even a query the warm cache could answer, while the
    /// unbudgeted path answers it from the cache.
    #[test]
    fn expired_deadline_fails_before_the_warm_root_probe() {
        let (s, mut it) = markov_chain_summary();
        let opts = EstimateOptions::default();
        let t = q(&mut it, "a/b/c");
        let mut cache = LocalIdCache::default();
        let (warm, _, _) = plain(&s, &t, Estimator::Recursive, &opts, &mut cache);
        let expired = Budget {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..Budget::unlimited()
        };
        let err = estimate_dag(
            &s,
            &t,
            Estimator::Recursive,
            &opts,
            &mut cache,
            Some(expired),
        )
        .expect_err("deadline checked before the probe");
        assert_eq!(err.kind, tl_fault::FaultKind::Timeout);
        let (again, _, stats) = plain(&s, &t, Estimator::Recursive, &opts, &mut cache);
        assert_eq!(again.to_bits(), warm.to_bits());
        assert_eq!(stats.nodes, 0, "still a warm root hit");
    }
}
