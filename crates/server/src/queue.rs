//! Admission control and weighted fair queueing across tenants.
//!
//! Classic virtual-time WFQ, one lane per tenant: each tenant carries a
//! virtual finish time that advances by `1 / weight` per dispatched
//! request, and workers always pop from the non-empty lane with the
//! smallest virtual time. A tenant whose lane went idle re-enters at the
//! scheduler's current virtual clock (no credit hoarding), so a flooding
//! tenant with weight `w_f` can never push a trickle tenant with weight
//! `w_t` further behind than the configured `w_f : w_t` service ratio —
//! the starvation bound the fairness test pins.
//!
//! Admission control is a per-lane depth cap: an enqueue into a full lane
//! is refused *before* it costs a queue slot, and the caller answers the
//! request degraded-with-provenance instead (see `server.rs`). Refusals
//! are never silent drops.
//!
//! Work answered without a worker (a warm estimate on the connection
//! thread) still pays for its service: [`FairQueue::charge`] applies the
//! drain refusal and the virtual-time advance of an enqueue immediately
//! followed by its dispatch, so inline answers count against their
//! tenant's share exactly like queued ones.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// One tenant's scheduling configuration.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    pub name: String,
    /// Relative service share; dispatching one request advances the
    /// lane's virtual time by `1 / weight`.
    pub weight: u32,
    /// Admission cap: the lane holds at most this many queued requests.
    pub queue_cap: usize,
}

impl TenantConfig {
    pub fn new(name: impl Into<String>, weight: u32, queue_cap: usize) -> Self {
        Self {
            name: name.into(),
            weight: weight.max(1),
            queue_cap: queue_cap.max(1),
        }
    }
}

/// Why an enqueue was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The tenant's lane is at its admission cap.
    LaneFull,
    /// The server is draining for shutdown; no new work is admitted.
    Draining,
}

struct Lane<T> {
    weight: f64,
    cap: usize,
    /// Virtual finish time of the lane's last dispatched request.
    vtime: f64,
    queue: VecDeque<T>,
}

struct Inner<T> {
    lanes: Vec<Lane<T>>,
    /// The scheduler's virtual clock: the vtime of the most recently
    /// dispatched request. Idle lanes catch up to it on re-entry.
    vclock: f64,
    depth: usize,
    draining: bool,
    shutdown: bool,
}

/// The shared tenant-fair work queue. `T` is the job payload.
pub struct FairQueue<T> {
    names: Vec<String>,
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

impl<T> FairQueue<T> {
    pub fn new(tenants: &[TenantConfig]) -> Self {
        assert!(!tenants.is_empty(), "fair queue needs at least one tenant");
        Self {
            names: tenants.iter().map(|t| t.name.clone()).collect(),
            inner: Mutex::new(Inner {
                lanes: tenants
                    .iter()
                    .map(|t| Lane {
                        weight: f64::from(t.weight.max(1)),
                        cap: t.queue_cap.max(1),
                        vtime: 0.0,
                        queue: VecDeque::new(),
                    })
                    .collect(),
                vclock: 0.0,
                depth: 0,
                draining: false,
                shutdown: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Resolves a tenant name to its lane index, if configured.
    pub fn lane_of(&self, tenant: &str) -> Option<usize> {
        self.names.iter().position(|n| n == tenant)
    }

    pub fn tenant_names(&self) -> &[String] {
        &self.names
    }

    /// Admits `item` into `lane`. `Ok(depth)` is the total queue depth
    /// *after* the insert (so `depth > 1` means the request waited behind
    /// other work); `Err` is an admission refusal — it costs nothing and
    /// hands the item back so the caller can answer it degraded.
    pub fn enqueue(&self, lane: usize, item: T) -> Result<usize, (T, Refusal)> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.draining || inner.shutdown {
            return Err((item, Refusal::Draining));
        }
        let vclock = inner.vclock;
        let l = &mut inner.lanes[lane];
        if l.queue.len() >= l.cap {
            return Err((item, Refusal::LaneFull));
        }
        if l.queue.is_empty() {
            // Re-entry after idling: no banked credit from the past.
            l.vtime = l.vtime.max(vclock);
        }
        l.queue.push_back(item);
        inner.depth += 1;
        let depth = inner.depth;
        drop(inner);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Charges `lane` for one request served outside the queue: refused
    /// while draining, exactly like [`FairQueue::enqueue`], otherwise the
    /// lane re-enters at the virtual clock if idle and advances by
    /// `1 / weight`, exactly like an enqueue followed by its dequeue. The
    /// lane cap does not apply — nothing is held.
    pub fn charge(&self, lane: usize) -> Result<(), Refusal> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.draining || inner.shutdown {
            return Err(Refusal::Draining);
        }
        let vclock = inner.vclock;
        let l = &mut inner.lanes[lane];
        if l.queue.is_empty() {
            l.vtime = l.vtime.max(vclock);
        }
        l.vtime += 1.0 / l.weight;
        inner.vclock = inner.lanes[lane].vtime;
        Ok(())
    }

    /// Blocks until a job is available, returning `(lane, item)`; `None`
    /// once the queue is shut down and empty. Dispatch order is WFQ:
    /// smallest virtual time first.
    pub fn dequeue(&self) -> Option<(usize, T)> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.depth > 0 {
                let lane = inner
                    .lanes
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| !l.queue.is_empty())
                    .min_by(|(_, a), (_, b)| a.vtime.total_cmp(&b.vtime))
                    .map(|(i, _)| i)
                    .expect("depth > 0 implies a non-empty lane");
                let l = &mut inner.lanes[lane];
                let item = l.queue.pop_front().expect("non-empty lane");
                l.vtime += 1.0 / l.weight;
                inner.vclock = inner.lanes[lane].vtime;
                inner.depth -= 1;
                return Some((lane, item));
            }
            if inner.shutdown {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue lock");
        }
    }

    /// Current total queued depth.
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").depth
    }

    /// Stops admitting new work; queued work still drains.
    pub fn begin_drain(&self) {
        self.inner.lock().expect("queue lock").draining = true;
    }

    /// Wakes all workers; `dequeue` returns `None` once empty.
    pub fn shutdown(&self) {
        {
            let mut inner = self.inner.lock().expect("queue lock");
            inner.draining = true;
            inner.shutdown = true;
        }
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(weights: &[(u32, usize)]) -> FairQueue<u32> {
        let tenants: Vec<TenantConfig> = weights
            .iter()
            .enumerate()
            .map(|(i, &(w, cap))| TenantConfig::new(format!("t{i}"), w, cap))
            .collect();
        FairQueue::new(&tenants)
    }

    #[test]
    fn dispatch_respects_weights() {
        // Weight 3 vs weight 1, both lanes saturated: out of every 4
        // dispatches, 3 belong to the heavy tenant.
        let q = q(&[(3, 100), (1, 100)]);
        for i in 0..40u32 {
            q.enqueue(0, i).unwrap();
            q.enqueue(1, i).unwrap();
        }
        let first40: Vec<usize> = (0..40).map(|_| q.dequeue().unwrap().0).collect();
        let heavy = first40.iter().filter(|&&l| l == 0).count();
        assert_eq!(heavy, 30, "weight-3 tenant gets 3/4 of saturated service");
    }

    #[test]
    fn admission_cap_refuses_before_queueing() {
        let q = q(&[(1, 2)]);
        q.enqueue(0, 1).unwrap();
        q.enqueue(0, 2).unwrap();
        assert_eq!(q.enqueue(0, 3), Err((3, Refusal::LaneFull)));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn idle_lane_reenters_at_vclock_without_banked_credit() {
        let q = q(&[(1, 100), (1, 100)]);
        // Tenant 0 runs alone for a while, advancing the clock.
        for i in 0..10u32 {
            q.enqueue(0, i).unwrap();
        }
        for _ in 0..10 {
            assert_eq!(q.dequeue().unwrap().0, 0);
        }
        // Tenant 1 arrives late. Without vclock catch-up it would own the
        // next 10 dispatches outright; with it, service alternates.
        for i in 0..10u32 {
            q.enqueue(0, i).unwrap();
            q.enqueue(1, i).unwrap();
        }
        let lanes: Vec<usize> = (0..4).map(|_| q.dequeue().unwrap().0).collect();
        assert!(
            lanes.contains(&0) && lanes.contains(&1),
            "late tenant must not monopolize: {lanes:?}"
        );
    }

    #[test]
    fn drain_refuses_new_work_but_serves_queued() {
        let q = q(&[(1, 10)]);
        q.enqueue(0, 7).unwrap();
        q.begin_drain();
        assert_eq!(q.enqueue(0, 8), Err((8, Refusal::Draining)));
        assert_eq!(q.dequeue().unwrap().1, 7);
        q.shutdown();
        assert!(q.dequeue().is_none());
    }

    /// A charge moves virtual time exactly as an enqueue plus its dequeue
    /// would, and is refused while draining.
    #[test]
    fn charge_advances_vtime_like_dispatch_and_refuses_while_draining() {
        let charged = q(&[(2, 10), (1, 10)]);
        let queued = q(&[(2, 10), (1, 10)]);
        for lane in [0, 0, 1, 0] {
            charged.charge(lane).unwrap();
            queued.enqueue(lane, 0).unwrap();
            assert_eq!(queued.dequeue().unwrap().0, lane);
        }
        let state = |q: &FairQueue<u32>| {
            let inner = q.inner.lock().unwrap();
            let vtimes: Vec<f64> = inner.lanes.iter().map(|l| l.vtime).collect();
            (vtimes, inner.vclock, inner.depth)
        };
        assert_eq!(state(&charged), state(&queued));
        // Weight 2 advances by 1/2, weight 1 by 1; idle lanes re-enter at
        // the clock.
        assert_eq!(state(&charged), (vec![2.5, 2.0], 2.5, 0));
        // Charged service counts against the tenant: lane 1 waits while
        // lane 0 is served inline twice, so lane 1 wins the next dispatch
        // (without the charges the tie would go to lane 0).
        charged.enqueue(1, 8).unwrap();
        charged.charge(0).unwrap();
        charged.charge(0).unwrap();
        charged.enqueue(0, 7).unwrap();
        assert_eq!(charged.dequeue().unwrap(), (1, 8));

        charged.begin_drain();
        assert_eq!(charged.charge(0), Err(Refusal::Draining));
        assert_eq!(charged.charge(1), Err(Refusal::Draining));
    }

    #[test]
    fn shutdown_unblocks_waiting_workers() {
        let q = std::sync::Arc::new(q(&[(1, 10)]));
        let q2 = q.clone();
        let waiter = std::thread::spawn(move || q2.dequeue());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.shutdown();
        assert!(waiter.join().unwrap().is_none());
    }
}
