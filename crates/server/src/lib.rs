//! # tl-server — the estimation service
//!
//! A long-running process that loads one summary (in-memory or zero-copy
//! mmap [`treelattice::MmapCatalog`]) at startup and serves `estimate`,
//! `estimate-batch`, `truth`, and `update` requests over a
//! length-prefixed, checksummed binary protocol on a TCP socket
//! ([`protocol`], "tl-wire/1"). Both backends answer estimates through the
//! same [`treelattice::EstimationEngine::estimate_resilient`] call: one
//! shared sub-twig cache, and the tenant's budget enforced down the same
//! degradation ladder. A warm estimate — one the engine answers without
//! decomposing — runs that call on the connection thread; only cold work
//! waits for a worker (see [`server`] for the request lifecycle).
//!
//! Multi-tenancy is first-class: each tenant gets a weighted fair-queue
//! lane with an admission cap and a [`tl_fault::Budget`] template
//! ([`queue`], [`BudgetSpec`]). Overload is answered, not errored: a shed
//! request gets the closed-form Markov estimate tagged
//! [`tl_fault::Degradation::Markov`] with a cause fault — the same
//! degraded-with-provenance contract as the in-process resilient ladder.
//! The server never returns an untyped error; every response carries a
//! degradation tag or a typed [`tl_fault::Fault`], and the wire status
//! byte is the shared exit-code table ([`tl_fault::exit_code`]).
//!
//! Observability rides the tl-metrics/1 snapshot: a `scrape` request
//! (which bypasses the queue) returns the full recorder snapshot
//! including the `server.*` counters, queue-depth gauge, and overall plus
//! per-tenant latency histograms. On the mmap backend each scrape also
//! drains the catalog's probe count into `catalog.mmap.lookups`.

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{Client, ClientConfig, ClientError};
pub use protocol::{Request, Response, WireEstimate};
pub use queue::{FairQueue, Refusal, TenantConfig};
pub use server::{serve, BudgetSpec, ServerConfig, ServerHandle, TenantSpec, DEFAULT_TENANT};
