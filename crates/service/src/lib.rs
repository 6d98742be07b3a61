//! # nhood-service
//!
//! A multi-tenant collective **service** over the `nhood` stack: the
//! long-running production shape of the paper's plan-once/execute-many
//! structure. Many communicators (tenants) share one
//! [`PlanCache`](nhood_core::PlanCache) (and one build worker pool);
//! concurrent collective requests — the gather family plus the
//! message-combining family (alltoallv, sparse reduce_scatter, sparse
//! allreduce), op-tagged via [`SubmitRequest`] — flow through a bounded
//! submission queue with **admission control** — per-tenant fairness
//! quotas and typed backpressure ([`Rejected`]` { retry_after }`) —
//! and an event-driven reactor coalesces a tenant's requests of one op
//! family into **batched executions** on the tenant's warm arena, which
//! pay plan lookup and arena layout once per batch instead of once per
//! request.
//!
//! Topology churn integrates live: [`Service::churn`] repairs the
//! affected tenant's plan in place (`DistGraphComm::mutate`) without
//! draining the queue, and fault-armed tenants execute on the robust threaded
//! path so degraded completions are *reported*, never silently wrong.
//!
//! The [`traffic`] module drives a service under a seeded open-loop
//! workload ([`TrafficSpec`]: Poisson arrivals, Zipf sizes, churn
//! mix); [`ServiceReport`] summarizes completion/rejection counters
//! and deterministic nearest-rank p50/p99 latency via
//! `nhood-telemetry`.
//!
//! ```
//! use nhood_cluster::ClusterLayout;
//! use nhood_core::Algorithm;
//! use nhood_service::{Service, ServiceConfig};
//! use nhood_topology::random::erdos_renyi;
//!
//! let mut svc = Service::new(ServiceConfig::default());
//! let graph = erdos_renyi(12, 0.3, 7);
//! let t = svc.add_tenant(graph, ClusterLayout::new(2, 2, 3), Algorithm::DistanceHalving).unwrap();
//! let payloads: Vec<Vec<u8>> = (0..12).map(|r| vec![r as u8; 64]).collect();
//! let ticket = svc.submit(t, payloads).unwrap();
//! svc.drain();
//! let report = svc.report();
//! assert_eq!(report.stats.completed, 1);
//! assert!(svc.take_completions().iter().any(|c| c.id == ticket));
//! ```

#![warn(missing_docs)]

mod admission;
mod report;
mod service;
pub mod traffic;

pub use admission::{AdmissionConfig, RejectReason, Rejected};
pub use report::{ServiceReport, ServiceStats, TenantStats};
pub use service::{
    Backend, Completion, Outcome, RequestId, Service, ServiceConfig, SubmitRequest, TenantId,
    Verify,
};
pub use traffic::{OpMix, TrafficSpec};
