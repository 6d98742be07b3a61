//! # nhood-core
//!
//! A from-scratch implementation of the topology- and load-aware
//! **Distance Halving** neighborhood allgather (Sharifian, Sojoodi &
//! Afsahi, *A Topology- and Load-Aware Design for Neighborhood
//! Allgather*, IEEE CLUSTER 2024), together with the two baselines the
//! paper evaluates against: the naïve point-to-point algorithm (default
//! Open MPI behaviour) and the Common Neighbor message-combining
//! algorithm (IPDPS'19).
//!
//! ## Architecture
//!
//! * [`builder`] runs Algorithm 1 — recursive communicator halving with
//!   joint agent/origin selection — producing a [`pattern::DhPattern`];
//!   [`negotiate`] is that selection (Algorithms 2–3: one
//!   REQ/ACCEPT/DROP/EXIT transition function over one scoring kernel,
//!   driven by a counted FIFO queue or by the rank runtime).
//! * [`lower`] turns the pattern into an executable
//!   [`plan::CollectivePlan`] (the planning half of Algorithm 4);
//!   [`naive`] and [`common_neighbor`] produce plans of the same shape.
//! * [`exec`] runs plans behind one [`exec::Executor`] trait with two
//!   backends: sequentially with real bytes ([`exec::Virtual`]) and
//!   concurrently as rank machines on a worker pool ([`exec::Threaded`]);
//!   [`arena`] is the zero-copy flat-buffer engine they share.
//!   [`exec::sim_exec`] prices a plan in simulated time on a modelled
//!   cluster, moving no byte.
//! * [`model`] is the paper's §V closed-form performance model.
//! * [`fault`] is a deterministic fault-injection layer (message drops,
//!   delays, duplicates, reorders, stragglers, crashes) consulted by the
//!   rank runtime's transport (threaded executor, negotiation); under a
//!   robust request (timeouts in [`comm::RobustPolicy`]) a dead link is
//!   repaired around, and what cannot be healed degrades to the naive
//!   plan instead of failing hard.
//! * [`remap`] re-ranks any builder into locality order; the communicator
//!   runs Distance Halving, the leader hierarchy and Bruck through it
//!   whenever the layout is not block-placed (the builders read shape).
//! * [`comm::DistGraphComm`] is the user-facing entry point, split along
//!   its seams: `comm/mod.rs` (state, configuration, `mutate`),
//!   `comm/resolve.rs` (algorithm → plan: normalize, fingerprint, cache,
//!   tuner), `comm/request.rs` (`collective` and its backends) and
//!   `comm/robust.rs` (policy, report, repair, naive degradation).
//!
//! Every concept has one entry point — at most a two-argument default
//! next to its full form; `docs/API.md` is the one-page surface.
//!
//! ## Quick start
//!
//! ```
//! use nhood_cluster::ClusterLayout;
//! use nhood_core::{Algorithm, CollectiveRequest, DistGraphComm};
//! use nhood_topology::random::erdos_renyi;
//!
//! let graph = erdos_renyi(32, 0.2, 7);
//! let comm = DistGraphComm::create_adjacent(graph, ClusterLayout::new(4, 2, 4)).unwrap();
//! let payloads: Vec<Vec<u8>> = (0..32).map(|r| vec![r as u8; 4]).collect();
//! let dh = comm.collective(&CollectiveRequest::allgather(&payloads)).unwrap();
//! let req = CollectiveRequest::allgather(&payloads).algorithm(Algorithm::Naive);
//! let naive = comm.collective(&req).unwrap();
//! assert_eq!(dh.rbufs, naive.rbufs); // same semantics, different message schedule
//! ```

#![warn(missing_docs)]
// Keep the CSR hot paths allocation-clean: no collect-then-iterate
// detours and no contains-then-insert double lookups.
#![deny(clippy::needless_collect, clippy::map_entry)]

pub mod alltoall;
pub mod arena;
pub mod autotune;
pub mod bruck;
pub mod builder;
pub mod collective;
pub mod comm;
pub mod common_neighbor;
pub mod exec;
pub mod fault;
pub mod leader;
pub mod lower;
pub mod model;
pub mod naive;
pub mod negotiate;
pub mod pat;
pub mod pattern;
pub mod plan;
pub mod plan_cache;
pub mod plan_io;
pub mod remap;
pub mod repair;
mod runtime;
pub mod sizes;

// The protocol's contract tests, by driver, under the test ids they had
// when the drivers were `selection.rs` and `distributed_builder.rs`.
#[cfg(test)]
#[path = "negotiate/thread_tests.rs"]
mod distributed_builder;
#[cfg(test)]
#[path = "negotiate/fifo_tests.rs"]
mod selection;
// The owed-delivery table's tests, under the test ids they had when it
// was a type of its own in `csr.rs`.
#[cfg(test)]
#[path = "pattern/csr_tests.rs"]
mod csr;

pub use arena::{ArenaLayout, BlockArena};
pub use autotune::TuneOutcome;
pub use collective::{
    CollectiveOp, CollectiveOutput, CollectiveRequest, DType, ExecBackend, ReduceOp, Reduction,
};
pub use comm::{
    CommError, DistGraphComm, ExecReport, FallbackReason, MutationReport, RobustPolicy,
};
pub use exec::sim_exec::SimCost;
pub use exec::{ExecError, ExecOptions, ExecOutcome, Executor, Threaded, Virtual};
pub use fault::{FaultAction, FaultCounts, FaultPlan, FaultStats};
pub use pattern::{DhPattern, SelectionStats};
pub use plan::{Algorithm, CollectivePlan, PlanValidationError};
pub use plan_cache::{PlanCache, PlanCacheStats, PlanFingerprint};
pub use repair::Completeness;
pub use sizes::{BlockSizes, LoadMetric};
