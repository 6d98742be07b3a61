//! What every request of a block must produce, computed outside the
//! service: a digest of the reference receive buffers (the buffers
//! themselves would dwarf the service's own footprint in `peak_rss_mb`),
//! the bytes delivered, and the simnet makespan of the serving plan.
//!
//! The pass replays the script on plain communicators that take the
//! same steps the service's tenants take (Distance Halving arms its
//! churn slot at registration, churn goes through `mutate`). That the
//! service then serves the plans this pass costed is not taken on
//! trust: each request's plan is also executed here under a counting
//! recorder, and the run compares the messages and bytes it sent with
//! what the service's own transport counters moved by for that request
//! (on the Sim backend, the makespans must agree bit for bit instead).

use nhood_core::collective::{
    derive_sizes, reference_allreduce, reference_alltoallv, reference_reduce_scatter,
};
use nhood_core::exec::sim_exec::simulate_v;
use nhood_core::exec::virtual_exec::reference_allgather;
use nhood_core::{
    Algorithm, BlockArena, CollectiveOp, CollectiveRequest, CommError, DistGraphComm, ExecBackend,
    ExecOptions, Executor, PlanCache, SimCost, Virtual,
};
use nhood_service::{Backend, SubmitRequest};
use nhood_telemetry::CountingRecorder;
use nhood_topology::Topology;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::sync::Arc;

use crate::workloads::{Step, TenantSpec, Workload};

/// The expected result of one request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Expect {
    /// [`digest`] of the reference receive buffers.
    pub digest: u64,
    /// Receive-buffer bytes the request delivers.
    pub delivered: u64,
    /// Simulated makespan, seconds, under `SimCost::niagara()`.
    pub makespan_s: f64,
    /// `(messages, payload bytes)` the serving plan hands to the
    /// transport for this request; zeros on the Sim backend, where
    /// nothing is sent.
    pub sent: (u64, u64),
}

/// SipHash of per-rank buffers, lengths included (fixed keys, so it
/// repeats across runs).
pub fn digest(bufs: &[Vec<u8>]) -> u64 {
    let mut h = DefaultHasher::new();
    for b in bufs {
        h.write_usize(b.len());
        h.write(b);
    }
    h.finish()
}

/// The op's naive reference on `graph`.
pub fn reference(graph: &Topology, req: &SubmitRequest) -> Result<Vec<Vec<u8>>, CommError> {
    Ok(match req.op {
        CollectiveOp::Allgather | CollectiveOp::Allgatherv => {
            reference_allgather(graph, &req.payloads)
        }
        CollectiveOp::Alltoallv => {
            let sizes = derive_sizes(graph, req.op, &req.payloads, req.sizes.as_ref())?;
            reference_alltoallv(graph, &req.payloads, &sizes)
        }
        CollectiveOp::ReduceScatter(red) => {
            let sizes = derive_sizes(graph, req.op, &req.payloads, req.sizes.as_ref())?;
            reference_reduce_scatter(graph, &req.payloads, &sizes, red)
        }
        CollectiveOp::Allreduce(red) => reference_allreduce(graph, &req.payloads, red),
    })
}

/// A communicator prepared the way `Service::add_tenant` prepares one:
/// attached to the shared cache (when there is one), then planned —
/// Distance Halving by arming its churn slot.
pub fn tenant_comm(
    t: &TenantSpec,
    cache: Option<&Arc<PlanCache>>,
) -> Result<DistGraphComm, CommError> {
    let mut comm = DistGraphComm::create_adjacent(t.graph.clone(), t.layout.clone())?;
    if let Some(cache) = cache {
        comm = comm.with_plan_cache(Arc::clone(cache));
    }
    if t.algo == Algorithm::DistanceHalving {
        comm.mutate(&[], &[])?;
    } else {
        comm.plan_shared(t.algo)?;
    }
    Ok(comm)
}

/// One [`Expect`] per request of `w.script`, in script order.
pub fn expectations(w: &Workload) -> Result<Vec<Expect>, CommError> {
    let cost = SimCost::niagara();
    let cache = Arc::new(PlanCache::new(64));
    let mut comms =
        w.tenants.iter().map(|t| tenant_comm(t, Some(&cache))).collect::<Result<Vec<_>, _>>()?;
    let mut out = Vec::new();
    for step in &w.script {
        match step {
            Step::Churn { tenant, added, removed } => {
                comms[*tenant].mutate(added, removed)?;
            }
            Step::Request { tenant, req } => {
                let comm = &comms[*tenant];
                let algo = w.tenants[*tenant].algo;
                let g = comm.graph();
                let rec = CountingRecorder::new(g.n());
                let moves_bytes = w.backend != Backend::Sim;
                let makespan_s = if req.op.is_gather() {
                    let plan = comm.plan_shared(algo)?;
                    let lens: Vec<usize> = req.payloads.iter().map(Vec::len).collect();
                    if moves_bytes {
                        let ragged = req.op == CollectiveOp::Allgatherv;
                        let opts = ExecOptions::new().ragged(ragged).recorder(&rec);
                        Virtual.run(&plan, g, &req.payloads, &mut BlockArena::new(), &opts)?;
                    }
                    simulate_v(&plan, comm.layout(), &lens, &cost)?.makespan
                } else {
                    let creq = || CollectiveRequest::new(req.op, &req.payloads).algorithm(algo);
                    if moves_bytes {
                        comm.collective(&creq().recorder(&rec))?;
                    }
                    let sim = comm.collective(&creq().backend(ExecBackend::Sim))?.sim;
                    sim.expect("Sim backend reports a makespan").makespan
                };
                let sent = (rec.totals().msgs_sent, rec.totals().bytes_sent);
                out.push(if !moves_bytes && req.op.is_gather() {
                    // No bytes move, so there is nothing to digest: each
                    // rank would receive its in-neighbors' blocks.
                    let delivered = (0..g.n())
                        .flat_map(|r| g.in_neighbors(r))
                        .map(|&s| req.payloads[s].len() as u64)
                        .sum();
                    Expect { digest: 0, delivered, makespan_s, sent }
                } else {
                    let rbufs = reference(g, req)?;
                    let delivered = rbufs.iter().map(|b| b.len() as u64).sum();
                    Expect { digest: digest(&rbufs), delivered, makespan_s, sent }
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build, WORKLOADS};

    #[test]
    fn expectations_repeat_bit_for_bit() {
        for (name, _, _) in WORKLOADS {
            let run = || {
                let w = build(name, 21).expect("workload");
                expectations(&w).expect("model pass")
            };
            let (a, b) = (run(), run());
            assert_eq!(a.len(), 16, "{name}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.makespan_s.to_bits(), y.makespan_s.to_bits(), "{name}");
                assert_eq!(
                    (x.digest, x.delivered, x.sent),
                    (y.digest, y.delivered, y.sent),
                    "{name}"
                );
                assert!(x.makespan_s > 0.0 && x.delivered > 0, "{name}: metrics are never 0");
                assert_eq!(x.sent.0 > 0 && x.sent.1 > 0, name != "sim-sweep", "{name}: sent");
            }
        }
    }

    #[test]
    fn only_the_digest_depends_on_the_seed() {
        for (name, _, _) in WORKLOADS {
            let of =
                |seed| expectations(&build(name, seed).expect("workload")).expect("model pass");
            for (x, y) in of(1).iter().zip(&of(2)) {
                assert_eq!(x.makespan_s.to_bits(), y.makespan_s.to_bits(), "{name}");
                assert_eq!((x.delivered, x.sent), (y.delivered, y.sent), "{name}");
                assert!(x.digest != y.digest || x.digest == 0, "{name}: payloads differ");
            }
        }
    }

    #[test]
    fn digest_sees_a_flipped_byte_and_a_moved_boundary() {
        let a = vec![vec![1u8, 2, 3], vec![4]];
        let mut b = a.clone();
        b[0][1] ^= 1;
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&[vec![1u8, 2], vec![3, 4]]));
        assert_eq!(digest(&a), digest(&a.clone()));
    }
}
