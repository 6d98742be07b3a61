//! The naïve (default Open MPI) neighborhood allgather.
//!
//! Exactly what `MPI_Neighbor_allgather` does in stock Open MPI, MPICH
//! and MVAPICH: post one receive per incoming neighbor and one send per
//! outgoing neighbor, directly from the send buffer into the receive
//! buffer, and wait for all of them. One phase, no combining, no copies.

use crate::plan::{Algorithm, CollectivePlan, PlanWriter};
use nhood_topology::Topology;

/// Builds the naïve direct point-to-point plan.
pub fn plan_naive(graph: &Topology) -> CollectivePlan {
    let mut w = PlanWriter::new(Algorithm::Naive, graph.n(), 1);
    w.reserve(graph.edge_count(), graph.edge_count());
    // Senders ascend, and so do a sender's targets: every rank's sends
    // come out ordered by peer and so do its recvs.
    for (src, dst) in graph.edges() {
        w.message(0, src, dst, 0, &[src]);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhood_topology::random::erdos_renyi;

    #[test]
    fn naive_is_one_message_per_edge() {
        let g = erdos_renyi(32, 0.3, 1);
        let plan = plan_naive(&g);
        plan.validate(&g).unwrap();
        assert_eq!(plan.message_count(), g.edge_count());
        assert_eq!(plan.total_blocks_sent(), g.edge_count());
        assert_eq!(plan.max_message_blocks(), 1.min(g.edge_count()));
        assert_eq!(plan.phase_count(), 1);
    }

    #[test]
    fn naive_load_equals_outdegree() {
        let g = erdos_renyi(20, 0.4, 2);
        let plan = plan_naive(&g);
        let loads = plan.sends_per_rank();
        for (r, &load) in loads.iter().enumerate() {
            assert_eq!(load, g.outdegree(r));
        }
    }

    #[test]
    fn naive_empty_graph() {
        let g = Topology::from_edges(4, []);
        let plan = plan_naive(&g);
        plan.validate(&g).unwrap();
        assert_eq!(plan.message_count(), 0);
    }

    #[test]
    fn naive_dense_graph() {
        let g = erdos_renyi(10, 1.0, 3);
        let plan = plan_naive(&g);
        plan.validate(&g).unwrap();
        assert_eq!(plan.message_count(), 90);
    }
}
