//! Neighborhood **alltoall** — the paper's stated future work (§VIII),
//! built on the same Distance Halving machinery.
//!
//! `MPI_Neighbor_alltoall` semantics: rank `p`'s send buffer holds one
//! *distinct* block per outgoing neighbor (in `O(p)` order); rank `r`'s
//! receive buffer holds, per incoming neighbor `i` (in `I(r)` order), the
//! block `i` addressed *to r*. The data unit is therefore an **item**
//! `(src, dst)` with exactly one consumer — which makes Distance Halving
//! *cleaner* than in the allgather case:
//!
//! * an item always has one holder (it starts at `src` and moves), so
//!   exactly-once delivery is structural;
//! * when a rank finds an agent it forwards **only the items addressed
//!   into the opposite half** — no wholesale buffer shipping, hence no
//!   buffer doubling and no dead weight: the halving phase moves each
//!   item at most once per level, always toward its destination;
//! * a failed agent search strands the h2-addressed items on their
//!   holder, which direct-sends them in the final phase (same fallback
//!   as allgather).
//!
//! The routing reuses the allgather pattern's agents and origins
//! ([`plan_dh_alltoall`] takes a built [`DhPattern`]), so one
//! `MPI_Dist_graph_create_adjacent`-time negotiation serves both
//! collectives.

use crate::collective::program::{compile, Shape};
use crate::comm::CommError;
use crate::exec::sim_exec::SimCost;
use crate::pattern::{in_range, DhPattern};
use crate::plan::{check_mirror, Algorithm};
use crate::sizes::BlockSizes;
use nhood_cluster::ClusterLayout;
use nhood_simnet::{Engine, SimReport};
use nhood_topology::{Rank, Topology};
use std::collections::HashMap;

/// One alltoall message: `(src, dst)` items moving between this rank and
/// `peer`, in item order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct A2aMsg {
    /// The other endpoint.
    pub peer: Rank,
    /// The items carried, each `m` bytes of payload.
    pub items: Vec<(Rank, Rank)>,
    /// Matching tag, unique per (src, dst) pair within the plan.
    pub tag: u64,
}

/// One post/wait block of a rank's alltoall program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct A2aPhase {
    /// Messages sent in this phase.
    pub sends: Vec<A2aMsg>,
    /// Messages received in this phase.
    pub recvs: Vec<A2aMsg>,
}

/// An executable neighborhood-alltoall plan.
#[derive(Clone, Debug)]
pub struct AlltoallPlan {
    /// Producing algorithm ([`Algorithm::CommonNeighbor`] is not
    /// implemented for alltoall).
    pub algorithm: Algorithm,
    /// Lock-step per-rank programs.
    pub per_rank: Vec<Vec<A2aPhase>>,
}

impl AlltoallPlan {
    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.per_rank.len()
    }

    /// Number of lock-step phases.
    pub fn phase_count(&self) -> usize {
        self.per_rank.first().map_or(0, Vec::len)
    }

    /// Total messages (send side).
    pub fn message_count(&self) -> usize {
        self.per_rank.iter().flat_map(|p| p.iter()).map(|ph| ph.sends.len()).sum()
    }

    /// Total items moved (multiply by `m` for bytes); an item relayed
    /// over `h` hops counts `h` times.
    pub fn total_items_sent(&self) -> usize {
        self.per_rank.iter().flatten().flat_map(|ph| &ph.sends).map(|m| m.items.len()).sum()
    }

    /// Structural validation: mirrored sends/recvs, possession (a rank
    /// only forwards items it currently holds), and exactly-once
    /// consumption of every topology edge's item at its destination.
    pub fn validate(&self, graph: &Topology) -> Result<(), String> {
        let n = self.n();
        check_mirror(
            graph.n(),
            &self.per_rank,
            |ph| (&ph.sends, &ph.recvs),
            |m| (m.peer, &m.items[..], m.tag),
        )
        .map_err(|e| e.to_string())?;
        let phases = self.phase_count();
        // possession + consumption
        let mut holds: Vec<std::collections::HashSet<(Rank, Rank)>> =
            (0..n).map(|p| graph.out_neighbors(p).iter().map(|&d| (p, d)).collect()).collect();
        let mut delivered: HashMap<(Rank, Rank), usize> = HashMap::new();
        for k in 0..phases {
            // sends leave against pre-phase possession, and *remove*
            // items (unlike allgather blocks, items move, not copy)
            let mut outgoing: Vec<(Rank, Vec<(Rank, Rank)>)> = Vec::new();
            for (r, prog) in self.per_rank.iter().enumerate() {
                for msg in &prog[k].sends {
                    for &it in &msg.items {
                        if !holds[r].remove(&it) {
                            return Err(format!(
                                "rank {r} phase {k} forwards item {it:?} it does not hold"
                            ));
                        }
                    }
                    outgoing.push((msg.peer, msg.items.clone()));
                }
            }
            for (dst, items) in outgoing {
                for it in items {
                    if it.1 == dst {
                        *delivered.entry(it).or_default() += 1;
                    } else {
                        holds[dst].insert(it);
                    }
                }
            }
        }
        // undelivered items must not remain anywhere except consumed
        for (s, d) in graph.edges() {
            match delivered.get(&(s, d)).copied().unwrap_or(0) {
                1 => {}
                0 => return Err(format!("item ({s} -> {d}) never delivered")),
                c => return Err(format!("item ({s} -> {d}) delivered {c} times")),
            }
        }
        Ok(())
    }
}

/// The naïve (default MPI) neighborhood alltoall: one direct message per
/// edge, single phase.
pub fn plan_naive_alltoall(graph: &Topology) -> AlltoallPlan {
    let n = graph.n();
    let per_rank = (0..n)
        .map(|r| {
            let sends = graph
                .out_neighbors(r)
                .iter()
                .map(|&d| A2aMsg { peer: d, items: vec![(r, d)], tag: 0 })
                .collect();
            let recvs = graph
                .in_neighbors(r)
                .iter()
                .map(|&s| A2aMsg { peer: s, items: vec![(s, r)], tag: 0 })
                .collect();
            vec![A2aPhase { sends, recvs }]
        })
        .collect();
    AlltoallPlan { algorithm: Algorithm::Naive, per_rank }
}

/// Tag for final-phase alltoall messages.
const A2A_FINAL_TAG: u64 = 1 << 33;

/// Distance Halving alltoall: reuses the agents/origins of a built
/// allgather [`DhPattern`], routing each item toward its destination's
/// half at every step it can.
pub fn plan_dh_alltoall(pattern: &DhPattern, graph: &Topology) -> AlltoallPlan {
    let n = graph.n();
    assert_eq!(pattern.n(), n, "pattern/topology rank mismatch");
    let steps = pattern.max_steps();
    // pending items per rank (destination-addressed)
    let mut pending: Vec<Vec<(Rank, Rank)>> =
        (0..n).map(|p| graph.out_neighbors(p).iter().map(|&d| (p, d)).collect()).collect();
    let mut per_rank: Vec<Vec<A2aPhase>> = vec![Vec::with_capacity(steps + 1); n];

    for t in 0..steps {
        // Which items leave each rank this step (to its agent)?
        let mut moved: Vec<Vec<(Rank, Rank)>> = vec![Vec::new(); n];
        for p in 0..n {
            let Some(step) = pattern.ranks[p].steps.get(t) else { continue };
            let Some(_agent) = step.agent else { continue };
            let h2 = step.h2;
            let (keep, go): (Vec<_>, Vec<_>) =
                pending[p].iter().partition(|&&(_, d)| !in_range(d, h2));
            if !go.is_empty() {
                pending[p] = keep;
                moved[p] = go;
            }
        }
        // Build the phase: send moved items to agents; receive from
        // origins; consume items addressed to self; keep the rest.
        let mut phases: Vec<A2aPhase> = vec![A2aPhase::default(); n];
        for p in 0..n {
            let Some(step) = pattern.ranks[p].steps.get(t) else { continue };
            if let Some(agent) = step.agent {
                if !moved[p].is_empty() {
                    phases[p].sends.push(A2aMsg {
                        peer: agent,
                        items: moved[p].clone(),
                        tag: t as u64,
                    });
                    phases[agent].recvs.push(A2aMsg {
                        peer: p,
                        items: moved[p].clone(),
                        tag: t as u64,
                    });
                }
            }
        }
        // merge arrivals after all sends are fixed
        for p in 0..n {
            let arrivals: Vec<(Rank, Rank)> =
                phases[p].recvs.iter().flat_map(|msg| msg.items.iter().copied()).collect();
            for it in arrivals {
                if it.1 != p {
                    pending[p].push(it);
                }
                // items with dst == p are consumed into the receive buffer
            }
        }
        for (p, ph) in phases.into_iter().enumerate() {
            per_rank[p].push(ph);
        }
    }

    // Final phase: one combined message per remaining destination.
    let mut final_phases: Vec<A2aPhase> = vec![A2aPhase::default(); n];
    for p in 0..n {
        let mut by_dst: std::collections::BTreeMap<Rank, Vec<(Rank, Rank)>> =
            std::collections::BTreeMap::new();
        for &it in &pending[p] {
            debug_assert_ne!(it.1, p, "self-addressed item should have been consumed");
            by_dst.entry(it.1).or_default().push(it);
        }
        for (dst, mut items) in by_dst {
            items.sort_unstable();
            final_phases[p].sends.push(A2aMsg {
                peer: dst,
                items: items.clone(),
                tag: A2A_FINAL_TAG,
            });
            final_phases[dst].recvs.push(A2aMsg { peer: p, items, tag: A2A_FINAL_TAG });
        }
    }
    for (p, mut ph) in final_phases.into_iter().enumerate() {
        ph.recvs.sort_by_key(|m| m.peer);
        per_rank[p].push(ph);
    }

    AlltoallPlan { algorithm: Algorithm::DistanceHalving, per_rank }
}

/// Simulates an alltoall plan at uniform item payload `m`: the plan is
/// compiled like any alltoallv request ([`crate::collective`]'s `Route`
/// program) and the program's schedule runs on the engine — the same
/// lowering the `Sim` backend of
/// [`DistGraphComm::collective`](crate::comm::DistGraphComm::collective)
/// uses, without moving bytes.
pub fn simulate_alltoall(
    plan: &AlltoallPlan,
    graph: &Topology,
    layout: &ClusterLayout,
    m: usize,
    cost: &SimCost,
) -> Result<SimReport, CommError> {
    let schedule = compile(plan, graph, Shape::Route)?.schedule(&BlockSizes::uniform(m));
    Ok(Engine::new(layout, cost.net).run(&schedule)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::collective::program::{run_combining_virtual, CombineOp, CombineScratch};
    use crate::collective::{reference_alltoallv, CollectiveOp};
    use crate::exec::ExecError;
    use nhood_telemetry::NULL;
    use nhood_topology::random::erdos_renyi;

    /// Executes `plan` as a uniform alltoallv through the one combining
    /// engine: a `Route` program on the virtual backend.
    fn run(
        plan: &AlltoallPlan,
        graph: &Topology,
        sbufs: &[Vec<u8>],
        m: usize,
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        let op = CombineOp::try_from(CollectiveOp::Alltoallv).expect("alltoallv combines");
        let prog = compile(plan, graph, op.shape)?;
        let sizes = BlockSizes::uniform(m);
        run_combining_virtual(&prog, &mut CombineScratch::default(), op, sbufs, &sizes, &NULL)
    }

    fn a2a_payloads(graph: &Topology, m: usize) -> Vec<Vec<u8>> {
        (0..graph.n())
            .map(|p| {
                let mut buf = Vec::with_capacity(graph.outdegree(p) * m);
                for &d in graph.out_neighbors(p) {
                    // distinct content per (src, dst)
                    buf.extend((0..m).map(|i| (p * 131 + d * 31 + i) as u8));
                }
                buf
            })
            .collect()
    }

    #[test]
    fn naive_alltoall_matches_reference() {
        let g = erdos_renyi(24, 0.3, 5);
        let plan = plan_naive_alltoall(&g);
        plan.validate(&g).unwrap();
        let sbufs = a2a_payloads(&g, 8);
        let got = run(&plan, &g, &sbufs, 8).unwrap();
        assert_eq!(got, reference_alltoallv(&g, &sbufs, &BlockSizes::uniform(8)));
        assert_eq!(plan.message_count(), g.edge_count());
    }

    #[test]
    fn dh_alltoall_matches_reference() {
        for (n, delta) in [(16usize, 0.3), (24, 0.5), (36, 0.1), (30, 0.7), (17, 0.4)] {
            let g = erdos_renyi(n, delta, 42);
            let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
            let pattern = build_pattern(&g, &layout).unwrap();
            let plan = plan_dh_alltoall(&pattern, &g);
            plan.validate(&g).unwrap_or_else(|e| panic!("n={n} delta={delta}: {e}"));
            let sbufs = a2a_payloads(&g, 4);
            let got =
                run(&plan, &g, &sbufs, 4).unwrap_or_else(|e| panic!("n={n} delta={delta}: {e}"));
            assert_eq!(
                got,
                reference_alltoallv(&g, &sbufs, &BlockSizes::uniform(4)),
                "n={n} delta={delta}"
            );
        }
    }

    #[test]
    fn dh_alltoall_moves_each_item_boundedly() {
        // no buffer doubling: total item-hops ≤ items × (steps + 1)
        let g = erdos_renyi(32, 0.4, 7);
        let layout = ClusterLayout::new(4, 2, 4);
        let pattern = build_pattern(&g, &layout).unwrap();
        let plan = plan_dh_alltoall(&pattern, &g);
        let hops = plan.total_items_sent();
        let bound = g.edge_count() * (pattern.max_steps() + 1);
        assert!(hops <= bound, "{hops} item-hops > bound {bound}");
        // and strictly more than one hop per item on multi-node halving
        assert!(hops >= g.edge_count());
    }

    #[test]
    fn dh_alltoall_cuts_messages_on_dense_graphs() {
        let g = erdos_renyi(64, 0.5, 3);
        let layout = ClusterLayout::new(4, 2, 8);
        let pattern = build_pattern(&g, &layout).unwrap();
        let dh = plan_dh_alltoall(&pattern, &g);
        let naive = plan_naive_alltoall(&g);
        assert!(
            dh.message_count() * 2 < naive.message_count(),
            "dh {} vs naive {}",
            dh.message_count(),
            naive.message_count()
        );
    }

    #[test]
    fn dh_alltoall_simulates_faster_on_dense_small() {
        let g = erdos_renyi(64, 0.5, 3);
        let layout = ClusterLayout::new(4, 2, 8);
        let pattern = build_pattern(&g, &layout).unwrap();
        let dh = plan_dh_alltoall(&pattern, &g);
        let naive = plan_naive_alltoall(&g);
        let cost = SimCost::niagara();
        let td = simulate_alltoall(&dh, &g, &layout, 64, &cost).unwrap().makespan;
        let tn = simulate_alltoall(&naive, &g, &layout, 64, &cost).unwrap().makespan;
        assert!(td < tn, "dh {td} vs naive {tn}");
    }

    /// Makespan bits of the retired hand-written `AlltoallPlan →
    /// Schedule` lowering, captured at the parent of PR 15 (where it and
    /// the compiled program's schedule already agreed to the bit):
    /// `(n, algorithm, m, bits)`.
    const RETIRED_LOWERING_BITS: [(usize, Algorithm, usize, u64); 8] = [
        (64, Algorithm::Naive, 64, 0x3ef9e6db48dc3c41),
        (64, Algorithm::Naive, 4096, 0x3f3150ddb3260536),
        (64, Algorithm::DistanceHalving, 64, 0x3ee8c803f3684e02),
        (64, Algorithm::DistanceHalving, 4096, 0x3f3490c806dc69ef),
        (27, Algorithm::Naive, 64, 0x3ed9e8c099a58f42),
        (27, Algorithm::Naive, 4096, 0x3f084f0291ea79f3),
        (27, Algorithm::DistanceHalving, 64, 0x3ee011f93f75bf0c),
        (27, Algorithm::DistanceHalving, 4096, 0x3f1176d23f72631a),
    ];

    #[test]
    fn simulate_alltoall_reproduces_the_retired_lowering_bit_for_bit() {
        let cost = SimCost::niagara();
        for (n, algo, m, bits) in RETIRED_LOWERING_BITS {
            let (g, layout) = match n {
                64 => (erdos_renyi(64, 0.5, 3), ClusterLayout::new(4, 2, 8)),
                _ => (erdos_renyi(27, 0.4, 27), ClusterLayout::new(4, 2, 4)),
            };
            let plan = match algo {
                Algorithm::Naive => plan_naive_alltoall(&g),
                _ => plan_dh_alltoall(&build_pattern(&g, &layout).unwrap(), &g),
            };
            let got = simulate_alltoall(&plan, &g, &layout, m, &cost).unwrap().makespan;
            assert_eq!(got.to_bits(), bits, "n={n} {algo} m={m}");
        }
    }

    #[test]
    fn the_reported_mirror_defect_is_a_function_of_the_plan() {
        // eight unmatched sends: the lowest (dst, src, tag) is named,
        // on every call (a hasher's iteration order used to pick)
        let g = erdos_renyi(32, 0.3, 5);
        let mut plan = plan_naive_alltoall(&g);
        for prog in &mut plan.per_rank[..8] {
            prog[0].recvs[0].tag = 99;
        }
        let src = plan.per_rank[0][0].recvs[0].peer;
        let want = crate::plan::PlanValidationError::UnmatchedSend { src, dst: 0, tag: 0 };
        for _ in 0..64 {
            assert_eq!(plan.validate(&g).unwrap_err(), want.to_string());
        }
    }

    #[test]
    fn validator_rejects_corruption() {
        let g = Topology::from_edges(3, [(0, 2), (1, 2)]);
        let mut plan = plan_naive_alltoall(&g);
        // drop a delivery
        plan.per_rank[0][0].sends.clear();
        plan.per_rank[2][0].recvs.retain(|m| m.peer != 0);
        assert!(plan.validate(&g).unwrap_err().contains("never delivered"));
        // duplicate a delivery
        let mut plan = plan_naive_alltoall(&g);
        plan.per_rank[1][0].sends.push(A2aMsg { peer: 2, items: vec![(1, 2)], tag: 9 });
        plan.per_rank[2][0].recvs.push(A2aMsg { peer: 1, items: vec![(1, 2)], tag: 9 });
        let e = plan.validate(&g).unwrap_err();
        assert!(e.contains("does not hold"), "{e}"); // item moved, so the dup send lacks it
    }

    #[test]
    fn payload_shape_checked() {
        let g = erdos_renyi(8, 0.5, 1);
        let plan = plan_naive_alltoall(&g);
        let mut sbufs = a2a_payloads(&g, 8);
        sbufs[3].pop();
        assert!(matches!(
            run(&plan, &g, &sbufs, 8),
            Err(ExecError::PayloadSizeMismatch { rank: 3, .. })
        ));
    }

    #[test]
    fn empty_graph_alltoall() {
        let g = Topology::from_edges(4, []);
        let plan = plan_naive_alltoall(&g);
        plan.validate(&g).unwrap();
        let got = run(&plan, &g, &vec![vec![]; 4], 16).unwrap();
        assert!(got.iter().all(Vec::is_empty));
    }
}
