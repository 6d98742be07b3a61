//! Neighborhood **alltoall** — the paper's stated future work (§VIII) —
//! on the allgather's own plans: a gather plan already *is* an item
//! routing, so one `MPI_Dist_graph_create_adjacent`-time negotiation
//! serves both collectives.
//!
//! `MPI_Neighbor_alltoall` semantics: rank `p` sends one *distinct* block
//! to each outgoing neighbor (held in `O(p)` order) and rank `r` receives,
//! in `I(r)` order, the block each incoming neighbor addressed *to r*. The
//! data unit is an **item** `(src, dst)` with exactly one consumer.
//!
//! [`crate::plan`]'s exactly-once lemma: the responsibility for `(b, t)`
//! always travels in the same message as `b`'s data. So block `b` in a
//! message to `peer` stands for the items `(b, t)` that `peer` consumes
//! (`t == peer`, an out-neighbor of `b`) or hands on in its own later
//! sends of `b`; `route_items` reads them off by walking every delivery
//! back to the block's owner. A transit rank handed `b` twice serves all
//! its forwards from the first arrival, so an item has one holder at a
//! time and one delivery by construction. A block that stands for no item
//! (a halving step ships the whole buffer; the agent answers for part of
//! it) is dropped, and so is a message left with none: Distance Halving
//! moves each item at most once per level, always toward its destination.
//! It reads the `sends` of a checked plan, once per checked plan.

use crate::collective::program::{compile, Checked, Shape};
use crate::comm::CommError;
use crate::exec::sim_exec::SimCost;
use crate::plan::CollectivePlan;
use crate::sizes::BlockSizes;
use nhood_cluster::ClusterLayout;
use nhood_simnet::{Engine, SimReport};
use nhood_topology::{Rank, Topology};

/// The items every send of a gather plan carries, a send being named by
/// its row in the plan's message table ([`crate::plan::MsgView::id`]).
#[derive(Debug)]
pub(crate) struct ItemRouting {
    items: Vec<(Rank, Rank)>,
    /// Send `id` carries `items[spans[id].0..spans[id].1]`.
    spans: Vec<(usize, usize)>,
}

impl ItemRouting {
    /// The `(src, dst)` items of send `id`.
    pub(crate) fn of(&self, id: usize) -> &[(Rank, Rank)] {
        &self.items[self.spans[id].0..self.spans[id].1]
    }

    /// Items over all sends: one per hop an item takes.
    pub(crate) fn hops(&self) -> usize {
        self.items.len()
    }
}

/// The item routing `plan` implies on `graph`, where it was checked.
pub(crate) fn route_items<P: std::ops::Deref<Target = CollectivePlan>>(
    plan: &Checked<P>,
    graph: &Topology,
) -> ItemRouting {
    #[cfg(test)]
    crate::collective::program::tests::ROUTES.with(|c| c.set(c.get() + 1));
    const NONE: usize = usize::MAX;
    let n = graph.n();
    // Each (message, block) pair is a *slot*. `parent[s]` is the slot
    // that handed slot `s`'s sender its block — `NONE` for the owner.
    // Slots are numbered phase-major, in the order the walk meets them.
    let mut parent = Vec::new();
    // Send id -> its slots, a range.
    let mut spans = vec![(0, 0); plan.message_count()];
    // Per rank, sorted by block: the first slot to hand it each block.
    let mut handed: Vec<Vec<(Rank, usize)>> = vec![Vec::new(); n];
    // The phase in flight: (receiver, block, slot).
    let mut arrivals = Vec::new();
    let mut deliveries = Vec::with_capacity(graph.edge_count());
    for k in 0..plan.phase_count() {
        for (r, handed) in handed.iter().enumerate() {
            for msg in plan.phase(r, k).sends() {
                let (peer, blocks) = (msg.peer(), msg.blocks());
                let first = parent.len();
                for &b in blocks {
                    let at = handed.binary_search_by_key(&b, |h| h.0);
                    arrivals.push((peer, b, parent.len()));
                    parent.push(at.map_or(NONE, |i| handed[i].1));
                }
                spans[msg.id()] = (first, parent.len());
            }
        }
        // A phase's arrivals count only once all its sends are fixed.
        for (p, b, slot) in arrivals.drain(..) {
            if let (true, Err(at)) = (b != p, handed[p].binary_search_by_key(&b, |h| h.0)) {
                handed[p].insert(at, (b, slot));
                if graph.has_edge(b, p) {
                    deliveries.push((slot, (b, p)));
                }
            }
        }
    }
    // An item rides every slot from its delivery back toward its owner:
    // count, then fill.
    let ride = |slot| {
        std::iter::successors(Some(slot), |&s: &usize| Some(parent[s]).filter(|&up| up != NONE))
    };
    let mut ends = vec![0; parent.len() + 1];
    deliveries.iter().flat_map(|&(slot, _)| ride(slot)).for_each(|s| ends[s + 1] += 1);
    for s in 0..parent.len() {
        ends[s + 1] += ends[s];
    }
    let (mut cursor, mut items) = (ends.clone(), vec![(0, 0); ends[parent.len()]]);
    for &(slot, item) in &deliveries {
        for s in ride(slot) {
            items[cursor[s]] = item;
            cursor[s] += 1;
        }
    }
    for span in &mut spans {
        *span = (ends[span.0], ends[span.1]);
    }
    ItemRouting { items, spans }
}

/// Simulates `plan` as an alltoall at uniform item payload `m`: the plan
/// checked, its `Route` program lowered to a schedule as
/// [`crate::collective::ExecBackend::Sim`] does — no bytes move.
pub fn simulate_alltoall(
    plan: &CollectivePlan,
    graph: &Topology,
    layout: &ClusterLayout,
    m: usize,
    cost: &SimCost,
) -> Result<SimReport, CommError> {
    let prog = compile(&Checked::new(plan), graph, Shape::Route)?;
    Ok(Engine::new(layout, cost.net).run(&prog.schedule(&BlockSizes::uniform(m)))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::collective::program::tests::{checked, compiled, routed};
    use crate::collective::{reference_alltoallv, CollectiveOp};
    use crate::exec::{execute, ExecError, ExecOptions};
    use crate::lower::lower;
    use crate::naive::plan_naive;
    use crate::plan::{Algorithm, PlanValidationError as E, PlannedMsg};
    use nhood_topology::random::erdos_renyi;

    /// The validated Distance Halving gather plan of `g` on `layout`.
    fn plan_dh(g: &Topology, layout: &ClusterLayout) -> (CollectivePlan, usize) {
        let pattern = build_pattern(g, layout).unwrap();
        let plan = lower(&pattern, g);
        plan.validate(g).unwrap();
        (plan, pattern.max_steps())
    }

    /// Executes `plan` as a uniform alltoallv through the one engine: a
    /// `Route` program on the virtual backend.
    fn run(
        plan: &CollectivePlan,
        graph: &Topology,
        sbufs: &[Vec<u8>],
        m: usize,
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        let (plan, sizes) = (checked(plan.clone()), BlockSizes::uniform(m));
        let (arena, opts) = (&mut Default::default(), ExecOptions::new());
        execute(CollectiveOp::Alltoallv, Some(&sizes), &plan, graph, sbufs, arena, None, &opts)
            .map(|out| out.rbufs)
    }

    /// Messages the routed schedule of `plan` actually sends.
    fn routed_messages(plan: &CollectivePlan, graph: &Topology) -> usize {
        compiled(plan, graph, Shape::Route)
            .unwrap()
            .schedule(&BlockSizes::uniform(1))
            .message_count()
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
        let plan = plan_naive(&g);
        let sbufs = a2a_payloads(&g, 8);
        let got = run(&plan, &g, &sbufs, 8).unwrap();
        assert_eq!(got, reference_alltoallv(&g, &sbufs, &BlockSizes::uniform(8)));
        assert_eq!(routed_messages(&plan, &g), g.edge_count());
    }

    #[test]
    fn dh_alltoall_matches_reference() {
        for (n, delta) in [(16usize, 0.3), (24, 0.5), (36, 0.1), (30, 0.7), (17, 0.4)] {
            let g = erdos_renyi(n, delta, 42);
            let (plan, _) = plan_dh(&g, &ClusterLayout::new(n.div_ceil(8), 2, 4));
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
        let (plan, steps) = plan_dh(&g, &ClusterLayout::new(4, 2, 4));
        let hops = routed(&plan, &g).hops();
        let bound = g.edge_count() * (steps + 1);
        assert!(hops <= bound, "{hops} item-hops > bound {bound}");
        // and strictly more than one hop per item on multi-node halving
        assert!(hops > g.edge_count());
        // routed items never merge: one wire block per item-hop
        let wire = compiled(&plan, &g, Shape::Route).unwrap().schedule(&BlockSizes::uniform(1));
        assert_eq!(wire.total_bytes(), hops);
    }

    #[test]
    fn dh_alltoall_cuts_messages_on_dense_graphs() {
        let g = erdos_renyi(64, 0.5, 3);
        let (plan, _) = plan_dh(&g, &ClusterLayout::new(4, 2, 8));
        let (dh, naive) = (routed_messages(&plan, &g), routed_messages(&plan_naive(&g), &g));
        assert!(dh * 2 < naive, "dh {dh} vs naive {naive}");
    }

    #[test]
    fn dh_alltoall_simulates_faster_on_dense_small() {
        let g = erdos_renyi(64, 0.5, 3);
        let layout = ClusterLayout::new(4, 2, 8);
        let (dh, _) = plan_dh(&g, &layout);
        let cost = SimCost::niagara();
        let td = simulate_alltoall(&dh, &g, &layout, 64, &cost).unwrap().makespan;
        let tn = simulate_alltoall(&plan_naive(&g), &g, &layout, 64, &cost).unwrap().makespan;
        assert!(td < tn, "dh {td} vs naive {tn}");
    }

    /// Makespan bits of the retired hand-written alltoall-plan →
    /// `Schedule` lowering, captured at the parent of PR 15 (where it and
    /// the compiled program's schedule already agreed to the bit):
    /// `(n, algorithm, m, bits)`. Since PR 20 the routing is derived from
    /// the gather plan; the bits did not move.
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
                Algorithm::Naive => plan_naive(&g),
                _ => plan_dh(&g, &layout).0,
            };
            let got = simulate_alltoall(&plan, &g, &layout, m, &cost).unwrap().makespan;
            assert_eq!(got.to_bits(), bits, "n={n} {algo} m={m}");
        }
    }

    #[test]
    fn the_reported_delivery_defect_is_a_function_of_the_plan() {
        // Eight ranks lose their sends: the validator reports the same
        // defect — the lowest undelivered edge — and `compile` refuses
        // with it, on every call: dense tables, no hasher's iteration
        // order to pick.
        let g = erdos_renyi(32, 0.3, 5);
        let plan = plan_naive(&g).edited(|rows| {
            for prog in &mut rows[..8] {
                prog[0].sends.clear();
            }
        });
        let first = plan.validate(&g).unwrap_err();
        let (src, dst) = g.edges().filter(|&(src, _)| src < 8).min().unwrap();
        assert_eq!(first, E::NeverDelivered { src, dst });
        for _ in 0..64 {
            assert_eq!(plan.validate(&g).unwrap_err(), first);
            assert_eq!(
                compiled(&plan, &g, Shape::Route).unwrap_err(),
                ExecError::InvalidPlan(first.clone())
            );
        }
    }

    #[test]
    fn validator_rejects_corruption() {
        let g = Topology::from_edges(3, [(0, 2), (1, 2)]);
        let sbufs = a2a_payloads(&g, 4);
        // a dropped delivery never compiles
        let plan = plan_naive(&g).edited(|rows| rows[0][0].sends.clear());
        let refused = |e| Err(ExecError::InvalidPlan(e));
        assert_eq!(run(&plan, &g, &sbufs, 4), refused(E::NeverDelivered { src: 0, dst: 2 }));
        // a duplicated delivery, although the item routing would hand
        // the item on from its first arrival only
        let plan = plan_naive(&g).edited(|rows| {
            rows[1][0].sends.push(PlannedMsg { peer: 2, blocks: vec![1], tag: 9 });
        });
        let twice = E::DuplicateDelivery { src: 1, dst: 2, count: 2 };
        assert_eq!(run(&plan, &g, &sbufs, 4), refused(twice));
        // a rank forwarding a block it was never handed
        let plan = plan_naive(&g).edited(|rows| rows[0][0].sends[0].blocks = vec![1]);
        assert_eq!(
            run(&plan, &g, &sbufs, 4),
            refused(E::UnheldBlock { rank: 0, phase: 0, block: 1 })
        );
        let want = reference_alltoallv(&g, &sbufs, &BlockSizes::uniform(4));
        assert_eq!(run(&plan_naive(&g), &g, &sbufs, 4), Ok(want));
    }

    #[test]
    fn payload_shape_checked() {
        let g = erdos_renyi(8, 0.5, 1);
        let plan = plan_naive(&g);
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
        let plan = plan_naive(&g);
        let got = run(&plan, &g, &vec![vec![]; 4], 16).unwrap();
        assert!(got.iter().all(Vec::is_empty));
    }
}
