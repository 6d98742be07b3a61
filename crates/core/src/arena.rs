//! The engine's reusable workspace, and the public view of the compiled
//! gather program.
//!
//! [`ArenaLayout`] is the program a checked plan compiles to for the
//! allgather family: its messages in integration order. Blocks are never
//! modified in flight, so each delivered byte is copied once, from its
//! origin's payload into the receive buffer.
//!
//! [`BlockArena`] is what a caller keeps between executions — no payload
//! bytes: per plan allocation it serves, the allocation's cell (its one
//! check, shared by every op shape) with each shape's program and
//! simulated structure; the offset tables; the adopted receive buffers.
//! `docs/EXECUTION_API.md` spells out the warm-path contract.

use crate::collective::program::{compile, Checked, Exec, Job, Program, Shape, Staged, Tables};
use crate::exec::ExecError;
use crate::plan::CollectivePlan;
use nhood_cluster::ClusterLayout;
use nhood_simnet::Prepared;
use nhood_topology::Topology;
use std::sync::Arc;

pub use crate::collective::program::Program as ArenaLayout;

/// Reusable execution workspace (module docs): repeated
/// [`crate::exec::Executor::run`] calls on one arena share its checks,
/// programs, tables and — through [`adopt_rbufs`](Self::adopt_rbufs) —
/// receive buffers; [`reallocations`](Self::reallocations) counts the
/// buffer growths, so tests (and the Fig. 8-style persistent-collective
/// argument) can assert steady-state runs are allocation-free.
#[derive(Debug, Default)]
pub struct BlockArena {
    /// The topology every record was filled on.
    graph: Option<Topology>,
    /// One record per plan allocation served; each shape's program and
    /// structure are in at most one, and a record with neither goes.
    plans: Vec<Record>,
    tables: Tables,
    spare_rbufs: Vec<Vec<u8>>,
    reallocations: u64,
}

/// What a [`BlockArena`] keeps for one plan allocation.
#[derive(Debug)]
struct Record {
    /// The allocation's cell, held, not merely compared against: while
    /// it lives the allocation cannot be freed and its address reused by
    /// another plan, nor the plan `Arc::get_mut`-ed, so pointer identity
    /// *is* content identity.
    cell: Arc<Checked>,
    /// Per [`Shape`], in declaration order.
    slots: [Slot; 4],
}

/// A shape's program, and the simulator's structure with its layout.
type Slot = (Option<Arc<Program>>, Option<Box<(ClusterLayout, Prepared)>>);

impl BlockArena {
    /// An empty arena; programs and storage are built on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many receive-buffer growths all executions through this arena
    /// have paid so far — the arena allocates payload-sized memory
    /// nowhere else. Stable across repeated runs of the same plan at the
    /// same message sizes once the buffers are
    /// [adopted](Self::adopt_rbufs) back.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// The gather program of `plan` on `graph`: cached without reading the
    /// plan for this allocation (`Arc::ptr_eq`) on an equal topology, by
    /// content for a plan of the same rows (re-pinned: the next call is
    /// warm), compiled if not, off the plan checked once per allocation
    /// ([`ExecError::InvalidPlan`]). An error leaves the arena as it was.
    pub fn prepare(
        &mut self,
        plan: &Arc<CollectivePlan>,
        graph: &Topology,
    ) -> Result<Arc<ArenaLayout>, ExecError> {
        self.program(&self.cell(plan, graph), graph, Shape::Gather)
    }

    /// The cell of `plan` on `graph`: this arena's, else one made on first
    /// sight of the allocation.
    pub(crate) fn cell(&self, plan: &Arc<CollectivePlan>, graph: &Topology) -> Arc<Checked> {
        let ours = self.graph.as_ref() == Some(graph);
        let kept = self.plans.iter().find(|rec| ours && Arc::ptr_eq(&rec.cell.plan, plan));
        kept.map_or_else(|| Arc::new(Checked::new(Arc::clone(plan))), |rec| Arc::clone(&rec.cell))
    }

    /// [`prepare`](Self::prepare) for any op shape, off the plan's cell.
    pub(crate) fn program(
        &mut self,
        cell: &Arc<Checked>,
        graph: &Topology,
        shape: Shape,
    ) -> Result<Arc<Program>, ExecError> {
        let rec = self.find(cell, graph).map(|at| &self.plans[at]);
        if let Some(prog) = rec.and_then(|rec| rec.slots[shape as usize].0.clone()) {
            return Ok(prog);
        }
        let cell = Arc::clone(rec.map_or(cell, |rec| &rec.cell));
        let prog = Arc::new(compile(&cell, graph, shape)?);
        self.pin(&cell, graph, shape).slots[shape as usize].0 = Some(Arc::clone(&prog));
        Ok(prog)
    }

    /// The simulator's structure of the plan's `shape` on `graph` placed on
    /// `layout`, beside the shape's program: `None` until a request fills it.
    pub(crate) fn simulation(
        &mut self,
        cell: &Arc<Checked>,
        graph: &Topology,
        shape: Shape,
        layout: &ClusterLayout,
    ) -> &mut Option<Box<(ClusterLayout, Prepared)>> {
        let sim = &mut self.pin(cell, graph, shape).slots[shape as usize].1;
        if sim.as_ref().is_some_and(|kept| kept.0 != *layout) {
            *sim = None;
        }
        sim
    }

    /// The record of this plan allocation on `graph`, or of a plan of the
    /// [same rows](CollectivePlan::same_rows), re-pinned to `cell` (which
    /// adopts the record's verdict).
    fn find(&mut self, cell: &Arc<Checked>, graph: &Topology) -> Option<usize> {
        let ours = self.graph.as_ref() == Some(graph);
        let own = self.plans.iter().position(|rec| ours && Arc::ptr_eq(&rec.cell.plan, &cell.plan));
        own.or_else(|| {
            let at = self.plans.iter().position(|rec| ours && rec.cell.same_rows(&cell.plan))?;
            cell.adopt(&self.plans[at].cell);
            self.plans[at].cell = Arc::clone(cell);
            Some(at)
        })
    }

    /// The record serving `cell` on `graph` (new on another topology, which
    /// retires the rest), now the only one to fill `shape`: an empty goes.
    fn pin(&mut self, cell: &Arc<Checked>, graph: &Topology, shape: Shape) -> &mut Record {
        let rec = match self.find(cell, graph) {
            Some(at) => self.plans.swap_remove(at),
            None => {
                if self.graph.as_ref() != Some(graph) {
                    self.plans.clear();
                    self.graph = Some(graph.clone());
                }
                Record { cell: Arc::clone(cell), slots: Default::default() }
            }
        };
        for other in &mut self.plans {
            other.slots[shape as usize] = (None, None);
        }
        self.plans.retain(|rec| rec.slots.iter().any(|s| s.0.is_some() || s.1.is_some()));
        self.plans.insert(0, rec);
        &mut self.plans[0]
    }

    /// Stages one execution of `prog`: resolves the offset tables for
    /// `job` and hands out the staging arena ([`Tables::stage`]) and `n`
    /// sized receive buffers, reusing adopted capacity when available.
    pub(crate) fn stage<'a>(
        &'a mut self,
        prog: &'a Program,
        job: Job<'a>,
    ) -> Result<Staged<'a>, ExecError> {
        let mut rbufs = std::mem::take(&mut self.spare_rbufs);
        rbufs.resize_with(prog.n, Vec::new);
        let arena = self.tables.stage(prog, job, &mut rbufs, &mut self.reallocations)?;
        Ok(Staged { exec: Exec { prog, job, off: &self.tables }, arena, rbufs })
    }

    /// Hands receive buffers back for capacity reuse — a persistent
    /// collective calls this with the previous execution's output before
    /// re-running, making steady-state executions allocation-free.
    pub fn adopt_rbufs(&mut self, rbufs: Vec<Vec<u8>>) {
        self.spare_rbufs = rbufs;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::collective::program::tests::{checks, compiles};
    use crate::exec::sim_exec::{simulate, simulate_kept, Priced, SimCost};
    use crate::exec::virtual_exec::{reference_allgather, test_payloads};
    use crate::exec::{ExecOptions, Executor, Threaded, Virtual};
    use crate::lower::lower;
    use crate::naive::plan_naive;
    use crate::plan::{Algorithm, PlanValidationError, PlanWriter};
    use nhood_cluster::ClusterLayout;
    use nhood_topology::random::erdos_renyi;
    use nhood_topology::Rank;

    #[test]
    fn dh_halving_sends_are_single_spans() {
        // The tentpole property: slot order == main_buf order, so every
        // halving-phase whole-buffer send is one contiguous span.
        let g = erdos_renyi(32, 0.4, 7);
        let layout = ClusterLayout::new(4, 2, 4);
        let plan = lower(&build_pattern(&g, &layout).unwrap(), &g);
        assert!(ArenaLayout::for_plan(&plan, &g).unwrap().contiguous_send_fraction() > 0.5);
        // the halving phases alone (delivering to nobody, so compiled on
        // the edgeless graph): every send is one span
        let phases = plan.phase_count() - 2;
        let halving = plan.edited(|rows| rows.iter_mut().for_each(|prog| prog.truncate(phases)));
        let al = ArenaLayout::for_plan(&halving, &Topology::from_edges(32, [])).unwrap();
        assert_eq!(al.contiguous_send_fraction(), 1.0, "a halving send fragmented");
        assert_eq!(al.n(), 32);
    }

    #[test]
    fn naive_layout_holds_own_plus_in_neighbors() {
        let g = erdos_renyi(16, 0.5, 3);
        let plan = Arc::new(plan_naive(&g));
        let al = ArenaLayout::for_plan(&plan, &g).unwrap();
        for r in 0..16 {
            assert_eq!(
                crate::collective::program::tests::cells_of(&al, r),
                g.in_neighbors(r),
                "rank {r}"
            );
        }
        assert_eq!(al.contiguous_send_fraction(), 1.0, "a naive send is the rank's own block");
    }

    #[test]
    fn contiguous_send_fraction_reads_main_buf_order_on_every_builder() {
        // `main_buf` positions come from arrival order; these are the
        // fractions the per-block arena slots of the earlier compile gave
        let algos = [
            Algorithm::Naive,
            Algorithm::DistanceHalving,
            Algorithm::CommonNeighbor { k: 4 },
            Algorithm::HierarchicalLeader { leaders_per_node: 2 },
            Algorithm::Bruck,
            Algorithm::Pat { radix: 2 },
        ];
        let pinned: [(usize, f64, u64, [f64; 6]); 3] = [
            (
                32,
                0.4,
                7,
                [
                    1.0,
                    0.6854460093896714,
                    0.674074074074074,
                    0.7032967032967034,
                    0.7769784172661871,
                    0.628158844765343,
                ],
            ),
            (
                48,
                0.15,
                3,
                [
                    1.0,
                    0.7803921568627451,
                    0.8881578947368421,
                    0.5806451612903226,
                    0.6197183098591549,
                    0.6317567567567568,
                ],
            ),
            (
                64,
                0.6,
                11,
                [
                    1.0,
                    0.51171875,
                    0.38686779059449866,
                    0.7808219178082192,
                    0.8081081081081081,
                    0.5787139689578714,
                ],
            ),
        ];
        for (n, delta, seed, want) in pinned {
            let g = erdos_renyi(n, delta, seed);
            let layout = ClusterLayout::new(n / 8, 2, 4);
            let comm = crate::comm::DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
            for (algo, want) in algos.into_iter().zip(want) {
                let plan = comm.plan(algo).unwrap();
                let got = ArenaLayout::for_plan(&plan, &g).unwrap().contiguous_send_fraction();
                assert_eq!(got, want, "{algo} at n = {n}, δ = {delta}");
            }
        }
    }

    #[test]
    fn corrupt_plan_fails_at_layout_time() {
        let g = Topology::from_edges(3, [(0, 2)]);
        // rank 1 sends block 0, which it never received, to rank 2
        let forged = crate::plan::PlannedMsg { peer: 2, blocks: vec![0], tag: 5 };
        let plan = plan_naive(&g).edited(|rows| rows[1][0].sends.push(forged));
        assert_eq!(
            ArenaLayout::for_plan(&plan, &g).unwrap_err(),
            ExecError::InvalidPlan(PlanValidationError::UnheldBlock {
                rank: 1,
                phase: 0,
                block: 0
            })
        );
        let g2 = Topology::from_edges(2, [(0, 1)]);
        let plan2 = plan_naive(&g2).edited(|rows| rows[0][0].sends.clear());
        assert_eq!(
            ArenaLayout::for_plan(&plan2, &g2).unwrap_err(),
            ExecError::InvalidPlan(PlanValidationError::NeverDelivered { src: 0, dst: 1 })
        );
    }

    #[test]
    fn arena_caches_layout_by_fingerprint() {
        let g = erdos_renyi(12, 0.4, 1);
        let plan = Arc::new(plan_naive(&g));
        let mut arena = BlockArena::new();
        let l1 = arena.prepare(&plan, &g).unwrap();
        let built = compiles();
        let l2 = arena.prepare(&plan, &g).unwrap();
        assert!(Arc::ptr_eq(&l1, &l2), "same plan must reuse the cached layout");
        // equal content in another allocation is the same layout too
        let twin = Arc::new(plan_naive(&g));
        let l3 = arena.prepare(&twin, &g.clone()).unwrap();
        assert!(Arc::ptr_eq(&l1, &l3), "equal content must reuse the cached layout");
        assert_eq!(compiles(), built, "warm and equal-content calls compile nothing");
        // a different plan rebuilds
        let g2 = erdos_renyi(12, 0.6, 2);
        let l4 = arena.prepare(&Arc::new(plan_naive(&g2)), &g2).unwrap();
        assert!(!Arc::ptr_eq(&l1, &l4));
        assert_eq!(compiles(), built + 1);
    }

    /// A cell for the allocation `plan`, as a bare front makes it.
    fn cell(plan: &Arc<CollectivePlan>) -> Arc<Checked> {
        Arc::new(Checked::new(Arc::clone(plan)))
    }

    const SHAPES: [Shape; 4] =
        [Shape::Gather, Shape::Route, Shape::ReduceScatter, Shape::Allreduce];

    #[test]
    fn a_plan_allocation_is_checked_and_routed_once_for_every_shape() {
        let g = erdos_renyi(32, 0.3, 5);
        let plan = Arc::new(lower(&build_pattern(&g, &ClusterLayout::new(4, 2, 4)).unwrap(), &g));
        let twin = Arc::new(CollectivePlan::clone(&plan));
        let mut arena = BlockArena::new();
        let (validates, routes) = checks();
        let progs = SHAPES.map(|shape| arena.program(&cell(&plan), &g, shape).unwrap());
        assert_eq!(checks(), (validates + 1, routes + 1), "one check and one routing");
        // a twin of equal rows is served by the same record: re-pinned,
        // not checked, routed or compiled again
        let (checked, built) = (checks(), compiles());
        for (shape, prog) in SHAPES.into_iter().zip(&progs) {
            assert!(
                Arc::ptr_eq(&arena.program(&cell(&twin), &g, shape).unwrap(), prog),
                "{shape:?}"
            );
        }
        assert_eq!((checks(), compiles()), (checked, built), "the twin is the checked plan");
        assert_eq!(arena.plans.len(), 1);
        // a twin that arrives before the combining shapes compile shares
        // the gather's check, and its one routing serves all three
        let mut arena = BlockArena::new();
        arena.program(&cell(&plan), &g, Shape::Gather).unwrap();
        SHAPES[1..].iter().for_each(|&shape| drop(arena.program(&cell(&twin), &g, shape).unwrap()));
        assert_eq!(checks(), (checked.0 + 1, checked.1 + 1));
    }

    #[test]
    fn a_rejected_plan_leaves_no_record_and_warm_plans_are_not_checked_again() {
        // one tenant's Auto gather plan and Distance Halving routing plan
        let g = erdos_renyi(48, 0.3, 7);
        let comm =
            crate::comm::DistGraphComm::create_adjacent(g.clone(), ClusterLayout::new(6, 2, 4));
        let comm = comm.unwrap();
        let gather = comm.plan_shared(Algorithm::Auto).unwrap();
        let routing = comm.plan_shared(Algorithm::DistanceHalving).unwrap();
        assert!(!Arc::ptr_eq(&gather, &routing) && !gather.same_rows(&routing));
        let mut arena = BlockArena::new();
        let warm = |arena: &mut BlockArena| {
            let gathered = arena.program(&cell(&gather), &g, Shape::Gather).unwrap();
            let routed = [Shape::Route, Shape::ReduceScatter, Shape::Allreduce];
            (gathered, routed.map(|shape| arena.program(&cell(&routing), &g, shape).unwrap()))
        };
        let first = warm(&mut arena);
        let (checked, built) = (checks(), compiles());
        for _ in 0..3 {
            let again = warm(&mut arena);
            assert!(Arc::ptr_eq(&again.0, &first.0));
            assert!(again.1.iter().zip(&first.1).all(|(a, b)| Arc::ptr_eq(a, b)));
        }
        assert_eq!((checks(), compiles()), (checked, built), "warm requests check nothing");
        assert_eq!(arena.plans.len(), 2);
        // a plan the validator rejects: the same error for every shape,
        // and the arena as it was
        let bad = Arc::new(gather.edited(|rows| rows[3][0].sends.clear()));
        let e = bad.validate(&g).unwrap_err();
        for shape in SHAPES {
            assert_eq!(
                arena.program(&cell(&bad), &g, shape).unwrap_err(),
                ExecError::InvalidPlan(e.clone())
            );
            assert_eq!(arena.plans.len(), 2, "{shape:?}");
            assert!(!arena.plans.iter().any(|rec| Arc::ptr_eq(&rec.cell.plan, &bad)));
        }
        let again = warm(&mut arena);
        assert!(Arc::ptr_eq(&again.0, &first.0));
        assert_eq!(compiles(), built, "the rejections retired no program");
    }

    #[test]
    fn a_freed_plan_address_never_serves_a_stale_layout() {
        // Same graph, so only plan identity separates the two layouts;
        // `Arc<CollectivePlan>` boxes are one size, so an allocator that
        // got the old box back would hand its address to the next plan.
        let g = erdos_renyi(12, 0.4, 1);
        let nth = |i: usize| match i % 2 {
            0 => plan_naive(&g),
            _ => crate::common_neighbor::plan_common_neighbor(&g, 4),
        };
        // ... and the simulated structure kept beside the program
        let (layout, cost) = (ClusterLayout::new(3, 2, 2), SimCost::niagara());
        let simulated = |arena: &mut BlockArena, plan: &Arc<CollectivePlan>| {
            let sizes = Priced::Gather(&[64; 12]);
            let got = simulate_kept(arena, &cell(plan), &g, &layout, &cost, sizes, None).unwrap();
            got.makespan.to_bits()
        };
        let cold = |plan: &CollectivePlan| simulate(plan, &layout, 64, &cost).unwrap();
        let mut arena = BlockArena::new();
        let first = Arc::new(nth(0));
        arena.prepare(&first, &g).unwrap();
        simulated(&mut arena, &first);
        let mut freed = Arc::as_ptr(&first);
        drop(first);
        for i in 1..=1000 {
            let plan = Arc::new(nth(i));
            let reused = Arc::as_ptr(&plan) == freed;
            let got = arena.prepare(&plan, &g).unwrap();
            assert_layout_eq(&got, &ArenaLayout::for_plan(&plan, &g).unwrap());
            assert_eq!(simulated(&mut arena, &plan), cold(&plan).makespan.to_bits(), "try {i}");
            assert!(!reused, "the arena held the plan at {freed:?}, yet try {i} got its address");
            freed = Arc::as_ptr(&plan);
        }
    }

    #[test]
    fn a_churned_plan_or_another_layout_gets_a_fresh_simulated_structure() {
        use crate::repair::repair_for_churn;
        let g = erdos_renyi(32, 0.3, 5);
        let (a, b) = (ClusterLayout::new(4, 2, 4), ClusterLayout::with_groups(8, 2, 2, 2));
        let pattern = build_pattern(&g, &a).unwrap();
        let plan = Arc::new(lower(&pattern, &g));
        let gone = g.edges().next().unwrap();
        let g2 = Topology::from_edges(32, g.edges().filter(|&e| e != gone));
        let churned = Arc::new(repair_for_churn(&pattern, &plan, &g2, &[], &[gone]).unwrap().plan);
        let mut arena = BlockArena::new();
        let steps = [(&plan, &g, &a), (&plan, &g, &a), (&plan, &g, &b), (&plan, &g, &a)];
        let churn = [(&churned, &g2, &a), (&churned, &g2, &a), (&plan, &g, &a)];
        for (i, &(plan, graph, layout)) in steps.iter().chain(&churn).enumerate() {
            let warm = arena.simulation(&cell(plan), graph, Shape::Gather, layout).is_some();
            assert_eq!(warm, [1, 5].contains(&i), "step {i}: a structure kept for it");
            let (cost, sizes) = (SimCost::niagara(), Priced::Gather(&[256; 32]));
            let got =
                simulate_kept(&mut arena, &cell(plan), graph, layout, &cost, sizes, None).unwrap();
            let want = simulate(plan, layout, 256, &cost).unwrap().makespan;
            assert_eq!(got.makespan.to_bits(), want.to_bits(), "step {i}");
        }
    }

    #[test]
    fn same_plan_on_another_topology_matches_a_cold_arena() {
        let g = erdos_renyi(12, 0.4, 1);
        let plan = Arc::new(plan_naive(&g));
        let (u, v) = g.edges().next().unwrap();
        let fewer = Topology::from_edges(12, g.edges().filter(|&e| e != (u, v)));
        let spare = (0..12).find(|&w| w != v && !g.has_edge(w, v)).unwrap();
        let more = Topology::from_edges(12, g.edges().chain([(spare, v)]));
        let mut arena = BlockArena::new();
        for graph in [&g, &fewer, &more, &g, &Topology::from_edges(13, g.edges())] {
            let warm = arena.prepare(&plan, graph);
            match (warm, BlockArena::new().prepare(&plan, graph)) {
                (Ok(w), Ok(c)) => assert_layout_eq(&w, &c),
                (w, c) => assert_eq!(w.err(), c.err()),
            }
        }
        // `more` wants a block the plan never delivers: typed, not stale
        assert_eq!(
            arena.prepare(&plan, &more).unwrap_err(),
            ExecError::InvalidPlan(PlanValidationError::NeverDelivered { src: spare, dst: v })
        );
        // a topology of another rank count is the validator's refusal too
        let wider = Topology::from_edges(13, g.edges());
        assert_eq!(
            arena.prepare(&plan, &wider).unwrap_err(),
            ExecError::InvalidPlan(PlanValidationError::RankCountMismatch {
                plan: 12,
                topology: 13
            })
        );
    }

    /// Structural equality for layouts (a program's tables are private
    /// and derive no `PartialEq`).
    fn assert_layout_eq(a: &ArenaLayout, b: &ArenaLayout) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn repair_matches_full_rebuild_after_churn() {
        use crate::repair::repair_for_churn;
        let g = erdos_renyi(48, 0.3, 17);
        let layout = ClusterLayout::new(6, 2, 4);
        let pat = build_pattern(&g, &layout).unwrap();
        let plan = Arc::new(lower(&pat, &g));

        let mut arena = BlockArena::new();
        let before = arena.prepare(&plan, &g).unwrap();

        // churn: drop one edge, add one non-edge
        let gone = g.edges().next().unwrap();
        let grown = (0..48)
            .flat_map(|u| (0..48).map(move |v| (u, v)))
            .find(|&(u, v)| u != v && !g.has_edge(u, v))
            .unwrap();
        let g2 = Topology::from_edges(
            48,
            g.edges().filter(|&e| e != gone).chain(std::iter::once(grown)),
        );
        let rep = repair_for_churn(&pat, &plan, &g2, &[grown], &[gone]).unwrap();
        let repaired = Arc::new(rep.plan);

        let patched = arena.prepare(&repaired, &g2).unwrap();
        assert!(!Arc::ptr_eq(&before, &patched), "churn must produce a new layout");
        assert_layout_eq(&patched, &ArenaLayout::for_plan(&repaired, &g2).unwrap());

        // same (plan, graph) again: the patched layout is now cached
        let again = arena.prepare(&repaired, &g2).unwrap();
        assert!(Arc::ptr_eq(&patched, &again));
    }

    #[test]
    fn repair_without_cached_layout_falls_back_to_full_build() {
        let g = erdos_renyi(12, 0.4, 4);
        let plan = Arc::new(plan_naive(&g));
        let mut arena = BlockArena::new();
        let l = arena.prepare(&plan, &g).unwrap();
        assert_layout_eq(&l, &ArenaLayout::for_plan(&plan, &g).unwrap());
    }

    /// One message of a [`hand_plan`]: `(phase, src, dst, blocks)`.
    pub(crate) type HandMsg<'a> = (usize, Rank, Rank, &'a [Rank]);

    /// A hand-built plan over `n` ranks and `phases` phases; message `i`
    /// travels under tag `i`.
    pub(crate) fn hand_plan(n: usize, phases: usize, msgs: &[HandMsg]) -> Arc<CollectivePlan> {
        let mut w = PlanWriter::new(Algorithm::Naive, n, phases);
        for (tag, &(k, src, dst, blocks)) in msgs.iter().enumerate() {
            w.message(k, src, dst, tag as u64, blocks);
        }
        Arc::new(w.finish())
    }

    /// A relay: 1 → 0 in phase 0, then 0 → 2 carries `sent`.
    fn relay(sent: &[Rank]) -> (Topology, Arc<CollectivePlan>) {
        let g = Topology::from_edges(3, [(1, 0), (0, 2), (1, 2)]);
        (g, hand_plan(3, 2, &[(0, 1, 0, &[1]), (1, 0, 2, sent)]))
    }

    const BACKENDS: [&dyn Executor; 2] = [&Virtual, &Threaded];

    #[test]
    fn executors_forward_what_was_sent_not_what_the_layout_labelled() {
        // A message has one block list, its sender's: in whichever order
        // it names the relayed and the own block, rank 2 receives each at
        // its origin (the byte-staging arena once put block 1 where the
        // definition said block 0).
        let payloads = test_payloads(3, 4, 11);
        for sent in [[0, 1], [1, 0]] {
            let (g, plan) = relay(&sent);
            for exec in BACKENDS {
                let got = exec.run_simple(&plan, &g, &payloads).unwrap();
                assert_eq!(got, reference_allgather(&g, &payloads), "{} {sent:?}", exec.name());
            }
        }
    }

    #[test]
    fn warm_slot_tables_reset_every_run_and_never_shrink() {
        let g = erdos_renyi(24, 0.4, 8);
        let cl = ClusterLayout::new(3, 2, 4);
        let dh = Arc::new(lower(&build_pattern(&g, &cl).unwrap(), &g));
        let mut arena = BlockArena::new();
        let run = |arena: &mut BlockArena, plan, payloads: &[Vec<u8>], ragged| {
            let opts = ExecOptions::new().ragged(ragged);
            let out = Virtual.run(plan, &g, payloads, arena, &opts).unwrap();
            assert_eq!(out.rbufs, reference_allgather(&g, payloads));
            arena.adopt_rbufs(out.rbufs);
            arena.reallocations()
        };
        let first = run(&mut arena, &dh, &test_payloads(24, 16, 1), false);
        // permuted ragged tables, zero-length blocks included
        for shift in 1..=3usize {
            let ragged: Vec<Vec<u8>> =
                (0..24).map(|r| vec![(r + shift) as u8; (r * 5 + shift * 7) % 6]).collect();
            assert!(ragged.iter().any(Vec::is_empty));
            assert_eq!(run(&mut arena, &dh, &ragged, true), first, "ragged table {shift}");
        }
        // smaller blocks, and a plan that needs fewer cells, reuse the
        // tables and buffers of the larger ones
        let naive = Arc::new(plan_naive(&g));
        assert_eq!(run(&mut arena, &naive, &test_payloads(24, 8, 2), false), first);
        assert_eq!(run(&mut arena, &dh, &test_payloads(24, 4, 3), false), first);
    }

    #[test]
    fn an_empty_slot_is_a_typed_error_and_the_arena_stays_usable() {
        let payloads = test_payloads(4, 4, 5);
        let opts = ExecOptions::new().recv_timeout(std::time::Duration::from_millis(50));
        // Rank 0 relays one block to rank 2: in-neighbor 1's block never
        // arrives there.
        let (g3, short) = relay(&[0]);
        // The same hole, read by a send: rank 2 forwards block 1 to 3.
        let g4 = Topology::from_edges(4, [(1, 0), (0, 2), (1, 3)]);
        let sourced = hand_plan(4, 3, &[(0, 1, 0, &[1]), (1, 0, 2, &[0]), (2, 2, 3, &[1])]);
        let (_, good) = relay(&[0, 1]);
        for exec in BACKENDS {
            let mut arena = BlockArena::new();
            let mut run = |plan, g: &Topology| {
                exec.run(plan, g, &payloads[..g.n()], &mut arena, &opts).map(|out| out.rbufs)
            };
            // the good run first, so state a failed compile left behind
            // would still describe it
            let want = reference_allgather(&g3, &payloads[..3]);
            assert_eq!(run(&good, &g3).unwrap(), want, "{}", exec.name());
            assert_eq!(
                run(&short, &g3).unwrap_err(),
                ExecError::InvalidPlan(PlanValidationError::NeverDelivered { src: 1, dst: 2 }),
                "{}",
                exec.name()
            );
            assert_eq!(
                run(&sourced, &g4).unwrap_err(),
                ExecError::InvalidPlan(PlanValidationError::UnheldBlock {
                    rank: 2,
                    phase: 2,
                    block: 1
                }),
                "{}",
                exec.name()
            );
            assert_eq!(run(&good, &g3).unwrap(), want, "{} after the errors", exec.name());
        }
    }

    #[test]
    fn a_duplicate_delivery_is_a_typed_refusal_on_both_backends() {
        // block 0 reaches rank 2 twice: directly, then relayed by rank 1
        // — exactly-once delivery is the plan's contract, so the plan is
        // refused before a byte moves, uniform or ragged
        let g = Topology::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        let plan = hand_plan(3, 2, &[(0, 0, 1, &[0]), (0, 0, 2, &[0]), (1, 1, 2, &[1, 0])]);
        let twice = PlanValidationError::DuplicateDelivery { src: 0, dst: 2, count: 2 };
        let ragged: Vec<Vec<u8>> = vec![vec![7; 3], vec![], vec![9; 5]];
        for (payloads, opts) in [
            (&test_payloads(3, 8, 4), ExecOptions::new()),
            (&ragged, ExecOptions::new().ragged(true)),
        ] {
            for exec in BACKENDS {
                let mut cold = BlockArena::new();
                let got = exec.run(&plan, &g, payloads, &mut cold, &opts).unwrap_err();
                assert_eq!(got, ExecError::InvalidPlan(twice.clone()), "{}", exec.name());
            }
        }
    }
}
