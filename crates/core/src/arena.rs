//! Block arenas: a per-rank slot layout plus tables of block
//! descriptors. The arena holds no payload bytes.
//!
//! Modelling every payload block as an owned `Vec<u8>` in a per-rank map
//! makes each phase pay per-block allocation, hashing and
//! pointer-chasing costs that the paper's Hockney model (§V) never
//! charges. The arena moves all of that work to **plan time**:
//!
//! * [`ArenaLayout::for_plan`] walks the plan once and assigns every
//!   block a rank ever holds a fixed **slot** in that rank's table
//!   (slot 0 is the rank's own block; arriving blocks are appended in
//!   arrival order). Because the Distance Halving builder also appends
//!   arrivals to `main_buf` (Algorithm 4 line 15), a halving-phase send
//!   of the whole buffer resolves to **one contiguous slot run** — the
//!   growing-message combine the paper's bandwidth term models.
//! * Every planned message is pre-resolved to source and destination
//!   **slot runs** — each [`SendOp`] also names the peer's matching
//!   [`RecvOp`] — so at execution time a send moves the descriptors of
//!   its source runs into the peer's destination runs (usually one slice
//!   copy of 4 B per block) — no hash lookups, no per-block `Vec`s.
//! * The receive buffer of each rank is pre-resolved to slot runs too,
//!   so final assembly appends the blocks its slots hold in
//!   `in_neighbors` order.
//!
//! # What "zero-copy" means
//!
//! Algorithm 4 grows `main_buf` hop by hop and then copies into `rbuf`;
//! §V charges a forwarded block once per *link*. In one address space
//! the per-hop copies are pure overhead: every block in the system is
//! some rank's payload, which the caller keeps alive for the whole run,
//! so a slot needs only the **id of the block it holds now** (4 B, reset
//! to "empty" at the start of every run) and each delivered byte is
//! copied exactly once — from its origin's payload into the receive
//! buffer. Executors forward what the sender's table holds at run time,
//! never the static labels in [`RankLayout::slots`]: a layout resolves
//! the two sides of a message independently, so only moving what was
//! really sent keeps the virtual backend the oracle that catches a
//! sender/receiver block-list disagreement. A slot nothing filled reads
//! as the typed [`ExecError::MissingBlock`] (a send) or
//! [`ExecError::Undelivered`] (assembly), never as stale bytes.
//!
//! [`BlockArena`] owns the reusable storage: the cached layout, the
//! grow-only per-rank slot tables and the receive buffers a caller hands
//! back. [`BlockArena::reallocations`] counts **receive-buffer growth
//! only** — the one place payload-sized memory is allocated — so a
//! caller re-running a plan with adopted buffers can assert steady state
//! is allocation-free; the slot tables reach a plan's slot count on its
//! first run and never shrink.
//!
//! # The warm-path contract
//!
//! A layout is a pure function of the plan's programs and the topology's
//! in-neighbour table, so [`BlockArena::prepare`] serves the cached one
//! when it is handed **the same plan allocation** (`Arc::ptr_eq`) and an
//! **equal topology** (a copy is kept; the adjacency tables compare as
//! four slices) — no hashing, the plan is not read. The arena holds a
//! clone of the `Arc` it laid out: while that clone lives the allocation
//! cannot be freed and its address reused by a different plan, and
//! nobody can `Arc::get_mut` the plan, so pointer identity *is* content
//! identity (comparing a bare address would be neither). Anything else —
//! an equal plan in another `Arc`, a plan back from the cache after
//! churn, a different topology — takes the content path: fingerprint,
//! reuse the cached layout on an equal [`PlanFingerprint::of_plan`],
//! otherwise rebuild, with the same typed [`ExecError::MissingBlock`] /
//! [`ExecError::Undelivered`].

use crate::exec::ExecError;
use crate::plan::CollectivePlan;
use crate::plan_cache::PlanFingerprint;
use nhood_topology::{Rank, Topology};
use std::sync::Arc;

/// A run of consecutive arena slots: `(first_slot, slot_count)`.
///
/// Runs index a rank's slot table, not bytes — block sizes never enter
/// the layout, so one layout serves every message size *and* shape.
pub type SlotRun = (u32, u32);

/// The slot indices a run list covers, in message block order.
pub(crate) fn slots(runs: &[SlotRun]) -> impl Iterator<Item = usize> + '_ {
    runs.iter().flat_map(|&(s, l)| s as usize..(s + l) as usize)
}

/// A slot-table entry no block has reached in the current run.
pub(crate) const EMPTY: u32 = u32::MAX;

/// A planned message pre-resolved against the **sender's** arena.
#[derive(Clone, Debug)]
pub struct SendOp {
    /// Destination rank.
    pub peer: Rank,
    /// Matching tag (copied from the plan).
    pub tag: u64,
    /// Source slot runs in the sender's arena, in message block order.
    pub runs: Vec<SlotRun>,
    /// The peer's matching [`RecvOp`] as `(phase, index)` into its
    /// `phases[..].recvs`; `None` when the peer posts no such receive
    /// (the message goes nowhere, as on the threaded backend).
    pub dst: Option<(u32, u32)>,
}

/// A planned message pre-resolved against the **receiver's** arena.
#[derive(Clone, Debug)]
pub struct RecvOp {
    /// Source rank.
    pub peer: Rank,
    /// Matching tag (copied from the plan).
    pub tag: u64,
    /// Destination slot runs in the receiver's arena, in message block
    /// order.
    pub runs: Vec<SlotRun>,
}

/// One phase of one rank's program, pre-resolved to arena spans.
#[derive(Clone, Debug, Default)]
pub struct PhaseOps {
    /// Sends, aligned with the plan phase's `sends`.
    pub sends: Vec<SendOp>,
    /// Receives, aligned with the plan phase's `recvs`.
    pub recvs: Vec<RecvOp>,
}

/// One rank's complete arena layout.
#[derive(Clone, Debug)]
pub struct RankLayout {
    /// Block id held in each slot, in slot order (`slots[0]` is the rank
    /// itself).
    pub slots: Vec<Rank>,
    /// Per-phase pre-resolved operations (lock-step with the plan).
    pub phases: Vec<PhaseOps>,
    /// Where every expected incoming message's [`RecvOp`] sits:
    /// `((src, tag), (phase, index))` sorted ascending, so the last
    /// posting of a key closes its run — the link-time index behind
    /// [`SendOp::dst`] (no executor searches at run time).
    pub recv_at: Vec<((Rank, u64), (u32, u32))>,
    /// Arena runs that assemble the rank's receive buffer: its
    /// in-neighbors' blocks in `in_neighbors` order.
    pub out_runs: Vec<SlotRun>,
}

/// The per-rank flat layout of a [`CollectivePlan`]: every block each
/// rank ever holds mapped to a fixed arena slot, and every planned
/// message pre-resolved to slot runs. Built once per plan (see
/// [`BlockArena`] for caching) and reused across executions and message
/// sizes.
#[derive(Clone, Debug)]
pub struct ArenaLayout {
    /// Per-rank layouts.
    pub ranks: Vec<RankLayout>,
    /// Lock-step phase count (copied from the plan).
    pub phase_count: usize,
}

/// Compresses a sequence of slot indices into maximal consecutive runs,
/// stopping at the first one that failed to resolve.
fn compress_runs(
    slots: impl IntoIterator<Item = Result<u32, ExecError>>,
) -> Result<Vec<SlotRun>, ExecError> {
    let mut runs: Vec<SlotRun> = Vec::new();
    for s in slots {
        let s = s?;
        match runs.last_mut() {
            Some((start, len)) if *start + *len == s => *len += 1,
            _ => runs.push((s, 1)),
        }
    }
    Ok(runs)
}

/// Builds one rank's complete layout row. A rank's slot assignment is a
/// pure function of its own program (sends resolve against its own slot
/// table, receives only grow it), so rows are independently computable —
/// which is what lets [`ArenaLayout::repair`] rebuild only the ranks a
/// plan mutation touched. `slot_of` is the caller's scratch, one entry
/// per rank and all [`EMPTY`]; a finished row hands it back that way.
fn rank_layout(
    plan: &CollectivePlan,
    graph: &Topology,
    r: Rank,
    slot_of: &mut [u32],
) -> Result<RankLayout, ExecError> {
    let mut rl = RankLayout {
        slots: vec![r],
        phases: Vec::with_capacity(plan.phase_count()),
        recv_at: Vec::new(),
        out_runs: Vec::new(),
    };
    slot_of[r] = 0;
    let held = |slot_of: &[u32], b: Rank| slot_of.get(b).copied().filter(|&s| s != EMPTY);

    for (k, phase) in plan.per_rank[r].iter().enumerate() {
        // Sends first, against the pre-phase slot table, so a block
        // arriving in phase k cannot be sourced in phase k. A label no
        // rank owns has no slot on either side of a message.
        let missing = |b| ExecError::MissingBlock { rank: r, block: b, phase: k };
        let mut ops = Vec::with_capacity(phase.sends.len());
        for msg in &phase.sends {
            let runs =
                compress_runs(msg.blocks.iter().map(|&b| held(slot_of, b).ok_or(missing(b))))?;
            ops.push(SendOp { peer: msg.peer, tag: msg.tag, runs, dst: None });
        }
        // Then receives: first arrival appends a slot at the arena tail
        // (re-deliveries reuse the existing slot — the bytes are
        // identical, so overwriting is idempotent).
        let mut recv_ops = Vec::with_capacity(phase.recvs.len());
        for msg in &phase.recvs {
            let runs = compress_runs(msg.blocks.iter().map(|&b| {
                let slot = slot_of.get_mut(b).ok_or(missing(b))?;
                if *slot == EMPTY {
                    *slot = rl.slots.len() as u32;
                    rl.slots.push(b);
                }
                Ok(*slot)
            }))?;
            rl.recv_at.push(((msg.peer, msg.tag), (k as u32, recv_ops.len() as u32)));
            recv_ops.push(RecvOp { peer: msg.peer, tag: msg.tag, runs });
        }
        rl.phases.push(PhaseOps { sends: ops, recvs: recv_ops });
    }
    rl.recv_at.sort_unstable();

    // Receive-buffer assembly runs, in in-neighbor order.
    let undelivered = |b| ExecError::Undelivered { rank: r, block: b };
    let ins = graph.in_neighbors(r);
    rl.out_runs = compress_runs(ins.iter().map(|&b| held(slot_of, b).ok_or(undelivered(b))))?;
    rl.slots.shrink_to_fit();
    for &b in &rl.slots {
        slot_of[b] = EMPTY;
    }
    Ok(rl)
}

/// Points every send at its receiver's [`RecvOp`] — the one place a
/// `(src, tag)` key is searched for, so no executor does it per message.
fn link_sends(ranks: &mut [RankLayout]) {
    for r in 0..ranks.len() {
        let mut phases = std::mem::take(&mut ranks[r].phases);
        for s in phases.iter_mut().flat_map(|ph| &mut ph.sends) {
            s.dst = ranks.get(s.peer).and_then(|peer| {
                let after = peer.recv_at.partition_point(|&(key, _)| key <= (r, s.tag));
                peer.recv_at[..after]
                    .last()
                    .filter(|&&(key, _)| key == (r, s.tag))
                    .map(|&(_, at)| at)
            });
        }
        ranks[r].phases = phases;
    }
}

impl ArenaLayout {
    /// Builds the layout for `plan` on `graph`.
    ///
    /// Walks each rank's phases in plan order, assigning fresh slots to
    /// blocks on first arrival. Returns the same typed errors the
    /// executors would hit at runtime: [`ExecError::MissingBlock`] for a
    /// send of a never-held block and [`ExecError::Undelivered`] for an
    /// in-neighbor whose block never arrives — so a corrupt plan fails
    /// at layout time, before any bytes move.
    pub fn for_plan(plan: &CollectivePlan, graph: &Topology) -> Result<Self, ExecError> {
        #[cfg(test)]
        tests::FOR_PLAN_CALLS.with(|c| c.set(c.get() + 1));
        let mut slot_of = vec![EMPTY; plan.n()];
        let mut ranks = (0..plan.n())
            .map(|r| rank_layout(plan, graph, r, &mut slot_of))
            .collect::<Result<Vec<_>, _>>()?;
        link_sends(&mut ranks);
        Ok(Self { ranks, phase_count: plan.phase_count() })
    }

    /// Rebuilds only the rows in `changed_ranks` against a mutated plan
    /// (every other row keeps its slots and runs), then re-links all
    /// sends. Correct because a row is a pure function of its own rank's
    /// program (`rank_layout`) — the caller guarantees ranks outside the
    /// list have bitwise-equal programs and unchanged in-neighbor lists.
    pub fn repair(
        &self,
        plan: &CollectivePlan,
        graph: &Topology,
        changed_ranks: &[Rank],
    ) -> Result<Self, ExecError> {
        let mut out = self.clone();
        out.phase_count = plan.phase_count();
        let mut slot_of = vec![EMPTY; plan.n()];
        for &r in changed_ranks {
            out.ranks[r] = rank_layout(plan, graph, r, &mut slot_of)?;
        }
        link_sends(&mut out.ranks);
        Ok(out)
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.ranks.len()
    }

    /// Fraction of send operations that resolved to a **single**
    /// contiguous slot run — forwarded as one slice of descriptors.
    /// Distance Halving halving-phase sends are 100% contiguous by
    /// construction (the arena is laid out in `main_buf` order).
    pub fn contiguous_send_fraction(&self) -> f64 {
        let (mut total, mut one) = (0usize, 0usize);
        for rl in &self.ranks {
            for ph in &rl.phases {
                for s in &ph.sends {
                    total += 1;
                    one += usize::from(s.runs.len() == 1);
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            one as f64 / total as f64
        }
    }
}

/// Reusable zero-copy execution workspace: the cached [`ArenaLayout`],
/// one table of block descriptors per rank, and the receive buffers the
/// caller hands back.
///
/// Pass the same arena to repeated [`crate::exec::Executor::run`] calls
/// to amortize the layout computation, the tables and — through
/// [`adopt_rbufs`](Self::adopt_rbufs) — the receive buffers;
/// [`reallocations`](Self::reallocations) counts how many times a
/// receive buffer actually had to grow, so tests (and the Fig. 8-style
/// persistent-collective argument) can assert steady-state runs are
/// allocation-free.
#[derive(Debug, Default)]
pub struct BlockArena {
    warm: Option<Warm>,
    /// Per rank, the id of the block each slot holds *now* ([`EMPTY`]
    /// when none): 4 B per slot, grow-only, reset every run.
    held: Vec<Vec<u32>>,
    spare_rbufs: Vec<Vec<u8>>,
    reallocations: u64,
}

/// The layout a [`BlockArena`] serves and what it was laid out for (see
/// the module docs' warm-path contract).
#[derive(Debug)]
struct Warm {
    /// Held, not merely compared against: keeps the address from being
    /// reused and the plan from being mutated while it is the identity.
    plan: Arc<CollectivePlan>,
    graph: Topology,
    key: PlanFingerprint,
    layout: Arc<ArenaLayout>,
}

impl BlockArena {
    /// An empty arena; storage and layout are built on first use.
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

    /// Returns the layout for `plan` on `graph`: the cached one, without
    /// reading the plan, when this is the plan allocation it was built
    /// for on an equal topology; otherwise by content (see the module
    /// docs' warm-path contract).
    pub fn prepare(
        &mut self,
        plan: &Arc<CollectivePlan>,
        graph: &Topology,
    ) -> Result<Arc<ArenaLayout>, ExecError> {
        match &self.warm {
            Some(w) if Arc::ptr_eq(&w.plan, plan) && w.graph == *graph => Ok(Arc::clone(&w.layout)),
            _ => self.by_content(plan, graph, None),
        }
    }

    /// Like [`prepare`](Self::prepare), but after a plan mutation whose
    /// blast radius is known: when a compatible layout is cached, only
    /// the rows in `changed_ranks` are rebuilt (O(changed) instead of
    /// O(n)). Falls back to a full build when nothing usable is cached
    /// or the plan changed shape. The caller guarantees ranks outside
    /// `changed_ranks` have bitwise-identical programs and in-neighbor
    /// lists — [`DistGraphComm::mutate`](crate::comm::DistGraphComm::mutate)
    /// gets this from the repair engine's changed-rank report.
    pub fn repair(
        &mut self,
        plan: &Arc<CollectivePlan>,
        graph: &Topology,
        changed_ranks: &[Rank],
    ) -> Result<Arc<ArenaLayout>, ExecError> {
        self.by_content(plan, graph, Some(changed_ranks))
    }

    /// The content path: the cached layout on an equal fingerprint, the
    /// cached layout patched at `changed` when the caller vouches for
    /// the other rows, a full build otherwise. Re-pins the arena to
    /// `plan`, so the next call with this `Arc` is warm. An error leaves
    /// the arena as it was.
    fn by_content(
        &mut self,
        plan: &Arc<CollectivePlan>,
        graph: &Topology,
        changed: Option<&[Rank]>,
    ) -> Result<Arc<ArenaLayout>, ExecError> {
        let key = PlanFingerprint::of_plan(plan, graph);
        let layout = match (&self.warm, changed) {
            (Some(w), _) if w.key == key => Arc::clone(&w.layout),
            (Some(w), Some(changed))
                if w.layout.n() == plan.n() && w.layout.phase_count == plan.phase_count() =>
            {
                Arc::new(w.layout.repair(plan, graph, changed)?)
            }
            _ => Arc::new(ArenaLayout::for_plan(plan, graph)?),
        };
        let (plan, graph) = (Arc::clone(plan), graph.clone());
        self.warm = Some(Warm { plan, graph, key, layout: Arc::clone(&layout) });
        Ok(layout)
    }

    /// Moves the per-rank slot tables out for one run (hand them back
    /// through [`put_tables`](Self::put_tables)), reset to the run's
    /// start state: every slot [`EMPTY`] except slot 0, which holds the
    /// rank's own block. Tables only ever grow.
    pub(crate) fn take_tables(&mut self, layout: &ArenaLayout) -> Vec<Vec<u32>> {
        let mut held = std::mem::take(&mut self.held);
        if held.len() < layout.n() {
            held.resize_with(layout.n(), Vec::new);
        }
        for (r, (table, rl)) in held.iter_mut().zip(&layout.ranks).enumerate() {
            table.clear();
            table.resize(rl.slots.len(), EMPTY);
            if let Some(own) = table.first_mut() {
                *own = r as u32;
            }
        }
        held
    }

    /// Returns the tables [`take_tables`](Self::take_tables) moved out,
    /// so the next execution reuses them.
    pub(crate) fn put_tables(&mut self, held: Vec<Vec<u32>>) {
        self.held = held;
    }

    /// Takes `n` receive buffers (reusing adopted capacity when
    /// available) for the executor to fill and hand to the caller.
    pub(crate) fn take_rbufs(&mut self, n: usize) -> Vec<Vec<u8>> {
        let mut rb = std::mem::take(&mut self.spare_rbufs);
        rb.resize_with(n, Vec::new);
        rb
    }

    /// Hands receive buffers back for capacity reuse — a persistent
    /// collective calls this with the previous execution's output before
    /// re-running, making steady-state executions allocation-free.
    pub fn adopt_rbufs(&mut self, rbufs: Vec<Vec<u8>>) {
        self.spare_rbufs = rbufs;
    }

    /// Notes an rbuf growth (called by executors while assembling output
    /// into reused buffers).
    pub(crate) fn note_realloc(&mut self, grew: bool) {
        self.reallocations += u64::from(grew);
    }
}

/// Borrows two distinct per-rank entries mutably.
///
/// # Panics
/// Panics if `a == b`.
pub(crate) fn two_bufs<T>(bufs: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    assert_ne!(a, b, "a rank cannot message itself");
    if a < b {
        let (lo, hi) = bufs.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = bufs.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::exec::virtual_exec::{reference_allgather, test_payloads};
    use crate::exec::{ExecOptions, Executor, Sim, Threaded, Virtual};
    use crate::lower::lower;
    use crate::naive::plan_naive;
    use crate::plan::{Algorithm, PlanPhase, PlannedMsg};
    use nhood_cluster::ClusterLayout;
    use nhood_topology::random::erdos_renyi;

    thread_local! {
        /// [`ArenaLayout::for_plan`] calls made by the current test thread.
        pub(super) static FOR_PLAN_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn for_plan_calls() -> u64 {
        FOR_PLAN_CALLS.with(std::cell::Cell::get)
    }

    #[test]
    fn compress_runs_merges_consecutive() {
        assert_eq!(
            compress_runs([0, 1, 2, 4, 5, 9].map(Ok)).unwrap(),
            vec![(0, 3), (4, 2), (9, 1)]
        );
        assert!(compress_runs([]).unwrap().is_empty());
    }

    #[test]
    fn dh_halving_sends_are_single_spans() {
        // The tentpole property: arena order == main_buf order, so every
        // halving-phase whole-buffer send is one contiguous span.
        let g = erdos_renyi(32, 0.4, 7);
        let layout = ClusterLayout::new(4, 2, 4);
        let plan = lower(&build_pattern(&g, &layout).unwrap(), &g);
        let al = ArenaLayout::for_plan(&plan, &g).unwrap();
        let halving_phases = plan.phase_count() - 2;
        for (r, rl) in al.ranks.iter().enumerate() {
            for (k, ph) in rl.phases.iter().enumerate().take(halving_phases) {
                for s in &ph.sends {
                    assert_eq!(s.runs.len(), 1, "rank {r} phase {k} halving send fragmented");
                    assert_eq!(s.runs[0].0, 0, "halving send must start at the arena prefix");
                }
                for rv in &ph.recvs {
                    assert_eq!(rv.runs.len(), 1, "rank {r} phase {k} halving recv fragmented");
                }
            }
        }
        assert!(al.contiguous_send_fraction() > 0.5);
    }

    #[test]
    fn naive_layout_holds_own_plus_in_neighbors() {
        let g = erdos_renyi(16, 0.5, 3);
        let plan = Arc::new(plan_naive(&g));
        let al = ArenaLayout::for_plan(&plan, &g).unwrap();
        for (r, rl) in al.ranks.iter().enumerate() {
            assert_eq!(rl.slots.len(), 1 + g.indegree(r), "rank {r}");
            assert_eq!(rl.slots[0], r);
            let delivered: u32 = rl.out_runs.iter().map(|&(_, l)| l).sum();
            assert_eq!(delivered as usize, g.indegree(r));
        }
    }

    #[test]
    fn corrupt_plan_fails_at_layout_time() {
        let g = Topology::from_edges(3, [(0, 2)]);
        let mut plan = plan_naive(&g);
        plan.per_rank[1][0].sends.push(crate::plan::PlannedMsg {
            peer: 2,
            blocks: vec![0],
            tag: 5,
        });
        assert_eq!(
            ArenaLayout::for_plan(&plan, &g).unwrap_err(),
            ExecError::MissingBlock { rank: 1, block: 0, phase: 0 }
        );
        let g2 = Topology::from_edges(2, [(0, 1)]);
        let mut plan2 = plan_naive(&g2);
        plan2.per_rank[0][0].sends.clear();
        plan2.per_rank[1][0].recvs.clear();
        assert_eq!(
            ArenaLayout::for_plan(&plan2, &g2).unwrap_err(),
            ExecError::Undelivered { rank: 1, block: 0 }
        );
    }

    #[test]
    fn arena_caches_layout_by_fingerprint() {
        let g = erdos_renyi(12, 0.4, 1);
        let plan = Arc::new(plan_naive(&g));
        let mut arena = BlockArena::new();
        let l1 = arena.prepare(&plan, &g).unwrap();
        let built = for_plan_calls();
        let l2 = arena.prepare(&plan, &g).unwrap();
        assert!(Arc::ptr_eq(&l1, &l2), "same plan must reuse the cached layout");
        // equal content in another allocation is the same layout too
        let twin = Arc::new(plan_naive(&g));
        let l3 = arena.prepare(&twin, &g.clone()).unwrap();
        assert!(Arc::ptr_eq(&l1, &l3), "equal content must reuse the cached layout");
        assert_eq!(for_plan_calls(), built, "warm and equal-content calls lay nothing out");
        // a different plan rebuilds
        let g2 = erdos_renyi(12, 0.6, 2);
        let l4 = arena.prepare(&Arc::new(plan_naive(&g2)), &g2).unwrap();
        assert!(!Arc::ptr_eq(&l1, &l4));
        assert_eq!(for_plan_calls(), built + 1);
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
        let mut arena = BlockArena::new();
        let first = Arc::new(nth(0));
        arena.prepare(&first, &g).unwrap();
        let mut freed = Arc::as_ptr(&first);
        drop(first);
        for i in 1..=1000 {
            let plan = Arc::new(nth(i));
            let reused = Arc::as_ptr(&plan) == freed;
            let got = arena.prepare(&plan, &g).unwrap();
            assert_layout_eq(&got, &ArenaLayout::for_plan(&plan, &g).unwrap());
            assert!(!reused, "the arena held the plan at {freed:?}, yet try {i} got its address");
            freed = Arc::as_ptr(&plan);
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
            ExecError::Undelivered { rank: v, block: spare }
        );
    }

    /// Structural equality for layouts (the op types don't derive
    /// `PartialEq`).
    fn assert_layout_eq(a: &ArenaLayout, b: &ArenaLayout) {
        assert_eq!(a.phase_count, b.phase_count);
        assert_eq!(a.n(), b.n());
        for (r, (x, y)) in a.ranks.iter().zip(&b.ranks).enumerate() {
            assert_eq!(x.slots, y.slots, "rank {r} slots");
            assert_eq!(x.out_runs, y.out_runs, "rank {r} out_runs");
            assert_eq!(x.phases.len(), y.phases.len(), "rank {r} phases");
            for (k, (px, py)) in x.phases.iter().zip(&y.phases).enumerate() {
                let sx: Vec<_> = px.sends.iter().map(|s| (s.peer, s.tag, &s.runs, s.dst)).collect();
                let sy: Vec<_> = py.sends.iter().map(|s| (s.peer, s.tag, &s.runs, s.dst)).collect();
                assert_eq!(sx, sy, "rank {r} phase {k} sends");
                let rx: Vec<_> = px.recvs.iter().map(|s| (s.peer, s.tag, &s.runs)).collect();
                let ry: Vec<_> = py.recvs.iter().map(|s| (s.peer, s.tag, &s.runs)).collect();
                assert_eq!(rx, ry, "rank {r} phase {k} recvs");
            }
            assert_eq!(x.recv_at, y.recv_at, "rank {r} recv_at");
        }
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

        let patched = arena.repair(&repaired, &g2, &rep.changed_ranks).unwrap();
        assert!(!Arc::ptr_eq(&before, &patched), "churn must produce a new layout");
        assert_layout_eq(&patched, &ArenaLayout::for_plan(&repaired, &g2).unwrap());

        // same (plan, graph) again: the patched layout is now cached
        let again = arena.repair(&repaired, &g2, &[]).unwrap();
        assert!(Arc::ptr_eq(&patched, &again));
        // and prepare() agrees it is current
        let prep = arena.prepare(&repaired, &g2).unwrap();
        assert!(Arc::ptr_eq(&patched, &prep));
    }

    #[test]
    fn repair_without_cached_layout_falls_back_to_full_build() {
        let g = erdos_renyi(12, 0.4, 4);
        let plan = Arc::new(plan_naive(&g));
        let mut arena = BlockArena::new();
        let l = arena.repair(&plan, &g, &[0, 1]).unwrap();
        assert_layout_eq(&l, &ArenaLayout::for_plan(&plan, &g).unwrap());
    }

    /// Splits every run list into unit runs — the worst-case fragmented
    /// layout a buggy or external producer could hand us.
    fn fragment_layout(layout: &mut ArenaLayout) {
        fn shatter(runs: &mut Vec<SlotRun>) {
            *runs = runs.iter().flat_map(|&(s, l)| (0..l).map(move |i| (s + i, 1))).collect();
        }
        for rl in &mut layout.ranks {
            for ph in &mut rl.phases {
                for s in &mut ph.sends {
                    shatter(&mut s.runs);
                }
                for rv in &mut ph.recvs {
                    shatter(&mut rv.runs);
                }
            }
            shatter(&mut rl.out_runs);
        }
    }

    /// A [`BlockArena`] warm for (plan, graph) but serving `layout`, so
    /// executors use it instead of rebuilding.
    fn arena_with_layout(
        plan: &Arc<CollectivePlan>,
        graph: &Topology,
        layout: ArenaLayout,
    ) -> BlockArena {
        let mut arena = BlockArena::new();
        arena.prepare(plan, graph).unwrap();
        arena.warm.as_mut().unwrap().layout = Arc::new(layout);
        arena
    }

    #[test]
    fn fragmented_and_coalesced_layouts_move_identical_bytes() {
        // Property: run-list shape is an optimization detail — the bytes
        // every backend delivers are invariant under fragmentation.
        let g = erdos_renyi(24, 0.4, 21);
        let cl = ClusterLayout::new(3, 2, 4);
        let plan = Arc::new(lower(&build_pattern(&g, &cl).unwrap(), &g));
        let mut frag = ArenaLayout::for_plan(&plan, &g).unwrap();
        fragment_layout(&mut frag);

        // uniform payloads, plus ragged ones with zero-size blocks
        let uniform = test_payloads(24, 8, 3);
        let ragged: Vec<Vec<u8>> = (0..24).map(|r| vec![r as u8; r % 4]).collect();
        for (payloads, opts) in
            [(&uniform, ExecOptions::new()), (&ragged, ExecOptions::new().ragged(true))]
        {
            let want = reference_allgather(&g, payloads);
            let mut va = arena_with_layout(&plan, &g, frag.clone());
            let got = Virtual.run(&plan, &g, payloads, &mut va, &opts).unwrap().rbufs;
            assert_eq!(got, want, "virtual backend over fragmented layout");
            let mut ta = arena_with_layout(&plan, &g, frag.clone());
            let got = Threaded.run(&plan, &g, payloads, &mut ta, &opts).unwrap().rbufs;
            assert_eq!(got, want, "threaded backend over fragmented layout");
        }
        // the sim backend moves no bytes, so a fragmented layout cannot
        // perturb it — it must still run clean and return no rbufs
        let mut sa = arena_with_layout(&plan, &g, frag);
        let out = Sim::new(cl).run(&plan, &g, &uniform, &mut sa, &ExecOptions::new()).unwrap();
        assert!(out.rbufs.is_empty());
        assert!(out.sim.is_some());
    }

    /// One message of a [`hand_plan`]: `(phase, src, dst, sent, posted)` —
    /// the sender lists `sent`, the receiver posts `posted`, two lists a
    /// correct plan keeps equal and these tests pull apart.
    pub(crate) type HandMsg<'a> = (usize, Rank, Rank, &'a [Rank], &'a [Rank]);

    /// A hand-built plan over `n` ranks and `phases` phases; message `i`
    /// travels under tag `i`.
    pub(crate) fn hand_plan(n: usize, phases: usize, msgs: &[HandMsg]) -> Arc<CollectivePlan> {
        let mut per_rank = vec![vec![PlanPhase::default(); phases]; n];
        for (tag, &(k, src, dst, sent, posted)) in msgs.iter().enumerate() {
            let tag = tag as u64;
            per_rank[src][k].sends.push(PlannedMsg { peer: dst, blocks: sent.to_vec(), tag });
            per_rank[dst][k].recvs.push(PlannedMsg { peer: src, blocks: posted.to_vec(), tag });
        }
        Arc::new(CollectivePlan { algorithm: Algorithm::Naive, per_rank, selection: None })
    }

    /// The relay every disagreement test runs on: 1 → 0 in phase 0, then
    /// 0 → 2 carries `sent` where rank 2 posted `posted`.
    fn relay(sent: &[Rank], posted: &[Rank]) -> (Topology, Arc<CollectivePlan>) {
        let g = Topology::from_edges(3, [(1, 0), (0, 2), (1, 2)]);
        (g, hand_plan(3, 2, &[(0, 1, 0, &[1], &[1]), (1, 0, 2, sent, posted)]))
    }

    const BACKENDS: [&dyn Executor; 2] = [&Virtual, &Threaded];

    #[test]
    fn executors_forward_what_was_sent_not_what_the_layout_labelled() {
        // The sender lists [0, 1], the receiver expects [1, 0]: rank 2's
        // slots are *labelled* [2, 1, 0] but hold what arrived, so its
        // buffer reads block 1 where the definition says block 0. These
        // are the bytes the byte-staging arena delivered (captured at
        // PR 16) — a layout-label shortcut would return the reference
        // instead and hide the disagreement from the oracle.
        let (g, plan) = relay(&[0, 1], &[1, 0]);
        let payloads = test_payloads(3, 4, 11);
        let parent: [&[u8]; 3] =
            [&[153, 152, 155, 154], &[], &[153, 152, 155, 154, 11, 12, 13, 14]];
        for exec in BACKENDS {
            let got = exec.run_simple(&plan, &g, &payloads).unwrap();
            assert_eq!(got, parent, "{}", exec.name());
            assert_ne!(got, reference_allgather(&g, &payloads), "{}", exec.name());
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
            arena.held.iter().map(|t| (t.as_ptr(), t.capacity())).collect::<Vec<_>>()
        };
        let first = run(&mut arena, &dh, &test_payloads(24, 16, 1), false);
        // one 4-byte descriptor per slot is all the arena keeps per block
        assert_eq!(arena.held.iter().map(Vec::len).sum::<usize>(), slot_count(&arena));
        // permuted ragged tables, zero-length blocks included
        for shift in 1..=3usize {
            let ragged: Vec<Vec<u8>> =
                (0..24).map(|r| vec![(r + shift) as u8; (r * 5 + shift * 7) % 6]).collect();
            assert!(ragged.iter().any(Vec::is_empty));
            assert_eq!(run(&mut arena, &dh, &ragged, true), first, "ragged table {shift}");
        }
        // a plan that needs fewer slots keeps the larger tables
        let naive = Arc::new(plan_naive(&g));
        let dh_slots = slot_count(&arena);
        assert_eq!(run(&mut arena, &naive, &test_payloads(24, 8, 2), false), first);
        assert!(slot_count(&arena) < dh_slots, "naive holds only own + in-neighbors");
        assert_eq!(run(&mut arena, &dh, &test_payloads(24, 4, 3), false), first);
    }

    /// Slots the arena's current layout assigns, over all ranks.
    fn slot_count(arena: &BlockArena) -> usize {
        arena.warm.as_ref().unwrap().layout.ranks.iter().map(|rl| rl.slots.len()).sum()
    }

    #[test]
    fn an_empty_slot_is_a_typed_error_and_the_arena_stays_usable() {
        let payloads = test_payloads(4, 4, 5);
        let opts = ExecOptions::new().recv_timeout(std::time::Duration::from_millis(50));
        // Rank 0 relays one block where rank 2 posted two: the slot of
        // in-neighbor 1 is never filled.
        let (g3, short) = relay(&[0], &[0, 1]);
        // The same hole, read by a send: rank 2 forwards block 1 to 3.
        let g4 = Topology::from_edges(4, [(1, 0), (0, 2), (1, 3)]);
        let sourced = hand_plan(
            4,
            3,
            &[(0, 1, 0, &[1], &[1]), (1, 0, 2, &[0], &[0, 1]), (2, 2, 3, &[1], &[1])],
        );
        let (_, good) = relay(&[0, 1], &[0, 1]);
        for exec in BACKENDS {
            let mut arena = BlockArena::new();
            let mut run = |plan, g: &Topology| {
                exec.run(plan, g, &payloads[..g.n()], &mut arena, &opts).map(|out| out.rbufs)
            };
            // the good run first, so a table that was not reset would
            // still hold its descriptors
            let want = reference_allgather(&g3, &payloads[..3]);
            assert_eq!(run(&good, &g3).unwrap(), want, "{}", exec.name());
            assert_eq!(
                run(&short, &g3).unwrap_err(),
                ExecError::Undelivered { rank: 2, block: 1 },
                "{}",
                exec.name()
            );
            assert_eq!(
                run(&sourced, &g4).unwrap_err(),
                ExecError::MissingBlock { rank: 2, block: 1, phase: 2 },
                "{}",
                exec.name()
            );
            assert_eq!(run(&good, &g3).unwrap(), want, "{} after the errors", exec.name());
        }
    }

    #[test]
    fn duplicate_delivery_overwrites_are_idempotent() {
        // block 0 reaches rank 2 twice: directly, then relayed by rank 1
        // into the slot it already holds
        let g = Topology::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        let plan = hand_plan(
            3,
            2,
            &[(0, 0, 1, &[0], &[0]), (0, 0, 2, &[0], &[0]), (1, 1, 2, &[1, 0], &[1, 0])],
        );
        let mut frag = ArenaLayout::for_plan(&plan, &g).unwrap();
        assert_eq!(frag.ranks[2].slots, [2, 0, 1], "the re-delivery reuses slot 1");
        fragment_layout(&mut frag);
        let ragged: Vec<Vec<u8>> = vec![vec![7; 3], vec![], vec![9; 5]];
        for (payloads, opts) in [
            (&test_payloads(3, 8, 4), ExecOptions::new()),
            (&ragged, ExecOptions::new().ragged(true)),
        ] {
            let want = reference_allgather(&g, payloads);
            for exec in BACKENDS {
                let mut cold = BlockArena::new();
                let got = exec.run(&plan, &g, payloads, &mut cold, &opts).unwrap().rbufs;
                assert_eq!(got, want, "{}", exec.name());
                let mut shattered = arena_with_layout(&plan, &g, frag.clone());
                let got = exec.run(&plan, &g, payloads, &mut shattered, &opts).unwrap().rbufs;
                assert_eq!(got, want, "{} over the fragmented layout", exec.name());
            }
        }
    }

    #[test]
    fn two_bufs_borrows_disjoint() {
        let mut v = vec![vec![1u8], vec![2u8], vec![3u8]];
        let (a, b) = two_bufs(&mut v, 2, 0);
        a[0] = 9;
        b[0] = 8;
        assert_eq!(v, vec![vec![8], vec![2], vec![9]]);
    }
}
