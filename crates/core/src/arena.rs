//! Zero-copy block arenas: flat per-rank buffers with a precomputed
//! offset table.
//!
//! Modelling every payload block as an owned `Vec<u8>` in a per-rank map
//! makes each phase pay per-block allocation, hashing and
//! pointer-chasing costs that the paper's Hockney model (§V) never
//! charges. The arena moves all of that work to **plan time**:
//!
//! * [`ArenaLayout::for_plan`] walks the plan once and assigns every
//!   block a rank ever holds a fixed **slot** in that rank's flat arena
//!   (slot 0 is the rank's own block; arriving blocks are appended in
//!   arrival order). Because the Distance Halving builder also appends
//!   arrivals to `main_buf` (Algorithm 4 line 15), a halving-phase send
//!   of the whole buffer resolves to **one contiguous arena span** — the
//!   growing-message combine the paper's bandwidth term models.
//! * Every planned message is pre-resolved to source and destination
//!   **slot runs** — each [`SendOp`] also names the peer's matching
//!   [`RecvOp`] — so at execution time a send is a handful of
//!   `copy_from_slice` calls (usually one) and a receive lands bytes at
//!   precomputed offsets — no hash lookups, no per-block `Vec`s.
//! * The receive buffer of each rank is pre-resolved to arena runs too,
//!   so final assembly is a few large copies in `in_neighbors` order.
//!
//! [`BlockArena`] owns the reusable storage: the cached layout and the
//! per-rank buffers, so a caller executing the same plan repeatedly never
//! reallocates — see [`BlockArena::reallocations`].
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
use crate::sizes::BlockSizes;
use nhood_topology::{Rank, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// A run of consecutive arena slots: `(first_slot, slot_count)`.
///
/// Slot runs are resolved to byte extents per execution via
/// [`SlotExtents`] — uniform block size `m` gives `offset = slot * m`,
/// ragged sizes use a per-rank prefix-sum table — so one layout serves
/// every message size *and* shape.
pub type SlotRun = (u32, u32);

/// Resolves one rank's slot indices to byte offsets in its arena buffer.
///
/// The layout stays size-agnostic (slots, not bytes); this is the
/// per-execution lens that turns a [`SlotRun`] into a byte span. The
/// uniform variant is a multiplication; the ragged variant is one
/// prefix-sum table lookup — both O(1), keeping `land_segs` and
/// `copy_runs` zero-copy.
#[derive(Clone, Debug)]
pub enum SlotExtents {
    /// Every block is `m` bytes: `offset(slot) = slot * m`.
    Uniform(usize),
    /// Prefix sums over the rank's slot sizes (`table.len() = slots + 1`,
    /// `table[0] = 0`): `offset(slot) = table[slot]`.
    Table(Arc<Vec<usize>>),
}

impl SlotExtents {
    /// Byte offset of `slot` in the rank's arena buffer. `slot` may be
    /// one past the last slot, yielding the buffer's total byte length.
    #[inline]
    pub fn offset(&self, slot: usize) -> usize {
        match self {
            SlotExtents::Uniform(m) => slot * m,
            SlotExtents::Table(t) => t[slot],
        }
    }

    /// Total bytes covered by a slot run.
    #[inline]
    pub fn run_bytes(&self, (s, l): SlotRun) -> usize {
        self.offset((s + l) as usize) - self.offset(s as usize)
    }
}

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
    /// Where every expected incoming message's [`RecvOp`] sits, keyed by
    /// `(src, tag)` → `(phase, index)`: the link-time index behind
    /// [`SendOp::dst`] (no executor hashes at run time).
    pub recv_at: HashMap<(Rank, u64), (u32, u32)>,
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

/// Compresses a sequence of slot indices into maximal consecutive runs.
fn compress_runs(slots: impl IntoIterator<Item = u32>) -> Vec<SlotRun> {
    let mut runs: Vec<SlotRun> = Vec::new();
    for s in slots {
        match runs.last_mut() {
            Some((start, len)) if *start + *len == s => *len += 1,
            _ => runs.push((s, 1)),
        }
    }
    runs
}

/// Builds one rank's complete layout row. A rank's slot assignment is a
/// pure function of its own program (sends resolve against its own slot
/// table, receives only grow it), so rows are independently computable —
/// which is what lets [`ArenaLayout::repair`] rebuild only the ranks a
/// plan mutation touched.
fn rank_layout(plan: &CollectivePlan, graph: &Topology, r: Rank) -> Result<RankLayout, ExecError> {
    let phase_count = plan.phase_count();
    let mut slot_of: HashMap<Rank, u32> = HashMap::from([(r, 0u32)]);
    let mut rl = RankLayout {
        slots: vec![r],
        phases: Vec::with_capacity(phase_count),
        recv_at: HashMap::new(),
        out_runs: Vec::new(),
    };

    for (k, phase) in plan.per_rank[r].iter().enumerate() {
        // Sends first, against the pre-phase slot table, so a block
        // arriving in phase k cannot be sourced in phase k.
        let mut ops = Vec::with_capacity(phase.sends.len());
        for msg in &phase.sends {
            let mut src_slots = Vec::with_capacity(msg.blocks.len());
            for &b in &msg.blocks {
                let &s = slot_of.get(&b).ok_or(ExecError::MissingBlock {
                    rank: r,
                    block: b,
                    phase: k,
                })?;
                src_slots.push(s);
            }
            ops.push(SendOp {
                peer: msg.peer,
                tag: msg.tag,
                runs: compress_runs(src_slots),
                dst: None,
            });
        }
        // Then receives: first arrival appends a slot at the arena tail
        // (re-deliveries reuse the existing slot — the bytes are
        // identical, so overwriting is idempotent).
        let mut recv_ops = Vec::with_capacity(phase.recvs.len());
        for msg in &phase.recvs {
            let mut dst_slots = Vec::with_capacity(msg.blocks.len());
            for &b in &msg.blocks {
                let next = rl.slots.len() as u32;
                let s = *slot_of.entry(b).or_insert(next);
                if s == next {
                    rl.slots.push(b);
                }
                dst_slots.push(s);
            }
            rl.recv_at.insert((msg.peer, msg.tag), (k as u32, recv_ops.len() as u32));
            recv_ops.push(RecvOp { peer: msg.peer, tag: msg.tag, runs: compress_runs(dst_slots) });
        }
        rl.phases.push(PhaseOps { sends: ops, recvs: recv_ops });
    }

    // Receive-buffer assembly runs, in in-neighbor order.
    let ins = graph.in_neighbors(r);
    let mut out_slots = Vec::with_capacity(ins.len());
    for &b in ins {
        let &s = slot_of.get(&b).ok_or(ExecError::Undelivered { rank: r, block: b })?;
        out_slots.push(s);
    }
    rl.out_runs = compress_runs(out_slots);
    rl.slots.shrink_to_fit();
    Ok(rl)
}

/// Points every send at its receiver's [`RecvOp`] — the one place a
/// `(src, tag)` key is hashed, so no executor does it per message.
fn link_sends(ranks: &mut [RankLayout]) {
    let index: Vec<_> = ranks.iter_mut().map(|rl| std::mem::take(&mut rl.recv_at)).collect();
    for (r, rl) in ranks.iter_mut().enumerate() {
        for s in rl.phases.iter_mut().flat_map(|ph| &mut ph.sends) {
            s.dst = index.get(s.peer).and_then(|at| at.get(&(r, s.tag))).copied();
        }
    }
    for (rl, at) in ranks.iter_mut().zip(index) {
        rl.recv_at = at;
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
        let mut ranks =
            (0..plan.n()).map(|r| rank_layout(plan, graph, r)).collect::<Result<Vec<_>, _>>()?;
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
        for &r in changed_ranks {
            out.ranks[r] = rank_layout(plan, graph, r)?;
        }
        link_sends(&mut out.ranks);
        Ok(out)
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.ranks.len()
    }

    /// Fraction of send operations that resolved to a **single**
    /// contiguous arena span — the zero-copy hit rate. Distance Halving
    /// halving-phase sends are 100% contiguous by construction (the
    /// arena is laid out in `main_buf` order).
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

    /// Per-rank byte extents for one execution's size table.
    ///
    /// Uniform sizes cost nothing (one shared multiplier per rank);
    /// ragged sizes build one prefix-sum table per rank over that rank's
    /// slot order, so every later offset query is a single lookup.
    pub fn extents(&self, sizes: &BlockSizes) -> Vec<SlotExtents> {
        match sizes {
            BlockSizes::Uniform(m) => vec![SlotExtents::Uniform(*m); self.n()],
            BlockSizes::PerRank(_) => self
                .ranks
                .iter()
                .map(|rl| {
                    let mut pre = Vec::with_capacity(rl.slots.len() + 1);
                    let mut acc = 0usize;
                    pre.push(0);
                    for &b in &rl.slots {
                        acc += sizes.size(b);
                        pre.push(acc);
                    }
                    SlotExtents::Table(Arc::new(pre))
                })
                .collect(),
        }
    }
}

/// Reusable zero-copy execution workspace: one contiguous buffer per
/// rank plus the cached [`ArenaLayout`] that indexes it.
///
/// Pass the same arena to repeated [`crate::exec::Executor::run`] calls
/// to amortize both the layout computation and the buffer allocations;
/// [`reallocations`](Self::reallocations) counts how many times any
/// buffer actually had to grow, so tests (and the Fig. 8-style
/// persistent-collective argument) can assert steady-state runs are
/// allocation-free.
#[derive(Debug, Default)]
pub struct BlockArena {
    warm: Option<Warm>,
    bufs: Vec<Vec<u8>>,
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

    /// How many buffer growths (arena or receive buffers) all executions
    /// through this arena have paid so far. Stable across repeated runs
    /// of the same plan at the same message size.
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

    /// Sizes the per-rank arena buffers for this execution's byte
    /// extents, copies each rank's own payload into slot 0 and moves the
    /// buffers out for the run (hand them back through
    /// [`restore_bufs`](Self::restore_bufs)). Reuses capacity; growth
    /// bumps the reallocation counter.
    pub(crate) fn fill(
        &mut self,
        layout: &ArenaLayout,
        payloads: &[Vec<u8>],
        exts: &[SlotExtents],
    ) -> Vec<Vec<u8>> {
        let mut bufs = std::mem::take(&mut self.bufs);
        bufs.resize_with(layout.n(), Vec::new);
        for (r, buf) in bufs.iter_mut().enumerate() {
            let want = exts[r].offset(layout.ranks[r].slots.len());
            self.reallocations += u64::from(want > buf.capacity());
            buf.resize(want, 0);
            buf[..payloads[r].len()].copy_from_slice(&payloads[r]);
        }
        bufs
    }

    /// Returns the buffers [`fill`](Self::fill) moved out, so the next
    /// execution reuses their capacity.
    pub(crate) fn restore_bufs(&mut self, bufs: Vec<Vec<u8>>) {
        self.bufs = bufs;
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

/// Borrows two distinct per-rank buffers mutably.
///
/// # Panics
/// Panics if `a == b`.
pub(crate) fn two_bufs(bufs: &mut [Vec<u8>], a: usize, b: usize) -> (&mut Vec<u8>, &mut Vec<u8>) {
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
mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::lower::lower;
    use crate::naive::plan_naive;
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
        assert_eq!(compress_runs([0, 1, 2, 4, 5, 9]), vec![(0, 3), (4, 2), (9, 1)]);
        assert!(compress_runs([]).is_empty());
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

    #[test]
    fn fill_reuses_capacity() {
        let g = erdos_renyi(10, 0.5, 9);
        let plan = Arc::new(plan_naive(&g));
        let mut arena = BlockArena::new();
        let layout = arena.prepare(&plan, &g).unwrap();
        let payloads: Vec<Vec<u8>> = (0..10).map(|r| vec![r as u8; 64]).collect();
        let exts = layout.extents(&BlockSizes::Uniform(64));
        let bufs = arena.fill(&layout, &payloads, &exts);
        arena.restore_bufs(bufs);
        let after_first = arena.reallocations();
        assert!(after_first > 0);
        for _ in 0..10 {
            let bufs = arena.fill(&layout, &payloads, &exts);
            arena.restore_bufs(bufs);
        }
        assert_eq!(arena.reallocations(), after_first, "refills must not grow buffers");
        // smaller m also fits in place
        let small: Vec<Vec<u8>> = (0..10).map(|r| vec![r as u8; 8]).collect();
        let bufs = arena.fill(&layout, &small, &layout.extents(&BlockSizes::Uniform(8)));
        arena.restore_bufs(bufs);
        assert_eq!(arena.reallocations(), after_first);
    }

    #[test]
    fn ragged_extents_prefix_sums_follow_slot_order() {
        let g = erdos_renyi(10, 0.5, 9);
        let plan = Arc::new(plan_naive(&g));
        let al = ArenaLayout::for_plan(&plan, &g).unwrap();
        let sizes = BlockSizes::per_rank((0..10).map(|r| r * 3 % 7).collect());
        let exts = al.extents(&sizes);
        for (r, rl) in al.ranks.iter().enumerate() {
            let ext = &exts[r];
            assert_eq!(ext.offset(0), 0);
            let mut acc = 0;
            for (i, &b) in rl.slots.iter().enumerate() {
                assert_eq!(ext.offset(i), acc, "rank {r} slot {i}");
                assert_eq!(ext.run_bytes((i as u32, 1)), sizes.size(b));
                acc += sizes.size(b);
            }
            assert_eq!(ext.offset(rl.slots.len()), acc);
        }
        // uniform tables collapse to the multiplier
        let uni = al.extents(&BlockSizes::Uniform(16));
        assert!(matches!(uni[0], SlotExtents::Uniform(16)));
        assert_eq!(uni[0].run_bytes((2, 3)), 48);
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
        use crate::exec::virtual_exec::{reference_allgather, test_payloads};
        use crate::exec::{ExecOptions, Executor, Sim, Threaded, Virtual};
        let g = erdos_renyi(24, 0.4, 21);
        let cl = ClusterLayout::new(3, 2, 4);
        let plan = Arc::new(lower(&build_pattern(&g, &cl).unwrap(), &g));
        let mut frag = ArenaLayout::for_plan(&plan, &g).unwrap();
        fragment_layout(&mut frag);

        // uniform payloads, plus ragged ones with zero-size blocks so the
        // byte-adjacent chunk merging in `copy_runs` is exercised
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

    #[test]
    fn two_bufs_borrows_disjoint() {
        let mut v = vec![vec![1u8], vec![2u8], vec![3u8]];
        let (a, b) = two_bufs(&mut v, 2, 0);
        a[0] = 9;
        b[0] = 8;
        assert_eq!(v, vec![vec![8], vec![2], vec![9]]);
    }
}
