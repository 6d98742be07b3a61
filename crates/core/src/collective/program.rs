//! The compiled combine program: what the combining family executes.
//!
//! [`compile`] derives the item routing a gather plan implies
//! ([`crate::alltoall::route_items`]) and walks it once per *op shape*
//! ([`Shape`]) symbolically — no bytes, no size table — fixing everything
//! a request would otherwise rediscover: where every held item or partial
//! lives (a cell of the caller's send buffer, a slot of the rank's
//! arena, or a cell of the receive buffer), which wire blocks each
//! message carries, and the exact `copy` / `combine` steps each arrival
//! performs, in the `(peer, tag)` integration order that makes f32
//! results bit-identical across backends. A routing that forwards an
//! item its sender does not hold, or never delivers one, fails *here*
//! with [`ExecError::MissingBlock`] / [`ExecError::Undelivered`] — before
//! any byte moves.
//!
//! A request then resolves cell offsets against its size table
//! ([`CombineScratch`]: O(cells), no allocation once warm) and does
//! nothing but `copy_from_slice` / [`Reduction::combine`]. The first hop
//! reads straight from the send buffer, the last hop writes straight
//! into the receive buffer; only contributions parked at a forwarding
//! agent occupy arena slots, and those bytes live for the one request.
//!
//! ## Coalescing is structural
//!
//! Two allreduce partials leaving a rank in one message share a wire
//! block when they are *the same value by construction*: the same sorted
//! source set for the exact lanes (u8/u32 — any fold order gives the
//! same bits), the same fold tree for f32. reduce_scatter contributions
//! are distinct per destination and routed items are distinct per edge;
//! neither ever merges. Wire bytes are therefore a pure function of
//! (plan, shape, size table) — never of payload contents.

use super::{CollectiveOp, DType, Reduction};
use crate::alltoall::route_items;
use crate::arena::two_bufs;
use crate::comm::CommError;
use crate::exec::ExecError;
use crate::plan::{Algorithm, CollectivePlan};
use crate::sizes::BlockSizes;
use nhood_simnet::{Msg, Phase, Schedule};
use nhood_telemetry::Recorder;
use nhood_topology::{Rank, Topology};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::mpsc;
use std::time::Duration;

/// What a program is compiled for. Three shapes cover the combining
/// family; a gather op has none.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shape {
    /// alltoallv: items move, nothing combines; blocks are sized by
    /// their *source*.
    Route,
    /// Sparse reduce_scatter: one partial per destination, sized by the
    /// *destination*.
    ReduceScatter,
    /// Sparse allreduce (uniform size). `exact` lanes coalesce by source
    /// set, inexact (f32) lanes by fold tree.
    Allreduce {
        /// `true` for the integer lanes.
        exact: bool,
    },
}

/// A combining-family op: its [`Shape`] plus the operator reduce shapes
/// apply. Cannot hold a gather op.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CombineOp {
    pub shape: Shape,
    red: Option<Reduction>,
}

impl TryFrom<CollectiveOp> for CombineOp {
    type Error = CommError;

    fn try_from(op: CollectiveOp) -> Result<Self, CommError> {
        let exact = |red: Reduction| red.dtype != DType::F32;
        match op {
            CollectiveOp::Alltoallv => Ok(Self { shape: Shape::Route, red: None }),
            CollectiveOp::ReduceScatter(red) => {
                Ok(Self { shape: Shape::ReduceScatter, red: Some(red) })
            }
            CollectiveOp::Allreduce(red) => {
                Ok(Self { shape: Shape::Allreduce { exact: exact(red) }, red: Some(red) })
            }
            CollectiveOp::Allgather | CollectiveOp::Allgatherv => Err(not_combining(op)),
        }
    }
}

/// The typed refusal of a gather op on a combining-only entry point.
pub(crate) fn not_combining(op: CollectiveOp) -> CommError {
    CommError::UnsupportedCollective {
        op,
        algorithm: Algorithm::DistanceHalving,
        reason: "the allgather family runs the lowered CollectivePlan, not the combining path",
    }
}

/// Where a wire block's bytes live on the sender.
#[derive(Clone, Copy, Debug)]
enum Src {
    /// A cell of the sender's send buffer (first hop).
    Send(usize),
    /// A slot of the sender's arena.
    Slot(usize),
}

/// Where an arrival lands on the receiver.
#[derive(Clone, Copy, Debug)]
enum Dst {
    /// A slot of the receiver's arena (it forwards the value later).
    Slot(usize),
    /// A cell of the receiver's receive buffer (last hop).
    Recv(usize),
}

/// One thing a receiver does with an arrived wire block.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// First arrival: `dst = wire` (copied, *not* folded into the
    /// identity — `-0.0` must survive an f32 sum).
    Copy(Dst),
    /// `dst = dst ⊕ wire`.
    Combine(Dst),
    /// The receiver's own contribution still sits in its send buffer
    /// (cell `from`), which is read-only: `slot = send[from] ⊕ wire`.
    Fold { from: usize, slot: usize },
}

/// A wire block: `size(key)` bytes read at `src`, then applied by
/// `steps[..steps_end]` (from the previous block's end).
#[derive(Clone, Copy, Debug)]
struct Block {
    key: Rank,
    src: Src,
    /// (Route) the send cell, on rank `key`, the item started in. A
    /// routed item is never modified, so the sequential backend reads it
    /// there on the delivering hop instead of staging it hop by hop.
    origin: usize,
    steps_end: usize,
}

/// A message: `blocks[..blocks_end]` (from the previous message's end),
/// concatenated on the wire.
#[derive(Clone, Copy, Debug)]
struct ProgMsg {
    src: Rank,
    dst: Rank,
    tag: u64,
    blocks_end: usize,
}

/// The cells of one address space (send buffers, arena slots or receive
/// buffers): each belongs to a rank and is `size(key)` bytes long; a
/// rank's cells pack back to back in creation order.
#[derive(Clone, Debug, Default)]
struct Cells {
    rank: Vec<Rank>,
    key: Vec<Rank>,
}

impl Cells {
    fn push(&mut self, rank: Rank, key: Rank) -> usize {
        self.rank.push(rank);
        self.key.push(key);
        self.rank.len() - 1
    }

    /// Writes every cell's byte offset within its rank's buffer to
    /// `off` and leaves each rank's total in `ends`. Returns whether
    /// `off` had to grow.
    fn resolve(&self, sizes: &BlockSizes, off: &mut Vec<usize>, ends: &mut [usize]) -> bool {
        let grew = self.rank.len() > off.capacity();
        ends.fill(0);
        off.clear();
        off.extend(self.rank.iter().zip(&self.key).map(|(&r, &key)| {
            let at = ends[r];
            ends[r] += sizes.size(key);
            at
        }));
        grew
    }
}

/// `ends[i - 1]..ends[i]`, with an implicit leading 0.
fn span(ends: &[usize], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] };
    start..ends[i]
}

/// The union of `span(ends, k * n + r)` over all `n` ranks of phase `k`.
fn phase_span(ends: &[usize], k: usize, n: usize) -> Range<usize> {
    span(ends, k * n).start..ends[(k + 1) * n - 1]
}

/// A compiled combine program for one (plan, [`Shape`]). Size-table
/// independent: every length is `size(key)` of the request's table.
#[derive(Clone, Debug)]
pub(crate) struct CombineProgram {
    shape: Shape,
    n: usize,
    phases: usize,
    /// Messages in integration order: phase, receiver, `(sender, tag)`.
    msgs: Vec<ProgMsg>,
    /// `span(recv_ends, k * n + r)`: the messages rank `r` integrates in
    /// phase `k`.
    recv_ends: Vec<usize>,
    /// Message ids in send order: phase, sender, the plan's order.
    send_order: Vec<usize>,
    /// `span(send_ends, k * n + r)` into `send_order`.
    send_ends: Vec<usize>,
    blocks: Vec<Block>,
    steps: Vec<Step>,
    send: Cells,
    slots: Cells,
    recv: Cells,
}

// ---------------------------------------------------------------------
// Compile: one symbolic walk of the plan
// ---------------------------------------------------------------------

/// `holder` value of a contribution that left its rank this phase.
const IN_FLIGHT: usize = usize::MAX;
/// `holder` value of a contribution folded into its destination.
const DELIVERED: usize = usize::MAX - 1;

/// A partial held at a rank (reduce shapes): the contributions of
/// `count` sources to `dst`, folded in the order `tree` names.
#[derive(Clone, Copy, Debug)]
struct Held {
    dst: Rank,
    at: Src,
    count: usize,
    tree: usize,
}

/// A wire block between the two passes of a phase.
#[derive(Clone, Copy, Debug)]
struct PendBlock {
    key: Rank,
    src: Src,
    tree: usize,
    /// (reduce) `claimed[lo..hi]` of its message: the sources it folds.
    claim: (usize, usize),
}

/// A `(block, destination)` arrival between the two passes: `count`
/// contributions for `dst`; `edge` is the routed item (Route only).
#[derive(Clone, Copy, Debug)]
struct PendDst {
    block: usize,
    dst: Rank,
    count: usize,
    edge: usize,
}

/// A message between the two passes of a phase.
struct PendMsg {
    src: Rank,
    dst: Rank,
    tag: u64,
    blocks: Range<usize>,
    dsts: Range<usize>,
}

/// Fold-tree interning: two partials with the same id were built by the
/// same combines in the same order, so their f32 bits agree.
struct Trees {
    nodes: HashMap<(usize, usize), usize>,
    leaves: usize,
}

impl Trees {
    fn combine(&mut self, acc: usize, rhs: usize) -> usize {
        let next = self.leaves + self.nodes.len();
        *self.nodes.entry((acc, rhs)).or_insert(next)
    }
}

/// The symbolic walk: who holds what, phase by phase, and the program
/// emitted so far. All tables are dense — per edge or per rank.
struct Walk<'g> {
    graph: &'g Topology,
    /// First edge id of each rank's out-list / first receive cell of
    /// each rank's in-list (Route).
    out_base: Vec<usize>,
    in_base: Vec<usize>,
    /// Per edge: the rank holding its contribution, or a sentinel.
    holder: Vec<usize>,
    /// (Route) per edge: where on `holder` the item sits.
    item_at: Vec<Src>,
    /// (reduce) per rank: the partials held, sorted by destination.
    held: Vec<Vec<Held>>,
    /// (reduce) per rank: has the receive buffer taken its first value?
    acc_live: Vec<bool>,
    trees: Trees,
    // the phase in flight, between its passes
    pend: Vec<PendMsg>,
    pblocks: Vec<PendBlock>,
    pdsts: Vec<PendDst>,
    /// `(edge, holder after the phase)` of everything claimed in pass 1.
    moved: Vec<(usize, usize)>,
    /// One message's items as `(dst, src)`, sorted.
    claimed: Vec<(Rank, Rank)>,
    prog: CombineProgram,
}

impl<'g> Walk<'g> {
    /// Seeds the walk: every contribution starts in a cell of its
    /// source's send buffer.
    fn new(graph: &'g Topology, shape: Shape, phases: usize) -> Self {
        let n = graph.n();
        let base = |deg: &dyn Fn(Rank) -> usize| -> Vec<usize> {
            let mut next = 0;
            (0..n)
                .map(|r| {
                    let here = next;
                    next += deg(r);
                    here
                })
                .collect()
        };
        let reduce = shape != Shape::Route;
        let allreduce = matches!(shape, Shape::Allreduce { .. });
        let (mut send, mut recv) = (Cells::default(), Cells::default());
        let mut holder = Vec::with_capacity(graph.edge_count());
        let mut item_at = Vec::new();
        let mut held: Vec<Vec<Held>> = vec![Vec::new(); n];
        for (p, mine) in held.iter_mut().enumerate() {
            // allreduce: one cell, x_p, feeds every destination
            let own = if allreduce { send.push(p, p) } else { 0 };
            for &d in graph.out_neighbors(p) {
                holder.push(p);
                match shape {
                    Shape::Route => item_at.push(Src::Send(send.push(p, p))),
                    Shape::ReduceScatter => {
                        let at = Src::Send(send.push(p, d));
                        mine.push(Held { dst: d, at, count: 1, tree: 0 });
                    }
                    Shape::Allreduce { .. } => {
                        mine.push(Held { dst: d, at: Src::Send(own), count: 1, tree: p });
                    }
                }
            }
            if reduce {
                recv.push(p, p);
            } else {
                for &s in graph.in_neighbors(p) {
                    recv.push(p, s);
                }
            }
        }
        Walk {
            graph,
            out_base: base(&|r| graph.outdegree(r)),
            in_base: base(&|r| graph.indegree(r)),
            holder,
            item_at,
            held,
            // allreduce folds into x_t, already in place; reduce_scatter
            // copies its first arrival
            acc_live: vec![allreduce; n],
            trees: Trees { nodes: HashMap::new(), leaves: n },
            pend: Vec::new(),
            pblocks: Vec::new(),
            pdsts: Vec::new(),
            moved: Vec::new(),
            claimed: Vec::new(),
            prog: CombineProgram {
                shape,
                n,
                phases,
                msgs: Vec::new(),
                recv_ends: Vec::with_capacity(phases * n),
                send_order: Vec::new(),
                send_ends: Vec::with_capacity(phases * n),
                blocks: Vec::new(),
                steps: Vec::new(),
                send,
                slots: Cells::default(),
                recv,
            },
        }
    }

    fn edge(&self, s: Rank, d: Rank) -> Option<usize> {
        if s >= self.graph.n() {
            return None;
        }
        self.graph.out_neighbors(s).binary_search(&d).ok().map(|i| self.out_base[s] + i)
    }

    /// Takes edge `(s, d)`'s contribution off rank `r` for a message to
    /// `peer`; `None` when `r` does not hold it (any more).
    fn claim(&mut self, r: Rank, peer: Rank, (s, d): (Rank, Rank)) -> Option<usize> {
        let e = self.edge(s, d).filter(|&e| self.holder[e] == r)?;
        self.holder[e] = IN_FLIGHT;
        self.moved.push((e, if d == peer { DELIVERED } else { peer }));
        Some(e)
    }

    /// Pass 1 for one message, `items` from `r` to `peer` ([`route_items`]
    /// checked the peer): packs it against `r`'s *pre-phase* possession
    /// (arrivals integrate only after every send is fixed).
    fn pack(
        &mut self,
        (r, k): (Rank, usize),
        (peer, tag, items): (Rank, u64, &[(Rank, Rank)]),
    ) -> Result<(), ExecError> {
        let missing = |block: Rank| ExecError::MissingBlock { rank: r, block, phase: k };
        let (b0, d0) = (self.pblocks.len(), self.pdsts.len());
        if self.prog.shape == Shape::Route {
            for &(s, d) in items {
                let e = self.claim(r, peer, (s, d)).ok_or_else(|| missing(peer))?;
                self.pdsts.push(PendDst { block: self.pblocks.len(), dst: d, count: 1, edge: e });
                let src = self.item_at[e];
                self.pblocks.push(PendBlock { key: s, src, tree: 0, claim: (0, 0) });
            }
        } else {
            self.pack_partials(r, peer, items, &missing)?;
        }
        self.pend.push(PendMsg {
            src: r,
            dst: peer,
            tag,
            blocks: b0..self.pblocks.len(),
            dsts: d0..self.pdsts.len(),
        });
        Ok(())
    }

    /// The reduce half of [`Self::pack`]. The routing must forward all of
    /// a rank's same-destination items together (the co-routing
    /// invariant), so the held partial must cover exactly the claimed
    /// sources.
    fn pack_partials(
        &mut self,
        r: Rank,
        peer: Rank,
        items: &[(Rank, Rank)],
        missing: &dyn Fn(Rank) -> ExecError,
    ) -> Result<(), ExecError> {
        let shape = self.prog.shape;
        let (b0, d0) = (self.pblocks.len(), self.pdsts.len());
        let mut claimed = std::mem::take(&mut self.claimed);
        claimed.clear();
        claimed.extend(items.iter().map(|&(s, d)| (d, s)));
        claimed.sort_unstable();
        let mut lo = 0;
        let mut merged = false;
        for run in claimed.chunk_by(|a, b| a.0 == b.0) {
            let (d, hi) = (run[0].0, lo + run.len());
            let pos = self.held[r].binary_search_by_key(&d, |h| h.dst).map_err(|_| missing(d))?;
            for &(_, s) in run {
                self.claim(r, peer, (s, d)).ok_or_else(|| missing(d))?;
            }
            let h = self.held[r].remove(pos);
            if h.count != run.len() {
                return Err(missing(d));
            }
            // Share one wire block across destinations whose value is
            // the same by construction — the allreduce first hop carries
            // x_src once, not once per destination.
            let sources = |(lo, hi): (usize, usize)| claimed[lo..hi].iter().map(|c| c.1);
            let twin = match shape {
                Shape::Allreduce { exact } => self.pblocks[b0..].iter().position(|b| {
                    (exact || b.tree == h.tree) && sources(b.claim).eq(sources((lo, hi)))
                }),
                _ => None,
            };
            let block = match twin {
                Some(i) => {
                    merged = true;
                    b0 + i
                }
                None => {
                    let key = if shape == Shape::ReduceScatter { d } else { 0 };
                    self.pblocks.push(PendBlock { key, src: h.at, tree: h.tree, claim: (lo, hi) });
                    self.pblocks.len() - 1
                }
            };
            self.pdsts.push(PendDst { block, dst: d, count: run.len(), edge: 0 });
            lo = hi;
        }
        if merged {
            // group arrivals by wire block; stable, so each block keeps
            // its destinations ascending
            self.pdsts[d0..].sort_by_key(|pd| pd.block);
        }
        self.claimed = claimed;
        Ok(())
    }

    /// Pass 2 for one `(block, destination)` arrival at rank `at`: the
    /// step the receiver runs, and the bookkeeping it implies.
    fn arrive(&mut self, at: Rank, pb: PendBlock, pd: PendDst) -> Step {
        let d = pd.dst;
        if self.prog.shape == Shape::Route {
            return if d == at {
                let cell = self.graph.in_neighbors(d).binary_search(&pb.key);
                let cell = cell.expect("an edge's source is an in-neighbor");
                Step::Copy(Dst::Recv(self.in_base[d] + cell))
            } else {
                let slot = self.prog.slots.push(at, pb.key);
                self.item_at[pd.edge] = Src::Slot(slot);
                Step::Copy(Dst::Slot(slot))
            };
        }
        if d == at {
            return if std::mem::replace(&mut self.acc_live[at], true) {
                Step::Combine(Dst::Recv(at))
            } else {
                Step::Copy(Dst::Recv(at))
            };
        }
        match self.held[at].binary_search_by_key(&d, |h| h.dst) {
            Ok(pos) => {
                let h = &mut self.held[at][pos];
                h.count += pd.count;
                if self.prog.shape == (Shape::Allreduce { exact: false }) {
                    h.tree = self.trees.combine(h.tree, pb.tree);
                }
                match h.at {
                    Src::Slot(slot) => Step::Combine(Dst::Slot(slot)),
                    Src::Send(from) => {
                        let slot = self.prog.slots.push(at, pb.key);
                        h.at = Src::Slot(slot);
                        Step::Fold { from, slot }
                    }
                }
            }
            Err(pos) => {
                let slot = self.prog.slots.push(at, pb.key);
                let h = Held { dst: d, at: Src::Slot(slot), count: pd.count, tree: pb.tree };
                self.held[at].insert(pos, h);
                Step::Copy(Dst::Slot(slot))
            }
        }
    }

    /// Pass 2 for the phase: arrivals in integration order — per
    /// receiver, ascending `(sender, tag)`. That order *is* the f32 fold
    /// tree. Leaves the between-pass tables empty for the next phase.
    fn integrate(&mut self) {
        for &(e, to) in &self.moved {
            self.holder[e] = to;
        }
        let pend = std::mem::take(&mut self.pend);
        let mut order: Vec<usize> = (0..pend.len()).collect();
        order.sort_unstable_by_key(|&i| (pend[i].dst, pend[i].src, pend[i].tag, i));
        let mut final_id = vec![0; pend.len()];
        let mut receiver = 0;
        for &pi in &order {
            let pm = &pend[pi];
            while receiver < pm.dst {
                self.prog.recv_ends.push(self.prog.msgs.len());
                receiver += 1;
            }
            final_id[pi] = self.prog.msgs.len();
            let mut arrivals = pm.dsts.clone().peekable();
            for b in pm.blocks.clone() {
                let pb = self.pblocks[b];
                let mut origin = 0;
                while let Some(i) = arrivals.next_if(|&i| self.pdsts[i].block == b) {
                    let pd = self.pdsts[i];
                    origin = pd.edge;
                    let step = self.arrive(pm.dst, pb, pd);
                    self.prog.steps.push(step);
                }
                let steps_end = self.prog.steps.len();
                self.prog.blocks.push(Block { key: pb.key, src: pb.src, origin, steps_end });
            }
            let blocks_end = self.prog.blocks.len();
            self.prog.msgs.push(ProgMsg { src: pm.src, dst: pm.dst, tag: pm.tag, blocks_end });
        }
        while receiver < self.prog.n {
            self.prog.recv_ends.push(self.prog.msgs.len());
            receiver += 1;
        }
        self.prog.send_order.extend(final_id);
        self.pend = pend;
        self.pend.clear();
        self.pblocks.clear();
        self.pdsts.clear();
        self.moved.clear();
    }
}

/// Compiles the item routing of `plan` ([`route_items`]) for `shape`; a
/// message the routing leaves without an item is not in the program.
///
/// # Errors
/// [`ExecError::MissingBlock`] when a message forwards an item (or, for
/// the reduce shapes, a partial over exactly the claimed sources) its
/// sender does not hold at that phase, or names a peer that is out of
/// range or the sender itself; [`ExecError::Undelivered`] when an edge's
/// contribution never reaches its destination.
pub(crate) fn compile(
    plan: &CollectivePlan,
    graph: &Topology,
    shape: Shape,
) -> Result<CombineProgram, ExecError> {
    let n = graph.n();
    if plan.n() != n {
        return Err(ExecError::PayloadCountMismatch { got: plan.n(), want: n });
    }
    let routing = route_items(plan, graph)?;
    let mut walk = Walk::new(graph, shape, plan.phase_count());
    let mut id = 0;
    for k in 0..plan.phase_count() {
        let sent_before = walk.prog.send_order.len();
        for (r, program) in plan.per_rank.iter().enumerate() {
            for msg in program.get(k).map_or(&[][..], |ph| &ph.sends[..]) {
                if !routing.of(id).is_empty() {
                    walk.pack((r, k), (msg.peer, msg.tag, routing.of(id)))?;
                }
                id += 1;
            }
            walk.prog.send_ends.push(sent_before + walk.pend.len());
        }
        walk.integrate();
    }
    // every edge's contribution must have reached its destination
    for r in 0..n {
        for &s in graph.in_neighbors(r) {
            let e = walk.edge(s, r).expect("in/out consistency");
            if walk.holder[e] != DELIVERED {
                return Err(ExecError::Undelivered { rank: r, block: s });
            }
        }
    }
    Ok(walk.prog)
}

impl CombineProgram {
    fn blocks_of(&self, id: usize) -> Range<usize> {
        let start = if id == 0 { 0 } else { self.msgs[id - 1].blocks_end };
        start..self.msgs[id].blocks_end
    }

    fn steps_of(&self, b: usize) -> Range<usize> {
        let start = if b == 0 { 0 } else { self.blocks[b - 1].steps_end };
        start..self.blocks[b].steps_end
    }

    /// Wire bytes of message `id` under `sizes`.
    fn wire_bytes(&self, id: usize, sizes: &BlockSizes) -> usize {
        self.blocks[self.blocks_of(id)].iter().map(|b| sizes.size(b.key)).sum()
    }

    /// The size table the program's lengths are read from: allreduce is
    /// uniform by contract, so its blocks all take the table's one size.
    fn table(&self, sizes: &BlockSizes) -> BlockSizes {
        match self.shape {
            Shape::Allreduce { .. } => BlockSizes::uniform(sizes.max_size()),
            _ => sizes.clone(),
        }
    }

    /// The simulator schedule of one execution under `sizes`: the plan's
    /// phases with every message at its *combined* wire size.
    pub(crate) fn schedule(&self, sizes: &BlockSizes) -> Schedule {
        let sizes = &self.table(sizes);
        let msg = |id: usize| {
            let m = &self.msgs[id];
            Msg { src: m.src, dst: m.dst, bytes: self.wire_bytes(id, sizes), tag: m.tag }
        };
        let mut sched = Schedule::new(self.n);
        for k in 0..self.phases {
            for r in 0..self.n {
                let i = k * self.n + r;
                let sends = self.send_order[span(&self.send_ends, i)].iter().map(|&id| msg(id));
                let recvs = span(&self.recv_ends, i).map(msg);
                sched.push_phase(
                    r,
                    Phase { local_seconds: 0.0, sends: sends.collect(), recvs: recvs.collect() },
                );
            }
        }
        sched
    }
}

// ---------------------------------------------------------------------
// Execute: resolve offsets, then copy and combine
// ---------------------------------------------------------------------

/// The per-communicator workspace of the combining executors: the
/// offset tables of the last request, reused (grow-only) across ops,
/// programs and size tables. The arena *bytes* are request-scoped — see
/// [`Self::prepare`].
#[derive(Debug, Default)]
pub(crate) struct CombineScratch {
    send_off: Vec<usize>,
    slot_off: Vec<usize>,
    recv_off: Vec<usize>,
    msg_bytes: Vec<usize>,
    ends: Vec<usize>,
    reallocations: u64,
}

/// What [`CombineScratch::prepare`] hands an execution.
struct Prepared {
    /// One buffer per rank, sized for the program's slots (empty when
    /// the run is not staged through them). Dropped with the request: a
    /// forwarding agent's parked partials are megabytes at 4 KiB blocks,
    /// and kept warm they would sit under every later request's receive
    /// buffers — on *every* tenant of a service.
    arena: Vec<Vec<u8>>,
    /// The initialised receive buffers.
    rbufs: Vec<Vec<u8>>,
}

impl CombineScratch {
    /// How many times a table of this workspace had to grow (counted
    /// the way [`crate::arena::BlockArena::reallocations`] counts).
    #[cfg(test)]
    pub(crate) fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// Resolves `prog`'s cells against `sizes`, checks the send buffers'
    /// shapes, and allocates the request's arena (`staged` runs only)
    /// and receive buffers.
    fn prepare(
        &mut self,
        prog: &CombineProgram,
        op: CombineOp,
        sbufs: &[Vec<u8>],
        sizes: &BlockSizes,
        staged: bool,
    ) -> Result<Prepared, ExecError> {
        let n = prog.n;
        if sbufs.len() != n {
            return Err(ExecError::PayloadCountMismatch { got: sbufs.len(), want: n });
        }
        let grew = &mut self.reallocations;
        *grew += u64::from(n > self.ends.capacity());
        self.ends.resize(n, 0);
        let ends = &mut self.ends[..];
        *grew += u64::from(prog.send.resolve(sizes, &mut self.send_off, ends));
        for (rank, (sbuf, &want)) in sbufs.iter().zip(ends.iter()).enumerate() {
            if sbuf.len() != want {
                return Err(ExecError::PayloadSizeMismatch { rank, got: sbuf.len(), want });
            }
        }
        *grew += u64::from(prog.slots.resolve(sizes, &mut self.slot_off, ends));
        let arena = ends.iter().map(|&len| vec![0u8; if staged { len } else { 0 }]).collect();
        *grew += u64::from(prog.recv.resolve(sizes, &mut self.recv_off, ends));
        *grew += u64::from(prog.msgs.len() > self.msg_bytes.capacity());
        self.msg_bytes.clear();
        self.msg_bytes.extend((0..prog.msgs.len()).map(|id| prog.wire_bytes(id, sizes)));
        let rbufs = (0..n)
            .map(|r| match (prog.shape, op.red) {
                (Shape::ReduceScatter, Some(red)) => red.identity(ends[r]),
                (Shape::Allreduce { .. }, _) => sbufs[r].clone(),
                _ => vec![0u8; ends[r]],
            })
            .collect();
        Ok(Prepared { arena, rbufs })
    }
}

/// The resolved offset tables an execution reads.
#[derive(Clone, Copy)]
struct Offsets<'a> {
    send: &'a [usize],
    slot: &'a [usize],
    recv: &'a [usize],
}

/// The `len` bytes of the receiver that `dst` names.
fn place<'a>(
    dst: Dst,
    len: usize,
    off: Offsets,
    arena: &'a mut [u8],
    rbuf: &'a mut [u8],
) -> &'a mut [u8] {
    match dst {
        Dst::Slot(s) => &mut arena[off.slot[s]..][..len],
        Dst::Recv(c) => &mut rbuf[off.recv[c]..][..len],
    }
}

/// Applies one step of a receiver to an arrived wire block.
fn apply(
    step: Step,
    wire: &[u8],
    red: Option<Reduction>,
    off: Offsets,
    sbuf: &[u8],
    arena: &mut [u8],
    rbuf: &mut [u8],
) {
    let len = wire.len();
    let combine = |acc: &mut [u8]| {
        red.expect("only the reduce shapes compile combine steps").combine(acc, wire)
    };
    match step {
        Step::Copy(dst) => place(dst, len, off, arena, rbuf).copy_from_slice(wire),
        Step::Combine(dst) => combine(place(dst, len, off, arena, rbuf)),
        Step::Fold { from, slot } => {
            let acc = place(Dst::Slot(slot), len, off, arena, rbuf);
            acc.copy_from_slice(&sbuf[off.send[from]..][..len]);
            combine(acc);
        }
    }
}

/// Sequential execution of a combine program — the oracle, and the byte
/// source of the Sim backend. Wire blocks are copied arena → arena; no
/// message is materialised. Routed items are immutable, so (like the
/// interpreter this replaced, which moved their buffers by ownership)
/// they are not staged hop by hop: the delivering hop copies each one
/// straight from its origin's send buffer, and the arena stays empty.
pub(crate) fn run_combining_virtual(
    prog: &CombineProgram,
    scratch: &mut CombineScratch,
    op: CombineOp,
    sbufs: &[Vec<u8>],
    sizes: &BlockSizes,
    rec: &dyn Recorder,
) -> Result<Vec<Vec<u8>>, ExecError> {
    debug_assert_eq!(prog.shape, op.shape);
    let sizes = &prog.table(sizes);
    let routed = prog.shape == Shape::Route;
    let Prepared { mut arena, mut rbufs } = scratch.prepare(prog, op, sbufs, sizes, !routed)?;
    let off = Offsets { send: &scratch.send_off, slot: &scratch.slot_off, recv: &scratch.recv_off };
    let (bytes, n) = (&scratch.msg_bytes, prog.n);
    for k in 0..prog.phases {
        for &id in &prog.send_order[phase_span(&prog.send_ends, k, n)] {
            rec.msg_sent(prog.msgs[id].src, prog.msgs[id].dst, bytes[id]);
        }
        for id in phase_span(&prog.recv_ends, k, n) {
            let m = prog.msgs[id];
            rec.msg_recvd(m.dst, m.src, bytes[id]);
            let (from, to) = two_bufs(&mut arena, m.src, m.dst);
            for b in prog.blocks_of(id) {
                let block = prog.blocks[b];
                let len = sizes.size(block.key);
                let (holder, at) = if routed {
                    // a routed item is read where it started
                    (&sbufs[block.key], off.send[block.origin])
                } else {
                    match block.src {
                        Src::Send(c) => (&sbufs[m.src], off.send[c]),
                        Src::Slot(s) => (&*from, off.slot[s]),
                    }
                };
                let wire = &holder[at..][..len];
                for &step in &prog.steps[prog.steps_of(b)] {
                    if routed && matches!(step, Step::Copy(Dst::Slot(_))) {
                        continue; // parked at a forwarding agent: by reference
                    }
                    apply(step, wire, op.red, off, &sbufs[m.dst], &mut to[..], &mut rbufs[m.dst]);
                }
            }
        }
    }
    Ok(rbufs)
}

/// One-thread-per-rank execution of the same program over real
/// channels: each message is packed into one `Vec<u8>`, and a rank
/// integrates a phase's arrivals in program order — the virtual
/// backend's order — so outputs (f32 bits included) are identical.
pub(crate) fn run_combining_threaded(
    prog: &CombineProgram,
    scratch: &mut CombineScratch,
    op: CombineOp,
    sbufs: &[Vec<u8>],
    sizes: &BlockSizes,
    recv_timeout: Duration,
    rec: &dyn Recorder,
) -> Result<Vec<Vec<u8>>, ExecError> {
    debug_assert_eq!(prog.shape, op.shape);
    let sizes = &prog.table(sizes);
    let Prepared { mut arena, mut rbufs } = scratch.prepare(prog, op, sbufs, sizes, true)?;
    let off = Offsets { send: &scratch.send_off, slot: &scratch.slot_off, recv: &scratch.recv_off };
    let (bytes, n) = (&scratch.msg_bytes, prog.n);
    type Envelope = (usize, Vec<u8>);
    let (txs, rxs): (Vec<mpsc::Sender<Envelope>>, Vec<_>) = (0..n).map(|_| mpsc::channel()).unzip();
    let results: Vec<Result<(), ExecError>> = std::thread::scope(|scope| {
        let txs = &txs;
        let handles: Vec<_> = arena
            .iter_mut()
            .zip(rbufs.iter_mut())
            .zip(rxs)
            .enumerate()
            .map(|(rank, ((arena, rbuf), rx))| {
                scope.spawn(move || -> Result<(), ExecError> {
                    let sbuf = &sbufs[rank];
                    // arrivals of phases this rank has not reached yet
                    let mut early: Vec<Envelope> = Vec::new();
                    for k in 0..prog.phases {
                        let timeout = || ExecError::Timeout { rank, phase: k };
                        for &id in &prog.send_order[span(&prog.send_ends, k * n + rank)] {
                            let mut wire = Vec::with_capacity(bytes[id]);
                            for block in &prog.blocks[prog.blocks_of(id)] {
                                let len = sizes.size(block.key);
                                wire.extend_from_slice(match block.src {
                                    Src::Send(c) => &sbuf[off.send[c]..][..len],
                                    Src::Slot(s) => &arena[off.slot[s]..][..len],
                                });
                            }
                            let peer = prog.msgs[id].dst;
                            rec.msg_sent(rank, peer, wire.len());
                            txs[peer].send((id, wire)).map_err(|_| timeout())?;
                        }
                        let due = span(&prog.recv_ends, k * n + rank);
                        let mut got: Vec<Option<Vec<u8>>> = vec![None; due.len()];
                        let mut waiting = due.len();
                        let mut held_back = std::mem::take(&mut early).into_iter();
                        while waiting > 0 {
                            let (id, wire) = match held_back.next() {
                                Some(envelope) => envelope,
                                None => rx.recv_timeout(recv_timeout).map_err(|_| timeout())?,
                            };
                            if due.contains(&id) {
                                got[id - due.start] = Some(wire);
                                waiting -= 1;
                            } else {
                                early.push((id, wire));
                            }
                        }
                        early.extend(held_back);
                        for (id, wire) in due.clone().zip(got) {
                            let wire = wire.expect("every due message was filed");
                            rec.msg_recvd(rank, prog.msgs[id].src, wire.len());
                            let mut at = 0;
                            for b in prog.blocks_of(id) {
                                let len = sizes.size(prog.blocks[b].key);
                                for &step in &prog.steps[prog.steps_of(b)] {
                                    apply(
                                        step,
                                        &wire[at..at + len],
                                        op.red,
                                        off,
                                        sbuf,
                                        arena,
                                        rbuf,
                                    );
                                }
                                at += len;
                            }
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| h.join().unwrap_or(Err(ExecError::WorkerPanic { rank })))
            .collect()
    });
    drop(txs);
    results.into_iter().collect::<Result<(), _>>()?;
    Ok(rbufs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::collective::ReduceOp;
    use crate::lower::lower;
    use nhood_cluster::ClusterLayout;
    use nhood_telemetry::{CountingRecorder, NULL};
    use nhood_topology::random::erdos_renyi;

    const SHAPES: [Shape; 4] = [
        Shape::Route,
        Shape::ReduceScatter,
        Shape::Allreduce { exact: true },
        Shape::Allreduce { exact: false },
    ];

    fn dh_plan(n: usize, delta: f64, seed: u64) -> (Topology, CollectivePlan) {
        let g = erdos_renyi(n, delta, seed);
        let pattern = build_pattern(&g, &ClusterLayout::new(n.div_ceil(8), 2, 4)).unwrap();
        let plan = lower(&pattern, &g);
        plan.validate(&g).unwrap();
        (g, plan)
    }

    /// `plan` without the first block (phase-major) that stands for an
    /// item `pick(item, peer, items the block stands for)` accepts: the
    /// edited plan, the phase of the edit and the picked item.
    fn drop_block(
        plan: &CollectivePlan,
        g: &Topology,
        pick: impl Fn((Rank, Rank), Rank, usize) -> bool,
    ) -> (CollectivePlan, usize, (Rank, Rank)) {
        let routing = route_items(plan, g).unwrap();
        let mut id = 0;
        for k in 0..plan.phase_count() {
            for (r, prog) in plan.per_rank.iter().enumerate() {
                for (mi, msg) in prog[k].sends.iter().enumerate() {
                    let items = routing.of(id);
                    let of_block = |b| items.iter().filter(|it| it.0 == b).count();
                    if let Some(&it) = items.iter().find(|it| pick(**it, msg.peer, of_block(it.0)))
                    {
                        let mut cut = plan.clone();
                        cut.per_rank[r][k].sends[mi].blocks.retain(|&b| b != it.0);
                        return (cut, k, it);
                    }
                    id += 1;
                }
            }
        }
        panic!("no such item in the plan");
    }

    #[test]
    fn a_dropped_item_fails_at_compile_time() {
        let (g, plan) = dh_plan(32, 0.4, 6);
        // A block a forwarding agent was to relay never reaches it: the
        // agent's own send is the first to miss its items.
        let (relayed, k, (s, d)) = drop_block(&plan, &g, |(_, d), peer, _| d != peer);
        // A block is dropped on a hop that only delivers it: nobody
        // misses it until the destination counts its in-neighbors.
        let (last_hop, _, (s2, d2)) =
            drop_block(&plan, &g, |(_, d), peer, stands_for| d == peer && stands_for == 1);
        for shape in SHAPES {
            match compile(&relayed, &g, shape) {
                Err(ExecError::MissingBlock { phase, .. }) => assert!(phase > k, "{shape:?}"),
                other => panic!("{shape:?}: item ({s} -> {d}) dropped, got {other:?}"),
            }
            assert_eq!(
                compile(&last_hop, &g, shape).unwrap_err(),
                ExecError::Undelivered { rank: d2, block: s2 },
                "{shape:?}"
            );
            compile(&plan, &g, shape).unwrap();
        }
    }

    #[test]
    fn malformed_peers_fail_typed() {
        let g = Topology::from_edges(3, [(0, 2), (1, 2)]);
        for peer in [0, 7] {
            let mut plan = crate::naive::plan_naive(&g);
            plan.per_rank[0][0].sends[0].peer = peer;
            assert_eq!(
                compile(&plan, &g, Shape::Route).unwrap_err(),
                ExecError::MissingBlock { rank: 0, block: peer, phase: 0 }
            );
        }
        let mut plan = crate::naive::plan_naive(&g);
        plan.per_rank[1][0].sends[0].blocks.push(3);
        assert_eq!(
            compile(&plan, &g, Shape::Route).unwrap_err(),
            ExecError::MissingBlock { rank: 1, block: 3, phase: 0 }
        );
    }

    #[test]
    fn pat_trees_break_the_co_routing_invariant_of_the_reduce_shapes() {
        // The cause behind `check_support`'s one algorithm refusal: PAT's
        // merged trees drop a block the receiver already holds, so a
        // destination's contributions leave a rank in different messages
        // and no held partial covers exactly the claimed sources. When
        // this starts compiling, lift the refusal.
        let g = erdos_renyi(32, 0.3, 11);
        let plan = crate::pat::plan_pat(&g, 2);
        plan.validate(&g).unwrap();
        compile(&plan, &g, Shape::Route).unwrap();
        for shape in &SHAPES[1..] {
            let got = compile(&plan, &g, *shape);
            assert!(matches!(got, Err(ExecError::MissingBlock { .. })), "{shape:?}: {got:?}");
        }
    }

    /// Five ranks; 0 and 1 each feed 3 and 4 through the pure agent 2,
    /// which folds destination 3's partial as (x0, x1) and destination
    /// 4's as (x1, x0), then ships both to 3 in one message. No gather
    /// plan routes like this (a block's items leave a rank together), so
    /// the walk is driven by hand.
    fn crossed_folds(shape: Shape) -> (Topology, CombineProgram) {
        type Send = (Rank, Rank, &'static [(Rank, Rank)]);
        let g = Topology::from_edges(5, [(0, 3), (0, 4), (1, 3), (1, 4)]);
        let phases: [&[Send]; 4] = [
            &[(0, 2, &[(0, 3)]), (1, 2, &[(1, 4)])],
            &[(0, 2, &[(0, 4)]), (1, 2, &[(1, 3)])],
            &[(2, 3, &[(0, 3), (1, 3), (0, 4), (1, 4)])],
            &[(3, 4, &[(0, 4), (1, 4)])],
        ];
        let mut walk = Walk::new(&g, shape, phases.len());
        for (k, sends) in phases.iter().enumerate() {
            let sent_before = walk.prog.send_order.len();
            for r in 0..g.n() {
                for &(_, to, items) in sends.iter().filter(|s| s.0 == r) {
                    walk.pack((r, k), (to, k as u64, items)).unwrap();
                }
                walk.prog.send_ends.push(sent_before + walk.pend.len());
            }
            walk.integrate();
        }
        assert!(walk.holder.iter().all(|&h| h == DELIVERED));
        let prog = walk.prog;
        (g, prog)
    }

    #[test]
    fn exact_lanes_coalesce_by_source_set_and_f32_by_fold_tree() {
        let m = 8;
        let sizes = BlockSizes::uniform(m);
        let payloads: Vec<Vec<u8>> = (0..5u8)
            .map(|r| [1.5f32 + f32::from(r), -0.25 * f32::from(r)].map(f32::to_le_bytes).concat())
            .collect();
        let agent_ships =
            |shape| crossed_folds(shape).1.schedule(&sizes).phases(2)[2].sends[0].bytes;
        assert_eq!(agent_ships(Shape::Allreduce { exact: true }), m, "same sources: one block");
        assert_eq!(agent_ships(Shape::Allreduce { exact: false }), 2 * m, "different fold trees");
        assert_eq!(agent_ships(Shape::ReduceScatter), 2 * m, "per-destination values");
        assert_eq!(agent_ships(Shape::Route), 4 * m, "routed items never merge");

        for (red, exact) in [
            (Reduction::new(ReduceOp::Max, DType::U32), true),
            (Reduction::new(ReduceOp::Sum, DType::F32), false),
        ] {
            let op = CombineOp::try_from(CollectiveOp::Allreduce(red)).unwrap();
            assert_eq!(op.shape, Shape::Allreduce { exact });
            let (g, prog) = crossed_folds(op.shape);
            let scratch = &mut CombineScratch::default();
            let v = run_combining_virtual(&prog, scratch, op, &payloads, &sizes, &NULL).unwrap();
            let wait = Duration::from_secs(10);
            let t =
                run_combining_threaded(&prog, scratch, op, &payloads, &sizes, wait, &NULL).unwrap();
            assert_eq!(v, t, "{red}");
            if exact {
                assert_eq!(v, crate::collective::reference_allreduce(&g, &payloads, red));
            }
        }
    }

    #[test]
    fn wire_bytes_are_a_function_of_the_size_table_alone() {
        // the retired interpreter merged groups whose *bytes* compared
        // equal, so constant payloads got a discount; the program cannot
        let (g, plan) = dh_plan(24, 0.5, 9);
        let sizes = BlockSizes::per_rank((0..24).map(|t| 4 * (t % 5)).collect());
        let red = Reduction::SUM_U8;
        let op = CombineOp::try_from(CollectiveOp::ReduceScatter(red)).unwrap();
        let prog = compile(&plan, &g, op.shape).unwrap();
        let want = prog.schedule(&sizes).total_bytes() as u64;
        for fill in [|_: usize| 7u8, |i: usize| (i * 37 + 11) as u8] {
            let sbufs: Vec<Vec<u8>> = (0..24)
                .map(|p| {
                    let len: usize = g.out_neighbors(p).iter().map(|&d| sizes.size(d)).sum();
                    (0..len).map(|i| fill(i + p)).collect()
                })
                .collect();
            let rec = CountingRecorder::new(24);
            let scratch = &mut CombineScratch::default();
            let got = run_combining_virtual(&prog, scratch, op, &sbufs, &sizes, &rec).unwrap();
            assert_eq!(got, crate::collective::reference_reduce_scatter(&g, &sbufs, &sizes, red));
            assert_eq!(rec.totals().bytes_sent, want);
        }
    }

    #[test]
    fn payload_shapes_are_checked_against_the_program() {
        let (g, plan) = dh_plan(16, 0.4, 2);
        let op = CombineOp::try_from(CollectiveOp::Alltoallv).unwrap();
        let prog = compile(&plan, &g, op.shape).unwrap();
        let sizes = BlockSizes::uniform(4);
        let mut sbufs: Vec<Vec<u8>> = (0..16).map(|p| vec![1; g.outdegree(p) * 4]).collect();
        let scratch = &mut CombineScratch::default();
        run_combining_virtual(&prog, scratch, op, &sbufs, &sizes, &NULL).unwrap();
        sbufs[5].push(0);
        assert!(matches!(
            run_combining_virtual(&prog, scratch, op, &sbufs, &sizes, &NULL),
            Err(ExecError::PayloadSizeMismatch { rank: 5, .. })
        ));
        sbufs.pop();
        assert!(matches!(
            run_combining_virtual(&prog, scratch, op, &sbufs, &sizes, &NULL),
            Err(ExecError::PayloadCountMismatch { got: 15, want: 16 })
        ));
    }
}
