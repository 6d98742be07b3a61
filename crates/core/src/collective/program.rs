//! The compiled program: what every collective executes.
//!
//! [`compile`] lays a gather plan out once per *op shape* ([`Shape`])
//! — no bytes, no size table — fixing everything a request would
//! otherwise rediscover: where every held block, item or partial lives (a
//! cell of the caller's send buffer, a slot of the rank's arena, or a
//! cell of the receive buffer), which wire blocks each message carries,
//! and the exact `copy` / `combine` steps each arrival performs. Every
//! shape compiles what [`CollectivePlan::validate`] admits — a plan it
//! rejects fails *here* with [`ExecError::InvalidPlan`], before any byte
//! moves — through one layout: per phase, the sends in the plan's order,
//! then the same messages in the `(peer, tag)` integration order that
//! makes f32 results bit-identical across backends. A shape adds only its
//! wire blocks: a gather the plan's own, alltoallv the items of the
//! routing the plan implies ([`crate::alltoall::route_items`]) — neither
//! modified in flight — and the reduce shapes the partials one symbolic
//! walk packs of those items, refusing ([`ExecError::MissingBlock`]) a
//! routing that breaks the co-routing invariant below.
//!
//! A request then resolves offsets and receive totals against its block
//! lengths ([`Tables::stage`]: O(cells), no allocation once warm) and
//! does nothing but `copy_from_slice` / [`Reduction::combine`] /
//! [`Reduction::combine_into`] ([`Exec::integrate`], the one data path of
//! both runtimes in [`crate::exec`]). Nothing is modified in flight until
//! it folds, so a receiver reads every gather block, routed item and lone
//! contribution at its origin's send cell; only partials that folded at a
//! forwarding agent occupy arena slots, and those bytes live for the one
//! request.
//!
//! ## Coalescing is structural
//!
//! Two allreduce partials leaving a rank in one message share a wire
//! block when they fold the same sorted source set — on every lane, f32
//! included, because under a gather plan's derived routing equal source
//! sets imply equal fold trees. At any rank, every held item `(s, ·)`
//! arrived in one slot: the first message that handed the rank block `s`
//! ([`route_items`]' `parent`). So which messages a partial's sources
//! arrived in, and the order it integrated them, depend only on its
//! source set; and each arrival was its sender's whole partial over that
//! message's share of the set, or `compile` would have failed on the
//! co-routing invariant ([`Walk::pack`]). By induction on the
//! phase — a partial starts as its rank's own leaf or its first arrival —
//! its fold tree, and with it every f32 bit, depends only on its rank and
//! source set. reduce_scatter contributions are distinct per destination
//! and routed items are distinct per edge; neither ever merges. Wire
//! bytes are therefore a pure function of (plan, shape, block lengths) —
//! never of payload contents.

use super::{CollectiveOp, Reduction};
use crate::alltoall::{route_items, ItemRouting};
use crate::exec::{phase_label, ExecError};
use crate::plan::{CollectivePlan, MsgView};
use crate::sizes::BlockSizes;
use nhood_simnet::{Msg, PhaseWriter, Schedule};
use nhood_telemetry::{Tally, Traffic};
use nhood_topology::{Rank, Topology};
use std::ops::Range;

/// What a program is compiled for: one shape per way data moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shape {
    /// allgather(v): block `b` is rank `b`'s whole payload and fans out,
    /// along the plan's own messages, to every out-neighbor of `b`.
    Gather,
    /// alltoallv: items move, nothing combines; blocks are sized by
    /// their *source*.
    Route,
    /// Sparse reduce_scatter: one partial per destination, sized by the
    /// *destination*.
    ReduceScatter,
    /// Sparse allreduce (uniform size): partials coalesce by source set
    /// on every lane.
    Allreduce,
}

impl Shape {
    /// The shape `op` executes; its operator, when it has one, is
    /// [`CollectiveOp::reduction`] — `Some` exactly for the shapes that
    /// [`reduce`](Self::reduces).
    pub(crate) fn of(op: CollectiveOp) -> Self {
        match op {
            CollectiveOp::Allgather | CollectiveOp::Allgatherv => Shape::Gather,
            CollectiveOp::Alltoallv => Shape::Route,
            CollectiveOp::ReduceScatter(_) => Shape::ReduceScatter,
            CollectiveOp::Allreduce(_) => Shape::Allreduce,
        }
    }

    /// `true` for the shapes whose agents combine what they forward;
    /// gather and routed blocks reach their destination unmodified.
    pub(crate) fn reduces(self) -> bool {
        !matches!(self, Shape::Gather | Shape::Route)
    }
}

/// An index into one of a program's tables (a cell, a rank, a step):
/// half a `usize`, because the tables are what a warm request streams
/// through and what a cold compile allocates.
type Ix = u32;

/// Where a reduce partial's bytes live.
#[derive(Clone, Copy, Debug)]
enum Src {
    /// A send cell of any rank (`send.rank[cell]`): a partial that is
    /// still one contribution, read at its origin until it folds.
    Send(Ix),
    /// A slot of the holder's arena: a partial that has folded.
    Slot(Ix),
}

/// Where an arrival lands on the receiver.
#[derive(Clone, Copy, Debug)]
enum Dst {
    /// A slot of the receiver's arena (it forwards the value later).
    Slot(Ix),
    /// The receive buffer, a reduce shape's one receive cell (last hop).
    Recv,
}

/// One thing a receiver does with an arrived wire block.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// First arrival, folded or at its destination: `dst = wire` (copied,
    /// *not* folded into the identity — `-0.0` must survive an f32 sum).
    Copy(Dst),
    /// `dst = dst ⊕ wire`.
    Combine(Dst),
    /// The held partial is still one contribution at (read-only) send
    /// cell `from`: `slot = send[from] ⊕ wire`, in one pass.
    Fold { from: Ix, slot: Ix },
}

/// (reduce shapes) A wire block is read at `src`, then applied by
/// `steps[..steps_end]` (from the previous block's end).
#[derive(Clone, Copy, Debug)]
struct Read {
    src: Src,
    steps_end: Ix,
}

/// A message: `keys[..blocks_end]` (from the previous message's end),
/// concatenated on the wire.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProgMsg {
    pub src: Rank,
    pub dst: Rank,
    pub tag: u64,
    blocks_end: usize,
}

/// Where block lengths come from: a size table (a combining op's, or a
/// uniform gather's one length), or — for a ragged gather, whose block
/// `b` *is* rank `b`'s payload — the payloads themselves.
#[derive(Clone, Copy)]
pub(crate) enum Lens<'a> {
    Table(&'a BlockSizes),
    Own(&'a [Vec<u8>]),
}

impl Lens<'_> {
    fn size(self, key: Ix) -> usize {
        match self {
            Lens::Table(sizes) => sizes.size(key as Rank),
            Lens::Own(payloads) => payloads[key as usize].len(),
        }
    }

    /// Every block's one length, when a uniform table gives it.
    fn uniform(self) -> Option<usize> {
        matches!(self, Lens::Table(sizes) if sizes.is_uniform()).then(|| self.size(0))
    }
}

/// The cells of a send buffer or an arena: each belongs to a rank and is
/// `size(key)` bytes long; a rank's cells pack back to back in creation
/// order.
#[derive(Clone, Debug, Default)]
struct Cells {
    rank: Vec<Ix>,
    key: Vec<Ix>,
}

impl Cells {
    fn push(&mut self, rank: Rank, key: Rank) -> Ix {
        self.rank.push(rank as Ix);
        self.key.push(key as Ix);
        (self.rank.len() - 1) as Ix
    }

    /// Writes every cell's byte offset within its rank's buffer to
    /// `off` (grow-only) and leaves each rank's total in `ends`.
    fn resolve(&self, lens: Lens, off: &mut Vec<usize>, ends: &mut [usize]) {
        ends.fill(0);
        off.clear();
        off.extend(self.rank.iter().zip(&self.key).map(|(&r, &key)| {
            let at = ends[r as usize];
            ends[r as usize] += lens.size(key);
            at
        }));
    }
}

/// The receive cells, made rank by rank: rank `r`'s are `span(ends, r)`,
/// packed back to back in creation order.
#[derive(Clone, Debug, Default)]
struct RankCells {
    ends: Vec<Ix>,
    key: Vec<Ix>,
}

impl RankCells {
    /// Appends the next rank's cells.
    fn push_rank(&mut self, keys: &[Rank]) {
        self.key.extend(keys.iter().map(|&key| key as Ix));
        self.ends.push(self.key.len() as Ix);
    }

    fn of(&self, r: Rank) -> Range<usize> {
        span(&self.ends, r)
    }

    /// Each rank's byte total into `ends`, and no offset: its cell count
    /// × m under a uniform table.
    fn totals(&self, lens: Lens, ends: &mut [usize]) {
        let uniform = lens.uniform();
        for (r, end) in ends.iter_mut().enumerate() {
            let keys = &self.key[self.of(r)];
            *end = uniform
                .map_or_else(|| keys.iter().map(|&key| lens.size(key)).sum(), |m| keys.len() * m);
        }
    }
}

/// `ends[i - 1]..ends[i]`, with an implicit leading 0.
fn span(ends: &[Ix], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] };
    start as usize..ends[i] as usize
}

/// A compiled program for one (plan, op shape) — exported as
/// [`crate::arena::ArenaLayout`], the view of the gather program.
/// Independent of block lengths: every length is `size(key)` of what the
/// request brings (its size table; a gather's own payloads).
#[derive(Clone, Debug)]
pub struct Program {
    pub(crate) shape: Shape,
    pub(crate) n: usize,
    pub(crate) phases: usize,
    /// The telemetry label of each phase ([`phase_label`]).
    labels: Vec<&'static str>,
    /// (Gather) `copies[k * n + r]`: the plan's `copy_blocks` tally.
    copies: Vec<Ix>,
    /// (Route) per receive cell: the send cell its item starts in, and is
    /// delivered from. Empty for a gather: cell `key` reads rank `key`'s.
    origin: Vec<Ix>,
    /// Messages in integration order: phase, receiver, `(sender, tag)`.
    msgs: Vec<ProgMsg>,
    /// `span(recv_ends, k * n + r)`: the messages rank `r` integrates in
    /// phase `k`.
    recv_ends: Vec<Ix>,
    /// Message ids in send order: phase, sender, the plan's order.
    send_order: Vec<usize>,
    /// `span(send_ends, k * n + r)` into `send_order`.
    send_ends: Vec<Ix>,
    /// Every wire block's key: it is `size(key)` bytes long.
    keys: Vec<Ix>,
    /// (reduce shapes) Per wire block: where it is read, and its steps.
    reads: Vec<Read>,
    steps: Vec<Step>,
    send: Cells,
    /// (reduce shapes) The partials folded at forwarding agents.
    slots: Cells,
    /// Per rank: its in-neighbors (gather, route), or itself (reduce).
    recv: RankCells,
    /// Per rank, its traffic at one byte per block ([`Exec::traffic`]).
    units: Vec<Traffic>,
}

// ---------------------------------------------------------------------
// Compile: one layout pass per phase, whatever the shape
// ---------------------------------------------------------------------

/// Compiles `plan` for `shape` ([`lay_out`]) once
/// [`CollectivePlan::validate`] has admitted it.
///
/// # Errors
/// [`ExecError::PayloadCountMismatch`] when the plan and `graph` count
/// different ranks; [`ExecError::InvalidPlan`] with the validator's
/// error for a plan it rejects, whatever the shape. The reduce shapes:
/// [`ExecError::MissingBlock`] when a message forwards some but not all
/// of the contributions its sender holds for a destination (the
/// co-routing invariant, [`Walk::pack`]).
pub(crate) fn compile(
    plan: &CollectivePlan,
    graph: &Topology,
    shape: Shape,
) -> Result<Program, ExecError> {
    #[cfg(test)]
    tests::COMPILES.with(|c| c.set(c.get() + 1));
    let n = graph.n();
    if plan.n() != n {
        return Err(ExecError::PayloadCountMismatch { got: plan.n(), want: n });
    }
    plan.validate(graph).map_err(ExecError::InvalidPlan)?;
    let routing = (shape != Shape::Gather).then(|| route_items(plan, graph));
    let blocks = routing.as_ref().map_or(plan.total_blocks_sent(), ItemRouting::hops);
    lay_out(plan, graph, shape, blocks, |id| routing.as_ref().map_or(&[], |ro| ro.of(id)))
}

/// Lays `plan` out as `shape`'s program of at most `blocks` wire blocks,
/// one pass per phase. Pass 1 collects the phase's sends in the plan's
/// order with what each carries: a gather the plan's blocks, a route the
/// items `items(id)` hands send `id`, a reduce shape the partials the
/// [`Walk`] packs of them; a route or reduce send without an item is left
/// out. Pass 2 sorts the sends into integration order and emits each
/// message with its wire blocks (only a reduce shape's carry steps).
fn lay_out<'r>(
    plan: &CollectivePlan,
    graph: &Topology,
    shape: Shape,
    blocks: usize,
    items: impl Fn(usize) -> &'r [(Rank, Rank)],
) -> Result<Program, ExecError> {
    let n = graph.n();
    let mut prog = Program::new(plan, graph, shape, blocks);
    let mut walk = shape.reduces().then(|| Walk::new(graph, shape));
    // the phase in flight: (receiver, sender, message, position in send order)
    let mut pend: Vec<(Rank, Rank, MsgView<'_>, usize)> = Vec::new();
    for k in 0..prog.phases {
        let sent_before = prog.send_order.len();
        pend.clear();
        walk.iter_mut().for_each(Walk::next_phase);
        for r in 0..n {
            let phase = plan.phase(r, k);
            for msg in phase.sends() {
                let carried = items(msg.id());
                if shape != Shape::Gather && carried.is_empty() {
                    continue;
                }
                if let Some(walk) = &mut walk {
                    walk.pack((r, k), carried)?;
                }
                pend.push((msg.peer(), r, msg, sent_before + pend.len()));
            }
            prog.send_ends.push((sent_before + pend.len()) as Ix);
            prog.copies.extend((shape == Shape::Gather).then(|| phase.copy_blocks() as Ix));
        }
        prog.send_order.resize(sent_before + pend.len(), 0);
        // integration order: per receiver, ascending (sender, tag) — a
        // total order, `validate` having refused duplicate keys, and the
        // reduce shapes' f32 fold tree
        pend.sort_unstable_by_key(|&(dst, src, msg, _)| (dst, src, msg.tag()));
        for &(dst, src, msg, sent) in &pend {
            prog.recv_ends.resize(k * n + dst, prog.msgs.len() as Ix);
            match &mut walk {
                Some(walk) => walk.unpack(sent - sent_before, dst, &mut prog),
                None if shape == Shape::Gather => {
                    prog.keys.extend(msg.blocks().iter().map(|&b| b as Ix));
                }
                None => prog.keys.extend(items(msg.id()).iter().map(|&(s, _)| s as Ix)),
            }
            prog.send_order[sent] = prog.msgs.len();
            prog.msgs.push(ProgMsg { src, dst, tag: msg.tag(), blocks_end: prog.keys.len() });
        }
        prog.recv_ends.resize((k + 1) * n, prog.msgs.len() as Ix);
    }
    prog.labels.extend((0..prog.phases).map(|k| phase_label(plan, k)));
    let blocks = |id| prog.blocks_of(id).len();
    prog.units = (0..n).map(|r| prog.traffic_of(r, Tally::default(), blocks)).collect();
    Ok(prog)
}

/// A partial held at a rank: the contributions of `count` sources to
/// `dst`.
#[derive(Clone, Copy, Debug)]
struct Held {
    dst: Rank,
    at: Src,
    count: usize,
}

/// A wire block between the two passes of a phase.
#[derive(Clone, Copy, Debug)]
struct PendBlock {
    key: Rank,
    src: Src,
    /// `sources[lo..hi]` of its message: the sources it folds.
    sources: (usize, usize),
}

/// A `(block, destination)` arrival between the two passes: `count`
/// contributions for `dst`.
#[derive(Clone, Copy, Debug)]
struct PendDst {
    block: usize,
    dst: Rank,
    count: usize,
}

/// The symbolic walk of the reduce shapes: the partials each rank holds,
/// phase by phase, and the wire blocks the phase in flight packs.
#[derive(Default)]
struct Walk {
    allreduce: bool,
    /// Per rank: the partials held, sorted by destination.
    held: Vec<Vec<Held>>,
    /// Per rank: has the receive buffer taken its first value?
    acc_live: Vec<bool>,
    // the phase in flight, between its passes
    pblocks: Vec<PendBlock>,
    pdsts: Vec<PendDst>,
    /// Per send, in send order: the ends of its `pblocks` and `pdsts`.
    packed: Vec<(usize, usize)>,
    /// One message's items as `(dst, src)`, sorted.
    sources: Vec<(Rank, Rank)>,
}

impl Walk {
    /// Seeds the walk: every contribution starts in its source's send
    /// cell ([`Program::new`]'s), allreduce's one per rank or
    /// reduce_scatter's one per out-edge, in edge order.
    fn new(graph: &Topology, shape: Shape) -> Self {
        let n = graph.n();
        let allreduce = shape == Shape::Allreduce;
        let mut held: Vec<Vec<Held>> = vec![Vec::new(); n];
        for (e, (p, d)) in graph.edges().enumerate() {
            let cell = if allreduce { p } else { e };
            held[p].push(Held { dst: d, at: Src::Send(cell as Ix), count: 1 });
        }
        // allreduce folds into x_t, already in place; reduce_scatter
        // copies its first arrival
        Walk { allreduce, held, acc_live: vec![allreduce; n], ..Walk::default() }
    }

    /// Pass 1 for the next send, `items` from `r`: packs it against
    /// `r`'s *pre-phase* partials (arrivals integrate only after every
    /// send is fixed). The routing must forward all of a rank's
    /// same-destination items together (the co-routing invariant), so the
    /// held partial must cover exactly the items' sources; that `r` holds
    /// each item is the validator's to have decided.
    fn pack(&mut self, (r, k): (Rank, usize), items: &[(Rank, Rank)]) -> Result<(), ExecError> {
        let split = |d: Rank| ExecError::MissingBlock { rank: r, block: d, phase: k };
        let (b0, d0) = (self.pblocks.len(), self.pdsts.len());
        let mut sources = std::mem::take(&mut self.sources);
        sources.clear();
        sources.extend(items.iter().map(|&(s, d)| (d, s)));
        sources.sort_unstable();
        let mut lo = 0;
        for run in sources.chunk_by(|a, b| a.0 == b.0) {
            let (d, hi) = (run[0].0, lo + run.len());
            let pos = self.held[r].binary_search_by_key(&d, |h| h.dst).map_err(|_| split(d))?;
            let h = self.held[r].remove(pos);
            if h.count != run.len() {
                return Err(split(d));
            }
            // Share one wire block across destinations whose value is
            // the same by construction (module docs) — the allreduce first
            // hop carries x_src once, not once per destination.
            let of = |(lo, hi): (usize, usize)| sources[lo..hi].iter().map(|c| c.1);
            let twin = |b: &PendBlock| self.allreduce && of(b.sources).eq(of((lo, hi)));
            let block = match self.pblocks[b0..].iter().position(twin) {
                Some(i) => b0 + i,
                None => {
                    let key = if self.allreduce { 0 } else { d };
                    self.pblocks.push(PendBlock { key, src: h.at, sources: (lo, hi) });
                    self.pblocks.len() - 1
                }
            };
            self.pdsts.push(PendDst { block, dst: d, count: run.len() });
            lo = hi;
        }
        if self.pblocks.len() - b0 < self.pdsts.len() - d0 {
            // blocks were shared: group arrivals by wire block; stable, so
            // each block keeps its destinations ascending
            self.pdsts[d0..].sort_by_key(|pd| pd.block);
        }
        self.sources = sources;
        self.packed.push((self.pblocks.len(), self.pdsts.len()));
        Ok(())
    }

    /// Pass 2 for the phase's `i`-th send, arriving at `at`: its wire
    /// blocks into `prog`, each with the steps its arrivals run.
    fn unpack(&mut self, i: usize, at: Rank, prog: &mut Program) {
        let (b0, d0) = if i == 0 { (0, 0) } else { self.packed[i - 1] };
        let (b1, d1) = self.packed[i];
        let mut arrivals = (d0..d1).peekable();
        for b in b0..b1 {
            let pb = self.pblocks[b];
            while let Some(j) = arrivals.next_if(|&j| self.pdsts[j].block == b) {
                let step = self.arrive(at, pb, self.pdsts[j], &mut prog.slots);
                prog.steps.extend(step);
            }
            prog.keys.push(pb.key as Ix);
            prog.reads.push(Read { src: pb.src, steps_end: prog.steps.len() as Ix });
        }
    }

    /// One `(block, destination)` arrival at rank `at`: the step the
    /// receiver runs, and the bookkeeping it implies. A slot opens only
    /// where a partial folds: a first arrival read at a send cell is one
    /// contribution, held and forwarded there.
    fn arrive(&mut self, at: Rank, pb: PendBlock, pd: PendDst, slots: &mut Cells) -> Option<Step> {
        let d = pd.dst;
        if d == at {
            let live = std::mem::replace(&mut self.acc_live[at], true);
            return Some(if live { Step::Combine(Dst::Recv) } else { Step::Copy(Dst::Recv) });
        }
        match self.held[at].binary_search_by_key(&d, |h| h.dst) {
            Ok(pos) => {
                let h = &mut self.held[at][pos];
                h.count += pd.count;
                Some(match h.at {
                    Src::Slot(slot) => Step::Combine(Dst::Slot(slot)),
                    Src::Send(from) => {
                        let slot = slots.push(at, pb.key);
                        h.at = Src::Slot(slot);
                        Step::Fold { from, slot }
                    }
                })
            }
            Err(pos) => {
                let slot = matches!(pb.src, Src::Slot(_)).then(|| slots.push(at, pb.key));
                let h = Held { dst: d, at: slot.map_or(pb.src, Src::Slot), count: pd.count };
                self.held[at].insert(pos, h);
                slot.map(|slot| Step::Copy(Dst::Slot(slot)))
            }
        }
    }

    /// Empties the between-pass tables for the next phase.
    fn next_phase(&mut self) {
        self.pblocks.clear();
        self.pdsts.clear();
        self.packed.clear();
    }
}

impl Program {
    /// An empty program of `shape`, sized for `blocks` wire blocks, with
    /// its cells made. Send cells: one per rank for a gather and an
    /// allreduce (x_p feeds every destination), one per out-edge, in edge
    /// order, for a route (sized by its source) and a reduce_scatter (by
    /// its destination). Receive cells: the in-neighbors for a gather and
    /// a route, the rank itself for the reduce shapes.
    fn new(plan: &CollectivePlan, graph: &Topology, shape: Shape, blocks: usize) -> Self {
        let (n, phases, edges) = (graph.n(), plan.phase_count(), graph.edge_count());
        let msgs = plan.message_count();
        let per_edge = matches!(shape, Shape::Route | Shape::ReduceScatter);
        let (sends, recvs) =
            (if per_edge { edges } else { n }, if shape.reduces() { n } else { edges });
        let mut prog = Program {
            shape,
            n,
            phases,
            labels: Vec::with_capacity(phases),
            copies: Vec::with_capacity(if shape == Shape::Gather { phases * n } else { 0 }),
            origin: Vec::new(),
            msgs: Vec::with_capacity(msgs),
            recv_ends: Vec::with_capacity(phases * n),
            send_order: Vec::with_capacity(msgs),
            send_ends: Vec::with_capacity(phases * n),
            keys: Vec::with_capacity(blocks),
            reads: Vec::with_capacity(if shape.reduces() { blocks } else { 0 }),
            steps: Vec::new(),
            send: Cells { rank: Vec::with_capacity(sends), key: Vec::with_capacity(sends) },
            slots: Cells::default(),
            recv: RankCells { ends: Vec::with_capacity(n), key: Vec::with_capacity(recvs) },
            units: Vec::new(),
        };
        for p in 0..n {
            if per_edge {
                for &d in graph.out_neighbors(p) {
                    prog.send.push(p, if shape == Shape::Route { p } else { d });
                }
            } else {
                prog.send.push(p, p);
            }
            let own = std::slice::from_ref(&p);
            prog.recv.push_rank(if shape.reduces() { own } else { graph.in_neighbors(p) });
        }
        if shape == Shape::Route {
            // receive cell (s, r) reads edge (s, r)'s send cell, the edge's
            // CSR id; in-lists are sorted, so the edges in CSR order fill
            // each rank's cells in order
            let mut next: Vec<usize> = (0..n).map(|r| prog.recv.of(r).start).collect();
            prog.origin = vec![0; edges];
            for (e, (_, d)) in graph.edges().enumerate() {
                prog.origin[next[d]] = e as Ix;
                next[d] += 1;
            }
        }
        prog
    }

    /// Compiles the gather program of `plan` on `graph`: the plan's
    /// messages in integration order, every block read at its origin.
    /// The plan is [validated](CollectivePlan::validate) first, so a
    /// corrupt one fails here — [`ExecError::InvalidPlan`] with the
    /// validator's error — before any bytes move.
    pub fn for_plan(plan: &CollectivePlan, graph: &Topology) -> Result<Self, ExecError> {
        compile(plan, graph, Shape::Gather)
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Fraction of messages whose blocks sit back to back in the
    /// sender's `main_buf`: its own block, then every other block in the
    /// order it first arrived. Distance Halving halving-phase sends are
    /// 100% contiguous by construction (arrivals append in `main_buf`
    /// order, Algorithm 4 line 15): the growing-message combine §V's
    /// bandwidth term models.
    pub fn contiguous_send_fraction(&self) -> f64 {
        if self.msgs.is_empty() {
            return 1.0;
        }
        // rank `r` holds block `b` at `at[b]` while `stamp[b] == r + 1`
        let (mut stamp, mut at) = (vec![0; self.n], vec![0; self.n]);
        let mut one = 0;
        for r in 0..self.n {
            let arrived = (0..self.phases).flat_map(|k| self.recvs(k, r));
            let keys = arrived.flat_map(|id| &self.keys[self.blocks_of(id)]);
            let mut held = 0;
            for &b in std::iter::once(&(r as Ix)).chain(keys) {
                if std::mem::replace(&mut stamp[b as usize], r + 1) != r + 1 {
                    at[b as usize] = held;
                    held += 1;
                }
            }
            let sent = (0..self.phases).flat_map(|k| self.sends(k, r));
            let next = |w: &[Ix]| at[w[1] as usize] == at[w[0] as usize] + 1;
            one += sent.filter(|&&id| self.keys[self.blocks_of(id)].windows(2).all(next)).count();
        }
        one as f64 / self.msgs.len() as f64
    }

    /// The messages rank `r` integrates in phase `k`, in integration
    /// order.
    pub(crate) fn recvs(&self, k: usize, r: Rank) -> Range<usize> {
        span(&self.recv_ends, k * self.n + r)
    }

    /// The messages rank `r` sends in phase `k`, in the plan's order.
    pub(crate) fn sends(&self, k: usize, r: Rank) -> &[usize] {
        &self.send_order[span(&self.send_ends, k * self.n + r)]
    }

    /// Message `id`'s endpoints and tag.
    pub(crate) fn msg(&self, id: usize) -> ProgMsg {
        self.msgs[id]
    }

    /// Phase `k`'s telemetry label and (gather) per-rank copy tallies.
    pub(crate) fn phase(&self, k: usize) -> (&'static str, &[Ix]) {
        (self.labels[k], self.copies.get(k * self.n..(k + 1) * self.n).unwrap_or(&[]))
    }

    fn blocks_of(&self, id: usize) -> Range<usize> {
        let start = if id == 0 { 0 } else { self.msgs[id - 1].blocks_end };
        start..self.msgs[id].blocks_end
    }

    /// Rank `r`'s traffic under `tally`, one pass over its share of the
    /// program: its copies, and every message it sends and integrates at
    /// `bytes(id)`.
    fn traffic_of(&self, r: Rank, tally: Tally, bytes: impl Fn(usize) -> usize) -> Traffic {
        let mut t = Traffic::default();
        for k in 0..self.phases {
            t.copies += self.copies.get(k * self.n + r).map_or(0, |&blocks| blocks.into());
            for &id in self.sends(k, r) {
                t.send(tally, r, self.msgs[id].dst, bytes(id));
            }
            self.recvs(k, r).for_each(|id| t.recv(bytes(id)));
        }
        t
    }

    fn steps_of(&self, b: usize) -> Range<usize> {
        let start = if b == 0 { 0 } else { self.reads[b - 1].steps_end };
        start as usize..self.reads[b].steps_end as usize
    }

    /// Wire bytes of message `id` under `lens`.
    fn wire_bytes(&self, id: usize, lens: Lens) -> usize {
        self.keys[self.blocks_of(id)].iter().map(|&key| lens.size(key)).sum()
    }

    /// The simulator schedule of one execution under `sizes` (uniform
    /// for an allreduce, whose blocks all take the table's one size): the
    /// plan's phases with every message at its *combined* wire size.
    pub(crate) fn schedule(&self, sizes: &BlockSizes) -> Schedule {
        let mut sched = Schedule::with_rows(self.n, self.phases * self.n, self.msgs.len());
        self.lower(sizes, &mut sched);
        sched
    }

    /// [`schedule`](Self::schedule)'s lowering into any [`PhaseWriter`]:
    /// a whole schedule, or the price columns of one already prepared.
    pub(crate) fn lower(&self, sizes: &BlockSizes, out: &mut impl PhaseWriter) {
        for r in 0..self.n {
            for k in 0..self.phases {
                let sends = self.sends(k, r).iter().map(|&id| {
                    let (m, bytes) = (&self.msgs[id], self.wire_bytes(id, Lens::Table(sizes)));
                    Msg { src: m.src, dst: m.dst, bytes, tag: m.tag, recv_phase: k }
                });
                out.push_phase(r, 0.0, sends);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Execute: resolve offsets, then copy and combine
// ---------------------------------------------------------------------

/// What a request adds to a compiled program: the operator of a reduce
/// shape, the send buffers and where block lengths are read.
#[derive(Clone, Copy)]
pub(crate) struct Job<'a> {
    pub red: Option<Reduction>,
    pub sbufs: &'a [Vec<u8>],
    pub lens: Lens<'a>,
}

/// The grow-only offset tables of the last request, reused across ops,
/// programs and block lengths (held by [`crate::arena::BlockArena`]).
#[derive(Debug, Default)]
pub(crate) struct Tables {
    send: Vec<usize>,
    slot: Vec<usize>,
    ends: Vec<usize>,
}

impl Tables {
    /// Resolves `prog`'s send cells (a reduce shape's slots too) against
    /// `job`'s lengths, checks the send buffers' shapes and sizes `rbufs`
    /// (the caller's spare set) to each rank's receive total — no receive
    /// offset: a gather or routed buffer is appended ([`Exec::deliver`]),
    /// a reduce shape's is one cell — counting growths into `grew`.
    /// Returns the request's staging arena: one buffer per rank for a
    /// reduce shape's folded partials, none otherwise. Dropped with the
    /// request: they are megabytes at 4 KiB blocks (1.4 MiB at n = 64 under
    /// Distance Halving), and kept warm they would sit under every later
    /// request's receive buffers — on *every* tenant of a service.
    pub(crate) fn stage(
        &mut self,
        prog: &Program,
        job: Job,
        rbufs: &mut [Vec<u8>],
        grew: &mut u64,
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        let Job { red, sbufs, lens } = job;
        self.ends.resize(prog.n, 0);
        let ends = &mut self.ends[..];
        prog.send.resolve(lens, &mut self.send, ends);
        for (rank, (sbuf, &want)) in sbufs.iter().zip(ends.iter()).enumerate() {
            if sbuf.len() != want {
                return Err(ExecError::PayloadSizeMismatch { rank, got: sbuf.len(), want });
            }
        }
        let mut arena = Vec::new();
        if prog.shape.reduces() {
            prog.slots.resolve(lens, &mut self.slot, ends);
            arena.extend(ends.iter().map(|&len| vec![0u8; len]));
        }
        prog.recv.totals(lens, ends);
        for (r, rbuf) in rbufs.iter_mut().enumerate() {
            let cap = rbuf.capacity();
            match (prog.shape, red) {
                (Shape::ReduceScatter, Some(red)) => red.fill_identity(rbuf, ends[r]),
                (Shape::Allreduce, _) => {
                    rbuf.clear();
                    rbuf.extend_from_slice(&sbufs[r]);
                }
                // [`Exec::deliver`] appends every cell: no byte of a
                // gather or routed buffer is zeroed first
                _ => {
                    rbuf.clear();
                    rbuf.reserve(ends[r]);
                }
            }
            *grew += u64::from(rbuf.capacity() != cap);
        }
        Ok(arena)
    }

    /// The `len` bytes of the receiver that `dst` names.
    fn place<'b>(
        &self,
        dst: Dst,
        len: usize,
        arena: &'b mut [u8],
        rbuf: &'b mut [u8],
    ) -> &'b mut [u8] {
        match dst {
            Dst::Slot(s) => &mut arena[self.slot[s as usize]..][..len],
            Dst::Recv => &mut rbuf[..len],
        }
    }
}

/// Where a receiver reads an arrived reduce message's blocks.
#[derive(Clone, Copy)]
pub(crate) enum Wire<'a> {
    /// In the sender's staging arena, or at a send cell (sequential).
    Sender(&'a [u8]),
    /// In the bytes [`Exec::pack`] put on the wire (threaded).
    Packed(&'a [u8]),
}

/// What a staged execution reads: a program, a request and the offset
/// tables resolved for the pair.
#[derive(Clone, Copy)]
pub(crate) struct Exec<'a> {
    pub prog: &'a Program,
    pub job: Job<'a>,
    pub off: &'a Tables,
}

/// One staged execution — what both runtimes of [`crate::exec`] run —
/// with the buffers [`Tables::stage`] sized for it.
pub(crate) struct Staged<'a> {
    pub exec: Exec<'a>,
    /// The reduce shapes' per-rank staging arena; empty otherwise.
    pub arena: Vec<Vec<u8>>,
    /// The receive buffers, one per rank.
    pub rbufs: Vec<Vec<u8>>,
}

impl<'a> Exec<'a> {
    /// Wire bytes of message `id`.
    pub(crate) fn wire_bytes(&self, id: usize) -> usize {
        self.prog.wire_bytes(id, self.job.lens)
    }

    /// Every rank's traffic under `tally`, for one `Recorder::traffic`
    /// call. A uniform request without a socket map scales the program's
    /// units (O(ranks)); walking its messages, as any other request does,
    /// makes counting `gather-small` about five times as dear.
    pub(crate) fn traffic(self, tally: Tally<'a>) -> impl Iterator<Item = (Rank, Traffic)> + 'a {
        let (prog, lens) = (self.prog, self.job.lens);
        let scaled = lens.uniform().filter(|_| tally.socket_of.is_none()).map(|m| m as u64);
        prog.units.iter().enumerate().map(move |(r, unit)| {
            let t = match scaled {
                Some(m) => {
                    let (bytes_sent, bytes_recvd) = (unit.bytes_sent * m, unit.bytes_recvd * m);
                    Traffic { bytes_sent, bytes_recvd, ..*unit }
                }
                None => prog.traffic_of(r, tally, |id| prog.wire_bytes(id, lens)),
            };
            (r, t)
        })
    }

    /// (Gather, Route) Appends rank `r`'s range of receive cells to `rbuf`,
    /// each read at its origin (`compile` vouches that each has one): the
    /// one copy of every delivered byte.
    pub(crate) fn deliver(&self, r: Rank, rbuf: &mut Vec<u8>) {
        let (prog, Job { sbufs, lens, .. }, off) = (self.prog, self.job, self.off);
        let cells = prog.recv.of(r);
        let keys = &prog.recv.key[cells.clone()];
        // a gather cell's origin is its key's one send cell
        let origins = if prog.shape == Shape::Gather { keys } else { &prog.origin[cells] };
        for (&key, &origin) in keys.iter().zip(origins) {
            let at = off.send[origin as usize];
            rbuf.extend_from_slice(&sbufs[key as usize][at..][..lens.size(key)]);
        }
    }

    /// Send cell `cell`'s `len` bytes, read in its owner's send buffer.
    fn sent(&self, cell: Ix, len: usize) -> &'a [u8] {
        let owner = self.prog.send.rank[cell as usize] as usize;
        &self.job.sbufs[owner][self.off.send[cell as usize]..][..len]
    }

    /// Packs message `id` for the wire from the send buffers and its
    /// sender's staging `arena`. A gather or routed message travels as its
    /// id alone: its blocks are read at their origins ([`Self::deliver`]).
    pub(crate) fn pack(&self, id: usize, arena: &[u8]) -> Vec<u8> {
        let prog = self.prog;
        if !prog.shape.reduces() {
            return Vec::new();
        }
        let mut wire = Vec::with_capacity(self.wire_bytes(id));
        for b in prog.blocks_of(id) {
            let len = self.job.lens.size(prog.keys[b]);
            wire.extend_from_slice(match prog.reads[b].src {
                Src::Send(c) => self.sent(c, len),
                Src::Slot(s) => &arena[self.off.slot[s as usize]..][..len],
            });
        }
        wire
    }

    /// (reduce shapes) Applies message `id`'s steps at its receiver under
    /// `red`, the job's operator — `arena` is the receiver's staging
    /// buffer, `rbuf` its receive buffer — reading the blocks from `wire`.
    pub(crate) fn integrate(
        &self,
        id: usize,
        red: Reduction,
        wire: Wire,
        arena: &mut [u8],
        rbuf: &mut [u8],
    ) {
        let (prog, lens, off) = (self.prog, self.job.lens, self.off);
        let mut at = 0;
        for b in prog.blocks_of(id) {
            let len = lens.size(prog.keys[b]);
            let bytes = match (wire, prog.reads[b].src) {
                (Wire::Sender(_), Src::Send(c)) => self.sent(c, len),
                (Wire::Sender(from), Src::Slot(s)) => &from[off.slot[s as usize]..][..len],
                (Wire::Packed(wire), _) => &wire[at..][..len],
            };
            at += len;
            for &step in &prog.steps[prog.steps_of(b)] {
                match step {
                    Step::Copy(dst) => off.place(dst, len, arena, rbuf).copy_from_slice(bytes),
                    Step::Combine(dst) => red.combine(off.place(dst, len, arena, rbuf), bytes),
                    Step::Fold { from, slot } => {
                        let out = off.place(Dst::Slot(slot), len, arena, rbuf);
                        red.combine_into(out, self.sent(from, len), bytes);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::arena::BlockArena;
    use crate::builder::build_pattern;
    use crate::collective::{DType, ReduceOp};
    use crate::exec::{execute, threaded, virtual_exec, ExecOptions};
    use crate::lower::lower;
    use crate::plan::{Algorithm, PlanPhase, PlanValidationError, PlannedMsg};
    use crate::runtime::Clock;
    use nhood_cluster::ClusterLayout;
    use nhood_telemetry::{CountingRecorder, NULL};
    use nhood_topology::random::erdos_renyi;
    use std::sync::Arc;

    thread_local! {
        /// [`compile`] calls made by the current test thread.
        pub(super) static COMPILES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// The blocks rank `r`'s receive cells take, in cell order.
    pub(crate) fn cells_of(prog: &Program, r: Rank) -> Vec<Rank> {
        prog.recv.key[prog.recv.of(r)].iter().map(|&key| key as Rank).collect()
    }

    /// [`compile`] calls the current test thread has made so far.
    pub(crate) fn compiles() -> u64 {
        COMPILES.with(std::cell::Cell::get)
    }

    const SHAPES: [Shape; 3] = [Shape::Route, Shape::ReduceScatter, Shape::Allreduce];

    fn dh_plan(n: usize, delta: f64, seed: u64) -> (Topology, CollectivePlan) {
        let g = erdos_renyi(n, delta, seed);
        let pattern = build_pattern(&g, &ClusterLayout::new(n.div_ceil(8), 2, 4)).unwrap();
        let plan = lower(&pattern, &g);
        plan.validate(&g).unwrap();
        (g, plan)
    }

    /// `plan` without the first block (phase-major) of a message that
    /// stands for an item `pick(item, peer, items the block stands for)`
    /// accepts, in a message that keeps another block: the edited plan,
    /// the phase of the edit and the picked item.
    fn drop_block(
        plan: &CollectivePlan,
        g: &Topology,
        pick: impl Fn((Rank, Rank), Rank, usize) -> bool,
    ) -> (CollectivePlan, usize, (Rank, Rank)) {
        let routing = route_items(plan, g);
        for k in 0..plan.phase_count() {
            for r in 0..plan.n() {
                for (mi, msg) in plan.phase(r, k).sends().enumerate() {
                    let items = routing.of(msg.id());
                    let of_block = |b| items.iter().filter(|it| it.0 == b).count();
                    let picked = |it: &&(Rank, Rank)| pick(**it, msg.peer(), of_block(it.0));
                    let found = items.iter().find(picked).filter(|_| msg.blocks().len() > 1);
                    if let Some(&it) = found {
                        let cut = |rows: &mut [Vec<PlanPhase>]| {
                            rows[r][k].sends[mi].blocks.retain(|&b| b != it.0);
                        };
                        return (plan.edited(cut), k, it);
                    }
                }
            }
        }
        panic!("no such item in the plan");
    }

    /// `compile` refuses `plan` for every shape with the validator's own
    /// error, and returns it.
    fn refused_for_every_shape(plan: &CollectivePlan, g: &Topology) -> PlanValidationError {
        let e = plan.validate(g).unwrap_err();
        for shape in [Shape::Gather, Shape::Route, Shape::ReduceScatter, Shape::Allreduce] {
            let got = compile(plan, g, shape).map(drop);
            assert_eq!(got, Err(ExecError::InvalidPlan(e.clone())), "{shape:?}");
        }
        e
    }

    #[test]
    fn a_dropped_item_fails_at_compile_time() {
        let (g, plan) = dh_plan(32, 0.4, 6);
        // A block a forwarding agent was to relay never reaches it: the
        // agent's own later send of it is the first to send what it does
        // not hold.
        let (relayed, k, (s, d)) = drop_block(&plan, &g, |(_, d), peer, _| d != peer);
        match refused_for_every_shape(&relayed, &g) {
            PlanValidationError::UnheldBlock { phase, block, .. } => {
                assert!(phase > k && block == s, "item ({s} -> {d}) dropped at phase {k}")
            }
            other => panic!("item ({s} -> {d}) dropped, got {other:?}"),
        }
        // A block is dropped on a hop that only delivers it: its
        // destination, which forwards its whole buffer later on under the
        // gather plan, is the first to send what it does not hold.
        let (last_hop, k, (s, d)) =
            drop_block(&plan, &g, |(_, d), peer, stands_for| d == peer && stands_for == 1);
        match refused_for_every_shape(&last_hop, &g) {
            PlanValidationError::UnheldBlock { rank, phase, block } => {
                assert!((rank, block) == (d, s) && phase > k, "item ({s} -> {d}) dropped at {k}")
            }
            other => panic!("item ({s} -> {d}) dropped, got {other:?}"),
        }
        for shape in SHAPES {
            compile(&plan, &g, shape).unwrap();
        }
    }

    #[test]
    fn malformed_peers_fail_typed() {
        let g = Topology::from_edges(3, [(0, 2), (1, 2)]);
        for peer in [0, 7] {
            let plan = crate::naive::plan_naive(&g).edited(|rows| rows[0][0].sends[0].peer = peer);
            assert_eq!(
                refused_for_every_shape(&plan, &g),
                PlanValidationError::BadPeer { rank: 0, phase: 0, peer }
            );
        }
        // a block no rank owns
        let plan = crate::naive::plan_naive(&g).edited(|rows| rows[1][0].sends[0].blocks.push(3));
        assert_eq!(
            refused_for_every_shape(&plan, &g),
            PlanValidationError::UnheldBlock { rank: 1, phase: 0, block: 3 }
        );
    }

    #[test]
    fn pat_trees_break_the_co_routing_invariant_of_the_reduce_shapes() {
        // The cause behind `check_support`'s PAT refusal: PAT's
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

    #[test]
    fn shared_leader_slots_break_the_co_routing_invariant_of_the_reduce_shapes() {
        // The cause behind `check_support`'s leader-hierarchy refusal: on
        // a node hosting at least two but fewer than `leaders_per_node`
        // ranks, two leader slots share a rank, which then relays a
        // destination's contributions in one message per slot, and no
        // held partial covers exactly the claimed sources. When this
        // starts compiling, lift the refusal.
        let n = 12;
        let pairs = (0..n).flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)));
        let g = Topology::from_edges(n, pairs);
        let layout = ClusterLayout::new(2, 2, 4); // nodes of 8 and 4 ranks
        for l in [1, 2, 4, 5, 8] {
            let plan = crate::leader::plan_hierarchical_leader(&g, &layout, l);
            plan.validate(&g).unwrap();
            compile(&plan, &g, Shape::Route).unwrap();
            let shared = crate::leader::shares_leader_slots(n, &layout, l);
            assert_eq!(shared, l > 4, "l = {l}");
            for shape in &SHAPES[1..] {
                match compile(&plan, &g, *shape) {
                    Err(ExecError::MissingBlock { .. }) if shared => {}
                    Ok(_) if !shared => {}
                    got => panic!("l = {l}, {shape:?}: {got:?}"),
                }
            }
        }
    }

    #[test]
    fn route_items_hand_a_rank_each_source_in_one_message() {
        // The lemma of the module docs' coalescing proof: every item
        // `(s, ·)` a rank receives rides the message that first handed
        // it block `s`, under every planner that serves the reduce shapes.
        let g = erdos_renyi(40, 0.3, 4);
        let layout = ClusterLayout::new(5, 2, 4);
        let comm = crate::comm::DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
        for algo in [
            Algorithm::DistanceHalving,
            Algorithm::Naive,
            Algorithm::CommonNeighbor { k: 2 },
            Algorithm::CommonNeighbor { k: 4 },
            Algorithm::HierarchicalLeader { leaders_per_node: 1 },
            Algorithm::HierarchicalLeader { leaders_per_node: 2 },
            Algorithm::HierarchicalLeader { leaders_per_node: 8 },
            Algorithm::Bruck,
        ] {
            let plan = comm.alltoall_plan(algo).unwrap();
            let routing = route_items(&plan, &g);
            let mut slot = std::collections::BTreeMap::new();
            for k in 0..plan.phase_count() {
                for r in 0..plan.n() {
                    for msg in plan.phase(r, k).sends() {
                        for &(s, _) in routing.of(msg.id()) {
                            let first = *slot.entry((msg.peer(), s)).or_insert(msg.id());
                            assert_eq!(first, msg.id(), "{algo}: source {s} at {}", msg.peer());
                        }
                    }
                }
            }
            compile(&plan, &g, Shape::Allreduce).unwrap();
        }
    }

    /// Five ranks; 0 and 1 each feed 3 and 4 through the pure agent 2,
    /// which folds destination 3's partial as (x0, x1) and destination
    /// 4's as (x1, x0), then ships both to 3 in one message. No gather
    /// plan routes like this — agent 2 gets x0's items in two messages,
    /// which [`route_items`] never does — so the walk is driven by hand.
    fn crossed_folds(shape: Shape) -> (Topology, Program) {
        type Send = (Rank, Rank, &'static [(Rank, Rank)]);
        let g = Topology::from_edges(5, [(0, 3), (0, 4), (1, 3), (1, 4)]);
        let phases: [&[Send]; 4] = [
            &[(0, 2, &[(0, 3)]), (1, 2, &[(1, 4)])],
            &[(0, 2, &[(0, 4)]), (1, 2, &[(1, 3)])],
            &[(2, 3, &[(0, 3), (1, 3), (0, 4), (1, 4)])],
            &[(3, 4, &[(0, 4), (1, 4)])],
        ];
        // the plan of these sends; their blocks go unread, as a reduce
        // shape carries `items`, each send's in id order: rank, phase, send
        let (mut rows, mut items) = (vec![Vec::new(); g.n()], Vec::new());
        for (r, row) in rows.iter_mut().enumerate() {
            for (k, sends) in phases.iter().enumerate() {
                let mut phase = PlanPhase::default();
                for &(_, peer, carried) in sends.iter().filter(|s| s.0 == r) {
                    phase.sends.push(PlannedMsg { peer, blocks: Vec::new(), tag: k as u64 });
                    items.push(carried);
                }
                row.push(phase);
            }
        }
        let plan = CollectivePlan::from_rows(Algorithm::Naive, None, &rows);
        let prog = lay_out(&plan, &g, shape, 0, |id| items[id]).unwrap();
        (g, prog)
    }

    #[test]
    fn allreduce_coalesces_by_source_set_on_every_lane() {
        let m = 8;
        let sizes = BlockSizes::uniform(m);
        let payloads: Vec<Vec<u8>> = (0..5u8)
            .map(|r| [1.5f32 + f32::from(r), -0.25 * f32::from(r)].map(f32::to_le_bytes).concat())
            .collect();
        let agent_ships = |shape| {
            crossed_folds(shape).1.schedule(&sizes).phases(2).nth(2).unwrap().sends[0].bytes
        };
        assert_eq!(agent_ships(Shape::Allreduce), m, "same sources: one block");
        assert_eq!(agent_ships(Shape::ReduceScatter), 2 * m, "per-destination values");

        // an f32 and an integer allreduce run one program
        let (g, prog) = crossed_folds(Shape::Allreduce);
        for red in
            [Reduction::new(ReduceOp::Max, DType::U32), Reduction::new(ReduceOp::Sum, DType::F32)]
        {
            assert_eq!(Shape::of(CollectiveOp::Allreduce(red)), Shape::Allreduce);
            let job = Job { red: Some(red), sbufs: &payloads, lens: Lens::Table(&sizes) };
            let mut arena = BlockArena::new();
            let [v, t] = [false, true].map(|threaded| {
                let mut staged = arena.stage(&prog, job).unwrap();
                if threaded {
                    let (opts, stats) = (ExecOptions::new(), Default::default());
                    threaded::run(&mut staged, &opts, &stats, Clock::Wall).unwrap();
                } else {
                    virtual_exec::run(&mut staged, &NULL);
                }
                staged.rbufs
            });
            assert_eq!(v, t, "{red}");
            if red.dtype != DType::F32 {
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
        let op = CollectiveOp::ReduceScatter(red);
        let plan = Arc::new(plan);
        let prog = compile(&plan, &g, Shape::ReduceScatter).unwrap();
        let want = prog.schedule(&sizes).total_bytes() as u64;
        for fill in [|_: usize| 7u8, |i: usize| (i * 37 + 11) as u8] {
            let sbufs: Vec<Vec<u8>> = (0..24)
                .map(|p| {
                    let len: usize = g.out_neighbors(p).iter().map(|&d| sizes.size(d)).sum();
                    (0..len).map(|i| fill(i + p)).collect()
                })
                .collect();
            let rec = CountingRecorder::new(24);
            let (arena, opts) = (&mut BlockArena::new(), ExecOptions::new().recorder(&rec));
            let got = execute(op, Some(&sizes), &plan, &g, &sbufs, arena, None, &opts).unwrap();
            let reference = crate::collective::reference_reduce_scatter(&g, &sbufs, &sizes, red);
            assert_eq!(got.rbufs, reference);
            assert_eq!(rec.totals().bytes_sent, want);
        }
    }

    #[test]
    fn payload_shapes_are_checked_against_the_program() {
        let (g, plan) = dh_plan(16, 0.4, 2);
        let (plan, sizes) = (Arc::new(plan), BlockSizes::uniform(4));
        let mut sbufs: Vec<Vec<u8>> = (0..16).map(|p| vec![1; g.outdegree(p) * 4]).collect();
        let (arena, opts) = (&mut BlockArena::new(), ExecOptions::new());
        let mut run = |sbufs: &[Vec<u8>]| {
            execute(CollectiveOp::Alltoallv, Some(&sizes), &plan, &g, sbufs, arena, None, &opts)
        };
        run(&sbufs).unwrap();
        sbufs[5].push(0);
        assert!(matches!(run(&sbufs), Err(ExecError::PayloadSizeMismatch { rank: 5, .. })));
        sbufs.pop();
        assert!(matches!(run(&sbufs), Err(ExecError::PayloadCountMismatch { got: 15, want: 16 })));
    }

    #[test]
    fn every_compiled_table_keeps_its_bits() {
        use crate::comm::DistGraphComm;
        // Per (n, δ, seed, nodes of 2 × 8) and planner — naive, DH,
        // CN (k = 4), HL (l = 2), Bruck, PAT (r = 2) — the FNV-1a of the
        // `Debug` rendering of each shape's program (gather, route,
        // reduce_scatter, allreduce): every table it holds, or the error
        // the compile refuses with (PAT's trees under the reduce shapes).
        type Graph = (usize, f64, u64, usize);
        #[rustfmt::skip]
        const GOLDEN: [(Graph, [[u64; 4]; 6]); 3] = [
            ((64, 0.2, 300, 4), [
                [0x131ae2cd233c8bc9, 0x928de5c0962a5299, 0xc93a4ee128a32f73, 0x1eebeacb56f8fce2],
                [0x8153ce77288f46b6, 0xbf9d063bf25719b1, 0x502ec6c9fffd2833, 0x59fdd56dff6930cc],
                [0x18e2b80035cd80d3, 0x9c6d7a956f36c16c, 0x3d22822761ed9600, 0x6717de64e431310b],
                [0xcbb5867e5ad9cc26, 0x5da912a319482618, 0xc2f5acc599a13885, 0x514820e6003577e6],
                [0xb07029244b6e05b5, 0xd479776b02ad25a6, 0x2f02005b83f9698b, 0x5fc36f3aa23624ab],
                [0x1b588bb94fe54e51, 0x2e95593cfc3cd0b9, 0xc6fd6574e5ee1664, 0xc6fd6574e5ee1664],
            ]),
            ((48, 0.3, 7, 3), [
                [0x2219dcab0b809f21, 0xab864dd83ec1fe78, 0x0e4940f31ebb6ece, 0x72d4cf59d8ffbbbc],
                [0xe749f4a50d6f20dd, 0x8aec73415a1b66d5, 0x23930384b1b01ee2, 0x2c7f95dbae9d4b68],
                [0x874d1fae8d234794, 0x35ad09c11a20cb53, 0x11ccee04ea09356e, 0xaef69f7aee5d46df],
                [0x0edf53b7074d9d3d, 0xb694d8539344d4ff, 0xf908c9cb500d2220, 0xe4502e2181aeb0a6],
                [0xd12f36d94a4b4eae, 0xecbbc3bc4df835d4, 0xdb75ac3834bd0b45, 0x0e8ea2645d80defb],
                [0x26596cdcebd785b3, 0xe953a6fb4b74ecf8, 0x03a045ca30d0e070, 0x03a045ca30d0e070],
            ]),
            ((17, 0.5, 5, 2), [
                [0x0ad9ed006d6e166b, 0xafdaff743ca0a83e, 0xc446fa72dfe9cb59, 0x1a11255f9fd79077],
                [0x452fa9ae94ff7d85, 0xdb7af1f99ba160b3, 0xd59568fbb273f254, 0x13ab265af9e39475],
                [0x36028a5080a7891f, 0x032f3061fe7e2c1e, 0x23ba347c78568e1e, 0x093049afe1f6164c],
                [0x09a4a178e5c259fb, 0x5ee5644fb42d91f5, 0xc40cf9c5640e054d, 0xc5ed0258665239cc],
                [0x3f5881e92321cc57, 0xff17b1d708482617, 0x6ff6ff3d19dbe761, 0xa1565694b2664dfc],
                [0x89c88808a007233b, 0x947283225d72f7a6, 0x77311bb97898d9f2, 0x77311bb97898d9f2],
            ]),
        ];
        let algos = [
            Algorithm::Naive,
            Algorithm::DistanceHalving,
            Algorithm::CommonNeighbor { k: 4 },
            Algorithm::HierarchicalLeader { leaders_per_node: 2 },
            Algorithm::Bruck,
            Algorithm::Pat { radix: 2 },
        ];
        let shapes = [Shape::Gather, Shape::Route, Shape::ReduceScatter, Shape::Allreduce];
        let fnv = |s: String| {
            let fold = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            s.bytes().fold(0xcbf2_9ce4_8422_2325, fold)
        };
        let mut refusals = 0;
        for ((n, delta, seed, nodes), want) in GOLDEN {
            let g = erdos_renyi(n, delta, seed);
            let comm = DistGraphComm::create_adjacent(g.clone(), ClusterLayout::new(nodes, 2, 8));
            let comm = comm.unwrap();
            let got = algos.map(|algo| {
                let plan = comm.alltoall_plan(algo).unwrap();
                shapes.map(|shape| match compile(&plan, &g, shape) {
                    Ok(prog) => fnv(format!("{prog:?}")),
                    Err(e) => {
                        refusals += 1;
                        fnv(format!("{e:?}"))
                    }
                })
            });
            assert_eq!(got, want, "n = {n}: {got:#018x?}");
        }
        assert_eq!(refusals, 6, "PAT x reduce on each graph");
    }

    #[test]
    fn a_partial_is_staged_only_when_it_folds() {
        use crate::comm::DistGraphComm;
        // (n, δ, seed, nodes of 2 × 8), and the slots each planner's
        // reduce programs took when every partial reaching a forwarding
        // agent was copied into one: DH, HL (l = 2), Bruck, CN (k = 4),
        // naive. Both reduce shapes stage the same partials.
        let graphs = [
            ((64, 0.2, 300, 4), [670, 429, 245, 172, 0]),
            ((48, 0.3, 7, 3), [501, 258, 141, 178, 0]),
        ];
        let algos = [
            Algorithm::DistanceHalving,
            Algorithm::HierarchicalLeader { leaders_per_node: 2 },
            Algorithm::Bruck,
            Algorithm::CommonNeighbor { k: 4 },
            Algorithm::Naive,
        ];
        for ((n, delta, seed, nodes), staged_on_arrival) in graphs {
            let g = erdos_renyi(n, delta, seed);
            let layout = ClusterLayout::new(nodes, 2, 8);
            let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
            for (algo, before) in algos.into_iter().zip(staged_on_arrival) {
                let plan = comm.alltoall_plan(algo).unwrap();
                for shape in &SHAPES[1..] {
                    let prog = compile(&plan, &g, *shape).unwrap();
                    let (mut folds, mut slot_copies) = (0, 0);
                    for (b, read) in prog.reads.iter().enumerate() {
                        for step in &prog.steps[prog.steps_of(b)] {
                            match (read.src, step) {
                                (Src::Send(_), Step::Copy(Dst::Slot(_))) => {
                                    panic!("{algo} {shape:?}: block {b} is copied off a send cell")
                                }
                                (_, Step::Copy(Dst::Slot(_))) => slot_copies += 1,
                                (_, Step::Fold { .. }) => folds += 1,
                                _ => {}
                            }
                        }
                    }
                    // a slot is a fold, or a folded partial's first arrival
                    let slots = prog.slots.rank.len();
                    assert_eq!(slots, folds + slot_copies, "{algo} {shape:?}");
                    if matches!(algo, Algorithm::CommonNeighbor { .. } | Algorithm::Naive) {
                        assert_eq!(slots, before, "{algo} {shape:?}: n = {n}");
                    } else {
                        assert!(slots < before, "{algo} {shape:?}: {slots} slots at n = {n}");
                    }
                }
            }
        }
    }
}
