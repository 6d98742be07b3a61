//! The compiled program: what every collective executes.
//!
//! [`compile`] walks a gather plan once per *op shape* ([`Shape`])
//! symbolically — no bytes, no size table — fixing everything a request
//! would otherwise rediscover: where every held block, item or partial
//! lives (a cell of the caller's send buffer, a slot of the rank's arena,
//! or a cell of the receive buffer), which wire blocks each message
//! carries, and the exact `copy` / `combine` steps each arrival performs,
//! in the `(peer, tag)` integration order that makes f32 results
//! bit-identical across backends. A gather executes the plan's block
//! messages as they are; the combining shapes execute the item routing
//! the plan implies ([`crate::alltoall::route_items`]). A plan that
//! forwards what its sender does not hold, never delivers an in-neighbor's
//! contribution, or (gather) posts receives its sends do not mirror fails
//! *here* with [`ExecError::MissingBlock`] / [`ExecError::Undelivered`] —
//! before any byte moves.
//!
//! A request then resolves offsets and receive totals against its block
//! lengths ([`Tables::stage`]: O(cells), no allocation once warm) and
//! does nothing but `copy_from_slice` / [`Reduction::combine`]
//! ([`Exec::integrate`], the one data path of both runtimes in
//! [`crate::exec`]). Gather and routed blocks are never modified in
//! flight, so a receiver reads each one at its origin's send buffer and
//! nothing is staged; only reduce partials parked at a forwarding agent
//! occupy arena slots, and those bytes live for the one request.
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
//! co-routing invariant ([`Walk::pack_partials`]). By induction on the
//! phase — a partial starts as its rank's own leaf or its first arrival —
//! its fold tree, and with it every f32 bit, depends only on its rank and
//! source set. reduce_scatter contributions are distinct per destination
//! and routed items are distinct per edge; neither ever merges. Wire
//! bytes are therefore a pure function of (plan, shape, block lengths) —
//! never of payload contents.

use super::{CollectiveOp, Reduction};
use crate::alltoall::route_items;
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

/// Where a wire block's bytes live on the sender.
#[derive(Clone, Copy, Debug)]
enum Src {
    /// A cell of the sender's send buffer (first hop).
    Send(Ix),
    /// A slot of the sender's arena.
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
    /// First arrival: `dst = wire` (copied, *not* folded into the
    /// identity — `-0.0` must survive an f32 sum).
    Copy(Dst),
    /// `dst = dst ⊕ wire`.
    Combine(Dst),
    /// The receiver's own contribution still sits in its send buffer
    /// (cell `from`), which is read-only: `slot = send[from] ⊕ wire`.
    Fold { from: Ix, slot: Ix },
}

/// A wire block: `size(key)` bytes read at `src`, then applied by
/// `steps[..steps_end]` (from the previous block's end).
#[derive(Clone, Copy, Debug)]
struct Block {
    key: Ix,
    src: Src,
    steps_end: Ix,
}

/// A message: `blocks[..blocks_end]` (from the previous message's end),
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
    fn with_capacity(cells: usize) -> Self {
        Self { rank: Vec::with_capacity(cells), key: Vec::with_capacity(cells) }
    }

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
    fn with_capacity(ranks: usize, cells: usize) -> Self {
        Self { ends: Vec::with_capacity(ranks), key: Vec::with_capacity(cells) }
    }

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
    /// (Gather, Route) per receive cell: the send cell, on the rank its
    /// key names, the block it receives starts in. Nothing modifies such
    /// a block in flight, so delivery is a copy from there.
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
    blocks: Vec<Block>,
    steps: Vec<Step>,
    send: Cells,
    slots: Cells,
    /// Per rank: its in-neighbors (gather, route), or itself (reduce).
    recv: RankCells,
    /// Per rank, its traffic at one byte per block ([`Exec::traffic`]).
    units: Vec<Traffic>,
}

// ---------------------------------------------------------------------
// Compile: one symbolic walk of the plan
// ---------------------------------------------------------------------

/// `holder` value of a contribution that left its rank this phase.
const IN_FLIGHT: usize = usize::MAX;
/// `holder` value of a contribution folded into its destination.
const DELIVERED: usize = usize::MAX - 1;

/// A partial held at a rank (reduce shapes): the contributions of
/// `count` sources to `dst`.
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

/// The symbolic walk: who holds what, phase by phase, and the program
/// emitted so far. All tables are dense — per edge or per rank.
struct Walk<'g> {
    graph: &'g Topology,
    /// Per edge: the rank holding its contribution, or a sentinel.
    holder: Vec<usize>,
    /// (reduce) per rank: the partials held, sorted by destination.
    held: Vec<Vec<Held>>,
    /// (reduce) per rank: has the receive buffer taken its first value?
    acc_live: Vec<bool>,
    // the phase in flight, between its passes
    pend: Vec<PendMsg>,
    pblocks: Vec<PendBlock>,
    pdsts: Vec<PendDst>,
    /// `(edge, holder after the phase)` of everything claimed in pass 1.
    moved: Vec<(usize, usize)>,
    /// One message's items as `(dst, src)`, sorted.
    claimed: Vec<(Rank, Rank)>,
    prog: Program,
}

impl<'g> Walk<'g> {
    /// Seeds the walk: every contribution starts in a cell of its
    /// source's send buffer.
    fn new(graph: &'g Topology, shape: Shape, phases: usize) -> Self {
        let n = graph.n();
        let reduce = shape.reduces();
        let allreduce = shape == Shape::Allreduce;
        let (mut send, mut recv) = (Cells::default(), RankCells::with_capacity(n, 0));
        let mut holder = Vec::with_capacity(graph.edge_count());
        let mut held: Vec<Vec<Held>> = vec![Vec::new(); n];
        for (p, mine) in held.iter_mut().enumerate() {
            // allreduce: one cell, x_p, feeds every destination
            let own = if allreduce { send.push(p, p) } else { 0 };
            for &d in graph.out_neighbors(p) {
                holder.push(p);
                match shape {
                    Shape::Gather => unreachable!("`compile` hands gathers to `compile_gather`"),
                    Shape::Route => drop(send.push(p, p)),
                    Shape::ReduceScatter => {
                        let at = Src::Send(send.push(p, d));
                        mine.push(Held { dst: d, at, count: 1 });
                    }
                    Shape::Allreduce => mine.push(Held { dst: d, at: Src::Send(own), count: 1 }),
                }
            }
            recv.push_rank(if reduce { std::slice::from_ref(&p) } else { graph.in_neighbors(p) });
        }
        Walk {
            graph,
            holder,
            held,
            // allreduce folds into x_t, already in place; reduce_scatter
            // copies its first arrival
            acc_live: vec![allreduce; n],
            pend: Vec::new(),
            pblocks: Vec::new(),
            pdsts: Vec::new(),
            moved: Vec::new(),
            claimed: Vec::new(),
            prog: Program {
                shape,
                n,
                phases,
                labels: Vec::new(),
                copies: Vec::new(),
                origin: if reduce { Vec::new() } else { vec![0; graph.edge_count()] },
                msgs: Vec::new(),
                recv_ends: Vec::with_capacity(phases * n),
                send_order: Vec::new(),
                send_ends: Vec::with_capacity(phases * n),
                blocks: Vec::new(),
                steps: Vec::new(),
                send,
                slots: Cells::default(),
                recv,
                units: Vec::new(),
            },
        }
    }

    /// Takes edge `(s, d)`'s contribution off rank `r` for a message to
    /// `peer`; `None` when `r` does not hold it (any more).
    fn claim(&mut self, r: Rank, peer: Rank, (s, d): (Rank, Rank)) -> Option<usize> {
        let e = self.graph.edge_id(s, d).filter(|&e| self.holder[e] == r)?;
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
                // a routed item is never modified: it is read where it
                // started, whoever forwards it
                let src = Src::Send(e as Ix);
                self.pblocks.push(PendBlock { key: s, src, claim: (0, 0) });
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
            // the same by construction (module docs) — the allreduce first
            // hop carries x_src once, not once per destination.
            let sources = |(lo, hi): (usize, usize)| claimed[lo..hi].iter().map(|c| c.1);
            let twin = self.pblocks[b0..]
                .iter()
                .position(|b| shape == Shape::Allreduce && sources(b.claim).eq(sources((lo, hi))));
            let block = match twin {
                Some(i) => b0 + i,
                None => {
                    let key = if shape == Shape::ReduceScatter { d } else { 0 };
                    self.pblocks.push(PendBlock { key, src: h.at, claim: (lo, hi) });
                    self.pblocks.len() - 1
                }
            };
            self.pdsts.push(PendDst { block, dst: d, count: run.len(), edge: 0 });
            lo = hi;
        }
        if self.pblocks.len() - b0 < self.pdsts.len() - d0 {
            // blocks were shared: group arrivals by wire block; stable, so
            // each block keeps its destinations ascending
            self.pdsts[d0..].sort_by_key(|pd| pd.block);
        }
        self.claimed = claimed;
        Ok(())
    }

    /// Pass 2 for one `(block, destination)` arrival at rank `at`: the
    /// step the receiver runs, and the bookkeeping it implies. A routed
    /// item has none: reaching its destination fills in where the
    /// receive cell is read ([`Exec::deliver`]).
    fn arrive(&mut self, at: Rank, pb: PendBlock, pd: PendDst) -> Option<Step> {
        let d = pd.dst;
        if self.prog.shape == Shape::Route {
            if d == at {
                // INVARIANT: `claim` resolved `(key, d)` to an edge.
                let cell = self.graph.recv_slot(d, pb.key).expect("a source is an in-neighbor");
                self.prog.origin[self.prog.recv.of(d).start + cell] = pd.edge as Ix;
            }
            return None;
        }
        Some(self.arrive_partial(at, pb, pd))
    }

    /// [`Self::arrive`] for the reduce shapes.
    fn arrive_partial(&mut self, at: Rank, pb: PendBlock, pd: PendDst) -> Step {
        let d = pd.dst;
        if d == at {
            return if std::mem::replace(&mut self.acc_live[at], true) {
                Step::Combine(Dst::Recv)
            } else {
                Step::Copy(Dst::Recv)
            };
        }
        match self.held[at].binary_search_by_key(&d, |h| h.dst) {
            Ok(pos) => {
                let h = &mut self.held[at][pos];
                h.count += pd.count;
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
                let h = Held { dst: d, at: Src::Slot(slot), count: pd.count };
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
                self.prog.recv_ends.push(self.prog.msgs.len() as Ix);
                receiver += 1;
            }
            final_id[pi] = self.prog.msgs.len();
            let mut arrivals = pm.dsts.clone().peekable();
            for b in pm.blocks.clone() {
                let pb = self.pblocks[b];
                while let Some(i) = arrivals.next_if(|&i| self.pdsts[i].block == b) {
                    let pd = self.pdsts[i];
                    let step = self.arrive(pm.dst, pb, pd);
                    self.prog.steps.extend(step);
                }
                let steps_end = self.prog.steps.len() as Ix;
                self.prog.blocks.push(Block { key: pb.key as Ix, src: pb.src, steps_end });
            }
            let blocks_end = self.prog.blocks.len();
            self.prog.msgs.push(ProgMsg { src: pm.src, dst: pm.dst, tag: pm.tag, blocks_end });
        }
        while receiver < self.prog.n {
            self.prog.recv_ends.push(self.prog.msgs.len() as Ix);
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

/// Compiles `plan` for `shape`: the plan's own block messages for a
/// gather ([`compile_gather`]), the item routing it implies
/// ([`route_items`]) otherwise — there a message the routing leaves
/// without an item is not in the program.
///
/// # Errors
/// [`ExecError::MissingBlock`] when a message forwards a block (an item;
/// for the reduce shapes, a partial over exactly the claimed sources) its
/// sender does not hold at that phase, or names a peer that is out of
/// range or the sender itself; [`ExecError::Undelivered`] when an
/// in-neighbor's contribution never reaches its destination — the lowest
/// (rank, in-neighbor) — or, for a gather, when a rank's posted receives
/// are not the arrivals its peers' sends imply ([`check_recvs`]).
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
    let mut prog = if shape == Shape::Gather {
        compile_gather(plan, graph)?
    } else {
        let routing = route_items(plan, graph)?;
        let mut walk = Walk::new(graph, shape, plan.phase_count());
        for k in 0..plan.phase_count() {
            let sent_before = walk.prog.send_order.len();
            for r in 0..n {
                for msg in plan.phase(r, k).sends() {
                    let items = routing.of(msg.id());
                    if !items.is_empty() {
                        walk.pack((r, k), (msg.peer(), msg.tag(), items))?;
                    }
                }
                walk.prog.send_ends.push((sent_before + walk.pend.len()) as Ix);
            }
            walk.integrate();
        }
        // every edge's contribution must have reached its destination
        for r in 0..n {
            for &s in graph.in_neighbors(r) {
                // INVARIANT: `Topology` keeps its in- and out-lists mirrored.
                let e = walk.graph.edge_id(s, r).expect("in/out consistency");
                if walk.holder[e] != DELIVERED {
                    return Err(ExecError::Undelivered { rank: r, block: s });
                }
            }
        }
        walk.prog
    };
    prog.labels.extend((0..prog.phases).map(|k| phase_label(plan, k)));
    let blocks = |id| prog.blocks_of(id).len();
    prog.units = (0..n).map(|r| prog.traffic_of(r, Tally::default(), blocks)).collect();
    Ok(prog)
}

/// The gather walk: the program is the plan's own messages, every
/// planned `(message, block)` on the wire. Block `b` starts in rank
/// `b`'s one send cell; its first arrival at a rank takes a slot there
/// and, when `b` is an in-neighbor, delivers its receive cell; a block
/// the rank already holds (its own included) carries the same bytes
/// again and changes nothing. No step is emitted: nothing modifies a
/// block in flight, so delivery reads it at its origin
/// ([`Exec::deliver`]). Errors as [`compile`]'s, a `MissingBlock` being
/// the lowest (phase, receiver, sender, tag).
fn compile_gather(plan: &CollectivePlan, graph: &Topology) -> Result<Program, ExecError> {
    let (n, phases) = (graph.n(), plan.phase_count());
    let (msgs, blocks) = (plan.message_count(), plan.total_blocks_sent());
    let mut prog = Program {
        shape: Shape::Gather,
        n,
        phases,
        labels: Vec::with_capacity(phases),
        copies: Vec::with_capacity(phases * n),
        origin: vec![Ix::MAX; graph.edge_count()],
        msgs: Vec::with_capacity(msgs),
        recv_ends: Vec::with_capacity(phases * n),
        send_order: vec![0; msgs],
        send_ends: Vec::with_capacity(phases * n),
        blocks: Vec::with_capacity(blocks),
        steps: Vec::new(),
        send: Cells::with_capacity(n),
        slots: Cells::with_capacity(blocks),
        recv: RankCells::with_capacity(n, graph.edge_count()),
        units: Vec::new(),
    };
    // per rank: the blocks held, sorted, and where (own block first)
    let mut held: Vec<Vec<(Ix, Src)>> = Vec::with_capacity(n);
    for p in 0..n {
        let mut mine = Vec::with_capacity(1 + graph.indegree(p));
        mine.push((p as Ix, Src::Send(prog.send.push(p, p))));
        held.push(mine);
        prog.recv.push_rank(graph.in_neighbors(p));
    }
    // the phase in flight: (receiver, sender, message, position in send order)
    let mut pend: Vec<(Rank, Rank, MsgView<'_>, usize)> = Vec::new();
    for k in 0..phases {
        let sent_before = prog.msgs.len();
        pend.clear();
        for r in 0..n {
            let phase = plan.phase(r, k);
            for msg in phase.sends() {
                let peer = msg.peer();
                if peer >= n || peer == r {
                    return Err(ExecError::MissingBlock { rank: r, block: peer, phase: k });
                }
                pend.push((peer, r, msg, sent_before + pend.len()));
            }
            prog.send_ends.push((sent_before + pend.len()) as Ix);
            prog.copies.push(phase.copy_blocks() as Ix);
        }
        // integration order: per receiver, ascending (sender, tag)
        pend.sort_unstable_by_key(|&(dst, src, msg, sent)| (dst, src, msg.tag(), sent));
        // Pass 1: every send against its sender's *pre-phase* possession
        // (arrivals integrate only after every send is fixed).
        let mut receiver = 0;
        for &(dst, src, msg, sent) in &pend {
            for _ in receiver..dst {
                prog.recv_ends.push(prog.msgs.len() as Ix);
            }
            receiver = dst;
            for &b in msg.blocks() {
                let at = held[src].binary_search_by_key(&(b as Ix), |h| h.0).ok().filter(|_| b < n);
                let Some(at) = at else {
                    return Err(ExecError::MissingBlock { rank: src, block: b, phase: k });
                };
                prog.blocks.push(Block { key: b as Ix, src: held[src][at].1, steps_end: 0 });
            }
            prog.send_order[sent] = prog.msgs.len();
            prog.msgs.push(ProgMsg { src, dst, tag: msg.tag(), blocks_end: prog.blocks.len() });
        }
        for _ in receiver..n {
            prog.recv_ends.push(prog.msgs.len() as Ix);
        }
        // Pass 2: the arrivals, in integration order.
        for id in sent_before..prog.msgs.len() {
            let at = prog.msgs[id].dst;
            for b in prog.blocks_of(id) {
                let key = prog.blocks[b].key;
                if let Err(pos) = held[at].binary_search_by_key(&key, |h| h.0) {
                    let slot = prog.slots.push(at, key as Rank);
                    held[at].insert(pos, (key, Src::Slot(slot)));
                    if let Some(cell) = graph.recv_slot(at, key as Rank) {
                        prog.origin[prog.recv.of(at).start + cell] = key;
                    }
                }
            }
        }
    }
    if let Some(cell) = prog.origin.iter().position(|&from| from == Ix::MAX) {
        let rank = prog.recv.ends.partition_point(|&end| end as usize <= cell);
        return Err(ExecError::Undelivered { rank, block: prog.recv.key[cell] as Rank });
    }
    check_recvs(plan, &prog)?;
    Ok(prog)
}

/// A gather runs what the sends say, so every receive `plan` posts must
/// be an arrival they imply: per (phase, rank), the posted receives in
/// `(peer, tag)` order against the program's arrivals — same peers, tags
/// and block lists. The lowest (phase, rank, position) that differs is
/// [`ExecError::Undelivered`] at that rank, naming the first block of the
/// posted receive (of the arrival nobody posted; its peer when it lists
/// no block).
fn check_recvs(plan: &CollectivePlan, prog: &Program) -> Result<(), ExecError> {
    let mut posted: Vec<MsgView<'_>> = Vec::new();
    for k in 0..prog.phases {
        for r in 0..plan.n() {
            posted.clear();
            posted.extend(plan.phase(r, k).recvs());
            posted.sort_by_key(|m| (m.peer(), m.tag()));
            let arrived = prog.recvs(k, r);
            let blocks = |id: usize| prog.blocks[prog.blocks_of(id)].iter().map(|b| b.key as Rank);
            for i in 0..posted.len().max(arrived.len()) {
                let (want, got) = (posted.get(i), arrived.clone().nth(i));
                let mirrored = want.zip(got).is_some_and(|(m, id)| {
                    let sent = prog.msgs[id];
                    (m.peer(), m.tag()) == (sent.src, sent.tag)
                        && blocks(id).eq(m.blocks().iter().copied())
                });
                if !mirrored {
                    let block = match (want, got) {
                        (Some(m), _) => m.blocks().first().copied().unwrap_or(m.peer()),
                        (None, Some(id)) => blocks(id).next().unwrap_or(prog.msgs[id].src),
                        (None, None) => unreachable!("`i` is below one of the two lengths"),
                    };
                    return Err(ExecError::Undelivered { rank: r, block });
                }
            }
        }
    }
    Ok(())
}

impl Program {
    /// Compiles the gather program of `plan` on `graph`: every block a
    /// rank ever holds gets a slot (after the rank's own block, in
    /// arrival order) and every planned message is resolved against
    /// them, so a corrupt plan fails here — [`ExecError::MissingBlock`]
    /// for a send of a never-held block, [`ExecError::Undelivered`] for
    /// an in-neighbor whose block never arrives — before any bytes move.
    pub fn for_plan(plan: &CollectivePlan, graph: &Topology) -> Result<Self, ExecError> {
        compile(plan, graph, Shape::Gather)
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Fraction of messages whose blocks sit back to back in the
    /// sender's buffer — its own block, then its slots in arrival order.
    /// Distance Halving halving-phase sends are 100% contiguous by
    /// construction (arrivals append in `main_buf` order, Algorithm 4
    /// line 15): the growing-message combine §V's bandwidth term models.
    pub fn contiguous_send_fraction(&self) -> f64 {
        let mut held = vec![1usize; self.n];
        let position: Vec<usize> = (self.slots.rank.iter())
            .map(|&r| {
                held[r as usize] += 1;
                held[r as usize] - 1
            })
            .collect();
        let at = |b: &Block| match b.src {
            Src::Send(_) => 0,
            Src::Slot(slot) => position[slot as usize],
        };
        let one = (0..self.msgs.len())
            .map(|id| &self.blocks[self.blocks_of(id)])
            .filter(|bs| !bs.is_empty() && bs.windows(2).all(|w| at(&w[1]) == at(&w[0]) + 1))
            .count();
        if self.msgs.is_empty() {
            1.0
        } else {
            one as f64 / self.msgs.len() as f64
        }
    }

    /// The blocks rank `r`'s slots hold, in slot order.
    #[cfg(test)]
    pub(crate) fn slots_of(&self, r: Rank) -> Vec<Rank> {
        let held =
            self.slots.rank.iter().zip(&self.slots.key).filter(|(&rank, _)| rank as Rank == r);
        held.map(|(_, &block)| block as Rank).collect()
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
        let start = if b == 0 { 0 } else { self.blocks[b - 1].steps_end };
        start as usize..self.blocks[b].steps_end as usize
    }

    /// Wire bytes of message `id` under `lens`.
    fn wire_bytes(&self, id: usize, lens: Lens) -> usize {
        self.blocks[self.blocks_of(id)].iter().map(|b| lens.size(b.key)).sum()
    }

    /// The simulator schedule of one execution under `sizes` (uniform
    /// for an allreduce, whose blocks all take the table's one size): the
    /// plan's phases with every message at its *combined* wire size.
    pub(crate) fn schedule(&self, sizes: &BlockSizes) -> Schedule {
        let msgs = self.msgs.len();
        let mut sched = Schedule::with_rows(self.n, self.phases * self.n, msgs, msgs);
        self.lower(sizes, &mut sched);
        sched
    }

    /// [`schedule`](Self::schedule)'s lowering into any [`PhaseWriter`]:
    /// a whole schedule, or the price columns of one already prepared.
    pub(crate) fn lower(&self, sizes: &BlockSizes, out: &mut impl PhaseWriter) {
        let msg = |id: usize| {
            let m = &self.msgs[id];
            let bytes = self.wire_bytes(id, Lens::Table(sizes));
            Msg { src: m.src, dst: m.dst, bytes, tag: m.tag }
        };
        for r in 0..self.n {
            for k in 0..self.phases {
                let sends = self.sends(k, r).iter().map(|&id| msg(id));
                out.push_phase(r, 0.0, sends, self.recvs(k, r).map(msg));
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
    /// reduce shape's slots, none otherwise. Dropped with the request: a
    /// forwarding agent's parked partials are megabytes at 4 KiB blocks,
    /// and kept warm they would sit under every later request's receive
    /// buffers — on *every* tenant of a service.
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

    /// The `len` bytes of send cell `cell` in its rank's `sbuf`.
    fn sent<'b>(&self, sbuf: &'b [u8], cell: Ix, len: usize) -> &'b [u8] {
        &sbuf[self.send[cell as usize]..][..len]
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
    /// In the sender's staging arena and send buffer (sequential).
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
    /// each read at its origin (`compile`'s `Undelivered` check vouches
    /// for one): the one copy of every delivered byte.
    pub(crate) fn deliver(&self, r: Rank, rbuf: &mut Vec<u8>) {
        let (prog, Job { sbufs, lens, .. }, off) = (self.prog, self.job, self.off);
        let cells = prog.recv.of(r);
        for (&key, &origin) in prog.recv.key[cells.clone()].iter().zip(&prog.origin[cells]) {
            rbuf.extend_from_slice(off.sent(&sbufs[key as usize], origin, lens.size(key)));
        }
    }

    /// Packs message `id` for the wire from its sender's send buffer and
    /// staging `arena`. A gather or routed message travels as its id
    /// alone: its blocks are read at their origins ([`Self::deliver`]).
    pub(crate) fn pack(&self, id: usize, arena: &[u8]) -> Vec<u8> {
        if !self.prog.shape.reduces() {
            return Vec::new();
        }
        let sbuf = &self.job.sbufs[self.prog.msgs[id].src];
        let mut wire = Vec::with_capacity(self.wire_bytes(id));
        for block in &self.prog.blocks[self.prog.blocks_of(id)] {
            let len = self.job.lens.size(block.key);
            wire.extend_from_slice(match block.src {
                Src::Send(c) => self.off.sent(sbuf, c, len),
                Src::Slot(s) => &arena[self.off.slot[s as usize]..][..len],
            });
        }
        wire
    }

    /// (reduce shapes) Applies message `id`'s steps at its receiver —
    /// `arena` is the receiver's staging buffer, `rbuf` its receive
    /// buffer — reading the blocks from `wire`.
    pub(crate) fn integrate(&self, id: usize, wire: Wire, arena: &mut [u8], rbuf: &mut [u8]) {
        let (prog, Job { red, sbufs, lens }, off) = (self.prog, self.job, self.off);
        // INVARIANT: `Shape::of` gives exactly the ops with a reduction
        // the reduce shapes, the only ones the runtimes integrate.
        let red = red.expect("only the reduce shapes integrate steps");
        let m = prog.msgs[id];
        let mut at = 0;
        for b in prog.blocks_of(id) {
            let block = prog.blocks[b];
            let len = lens.size(block.key);
            let bytes = match (wire, block.src) {
                (Wire::Sender(_), Src::Send(c)) => off.sent(&sbufs[m.src], c, len),
                (Wire::Sender(from), Src::Slot(s)) => &from[off.slot[s as usize]..][..len],
                (Wire::Packed(wire), _) => &wire[at..][..len],
            };
            at += len;
            for &step in &prog.steps[prog.steps_of(b)] {
                match step {
                    Step::Copy(dst) => off.place(dst, len, arena, rbuf).copy_from_slice(bytes),
                    Step::Combine(dst) => red.combine(off.place(dst, len, arena, rbuf), bytes),
                    Step::Fold { from, slot } => {
                        let acc = off.place(Dst::Slot(slot), len, arena, rbuf);
                        acc.copy_from_slice(off.sent(&sbufs[m.dst], from, len));
                        red.combine(acc, bytes);
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
    use crate::plan::Algorithm;
    use crate::runtime::Clock;
    use nhood_cluster::ClusterLayout;
    use nhood_telemetry::{CountingRecorder, NULL};
    use nhood_topology::random::erdos_renyi;
    use std::sync::Arc;

    thread_local! {
        /// [`compile`] calls made by the current test thread.
        pub(super) static COMPILES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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

    /// `plan` without the first block (phase-major) that stands for an
    /// item `pick(item, peer, items the block stands for)` accepts: the
    /// edited plan, the phase of the edit and the picked item.
    fn drop_block(
        plan: &CollectivePlan,
        g: &Topology,
        pick: impl Fn((Rank, Rank), Rank, usize) -> bool,
    ) -> (CollectivePlan, usize, (Rank, Rank)) {
        let routing = route_items(plan, g).unwrap();
        for k in 0..plan.phase_count() {
            for r in 0..plan.n() {
                for (mi, msg) in plan.phase(r, k).sends().enumerate() {
                    let items = routing.of(msg.id());
                    let of_block = |b| items.iter().filter(|it| it.0 == b).count();
                    let picked = |it: &&(Rank, Rank)| pick(**it, msg.peer(), of_block(it.0));
                    if let Some(&it) = items.iter().find(picked) {
                        let cut = |rows: &mut [Vec<crate::plan::PlanPhase>]| {
                            rows[r][k].sends[mi].blocks.retain(|&b| b != it.0)
                        };
                        return (plan.edited(cut), k, it);
                    }
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
            let plan = crate::naive::plan_naive(&g).edited(|rows| rows[0][0].sends[0].peer = peer);
            assert_eq!(
                compile(&plan, &g, Shape::Route).unwrap_err(),
                ExecError::MissingBlock { rank: 0, block: peer, phase: 0 }
            );
        }
        let plan = crate::naive::plan_naive(&g).edited(|rows| rows[1][0].sends[0].blocks.push(3));
        assert_eq!(
            compile(&plan, &g, Shape::Route).unwrap_err(),
            ExecError::MissingBlock { rank: 1, block: 3, phase: 0 }
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
            let routing = route_items(&plan, &g).unwrap();
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
        let mut walk = Walk::new(&g, shape, phases.len());
        for (k, sends) in phases.iter().enumerate() {
            let sent_before = walk.prog.send_order.len();
            for r in 0..g.n() {
                for &(_, to, items) in sends.iter().filter(|s| s.0 == r) {
                    walk.pack((r, k), (to, k as u64, items)).unwrap();
                }
                walk.prog.send_ends.push((sent_before + walk.pend.len()) as Ix);
            }
            walk.integrate();
            walk.prog.labels.push(nhood_telemetry::labels::PHASE);
        }
        assert!(walk.holder.iter().all(|&h| h == DELIVERED));
        let prog = walk.prog;
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
        assert_eq!(agent_ships(Shape::Route), 4 * m, "routed items never merge");

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
}
