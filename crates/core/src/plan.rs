//! Executable data-movement plans.
//!
//! A [`CollectivePlan`] is the common output of every algorithm: for
//! every rank, an ordered list of phases, each posting receives and sends
//! and ending in an implicit wait-all — the exact structure of the
//! paper's Algorithm 4. Message payloads are described as ordered lists
//! of **blocks** (rank ids whose allgather contribution is concatenated
//! into the message), so the same plan can be executed with real bytes
//! (the virtual and threaded executors) or costed symbolically (the
//! simulator, at any message size).
//!
//! # One flat table
//!
//! A plan is four vectors, not a tree: per-rank phase offsets, one
//! message table `(peer, tag, block range)` holding each message once —
//! as its send, `peer` the destination — one block pool and a copy
//! column. Builders append messages to a [`PlanWriter`] in whatever
//! order their algorithm meets them; `finish` is one stable counting sort
//! into (rank, phase) *buckets*. **Within a bucket the rows keep their
//! emission order** — the one ordering a builder owes its readers
//! (validation's "first in program order", the order a rank posts its
//! sends, the plan file's bytes) — and a send's row index is its dense id
//! in program order, which is how the validator, the item routing and the
//! compiler name messages. Everything reads through
//! [`CollectivePlan::phase`]. [`PlannedMsg`] / [`PlanPhase`] are the
//! *owned row form*: hand-written plans, test mutators, one decoded rank.
//!
//! # Receives are an index over the sends
//!
//! Algorithm 4 posts, at every rank, the receives that mirror its peers'
//! sends; a plan does not store them twice. Every constructor ends in
//! one derivation (`CollectivePlan::checked`): a counting sort of the
//! send ids by the receiving (rank, phase), ascending by id within a
//! bucket. [`PhaseView::recvs`] reads it — the receive's `peer()` is the
//! sender and its `id()` the send's — so a receive cannot disagree with
//! its send on phase, tag or blocks.
//!
//! # The exactly-once property
//!
//! [`CollectivePlan::validate`] checks, among structural sanity, the
//! central correctness invariant: **every edge `(b → t)` of the virtual
//! topology is delivered exactly once** — `t` receives a message
//! containing block `b` at exactly one point of the plan. For Distance
//! Halving this is a theorem (proved by two lemmas: (1) replication only
//! happens across the current segment split, so at most one rank of any
//! segment holds a given block; (2) the responsibility for `(b, t)`
//! always travels in the same message as `b`'s data, so it can only sit
//! with a data holder on `t`'s side of every successful split). A failed
//! agent search strands both the data and the responsibility on the same
//! rank, which later direct-sends — never duplicating a delivery.

use crate::pattern::SelectionStats;
use nhood_simnet::SendIndex;
use nhood_topology::{Rank, Topology};
use std::collections::BTreeMap;

/// Why [`CollectivePlan::validate`] rejected a plan.
///
/// Mirrors the style of [`crate::exec::ExecError`]: every failure is a
/// typed variant carrying the offending ranks/phases, so the CLI and
/// tests can match on causes instead of substring-grepping a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanValidationError {
    /// The plan and the topology disagree on the number of ranks.
    RankCountMismatch {
        /// Ranks in the plan.
        plan: usize,
        /// Ranks in the topology.
        topology: usize,
    },
    /// A rank's program is not lock-step with rank 0's.
    NotLockStep {
        /// The offending rank.
        rank: Rank,
        /// Its phase count.
        got: usize,
        /// The expected (rank 0's) phase count.
        want: usize,
    },
    /// A send names an out-of-range or self destination.
    BadPeer {
        /// The sending rank.
        rank: Rank,
        /// Phase index.
        phase: usize,
        /// The bad destination.
        peer: Rank,
    },
    /// A send carries no blocks.
    EmptySend {
        /// Sending rank.
        rank: Rank,
        /// Phase index.
        phase: usize,
        /// Destination.
        peer: Rank,
    },
    /// Two sends share a `(src, dst, tag)` key.
    DuplicateKey {
        /// Source rank.
        src: Rank,
        /// Destination rank.
        dst: Rank,
        /// The shared tag.
        tag: u64,
    },
    /// A rank sends a block it does not hold at that phase.
    UnheldBlock {
        /// Sending rank.
        rank: Rank,
        /// Phase index.
        phase: usize,
        /// The block it never held.
        block: Rank,
    },
    /// A topology edge's block is never delivered.
    NeverDelivered {
        /// Block owner (edge source).
        src: Rank,
        /// Edge destination.
        dst: Rank,
    },
    /// A topology edge's block is delivered more than once.
    DuplicateDelivery {
        /// Block owner (edge source).
        src: Rank,
        /// Edge destination.
        dst: Rank,
        /// How many times it arrived.
        count: usize,
    },
}

impl std::fmt::Display for PlanValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use PlanValidationError::*;
        match self {
            RankCountMismatch { plan, topology } => {
                write!(f, "plan has {plan} ranks, topology has {topology}")
            }
            NotLockStep { rank, got, want } => {
                write!(f, "rank {rank} has {got} phases, expected lock-step {want}")
            }
            BadPeer { rank, phase, peer } => {
                write!(f, "rank {rank} phase {phase}: bad send peer {peer}")
            }
            EmptySend { rank, phase, peer } => {
                write!(f, "rank {rank} phase {phase}: empty send to {peer}")
            }
            DuplicateKey { src, dst, tag } => write!(f, "duplicate send key ({src},{dst},{tag})"),
            UnheldBlock { rank, phase, block } => {
                write!(f, "rank {rank} phase {phase} sends block {block} it does not hold")
            }
            NeverDelivered { src, dst } => write!(f, "edge ({src} -> {dst}) never delivered"),
            DuplicateDelivery { src, dst, count } => {
                write!(f, "edge ({src} -> {dst}) delivered {count} times")
            }
        }
    }
}

impl std::error::Error for PlanValidationError {}

/// Which neighborhood-allgather algorithm produced a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Direct point-to-point sends to every outgoing neighbor — the
    /// default Open MPI behaviour the paper benchmarks against.
    Naive,
    /// The Common Neighbor message-combining algorithm (Ghazimirsaeed et
    /// al., IPDPS'19) with groups of `k` ranks.
    CommonNeighbor {
        /// Group size.
        k: usize,
    },
    /// The paper's topology- and load-aware Distance Halving algorithm.
    DistanceHalving,
    /// Hierarchical leader-based allgather (Ghazimirsaeed et al.,
    /// SC'20 — the paper's reference \[9\]): node leaders aggregate,
    /// exchange one combined message per node pair, then scatter.
    HierarchicalLeader {
        /// Leaders per node (blocks assigned round-robin).
        leaders_per_node: usize,
    },
    /// Locality-aware Bruck neighborhood allgather (Bienz et al.):
    /// blocks funnel to a per-node router, hop between routers in
    /// log-stride rounds over node offsets, then scatter locally.
    Bruck,
    /// PAT-style aggregated trees (Jeaugey): each destination's
    /// in-neighborhood aggregates along a radix-`radix` binomial tree
    /// before one combined delivery.
    Pat {
        /// Aggregation-tree radix (>= 2).
        radix: usize,
    },
    /// Simulation-driven auto-selection: every portfolio candidate is
    /// scored through the §V cost model for the request's (topology,
    /// layout, block sizes) and the winner's plan is used and cached.
    Auto,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Naive => write!(f, "naive"),
            Algorithm::CommonNeighbor { k } => write!(f, "common-neighbor(k={k})"),
            Algorithm::DistanceHalving => write!(f, "distance-halving"),
            Algorithm::HierarchicalLeader { leaders_per_node } => {
                write!(f, "hierarchical-leader(l={leaders_per_node})")
            }
            Algorithm::Bruck => write!(f, "bruck"),
            Algorithm::Pat { radix } => write!(f, "pat(r={radix})"),
            Algorithm::Auto => write!(f, "auto"),
        }
    }
}

/// One planned message in the **owned row form** (module docs): `blocks`
/// (payload contributions of those ranks, concatenated in order) sent to
/// `peer`. See [`CollectivePlan::from_rows`] / [`CollectivePlan::to_rows`]
/// and [`crate::plan_io::PlanFile::rank`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedMsg {
    /// The destination.
    pub peer: Rank,
    /// Whose payload blocks the message carries, in payload order.
    pub blocks: Vec<Rank>,
    /// Matching tag; unique per (src, dst) pair within the plan.
    pub tag: u64,
}

/// One post-recvs/post-sends/wait-all block of a rank's program, in the
/// owned row form (see [`PlannedMsg`]). Its receives are its peers'
/// sends: [`PhaseView::recvs`] reads them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanPhase {
    /// Number of block-sized memcpys this rank performs at phase entry
    /// (buffer packing / receive-buffer copies); the simulator charges
    /// `copy_blocks · m / memcpy_bandwidth`.
    pub copy_blocks: usize,
    /// Messages sent in this phase.
    pub sends: Vec<PlannedMsg>,
}

/// One row of the message table — one send, `peer` its destination; its
/// blocks are `pool[block_off..block_off + block_len]`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MsgRow {
    pub(crate) tag: u64,
    pub(crate) peer: u32,
    pub(crate) block_off: u32,
    pub(crate) block_len: u32,
}

impl MsgRow {
    /// The row of `(peer, tag, blocks)`, its blocks appended to `pool`.
    /// (An offset past `u32` wraps here and is refused by
    /// [`CollectivePlan::checked`] before anything reads it.)
    fn pooled(pool: &mut Vec<Rank>, peer: Rank, tag: u64, blocks: &[Rank]) -> Self {
        // INVARIANT: a peer is a rank of a plan whose tables `checked`
        // admits; one past `u32` is a caller's bug, stopped, not wrapped.
        let peer = u32::try_from(peer).expect("a rank fits the table's u32 peer column");
        let row = Self { tag, peer, block_off: pool.len() as u32, block_len: blocks.len() as u32 };
        pool.extend_from_slice(blocks);
        row
    }
}

/// A table count as the `u32` the offsets are stored in.
fn fits_u32(what: &str, count: usize) -> Result<u32, String> {
    u32::try_from(count).map_err(|_| format!("{count} {what} do not fit the tables' u32 offsets"))
}

/// The length of a plan's `index` over `buckets` buckets and `msgs`
/// sends, every send received.
pub(crate) fn index_len(buckets: usize, msgs: usize) -> usize {
    2 * (buckets + 1) + 2 * msgs
}

/// A complete, executable plan for one neighborhood allgather (module
/// docs). The programs of a valid plan all have the same length; a ragged
/// one is representable, and is what `NotLockStep` reports.
#[derive(Clone, Debug)]
pub struct CollectivePlan {
    /// The algorithm that produced this plan.
    pub algorithm: Algorithm,
    /// Selection statistics (Distance Halving only).
    pub selection: Option<SelectionStats>,
    // The tables are `pub(crate)` for `plan_io` alone: they are the plan
    // file's columns, and its parser establishes every condition below
    // before it fills them in.
    /// Rank `r`'s phases are buckets `phase_off[r]..phase_off[r + 1]`.
    pub(crate) phase_off: Vec<u32>,
    /// Per bucket: block-sized memcpys at phase entry.
    pub(crate) copy_blocks: Vec<usize>,
    /// With `B` buckets: `index[..=B]` are the send offsets — bucket
    /// `b`'s sends are rows `index[b]..index[b + 1]`, in (rank, phase)
    /// order, so a send's row *is* its dense id in program order. The
    /// rest is the receive index that [`Self::checked`] derives from them
    /// (module docs): offsets `o = index[B + 1..][..=B]` into a table of
    /// `R` send ids followed by their `R` senders, bucket `b`'s receives
    /// being entries `o[b]..o[b + 1]` of each.
    pub(crate) index: Vec<u32>,
    /// The send table.
    pub(crate) msgs: Vec<MsgRow>,
    /// The block lists.
    pub(crate) pool: Vec<Rank>,
    /// Sum of the send rows' block counts ([`Self::checked`] derives it).
    pub(crate) blocks_sent: usize,
}

/// Equal when the algorithm, the selection statistics and every row are:
/// where a block list sits in the pool is not part of a plan's value.
impl PartialEq for CollectivePlan {
    fn eq(&self, other: &Self) -> bool {
        self.selection == other.selection && self.same_rows(other)
    }
}

/// One phase of one rank's program, borrowed from the plan's tables.
#[derive(Clone, Copy, Debug)]
pub struct PhaseView<'a> {
    plan: &'a CollectivePlan,
    /// `None` past the end of the rank's program.
    bucket: Option<usize>,
}

impl<'a> PhaseView<'a> {
    /// Number of block-sized memcpys this rank performs at phase entry.
    pub fn copy_blocks(&self) -> usize {
        self.bucket.map_or(0, |b| self.plan.copy_blocks[b])
    }

    /// Messages sent in this phase, in emission order.
    pub fn sends(
        &self,
    ) -> impl DoubleEndedIterator<Item = MsgView<'a>> + ExactSizeIterator + Clone + 'a {
        let (plan, sends) = (self.plan, self.plan.send_off());
        let rows = self.bucket.map_or(0..0, |b| sends[b] as usize..sends[b + 1] as usize);
        rows.map(move |id| MsgView { plan, id, peer: plan.msgs[id].peer as Rank })
    }

    /// Messages received in this phase — the sends addressed to this rank
    /// in this phase, ascending by send id.
    pub fn recvs(
        &self,
    ) -> impl DoubleEndedIterator<Item = MsgView<'a>> + ExactSizeIterator + Clone + 'a {
        let plan = self.plan;
        let (ids, senders) = self.bucket.map_or((&[][..], &[][..]), |b| plan.receives(b));
        let view =
            move |(&id, &peer): (&u32, &u32)| MsgView { plan, id: id as usize, peer: peer as Rank };
        ids.iter().zip(senders).map(view)
    }
}

/// One planned message — a send, or the receive of one — borrowed from
/// the plan's tables.
#[derive(Clone, Copy, Debug)]
pub struct MsgView<'a> {
    plan: &'a CollectivePlan,
    id: usize,
    peer: Rank,
}

impl<'a> MsgView<'a> {
    /// The send's row in the table, dense in `0..message_count()` in
    /// program order (rank, phase, emission order); a receive has the id
    /// of the send it receives.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The other endpoint: a send's destination, a receive's sender.
    pub fn peer(&self) -> Rank {
        self.peer
    }

    /// Matching tag; unique per (src, dst) pair within the plan.
    pub fn tag(&self) -> u64 {
        self.plan.msgs[self.id].tag
    }

    /// Whose payload blocks the message carries, in payload order.
    pub fn blocks(&self) -> &'a [Rank] {
        self.plan.blocks_of(self.plan.msgs[self.id])
    }

    /// The owned row form.
    pub fn to_row(&self) -> PlannedMsg {
        PlannedMsg { peer: self.peer(), blocks: self.blocks().to_vec(), tag: self.tag() }
    }
}

impl CollectivePlan {
    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.phase_off.len() - 1
    }

    /// Number of (lock-step) phases: the length of **rank 0's** program,
    /// which in a valid plan is every rank's ([`Self::phases`] is one
    /// rank's own).
    pub fn phase_count(&self) -> usize {
        self.phase_off.get(1).map_or(0, |&end| end as usize)
    }

    /// Rank `r`'s program, phase by phase; its `len()` is the program's
    /// length.
    pub fn phases(
        &self,
        r: Rank,
    ) -> impl DoubleEndedIterator<Item = PhaseView<'_>> + ExactSizeIterator + Clone {
        let buckets = self.phase_off[r] as usize..self.phase_off[r + 1] as usize;
        buckets.map(move |b| PhaseView { plan: self, bucket: Some(b) })
    }

    /// Phase `p` of rank `r`'s program; a phase past the end of the
    /// rank's (ragged) program is empty.
    ///
    /// # Panics
    /// Panics if `r >= n`.
    pub fn phase(&self, r: Rank, p: usize) -> PhaseView<'_> {
        self.phases(r).nth(p).unwrap_or(PhaseView { plan: self, bucket: None })
    }

    pub(crate) fn blocks_of(&self, row: MsgRow) -> &[Rank] {
        let at = row.block_off as usize;
        &self.pool[at..at + row.block_len as usize]
    }

    /// The send offsets: `index[..=B]`.
    pub(crate) fn send_off(&self) -> &[u32] {
        &self.index[..=self.copy_blocks.len()]
    }

    /// Bucket `b`'s receives: their send ids and their senders.
    fn receives(&self, b: usize) -> (&[u32], &[u32]) {
        let buckets = self.copy_blocks.len();
        let (off, table) = self.index[buckets + 1..].split_at(buckets + 1);
        let (ids, senders) = table.split_at(off[buckets] as usize);
        let at = off[b] as usize..off[b + 1] as usize;
        (&ids[at.clone()], &senders[at])
    }

    /// Total messages.
    pub fn message_count(&self) -> usize {
        self.msgs.len()
    }

    /// Total payload volume in block units (multiply by the per-rank
    /// message size `m` for bytes).
    pub fn total_blocks_sent(&self) -> usize {
        self.blocks_sent
    }

    /// Peak per-phase fan-out: the largest number of sends any rank
    /// posts in a single phase. Under fault injection this bounds how
    /// many messages a phase deadline must leave room to retry, so the
    /// chaos tooling uses it to budget per-phase timeouts.
    pub fn max_sends_in_phase(&self) -> usize {
        self.send_off().windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }

    /// Largest single message, in blocks.
    pub fn max_message_blocks(&self) -> usize {
        self.msgs.iter().map(|m| m.block_len as usize).max().unwrap_or(0)
    }

    /// Per-rank total messages sent — the load-balance view.
    pub fn sends_per_rank(&self) -> Vec<usize> {
        let at = |bucket: u32| self.index[bucket as usize] as usize;
        self.phase_off.windows(2).map(|w| at(w[1]) - at(w[0])).collect()
    }

    /// `true` when both plans hold the same rows — programs, copy counts
    /// and every message's peer, tag and block list — under the same
    /// algorithm, whatever their selection statistics: a check's verdict,
    /// the item routing and every compiled program are functions of those.
    pub(crate) fn same_rows(&self, other: &Self) -> bool {
        let same = |(a, b): (&MsgRow, &MsgRow)| {
            (a.peer, a.tag) == (b.peer, b.tag) && self.blocks_of(*a) == other.blocks_of(*b)
        };
        self.algorithm == other.algorithm
            && self.phase_off == other.phase_off
            && self.copy_blocks == other.copy_blocks
            && self.index == other.index
            && self.msgs.iter().zip(&other.msgs).all(same)
    }

    /// Builds a plan from the owned row form: `rows[r]` is rank `r`'s
    /// program.
    pub fn from_rows(
        algorithm: Algorithm,
        selection: Option<SelectionStats>,
        rows: &[Vec<PlanPhase>],
    ) -> Self {
        let mut w = PlanWriter::new(algorithm, 0, 0);
        w.selection = selection;
        for prog in rows {
            let r = w.add_rank(prog.len());
            for (p, ph) in prog.iter().enumerate() {
                w.copy(r, p, ph.copy_blocks);
                ph.sends.iter().for_each(|m| w.message(p, r, m.peer, m.tag, &m.blocks));
            }
        }
        w.finish()
    }

    /// Rank `r`'s program in the owned row form.
    pub fn rank_rows(&self, r: Rank) -> Vec<PlanPhase> {
        self.phases(r)
            .map(|ph| PlanPhase {
                copy_blocks: ph.copy_blocks(),
                sends: ph.sends().map(|m| m.to_row()).collect(),
            })
            .collect()
    }

    /// The whole plan in the owned row form ([`Self::from_rows`]'s
    /// inverse).
    pub fn to_rows(&self) -> Vec<Vec<PlanPhase>> {
        (0..self.n()).map(|r| self.rank_rows(r)).collect()
    }

    /// A copy of the plan with the `(peer, blocks)` sends in `edits` —
    /// per sending `(rank, phase)`, ascending by peer like the bucket
    /// they patch — put in place of the old send to that peer (keeping
    /// its tag), or at its sorted position under `tag` when there was
    /// none; one with no block is dropped. Every other row is carried
    /// over, and the new pool holds live blocks only.
    pub(crate) fn patched(&self, edits: &Edits, tag: u64) -> Self {
        let fresh = edits.values().flatten();
        let (rows, blocks) = (self.msgs.len() + fresh.clone().count(), fresh.map(|m| m.1.len()));
        let mut out = Self {
            algorithm: self.algorithm,
            selection: self.selection,
            phase_off: self.phase_off.clone(),
            copy_blocks: self.copy_blocks.clone(),
            index: Vec::with_capacity(index_len(self.copy_blocks.len(), rows)),
            msgs: Vec::with_capacity(rows),
            pool: Vec::with_capacity(self.pool.len() + blocks.sum::<usize>()),
            blocks_sent: 0,
        };
        let keep = |out: &mut Self, peer: Rank, tag: u64, blocks: &[Rank]| {
            out.msgs.push(MsgRow::pooled(&mut out.pool, peer, tag, blocks));
        };
        let put = |out: &mut Self, (peer, blocks): &(Rank, Vec<Rank>), tag: u64| {
            if !blocks.is_empty() {
                keep(out, *peer, tag, blocks);
            }
        };
        let buckets = |r| self.phases(r).enumerate().map(move |(p, phase)| (r, p, phase));
        for (r, p, phase) in (0..self.n()).flat_map(buckets) {
            out.index.push(out.msgs.len() as u32);
            let mut fresh = edits.get(&(r, p)).into_iter().flatten().peekable();
            for old in phase.sends() {
                while let Some(m) = fresh.next_if(|m| m.0 < old.peer()) {
                    put(&mut out, m, tag);
                }
                match fresh.next_if(|m| m.0 == old.peer()) {
                    Some(m) => put(&mut out, m, old.tag()),
                    None => keep(&mut out, old.peer(), old.tag(), old.blocks()),
                }
            }
            fresh.for_each(|m| put(&mut out, m, tag));
        }
        out.index.push(out.msgs.len() as u32);
        // INVARIANT: table offsets are `u32`; a plan that outgrows them
        // stops here instead of wrapping.
        out.checked().unwrap_or_else(|e| panic!("patched plan: {e}"))
    }

    /// Sets the copy count of phase `p` of rank `r`.
    pub(crate) fn set_copy_blocks(&mut self, r: Rank, p: usize, count: usize) {
        assert!(p < self.phases(r).len(), "rank {r} has no phase {p}");
        self.copy_blocks[self.phase_off[r] as usize + p] = count;
    }

    /// The tables as a plan, once their message, block and phase counts
    /// are known to fit the `u32` offsets they were written under: the
    /// end of every constructor, and where the receive index is derived.
    pub(crate) fn checked(mut self) -> Result<Self, String> {
        fits_u32("messages", self.msgs.len())?;
        fits_u32("blocks", self.pool.len())?;
        fits_u32("phases", self.copy_blocks.len())?;
        self.blocks_sent = self.msgs.iter().map(|m| m.block_len as usize).sum();
        self.index_receives();
        Ok(self)
    }

    /// Derives the receive index from the send table (the one place it
    /// is written; `index`'s docs have its layout): a stable counting
    /// sort of the send ids by their receiving bucket — the destination's
    /// bucket of the send's phase — so a bucket lists its receives
    /// ascending by send id. A send whose destination is no rank, or
    /// whose program has no such phase, is received nowhere: the plan is
    /// one `validate` refuses (`BadPeer`, `NotLockStep`), and nothing
    /// here indexes by the unchecked peer.
    fn index_receives(&mut self) {
        let buckets = self.copy_blocks.len();
        self.index.truncate(buckets + 1);
        self.index.resize(2 * (buckets + 1), 0);
        let (sends, off) = self.index.split_at_mut(buckets + 1);
        each_receive(&self.phase_off, sends, &self.msgs, |_, _, at| off[at + 1] += 1);
        for b in 0..buckets {
            off[b + 1] += off[b];
        }
        let total = off[buckets] as usize;
        self.index.resize(2 * (buckets + 1 + total), 0);
        let (sends, rest) = self.index.split_at_mut(buckets + 1);
        let (off, table) = rest.split_at_mut(buckets + 1);
        let (ids, senders) = table.split_at_mut(total);
        // fill with the offsets as cursors — which leaves each at its
        // bucket's end, the next one's start — and shift back by one
        each_receive(&self.phase_off, sends, &self.msgs, |id, src, at| {
            let slot = off[at] as usize;
            (ids[slot], senders[slot]) = (id, src);
            off[at] += 1;
        });
        off.rotate_right(1);
        off[0] = 0;
    }
}

/// Calls `visit(id, sender, receiving bucket)` for every send in id
/// order, skipping one whose destination is no rank or has no phase of
/// the send's index.
fn each_receive(
    phase_off: &[u32],
    send_off: &[u32],
    msgs: &[MsgRow],
    mut visit: impl FnMut(u32, u32, usize),
) {
    for (src, span) in (0u32..).zip(phase_off.windows(2)) {
        for b in span[0]..span[1] {
            let phase = b - span[0];
            for id in send_off[b as usize]..send_off[b as usize + 1] {
                let dst = msgs[id as usize].peer as usize;
                if let (Some(&first), Some(&end)) = (phase_off.get(dst), phase_off.get(dst + 1)) {
                    if phase < end - first {
                        visit(id, src, (first + phase) as usize);
                    }
                }
            }
        }
    }
}

/// Rank `r`'s program becomes rank `to[r]`'s, every peer and block id
/// renamed: one pass that permutes the tables, the pool in place.
impl crate::remap::Relabel for CollectivePlan {
    fn relabelled(&self, to: &[Rank]) -> Self {
        let mut from = vec![0; to.len()];
        to.iter().enumerate().for_each(|(r, &new)| from[new] = r);
        let span = |r: Rank| self.phase_off[r] as usize..self.phase_off[r + 1] as usize;
        // the old buckets in their new order
        let order = from.iter().flat_map(|&r| span(r));
        let phases = from.iter().scan(0, |end, &r| {
            *end += span(r).len() as u32;
            Some(*end)
        });
        let mut index = Vec::with_capacity(index_len(self.copy_blocks.len(), self.msgs.len()));
        let (sends, mut msgs) = (self.send_off(), Vec::with_capacity(self.msgs.len()));
        index.push(0);
        for b in order.clone() {
            let rows = &self.msgs[sends[b] as usize..sends[b + 1] as usize];
            msgs.extend(rows.iter().map(|m| MsgRow { peer: to[m.peer as usize] as u32, ..*m }));
            index.push(msgs.len() as u32);
        }
        CollectivePlan {
            phase_off: std::iter::once(0).chain(phases).collect(),
            copy_blocks: order.map(|b| self.copy_blocks[b]).collect(),
            index,
            msgs,
            pool: self.pool.iter().map(|&b| to[b]).collect(),
            ..*self
        }
        .checked()
        // INVARIANT: a permutation keeps every count.
        .expect("a relabelled plan's counts are its source's")
    }
}

/// What [`CollectivePlan::patched`] puts in: per sending `(rank, phase)`,
/// `(peer, blocks)` sends ascending by peer.
pub(crate) type Edits = BTreeMap<(Rank, usize), Vec<(Rank, Vec<Rank>)>>;

/// A staged send: its (rank, phase) bucket, and the row.
#[derive(Clone, Copy, Debug)]
struct Staged {
    bucket: u32,
    row: MsgRow,
}

/// The append-only builder of a [`CollectivePlan`]: sends are emitted in
/// any order across (rank, phase) buckets and [`finish`](Self::finish)
/// sorts them into the plan's tables with one stable counting sort —
/// within a bucket, emission order is kept.
#[derive(Debug)]
pub struct PlanWriter {
    algorithm: Algorithm,
    /// Selection statistics the plan will carry (Distance Halving only).
    pub selection: Option<SelectionStats>,
    phase_off: Vec<u32>,
    copy_blocks: Vec<usize>,
    rows: Vec<Staged>,
    pool: Vec<Rank>,
}

impl PlanWriter {
    /// A writer of `n` lock-step programs of `phases` phases each;
    /// [`add_rank`](Self::add_rank) appends further (possibly ragged)
    /// ones.
    pub fn new(algorithm: Algorithm, n: usize, phases: usize) -> Self {
        Self {
            algorithm,
            selection: None,
            phase_off: (0..=n).map(|r| (r * phases) as u32).collect(),
            copy_blocks: vec![0; n * phases],
            rows: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Appends a rank with a program of `phases` phases; returns it.
    pub fn add_rank(&mut self, phases: usize) -> Rank {
        self.copy_blocks.resize(self.copy_blocks.len() + phases, 0);
        self.phase_off.push(self.copy_blocks.len() as u32);
        self.phase_off.len() - 2
    }

    /// Makes room for `messages` more messages carrying `blocks` blocks
    /// in all.
    pub fn reserve(&mut self, messages: usize, blocks: usize) {
        self.rows.reserve_exact(messages);
        self.pool.reserve_exact(blocks);
    }

    /// Charges `blocks` more block-sized memcpys to phase `phase` of
    /// `rank`.
    pub fn copy(&mut self, rank: Rank, phase: usize, blocks: usize) {
        let bucket = self.bucket(rank, phase);
        self.copy_blocks[bucket as usize] += blocks;
    }

    /// Posts one message: `blocks` sent from `src` to `dst` in `phase`,
    /// which `dst` receives in its own `phase`.
    pub fn message(&mut self, phase: usize, src: Rank, dst: Rank, tag: u64, blocks: &[Rank]) {
        let bucket = self.bucket(src, phase);
        let row = MsgRow::pooled(&mut self.pool, dst, tag, blocks);
        self.rows.push(Staged { bucket, row });
    }

    fn bucket(&self, rank: Rank, phase: usize) -> u32 {
        let (lo, hi) = (self.phase_off[rank], self.phase_off[rank + 1]);
        assert!(phase < (hi - lo) as usize, "rank {rank} has {} phases, not {phase}", hi - lo);
        lo + phase as u32
    }

    /// The finished plan.
    ///
    /// # Panics
    /// Panics if the message, block or phase count exceeds `u32::MAX`.
    pub fn finish(self) -> CollectivePlan {
        // INVARIANT: table offsets are `u32`; a builder that outgrows
        // them stops here instead of handing out wrapped offsets.
        let buckets = self.copy_blocks.len();
        if let Err(e) = fits_u32("messages", self.rows.len()) {
            panic!("plan writer: {e}");
        }
        // One stable counting sort by bucket: count, prefix, fill with
        // the offsets as cursors — which leaves each at its bucket's end,
        // the next one's start — and shift back by one.
        let mut index = Vec::with_capacity(index_len(buckets, self.rows.len()));
        index.resize(buckets + 1, 0u32);
        for s in &self.rows {
            index[s.bucket as usize + 1] += 1;
        }
        for b in 0..buckets {
            index[b + 1] += index[b];
        }
        let mut msgs = vec![MsgRow::default(); self.rows.len()];
        for s in &self.rows {
            msgs[index[s.bucket as usize] as usize] = s.row;
            index[s.bucket as usize] += 1;
        }
        index.rotate_right(1);
        index[0] = 0;
        CollectivePlan {
            algorithm: self.algorithm,
            selection: self.selection,
            phase_off: self.phase_off,
            copy_blocks: self.copy_blocks,
            index,
            msgs,
            pool: self.pool,
            blocks_sent: 0,
        }
        .checked()
        .unwrap_or_else(|e| panic!("plan writer: {e}"))
    }
}

impl CollectivePlan {
    /// Checks structural sanity and the exactly-once delivery property
    /// against the virtual topology that produced the plan:
    ///
    /// 1. programs are lock-step (equal length);
    /// 2. every send names another rank, carries a block, and has a
    ///    `(src, dst, tag)` key of its own;
    /// 3. a rank only sends blocks it holds (its own, or ones received in
    ///    *earlier* phases);
    /// 4. every topology edge `(b → t)` is delivered to `t` exactly once;
    /// 5. nothing is delivered that the topology does not require —
    ///    except transit data (blocks a rank relays but does not consume),
    ///    which is allowed and is exactly what distinguishes DH traffic.
    ///
    /// A receive is its send, read at the destination in the send's
    /// phase, so there is no second copy of a message to disagree with.
    ///
    /// # Which defect is reported
    ///
    /// A function of the plan, never of a hasher: rules in the order
    /// above. Rule 1: the lowest rank. Rule 2: `BadPeer` / `EmptySend`,
    /// first in program order (rank, phase, send index); then
    /// `DuplicateKey`, lowest `(dst, src, tag)`. Rule 3: the lowest
    /// (phase, rank, send index, block index). Rule 4: the lowest edge
    /// `(src, dst)`.
    pub fn validate(&self, graph: &Topology) -> Result<(), PlanValidationError> {
        use PlanValidationError as E;
        let n = self.n();
        self.check_sends(graph.n())?;

        // 3 + 4, one rank at a time: what a rank holds depends only on
        // its own earlier receives, and what an edge's destination was
        // delivered only on its own receives. `got[b]` counts rank `r`'s
        // receives of block `b` while `stamp[b] == r + 1`, so neither
        // array is ever reset. A block id `>= n` is held by nobody: the
        // lowest (phase, rank) that sends one cannot have received it.
        let (mut stamp, mut got) = (vec![0usize; n], vec![0usize; n]);
        let mut unheld: Option<(usize, Rank, Rank)> = None; // (phase, rank, block)
        let mut misdelivered: Option<(Rank, Rank, usize)> = None; // (src, dst, count)
        'rank: for r in 0..n {
            for (k, ph) in self.phases(r).enumerate() {
                if unheld.is_some_and(|(phase, ..)| phase <= k) {
                    continue 'rank; // a lower (phase, rank) already sends an unheld block
                }
                let holds = |b: Rank| b == r || stamp.get(b) == Some(&(r + 1));
                if let Some(&b) = ph.sends().flat_map(|m| m.blocks()).find(|&&b| !holds(b)) {
                    unheld = Some((k, r, b));
                    continue 'rank;
                }
                for &b in ph.recvs().flat_map(|m| m.blocks()).filter(|&&b| b < n) {
                    if std::mem::replace(&mut stamp[b], r + 1) != r + 1 {
                        got[b] = 0;
                    }
                    got[b] += 1;
                }
            }
            let count = |b: Rank| if stamp[b] == r + 1 { got[b] } else { 0 };
            if let Some(&b) = graph.in_neighbors(r).iter().find(|&&b| count(b) != 1) {
                if misdelivered.is_none_or(|(src, dst, _)| (b, r) < (src, dst)) {
                    misdelivered = Some((b, r, count(b)));
                }
            }
        }
        match (unheld, misdelivered) {
            (Some((phase, rank, block)), _) => Err(E::UnheldBlock { rank, phase, block }),
            (None, Some((src, dst, 0))) => Err(E::NeverDelivered { src, dst }),
            (None, Some((src, dst, count))) => Err(E::DuplicateDelivery { src, dst, count }),
            (None, None) => Ok(()),
        }
    }

    /// Rules 1 and 2 of [`Self::validate`]; past them every send is
    /// received, in its own phase.
    fn check_sends(&self, topology_ranks: usize) -> Result<(), PlanValidationError> {
        use PlanValidationError as E;
        let n = self.n();
        if topology_ranks != n {
            return Err(E::RankCountMismatch { plan: n, topology: topology_ranks });
        }
        let phases = self.phase_count();
        if let Some(rank) = (0..n).find(|&r| self.phases(r).len() != phases) {
            return Err(E::NotLockStep { rank, got: self.phases(rank).len(), want: phases });
        }
        for rank in 0..n {
            for (phase, ph) in self.phases(rank).enumerate() {
                for m in ph.sends() {
                    if m.peer() >= n || m.peer() == rank {
                        return Err(E::BadPeer { rank, phase, peer: m.peer() });
                    } else if m.blocks().is_empty() {
                        return Err(E::EmptySend { rank, phase, peer: m.peer() });
                    }
                }
            }
        }
        let sent_by = |src| self.phases(src).flat_map(|ph| ph.sends());
        let keys = (0..n).flat_map(|src| sent_by(src).map(move |m| (src, m.peer(), m.tag())));
        match SendIndex::build(n, keys) {
            Ok(_) => Ok(()),
            Err((src, dst, tag)) => Err(E::DuplicateKey { src, dst, tag }),
        }
    }
}

#[cfg(test)]
impl CollectivePlan {
    /// The plan with `edit` applied to its row form — how a test corrupts
    /// one.
    pub(crate) fn edited(&self, edit: impl FnOnce(&mut [Vec<PlanPhase>])) -> Self {
        let mut rows = self.to_rows();
        edit(&mut rows);
        Self::from_rows(self.algorithm, self.selection, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remap::Relabel;

    fn msg(peer: Rank, blocks: Vec<Rank>, tag: u64) -> PlannedMsg {
        PlannedMsg { peer, blocks, tag }
    }

    fn sending(copy_blocks: usize, sends: Vec<PlannedMsg>) -> PlanPhase {
        PlanPhase { copy_blocks, sends }
    }

    /// hand-built two-rank exchange plan
    fn pair_plan() -> (Topology, CollectivePlan) {
        let g = Topology::from_edges(2, [(0, 1), (1, 0)]);
        let rows = [
            vec![sending(0, vec![msg(1, vec![0], 0)])],
            vec![sending(0, vec![msg(0, vec![1], 0)])],
        ];
        (g, CollectivePlan::from_rows(Algorithm::Naive, None, &rows))
    }

    /// Every (rank, phase)'s receives by brute force: the sends addressed
    /// to it in that phase, as `(sender, send id)` in id order.
    fn brute_recvs(plan: &CollectivePlan) -> Vec<Vec<Vec<(Rank, usize)>>> {
        let mut out: Vec<Vec<Vec<(Rank, usize)>>> =
            (0..plan.n()).map(|r| vec![Vec::new(); plan.phases(r).len()]).collect();
        for src in 0..plan.n() {
            for (p, ph) in plan.phases(src).enumerate() {
                for m in ph.sends() {
                    if let Some(bucket) = out.get_mut(m.peer()).and_then(|prog| prog.get_mut(p)) {
                        bucket.push((src, m.id()));
                    }
                }
            }
        }
        out
    }

    /// The plan's receive views, as [`brute_recvs`] lists them, each one
    /// checked to read its send's tag and blocks.
    fn derived_recvs(plan: &CollectivePlan) -> Vec<Vec<Vec<(Rank, usize)>>> {
        let send = |id: usize| {
            (0..plan.n())
                .flat_map(|r| plan.phases(r).flat_map(|ph| ph.sends()))
                .find(|m| m.id() == id)
                .expect("a receive's id is a send's")
        };
        let view = |m: MsgView| {
            let s = send(m.id());
            assert_eq!((m.tag(), m.blocks()), (s.tag(), s.blocks()), "receive {}", m.id());
            (m.peer(), m.id())
        };
        (0..plan.n())
            .map(|r| plan.phases(r).map(|ph| ph.recvs().map(view).collect()).collect())
            .collect()
    }

    #[test]
    fn valid_pair_plan_passes() {
        let (g, plan) = pair_plan();
        plan.validate(&g).unwrap();
        assert_eq!(plan.message_count(), 2);
        assert_eq!(plan.total_blocks_sent(), 2);
        assert_eq!(plan.max_message_blocks(), 1);
        assert_eq!(plan.max_sends_in_phase(), 1);
        assert_eq!(plan.sends_per_rank(), vec![1, 1]);
        assert_eq!(plan.phase_count(), 1);
        // rank 1 receives rank 0's send — send id 0 — and the reverse
        let recv = plan.phase(1, 0).recvs().next().unwrap();
        assert_eq!((recv.peer(), recv.id(), recv.tag(), recv.blocks()), (0, 0, 0, &[0][..]));
        assert_eq!(derived_recvs(&plan), vec![vec![vec![(1, 1)]], vec![vec![(0, 0)]]]);
    }

    #[test]
    fn detects_missing_delivery() {
        let (g, plan) = pair_plan();
        let plan = plan.edited(|rows| rows[0][0].sends.clear());
        let e = plan.validate(&g).unwrap_err();
        assert_eq!(e, PlanValidationError::NeverDelivered { src: 0, dst: 1 });
    }

    #[test]
    fn detects_double_delivery() {
        let (g, plan) = pair_plan();
        let plan = plan.edited(|rows| rows[0][0].sends.push(msg(1, vec![0], 9)));
        let e = plan.validate(&g).unwrap_err();
        assert_eq!(e, PlanValidationError::DuplicateDelivery { src: 0, dst: 1, count: 2 });
    }

    #[test]
    fn detects_unheld_block() {
        let (g, plan) = pair_plan();
        // rank 0 never holds 1 pre-phase
        let plan = plan.edited(|rows| rows[0][0].sends[0].blocks = vec![0, 1]);
        let e = plan.validate(&g).unwrap_err();
        assert_eq!(e, PlanValidationError::UnheldBlock { rank: 0, phase: 0, block: 1 });
    }

    #[test]
    fn detects_phase_mismatch() {
        let (g, plan) = pair_plan();
        let plan = plan.edited(|rows| rows[0].push(PlanPhase::default()));
        let e = plan.validate(&g).unwrap_err();
        assert_eq!(e, PlanValidationError::NotLockStep { rank: 1, got: 1, want: 2 });
        assert!(e.to_string().contains("lock-step"), "{e}");
    }

    #[test]
    fn the_reported_defect_is_a_function_of_the_plan() {
        // Eight repeated send keys: under a randomly seeded hasher the
        // validator used to name a different one from call to call.
        let g = nhood_topology::random::erdos_renyi(32, 0.3, 5);
        let plan = crate::naive::plan_naive(&g).edited(|rows| {
            for prog in &mut rows[..8] {
                let again = prog[0].sends[0].clone();
                prog[0].sends.push(again);
            }
        });
        // the contract: the lowest (dst, src, tag)
        let first = |r: Rank| plan.phase(r, 0).sends().next().unwrap();
        let (dst, src, tag) = (0..8).map(|r| (first(r).peer(), r, first(r).tag())).min().unwrap();
        for _ in 0..64 {
            let e = plan.validate(&g).unwrap_err();
            assert_eq!(e, PlanValidationError::DuplicateKey { src, dst, tag });
        }
        // two unheld blocks and an undelivered edge: rule 3 before rule
        // 4, and the lowest (phase, rank) of the two
        let g = Topology::from_edges(3, [(0, 1), (0, 2)]);
        let plan = crate::naive::plan_naive(&g).edited(|rows| {
            rows[0][0].sends.clear();
            rows[2][0].sends.push(msg(0, vec![1], 7));
            rows[1][0].sends.push(msg(0, vec![2], 7));
        });
        for _ in 0..64 {
            let e = plan.validate(&g).unwrap_err();
            assert_eq!(e, PlanValidationError::UnheldBlock { rank: 1, phase: 0, block: 2 });
        }
    }

    #[test]
    fn a_receive_sits_in_its_sends_phase() {
        // a send in phase 0 is received in phase 0 of its destination's
        // program, whatever else that program holds
        let g = Topology::from_edges(2, [(0, 1)]);
        let rows = [
            vec![sending(0, vec![msg(1, vec![0], 0)]), PlanPhase::default()],
            vec![PlanPhase::default(), sending(3, vec![])],
        ];
        let plan = CollectivePlan::from_rows(Algorithm::Naive, None, &rows);
        plan.validate(&g).unwrap();
        assert_eq!(derived_recvs(&plan), vec![vec![vec![], vec![]], vec![vec![(0, 0)], vec![]]]);
        assert_eq!(plan.phase(1, 1).recvs().len(), 0);
    }

    #[test]
    fn transit_blocks_are_allowed() {
        // 0 -> 1 -> 2 relay of block 0 where only edge (0,2) exists:
        // rank 1 holds block 0 in transit without consuming it
        let g = Topology::from_edges(3, [(0, 2)]);
        let rows = [
            vec![sending(1, vec![msg(1, vec![0], 0)]), PlanPhase::default()],
            vec![PlanPhase::default(), sending(0, vec![msg(2, vec![0], 1)])],
            vec![PlanPhase::default(), PlanPhase::default()],
        ];
        let plan = CollectivePlan::from_rows(Algorithm::DistanceHalving, None, &rows);
        plan.validate(&g).unwrap();
    }

    #[test]
    fn outside_rows_reach_the_validator_typed() {
        // A destination past the ranks, a send to oneself and a send into
        // a phase its destination's program lacks: the receive index
        // skips what it cannot place, and the validator — then the
        // compile — names the defect; nothing panics or indexes out of
        // bounds.
        let g = Topology::from_edges(3, [(0, 1), (0, 2)]);
        let naive = crate::naive::plan_naive(&g);
        let far = naive.edited(|rows| rows[0][0].sends[1].peer = 3);
        let own = naive.edited(|rows| rows[0][0].sends[0].peer = 0);
        let ragged = naive.edited(|rows| {
            rows[0].push(sending(0, vec![msg(1, vec![0], 5)]));
            rows[2].push(PlanPhase::default());
        });
        let cases = [
            (far, PlanValidationError::BadPeer { rank: 0, phase: 0, peer: 3 }),
            (own, PlanValidationError::BadPeer { rank: 0, phase: 0, peer: 0 }),
            (ragged, PlanValidationError::NotLockStep { rank: 1, got: 1, want: 2 }),
        ];
        for (plan, want) in cases {
            assert_eq!(derived_recvs(&plan), brute_recvs(&plan), "{want}");
            assert_eq!(plan.validate(&g), Err(want.clone()));
            let compiled = crate::arena::ArenaLayout::for_plan(&plan, &g).map(drop);
            assert_eq!(compiled, Err(crate::exec::ExecError::InvalidPlan(want)));
        }
    }

    #[test]
    fn every_constructor_holds_one_row_per_message_and_derives_the_same_receives() {
        let g = nhood_topology::random::erdos_renyi(40, 0.3, 3);
        let layout = nhood_cluster::ClusterLayout::new(5, 2, 4);
        let pattern = crate::builder::build_pattern(&g, &layout).unwrap();
        let built = crate::lower::lower(&pattern, &g);
        let rotate: Vec<Rank> = (0..40).map(|r| (r + 7) % 40).collect();
        let file = crate::plan_io::encode_plan(&built, None);
        let plans = [
            ("finish", built.clone()),
            (
                "from_rows",
                CollectivePlan::from_rows(built.algorithm, built.selection, &built.to_rows()),
            ),
            ("patched", built.patched(&Edits::new(), 0)),
            ("relabelled", built.relabelled(&rotate)),
            ("to_plan", crate::plan_io::decode_plan(&file).unwrap()),
        ];
        for (how, plan) in &plans {
            let sends: usize =
                (0..plan.n()).map(|r| plan.phases(r).map(|p| p.sends().len()).sum::<usize>()).sum();
            let recvs: usize =
                (0..plan.n()).map(|r| plan.phases(r).map(|p| p.recvs().len()).sum::<usize>()).sum();
            assert_eq!(plan.msgs.len(), plan.message_count(), "{how}");
            assert_eq!((sends, recvs), (plan.message_count(), plan.message_count()), "{how}");
            assert_eq!(derived_recvs(plan), brute_recvs(plan), "{how}");
        }
        assert!(plans[..3].iter().chain(&plans[4..]).all(|(_, p)| *p == built));
        plans[3].1.validate(&g.relabelled(&rotate)).unwrap();
    }

    #[test]
    fn table_counts_past_u32_are_refused_not_wrapped() {
        // what `PlanWriter::finish`, `from_rows`, `patched` and the plan
        // file's owned exit all end in: a count the `u32` offsets cannot
        // hold is an error that names it
        assert_eq!(fits_u32("messages", u32::MAX as usize), Ok(u32::MAX));
        let e = fits_u32("messages", u32::MAX as usize + 1).unwrap_err();
        assert!(e.contains("4294967296 messages"), "{e}");
        // ... and an in-range writer finishes to offsets that index
        let mut w = PlanWriter::new(Algorithm::Naive, 2, 1);
        w.message(0, 0, 1, 7, &[0]);
        let plan = w.finish();
        assert_eq!(plan.phase(1, 0).recvs().next().unwrap().blocks(), [0]);
    }

    #[test]
    #[should_panic(expected = "rank 0 has 1 phases")]
    fn a_row_past_a_ranks_program_is_a_builder_bug() {
        PlanWriter::new(Algorithm::Naive, 2, 1).message(1, 0, 1, 0, &[0]);
    }

    #[test]
    fn algorithm_display() {
        assert_eq!(Algorithm::Naive.to_string(), "naive");
        assert_eq!(Algorithm::CommonNeighbor { k: 4 }.to_string(), "common-neighbor(k=4)");
        assert_eq!(Algorithm::DistanceHalving.to_string(), "distance-halving");
    }
}
