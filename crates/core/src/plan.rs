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
//! message table `(peer, tag, block range)`, one block pool and a copy
//! column. Builders append rows to a [`PlanWriter`] in whatever order
//! their algorithm meets them; `finish` is one stable counting sort into
//! (direction, rank, phase) *buckets*. **Within a bucket the rows keep
//! their emission order** — the one ordering a builder owes its readers
//! (validation's "first in program order", the gather compile's slot
//! walk, the plan file's bytes) — and a send's row index is its dense id
//! in program order, which is how the validator, the item routing and the
//! compiler name messages. Everything reads through
//! [`CollectivePlan::phase`]. [`PlannedMsg`] / [`PlanPhase`] are the
//! *owned row form*: hand-written plans, test mutators, one decoded rank.
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

/// Which direction of a [`PlannedMsg`] a validation error refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MsgDir {
    /// The message appears in a phase's `sends`.
    Send,
    /// The message appears in a phase's `recvs`.
    Recv,
}

impl std::fmt::Display for MsgDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsgDir::Send => write!(f, "send"),
            MsgDir::Recv => write!(f, "recv"),
        }
    }
}

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
    /// A message names an out-of-range or self peer.
    BadPeer {
        /// The rank whose program holds the message.
        rank: Rank,
        /// Phase index.
        phase: usize,
        /// The bad peer.
        peer: Rank,
        /// Whether the message is a send or a recv.
        dir: MsgDir,
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
    /// Two messages share a `(src, dst, tag)` key.
    DuplicateKey {
        /// Source rank.
        src: Rank,
        /// Destination rank.
        dst: Rank,
        /// The shared tag.
        tag: u64,
        /// Whether the duplicates are sends or recvs.
        dir: MsgDir,
    },
    /// The total number of sends and recvs differ.
    SendRecvCountMismatch {
        /// Total sends.
        sends: usize,
        /// Total recvs.
        recvs: usize,
    },
    /// A send has no mirroring recv.
    UnmatchedSend {
        /// Source rank.
        src: Rank,
        /// Destination rank.
        dst: Rank,
        /// Tag.
        tag: u64,
    },
    /// A send and its mirroring recv sit in different phases.
    PhaseSkew {
        /// Source rank.
        src: Rank,
        /// Destination rank.
        dst: Rank,
        /// Tag.
        tag: u64,
        /// Phase the send is posted in.
        send_phase: usize,
        /// Phase the recv is posted in.
        recv_phase: usize,
    },
    /// A send and its mirroring recv disagree on the block list.
    BlockListMismatch {
        /// Source rank.
        src: Rank,
        /// Destination rank.
        dst: Rank,
        /// Tag.
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
            BadPeer { rank, phase, peer, dir } => {
                write!(f, "rank {rank} phase {phase}: bad {dir} peer {peer}")
            }
            EmptySend { rank, phase, peer } => {
                write!(f, "rank {rank} phase {phase}: empty send to {peer}")
            }
            DuplicateKey { src, dst, tag, dir } => {
                write!(f, "duplicate {dir} key ({src},{dst},{tag})")
            }
            SendRecvCountMismatch { sends, recvs } => write!(f, "{sends} sends vs {recvs} recvs"),
            UnmatchedSend { src, dst, tag } => {
                write!(f, "send ({src},{dst},{tag}) has no matching recv")
            }
            PhaseSkew { src, dst, tag, send_phase, recv_phase } => {
                write!(f, "send ({src},{dst},{tag}) in phase {send_phase} but recv in {recv_phase}")
            }
            BlockListMismatch { src, dst, tag } => {
                write!(f, "send ({src},{dst},{tag}) blocks differ from recv")
            }
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
/// (payload contributions of those ranks, concatenated in order) moving
/// between this rank and `peer`. See [`CollectivePlan::from_rows`] /
/// [`CollectivePlan::to_rows`] and [`crate::plan_io::PlanFile::rank`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedMsg {
    /// The other endpoint.
    pub peer: Rank,
    /// Whose payload blocks the message carries, in payload order.
    pub blocks: Vec<Rank>,
    /// Matching tag; unique per (src, dst) pair within the plan.
    pub tag: u64,
}

/// One post-recvs/post-sends/wait-all block of a rank's program, in the
/// owned row form (see [`PlannedMsg`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanPhase {
    /// Number of block-sized memcpys this rank performs at phase entry
    /// (buffer packing / receive-buffer copies); the simulator charges
    /// `copy_blocks · m / memcpy_bandwidth`.
    pub copy_blocks: usize,
    /// Messages sent in this phase.
    pub sends: Vec<PlannedMsg>,
    /// Messages received in this phase.
    pub recvs: Vec<PlannedMsg>,
}

/// One row of the message table; its blocks are
/// `pool[block_off..block_off + block_len]`.
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
    /// With `B` buckets, bucket `b`'s sends are rows
    /// `msg_off[b]..msg_off[b + 1]` and its recvs rows
    /// `msg_off[B + b]..msg_off[B + b + 1]`: every send sits before every
    /// recv, each side in (rank, phase) order, so a send's row index *is*
    /// its dense id in program order.
    pub(crate) msg_off: Vec<u32>,
    pub(crate) msgs: Vec<MsgRow>,
    /// The block lists; a message written by [`PlanWriter::message`]
    /// shares one range between its two sides.
    pub(crate) pool: Vec<Rank>,
    /// Sum of the send rows' block counts ([`Self::checked`] derives it).
    pub(crate) blocks_sent: usize,
}

/// Equal when the algorithm, the selection statistics and every row are:
/// where a block list sits in the pool is not part of a plan's value.
impl PartialEq for CollectivePlan {
    fn eq(&self, other: &Self) -> bool {
        self.algorithm == other.algorithm
            && self.selection == other.selection
            && self.same_rows(other)
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

    /// The messages of one direction, in emission order.
    pub fn msgs(
        &self,
        dir: MsgDir,
    ) -> impl DoubleEndedIterator<Item = MsgView<'a>> + ExactSizeIterator + Clone + 'a {
        let plan = self.plan;
        let first = if dir == MsgDir::Send { 0 } else { plan.copy_blocks.len() };
        let off = |b: usize| plan.msg_off[first + b] as usize;
        let rows = self.bucket.map_or(0..0, |b| off(b)..off(b + 1));
        let id = rows.start;
        plan.msgs[rows].iter().enumerate().map(move |(i, row)| MsgView { plan, id: id + i, row })
    }

    /// Messages sent in this phase, in emission order.
    pub fn sends(&self) -> impl DoubleEndedIterator<Item = MsgView<'a>> + ExactSizeIterator + 'a {
        self.msgs(MsgDir::Send)
    }

    /// Messages received in this phase, in emission order.
    pub fn recvs(&self) -> impl DoubleEndedIterator<Item = MsgView<'a>> + ExactSizeIterator + 'a {
        self.msgs(MsgDir::Recv)
    }
}

/// One planned message, borrowed from the plan's tables.
#[derive(Clone, Copy, Debug)]
pub struct MsgView<'a> {
    plan: &'a CollectivePlan,
    id: usize,
    row: &'a MsgRow,
}

impl<'a> MsgView<'a> {
    /// The message's row in the table. Sends come first, in program
    /// order (rank, phase, emission order), so a send's id is dense in
    /// `0..message_count()`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The other endpoint.
    pub fn peer(&self) -> Rank {
        self.row.peer as Rank
    }

    /// Matching tag; unique per (src, dst) pair within the plan.
    pub fn tag(&self) -> u64 {
        self.row.tag
    }

    /// Whose payload blocks the message carries, in payload order.
    pub fn blocks(&self) -> &'a [Rank] {
        self.plan.blocks_of(*self.row)
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

    /// Total messages, counted on the send side.
    pub fn message_count(&self) -> usize {
        self.msg_off[self.copy_blocks.len()] as usize
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
        let sends = &self.msg_off[..=self.copy_blocks.len()];
        sends.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }

    /// Largest single message, in blocks.
    pub fn max_message_blocks(&self) -> usize {
        let sends = &self.msgs[..self.message_count()];
        sends.iter().map(|m| m.block_len as usize).max().unwrap_or(0)
    }

    /// Per-rank total messages sent — the load-balance view.
    pub fn sends_per_rank(&self) -> Vec<usize> {
        let at = |bucket: u32| self.msg_off[bucket as usize] as usize;
        self.phase_off.windows(2).map(|w| at(w[1]) - at(w[0])).collect()
    }

    /// `true` when both plans hold the same rows — programs, copy counts
    /// and every message's peer, tag and block list — whatever their
    /// algorithm or selection statistics.
    pub(crate) fn same_rows(&self, other: &Self) -> bool {
        let same = |(a, b): (&MsgRow, &MsgRow)| {
            (a.peer, a.tag) == (b.peer, b.tag) && self.blocks_of(*a) == other.blocks_of(*b)
        };
        self.phase_off == other.phase_off
            && self.copy_blocks == other.copy_blocks
            && self.msg_off == other.msg_off
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
                ph.sends.iter().for_each(|m| w.send(r, p, m.peer, m.tag, &m.blocks));
                ph.recvs.iter().for_each(|m| w.recv(r, p, m.peer, m.tag, &m.blocks));
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
                recvs: ph.recvs().map(|m| m.to_row()).collect(),
            })
            .collect()
    }

    /// The whole plan in the owned row form ([`Self::from_rows`]'s
    /// inverse).
    pub fn to_rows(&self) -> Vec<Vec<PlanPhase>> {
        (0..self.n()).map(|r| self.rank_rows(r)).collect()
    }

    /// A copy of the plan with the `(peer, blocks)` messages in `edits` —
    /// per bucket side `(dir, rank, phase)`, ascending by peer like the
    /// bucket they patch — put in place of the old message with that peer
    /// (keeping its tag), or at its sorted position under `tag` when
    /// there was none; one with no block is dropped. Every other row is
    /// carried over by range, a shared block range staying shared, and
    /// the new pool holds live blocks only.
    pub(crate) fn patched(&self, edits: &Edits, tag: u64) -> Self {
        let fresh: usize = edits.values().flatten().map(|m| m.1.len()).sum();
        let mut out = Self {
            algorithm: self.algorithm,
            selection: self.selection,
            phase_off: self.phase_off.clone(),
            copy_blocks: self.copy_blocks.clone(),
            msg_off: Vec::with_capacity(self.msg_off.len()),
            msgs: Vec::with_capacity(self.msgs.len() + edits.len()),
            pool: Vec::with_capacity(self.pool.len() + fresh),
            blocks_sent: 0,
        };
        // Where an old block range went, by its start: the writer never
        // starts two non-empty ranges at one offset.
        const UNMOVED: u32 = u32::MAX;
        let mut moved = vec![UNMOVED; self.pool.len()];
        for dir in [MsgDir::Send, MsgDir::Recv] {
            let buckets = |r| self.phases(r).enumerate().map(move |(p, phase)| (r, p, phase));
            for (r, p, phase) in (0..self.n()).flat_map(buckets) {
                out.msg_off.push(out.msgs.len() as u32);
                let mut fresh = edits.get(&(dir, r, p)).into_iter().flatten().peekable();
                let put = |out: &mut Self, (peer, blocks): &(Rank, Vec<Rank>), tag: u64| {
                    if !blocks.is_empty() {
                        out.msgs.push(MsgRow::pooled(&mut out.pool, *peer, tag, blocks));
                    }
                };
                for old in phase.msgs(dir) {
                    while let Some(m) = fresh.next_if(|m| m.0 < old.peer()) {
                        put(&mut out, m, tag);
                    }
                    if let Some(m) = fresh.next_if(|m| m.0 == old.peer()) {
                        put(&mut out, m, old.tag());
                        continue;
                    }
                    let mut row = *old.row;
                    if row.block_len == 0 {
                        row.block_off = 0;
                    } else {
                        let to = &mut moved[row.block_off as usize];
                        if *to == UNMOVED {
                            *to = out.pool.len() as u32;
                            out.pool.extend_from_slice(old.blocks());
                        }
                        row.block_off = *to;
                    }
                    out.msgs.push(row);
                }
                fresh.for_each(|m| put(&mut out, m, tag));
            }
        }
        out.msg_off.push(out.msgs.len() as u32);
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
    /// are known to fit the `u32` offsets they were written under.
    pub(crate) fn checked(mut self) -> Result<Self, String> {
        fits_u32("messages", self.msgs.len())?;
        fits_u32("blocks", self.pool.len())?;
        fits_u32("phases", self.copy_blocks.len())?;
        let sends = &self.msgs[..self.message_count()];
        self.blocks_sent = sends.iter().map(|m| m.block_len as usize).sum();
        Ok(self)
    }
}

/// What [`CollectivePlan::patched`] puts in: per bucket side `(dir,
/// rank, phase)`, `(peer, blocks)` messages ascending by peer.
pub(crate) type Edits = BTreeMap<(MsgDir, Rank, usize), Vec<(Rank, Vec<Rank>)>>;

/// A staged row: the bucket side it belongs to, and the row.
#[derive(Clone, Copy, Debug)]
struct Staged {
    bucket: u32,
    dir: MsgDir,
    row: MsgRow,
}

/// The append-only builder of a [`CollectivePlan`]: rows are emitted in
/// any order across (rank, phase, direction) buckets and
/// [`finish`](Self::finish) sorts them into the plan's tables with one
/// stable counting sort — within a bucket, emission order is kept.
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

    /// Makes room for `messages` more messages (both sides) carrying
    /// `blocks` blocks in all.
    pub fn reserve(&mut self, messages: usize, blocks: usize) {
        self.rows.reserve_exact(2 * messages);
        self.pool.reserve_exact(blocks);
    }

    /// Charges `blocks` more block-sized memcpys to phase `phase` of
    /// `rank`.
    pub fn copy(&mut self, rank: Rank, phase: usize, blocks: usize) {
        let bucket = self.bucket(rank, phase);
        self.copy_blocks[bucket as usize] += blocks;
    }

    /// Posts a send of `blocks` from `rank` to `peer` in `phase`.
    pub fn send(&mut self, rank: Rank, phase: usize, peer: Rank, tag: u64, blocks: &[Rank]) {
        let row = MsgRow::pooled(&mut self.pool, peer, tag, blocks);
        self.stage(rank, phase, MsgDir::Send, row);
    }

    /// Posts a receive of `blocks` at `rank` from `peer` in `phase`.
    pub fn recv(&mut self, rank: Rank, phase: usize, peer: Rank, tag: u64, blocks: &[Rank]) {
        let row = MsgRow::pooled(&mut self.pool, peer, tag, blocks);
        self.stage(rank, phase, MsgDir::Recv, row);
    }

    /// Posts both sides of one message — the send at `src`, the receive
    /// at `dst` — over one pooled block range.
    pub fn message(&mut self, phase: usize, src: Rank, dst: Rank, tag: u64, blocks: &[Rank]) {
        let row = MsgRow::pooled(&mut self.pool, dst, tag, blocks);
        self.stage(src, phase, MsgDir::Send, row);
        // INVARIANT: as `MsgRow::pooled`'s — ranks fit the `u32` column.
        let peer = u32::try_from(src).expect("a rank fits the table's u32 peer column");
        self.stage(dst, phase, MsgDir::Recv, MsgRow { peer, ..row });
    }

    fn bucket(&self, rank: Rank, phase: usize) -> u32 {
        let (lo, hi) = (self.phase_off[rank], self.phase_off[rank + 1]);
        assert!(phase < (hi - lo) as usize, "rank {rank} has {} phases, not {phase}", hi - lo);
        lo + phase as u32
    }

    fn stage(&mut self, rank: Rank, phase: usize, dir: MsgDir, row: MsgRow) {
        let bucket = self.bucket(rank, phase);
        self.rows.push(Staged { bucket, dir, row });
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
        // One stable counting sort by (direction, bucket): count, prefix,
        // fill with the offsets as cursors — which leaves each at its
        // bucket's end, the next one's start — and shift back by one.
        let side = |s: &Staged| s.bucket as usize + if s.dir == MsgDir::Send { 0 } else { buckets };
        let mut msg_off = vec![0u32; 2 * buckets + 1];
        for s in &self.rows {
            msg_off[side(s) + 1] += 1;
        }
        for b in 0..2 * buckets {
            msg_off[b + 1] += msg_off[b];
        }
        let mut msgs = vec![MsgRow::default(); self.rows.len()];
        for s in &self.rows {
            msgs[msg_off[side(s)] as usize] = s.row;
            msg_off[side(s)] += 1;
        }
        msg_off.rotate_right(1);
        msg_off[0] = 0;
        CollectivePlan {
            algorithm: self.algorithm,
            selection: self.selection,
            phase_off: self.phase_off,
            copy_blocks: self.copy_blocks,
            msg_off,
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
    /// 2. sends and recvs mirror each other exactly (peer, blocks, tag);
    /// 3. a rank only sends blocks it holds (its own, or ones received in
    ///    *earlier* phases);
    /// 4. every topology edge `(b → t)` is delivered to `t` exactly once;
    /// 5. nothing is delivered that the topology does not require —
    ///    except transit data (blocks a rank relays but does not consume),
    ///    which is allowed and is exactly what distinguishes DH traffic.
    ///
    /// # Which defect is reported
    ///
    /// A function of the plan, never of a hasher: rules in the order
    /// above. Rule 1: the lowest rank. Rule 2: `BadPeer` / `EmptySend`,
    /// first in program order (rank, phase, sends before recvs, index);
    /// then a send-side `DuplicateKey`, lowest `(dst, src, tag)`; then a
    /// recv-side one, the first recv in program order to claim a send an
    /// earlier recv claimed; then `SendRecvCountMismatch`; then
    /// `UnmatchedSend`, lowest `(dst, src, tag)`; then the first recv in
    /// program order that disagrees with its send, `PhaseSkew` before
    /// `BlockListMismatch`. Rule 3: the lowest (phase, rank, send index,
    /// block index). Rule 4: the lowest edge `(src, dst)`.
    pub fn validate(&self, graph: &Topology) -> Result<(), PlanValidationError> {
        use PlanValidationError as E;
        let n = self.n();
        self.check_mirror(graph.n())?;

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

    /// Rules 1 and 2 of [`Self::validate`]: a send's id is its row, and
    /// every recv is resolved to the send it mirrors through the matching
    /// kernel.
    fn check_mirror(&self, topology_ranks: usize) -> Result<(), PlanValidationError> {
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
            for phase in 0..phases {
                let ph = self.phase(rank, phase);
                let bad = |peer| peer >= n || peer == rank;
                for m in ph.sends() {
                    if bad(m.peer()) {
                        return Err(E::BadPeer { rank, phase, peer: m.peer(), dir: MsgDir::Send });
                    } else if m.blocks().is_empty() {
                        return Err(E::EmptySend { rank, phase, peer: m.peer() });
                    }
                }
                if let Some(m) = ph.recvs().find(|m| bad(m.peer())) {
                    return Err(E::BadPeer { rank, phase, peer: m.peer(), dir: MsgDir::Recv });
                }
            }
        }
        // the send rows of rank `src`, which are consecutive
        let sent_by = |src: Rank| {
            let at = |bucket: u32| self.msg_off[bucket as usize] as usize;
            at(self.phase_off[src])..at(self.phase_off[src + 1])
        };
        let keys = (0..n).flat_map(|src| {
            self.msgs[sent_by(src)].iter().map(move |m| (src, m.peer as Rank, m.tag))
        });
        let index = SendIndex::build(n, keys).map_err(|(src, dst, tag)| E::DuplicateKey {
            src,
            dst,
            tag,
            dir: MsgDir::Send,
        })?;
        let sends = self.message_count();
        let mut matched = vec![false; sends];
        let mut differs = None;
        for dst in 0..n {
            for recv_phase in 0..phases {
                for m in self.phase(dst, recv_phase).recvs() {
                    let (src, tag) = (m.peer(), m.tag());
                    let Some(id) = index.find(src, dst, tag) else { continue };
                    if std::mem::replace(&mut matched[id as usize], true) {
                        return Err(E::DuplicateKey { src, dst, tag, dir: MsgDir::Recv });
                    }
                    // the phase of send `id`: how many of its sender's
                    // buckets end at or before it
                    let ends = &self.msg_off[self.phase_off[src] as usize + 1..];
                    let send_phase = ends[..phases].partition_point(|&end| end <= id);
                    let skew = || E::PhaseSkew { src, dst, tag, send_phase, recv_phase };
                    let list = || E::BlockListMismatch { src, dst, tag };
                    let sent = self.blocks_of(self.msgs[id as usize]);
                    differs = differs
                        .or_else(|| (send_phase != recv_phase).then(skew))
                        .or_else(|| (sent != m.blocks()).then(list));
                }
            }
        }
        let recvs = self.msgs.len() - sends;
        if sends != recvs {
            return Err(E::SendRecvCountMismatch { sends, recvs });
        }
        if let Some((src, dst, tag)) = index.first_unmatched(&matched) {
            return Err(E::UnmatchedSend { src, dst, tag });
        }
        differs.map_or(Ok(()), Err)
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

    fn msg(peer: Rank, blocks: Vec<Rank>, tag: u64) -> PlannedMsg {
        PlannedMsg { peer, blocks, tag }
    }

    /// hand-built two-rank exchange plan
    fn pair_plan() -> (Topology, CollectivePlan) {
        let g = Topology::from_edges(2, [(0, 1), (1, 0)]);
        let rows = [
            vec![PlanPhase {
                copy_blocks: 0,
                sends: vec![msg(1, vec![0], 0)],
                recvs: vec![msg(1, vec![1], 0)],
            }],
            vec![PlanPhase {
                copy_blocks: 0,
                sends: vec![msg(0, vec![1], 0)],
                recvs: vec![msg(0, vec![0], 0)],
            }],
        ];
        (g, CollectivePlan::from_rows(Algorithm::Naive, None, &rows))
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
    }

    #[test]
    fn detects_missing_delivery() {
        let (g, plan) = pair_plan();
        let plan = plan.edited(|rows| {
            rows[0][0].sends.clear();
            rows[1][0].recvs.clear();
        });
        let e = plan.validate(&g).unwrap_err();
        assert_eq!(e, PlanValidationError::NeverDelivered { src: 0, dst: 1 });
    }

    #[test]
    fn detects_double_delivery() {
        let (g, plan) = pair_plan();
        let plan = plan.edited(|rows| {
            rows[0][0].sends.push(msg(1, vec![0], 9));
            rows[1][0].recvs.push(msg(0, vec![0], 9));
        });
        let e = plan.validate(&g).unwrap_err();
        assert_eq!(e, PlanValidationError::DuplicateDelivery { src: 0, dst: 1, count: 2 });
    }

    #[test]
    fn detects_unheld_block() {
        let (g, plan) = pair_plan();
        let plan = plan.edited(|rows| {
            rows[0][0].sends[0].blocks = vec![0, 1]; // rank 0 never holds 1 pre-phase
            rows[1][0].recvs[0].blocks = vec![0, 1];
        });
        let e = plan.validate(&g).unwrap_err();
        assert_eq!(e, PlanValidationError::UnheldBlock { rank: 0, phase: 0, block: 1 });
    }

    #[test]
    fn detects_mirror_mismatch() {
        let (g, plan) = pair_plan();
        assert!(plan.edited(|rows| rows[1][0].recvs[0].tag = 7).validate(&g).is_err());
        let plan = plan.edited(|rows| rows[1][0].recvs[0].blocks = vec![1]);
        let e = plan.validate(&g).unwrap_err();
        assert_eq!(e, PlanValidationError::BlockListMismatch { src: 0, dst: 1, tag: 0 });
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
        // Eight unmatched sends (and eight orphaned recvs): under a
        // randomly seeded hasher the validator used to name a different
        // one from call to call.
        let g = nhood_topology::random::erdos_renyi(32, 0.3, 5);
        let plan = crate::naive::plan_naive(&g).edited(|rows| {
            for prog in &mut rows[..8] {
                prog[0].recvs[0].tag = 99;
            }
        });
        // the contract: the lowest (dst, src, tag), so rank 0's first recv
        let src = plan.phase(0, 0).recvs().next().unwrap().peer();
        for _ in 0..64 {
            let e = plan.validate(&g).unwrap_err();
            assert_eq!(e, PlanValidationError::UnmatchedSend { src, dst: 0, tag: 0 });
        }
        // a skewed and a permuted message: the first recv in program
        // order wins, whatever its defect
        let g = Topology::from_edges(3, [(0, 1), (0, 2)]);
        let plan = crate::naive::plan_naive(&g).edited(|rows| {
            rows[2][0].recvs[0].blocks = vec![2];
            for prog in rows.iter_mut() {
                prog.insert(0, PlanPhase::default());
            }
            let moved = rows[1][1].recvs.pop().unwrap();
            rows[1][0].recvs.push(moved);
        });
        for _ in 0..64 {
            let e = plan.validate(&g).unwrap_err();
            assert!(matches!(e, PlanValidationError::PhaseSkew { src: 0, dst: 1, .. }), "{e}");
        }
    }

    #[test]
    fn detects_cross_phase_match() {
        let g = Topology::from_edges(2, [(0, 1)]);
        let rows = [
            vec![
                PlanPhase { copy_blocks: 0, sends: vec![msg(1, vec![0], 0)], recvs: vec![] },
                PlanPhase::default(),
            ],
            vec![
                PlanPhase::default(),
                PlanPhase { copy_blocks: 0, sends: vec![], recvs: vec![msg(0, vec![0], 0)] },
            ],
        ];
        let plan = CollectivePlan::from_rows(Algorithm::Naive, None, &rows);
        let e = plan.validate(&g).unwrap_err();
        assert!(matches!(e, PlanValidationError::PhaseSkew { src: 0, dst: 1, tag: 0, .. }), "{e}");
    }

    #[test]
    fn transit_blocks_are_allowed() {
        // 0 -> 1 -> 2 relay of block 0 where only edge (0,2) exists:
        // rank 1 holds block 0 in transit without consuming it
        let g = Topology::from_edges(3, [(0, 2)]);
        let rows = [
            vec![
                PlanPhase { copy_blocks: 1, sends: vec![msg(1, vec![0], 0)], recvs: vec![] },
                PlanPhase::default(),
            ],
            vec![
                PlanPhase { copy_blocks: 0, sends: vec![], recvs: vec![msg(0, vec![0], 0)] },
                PlanPhase { copy_blocks: 0, sends: vec![msg(2, vec![0], 1)], recvs: vec![] },
            ],
            vec![
                PlanPhase::default(),
                PlanPhase { copy_blocks: 0, sends: vec![], recvs: vec![msg(1, vec![0], 1)] },
            ],
        ];
        let plan = CollectivePlan::from_rows(Algorithm::DistanceHalving, None, &rows);
        plan.validate(&g).unwrap();
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
        PlanWriter::new(Algorithm::Naive, 2, 1).send(0, 1, 1, 0, &[0]);
    }

    #[test]
    fn algorithm_display() {
        assert_eq!(Algorithm::Naive.to_string(), "naive");
        assert_eq!(Algorithm::CommonNeighbor { k: 4 }.to_string(), "common-neighbor(k=4)");
        assert_eq!(Algorithm::DistanceHalving.to_string(), "distance-halving");
    }
}
