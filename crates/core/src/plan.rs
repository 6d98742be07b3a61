//! Executable data-movement plans.
//!
//! A [`CollectivePlan`] is the common output of all three algorithms
//! (naïve, Common Neighbor, Distance Halving): for every rank, an ordered
//! list of [`PlanPhase`]s, each posting receives and sends and ending in
//! an implicit wait-all — the exact structure of the paper's Algorithm 4.
//! Message payloads are described as ordered lists of **blocks** (rank
//! ids whose allgather contribution is concatenated into the message), so
//! the same plan can be executed with real bytes (the virtual and
//! threaded executors) or costed symbolically (the simulator, at any
//! message size).
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

/// Which direction of a [`PlannedMsg`] a validation error refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// One planned message: `blocks` (payload contributions of those ranks,
/// concatenated in order) moving between this rank and `peer`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedMsg {
    /// The other endpoint.
    pub peer: Rank,
    /// Whose payload blocks the message carries, in payload order.
    pub blocks: Vec<Rank>,
    /// Matching tag; unique per (src, dst) pair within the plan.
    pub tag: u64,
}

/// One post-recvs/post-sends/wait-all block of a rank's program.
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

impl PlanPhase {
    /// `true` if the phase neither communicates nor copies.
    pub fn is_empty(&self) -> bool {
        self.copy_blocks == 0 && self.sends.is_empty() && self.recvs.is_empty()
    }
}

/// A complete, executable plan for one neighborhood allgather.
#[derive(Clone, Debug)]
pub struct CollectivePlan {
    /// The algorithm that produced this plan.
    pub algorithm: Algorithm,
    /// `per_rank[r]` is rank `r`'s phase program. All programs have equal
    /// length (padded with empty phases) so executors can run them in
    /// lock-step.
    pub per_rank: Vec<Vec<PlanPhase>>,
    /// Selection statistics (Distance Halving only).
    pub selection: Option<SelectionStats>,
}

impl CollectivePlan {
    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.per_rank.len()
    }

    /// Number of (lock-step) phases.
    pub fn phase_count(&self) -> usize {
        self.per_rank.first().map_or(0, Vec::len)
    }

    /// Every planned message once, on its send side, in program order.
    fn sends(&self) -> impl Iterator<Item = &PlannedMsg> {
        self.per_rank.iter().flatten().flat_map(|ph| &ph.sends)
    }

    /// Total messages, counted on the send side.
    pub fn message_count(&self) -> usize {
        self.sends().count()
    }

    /// Total payload volume in block units (multiply by the per-rank
    /// message size `m` for bytes).
    pub fn total_blocks_sent(&self) -> usize {
        self.sends().map(|m| m.blocks.len()).sum()
    }

    /// Peak per-phase fan-out: the largest number of sends any rank
    /// posts in a single phase. Under fault injection this bounds how
    /// many messages a phase deadline must leave room to retry, so the
    /// chaos tooling uses it to budget per-phase timeouts.
    pub fn max_sends_in_phase(&self) -> usize {
        self.per_rank.iter().flatten().map(|ph| ph.sends.len()).max().unwrap_or(0)
    }

    /// Largest single message, in blocks.
    pub fn max_message_blocks(&self) -> usize {
        self.sends().map(|m| m.blocks.len()).max().unwrap_or(0)
    }

    /// Per-rank total messages sent — the load-balance view.
    pub fn sends_per_rank(&self) -> Vec<usize> {
        self.per_rank.iter().map(|phases| phases.iter().map(|ph| ph.sends.len()).sum()).collect()
    }

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
        check_mirror(graph.n(), &self.per_rank)?;

        // 3 + 4, one rank at a time: what a rank holds depends only on
        // its own earlier receives, and what an edge's destination was
        // delivered only on its own receives. `got[b]` counts rank `r`'s
        // receives of block `b` while `stamp[b] == r + 1`, so neither
        // array is ever reset. A block id `>= n` is held by nobody: the
        // lowest (phase, rank) that sends one cannot have received it.
        let (mut stamp, mut got) = (vec![0usize; n], vec![0usize; n]);
        let mut unheld: Option<(usize, Rank, Rank)> = None; // (phase, rank, block)
        let mut misdelivered: Option<(Rank, Rank, usize)> = None; // (src, dst, count)
        'rank: for (r, prog) in self.per_rank.iter().enumerate() {
            for (k, ph) in prog.iter().enumerate() {
                if unheld.is_some_and(|(phase, ..)| phase <= k) {
                    continue 'rank; // a lower (phase, rank) already sends an unheld block
                }
                let holds = |b: Rank| b == r || stamp.get(b) == Some(&(r + 1));
                if let Some(&b) = ph.sends.iter().flat_map(|m| &m.blocks).find(|&&b| !holds(b)) {
                    unheld = Some((k, r, b));
                    continue 'rank;
                }
                for &b in ph.recvs.iter().flat_map(|m| &m.blocks).filter(|&&b| b < n) {
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
}

/// Rules 1 and 2 of [`CollectivePlan::validate`]: every send gets a dense
/// id in program order and every recv is resolved to the send it mirrors
/// through the matching kernel.
fn check_mirror(
    topology_ranks: usize,
    per_rank: &[Vec<PlanPhase>],
) -> Result<(), PlanValidationError> {
    use PlanValidationError as E;
    let n = per_rank.len();
    if topology_ranks != n {
        return Err(E::RankCountMismatch { plan: n, topology: topology_ranks });
    }
    let phases = per_rank.first().map_or(0, Vec::len);
    if let Some((rank, prog)) = per_rank.iter().enumerate().find(|(_, p)| p.len() != phases) {
        return Err(E::NotLockStep { rank, got: prog.len(), want: phases });
    }
    let (mut sends, mut recvs) = (Vec::new(), 0usize);
    sends.reserve_exact(per_rank.iter().flatten().map(|ph| ph.sends.len()).sum());
    for (rank, prog) in per_rank.iter().enumerate() {
        for (phase, ph) in prog.iter().enumerate() {
            let bad = |peer| peer >= n || peer == rank;
            for m in &ph.sends {
                if bad(m.peer) {
                    return Err(E::BadPeer { rank, phase, peer: m.peer, dir: MsgDir::Send });
                } else if m.blocks.is_empty() {
                    return Err(E::EmptySend { rank, phase, peer: m.peer });
                }
                sends.push((rank, phase, m));
            }
            if let Some(m) = ph.recvs.iter().find(|m| bad(m.peer)) {
                return Err(E::BadPeer { rank, phase, peer: m.peer, dir: MsgDir::Recv });
            }
            recvs += ph.recvs.len();
        }
    }
    let keys = sends.iter().map(|&(src, _, m)| (src, m.peer, m.tag));
    let index = SendIndex::build(n, 0, keys).map_err(|(src, dst, tag)| E::DuplicateKey {
        src,
        dst,
        tag,
        dir: MsgDir::Send,
    })?;
    let mut matched = vec![false; sends.len()];
    let mut differs = None;
    for (dst, prog) in per_rank.iter().enumerate() {
        for (recv_phase, ph) in prog.iter().enumerate() {
            for &PlannedMsg { peer: src, ref blocks, tag } in &ph.recvs {
                let Some(id) = index.find(src, dst, tag) else { continue };
                if std::mem::replace(&mut matched[id as usize], true) {
                    return Err(E::DuplicateKey { src, dst, tag, dir: MsgDir::Recv });
                }
                let (_, send_phase, sent) = sends[id as usize];
                let skew = || E::PhaseSkew { src, dst, tag, send_phase, recv_phase };
                let list = || E::BlockListMismatch { src, dst, tag };
                differs = differs
                    .or_else(|| (send_phase != recv_phase).then(skew))
                    .or_else(|| (sent.blocks != *blocks).then(list));
            }
        }
    }
    if sends.len() != recvs {
        return Err(E::SendRecvCountMismatch { sends: sends.len(), recvs });
    }
    if let Some((src, dst, tag)) = index.first_unmatched(&matched) {
        return Err(E::UnmatchedSend { src, dst, tag });
    }
    differs.map_or(Ok(()), Err)
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
        let plan = CollectivePlan {
            algorithm: Algorithm::Naive,
            per_rank: vec![
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
            ],
            selection: None,
        };
        (g, plan)
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
        let (g, mut plan) = pair_plan();
        plan.per_rank[0][0].sends.clear();
        plan.per_rank[1][0].recvs.clear();
        let e = plan.validate(&g).unwrap_err();
        assert_eq!(e, PlanValidationError::NeverDelivered { src: 0, dst: 1 });
    }

    #[test]
    fn detects_double_delivery() {
        let (g, mut plan) = pair_plan();
        plan.per_rank[0][0].sends.push(msg(1, vec![0], 9));
        plan.per_rank[1][0].recvs.push(msg(0, vec![0], 9));
        let e = plan.validate(&g).unwrap_err();
        assert_eq!(e, PlanValidationError::DuplicateDelivery { src: 0, dst: 1, count: 2 });
    }

    #[test]
    fn detects_unheld_block() {
        let (g, mut plan) = pair_plan();
        plan.per_rank[0][0].sends[0].blocks = vec![0, 1]; // rank 0 never holds 1 pre-phase
        plan.per_rank[1][0].recvs[0].blocks = vec![0, 1];
        let e = plan.validate(&g).unwrap_err();
        assert_eq!(e, PlanValidationError::UnheldBlock { rank: 0, phase: 0, block: 1 });
    }

    #[test]
    fn detects_mirror_mismatch() {
        let (g, mut plan) = pair_plan();
        plan.per_rank[1][0].recvs[0].tag = 7;
        assert!(plan.validate(&g).is_err());
        let (g, mut plan) = pair_plan();
        plan.per_rank[1][0].recvs[0].blocks = vec![1];
        let e = plan.validate(&g).unwrap_err();
        assert_eq!(e, PlanValidationError::BlockListMismatch { src: 0, dst: 1, tag: 0 });
    }

    #[test]
    fn detects_phase_mismatch() {
        let (g, mut plan) = pair_plan();
        plan.per_rank[0].push(PlanPhase::default());
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
        let mut plan = crate::naive::plan_naive(&g);
        for prog in &mut plan.per_rank[..8] {
            prog[0].recvs[0].tag = 99;
        }
        // the contract: the lowest (dst, src, tag), so rank 0's first recv
        let src = plan.per_rank[0][0].recvs[0].peer;
        for _ in 0..64 {
            let e = plan.validate(&g).unwrap_err();
            assert_eq!(e, PlanValidationError::UnmatchedSend { src, dst: 0, tag: 0 });
        }
        // a skewed and a permuted message: the first recv in program
        // order wins, whatever its defect
        let g = Topology::from_edges(3, [(0, 1), (0, 2)]);
        let mut plan = crate::naive::plan_naive(&g);
        plan.per_rank[2][0].recvs[0].blocks = vec![2];
        for prog in &mut plan.per_rank {
            prog.insert(0, PlanPhase::default());
        }
        let moved = plan.per_rank[1][1].recvs.pop().unwrap();
        plan.per_rank[1][0].recvs.push(moved);
        for _ in 0..64 {
            let e = plan.validate(&g).unwrap_err();
            assert!(matches!(e, PlanValidationError::PhaseSkew { src: 0, dst: 1, .. }), "{e}");
        }
    }

    #[test]
    fn detects_cross_phase_match() {
        let g = Topology::from_edges(2, [(0, 1)]);
        let plan = CollectivePlan {
            algorithm: Algorithm::Naive,
            per_rank: vec![
                vec![
                    PlanPhase { copy_blocks: 0, sends: vec![msg(1, vec![0], 0)], recvs: vec![] },
                    PlanPhase::default(),
                ],
                vec![
                    PlanPhase::default(),
                    PlanPhase { copy_blocks: 0, sends: vec![], recvs: vec![msg(0, vec![0], 0)] },
                ],
            ],
            selection: None,
        };
        let e = plan.validate(&g).unwrap_err();
        assert!(matches!(e, PlanValidationError::PhaseSkew { src: 0, dst: 1, tag: 0, .. }), "{e}");
    }

    #[test]
    fn transit_blocks_are_allowed() {
        // 0 -> 1 -> 2 relay of block 0 where only edge (0,2) exists:
        // rank 1 holds block 0 in transit without consuming it
        let g = Topology::from_edges(3, [(0, 2)]);
        let plan = CollectivePlan {
            algorithm: Algorithm::DistanceHalving,
            per_rank: vec![
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
            ],
            selection: None,
        };
        plan.validate(&g).unwrap();
    }

    #[test]
    fn algorithm_display() {
        assert_eq!(Algorithm::Naive.to_string(), "naive");
        assert_eq!(Algorithm::CommonNeighbor { k: 4 }.to_string(), "common-neighbor(k=4)");
        assert_eq!(Algorithm::DistanceHalving.to_string(), "distance-halving");
    }
}
