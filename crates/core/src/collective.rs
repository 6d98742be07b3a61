//! The collective-agnostic request surface and the compiled program
//! every collective executes.
//!
//! One entry point — [`crate::comm::DistGraphComm::collective`] — serves
//! every neighborhood collective through a typed [`CollectiveRequest`],
//! every collective plans on the one IR,
//! [`crate::plan::CollectivePlan`], and every collective runs the one
//! engine: allgather(v) executes the plan's block messages, and the
//! three *message-combining* collectives (alltoallv, sparse
//! reduce_scatter, sparse allreduce) execute the item routing the same
//! plan implies ([`crate::alltoall`]). The combining
//! family follows Träff et al.'s isomorphic sparse collectives —
//! allgather- and alltoall-type collectives from one message-combining
//! schedule — and the Kolmakov–Zhang allreduce generalization:
//! forwarding agents *reduce* payloads at hops instead of concatenating
//! them.
//!
//! ## Why combining is sound on a gather plan's routing
//!
//! The routing moves an item `(src, dst)` wherever the gather plan moves
//! block `src` together with the responsibility for `dst` (the
//! exactly-once lemma of [`crate::plan`]). A plan that hands
//! responsibility on by *destination* — Distance Halving ships whatever
//! is addressed into the opposite half — keeps **all items held at a
//! rank with the same destination co-routed in every subsequent phase.**
//! A rank may therefore hold one *partial* per destination — `(source
//! set, reduced value)` — and forward the partial wherever the routing
//! forwards that destination's items; two partials for the same
//! destination meeting at a rank merge with one [`Reduction::combine`].
//! Exactly-once item delivery becomes exactly-once inclusion of every
//! source's contribution. The invariant is checked, not assumed:
//! `program::compile` refuses (`MissingBlock`) a routing whose held
//! partial does not cover exactly the sources a message claims. Of the
//! portfolio only PAT breaks it — its merged trees drop a block the
//! receiver already holds, so one destination's contributions leave a
//! rank apart — and PAT's reduce ops are a typed refusal.
//!
//! ## Determinism
//!
//! The combine *tree* is fully plan-determined: within a phase, arrivals
//! are integrated in ascending `(peer, tag)` order on every backend, a
//! first arrival is copied (never folded into the identity), and every
//! later one is `held ⊕ arrived` in that operand order — down to a NaN's
//! payload: NaN ⊕ NaN is the held operand's NaN — so f32 sums are
//! **bit-identical** across the virtual and threaded backends and
//! across repeat runs. Exact lanes (wrapping integer sums, max, bit-or)
//! are associative and equal the naive reference exactly; f32 agrees
//! with the reference up to reassociation error.
//!
//! ## Execution and wire accounting
//!
//! Requests do not interpret the plan: `collective::program` compiles it
//! once per op shape into fixed cells and `copy` / `combine` steps, and
//! both runtimes of [`crate::exec`] execute that one program. A message
//! is a run of wire blocks; allreduce partials that are the same value
//! *by construction* share one block (the first hop sends one copy of
//! `x_src` no matter how many destinations it serves) — see the module
//! docs of `program` for the rule. Telemetry counts the block bytes
//! only, not headers.

use crate::comm::{CommError, DistGraphComm, ExecReport};
use crate::exec::{check_count, ExecError};
use crate::leader::shares_leader_slots;
use crate::plan::Algorithm;
use crate::sizes::BlockSizes;
use nhood_simnet::SimReport;
use nhood_telemetry::{Recorder, NULL};
use nhood_topology::{Rank, Topology};

pub(crate) mod program;

/// Lane type of a [`Reduction`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DType {
    /// One byte per lane.
    U8,
    /// Little-endian `u32` lanes; block lengths must be multiples of 4.
    U32,
    /// Little-endian IEEE-754 `f32` lanes; block lengths must be
    /// multiples of 4. `BitOr` is rejected for this type.
    F32,
}

impl DType {
    /// Bytes per lane.
    pub fn lane_bytes(self) -> usize {
        match self {
            DType::U8 => 1,
            DType::U32 | DType::F32 => 4,
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DType::U8 => write!(f, "u8"),
            DType::U32 => write!(f, "u32"),
            DType::F32 => write!(f, "f32"),
        }
    }
}

/// The operator a combining agent applies at each hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Lane-wise sum (wrapping for integer lanes).
    Sum,
    /// Lane-wise maximum.
    Max,
    /// Lane-wise bit-or (integer lanes only).
    BitOr,
}

impl std::fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceOp::Sum => write!(f, "sum"),
            ReduceOp::Max => write!(f, "max"),
            ReduceOp::BitOr => write!(f, "bitor"),
        }
    }
}

/// A reduction: operator × lane type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reduction {
    /// The operator.
    pub op: ReduceOp,
    /// The lane type.
    pub dtype: DType,
}

impl Reduction {
    /// Byte-wise wrapping sum — the cheapest exact reduction, and the
    /// one the service's mixed-op traffic verifies byte-for-byte.
    pub const SUM_U8: Reduction = Reduction { op: ReduceOp::Sum, dtype: DType::U8 };

    /// A reduction over `dtype` lanes.
    pub fn new(op: ReduceOp, dtype: DType) -> Self {
        Self { op, dtype }
    }

    /// Rejects operator/lane combinations with no defined semantics.
    pub fn validate(self) -> Result<(), &'static str> {
        match (self.op, self.dtype) {
            (ReduceOp::BitOr, DType::F32) => Err("bitor is undefined on f32 lanes"),
            _ => Ok(()),
        }
    }

    /// `true` when a block of `len` bytes splits into whole lanes.
    pub fn fits(self, len: usize) -> bool {
        len.is_multiple_of(self.dtype.lane_bytes())
    }

    /// The identity block of `len` bytes: combining it with any block
    /// yields that block.
    pub fn identity(self, len: usize) -> Vec<u8> {
        let mut block = Vec::new();
        self.fill_identity(&mut block, len);
        block
    }

    /// Overwrites `block` with the identity block of `len` bytes, keeping
    /// its allocation.
    pub(crate) fn fill_identity(self, block: &mut Vec<u8>, len: usize) {
        block.clear();
        match (self.op, self.dtype) {
            (ReduceOp::Max, DType::F32) => {
                block.extend(f32::NEG_INFINITY.to_le_bytes().iter().copied().cycle().take(len));
            }
            // 0 is the identity for sum and bit-or, and for unsigned max
            _ => block.resize(len, 0),
        }
    }

    /// Lane-wise `acc = acc ⊕ rhs` over whole lanes.
    ///
    /// # Panics
    /// If `acc` and `rhs` differ in length.
    pub fn combine(self, acc: &mut [u8], rhs: &[u8]) {
        assert_eq!(acc.len(), rhs.len(), "combining blocks of unequal length");
        self.lanes(acc, None, rhs);
    }

    /// Lane-wise `out = a ⊕ b` in one pass, `a` the held operand: bit for
    /// bit `out.copy_from_slice(a)`, then `combine(out, b)`.
    ///
    /// # Panics
    /// If `out`, `a` and `b` are not all the same length.
    pub fn combine_into(self, out: &mut [u8], a: &[u8], b: &[u8]) {
        assert!(out.len() == a.len() && a.len() == b.len(), "combining blocks of unequal length");
        self.lanes(out, Some(a), b);
    }

    /// The one lane kernel, `out = (a or out) ⊕ b`. Bit-or is byte-wise on
    /// every lane; NaN ⊕ NaN is the held NaN whatever operand order runs.
    fn lanes(self, out: &mut [u8], a: Option<&[u8]>, b: &[u8]) {
        use {DType::*, ReduceOp::*};
        match (self.op, self.dtype) {
            (Sum, U8) => lanes(out, a, b, |[x], [y]| [x.wrapping_add(y)]),
            (Sum, U32) => lanes(out, a, b, u32s(u32::wrapping_add)),
            (Sum, F32) => lanes(out, a, b, f32s(|x, y| x + if x.is_nan() { x } else { y })),
            (Max, U8) => lanes(out, a, b, |[x], [y]| [x.max(y)]),
            (Max, U32) => lanes(out, a, b, u32s(u32::max)),
            (Max, F32) => lanes(out, a, b, f32s(|x, y| x.max(if y.is_nan() { x } else { y }))),
            (BitOr, _) => lanes(out, a, b, |[x], [y]| [x | y]),
        }
    }
}

/// `out = f(a or out, b)` over whole `W`-byte lanes; bytes past the last
/// whole lane are left as a copy of `a` would leave them.
fn lanes<const W: usize>(
    out: &mut [u8],
    a: Option<&[u8]>,
    b: &[u8],
    f: impl Fn([u8; W], [u8; W]) -> [u8; W],
) {
    let ((outs, tail), (bs, _)) = (out.as_chunks_mut::<W>(), b.as_chunks::<W>());
    match a.map(<[u8]>::as_chunks::<W>) {
        None => outs.iter_mut().zip(bs).for_each(|(o, &y)| *o = f(*o, y)),
        Some((xs, a_tail)) => {
            outs.iter_mut().zip(xs).zip(bs).for_each(|((o, &x), &y)| *o = f(x, y));
            tail.copy_from_slice(a_tail);
        }
    }
}

/// `f` on little-endian `u32` lanes.
fn u32s(f: impl Fn(u32, u32) -> u32) -> impl Fn([u8; 4], [u8; 4]) -> [u8; 4] {
    move |x, y| f(u32::from_le_bytes(x), u32::from_le_bytes(y)).to_le_bytes()
}

/// `f` on little-endian `f32` lanes.
fn f32s(f: impl Fn(f32, f32) -> f32) -> impl Fn([u8; 4], [u8; 4]) -> [u8; 4] {
    move |x, y| f(f32::from_le_bytes(x), f32::from_le_bytes(y)).to_le_bytes()
}

impl std::fmt::Display for Reduction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}", self.op, self.dtype)
    }
}

/// The collective an execution request names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectiveOp {
    /// Uniform-size neighborhood allgather.
    Allgather,
    /// Ragged (per-rank-sized) neighborhood allgather.
    Allgatherv,
    /// Per-destination distinct payloads; `sizes[p]` is the block size
    /// *source* `p` sends to each of its out-neighbors.
    Alltoallv,
    /// Sparse reduce_scatter: rank `t` receives the reduction of its
    /// in-neighbors' contributions addressed to it; `sizes[t]` is the
    /// block size of *destination* `t`.
    ReduceScatter(Reduction),
    /// Sparse allreduce (reduce_scatter ⊕ allgather fused on the item
    /// routing): rank `t` ends with `x_t ⊕ (⊕ x_s for s ∈ I(t))`.
    /// Uniform block size only.
    Allreduce(Reduction),
}

impl CollectiveOp {
    /// Short stable name for logs, CLI flags and reports.
    pub fn name(&self) -> &'static str {
        match self {
            CollectiveOp::Allgather => "allgather",
            CollectiveOp::Allgatherv => "allgatherv",
            CollectiveOp::Alltoallv => "alltoallv",
            CollectiveOp::ReduceScatter(_) => "reduce_scatter",
            CollectiveOp::Allreduce(_) => "allreduce",
        }
    }

    /// `true` for the allgather family: it executes the plan's block
    /// messages; the other ops execute the plan's item routing.
    pub fn is_gather(&self) -> bool {
        matches!(self, CollectiveOp::Allgather | CollectiveOp::Allgatherv)
    }

    /// The reduction of a combining-reduce op, if any.
    pub fn reduction(&self) -> Option<Reduction> {
        match self {
            CollectiveOp::ReduceScatter(r) | CollectiveOp::Allreduce(r) => Some(*r),
            _ => None,
        }
    }
}

impl std::fmt::Display for CollectiveOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reduction() {
            Some(r) => write!(f, "{}({r})", self.name()),
            None => write!(f, "{}", self.name()),
        }
    }
}

/// Which execution backend a request runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecBackend {
    /// Deterministic sequential execution with real bytes (the oracle).
    #[default]
    Virtual,
    /// Rank machines on a worker pool, the communicator's timeouts; the
    /// only backend with fault injection and robustness.
    Threaded,
    /// Discrete-event simulated time: the request returns oracle bytes
    /// (computed on the virtual data path) next to the simulated
    /// makespan, so reference-equivalence holds on this backend too.
    Sim,
}

impl std::fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecBackend::Virtual => write!(f, "virtual"),
            ExecBackend::Threaded => write!(f, "threaded"),
            ExecBackend::Sim => write!(f, "sim"),
        }
    }
}

impl std::str::FromStr for ExecBackend {
    type Err = String;

    /// The inverse of `Display`: `virtual`, `threaded` or `sim` — the
    /// one `--backend` spelling every command shares.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "virtual" => Ok(ExecBackend::Virtual),
            "threaded" => Ok(ExecBackend::Threaded),
            "sim" => Ok(ExecBackend::Sim),
            other => Err(format!("unknown backend '{other}' (virtual | threaded | sim)")),
        }
    }
}

/// A collective execution request — the one argument of
/// [`crate::comm::DistGraphComm::collective`].
///
/// ```
/// use nhood_cluster::ClusterLayout;
/// use nhood_core::collective::{CollectiveRequest, Reduction};
/// use nhood_core::comm::DistGraphComm;
/// use nhood_topology::random::erdos_renyi;
///
/// let graph = erdos_renyi(16, 0.3, 42);
/// let comm = DistGraphComm::create_adjacent(graph, ClusterLayout::new(2, 2, 4)).unwrap();
/// let payloads: Vec<Vec<u8>> = (0..16).map(|r| vec![r as u8; 8]).collect();
/// let out = comm.collective(&CollectiveRequest::allreduce(&payloads, Reduction::SUM_U8)).unwrap();
/// assert_eq!(out.rbufs.len(), 16);
/// ```
pub struct CollectiveRequest<'a> {
    /// The collective to run.
    pub op: CollectiveOp,
    /// The planning algorithm (default [`Algorithm::DistanceHalving`]).
    pub algorithm: Algorithm,
    /// Per-rank send buffers; the shape contract depends on `op` (see
    /// each [`CollectiveOp`] variant).
    pub payloads: &'a [Vec<u8>],
    /// Explicit size table; `None` derives it from the payloads (ragged
    /// reduce_scatter *requires* an explicit per-destination table — it
    /// cannot be inferred from concatenated send buffers).
    pub sizes: Option<BlockSizes>,
    /// The execution backend.
    pub backend: ExecBackend,
    /// Fault-tolerant execution (any op, on the threaded transport only
    /// — see the support matrix in docs/EXECUTION_API.md).
    pub robust: bool,
    /// Telemetry sink.
    pub recorder: &'a dyn Recorder,
}

impl<'a> CollectiveRequest<'a> {
    /// A request for `op` over `payloads` with Distance Halving, the
    /// virtual backend, no robustness and a null recorder.
    pub fn new(op: CollectiveOp, payloads: &'a [Vec<u8>]) -> Self {
        Self {
            op,
            algorithm: Algorithm::DistanceHalving,
            payloads,
            sizes: None,
            backend: ExecBackend::Virtual,
            robust: false,
            recorder: &NULL,
        }
    }

    /// Uniform neighborhood allgather of one block per rank.
    pub fn allgather(payloads: &'a [Vec<u8>]) -> Self {
        Self::new(CollectiveOp::Allgather, payloads)
    }

    /// Ragged neighborhood allgather (per-rank block sizes, zeros legal).
    pub fn allgatherv(payloads: &'a [Vec<u8>]) -> Self {
        Self::new(CollectiveOp::Allgatherv, payloads)
    }

    /// Neighborhood alltoallv: `payloads[p]` concatenates one distinct
    /// block per out-neighbor (in `O(p)` order), each `sizes[p]` bytes.
    pub fn alltoallv(payloads: &'a [Vec<u8>]) -> Self {
        Self::new(CollectiveOp::Alltoallv, payloads)
    }

    /// Sparse reduce_scatter under `red`: `payloads[p]` concatenates
    /// p's contribution to each out-neighbor `d` (in `O(p)` order), each
    /// `sizes[d]` bytes.
    pub fn reduce_scatter(payloads: &'a [Vec<u8>], red: Reduction) -> Self {
        Self::new(CollectiveOp::ReduceScatter(red), payloads)
    }

    /// Sparse allreduce under `red`: `payloads[r]` is rank r's uniform
    /// `m`-byte contribution; every rank ends with its in-neighborhood's
    /// reduction folded over its own block.
    pub fn allreduce(payloads: &'a [Vec<u8>], red: Reduction) -> Self {
        Self::new(CollectiveOp::Allreduce(red), payloads)
    }

    /// Selects the planning algorithm.
    pub fn algorithm(mut self, algo: Algorithm) -> Self {
        self.algorithm = algo;
        self
    }

    /// Pins an explicit size table (per-source for alltoallv,
    /// per-destination for reduce_scatter, per-rank for allgatherv).
    pub fn sizes(mut self, sizes: BlockSizes) -> Self {
        self.sizes = Some(sizes);
        self
    }

    /// Selects the execution backend.
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Requests fault-tolerant execution (threaded backend).
    pub fn robust(mut self, robust: bool) -> Self {
        self.robust = robust;
        self
    }

    /// Attaches a telemetry recorder.
    pub fn recorder(mut self, rec: &'a dyn Recorder) -> Self {
        self.recorder = rec;
        self
    }
}

impl std::fmt::Debug for CollectiveRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectiveRequest")
            .field("op", &self.op)
            .field("algorithm", &self.algorithm)
            .field("payloads", &self.payloads.len())
            .field("sizes", &self.sizes)
            .field("backend", &self.backend)
            .field("robust", &self.robust)
            .finish_non_exhaustive()
    }
}

/// What a [`crate::comm::DistGraphComm::collective`] call produced.
#[derive(Clone, Debug, Default)]
pub struct CollectiveOutput {
    /// Per-rank receive buffers (shape depends on the op; see
    /// [`CollectiveOp`]). Real bytes on **every** backend, including
    /// [`ExecBackend::Sim`].
    pub rbufs: Vec<Vec<u8>>,
    /// Faults injected and retries spent (threaded backend only).
    pub faults: crate::fault::FaultCounts,
    /// The robustness report, `Some` iff the request set
    /// [`CollectiveRequest::robust`].
    pub report: Option<ExecReport>,
    /// The simulator's report, `Some` iff the request ran on
    /// [`ExecBackend::Sim`].
    pub sim: Option<SimReport>,
}

/// Rejects (op, algorithm, robustness, backend) combinations outside the
/// support matrix with a typed error, on `comm`'s ranks and layout. See
/// docs/EXECUTION_API.md for the full table.
pub(crate) fn check_support(
    op: CollectiveOp,
    algorithm: Algorithm,
    robust: bool,
    backend: ExecBackend,
    comm: &DistGraphComm,
) -> Result<(), CommError> {
    if let Some(red) = op.reduction() {
        if let Err(reason) = red.validate() {
            return Err(CommError::InvalidReduction { reduction: red, reason });
        }
    }
    if robust && backend != ExecBackend::Threaded {
        // the only transport that injects faults
        return Err(CommError::UnsupportedCollective {
            op,
            algorithm,
            reason: "robust execution runs on the threaded transport",
        });
    }
    // `program::tests::{pat_trees,shared_leader_slots}_break_the_co_routing_invariant_of_the_reduce_shapes`
    // pin the causes, so the refusals cannot outlive them.
    let breaks_co_routing = match algorithm {
        Algorithm::Pat { .. } => Some(
            "PAT's merged trees break the reducing agents' co-routing invariant (a \
             destination's contributions leave a rank in different messages); PAT serves \
             alltoallv and the allgather family",
        ),
        Algorithm::HierarchicalLeader { leaders_per_node: l }
            if shares_leader_slots(comm.n(), comm.layout(), l) =>
        {
            Some(
                "two leader slots share a rank on a node hosting fewer ranks than leaders, \
                 which breaks the reducing agents' co-routing invariant; the leader \
                 hierarchy serves alltoallv and the allgather family there",
            )
        }
        _ => None,
    };
    match (breaks_co_routing, op.reduction()) {
        (Some(reason), Some(_)) => Err(CommError::UnsupportedCollective { op, algorithm, reason }),
        _ => Ok(()),
    }
}

/// Derives (or validates) the size table of a combining-family request
/// and checks every payload against the op's shape contract: per-source
/// for alltoallv, per-destination for reduce_scatter (uniform unless
/// explicit — ragged destination tables cannot be recovered from
/// concatenated send buffers), uniform-only for allreduce.
pub fn derive_sizes(
    graph: &Topology,
    op: CollectiveOp,
    payloads: &[Vec<u8>],
    explicit: Option<&BlockSizes>,
) -> Result<BlockSizes, CommError> {
    let n = graph.n();
    check_count(payloads, n)?;
    let lane_err = |red: Reduction| CommError::InvalidReduction {
        reduction: red,
        reason: "block length is not a whole number of lanes",
    };
    // every payload against the buffer length the op's contract gives it
    let checked = |sizes: BlockSizes, want: &dyn Fn(&BlockSizes, Rank) -> usize| {
        for (rank, payload) in payloads.iter().enumerate() {
            let (got, want) = (payload.len(), want(&sizes, rank));
            if got != want {
                return Err(ExecError::PayloadSizeMismatch { rank, got, want }.into());
            }
        }
        Ok(sizes)
    };
    match op {
        CollectiveOp::Alltoallv => {
            // per-SOURCE sizing: sbuf[p] = outdegree(p) × sizes[p]
            let sizes = explicit.cloned().unwrap_or_else(|| {
                let of = |p: usize| payloads[p].len().checked_div(graph.outdegree(p)).unwrap_or(0);
                BlockSizes::per_rank((0..n).map(of).collect())
            });
            checked(sizes, &|sizes, p| graph.outdegree(p) * sizes.size(p))
        }
        CollectiveOp::ReduceScatter(red) => {
            // per-DESTINATION sizing: sbuf[p] = Σ_{d ∈ O(p)} sizes[d].
            // Inferred, the table is uniform: ragged ones cannot be
            // recovered from concatenated buffers.
            let sizes = explicit.cloned().unwrap_or_else(|| {
                let m = (0..n)
                    .find(|&p| graph.outdegree(p) > 0)
                    .map_or(0, |p| payloads[p].len() / graph.outdegree(p));
                BlockSizes::uniform(m)
            });
            if (0..n).any(|t| !red.fits(sizes.size(t))) {
                return Err(lane_err(red));
            }
            checked(sizes, &|sizes, p| graph.out_neighbors(p).iter().map(|&d| sizes.size(d)).sum())
        }
        CollectiveOp::Allreduce(red) => {
            let m = match explicit {
                Some(s) if s.is_uniform() => s.max_size(),
                Some(_) => {
                    return Err(CommError::UnsupportedCollective {
                        op,
                        algorithm: Algorithm::DistanceHalving,
                        reason: "allreduce is uniform-size only",
                    })
                }
                None => payloads.first().map_or(0, Vec::len),
            };
            if !red.fits(m) {
                return Err(lane_err(red));
            }
            checked(BlockSizes::uniform(m), &|_, _| m)
        }
        CollectiveOp::Allgather | CollectiveOp::Allgatherv => {
            Err(CommError::UnsupportedCollective {
                op,
                algorithm: Algorithm::DistanceHalving,
                reason: "the allgather family reads its block lengths off the payloads",
            })
        }
    }
}

// ---------------------------------------------------------------------
// Naive references (straight from the definitions)
// ---------------------------------------------------------------------

/// The naive reference of any `op`: what
/// [`DistGraphComm::collective`](crate::comm::DistGraphComm::collective)
/// must return for `payloads`, straight from the op's definition. The
/// size table of alltoallv / reduce_scatter is `sizes` when given and
/// derived from the payloads otherwise ([`derive_sizes`]).
///
/// # Errors
/// A payload count other than the graph's rank count, and whatever
/// [`derive_sizes`] rejects: payloads that do not fit the op's shape
/// contract.
pub fn reference(
    graph: &Topology,
    op: CollectiveOp,
    payloads: &[Vec<u8>],
    sizes: Option<&BlockSizes>,
) -> Result<Vec<Vec<u8>>, CommError> {
    Ok(match op {
        CollectiveOp::Allgather | CollectiveOp::Allgatherv => {
            check_count(payloads, graph.n())?;
            crate::exec::virtual_exec::reference_allgather(graph, payloads)
        }
        CollectiveOp::Alltoallv => {
            let sizes = derive_sizes(graph, op, payloads, sizes)?;
            reference_alltoallv(graph, payloads, &sizes)
        }
        CollectiveOp::ReduceScatter(red) => {
            let sizes = derive_sizes(graph, op, payloads, sizes)?;
            reference_reduce_scatter(graph, payloads, &sizes, red)
        }
        CollectiveOp::Allreduce(red) => {
            derive_sizes(graph, op, payloads, sizes)?;
            reference_allreduce(graph, payloads, red)
        }
    })
}

/// `Ok(rbufs == reference(graph, op, payloads, sizes)?)` without building
/// a second set of gather buffers: the allgather family compares each
/// slice of `rbufs[r]` against its in-neighbor's payload in place
/// (lengths first); the combining family materialises its reference.
///
/// # Errors
/// As [`reference()`].
pub fn matches_reference(
    graph: &Topology,
    op: CollectiveOp,
    payloads: &[Vec<u8>],
    sizes: Option<&BlockSizes>,
    rbufs: &[Vec<u8>],
) -> Result<bool, CommError> {
    if !op.is_gather() {
        return Ok(reference(graph, op, payloads, sizes)? == rbufs);
    }
    check_count(payloads, graph.n())?;
    Ok(rbufs.len() == graph.n()
        && rbufs.iter().enumerate().all(|(r, rbuf)| {
            let ins = graph.in_neighbors(r);
            let mut rest = rbuf.as_slice();
            ins.iter().map(|&b| payloads[b].len()).sum::<usize>() == rest.len()
                && ins.iter().all(|&b| {
                    let (head, tail) = rest.split_at(payloads[b].len());
                    rest = tail;
                    head == payloads[b]
                })
        }))
}

/// Reference alltoallv: `rbuf[r]` concatenates, per in-neighbor `s` in
/// `I(r)` order, the block `s` addressed to `r` (`sizes[s]` bytes).
pub fn reference_alltoallv(
    graph: &Topology,
    sbufs: &[Vec<u8>],
    sizes: &BlockSizes,
) -> Vec<Vec<u8>> {
    (0..graph.n())
        .map(|r| {
            let mut rbuf = Vec::new();
            for &s in graph.in_neighbors(r) {
                let m = sizes.size(s);
                let slot = graph.out_neighbors(s).binary_search(&r).expect("in/out consistency");
                rbuf.extend_from_slice(&sbufs[s][slot * m..(slot + 1) * m]);
            }
            rbuf
        })
        .collect()
}

/// Reference sparse reduce_scatter: `rbuf[t]` is the `red`-reduction of
/// every in-neighbor's contribution to `t` (each `sizes[t]` bytes),
/// folded over the identity in ascending source order.
pub fn reference_reduce_scatter(
    graph: &Topology,
    sbufs: &[Vec<u8>],
    sizes: &BlockSizes,
    red: Reduction,
) -> Vec<Vec<u8>> {
    (0..graph.n())
        .map(|t| {
            let m = sizes.size(t);
            let mut acc = red.identity(m);
            for &s in graph.in_neighbors(t) {
                let outs = graph.out_neighbors(s);
                let slot = outs.binary_search(&t).expect("in/out consistency");
                let off: usize = outs[..slot].iter().map(|&d| sizes.size(d)).sum();
                red.combine(&mut acc, &sbufs[s][off..off + m]);
            }
            acc
        })
        .collect()
}

/// Reference sparse allreduce: `rbuf[t] = x_t ⊕ (⊕ x_s for s ∈ I(t))`,
/// folded in ascending source order.
pub fn reference_allreduce(graph: &Topology, payloads: &[Vec<u8>], red: Reduction) -> Vec<Vec<u8>> {
    (0..graph.n())
        .map(|t| {
            let mut acc = payloads[t].clone();
            for &s in graph.in_neighbors(t) {
                red.combine(&mut acc, &payloads[s]);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod goldens;

#[cfg(test)]
mod tests {
    use super::program::tests::{checked, compiled, compiles};
    use super::program::Shape;
    use super::*;
    use crate::builder::build_pattern;
    use crate::exec::{execute, ExecOptions};
    use crate::lower::lower;
    use crate::plan::CollectivePlan;
    use nhood_cluster::ClusterLayout;
    use nhood_topology::random::erdos_renyi;
    use std::sync::Arc;

    /// Compiles `plan` for `op` and runs it once on a cold workspace.
    fn run_once(
        plan: &CollectivePlan,
        g: &Topology,
        op: CollectiveOp,
        sbufs: &[Vec<u8>],
        sizes: &BlockSizes,
        threaded: bool,
        rec: &dyn Recorder,
    ) -> Vec<Vec<u8>> {
        let (plan, opts) = (checked(plan.clone()), ExecOptions::new().recorder(rec));
        let arena = &mut Default::default();
        let clock = threaded.then_some(crate::runtime::Clock::Wall);
        execute(op, Some(sizes), &plan, g, sbufs, arena, clock, &opts).unwrap().rbufs
    }

    fn run_virtual(
        plan: &CollectivePlan,
        g: &Topology,
        op: CollectiveOp,
        sbufs: &[Vec<u8>],
        sizes: &BlockSizes,
        rec: &dyn Recorder,
    ) -> Vec<Vec<u8>> {
        run_once(plan, g, op, sbufs, sizes, false, rec)
    }

    #[test]
    fn combine_lanes_are_exact() {
        let mut acc = 250u32.to_le_bytes().to_vec();
        Reduction::new(ReduceOp::Sum, DType::U32).combine(&mut acc, &10u32.to_le_bytes());
        assert_eq!(acc, 260u32.to_le_bytes());
        let mut acc = vec![250u8, 7];
        Reduction::SUM_U8.combine(&mut acc, &[10, 1]);
        assert_eq!(acc, vec![4, 8], "u8 sum wraps");
        let mut acc = 3.5f32.to_le_bytes().to_vec();
        Reduction::new(ReduceOp::Max, DType::F32).combine(&mut acc, &(-1.0f32).to_le_bytes());
        assert_eq!(acc, 3.5f32.to_le_bytes());
        let mut acc = vec![0b1010];
        Reduction::new(ReduceOp::BitOr, DType::U8).combine(&mut acc, &[0b0101]);
        assert_eq!(acc, vec![0b1111]);
    }

    #[test]
    fn identities_are_neutral() {
        for red in [
            Reduction::SUM_U8,
            Reduction::new(ReduceOp::Sum, DType::F32),
            Reduction::new(ReduceOp::Max, DType::U32),
            Reduction::new(ReduceOp::Max, DType::F32),
            Reduction::new(ReduceOp::BitOr, DType::U32),
        ] {
            let block: Vec<u8> = (0..16).map(|i| (i * 17 + 3) as u8).collect();
            let mut acc = red.identity(16);
            red.combine(&mut acc, &block);
            assert_eq!(acc, block, "{red}");
        }
    }

    #[test]
    fn bitor_f32_is_rejected() {
        assert!(Reduction::new(ReduceOp::BitOr, DType::F32).validate().is_err());
        assert!(Reduction::new(ReduceOp::BitOr, DType::U32).validate().is_ok());
        // built without `validate`, it is byte-wise or like every bit-or
        let mut acc = 1.0f32.to_le_bytes().to_vec();
        Reduction::new(ReduceOp::BitOr, DType::F32).combine(&mut acc, &[1, 2, 4, 8]);
        let want: Vec<u8> =
            1.0f32.to_le_bytes().iter().zip([1, 2, 4, 8]).map(|(a, b)| a | b).collect();
        assert_eq!(acc, want);
    }

    #[test]
    fn combine_into_is_copy_then_combine_bit_for_bit() {
        let specials = [-0.0f32, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];
        // f32 lanes: the specials, a quiet NaN with a payload, and finite values
        let lane = |i: usize, seed: u32| match i % 9 {
            k @ 0..6 => specials[k].to_bits(),
            6 => 0x7fc0_1234 ^ seed,
            _ => (i as f32 * 0.75 - 40.0 + seed as f32).to_bits(),
        };
        let block = |len: usize, seed: u32| -> Vec<u8> {
            (0..len / 4).flat_map(|i| lane(i * 7 + seed as usize, seed).to_le_bytes()).collect()
        };
        let ops = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::BitOr];
        let reds = ops.iter().flat_map(|&op| {
            [DType::U8, DType::U32, DType::F32].map(|dtype| Reduction::new(op, dtype))
        });
        for red in reds.filter(|red| red.validate().is_ok()) {
            for len in [0, 4, 12, 4 << 10] {
                for (sa, sb) in [(0, 1), (3, 5), (1, 0)] {
                    let (a, b) = (block(len, sa), block(len, sb));
                    let mut want = a.clone();
                    red.combine(&mut want, &b);
                    let mut out = vec![0xa5; len];
                    red.combine_into(&mut out, &a, &b);
                    assert_eq!(out, want, "{red} at {len} B");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "combining blocks of unequal length")]
    fn combine_panics_on_unequal_lengths() {
        Reduction::SUM_U8.combine(&mut [0; 4], &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "combining blocks of unequal length")]
    fn combine_into_panics_on_unequal_lengths() {
        Reduction::SUM_U8.combine_into(&mut [0; 4], &[0; 4], &[0; 8]);
    }

    fn rs_payloads(g: &Topology, sizes: &BlockSizes, seed: u64) -> Vec<Vec<u8>> {
        (0..g.n())
            .map(|p| {
                let mut buf = Vec::new();
                for &d in g.out_neighbors(p) {
                    buf.extend((0..sizes.size(d)).map(|i| {
                        (p.wrapping_mul(131) ^ d.wrapping_mul(31) ^ i ^ seed as usize) as u8
                    }));
                }
                buf
            })
            .collect()
    }

    #[test]
    fn allreduce_first_hop_coalesces_duplicate_values() {
        // every partial leaving a source on hop 1 carries x_src — the
        // wire must ship it once, not once per destination
        let g = erdos_renyi(32, 0.5, 9);
        let layout = ClusterLayout::new(4, 2, 4);
        let pattern = build_pattern(&g, &layout).unwrap();
        let plan = lower(&pattern, &g);
        let m = 64usize;
        let payloads: Vec<Vec<u8>> = (0..32).map(|r| vec![r as u8; m]).collect();
        let rec = nhood_telemetry::CountingRecorder::new(32);
        let sizes = BlockSizes::uniform(m);
        run_virtual(&plan, &g, CollectiveOp::Allreduce(Reduction::SUM_U8), &payloads, &sizes, &rec);
        let combined = rec.totals().bytes_sent as usize;
        let uncombined = compiled(&plan, &g, Shape::Route).unwrap().schedule(&sizes).total_bytes();
        assert!(
            combined < uncombined,
            "coalescing must beat per-item shipping: {combined} vs {uncombined}"
        );
    }

    #[test]
    fn virtual_combining_matches_references_on_dh() {
        for (n, delta) in [(16usize, 0.3), (24, 0.5), (30, 0.2)] {
            let g = erdos_renyi(n, delta, 77);
            let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
            let pattern = build_pattern(&g, &layout).unwrap();
            let plan = lower(&pattern, &g);
            plan.validate(&g).unwrap();

            // alltoallv, ragged per-source sizes including zeros
            let sizes = BlockSizes::per_rank((0..n).map(|p| (p * 7) % 5).collect::<Vec<_>>());
            let sbufs: Vec<Vec<u8>> = (0..n)
                .map(|p| {
                    (0..g.outdegree(p) * sizes.size(p)).map(|i| (p * 67 + i * 13) as u8).collect()
                })
                .collect();
            let got = run_virtual(&plan, &g, CollectiveOp::Alltoallv, &sbufs, &sizes, &NULL);
            assert_eq!(got, reference_alltoallv(&g, &sbufs, &sizes), "alltoallv n={n}");

            // reduce_scatter, ragged per-destination sizes including zeros
            let red = Reduction::SUM_U8;
            let dsizes = BlockSizes::per_rank((0..n).map(|t| (t * 3) % 7).collect::<Vec<_>>());
            let sbufs = rs_payloads(&g, &dsizes, 5);
            let op = CollectiveOp::ReduceScatter(red);
            let got = run_virtual(&plan, &g, op, &sbufs, &dsizes, &NULL);
            assert_eq!(
                got,
                reference_reduce_scatter(&g, &sbufs, &dsizes, red),
                "reduce_scatter n={n}"
            );

            // allreduce
            let m = 12;
            let payloads: Vec<Vec<u8>> =
                (0..n).map(|r| (0..m).map(|i| (r * 29 + i) as u8).collect()).collect();
            let usizes = BlockSizes::uniform(m);
            let op = CollectiveOp::Allreduce(red);
            let got = run_virtual(&plan, &g, op, &payloads, &usizes, &NULL);
            assert_eq!(got, reference_allreduce(&g, &payloads, red), "allreduce n={n}");
        }
    }

    #[test]
    fn threaded_combining_is_bit_identical_to_virtual() {
        let g = erdos_renyi(24, 0.4, 3);
        let layout = ClusterLayout::new(3, 2, 4);
        let pattern = build_pattern(&g, &layout).unwrap();
        let plan = lower(&pattern, &g);
        let red = Reduction::new(ReduceOp::Sum, DType::F32);
        let m = 16;
        let payloads: Vec<Vec<u8>> = (0..24)
            .map(|r| {
                (0..m / 4)
                    .flat_map(|i| ((r as f32 + 0.5) * (i as f32 + 0.1)).to_le_bytes())
                    .collect()
            })
            .collect();
        let sizes = BlockSizes::uniform(m);
        let op = CollectiveOp::Allreduce(red);
        let v = run_virtual(&plan, &g, op, &payloads, &sizes, &NULL);
        let t = run_once(&plan, &g, op, &payloads, &sizes, true, &NULL);
        assert_eq!(v, t, "f32 bits must agree across backends");
    }

    #[test]
    fn derive_sizes_refuses_the_gather_family_typed() {
        // regression: this public entry point used to hit `unreachable!`
        let g = erdos_renyi(8, 0.5, 1);
        let payloads = vec![vec![0u8; 4]; 8];
        for op in [CollectiveOp::Allgather, CollectiveOp::Allgatherv] {
            match derive_sizes(&g, op, &payloads, None) {
                Err(CommError::UnsupportedCollective { op: named, .. }) => assert_eq!(named, op),
                other => panic!("{op}: {other:?}"),
            }
        }
    }

    #[test]
    fn reference_rejects_a_short_payload_list_typed_on_every_arm() {
        // regression: the gather and allreduce arms indexed
        // `payloads[b]` past the end and panicked
        let g = erdos_renyi(8, 0.5, 1);
        let short = vec![vec![0u8; 4]; 5];
        let count = ExecError::PayloadCountMismatch { got: 5, want: 8 };
        for op in [
            CollectiveOp::Allgather,
            CollectiveOp::Allgatherv,
            CollectiveOp::Alltoallv,
            CollectiveOp::ReduceScatter(Reduction::SUM_U8),
            CollectiveOp::Allreduce(Reduction::SUM_U8),
        ] {
            match reference(&g, op, &short, None) {
                Err(CommError::Exec(e)) => assert_eq!(e, count, "{op}"),
                other => panic!("{op}: {other:?}"),
            }
            match matches_reference(&g, op, &short, None, &[]) {
                Err(CommError::Exec(e)) => assert_eq!(e, count, "{op}"),
                other => panic!("{op}: {other:?}"),
            }
        }
    }

    #[test]
    fn allreduce_reference_rejects_unequal_blocks_typed() {
        // regression: went straight to `Reduction::combine`, whose
        // `assert_eq!` on the two lengths panicked
        let g = erdos_renyi(8, 0.5, 1);
        let mut payloads = vec![vec![1u8; 4]; 8];
        payloads[3].push(0);
        let op = CollectiveOp::Allreduce(Reduction::SUM_U8);
        assert!(matches!(
            reference(&g, op, &payloads, None),
            Err(CommError::Exec(ExecError::PayloadSizeMismatch { rank: 3, got: 5, want: 4 }))
        ));
    }

    #[test]
    fn matches_reference_agrees_with_materialising_the_reference() {
        let g = erdos_renyi(12, 0.4, 6);
        let ragged: Vec<Vec<u8>> = (0..12).map(|r| vec![r as u8 + 1; r % 4]).collect();
        let op = CollectiveOp::Allgatherv;
        let want = reference(&g, op, &ragged, None).unwrap();
        let check = |rbufs: &[Vec<u8>]| matches_reference(&g, op, &ragged, None, rbufs).unwrap();
        assert!(check(&want));
        // every way a buffer set can be wrong: a flipped byte, a rank's
        // buffer short or long by a byte, a rank missing
        let r = (0..12).find(|&r| !want[r].is_empty()).expect("some rank receives bytes");
        let mut flipped = want.clone();
        *flipped[r].last_mut().unwrap() ^= 1;
        let mut short = want.clone();
        short[r].pop();
        let mut long = want.clone();
        long[r].push(0);
        for wrong in [&flipped, &short, &long, &want[..11].to_vec()] {
            assert!(!check(wrong));
            assert_ne!(*wrong, want);
        }
        // the combining family goes through its materialised reference
        let payloads = vec![vec![3u8; 8]; 12];
        let op = CollectiveOp::Allreduce(Reduction::SUM_U8);
        let want = reference(&g, op, &payloads, None).unwrap();
        assert!(matches_reference(&g, op, &payloads, None, &want).unwrap());
        assert!(!matches_reference(&g, op, &payloads, None, &payloads).unwrap());
    }

    #[test]
    fn warm_requests_compile_nothing_and_grow_no_table() {
        use crate::comm::DistGraphComm;
        let g = erdos_renyi(32, 0.3, 4);
        let mut comm = DistGraphComm::create_adjacent(g, ClusterLayout::new(4, 2, 4)).unwrap();
        let red = Reduction::new(ReduceOp::Max, DType::U32);
        let rs = |comm: &DistGraphComm, sizes: &BlockSizes, seed: u64| {
            let sbufs = rs_payloads(comm.graph(), sizes, seed);
            let req = CollectiveRequest::reduce_scatter(&sbufs, red).sizes(sizes.clone());
            let got = comm.collective(&req).unwrap().rbufs;
            assert_eq!(got, reference_reduce_scatter(comm.graph(), &sbufs, sizes, red));
        };
        let uniform = BlockSizes::uniform(64);
        let cold = compiles();
        // (the allocator-call pins of `service/tests/alloc_budget.rs` hold
        // the "grows no table" half)
        let compiled = || compiles() - cold;
        rs(&comm, &uniform, 1);
        assert_eq!(compiled(), 1, "one program for the one op shape seen");

        // the same (op, sizes) again: nothing compiles
        rs(&comm, &uniform, 2);
        assert_eq!(compiled(), 1);
        // another size table on the same shape: offsets re-resolve, the
        // program is reused (a different reduction shares it too)
        let ragged = BlockSizes::per_rank((0..32).map(|t| 4 * (t % 6)).collect());
        rs(&comm, &ragged, 3);
        assert_eq!(compiled(), 1);
        // another shape on the same routing: one more program
        let payloads: Vec<Vec<u8>> = (0..32).map(|r| vec![r as u8; 16]).collect();
        let ar = |comm: &DistGraphComm| {
            let got = comm.collective(&CollectiveRequest::allreduce(&payloads, red)).unwrap().rbufs;
            assert_eq!(got, reference_allreduce(comm.graph(), &payloads, red));
        };
        ar(&comm);
        ar(&comm);
        assert_eq!(compiled(), 2);

        // churn retires routing and programs together — and the routing
        // recompiles from the plan `mutate` left in the fresh memo: the
        // request's recorder sees a plan-cache hit, and nothing is built
        let g = comm.graph();
        let gone = g.edges().next().expect("the graph has edges");
        let new = (0..32)
            .flat_map(|u| (0..32).map(move |v| (u, v)))
            .find(|&(u, v)| u != v && !g.has_edge(u, v))
            .expect("the graph is not complete");
        comm.mutate(&[new], &[gone]).unwrap();
        let seen = PlanningSeen::default();
        let sbufs = rs_payloads(comm.graph(), &uniform, 4);
        let req = CollectiveRequest::reduce_scatter(&sbufs, red).sizes(uniform.clone());
        let got = comm.collective(&req.recorder(&seen)).unwrap().rbufs;
        assert_eq!(got, reference_reduce_scatter(comm.graph(), &sbufs, &uniform, red));
        assert_eq!(compiled(), 3, "mutate forces a recompile");
        assert_eq!(seen.take(), (1, 0, 0), "served the live plan: one hit, no miss, no build");
        rs(&comm, &uniform, 5);
        assert_eq!(compiled(), 3);
    }

    /// `(plan-cache hits, misses, pattern builds begun)` a request reports.
    #[derive(Default)]
    struct PlanningSeen(std::sync::Mutex<(u64, u64, u64)>);

    impl PlanningSeen {
        fn take(&self) -> (u64, u64, u64) {
            std::mem::take(&mut self.0.lock().unwrap())
        }
    }

    impl Recorder for PlanningSeen {
        fn plan_cache(&self, _: nhood_topology::Rank, hit: bool) {
            let mut seen = self.0.lock().unwrap();
            *(if hit { &mut seen.0 } else { &mut seen.1 }) += 1;
        }

        fn span_begin(&self, _: nhood_topology::Rank, label: &'static str) {
            self.0.lock().unwrap().2 += u64::from(label == nhood_telemetry::labels::PLAN_BUILD);
        }
    }

    #[test]
    fn a_cacheless_communicator_builds_its_routing_plan_once_per_topology_epoch() {
        use crate::comm::DistGraphComm;
        // no plan cache: the epoch's memo alone stands between a request
        // and a pattern build
        let g = erdos_renyi(32, 0.3, 4);
        let mut comm = DistGraphComm::create_adjacent(g, ClusterLayout::new(4, 2, 4)).unwrap();
        let (seen, cold) = (PlanningSeen::default(), compiles());
        let payloads: Vec<Vec<u8>> = (0..32).map(|r| vec![r as u8; 16]).collect();
        let request = |comm: &DistGraphComm, red: Reduction| {
            let req = CollectiveRequest::allreduce(&payloads, red).recorder(&seen);
            assert_eq!(
                comm.collective(&req).unwrap().rbufs,
                reference_allreduce(comm.graph(), &payloads, red)
            );
            seen.take()
        };
        let f32_max = Reduction::new(ReduceOp::Max, DType::F32);
        assert_eq!(request(&comm, Reduction::SUM_U8), (0, 1, 1), "cold: one miss, one build");
        assert_eq!(request(&comm, Reduction::SUM_U8), (1, 0, 0), "warm");
        assert_eq!(request(&comm, f32_max), (1, 0, 0), "another lane: the memoized plan");
        assert_eq!(compiles() - cold, 1, "and the one allreduce program, on every lane");
        // a clone shares the memo until one of them changes epoch
        let before = comm.clone();
        assert_eq!(request(&before, f32_max), (1, 0, 0));
        let gone = comm.graph().edges().next().expect("the graph has edges");
        comm.mutate(&[], &[gone]).unwrap();
        assert_eq!(request(&comm, f32_max), (1, 0, 0), "mutate installed the live plan");
        // each keeps its own epoch's plan: alternating requests never rebuild
        for _ in 0..2 {
            assert_eq!(request(&before, f32_max), (1, 0, 0), "the unmutated clone's memo");
            assert_eq!(request(&comm, f32_max), (1, 0, 0), "the mutated clone's memo");
        }
        // an epoch `mutate` did not open misses once, then hits
        let bytes = before.clone().with_load_metric(crate::sizes::LoadMetric::Bytes);
        assert_eq!(request(&bytes, f32_max), (0, 1, 1), "a new epoch builds once");
        for _ in 0..2 {
            assert_eq!(request(&bytes, f32_max), (1, 0, 0), "the new epoch's memo");
            assert_eq!(request(&before, f32_max), (1, 0, 0), "the old epoch's memo");
        }
        // the churn state is the epoch's too: the next churn repairs the
        // live plan, unless a new load metric dropped it with the epoch
        let edge = comm.graph().edges().next().expect("the graph has edges");
        assert!(!comm.clone().mutate(&[], &[edge]).unwrap().full_rebuild, "a surgical repair");
        let mut bytes = comm.clone().with_load_metric(crate::sizes::LoadMetric::Bytes);
        assert!(bytes.mutate(&[], &[edge]).unwrap().full_rebuild, "no live plan to repair");

        // and every gather arm: the second identical request builds and
        // compiles nothing
        let comm =
            DistGraphComm::create_adjacent(erdos_renyi(32, 0.3, 4), ClusterLayout::new(4, 2, 4))
                .unwrap();
        let gather = |algo: Algorithm| {
            let req = CollectiveRequest::allgather(&payloads).algorithm(algo).recorder(&seen);
            let want = reference(comm.graph(), CollectiveOp::Allgather, &payloads, None).unwrap();
            assert_eq!(comm.collective(&req).unwrap().rbufs, want, "{algo}");
            seen.take()
        };
        for algo in [
            Algorithm::Naive,
            Algorithm::CommonNeighbor { k: 4 },
            Algorithm::DistanceHalving,
            Algorithm::HierarchicalLeader { leaders_per_node: 2 },
            Algorithm::Bruck,
            Algorithm::Pat { radix: 2 },
            Algorithm::Auto,
        ] {
            let (hits, misses, _) = gather(algo);
            assert_eq!((hits, misses), (0, 1), "{algo}: cold");
            let compiled = compiles();
            assert_eq!(gather(algo), (1, 0, 0), "{algo}: warm");
            assert_eq!(compiles(), compiled, "{algo}: the memoized plan's program");
        }
    }

    #[test]
    fn a_cacheless_auto_request_memoizes_its_winner_under_its_own_algorithm() {
        // the tuning pass built the winner's plan; an explicit request for
        // the winner in the same epoch is served it, not built again
        let g = erdos_renyi(32, 0.3, 21);
        let comm = DistGraphComm::create_adjacent(g, ClusterLayout::new(4, 2, 4)).unwrap();
        let payloads: Vec<Vec<u8>> = (0..32).map(|r| vec![r as u8; 16]).collect();
        let seen = PlanningSeen::default();
        let want = reference(comm.graph(), CollectiveOp::Allgather, &payloads, None).unwrap();
        let gather = |algo: Algorithm| {
            let req = CollectiveRequest::allgather(&payloads).algorithm(algo).recorder(&seen);
            assert_eq!(comm.collective(&req).unwrap().rbufs, want, "{algo}");
        };
        gather(Algorithm::Auto);
        let (hits, misses, _) = seen.take();
        let winner = comm.resolve_algorithm(Algorithm::Auto).unwrap();
        gather(winner);
        let (more_hits, more_misses, builds) = seen.take();
        assert_eq!((hits + more_hits, misses + more_misses), (1, 1), "{winner}");
        assert_eq!(builds, 0, "{winner}: the tuner's plan");
    }

    #[test]
    fn after_a_churn_every_op_is_served_the_repaired_plan() {
        // allgatherv's ragged table does not key a `Neighbors` plan, so
        // the repaired plan serves it too, with or without a cache
        let uniform: Vec<Vec<u8>> = (0..32).map(|r| vec![r as u8; 16]).collect();
        let ragged: Vec<Vec<u8>> = (0..32).map(|r| vec![r as u8; r % 5]).collect();
        for cache in [None, Some(Arc::new(crate::plan_cache::PlanCache::new(8)))] {
            let g = erdos_renyi(32, 0.3, 4);
            let mut comm = DistGraphComm::create_adjacent(g, ClusterLayout::new(4, 2, 4)).unwrap();
            if let Some(cache) = &cache {
                comm = comm.with_plan_cache(Arc::clone(cache));
            }
            comm.plan_shared(Algorithm::DistanceHalving).unwrap();
            let gone = comm.graph().edges().next().expect("the graph has edges");
            assert!(!comm.mutate(&[], &[gone]).unwrap().full_rebuild, "a surgical repair");
            let seen = PlanningSeen::default();
            for (op, sbufs) in [
                (CollectiveOp::Allgather, &uniform),
                (CollectiveOp::Allgatherv, &ragged),
                (CollectiveOp::Allreduce(Reduction::SUM_U8), &uniform),
            ] {
                let req = CollectiveRequest::new(op, sbufs).algorithm(Algorithm::DistanceHalving);
                let got = comm.collective(&req.recorder(&seen)).unwrap().rbufs;
                assert_eq!(got, reference(comm.graph(), op, sbufs, None).unwrap(), "{op}");
                let cached = cache.is_some();
                assert_eq!(seen.take(), (1, 0, 0), "{op} (cache: {cached}): the repaired plan");
            }
        }
    }

    #[test]
    fn derive_sizes_rejects_bad_shapes() {
        let g = erdos_renyi(8, 0.5, 1);
        let sbufs: Vec<Vec<u8>> = (0..8).map(|p| vec![0u8; g.outdegree(p) * 4]).collect();
        assert!(derive_sizes(&g, CollectiveOp::Alltoallv, &sbufs, None).is_ok());
        let mut bad = sbufs.clone();
        bad[2].push(0);
        assert!(matches!(
            derive_sizes(&g, CollectiveOp::Alltoallv, &bad, None),
            Err(CommError::Exec(ExecError::PayloadSizeMismatch { rank: 2, .. }))
        ));
        // f32 lanes demand 4-byte multiples
        let red = Reduction::new(ReduceOp::Sum, DType::F32);
        let odd: Vec<Vec<u8>> = (0..8).map(|_| vec![0u8; 3]).collect();
        assert!(matches!(
            derive_sizes(&g, CollectiveOp::Allreduce(red), &odd, None),
            Err(CommError::InvalidReduction { .. })
        ));
    }
}
