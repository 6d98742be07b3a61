//! Plan executors.
//!
//! One engine runs every collective: a [`crate::plan::CollectivePlan`]
//! is compiled once per op shape (`collective::program`) and the program
//! runs on one of two runtimes —
//!
//! * [`virtual_exec`] — deterministic sequential execution with real byte
//!   buffers; scales to thousands of ranks and is the correctness oracle;
//! * [`threaded`] — every rank a machine on the one rank runtime (the
//!   crate-private `runtime` module), polled by a fixed worker pool,
//!   exercising the program under true concurrency and injected faults;
//!
//! while [`sim_exec`] prices the plan on the `nhood-simnet`
//! discrete-event engine — cluster-scale latencies at any message size,
//! no byte moved. [`Executor`] fronts the two runtimes for the allgather
//! family; [`crate::comm::DistGraphComm::collective`] reaches the same
//! engine for every op.
//!
//! Both runtimes and the simulator consume the same plan, so agreement
//! between them is a meaningful cross-check (and is property-tested in
//! the workspace integration suite).

pub mod sim_exec;
pub mod threaded;
pub mod virtual_exec;

use crate::arena::BlockArena;
use crate::collective::program::{Job, Lens, Shape};
use crate::collective::CollectiveOp;
use crate::fault::{FaultCounts, FaultPlan, FaultStats};
use crate::plan::{Algorithm, CollectivePlan, PlanValidationError};
use crate::runtime::Clock;
use crate::sizes::BlockSizes;
use nhood_telemetry::{Recorder, NULL};
use nhood_topology::{Rank, Topology};
use std::sync::Arc;
use std::time::Duration;

pub use threaded::Threaded;
pub use virtual_exec::Virtual;

/// The telemetry label for phase `k` of `plan` (see
/// `nhood_telemetry::labels`). Distance Halving plans are lock-step:
/// phases `0..max_steps` are halving steps, then one mostly-intra-socket
/// final exchange and a copy-only epilogue; other algorithms have no
/// halving structure and get the generic label.
pub fn phase_label(plan: &CollectivePlan, k: usize) -> &'static str {
    match plan.algorithm {
        Algorithm::DistanceHalving if k + 2 < plan.phase_count() => {
            nhood_telemetry::labels::HALVING_STEP
        }
        Algorithm::DistanceHalving => nhood_telemetry::labels::INTRA_SOCKET,
        _ => nhood_telemetry::labels::PHASE,
    }
}

/// Execution parameters shared by every [`Executor`] backend, built
/// fluently:
///
/// ```
/// use nhood_core::exec::ExecOptions;
/// use std::time::Duration;
///
/// let opts = ExecOptions::new().recv_timeout(Duration::from_secs(2)).ragged(true);
/// assert_eq!(opts.recv_timeout, Duration::from_secs(2));
/// ```
///
/// `Default`: 10 s receive timeout, 4 retries from a 200 µs backoff, no
/// faults, a null recorder, uniform payloads.
#[derive(Clone, Copy)]
pub struct ExecOptions<'a> {
    /// How long a rank may hear nothing before erroring (threaded
    /// backend; the distributed negotiation's per-signal timeout).
    pub recv_timeout: Duration,
    /// Retransmission attempts per dropped message or signal.
    pub max_retries: u32,
    /// How much later the first retry lands; doubles per attempt.
    pub backoff_base: Duration,
    /// Fault schedule consulted at every send; `None` injects nothing.
    pub fault: Option<&'a FaultPlan>,
    /// Telemetry sink; defaults to the no-op [`nhood_telemetry::NULL`].
    pub recorder: &'a dyn Recorder,
    /// `true` accepts per-rank payloads of different lengths (the
    /// `neighbor_allgatherv` semantics).
    pub ragged: bool,
    /// External fault-tally sink. When set, the transport counts
    /// into this shared [`FaultStats`] instead of a run-local one, so
    /// the faults a *failed* run injected survive the `Err` (an
    /// [`ExecError`] carries no counters) and can be merged into the
    /// caller's report — the robust fallback path relies on this.
    pub fault_sink: Option<&'a FaultStats>,
}

impl std::fmt::Debug for ExecOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecOptions")
            .field("recv_timeout", &self.recv_timeout)
            .field("max_retries", &self.max_retries)
            .field("backoff_base", &self.backoff_base)
            .field("fault", &self.fault)
            .field("ragged", &self.ragged)
            .finish_non_exhaustive()
    }
}

impl Default for ExecOptions<'_> {
    fn default() -> Self {
        Self {
            recv_timeout: threaded::DEFAULT_TIMEOUT,
            max_retries: 4,
            backoff_base: Duration::from_micros(200),
            fault: None,
            recorder: &NULL,
            ragged: false,
            fault_sink: None,
        }
    }
}

impl<'a> ExecOptions<'a> {
    /// The defaults (see type-level docs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-receive timeout.
    pub fn recv_timeout(mut self, t: Duration) -> Self {
        self.recv_timeout = t;
        self
    }

    /// Sets the retry budget and first backoff.
    pub fn retries(mut self, max: u32, backoff_base: Duration) -> Self {
        self.max_retries = max;
        self.backoff_base = backoff_base;
        self
    }

    /// Attaches a fault schedule.
    pub fn fault(mut self, fp: &'a FaultPlan) -> Self {
        self.fault = Some(fp);
        self
    }

    /// Attaches a telemetry recorder.
    pub fn recorder(mut self, rec: &'a dyn Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// Accepts ragged (`allgatherv`) payloads.
    pub fn ragged(mut self, ragged: bool) -> Self {
        self.ragged = ragged;
        self
    }

    /// Routes fault tallies into an external [`FaultStats`], preserving
    /// them across a failed run.
    pub fn fault_sink(mut self, sink: &'a FaultStats) -> Self {
        self.fault_sink = Some(sink);
        self
    }

    /// The allgather-family op an [`Executor::run`] under these options
    /// serves.
    pub(crate) fn gather_op(&self) -> CollectiveOp {
        if self.ragged {
            CollectiveOp::Allgatherv
        } else {
            CollectiveOp::Allgather
        }
    }
}

/// What an [`Executor::run`] produced.
#[derive(Clone, Debug, Default)]
pub struct ExecOutcome {
    /// Per-rank receive buffers: each rank's in-neighbor payloads
    /// concatenated in `in_neighbors` order.
    pub rbufs: Vec<Vec<u8>>,
    /// Faults injected and retries spent (all zero without a fault
    /// plan; always zero on the virtual backend).
    pub faults: FaultCounts,
}

/// A plan-execution backend behind one uniform call.
///
/// Two implementations, both moving real bytes: [`Virtual`] (sequential
/// oracle) and [`Threaded`] (concurrent rank machines). Simulated time is
/// a pricing call, not a backend: [`sim_exec::simulate_v`] for a plan,
/// [`crate::DistGraphComm::simulate_on`] for a request. See
/// `docs/EXECUTION_API.md`.
pub trait Executor {
    /// A short backend name for logs and bench labels.
    fn name(&self) -> &'static str;

    /// Executes the allgather of `payloads` over `plan`, using `arena` as
    /// the reusable workspace (compiled program, offset tables, spare
    /// receive buffers). The plan comes as the `Arc` it is shared under
    /// because that allocation is the arena's warm-path identity (see
    /// [`BlockArena::prepare`]).
    fn run(
        &self,
        plan: &Arc<CollectivePlan>,
        graph: &Topology,
        payloads: &[Vec<u8>],
        arena: &mut BlockArena,
        opts: &ExecOptions<'_>,
    ) -> Result<ExecOutcome, ExecError>;

    /// Convenience wrapper: default options, throwaway arena, receive
    /// buffers only.
    fn run_simple(
        &self,
        plan: &Arc<CollectivePlan>,
        graph: &Topology,
        payloads: &[Vec<u8>],
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        self.run(plan, graph, payloads, &mut BlockArena::new(), &ExecOptions::default())
            .map(|o| o.rbufs)
    }
}

/// Execution failure, shared by the virtual and threaded backends.
#[derive(Debug, PartialEq, Eq)]
pub enum ExecError {
    /// `payloads.len()` does not match the plan's rank count.
    PayloadCountMismatch {
        /// Payload vectors supplied.
        got: usize,
        /// Ranks in the plan.
        want: usize,
    },
    /// Payload blocks must all have the same byte length.
    PayloadSizeMismatch {
        /// Offending rank.
        rank: Rank,
        /// Its payload length.
        got: usize,
        /// Expected length (rank 0's).
        want: usize,
    },
    /// A combining shape's routing forwards an item its sender never held.
    MissingBlock {
        /// Sending rank.
        rank: Rank,
        /// Missing block.
        block: Rank,
        /// Phase index.
        phase: usize,
    },
    /// A combining shape's routing never delivers an in-neighbor's item.
    Undelivered {
        /// Receiving rank.
        rank: Rank,
        /// The in-neighbor whose block never arrived.
        block: Rank,
    },
    /// A gather's plan failed [`CollectivePlan::validate`]: it is refused
    /// before any byte moves.
    InvalidPlan(PlanValidationError),
    /// A threaded rank timed out waiting for a message (deadlocked or
    /// lost message).
    Timeout {
        /// The stuck rank.
        rank: Rank,
        /// Phase it was stuck in.
        phase: usize,
    },
    /// A rank of the threaded backend panicked.
    WorkerPanic {
        /// The rank that panicked.
        rank: Rank,
    },
    /// The fault plan crashed this rank before the given phase (see
    /// [`crate::fault::FaultPlan::with_crashed_rank`]).
    RankCrashed {
        /// The crashed rank.
        rank: Rank,
        /// The phase at whose entry it died.
        phase: usize,
    },
    /// A send hit a dead link (see
    /// [`crate::fault::FaultPlan::with_link_down`]). Unretryable at the
    /// transport level: the caller must repair the plan around the edge
    /// (or fall back) and re-execute.
    LinkDown {
        /// Sending rank of the refused message.
        src: Rank,
        /// Receiving rank of the refused message.
        dst: Rank,
        /// Phase in which the send was attempted.
        phase: usize,
    },
}

impl ExecError {
    /// `true` for the liveness-failure family — errors that mean "a rank
    /// stopped making progress" (timeout, injected crash) rather than a
    /// malformed plan or payload. Chaos tests
    /// accept any of these as the correct outcome of an unsurvivable
    /// fault schedule; what they must never observe is a hang or a
    /// silently-corrupted buffer.
    pub fn is_timeout_class(&self) -> bool {
        matches!(self, ExecError::Timeout { .. } | ExecError::RankCrashed { .. })
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::PayloadCountMismatch { got, want } => {
                write!(f, "got {got} payloads for {want} ranks")
            }
            ExecError::PayloadSizeMismatch { rank, got, want } => {
                write!(f, "rank {rank} payload is {got} bytes, expected {want}")
            }
            ExecError::MissingBlock { rank, block, phase } => {
                write!(f, "rank {rank} does not hold block {block} at phase {phase}")
            }
            ExecError::Undelivered { rank, block } => {
                write!(f, "rank {rank} never received in-neighbor {block}'s block")
            }
            ExecError::InvalidPlan(e) => write!(f, "invalid plan: {e}"),
            ExecError::Timeout { rank, phase } => {
                write!(f, "rank {rank} timed out in phase {phase}")
            }
            ExecError::WorkerPanic { rank } => write!(f, "rank {rank} worker panicked"),
            ExecError::RankCrashed { rank, phase } => {
                write!(f, "rank {rank} crashed at entry to phase {phase}")
            }
            ExecError::LinkDown { src, dst, phase } => {
                write!(f, "link {src} -> {dst} is down (send refused in phase {phase})")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// One payload per rank, or the typed count error.
pub(crate) fn check_count(payloads: &[Vec<u8>], n: usize) -> Result<(), ExecError> {
    if payloads.len() == n {
        Ok(())
    } else {
        Err(ExecError::PayloadCountMismatch { got: payloads.len(), want: n })
    }
}

/// The one engine behind every front: runs `op` over `plan` on the
/// sequential runtime, or as rank machines on `clock`.
/// `sizes` is a combining op's validated size table
/// ([`crate::collective::derive_sizes`]); a gather reads its block
/// lengths off `payloads`. The warm path — `arena` already holds the
/// program of this plan `Arc` — reads nothing of the plan and allocates
/// nothing the receive buffers do not need.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute(
    op: CollectiveOp,
    sizes: Option<&BlockSizes>,
    plan: &Arc<CollectivePlan>,
    graph: &Topology,
    payloads: &[Vec<u8>],
    arena: &mut BlockArena,
    clock: Option<Clock>,
    opts: &ExecOptions<'_>,
) -> Result<ExecOutcome, ExecError> {
    check_count(payloads, plan.n())?;
    // a uniform gather's blocks all take the first payload's length, and
    // staging checks every payload against it
    let uniform = (op == CollectiveOp::Allgather)
        .then(|| BlockSizes::uniform(payloads.first().map_or(0, Vec::len)));
    let prog = arena.program(plan, graph, Shape::of(op))?;
    let lens = sizes.or(uniform.as_ref()).map_or(Lens::Own(payloads), Lens::Table);
    let mut staged = arena.stage(&prog, Job { red: op.reduction(), sbufs: payloads, lens })?;
    let local = FaultStats::default();
    let stats = opts.fault_sink.unwrap_or(&local);
    match clock {
        Some(clock) => threaded::run(&mut staged, opts, stats, clock)?,
        None => virtual_exec::run(&mut staged, opts.recorder),
    }
    Ok(ExecOutcome { rbufs: staged.rbufs, faults: stats.snapshot() })
}
