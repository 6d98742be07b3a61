//! Unified tracing & metrics for the `nhood` workspace.
//!
//! Every instrumented component — the three collective executors, the
//! distributed agent negotiation, the fault layer and the discrete-event
//! simulator — reports through one narrow [`Recorder`] trait. Callers
//! that do not care pass [`NullRecorder`] (every hook is an empty default
//! method, and it asks for no traffic tally, so the uninstrumented path
//! costs one empty virtual call per phase-level event); callers that do
//! care pick:
//!
//! * [`CountingRecorder`] — per-rank atomic counters (messages / bytes
//!   sent and received, copies, retries, fallbacks, negotiation rounds),
//!   optionally classified by socket locality so measurements can be
//!   joined against the §V model's E\[n_off\] / E\[n_in\] / E\[m_in\].
//!   Executors tally a request's traffic in plain integers and hand it
//!   over once per rank ([`Recorder::traffic`]), never per message;
//! * [`SpanRecorder`] — timestamped begin/end/instant events with a rank
//!   and a phase label, exportable as Chrome `chrome://tracing` JSON.
//!
//! Exporters: [`chrome_trace_json`] (one track per rank),
//! a plain-text [`summary_table`], and a [`model_check_report`] with
//! relative errors. [`percentile`] / [`LatencySummary`] provide the
//! deterministic nearest-rank latency summaries the service layer and
//! the sustained-load benches report. This crate depends on nothing but
//! `std` so it can sit underneath every other crate in the workspace.

#![warn(missing_docs)]

mod counting;
mod export;
mod percentile;
mod span;

pub use counting::{CountingRecorder, Counts, Tally, Traffic};
pub use export::{chrome_trace_json, model_check_report, summary_table, ModelPrediction};
pub use percentile::{percentile, percentile_sorted, LatencySummary};
pub use span::{EventKind, SpanEvent, SpanRecorder};

/// Rank index (mirrors `nhood_topology::Rank`; redeclared so this crate
/// stays dependency-free).
pub type Rank = usize;

/// Canonical phase / event labels used by the instrumented components.
pub mod labels {
    /// A Distance Halving halving step (off-socket traffic).
    pub const HALVING_STEP: &str = "halving_step";
    /// The final mostly-intra-socket exchange (and its copy epilogue).
    pub const INTRA_SOCKET: &str = "intra_socket";
    /// One step of the distributed agent negotiation (Algorithms 2–3).
    pub const NEGOTIATE: &str = "negotiate";
    /// A retried send (fault layer backoff path).
    pub const RETRY: &str = "retry";
    /// Degradation to the naive plan (robust collective requests).
    pub const FALLBACK: &str = "fallback";
    /// A plan phase of an algorithm without halving structure
    /// (naive / Common Neighbor / leader).
    pub const PHASE: &str = "phase";
    /// A complete pattern build (`build_pattern*` — Algorithm 1).
    pub const PLAN_BUILD: &str = "plan_build";
    /// The candidate-scoring stage of one halving step (matrix-A
    /// queries), parallelizable.
    pub const BUILD_SCORE: &str = "build_score";
    /// The protocol-drive stage of one halving step (REQ/ACCEPT/DROP/
    /// EXIT emulation), one drive per round.
    pub const BUILD_MATCH: &str = "build_match";
    /// Lowering a built pattern to an executable plan.
    pub const PLAN_LOWER: &str = "plan_lower";
    /// A plan-cache lookup (hit or miss — see `Recorder::plan_cache`).
    pub const PLAN_CACHE: &str = "plan_cache";
    /// An incremental plan repair (topology churn or mid-run link-down
    /// recovery) — see `Recorder::repair`.
    pub const REPAIR: &str = "repair";
    /// One reactor tick of the collective service: drain the submission
    /// queue, group by tenant and op family, execute the batches.
    pub const SERVICE_TICK: &str = "service_tick";
    /// One batched execution of one tenant's service requests.
    pub const SERVICE_BATCH: &str = "service_batch";
}

/// The instrumentation surface. All hooks default to no-ops, so an
/// implementor overrides only what it measures and `NullRecorder` is an
/// empty type. Implementations must be `Sync`: the threaded executor
/// calls hooks from every worker of its pool.
pub trait Recorder: Sync {
    /// Whether this recorder takes [`traffic`](Self::traffic) records:
    /// `None` (the default) and executors tally nothing; else the
    /// [`Tally`] they keep — its socket map splits each rank's sends.
    /// Asked once per request.
    fn tally(&self) -> Option<Tally<'_>> {
        None
    }

    /// `rank`'s [`Traffic`] in one request, tallied under
    /// [`tally`](Self::tally): the one data-path hook, called at most
    /// once per rank per request, whatever its message count — when the
    /// rank is done, or has failed (a failed run reports what it moved).
    fn traffic(&self, rank: Rank, traffic: &Traffic) {
        let _ = (rank, traffic);
    }

    /// `rank` retried a dropped send.
    fn retry(&self, rank: Rank) {
        let _ = rank;
    }

    /// The collective on `rank` degraded to its fallback plan.
    fn fallback(&self, rank: Rank) {
        let _ = rank;
    }

    /// `rank` completed one REQ/ACCEPT/DROP negotiation round.
    fn negotiation_round(&self, rank: Rank) {
        let _ = rank;
    }

    /// `rank` looked a plan up in a plan cache: `hit` is `true` when the
    /// plan was served from the cache, `false` when it had to be built.
    fn plan_cache(&self, rank: Rank, hit: bool) {
        let _ = (rank, hit);
    }

    /// `rank` performed an incremental plan repair (topology churn or
    /// mid-run link-down recovery) instead of a cold rebuild.
    fn repair(&self, rank: Rank) {
        let _ = rank;
    }

    /// `rank` entered the phase `label` (wall-clock recorders stamp the
    /// current time).
    fn span_begin(&self, rank: Rank, label: &'static str) {
        let _ = (rank, label);
    }

    /// `rank` left the phase `label`.
    fn span_end(&self, rank: Rank, label: &'static str) {
        let _ = (rank, label);
    }

    /// A complete span with explicit timestamps in seconds — used by the
    /// simulator, whose clock is virtual.
    fn span_at(&self, rank: Rank, label: &'static str, begin: f64, end: f64) {
        let _ = (rank, label, begin, end);
    }

    /// Counter snapshot, if this recorder keeps counters
    /// ([`CountingRecorder`] returns its totals). Lets callers holding
    /// only a `&dyn Recorder` surface counts in reports.
    fn counts(&self) -> Option<Counts> {
        None
    }
}

/// The zero-overhead recorder: every hook is the default no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// A `&'static` null recorder, handy as a default for configuration
/// structs holding a `&dyn Recorder`.
pub static NULL: NullRecorder = NullRecorder;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_accepts_everything() {
        let r: &dyn Recorder = &NULL;
        assert!(r.tally().is_none());
        r.traffic(0, &Traffic { msgs_sent: 1, bytes_sent: 64, copies: 3, ..Traffic::default() });
        r.retry(2);
        r.fallback(0);
        r.negotiation_round(1);
        r.plan_cache(0, true);
        r.repair(0);
        r.span_begin(0, labels::HALVING_STEP);
        r.span_end(0, labels::HALVING_STEP);
        r.span_at(0, labels::INTRA_SOCKET, 0.0, 1e-6);
        assert!(r.counts().is_none());
    }
}
