//! Service-level observability: per-tenant and aggregate counters plus
//! the latency/throughput summary a sustained-load run reports.

use std::time::Duration;

use nhood_telemetry::{Counts, LatencySummary};

/// One tenant's lifetime counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct TenantStats {
    /// Submissions attempted (admitted + rejected).
    pub submitted: u64,
    /// Submissions admitted into the queue.
    pub admitted: u64,
    /// Submissions turned away by admission control.
    pub rejected: u64,
    /// Requests that produced buffers (possibly degraded).
    pub completed: u64,
    /// Requests that failed outright (typed executor error).
    pub failed: u64,
    /// Completed requests whose buffers honor only a degraded subset of
    /// the topology (robust quorum path).
    pub degraded: u64,
    /// Completed requests that were byte-checked against the naive
    /// reference.
    pub verified: u64,
    /// Verified requests whose bytes did NOT match the reference (must
    /// stay zero; counted, never masked).
    pub corrupt: u64,
    /// Churn events applied to this tenant's communicator.
    pub churn_events: u64,
    /// Churn events absorbed by surgical plan repair.
    pub repairs: u64,
    /// Churn events that forced a full pattern rebuild.
    pub full_rebuilds: u64,
}

/// Aggregate counters: every tenant's summed, plus the reactor's own
/// (ticks, batches, coalesced, fallbacks) and submissions naming no
/// tenant.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Submissions attempted.
    pub submitted: u64,
    /// Submissions admitted.
    pub admitted: u64,
    /// Submissions rejected (backpressure).
    pub rejected: u64,
    /// Requests completed with buffers.
    pub completed: u64,
    /// Requests failed with a typed error.
    pub failed: u64,
    /// Completed-but-degraded requests.
    pub degraded: u64,
    /// Requests that degraded to the naive fallback plan.
    pub fallbacks: u64,
    /// Requests byte-verified against the naive reference.
    pub verified: u64,
    /// Verified requests with corrupt bytes (must stay zero).
    pub corrupt: u64,
    /// Reactor ticks that drained at least one request.
    pub ticks: u64,
    /// Batched executions (each covers ≥ 1 request under one plan
    /// fetch).
    pub batches: u64,
    /// Requests that rode a batch of size ≥ 2.
    pub coalesced: u64,
    /// Churn events applied while the service was live.
    pub churn_events: u64,
    /// Churn events absorbed by surgical repair.
    pub repairs: u64,
    /// Churn events that forced a full rebuild.
    pub full_rebuilds: u64,
}

impl std::ops::Add<TenantStats> for ServiceStats {
    type Output = Self;

    /// These counters plus one tenant's.
    fn add(mut self, t: TenantStats) -> Self {
        self.submitted += t.submitted;
        self.admitted += t.admitted;
        self.rejected += t.rejected;
        self.completed += t.completed;
        self.failed += t.failed;
        self.degraded += t.degraded;
        self.verified += t.verified;
        self.corrupt += t.corrupt;
        self.churn_events += t.churn_events;
        self.repairs += t.repairs;
        self.full_rebuilds += t.full_rebuilds;
        self
    }
}

/// The summary a service run hands back: counters, deterministic
/// nearest-rank latency percentiles (arrival → completion, µs) and
/// wall-clock throughput.
#[derive(Clone, Debug, Default)]
pub struct ServiceReport {
    /// Wall time from service construction (or counter reset) to the
    /// report.
    pub wall: Duration,
    /// Time spent inside batch executions (the rest is queueing /
    /// arrival idle).
    pub busy: Duration,
    /// Aggregate counters.
    pub stats: ServiceStats,
    /// Per-tenant counters, indexed by tenant id.
    pub per_tenant: Vec<TenantStats>,
    /// Request latency summary (arrival → completion, µs); `None` when
    /// nothing completed.
    pub latency: Option<LatencySummary>,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Transport-level telemetry totals (messages/bytes/retries/
    /// fallbacks) from the service's counting recorder.
    pub counters: Option<Counts>,
}

impl ServiceReport {
    /// Fraction of admitted requests that completed (1.0 when nothing
    /// was admitted — an empty run is vacuously complete).
    pub fn completion_rate(&self) -> f64 {
        if self.stats.admitted == 0 {
            return 1.0;
        }
        self.stats.completed as f64 / self.stats.admitted as f64
    }
}

impl std::fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = &self.stats;
        writeln!(
            f,
            "submitted {}  admitted {}  rejected {}  completed {}  failed {}",
            s.submitted, s.admitted, s.rejected, s.completed, s.failed
        )?;
        writeln!(
            f,
            "degraded {}  fallbacks {}  verified {}  corrupt {}",
            s.degraded, s.fallbacks, s.verified, s.corrupt
        )?;
        writeln!(
            f,
            "batches {}  coalesced {}  ticks {}  churn {} (repair {} / rebuild {})",
            s.batches, s.coalesced, s.ticks, s.churn_events, s.repairs, s.full_rebuilds
        )?;
        match &self.latency {
            Some(l) => writeln!(f, "latency µs: {l}")?,
            None => writeln!(f, "latency µs: (no completions)")?,
        }
        write!(
            f,
            "throughput {:.0} req/s  wall {:.3}s  busy {:.3}s",
            self.throughput_rps,
            self.wall.as_secs_f64(),
            self.busy.as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_empty_runs() {
        let r = ServiceReport::default();
        assert_eq!(r.completion_rate(), 1.0);
    }

    #[test]
    fn display_covers_the_headline_counters() {
        let mut r = ServiceReport::default();
        r.stats.submitted = 10;
        r.stats.admitted = 8;
        r.stats.rejected = 2;
        r.stats.completed = 8;
        let txt = r.to_string();
        assert!(txt.contains("submitted 10"));
        assert!(txt.contains("rejected 2"));
        assert!(txt.contains("no completions"));
        assert!((r.completion_rate() - 1.0).abs() < 1e-12);
    }
}
