//! Blocks, set-up and the measured window.
//!
//! A block is the smallest repeating unit of a workload: its script of
//! 16 requests. A **throughput** block submits them back to back and
//! drains once; a **latency** block drains each request before the next
//! is submitted. Inputs are cloned before the block timer starts and
//! results are checked after it stops, so only `submit…` → `drain` →
//! `take_completions` is timed. The window interleaves the two kinds one
//! for one, so both see the same host conditions.

use std::time::{Duration, Instant};

use nhood_core::PlanCacheStats;
use nhood_service::{
    Backend, Completion, RequestId, Service, ServiceConfig, ServiceReport, ServiceStats,
    SubmitRequest,
};

use crate::alloc;
use crate::calib::{nominal_ns, RefSample, Refs};
use crate::model::{digest, Expect};
use crate::trace::Tracer;
use crate::workloads::{Step, TenantSpec, Workload};

/// The shipped default (`Verify::Sample(16)`, batching on, one build
/// thread) on the workload's backend.
pub fn service_config(w: &Workload) -> ServiceConfig {
    ServiceConfig { backend: w.backend, ..ServiceConfig::default() }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Throughput,
    Latency,
}

/// Owned inputs of one block, cloned from the workload before timing.
pub struct Inputs {
    /// Tenants the block registers on a fresh service (empty on a warm one).
    pub tenants: Vec<TenantSpec>,
    /// The model pass's `expect[i]` belongs to the i-th request here.
    pub steps: Vec<Step>,
    /// Drain after every request (latency) instead of once (throughput).
    pub one_at_a_time: bool,
}

impl Inputs {
    pub fn of(w: &Workload, kind: Kind) -> Self {
        let one_at_a_time = kind == Kind::Latency;
        match (w.lifetime, kind) {
            (false, _) => Self { tenants: Vec::new(), steps: w.script.clone(), one_at_a_time },
            (true, Kind::Throughput) => {
                Self { tenants: w.tenants.clone(), steps: w.script.clone(), one_at_a_time }
            }
            // Cold start: fresh service, tenant 0, its first request.
            (true, Kind::Latency) => Self {
                tenants: vec![w.tenants[0].clone()],
                steps: vec![w.script[0].clone()],
                one_at_a_time,
            },
        }
    }

    /// Requests in a block of this kind (without cloning anything).
    pub fn ops(w: &Workload, kind: Kind) -> u64 {
        match (w.lifetime, kind) {
            (true, Kind::Latency) => 1,
            _ => w.requests().count() as u64,
        }
    }
}

/// What one block did, before checking.
pub struct Ran {
    pub ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Ticket of each request in script order; `None` when rejected.
    pub ids: Vec<Option<RequestId>>,
    pub done: Vec<Completion>,
    /// Registrations and churn events that returned an error.
    pub errors: u64,
    pub stats: ServiceStats,
    pub cache: PlanCacheStats,
    /// `(messages, payload bytes)` the service's transport counters
    /// stand at, cumulative over the service's life.
    pub sent: (u64, u64),
}

/// The transport counters of a report: `(messages, payload bytes)` sent.
pub fn sent(report: &ServiceReport) -> (u64, u64) {
    report.counters.map_or((0, 0), |c| (c.msgs_sent, c.bytes_sent))
}

fn register(
    cfg: ServiceConfig,
    tenants: Vec<TenantSpec>,
    errors: &mut u64,
    tr: &mut Tracer,
) -> Service {
    let mut svc = Service::new(cfg);
    for t in tenants {
        let span = tr.begin("service.add_tenant");
        *errors += u64::from(svc.add_tenant(t.graph, t.layout, t.algo).is_err());
        tr.end(span);
    }
    svc
}

fn drain(svc: &mut Service, done: &mut Vec<Completion>, req: Option<RequestId>, tr: &mut Tracer) {
    let span = tr.begin("service.drain");
    svc.drain();
    tr.end_req(span, req);
    let span = tr.begin("service.take_completions");
    done.append(&mut svc.take_completions());
    tr.end_req(span, req);
}

/// Runs one block. With `warm = None` the block builds its own service
/// inside the timer (and drops it after the timer stops).
pub fn run_block(
    cfg: ServiceConfig,
    warm: Option<&mut Service>,
    inputs: Inputs,
    tr: &mut Tracer,
) -> Ran {
    let Inputs { tenants, steps, one_at_a_time } = inputs;
    let mut ids = Vec::with_capacity(steps.len());
    let mut done = Vec::with_capacity(steps.len());
    let mut errors = 0;
    let block = tr.begin(if one_at_a_time { "block.latency" } else { "block.throughput" });

    let a0 = alloc::snapshot();
    let t0 = Instant::now();
    let mut fresh;
    let svc = match warm {
        Some(svc) => svc,
        None => {
            fresh = register(cfg, tenants, &mut errors, tr);
            &mut fresh
        }
    };
    for step in steps {
        match step {
            Step::Request { tenant, req } => {
                let span = tr.begin("service.submit");
                let id = svc.submit_request(tenant, req).ok();
                tr.end_req(span, id);
                ids.push(id);
                if one_at_a_time {
                    drain(svc, &mut done, id, tr);
                }
            }
            Step::Churn { tenant, added, removed } => {
                drain(svc, &mut done, None, tr);
                let span = tr.begin("service.churn");
                errors += u64::from(svc.churn(tenant, &added, &removed).is_err());
                tr.end(span);
            }
        }
    }
    if !one_at_a_time {
        drain(svc, &mut done, None, tr);
    }
    let ns = t0.elapsed().as_nanos() as u64;
    let a1 = alloc::snapshot();

    tr.end(block);
    let (report, cache) = (svc.report(), svc.cache().stats());
    let (stats, sent) = (report.stats, sent(&report));
    Ran { ns, allocs: a1.0 - a0.0, alloc_bytes: a1.1 - a0.1, ids, done, errors, stats, cache, sent }
}

/// Outcome counts of one checked block.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Checked {
    pub attempted: u64,
    /// Rejected + failed + corrupt + missing requests, plus errors.
    pub failed: u64,
    /// Requests the service byte-verified itself.
    pub verified: u64,
    /// Bytes in the receive buffers of the completions that carry them
    /// (a service that keeps its outputs).
    pub delivered: u64,
}

/// Checks a block's completions. Every request must have completed and
/// none may have failed the service's own sampled verification; a
/// simulated request must carry exactly the model pass's makespan; and
/// when the service kept outputs (`outputs_kept`), the receive buffers
/// must digest to what the reference buffers do.
pub fn check(ran: &Ran, expect: &[Expect], backend: Backend, outputs_kept: bool) -> Checked {
    let mut c =
        Checked { attempted: ran.ids.len() as u64, failed: ran.errors, ..Checked::default() };
    for (id, want) in ran.ids.iter().zip(expect) {
        let Some(done) = id.and_then(|id| ran.done.iter().find(|d| d.id == id)) else {
            c.failed += 1;
            continue;
        };
        c.verified += u64::from(done.verified == Some(true));
        c.delivered += done.output.iter().flatten().map(|b| b.len() as u64).sum::<u64>();
        let ok = done.outcome.is_completed()
            && done.verified != Some(false)
            && match backend {
                Backend::Sim => {
                    done.sim_makespan.map(f64::to_bits) == Some(want.makespan_s.to_bits())
                }
                _ => !outputs_kept || done.output.as_ref().map(|o| digest(o)) == Some(want.digest),
            };
        c.failed += u64::from(!ok);
    }
    c
}

/// Index among the script's requests of the first one each tenant is
/// sent: the warm-up traffic of a set-up.
fn warmup_indices(w: &Workload) -> Vec<usize> {
    let tenants: Vec<usize> = w.requests().map(|(tenant, _)| tenant).collect();
    (0..w.tenants.len()).filter_map(|t| tenants.iter().position(|&x| x == t)).collect()
}

/// What [`set_up`] built and what it cost.
pub struct SetUp {
    pub svc: Service,
    pub ns: u64,
    /// Failed registrations plus rejected, failed, corrupt and missing
    /// warm-up requests.
    pub failed: u64,
}

/// One set-up: `Service::new`, every `add_tenant`, one warm-up request
/// per tenant.
pub fn set_up(w: &Workload, cfg: ServiceConfig, tr: &mut Tracer) -> SetUp {
    let all: Vec<_> = w.requests().collect();
    let warm: Vec<(usize, SubmitRequest)> =
        warmup_indices(w).into_iter().map(|i| (all[i].0, all[i].1.clone())).collect();
    let tenants = w.tenants.clone();
    let span = tr.begin("setup");
    let t0 = Instant::now();
    let mut errors = 0;
    let mut svc = register(cfg, tenants, &mut errors, tr);
    let mut admitted = 0;
    let mut rejected = 0;
    for (tenant, req) in warm {
        match svc.submit_request(tenant, req) {
            Ok(_) => admitted += 1,
            Err(_) => rejected += 1,
        }
    }
    svc.drain();
    let done = svc.take_completions();
    let ns = t0.elapsed().as_nanos() as u64;
    tr.end(span);
    let bad = done.iter().filter(|d| !d.outcome.is_completed() || d.verified == Some(false));
    let missing = admitted - done.len().min(admitted);
    SetUp { svc, ns, failed: errors + rejected + (bad.count() + missing) as u64 }
}

/// One timed unit — a block or a set-up — with what the calibration
/// kernels read around it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Bytes the unit has to move whatever the code does: see [`Moved`].
    pub moved_bytes: u64,
    pub host: RefSample,
}

impl Sample {
    /// The unit's time on the nominal host, ns (see [`crate::calib`]).
    pub fn nominal_ns(&self) -> u64 {
        nominal_ns(self.ns, self.moved_bytes, self.host).round() as u64
    }
}

/// Bytes each kind of timed unit has to move: the payloads its requests
/// bring in plus, on a backend that moves bytes, the receive buffers
/// they fill. Constants of the workload, which is the point: the
/// calibration splits a unit's time by them, and a split by something
/// the program decides (the bytes it allocates, say) would let a change
/// in that read as a change in speed.
#[derive(Clone, Copy, Debug)]
pub struct Moved {
    pub throughput: u64,
    pub latency: u64,
    pub setup: u64,
}

impl Moved {
    pub fn of(w: &Workload, expect: &[Expect]) -> Self {
        let out = |e: &Expect| if w.backend == Backend::Sim { 0 } else { e.delivered };
        let per_request: Vec<u64> = w
            .requests()
            .zip(expect)
            .map(|((_, req), e)| req.payloads.iter().map(|p| p.len() as u64).sum::<u64>() + out(e))
            .collect();
        let all: u64 = per_request.iter().sum();
        Self {
            throughput: all,
            latency: if w.lifetime { per_request[0] } else { all },
            setup: warmup_indices(w).into_iter().map(|i| per_request[i]).sum(),
        }
    }
}

/// Calls `f` between two samples of the calibration kernels.
fn bracketed<T>(refs: &mut Refs, f: impl FnOnce() -> T) -> (T, RefSample) {
    let before = refs.sample();
    let out = f();
    (out, RefSample::around(before, refs.sample()))
}

/// Everything a window measured.
pub struct Window {
    /// Untraced throughput and latency blocks and the set-ups, in the
    /// order they ran, warm-up blocks included.
    pub thr: Vec<Sample>,
    pub lat: Vec<Sample>,
    pub setups: Vec<Sample>,
    /// The traced throughput blocks.
    pub traced_thr: Vec<Sample>,
    /// Throughput blocks run, traced or not.
    pub thr_blocks: u64,
    pub thr_ops: u64,
    pub lat_ops: u64,
    /// Every request the window sent, in blocks and in set-ups.
    pub checked: Checked,
    /// Throughput blocks whose in-service verification count was not
    /// exactly one (byte-moving backends only).
    pub misverified_blocks: u64,
    pub wall: Duration,
    pub cpu: Duration,
    pub minor_faults: u64,
    /// Service counters summed over throughput blocks.
    pub thr_batches: u64,
    pub thr_coalesced: u64,
    /// Plan-cache counters of the service the last throughput block ran on.
    pub cache: PlanCacheStats,
}

/// Drops the first tenth of a window's samples of one kind as warm-up.
pub fn steady(samples: &[Sample]) -> &[Sample] {
    &samples[samples.len() / 10..]
}

/// Fresh set-ups (timed, then dropped) per window, spread evenly over
/// its length: a burst of them at the start of a run would all see the
/// same few hundred milliseconds of host weather.
pub const SETUPS_PER_WINDOW: usize = 32;
/// A warm service's metrics are folded and reset this often, so its
/// latency vector stays small whatever the op rate.
const RESET_EVERY: usize = 16;

/// Runs `pairs` throughput blocks and `pairs` latency blocks,
/// interleaved one for one, and [`SETUPS_PER_WINDOW`] set-ups among
/// them, each between two samples of the calibration kernels.
pub fn window(
    w: &Workload,
    mut warm: Option<&mut Service>,
    expect: &[Expect],
    pairs: usize,
    refs: &mut Refs,
    tr: &mut Tracer,
) -> Window {
    let cfg = service_config(w);
    let moved = Moved::of(w, expect);
    let setups = SETUPS_PER_WINDOW.min(pairs);
    // Reserved up front, so recording never allocates while the window runs.
    let reserve = Vec::with_capacity;
    let mut win = Window {
        thr: reserve(pairs),
        lat: reserve(pairs),
        setups: reserve(setups),
        traced_thr: reserve(if tr.is_on() { pairs } else { 0 }),
        thr_blocks: 0,
        thr_ops: Inputs::ops(w, Kind::Throughput),
        lat_ops: Inputs::ops(w, Kind::Latency),
        checked: Checked::default(),
        misverified_blocks: 0,
        wall: Duration::ZERO,
        cpu: Duration::ZERO,
        minor_faults: 0,
        thr_batches: 0,
        thr_coalesced: 0,
        cache: PlanCacheStats::default(),
    };
    if let Some(svc) = warm.as_deref_mut() {
        svc.reset_metrics();
    }
    let host0 = crate::host::Usage::now();
    let t0 = Instant::now();
    let mut prev = ServiceStats::default();
    for pair in 0..pairs {
        // A tracer that is on traces every other pair, so traced and
        // untraced blocks see the same host conditions.
        let traced = tr.is_on() && pair % 2 == 1;
        tr.pause(!traced);
        for kind in [Kind::Throughput, Kind::Latency] {
            let inputs = Inputs::of(w, kind);
            let (ran, host) = bracketed(refs, || run_block(cfg, warm.as_deref_mut(), inputs, tr));
            let c = check(&ran, expect, w.backend, false);
            win.checked.attempted += c.attempted;
            win.checked.failed += c.failed;
            win.checked.verified += c.verified;
            let moved_bytes = if kind == Kind::Latency { moved.latency } else { moved.throughput };
            let (ns, allocs, alloc_bytes) = (ran.ns, ran.allocs, ran.alloc_bytes);
            let sample = Sample { ns, allocs, alloc_bytes, moved_bytes, host };
            match (kind, traced) {
                (Kind::Throughput, true) => win.traced_thr.push(sample),
                (Kind::Throughput, false) => win.thr.push(sample),
                (Kind::Latency, false) => win.lat.push(sample),
                (Kind::Latency, true) => {}
            }
            if kind == Kind::Throughput {
                win.thr_blocks += 1;
                win.misverified_blocks += u64::from(w.backend != Backend::Sim && c.verified != 1);
                win.thr_batches += ran.stats.batches - prev.batches;
                win.thr_coalesced += ran.stats.coalesced - prev.coalesced;
                win.cache = ran.cache;
            }
            // A warm service's counters are cumulative; a fresh one's start at zero.
            prev = if w.lifetime { ServiceStats::default() } else { ran.stats };
        }
        // Set-up k of n runs after pair ceil((k + 1) * pairs / n).
        if (pair + 1) * setups / pairs > pair * setups / pairs {
            let (up, host) = bracketed(refs, || set_up(w, cfg, tr));
            let (ns, moved_bytes) = (up.ns, moved.setup);
            win.setups.push(Sample { ns, allocs: 0, alloc_bytes: 0, moved_bytes, host });
            win.checked.attempted += w.tenants.len() as u64;
            win.checked.failed += up.failed;
        }
        if (pair + 1) % RESET_EVERY == 0 {
            if let Some(svc) = warm.as_deref_mut() {
                svc.reset_metrics();
                prev = ServiceStats::default();
            }
        }
    }
    tr.pause(false);
    win.wall = t0.elapsed();
    let host1 = crate::host::Usage::now();
    win.cpu = host1.cpu.saturating_sub(host0.cpu);
    win.minor_faults = host1.minor_faults.saturating_sub(host0.minor_faults);
    win
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::expectations;
    use crate::workloads::{build, OPS_PER_BLOCK, WORKLOADS};
    use nhood_service::Outcome;

    fn warm_block(name: &str, kind: Kind) -> (Workload, Vec<Expect>, Ran) {
        let w = build(name, 5).expect("workload");
        let expect = expectations(&w).expect("model pass");
        let cfg = service_config(&w);
        let SetUp { mut svc, failed, .. } = set_up(&w, cfg, &mut Tracer::off());
        assert_eq!(failed, 0);
        let warm = (!w.lifetime).then_some(&mut svc);
        let ran = run_block(cfg, warm, Inputs::of(&w, kind), &mut Tracer::off());
        (w, expect, ran)
    }

    #[test]
    fn every_block_is_sixteen_ops_with_exactly_one_verification() {
        for (name, _, _) in WORKLOADS {
            for kind in [Kind::Throughput, Kind::Latency] {
                let (w, expect, ran) = warm_block(name, kind);
                let c = check(&ran, &expect, w.backend, false);
                let ops =
                    if w.lifetime && kind == Kind::Latency { 1 } else { OPS_PER_BLOCK as u64 };
                assert_eq!(c.attempted, ops, "{name} {kind:?}");
                assert_eq!(c.failed, 0, "{name} {kind:?}");
                let verified = u64::from(w.backend != Backend::Sim);
                assert_eq!(
                    c.verified, verified,
                    "{name} {kind:?}: one sampled byte check per block"
                );
            }
        }
    }

    #[test]
    fn inputs_are_cloned_before_the_block_timer_starts() {
        let w = build("gather-large", 5).expect("workload");
        let cfg = service_config(&w);
        let mut svc = set_up(&w, cfg, &mut Tracer::off()).svc;
        let input_bytes = w.payload_bytes();
        // `Inputs::of` pays for a deep copy of every payload ...
        let (_, b0) = alloc::snapshot();
        let inputs = Inputs::of(&w, Kind::Throughput);
        let (_, b1) = alloc::snapshot();
        assert!(input_bytes > 1 << 20 && b1 - b0 >= input_bytes);
        // ... and `run_block` takes them by value: what it counts inside
        // its timer is a part of what the call allocates, not the copy.
        let ran = run_block(cfg, Some(&mut svc), inputs, &mut Tracer::off());
        let (_, b2) = alloc::snapshot();
        assert!(ran.alloc_bytes > 0 && ran.alloc_bytes <= b2 - b1);
    }

    #[test]
    fn a_flipped_byte_and_a_failed_completion_are_reported() {
        let w = build("combine-mixed", 9).expect("workload");
        let expect = expectations(&w).expect("model pass");
        let cfg = ServiceConfig { keep_outputs: true, ..service_config(&w) };
        let mut svc = set_up(&w, cfg, &mut Tracer::off()).svc;
        let mut ran =
            run_block(cfg, Some(&mut svc), Inputs::of(&w, Kind::Throughput), &mut Tracer::off());
        assert_eq!(check(&ran, &expect, w.backend, true).failed, 0);

        // One wrong output byte in one request ...
        let out = ran.done[3].output.as_mut().expect("outputs kept");
        let buf = out.iter_mut().find(|b| !b.is_empty()).expect("a non-empty receive buffer");
        buf[0] ^= 1;
        assert_eq!(check(&ran, &expect, w.backend, true).failed, 1);
        // ... and another request's completion turned into a failure.
        ran.done[5].outcome = Outcome::Failed { error: "injected".into() };
        assert_eq!(check(&ran, &expect, w.backend, true).failed, 2);
        // A lost completion and a rejected submission count as well.
        ran.done.pop();
        ran.ids[0] = None;
        assert!(check(&ran, &expect, w.backend, true).failed >= 3);
    }

    #[test]
    fn moved_bytes_are_constants_of_the_workload() {
        for (name, _, _) in WORKLOADS {
            let of = |seed| {
                let w = build(name, seed).expect("workload");
                let m = Moved::of(&w, &expectations(&w).expect("model pass"));
                (m.throughput, m.latency, m.setup, w.payload_bytes(), w.lifetime)
            };
            let (thr, lat, setup, payload, lifetime) = of(1);
            assert_eq!(of(2), (thr, lat, setup, payload, lifetime), "{name}: the seed moves none");
            assert!(setup > 0 && lat > 0 && setup <= thr, "{name}");
            // A cold start is one request; a warm latency block is all 16.
            assert_eq!(lat < thr, lifetime, "{name}");
            // Nothing is delivered where no bytes move.
            assert_eq!(thr == payload, name == "sim-sweep", "{name}");
        }
    }

    #[test]
    fn a_wrong_simulated_makespan_is_reported() {
        let (w, expect, mut ran) = warm_block("sim-sweep", Kind::Throughput);
        assert_eq!(check(&ran, &expect, w.backend, false).failed, 0);
        let mk = ran.done[0].sim_makespan.as_mut().expect("sim completion");
        *mk = f64::from_bits(mk.to_bits() + 1);
        assert_eq!(check(&ran, &expect, w.backend, false).failed, 1);
    }
}
