//! The per-layer replay of the `--trace 1` pass: the benchmark calls
//! each layer's public functions on the workload's own inputs, one span
//! per call, and reports the 5th percentile of the calls it made.
//!
//! Requests of the block script are the replay cases: every gather
//! request is replayed through the executor, the schedule lowering and
//! simnet, every combining request through `DistGraphComm::collective`.
//! A workload whose script lacks one family gets a single synthesized
//! case on tenant 0, so every layer metric exists on every workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nhood_core::exec::sim_exec::to_schedule_v;
use nhood_core::plan_io::{decode_plan, write_plan};
use nhood_core::{
    Algorithm, ArenaLayout, BlockArena, CollectiveOp, CollectivePlan, CollectiveRequest,
    DistGraphComm, ExecOptions, Executor, PlanCache, PlanFingerprint, Reduction, SimCost, Virtual,
};
use nhood_service::{Backend, Service, SubmitRequest};
use nhood_simnet::Engine;
use nhood_telemetry::CountingRecorder;
use nhood_topology::rng::DetRng;

use crate::harness::{service_config, set_up, SetUp};
use crate::model::{reference, tenant_comm};
use crate::stats::{low, mean};
use crate::trace::Tracer;
use crate::workloads::{TenantSpec, Workload};

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The shipped `Verify::Sample(16)`: one request in 16 is byte-checked.
const VERIFY_EVERY: f64 = 16.0;
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 4000;

/// Calls `f` for about `slice` (at least [`MIN_REPS`] times), one span
/// per call; the drop of `f`'s result is not timed. Returns the 5th
/// percentile of the calls' times in microseconds.
fn time_us<T>(
    tr: &mut Tracer,
    name: &'static str,
    slice: Duration,
    mut f: impl FnMut() -> T,
) -> f64 {
    time_us_with(tr, name, slice, || (), |()| f())
}

/// [`time_us`] for a call that consumes an input: `prep` makes it,
/// untimed, before every call.
fn time_us_with<I, T>(
    tr: &mut Tracer,
    name: &'static str,
    slice: Duration,
    mut prep: impl FnMut() -> I,
    mut f: impl FnMut(I) -> T,
) -> f64 {
    let mut ns = Vec::new();
    let t0 = Instant::now();
    while ns.len() < MIN_REPS || (t0.elapsed() < slice && ns.len() < MAX_REPS) {
        let input = prep();
        let span = tr.begin(name);
        let s = Instant::now();
        let out = black_box(f(black_box(input)));
        let d = s.elapsed();
        tr.end(span);
        drop(out);
        ns.push(d.as_nanos() as u64);
    }
    low(&ns) as f64 / 1e3
}

/// One gather request to replay: the serving plan and the payloads.
struct GatherCase<'a> {
    tenant: &'a TenantSpec,
    plan: Arc<CollectivePlan>,
    payloads: &'a [Vec<u8>],
    ragged: bool,
}

/// One combining request to replay.
struct CombineCase<'a> {
    comm: &'a DistGraphComm,
    algo: Algorithm,
    req: SubmitRequest,
}

type Edge = (usize, usize);

/// Alternately removes and re-adds `edge`: a stream of effective
/// single-edge churn events that never drifts from the original graph.
fn flip(i: &mut usize, edge: Edge) -> (Vec<Edge>, Vec<Edge>) {
    *i += 1;
    if *i % 2 == 1 {
        (vec![], vec![edge])
    } else {
        (vec![edge], vec![])
    }
}

/// What [`replay`] measured.
pub struct Replayed {
    pub metrics: Metrics,
    /// Per op, the replayed time of the layers a `Service::drain` of this
    /// workload calls: the plan fetch of each batch, the executor (or
    /// schedule lowering + simnet, or the combining engine), the one
    /// sampled byte check per 16 requests and, where every block starts
    /// from a fresh service, the arena layouts it builds.
    /// `service.residual_us` is `service.drain_us` minus this.
    pub below_drain_us: f64,
}

/// Replays every layer within about `budget`. `batches_per_op` is what
/// the traced window saw; `dir` receives the disk tier of the
/// plan-cache replay and is removed afterwards.
pub fn replay(
    w: &Workload,
    batches_per_op: f64,
    seed: u64,
    budget: Duration,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<Replayed, String> {
    let slice = budget / 26;
    let cost = SimCost::niagara();
    let mut m = Metrics::new();
    let root = tr.begin("replay");

    let cache = Arc::new(PlanCache::new(64));
    let comms = w
        .tenants
        .iter()
        .map(|t| tenant_comm(t, Some(&cache)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|x| x.to_string())?;
    let plans = w
        .tenants
        .iter()
        .zip(&comms)
        .map(|(t, c)| c.plan_shared(t.algo))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|x| x.to_string())?;
    let t0 = &w.tenants[0];
    let n = t0.graph.n();

    // ---- cases -------------------------------------------------------
    let mut gathers: Vec<GatherCase> = w
        .requests()
        .filter(|(_, r)| r.op.is_gather())
        .map(|(t, r)| GatherCase {
            tenant: &w.tenants[t],
            plan: Arc::clone(&plans[t]),
            payloads: &r.payloads,
            ragged: r.op == CollectiveOp::Allgatherv,
        })
        .collect();
    let first = w.requests().next().ok_or("empty script")?.1;
    if gathers.is_empty() {
        // Any request's payloads are valid allgatherv input.
        let (tenant, plan) = (t0, Arc::clone(&plans[0]));
        gathers.push(GatherCase { tenant, plan, payloads: &first.payloads, ragged: true });
    }
    let mut combines: Vec<CombineCase> = w
        .requests()
        .filter(|(_, r)| !r.op.is_gather())
        .map(|(t, r)| CombineCase { comm: &comms[t], algo: w.tenants[t].algo, req: r.clone() })
        .collect();
    if combines.is_empty() {
        // One of each kind on tenant 0 at the block size of the script's
        // first request (whole u32 lanes, at most 4 KiB).
        let rng = &mut DetRng::seed_from_u64(seed ^ 0x6c61_7965_7273);
        let mid = first.payloads[n / 2].len();
        let bs = (mid.clamp(4, 4 << 10) / 4) * 4;
        let mut bytes = |len: usize| (0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>();
        let per_nb: Vec<Vec<u8>> = (0..n).map(|p| bytes(t0.graph.outdegree(p) * bs)).collect();
        let flat: Vec<Vec<u8>> = (0..n).map(|_| bytes(bs)).collect();
        let algo = Algorithm::DistanceHalving;
        for req in [
            SubmitRequest::alltoallv(per_nb.clone()),
            SubmitRequest::reduce_scatter(per_nb, Reduction::SUM_U8),
            SubmitRequest::allreduce(flat, Reduction::SUM_U8),
        ] {
            combines.push(CombineCase { comm: &comms[0], algo, req });
        }
    }

    // ---- exec / telemetry / arena ------------------------------------
    let each = slice / gathers.len() as u32;
    let (mut null_us, mut counting_us) = (0.0, 0.0);
    let (mut msgs, mut sent, mut copied, mut moved, mut reallocs) = (0u64, 0u64, 0.0, 0u64, 0.0);
    for g in &gathers {
        let graph = &g.tenant.graph;
        let mut arena = BlockArena::new();
        let opts = ExecOptions::new().ragged(g.ragged);
        let run = |arena: &mut BlockArena, opts: &ExecOptions| {
            Virtual.run(&g.plan, graph, g.payloads, arena, opts).expect("replayed plan executes")
        };
        let out = run(&mut arena, &opts);
        let delivered: usize = out.rbufs.iter().map(Vec::len).sum();
        let filled: usize = g.payloads.iter().map(Vec::len).sum();
        let rec = CountingRecorder::new(graph.n());
        let counted = opts.recorder(&rec);
        run(&mut arena, &counted);
        let c = rec.totals();
        msgs += c.msgs_sent;
        sent += c.bytes_sent;
        copied += c.copies as f64 * filled as f64 / graph.n() as f64;
        moved += c.bytes_sent + (delivered + filled) as u64;

        // Without and with the recorder in alternation (A B A B), so the
        // two see the same host conditions.
        let before = arena.reallocations();
        let mut runs = 0u64;
        let (mut plain, mut counting) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..2 {
            let mut timed = |name, opts: &ExecOptions| {
                time_us(tr, name, each / 2, || {
                    runs += 1;
                    run(&mut arena, opts)
                })
            };
            plain = plain.min(timed("exec.virtual", &opts));
            counting = counting.min(timed("exec.virtual+counting", &counted));
        }
        null_us += plain;
        counting_us += counting;
        reallocs += (arena.reallocations() - before) as f64 / runs as f64;
    }
    let cases = gathers.len() as f64;
    m.insert("exec.virtual_us", null_us / cases);
    m.insert("exec.msgs", msgs as f64 / cases);
    m.insert("exec.bytes_sent", sent as f64 / cases);
    m.insert("exec.bytes_copied", copied / cases);
    m.insert("exec.copy_gb_s", moved as f64 / (null_us * 1e3));
    m.insert("telemetry.counting_overhead_frac", counting_us / null_us - 1.0);
    m.insert("arena.reallocs", reallocs / cases);

    let g0 = &gathers[0];
    let (graph0, plan0) = (&g0.tenant.graph, &g0.plan);
    let layout = ArenaLayout::for_plan(plan0, graph0).map_err(|x| x.to_string())?;
    m.insert("arena.contig_send_frac", layout.contiguous_send_fraction());
    m.insert(
        "arena.layout_us",
        time_us(tr, "arena.layout", slice, || ArenaLayout::for_plan(plan0, graph0)),
    );
    let mut arena = BlockArena::new();
    arena.prepare(plan0, graph0).map_err(|x| x.to_string())?;
    m.insert(
        "arena.prepare_us",
        time_us(tr, "arena.prepare", slice, || arena.prepare(plan0, graph0)),
    );

    // ---- exec.sim / simnet -------------------------------------------
    let (mut sched_us, mut run_us, mut sim_msgs) = (0.0, 0.0, 0usize);
    for g in &gathers {
        let lens: Vec<usize> = g.payloads.iter().map(Vec::len).collect();
        sched_us += time_us(tr, "exec.sim_schedule", each, || to_schedule_v(&g.plan, &lens, &cost));
        let schedule = to_schedule_v(&g.plan, &lens, &cost);
        sim_msgs += schedule.message_count();
        let engine = Engine::new(&g.tenant.layout, cost.net);
        run_us += time_us(tr, "simnet.run", each, || engine.run(&schedule));
    }
    m.insert("exec.sim_schedule_us", sched_us / cases);
    m.insert("simnet.run_us", run_us / cases);
    m.insert("simnet.msgs", sim_msgs as f64 / cases);
    m.insert("simnet.ns_per_msg", run_us * 1e3 / sim_msgs as f64);

    // ---- collective ---------------------------------------------------
    let each = slice * 2 / combines.len() as u32;
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut coll_sent = 0u64;
    for c in &combines {
        let rec = CountingRecorder::new(n);
        let creq = CollectiveRequest::new(c.req.op, &c.req.payloads).algorithm(c.algo);
        c.comm.collective(&creq.recorder(&rec)).map_err(|x| x.to_string())?;
        coll_sent += rec.totals().bytes_sent;
        let creq = CollectiveRequest::new(c.req.op, &c.req.payloads).algorithm(c.algo);
        let us = time_us(tr, "collective", each, || c.comm.collective(&creq));
        by_kind.entry(c.req.op.name()).or_default().push(us);
    }
    for (metric, kind) in [
        ("collective.alltoallv_us", "alltoallv"),
        ("collective.reduce_scatter_us", "reduce_scatter"),
        ("collective.allreduce_us", "allreduce"),
    ] {
        m.insert(metric, mean(by_kind.get(kind).into_iter().flatten().copied()));
    }
    m.insert("collective.bytes_sent", coll_sent as f64 / combines.len() as f64);
    let c0 = &combines[0];
    m.insert(
        "collective.plan_us",
        time_us(tr, "collective.plan", slice, || c0.comm.alltoall_plan(c0.algo)),
    );
    // Mean over the block's combining requests: what a drain spends in
    // the combining engine per op (used by the residual).
    let combining_us = mean(by_kind.values().flatten().copied());

    // ---- verify -------------------------------------------------------
    let ops = w.requests().count();
    let each = slice / ops as u32;
    let mut verify_us = 0.0;
    // Requests after a churn event see a mutated graph; the replay uses
    // the registered one, whose reference differs by a single edge.
    for (t, req) in w.requests() {
        let graph = &w.tenants[t].graph;
        let want = reference(graph, req).map_err(|x| x.to_string())?;
        verify_us += time_us(tr, "verify.reference", each, || {
            reference(graph, req).is_ok_and(|got| got == want)
        });
    }
    m.insert("verify.reference_us", verify_us / ops as f64);

    // ---- plan_build / autotune ---------------------------------------
    let bare = DistGraphComm::create_adjacent(t0.graph.clone(), t0.layout.clone())
        .map_err(|x| x.to_string())?;
    let cn =
        w.tenants.iter().map(|t| t.algo).find(|a| matches!(a, Algorithm::CommonNeighbor { .. }));
    for (metric, algo) in [
        ("plan_build.dh_us", Algorithm::DistanceHalving),
        ("plan_build.cn_us", cn.unwrap_or(Algorithm::CommonNeighbor { k: 4 })),
        ("plan_build.pat_us", Algorithm::Pat { radix: 2 }),
        ("plan_build.naive_us", Algorithm::Naive),
    ] {
        bare.plan(algo).map_err(|x| x.to_string())?;
        m.insert(metric, time_us(tr, "plan_build", slice, || bare.plan(algo)));
    }
    m.insert("plan_build.msgs", mean(plans.iter().map(|p| p.message_count() as f64)));
    m.insert("plan_build.phases", mean(plans.iter().map(|p| p.phase_count() as f64)));

    m.insert("autotune.sims", bare.tune().map_err(|x| x.to_string())?.simulations as f64);
    m.insert("autotune.first_seen_us", time_us(tr, "autotune.tune", slice, || bare.tune()));
    bare.resolve_algorithm(Algorithm::Auto).map_err(|x| x.to_string())?;
    m.insert(
        "autotune.memo_hit_us",
        time_us(tr, "autotune.memo_hit", slice, || bare.resolve_algorithm(Algorithm::Auto)),
    );

    // ---- comm ---------------------------------------------------------
    let each = slice / comms.len() as u32;
    let hit = w
        .tenants
        .iter()
        .zip(&comms)
        .map(|(t, c)| time_us(tr, "comm.plan_hit", each, || c.plan_shared(t.algo)));
    m.insert("comm.plan_hit_us", mean(hit));

    let edge = t0.graph.edges().next().ok_or("tenant 0 has no edges")?;
    let mut churned = tenant_comm(
        &TenantSpec { algo: Algorithm::DistanceHalving, ..t0.clone() },
        Some(&Arc::new(PlanCache::new(64))),
    )
    .map_err(|x| x.to_string())?;
    let (mut i, mut calls, mut rebuilds) = (0, 0u64, 0u64);
    let mutate_us = time_us_with(
        tr,
        "comm.mutate",
        slice,
        || flip(&mut i, edge),
        |(add, rm)| {
            let rep = churned.mutate(&add, &rm);
            calls += 1;
            rebuilds += u64::from(rep.as_ref().is_ok_and(|r| r.full_rebuild));
            rep
        },
    );
    m.insert("comm.mutate_us", mutate_us);
    m.insert("comm.full_rebuild_frac", rebuilds as f64 / calls as f64);

    // ---- service registration and churn -------------------------------
    let SetUp { mut svc, failed, .. } = set_up(w, service_config(w), &mut Tracer::off());
    if failed > 0 {
        return Err(format!("replay set-up: {failed} failed operations"));
    }
    let mut i = 0;
    let churn = |svc: &mut Service, (add, rm): (Vec<_>, Vec<_>)| svc.churn(0, &add, &rm);
    m.insert(
        "service.churn_us",
        time_us_with(tr, "service.churn", slice, || flip(&mut i, edge), |ev| churn(&mut svc, ev)),
    );

    // ---- plan_cache / plan_io -----------------------------------------
    let fp = PlanFingerprint::of_build(graph0, &g0.tenant.layout, plan0.algorithm);
    let mem = PlanCache::new(64);
    mem.insert_validated(fp, Arc::clone(plan0), graph0);
    m.insert(
        "plan_cache.mem_hit_us",
        time_us(tr, "plan_cache.mem_hit", slice, || mem.lookup(fp, graph0)),
    );
    m.insert(
        "plan_cache.insert_us",
        time_us_with(tr, "plan_cache.insert", slice, || Arc::clone(plan0), |p| mem.insert(fp, p)),
    );
    let tiered = |cap| PlanCache::new(cap).with_disk_dir(dir).map_err(|x| x.to_string());
    tiered(64)?.insert_validated(fp, Arc::clone(plan0), graph0);
    let cold = tiered(1)?;
    if cold.lookup_mapped(fp, graph0).is_none() || cold.lookup(fp, graph0).is_none() {
        return Err("plan-cache disk tier did not serve the plan it was given".into());
    }
    m.insert(
        "plan_cache.disk_hit_us",
        // A fresh cache per call: a hit promotes the plan to memory.
        time_us_with(
            tr,
            "plan_cache.disk_hit",
            slice,
            || tiered(1),
            |c| c.map(|c| c.lookup(fp, graph0)),
        ),
    );
    m.insert(
        "plan_cache.mmap_hit_us",
        // Time to first rank ready: map, checksum, decode rank 0.
        time_us(tr, "plan_cache.mmap_hit", slice, || {
            cold.lookup_mapped(fp, graph0).map(|mapped| mapped.rank(0))
        }),
    );
    std::fs::remove_dir_all(dir).map_err(|x| x.to_string())?;

    let mut buf = Vec::new();
    write_plan(plan0, &mut buf).map_err(|x| x.to_string())?;
    m.insert("plan_io.plan_kb", buf.len() as f64 / 1024.0);
    let mut scratch = Vec::with_capacity(buf.len());
    m.insert(
        "plan_io.encode_us",
        time_us(tr, "plan_io.encode", slice, || {
            scratch.clear();
            write_plan(plan0, &mut scratch)
        }),
    );
    m.insert("plan_io.decode_us", time_us(tr, "plan_io.decode", slice, || decode_plan(&buf)));

    tr.end(root);

    let gather_share = w.requests().filter(|(_, r)| r.op.is_gather()).count() as f64 / ops as f64;
    let moved = if w.backend == Backend::Sim {
        m["exec.sim_schedule_us"] + m["simnet.run_us"]
    } else {
        m["exec.virtual_us"] + m["verify.reference_us"] / VERIFY_EVERY
    };
    // A fresh service lays every tenant's arena out on first use, and
    // the churned tenant's again after each event.
    let layouts_per_block = if w.lifetime { w.script.len() - ops + w.tenants.len() } else { 0 };
    let below_drain_us = gather_share * (m["comm.plan_hit_us"] * batches_per_op + moved)
        + (1.0 - gather_share) * (combining_us + m["verify.reference_us"] / VERIFY_EVERY)
        + m["arena.layout_us"] * layouts_per_block as f64 / ops as f64;
    Ok(Replayed { metrics: m, below_drain_us })
}
