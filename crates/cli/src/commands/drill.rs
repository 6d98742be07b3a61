//! The robustness drills and the service: `chaos` sweeps seeded fault
//! schedules, `churn` drills topology mutation and link-down repair,
//! `serve` hosts tenants on the multi-tenant collective service.

use super::run::{parse_op, shaped_payloads, whole_lanes};
use super::{fail, load_topology, parse_algo, parse_backend, parse_layout, topology_and_layout};
use crate::args::{parse_bytes, ArgError, Args};
use nhood_core::collective::matches_reference;
use nhood_core::exec::virtual_exec::{reference_allgather, test_payloads};
use nhood_core::{Algorithm, CollectiveRequest, DistGraphComm, ExecBackend};
use std::io::Write;

/// `nhood chaos <edge-list> [--op ..] [--algo ..] [--drops 0.01,0.05,0.1]
/// [--runs R] [--seed S] [--size BYTES] [--timeout MS] [layout flags]`
/// — sweep message-drop rates over seeded fault schedules on the
/// threaded executor, for any op (`--op` as in `run`, exact lanes only),
/// each run a fresh communicator's first request, and report, per rate,
/// how many runs completed cleanly, degraded to the naive fallback, or
/// returned a typed error. Any run returning buffers that differ from
/// the MPI-semantics reference is **corruption** and fails the command
/// (nonzero exit).
pub fn cmd_chaos(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    use nhood_core::fault::FaultPlan;
    use nhood_core::RobustPolicy;
    use std::time::Duration;

    let (graph, layout) = topology_and_layout(args, "chaos")?;
    let algo = parse_algo(args)?;
    let op = parse_op(args)?;
    if op.reduction().is_some_and(|red| red.dtype == nhood_core::DType::F32) {
        return Err(fail(
            "chaos byte-checks every run against the reference: use an exact --dtype",
        ));
    }
    let drops: Vec<f64> = args
        .get("drops")
        .unwrap_or("0.01,0.05,0.1")
        .split(',')
        .map(|s| s.trim().parse::<f64>().map_err(|e| fail(format!("bad drop rate '{s}': {e}"))))
        .collect::<Result<_, _>>()?;
    if let Some(bad) = drops.iter().find(|p| !(0.0..=1.0).contains(*p)) {
        return Err(fail(format!("drop rate {bad} outside [0, 1]")));
    }
    let runs = args.get_parsed("runs", 5usize)?;
    let seed = args.get_parsed("seed", 42u64)?;
    let m = parse_bytes(args.get("size").unwrap_or("32"))?;
    let timeout = Duration::from_millis(args.get_parsed("timeout", 5000u64)?);
    let min_complete = args.get_parsed("min-complete", 0.0f64)?;
    if !(0.0..=1.0).contains(&min_complete) {
        return Err(fail(format!("--min-complete {min_complete} outside [0, 1]")));
    }

    let policy = RobustPolicy { recv_timeout: timeout, negotiation_timeout: timeout };
    let open = || DistGraphComm::create_adjacent(graph.clone(), layout.clone());
    let shape = open()?.plan(algo)?;
    let payloads = shaped_payloads(&graph, op, whole_lanes(op, m), seed);
    writeln!(
        w,
        "chaos: {op} via {algo}, {} ranks, {} phases, peak fan-out {}/phase, {runs} runs per rate",
        shape.n(),
        shape.phase_count(),
        shape.max_sends_in_phase()
    )?;
    writeln!(
        w,
        "{:>8} {:>6} {:>9} {:>7} {:>8} {:>9} {:>8}",
        "drop", "ok", "fallback", "error", "corrupt", "injected", "retries"
    )?;
    let mut corrupt_total = 0usize;
    let mut completed_total = 0usize;
    for &p in &drops {
        let (mut ok, mut fell, mut err, mut corrupt) = (0usize, 0usize, 0usize, 0usize);
        let (mut injected, mut retries) = (0u64, 0u64);
        for run in 0..runs {
            let fp = FaultPlan::seeded(nhood_topology::rng::hash_mix(&[seed, run as u64]))
                .with_message_drop(p)
                .with_message_delay(p / 2.0, Duration::from_micros(200))
                .with_message_reorder(p / 2.0);
            let c = open()?.with_policy(policy).with_fault_plan(fp);
            let req = CollectiveRequest::new(op, &payloads)
                .algorithm(algo)
                .robust(true)
                .backend(ExecBackend::Threaded);
            match c.collective(&req) {
                Ok(out) => {
                    let report = out.report.expect("robust runs carry an execution report");
                    injected += report.faults.total_injected();
                    retries += report.faults.retries;
                    if !matches_reference(&graph, op, &payloads, None, &out.rbufs)? {
                        corrupt += 1;
                    } else if report.clean() {
                        ok += 1;
                    } else {
                        fell += 1;
                    }
                }
                Err(_) => err += 1,
            }
        }
        corrupt_total += corrupt;
        completed_total += ok + fell;
        writeln!(
            w,
            "{:>8.3} {:>6} {:>9} {:>7} {:>8} {:>9} {:>8}",
            p, ok, fell, err, corrupt, injected, retries
        )?;
    }
    if corrupt_total > 0 {
        return Err(fail(format!(
            "{corrupt_total} run(s) returned corrupted buffers — silent-corruption guarantee violated"
        )));
    }
    writeln!(w, "no silent corruption: every run was exact or failed typed")?;
    // CI gate: a typed error is honest but still a failure to deliver —
    // --min-complete bounds how many runs may end that way.
    let total_runs = drops.len() * runs;
    let frac = if total_runs == 0 { 1.0 } else { completed_total as f64 / total_runs as f64 };
    if frac < min_complete {
        return Err(fail(format!(
            "completion {frac:.3} ({completed_total}/{total_runs}) below --min-complete {min_complete}"
        )));
    }
    if min_complete > 0.0 {
        writeln!(w, "completion {frac:.3} >= {min_complete} (--min-complete gate)")?;
    }
    Ok(())
}

/// `nhood churn <edge-list> [--events N] [--seed S] [--size BYTES]
/// [--timeout MS] [layout flags]` — a topology-churn drill: cold-build
/// the live plan, apply `N` seeded one-add-one-remove mutations
/// through [`DistGraphComm::mutate`], verify every repaired plan
/// against the reference, then kill a relay link mid-collective and
/// demonstrate recovery by repair rather than naive fallback.
pub fn cmd_churn(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    use nhood_core::fault::FaultPlan;
    use nhood_core::RobustPolicy;
    use nhood_topology::rng::hash_mix;
    use std::time::{Duration, Instant};

    let (graph, layout) = topology_and_layout(args, "churn")?;
    let events = args.get_parsed("events", 5usize)?;
    let seed = args.get_parsed("seed", 42u64)?;
    let m = parse_bytes(args.get("size").unwrap_or("32"))?;
    let timeout = Duration::from_millis(args.get_parsed("timeout", 5000u64)?);

    let mut comm = DistGraphComm::create_adjacent(graph.clone(), layout)?
        .with_policy(RobustPolicy { recv_timeout: timeout, negotiation_timeout: timeout });

    // The cold build every later mutation is measured against.
    let (dh, t0) = (Algorithm::DistanceHalving, Instant::now());
    comm.plan_shared(dh)?;
    let cold = t0.elapsed();
    writeln!(
        w,
        "churn: {} ranks, cold build {:.1} ms, {events} churn events",
        comm.n(),
        cold.as_secs_f64() * 1e3
    )?;
    writeln!(
        w,
        "{:>6} {:>6} {:>9} {:>8} {:>8} {:>10} {:>8}",
        "event", "±edges", "path", "changed", "damage", "repair_us", "speedup"
    )?;

    let mut corrupt = 0usize;
    let mut x = hash_mix(&[seed, 0x0c_48_52_4e]);
    for e in 0..events {
        // One seeded removal of an existing edge, one seeded addition of
        // a non-edge — the single-link churn the repair engine targets.
        let edges: Vec<(usize, usize)> = comm.graph().edges().collect();
        let removed = vec![edges[x as usize % edges.len()]];
        let added = loop {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (x >> 16) as usize % comm.n();
            let v = (x >> 40) as usize % comm.n();
            if u != v && !comm.graph().has_edge(u, v) {
                break vec![(u, v)];
            }
        };
        let t0 = Instant::now();
        let rep = comm.mutate(&added, &removed)?;
        let dt = t0.elapsed();
        let payloads = test_payloads(comm.n(), m, seed ^ e as u64);
        let got = comm.collective(&CollectiveRequest::allgather(&payloads).algorithm(dh))?.rbufs;
        if got != reference_allgather(comm.graph(), &payloads) {
            corrupt += 1;
        }
        writeln!(
            w,
            "{:>6} {:>6} {:>9} {:>8} {:>8.3} {:>10.0} {:>7.1}x",
            e,
            format!("+{}-{}", rep.edges_added, rep.edges_removed),
            if rep.full_rebuild { "rebuild" } else { "surgical" },
            rep.changed_ranks,
            rep.damage_frac,
            dt.as_secs_f64() * 1e6,
            cold.as_secs_f64() / dt.as_secs_f64().max(1e-9)
        )?;
    }
    if corrupt > 0 {
        return Err(fail(format!(
            "{corrupt} mutated plan(s) diverged from the reference — repair correctness violated"
        )));
    }

    // Link-down drill: kill a relay link (a plan send that is not a
    // graph edge) mid-collective and require recovery by repair.
    let plan = comm.plan_shared(dh)?;
    let g = comm.graph();
    let link = (0..plan.n()).find_map(|r| {
        plan.phases(r).enumerate().find_map(|(k, phase)| {
            let mut peers = phase.sends().map(|m| m.peer());
            peers.find(|&p| !g.has_edge(r, p) && !g.has_edge(p, r)).map(|p| (r, p, k))
        })
    });
    match link {
        Some((src, dst, phase)) => {
            let payloads = test_payloads(comm.n(), m, seed);
            let want = reference_allgather(comm.graph(), &payloads);
            let drilled = comm
                .clone()
                .with_fault_plan(FaultPlan::seeded(seed).with_link_down(src, dst, phase));
            let req = CollectiveRequest::allgather(&payloads)
                .algorithm(dh)
                .robust(true)
                .backend(ExecBackend::Threaded);
            let out = drilled.collective(&req)?;
            let report = out.report.expect("robust runs carry an execution report");
            if out.rbufs != want {
                return Err(fail("link-down drill returned corrupted buffers"));
            }
            writeln!(w, "link-down drill: killed {src}->{dst} at phase {phase}: {report}")?;
            if report.fallback.is_some() {
                return Err(fail("link-down drill fell back instead of repairing"));
            }
            writeln!(w, "recovered by repair ({} repair(s)), output exact", report.repairs)?;
        }
        None => {
            writeln!(w, "link-down drill: plan uses no relay links, nothing to kill")?;
        }
    }
    Ok(())
}

/// `nhood serve [<edge-list>] [--tenants T] [--n N --delta D] [--algo ..]
/// [--duration-ms MS] [--interarrival-us US] [--zipf S]
/// [--size-min B --size-max B] [--faulty F] [--fault-drop P]
/// [--churn-ms MS] [--queue CAP] [--quota Q] [--batch B] [--no-batch]
/// [--backend virtual|threaded|sim] [--seed S] [--drill] [layout flags]`
/// — host `T` tenants on one multi-tenant collective service and drive
/// it with a seeded open-loop workload (Poisson arrivals, Zipf sizes,
/// optional periodic churn). With an edge-list every tenant shares that
/// topology; otherwise each tenant gets its own seeded Erdős–Rényi
/// graph. The last `--faulty` tenants are fault-armed (message drops at
/// `--fault-drop`) and execute on the robust path.
///
/// `--drill` pins a small deterministic mixed workload (all four
/// collective families — allgather(v), alltoallv, reduce_scatter,
/// allreduce — on clean + faulty tenants, churn every 25 ms, every
/// completion byte-verified against its op's reference) and **fails
/// with a nonzero exit** unless ≥ 99 % of admitted requests complete
/// with zero corrupt buffers — the CI acceptance condition.
pub fn cmd_serve(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    use nhood_core::fault::FaultPlan;
    use nhood_service::traffic::{run_open_loop, OpMix, TrafficSpec};
    use nhood_service::{AdmissionConfig, Service, ServiceConfig, Verify};
    use nhood_topology::random::erdos_renyi;
    use nhood_topology::rng::hash_mix;
    use std::time::Duration;

    let drill = args.has("drill");
    let tenants = args.get_parsed("tenants", if drill { 3 } else { 4usize })?;
    if tenants == 0 {
        return Err(fail("serve: --tenants must be at least 1"));
    }
    let seed = args.get_parsed("seed", 42u64)?;
    let algo = parse_algo(args)?;
    let duration_ms = args.get_parsed("duration-ms", if drill { 80 } else { 200u64 })?;
    let inter_us = args.get_parsed("interarrival-us", if drill { 400 } else { 200u64 })?;
    let zipf_s = args.get_parsed("zipf", 1.1f64)?;
    let faulty = args.get_parsed("faulty", if drill { 1 } else { 0usize })?;
    let fault_drop = args.get_parsed("fault-drop", 0.05f64)?;
    let churn_ms = args.get_parsed("churn-ms", if drill { 25 } else { 0u64 })?;
    let queue = args.get_parsed("queue", 256usize)?;
    let quota = args.get_parsed("quota", 64usize)?;
    let batch = args.get_parsed("batch", 64usize)?;
    let size_min = parse_bytes(args.get("size-min").unwrap_or("16"))?;
    let size_max = parse_bytes(args.get("size-max").unwrap_or("2K"))?;
    if faulty > tenants {
        return Err(fail(format!("--faulty {faulty} exceeds --tenants {tenants}")));
    }
    let backend = parse_backend(args, ExecBackend::Virtual)?;

    let cfg = ServiceConfig {
        admission: AdmissionConfig {
            queue_capacity: queue,
            per_tenant_quota: quota,
            max_batch: batch,
        },
        backend,
        batching: !args.has("no-batch"),
        verify: if drill { Verify::All } else { Verify::Sample(8) },
        ..ServiceConfig::default()
    };
    let mut svc = Service::new(cfg);

    // Tenant topologies: a shared edge-list, or per-tenant seeded ER
    // graphs (which also demonstrates cross-tenant cache sharing when
    // seeds collide).
    let shared = match args.pos(1) {
        Some(path) => Some(load_topology(path)?),
        None => None,
    };
    for t in 0..tenants {
        let graph = match &shared {
            Some(g) => g.clone(),
            None => {
                let n = args.get_parsed("n", 16usize)?;
                let delta = args.get_parsed("delta", 0.3f64)?;
                erdos_renyi(n, delta, hash_mix(&[seed, t as u64]))
            }
        };
        let layout = parse_layout(args, graph.n())?;
        let comm = DistGraphComm::create_adjacent(graph, layout)?;
        let comm = if t >= tenants - faulty {
            comm.with_fault_plan(
                FaultPlan::seeded(hash_mix(&[seed, 0xfa, t as u64]))
                    .with_message_drop(fault_drop.clamp(0.0, 1.0)),
            )
        } else {
            comm
        };
        svc.add_tenant_comm(comm, algo)?;
    }

    let spec = TrafficSpec {
        seed,
        horizon: Duration::from_millis(duration_ms),
        mean_interarrival: Duration::from_micros(inter_us.max(1)),
        zipf_s,
        size_min,
        size_max,
        // The drill exercises every collective family; plain serve runs
        // the gather-only workload unless --mixed asks for the full mix.
        op_mix: if drill || args.has("mixed") { OpMix::uniform() } else { OpMix::default() },
        churn_period: (churn_ms > 0).then(|| Duration::from_millis(churn_ms)),
        ..TrafficSpec::default()
    };
    writeln!(
        w,
        "serve: {tenants} tenant(s) ({faulty} fault-armed), {algo}, backend {backend}, \
         horizon {duration_ms} ms @ ~{inter_us} µs interarrival, batching {}",
        if args.has("no-batch") { "off" } else { "on" },
    )?;
    let report = run_open_loop(&mut svc, &spec);
    writeln!(w, "{report}")?;

    if drill {
        if report.stats.admitted == 0 {
            return Err(fail("drill admitted no requests — workload misconfigured"));
        }
        if report.stats.corrupt > 0 {
            return Err(fail(format!(
                "drill: {} corrupt completion(s) — byte-correctness violated",
                report.stats.corrupt
            )));
        }
        let rate = report.completion_rate();
        if rate < 0.99 {
            return Err(fail(format!(
                "drill: completion {:.4} below the 0.99 acceptance bar ({} of {} admitted)",
                rate, report.stats.completed, report.stats.admitted
            )));
        }
        writeln!(
            w,
            "drill: completion {:.2}% >= 99%, corrupt 0, rejected {} (typed backpressure) — ok",
            rate * 100.0,
            report.stats.rejected
        )?;
    }
    Ok(())
}
