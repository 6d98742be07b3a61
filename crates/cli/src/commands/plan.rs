//! The planning family: generate a topology, build and inspect a plan,
//! price it on the simulator, and check it against the reference.

use super::{
    edge_list_and_layout, fail, parse_algo, parse_block_sizes, parse_cost, parse_layout,
    parse_load_metric, topology_arg,
};
use crate::args::{parse_bytes, ArgError, Args};
use nhood_core::exec::sim_exec::simulate;
use nhood_core::exec::virtual_exec::{reference_allgather, test_payloads};
use nhood_core::exec::{Executor, Virtual};
use nhood_core::{Algorithm, BlockSizes, CollectiveRequest, DistGraphComm, LoadMetric};
use nhood_topology::io::write_edge_list;
use std::io::Write;

/// `nhood gen <er|moore|vonneumann> [flags] <out-file>`
pub fn cmd_gen(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    let kind =
        args.pos(1).ok_or_else(|| fail("gen: which generator? (er | moore | vonneumann)"))?;
    let out_path = args.pos(2).ok_or_else(|| fail("gen: missing output file"))?;
    let graph = match kind {
        "er" => {
            let n = args.require::<usize>("n")?;
            let delta = args.require::<f64>("delta")?;
            if !(0.0..=1.0).contains(&delta) {
                return Err(fail("--delta must be in [0, 1]"));
            }
            let seed = args.get_parsed("seed", 42u64)?;
            nhood_topology::random::erdos_renyi(n, delta, seed)
        }
        "moore" => {
            let n = args.require::<usize>("n")?;
            let r = args.get_parsed("r", 1usize)?;
            let d = args.get_parsed("d", 2usize)?;
            let spec = nhood_topology::MooreSpec { r, d };
            nhood_topology::moore::try_moore(n, spec).map_err(|e| fail(e.to_string()))?
        }
        "vonneumann" => {
            let n = args.require::<usize>("n")?;
            let r = args.get_parsed("r", 1usize)?;
            let d = args.get_parsed("d", 2usize)?;
            let spec = nhood_topology::MooreSpec { r, d };
            let dims = nhood_topology::moore::grid_dims(n, spec)
                .ok_or_else(|| fail(format!("n={n} has no {d}-D grid with sides > {}", 2 * r)))?;
            nhood_topology::stencil::von_neumann_on_grid(&dims, r)
        }
        other => return Err(fail(format!("unknown generator '{other}'"))),
    };
    let f = std::fs::File::create(out_path)?;
    write_edge_list(&graph, std::io::BufWriter::new(f))?;
    writeln!(
        w,
        "wrote {}: {} ranks, {} edges (density {:.4})",
        out_path,
        graph.n(),
        graph.edge_count(),
        graph.density()
    )?;
    Ok(())
}

/// `nhood plan <edge-list> [--algo ..] [--save plan.bin] [layout flags]`
pub fn cmd_plan(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    let (graph, layout) = edge_list_and_layout(args, "plan")?;
    let algo = parse_algo(args)?;
    let metric = parse_load_metric(args)?;
    let sizes = parse_block_sizes(args, graph.n())?;
    let mut comm = DistGraphComm::create_adjacent(graph, layout)?.with_load_metric(metric);
    if let Some(sizes) = sizes {
        comm = comm.with_block_sizes(sizes);
    }
    if let Some(bt) = args.get("build-threads") {
        let threads: usize =
            bt.parse().map_err(|_| fail(format!("plan: bad --build-threads '{bt}'")))?;
        comm = comm.with_build_threads(threads);
    }
    let plan = if let Some(dir) = args.get("cache-dir") {
        let cache = std::sync::Arc::new(
            nhood_core::PlanCache::new(8)
                .with_disk_dir(dir)
                .map_err(|e| fail(format!("plan: cannot use cache dir '{dir}': {e}")))?,
        );
        let comm = comm.with_plan_cache(std::sync::Arc::clone(&cache));
        let plan = comm.plan_shared(algo)?;
        let s = cache.stats();
        let outcome = if s.disk_hits > 0 {
            "disk hit"
        } else if s.hits > 0 {
            "hit"
        } else {
            "miss (built and stored)"
        };
        writeln!(w, "plan cache:       {outcome} in {dir}")?;
        plan
    } else {
        std::sync::Arc::new(comm.plan(algo)?)
    };
    if let Some(save) = args.get("save") {
        nhood_core::plan_io::save_plan(&plan, std::path::Path::new(save), None)?;
        writeln!(w, "plan saved to {save}")?;
    }
    if plan.algorithm == algo {
        writeln!(w, "algorithm:        {algo}")?;
    } else {
        // Auto resolved to its tuned winner, or a degenerate parameter
        // was canonicalized (e.g. cn:K clamped to n) — show what ran.
        writeln!(w, "algorithm:        {} (from --algo {algo})", plan.algorithm)?;
    }
    if metric == LoadMetric::Bytes {
        writeln!(w, "load metric:      bytes (agent selection weighted by block size)")?;
    }
    writeln!(w, "ranks:            {}", plan.n())?;
    writeln!(w, "phases:           {}", plan.phase_count())?;
    writeln!(w, "messages:         {}", plan.message_count())?;
    writeln!(w, "payload blocks:   {}", plan.total_blocks_sent())?;
    writeln!(w, "largest message:  {} blocks", plan.max_message_blocks())?;
    let loads = plan.sends_per_rank();
    let max = loads.iter().copied().max().unwrap_or(0);
    let mean = if loads.is_empty() {
        0.0
    } else {
        loads.iter().sum::<usize>() as f64 / loads.len() as f64
    };
    writeln!(w, "sends per rank:   max {max}, mean {mean:.1}")?;
    if let Some(s) = plan.selection {
        writeln!(
            w,
            "selection:        {} signals, success rate {:.1}%",
            s.total_signals(),
            s.success_rate() * 100.0
        )?;
    }
    Ok(())
}

/// The `--sizes` list `simulate` and `compare` sweep (default
/// `64,4K,256K`).
fn parse_sizes(args: &Args) -> Result<Vec<usize>, ArgError> {
    args.get("sizes").unwrap_or("64,4K,256K").split(',').map(parse_bytes).collect()
}

/// `nhood simulate <edge-list> [--algo ..] [--sizes 64,4K,1M] [layout flags]`
pub fn cmd_simulate(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    let graph = topology_arg(args, "simulate")?;
    let layout = parse_layout(args, graph.n())?;
    let algo = parse_algo(args)?;
    let sizes = parse_sizes(args)?;
    let plan = if let Some(loaded) = args.get("load") {
        let p = nhood_core::plan_io::PlanFile::open(std::path::Path::new(loaded))
            .map_err(|e| fail(e.to_string()))?
            .to_plan();
        p.validate(&graph)
            .map_err(|e| fail(format!("loaded plan invalid for this topology: {e}")))?;
        p
    } else {
        let comm = DistGraphComm::create_adjacent(graph, layout.clone())?;
        comm.plan(algo)?
    };
    let cost = parse_cost(args)?;
    writeln!(w, "{:>12} {:>14} {:>12} {:>12}", "msg size", "latency", "internode", "intrasocket")?;
    for m in sizes {
        let rep = simulate(&plan, &layout, m, &cost)?;
        writeln!(
            w,
            "{:>12} {:>12.2}us {:>12} {:>12}",
            m,
            rep.makespan * 1e6,
            rep.stats.internode_msgs(),
            rep.stats.msgs[0]
        )?;
    }
    Ok(())
}

/// `nhood compare <edge-list> [--sizes ..] [--cost ..] [layout flags]` —
/// all three algorithms side by side, simulated under one cost model.
pub fn cmd_compare(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    let (graph, layout) = edge_list_and_layout(args, "compare")?;
    let sizes = parse_sizes(args)?;
    let k = args.get_parsed("k", 8usize)?;
    let cost = parse_cost(args)?;
    let comm = DistGraphComm::create_adjacent(graph, layout.clone())?;
    let plans = [
        ("naive", comm.plan(Algorithm::Naive)?),
        ("cn", comm.plan(Algorithm::CommonNeighbor { k })?),
        ("dh", comm.plan(Algorithm::DistanceHalving)?),
    ];
    writeln!(w, "{:>12} {:>14} {:>14} {:>14} {:>10}", "msg size", "naive", "cn", "dh", "dh gain")?;
    for m in sizes {
        let mut t = [0.0f64; 3];
        for (i, (_, plan)) in plans.iter().enumerate() {
            t[i] = simulate(plan, &layout, m, &cost)?.makespan;
        }
        writeln!(
            w,
            "{:>12} {:>12.2}us {:>12.2}us {:>12.2}us {:>9.2}x",
            m,
            t[0] * 1e6,
            t[1] * 1e6,
            t[2] * 1e6,
            t[0] / t[2]
        )?;
    }
    Ok(())
}

/// `nhood validate <edge-list> [--algo ..] [--load-metric neighbors|bytes]
/// [--ragged] [layout flags]` — plan validation plus a real execution
/// against the reference. `--ragged` additionally runs a
/// `neighbor_allgatherv` round with deterministic per-rank payload
/// lengths (zero-length blocks included) against the same reference.
pub fn cmd_validate(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    let (graph, layout) = edge_list_and_layout(args, "validate")?;
    let algo = parse_algo(args)?;
    let metric = parse_load_metric(args)?;
    let comm = DistGraphComm::create_adjacent(graph.clone(), layout)?.with_load_metric(metric);
    let plan = comm.plan_shared(algo)?;
    plan.validate(&graph).map_err(|e| fail(format!("plan validation failed: {e}")))?;
    writeln!(w, "plan validation: ok (exactly-once delivery holds)")?;
    let payloads = test_payloads(graph.n(), 32, 0xC0FFEE);
    let got = Virtual.run_simple(&plan, &graph, &payloads)?;
    if got != reference_allgather(&graph, &payloads) {
        return Err(fail("execution mismatch against the MPI-semantics reference"));
    }
    writeln!(w, "execution check: ok ({} ranks, 32-byte payloads)", graph.n())?;
    if args.has("ragged") {
        let mut rng = nhood_topology::rng::DetRng::seed_from_u64(0xC0FFEE);
        let payloads: Vec<Vec<u8>> = (0..graph.n())
            .map(|r| {
                let len = if r % 5 == 0 { 0 } else { 1 + rng.gen_below(63) };
                (0..len).map(|_| rng.next_u64() as u8).collect()
            })
            .collect();
        let req = CollectiveRequest::allgatherv(&payloads).algorithm(algo);
        let got = comm.collective(&req)?.rbufs;
        if got != reference_allgather(&graph, &payloads) {
            return Err(fail("ragged execution mismatch against the MPI-semantics reference"));
        }
        writeln!(w, "ragged check:    ok (allgatherv, per-rank sizes 0..=64)")?;
    }
    Ok(())
}

/// `nhood recommend <edge-list> [--size 4K] [layout flags]` — suggest an
/// algorithm for this topology/size and show the candidates' simulated
/// latencies. The tuner prices under the Niagara cost model alone, so a
/// `--cost` is refused rather than ignored.
pub fn cmd_recommend(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    if let Some(cost) = args.get("cost") {
        return Err(fail(format!(
            "recommend does not take --cost '{cost}': the tuner scores candidates under the \
             Niagara cost model only"
        )));
    }
    let (graph, layout) = edge_list_and_layout(args, "recommend")?;
    let m = parse_bytes(args.get("size").unwrap_or("4K"))?;
    // The tuner's own pass at these sizes: the listing is exactly the
    // portfolio the recommendation scored.
    let comm = DistGraphComm::create_adjacent(graph, layout)?;
    let tuned = comm.with_block_sizes(BlockSizes::uniform(m)).tune()?;
    writeln!(w, "recommended: {} (for {m}-byte payloads)", tuned.winner)?;
    for (algo, t) in &tuned.scores {
        let marker = if *algo == tuned.winner { "  <-- recommended" } else { "" };
        writeln!(w, "{:>28}: {:>10.2} us{}", algo.to_string(), t * 1e6, marker)?;
    }
    Ok(())
}
