//! The planning family: generate a topology, build and inspect a plan,
//! and price arms side by side on the simulator.

use super::{
    arm_spelling, fail, parse_algo, parse_arms, parse_block_sizes, parse_cost, parse_load_metric,
    topology_and_layout,
};
use crate::args::{parse_bytes, ArgError, Args};
use nhood_core::autotune::candidates;
use nhood_core::exec::sim_exec::simulate;
use nhood_core::plan_io::PlanFile;
use nhood_core::{Algorithm, BlockSizes, DistGraphComm, LoadMetric};
use nhood_simnet::SimReport;
use nhood_topology::io::write_edge_list;
use std::io::Write;
use std::sync::Arc;

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
    let (graph, layout) = topology_and_layout(args, "plan")?;
    let algo = parse_algo(args)?;
    let metric = parse_load_metric(args)?;
    let sizes = parse_block_sizes(args, graph.n())?;
    let mut comm = DistGraphComm::create_adjacent(graph, layout)?.with_load_metric(metric);
    if let Some(sizes) = sizes {
        comm = comm.with_block_sizes(sizes);
    }
    if args.get("build-threads").is_some() {
        comm = comm.with_build_threads(args.require("build-threads")?);
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
        writeln!(w, "algorithm:        {} (from --algo {})", plan.algorithm, arm_spelling(algo))?;
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
    let mean = loads.iter().sum::<usize>() as f64 / loads.len().max(1) as f64;
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

/// The `--sizes` list `simulate` sweeps (default `64,4K,256K`).
fn parse_sizes(args: &Args) -> Result<Vec<usize>, ArgError> {
    args.get("sizes").unwrap_or("64,4K,256K").split(',').map(parse_bytes).collect()
}

/// One `simulate` row: `arm` priced at `m`-byte blocks, `best` if the
/// cheapest at that size.
pub(super) struct Priced {
    pub m: usize,
    pub arm: Algorithm,
    pub report: SimReport,
    pub best: bool,
}

/// The `simulate` listing: every arm of `--algo` priced at every
/// `--sizes` value under `--cost`. `auto` stands for the tuner's
/// portfolio at that uniform size ([`candidates`]), so under the default
/// cost the marked arm is the tuner's winner and each latency its score;
/// ties go to the earlier arm, as in the tuner. Each arm's plan is built
/// once, in the communicator's memo; `--load` prices a loaded plan alone.
pub(super) fn listing(args: &Args) -> Result<Vec<Priced>, ArgError> {
    let (graph, layout) = topology_and_layout(args, "simulate")?;
    let (arms, sizes, cost) = (parse_arms(args)?, parse_sizes(args)?, parse_cost(args)?);
    let comm = DistGraphComm::create_adjacent(graph, layout)?;
    let loaded = match args.get("load") {
        Some(path) => {
            let file =
                PlanFile::open(std::path::Path::new(path)).map_err(|e| fail(e.to_string()))?;
            let plan = file.to_plan();
            plan.validate(comm.graph())
                .map_err(|e| fail(format!("loaded plan invalid for this topology: {e}")))?;
            Some(Arc::new(plan))
        }
        None => None,
    };
    let mut rows: Vec<Priced> = Vec::new();
    for m in sizes {
        let portfolio = || candidates(comm.graph(), comm.layout(), &BlockSizes::uniform(m));
        let listed = arms.iter().flat_map(|&arm| match arm {
            Algorithm::Auto => portfolio(),
            concrete => vec![concrete],
        });
        let plans: Vec<_> = match &loaded {
            Some(plan) => vec![Arc::clone(plan)],
            None => listed.map(|arm| comm.plan_shared(arm)).collect::<Result<_, _>>()?,
        };
        let first = rows.len();
        for plan in plans {
            let report = simulate(&plan, comm.layout(), m, &cost)?;
            rows.push(Priced { m, arm: plan.algorithm, report, best: false });
        }
        // `min_by` keeps the first of equal minima: ties go to the earlier arm
        let by_latency =
            |a: &&mut Priced, b: &&mut Priced| a.report.makespan.total_cmp(&b.report.makespan);
        if let Some(row) = rows[first..].iter_mut().min_by(by_latency) {
            row.best = true;
        }
    }
    Ok(rows)
}

/// `nhood simulate <edge-list | --topology torus:D:K> [--algo ARM,..]
/// [--load plan.bin] [--sizes 64,4K,1M] [--cost ..] [layout flags]` —
/// the [`listing`], a row per size and arm: simulated latency, internode
/// and intra-socket messages, the cheapest arm marked `<-- best`.
pub fn cmd_simulate(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    let rows = listing(args)?;
    writeln!(
        w,
        "{:>12}  {:<24} {:>14} {:>12} {:>12}",
        "msg size", "arm", "latency", "internode", "intrasocket"
    )?;
    for Priced { m, arm, report, best } in rows {
        writeln!(
            w,
            "{:>12}  {:<24} {:>12.2}us {:>12} {:>12}{}",
            m,
            arm_spelling(arm),
            report.makespan * 1e6,
            report.stats.internode_msgs(),
            report.stats.msgs[0],
            if best { "  <-- best" } else { "" }
        )?;
    }
    Ok(())
}
