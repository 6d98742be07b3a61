//! The `nhood` subcommands, written against `impl Write` so tests can
//! capture their output.

use crate::args::{parse_bytes, ArgError, Args};
use nhood_cluster::{ClusterLayout, HockneyParams};
use nhood_core::exec::sim_exec::{simulate, Sim};
use nhood_core::exec::virtual_exec::{reference_allgather, test_payloads};
use nhood_core::exec::{ExecOptions, Executor, Threaded, Virtual};
use nhood_core::BlockArena;
use nhood_core::{
    Algorithm, BlockSizes, CollectiveOp, CollectiveRequest, DType, DistGraphComm, ExecBackend,
    LoadMetric, ReduceOp, Reduction, SimCost,
};
use nhood_simnet::{NicMode, SimConfig};
use nhood_telemetry::{CountingRecorder, ModelPrediction, Recorder, SpanRecorder};
use nhood_topology::io::{read_edge_list, write_edge_list};
use nhood_topology::Topology;
use std::io::Write;

/// Subcommand failure: message plus a suggestion to run `--help`.
pub fn fail(msg: impl Into<String>) -> ArgError {
    ArgError(msg.into())
}

impl From<std::io::Error> for ArgError {
    fn from(e: std::io::Error) -> Self {
        ArgError(format!("I/O error: {e}"))
    }
}

/// Parses the `--algo` flag. Parameterized algorithms take their knob
/// either inline (`cn:4`, `pat:8`, `leader:2`) or through the matching
/// flag (`--k`, `--radix`, `--leaders`); the inline form wins.
pub fn parse_algo(args: &Args) -> Result<Algorithm, ArgError> {
    let spec = args.get("algo").unwrap_or("dh");
    let (name, inline) = match spec.split_once(':') {
        Some((name, param)) => (name, Some(param)),
        None => (spec, None),
    };
    let param = |flag: &str, default: usize| -> Result<usize, ArgError> {
        match inline {
            Some(p) => p
                .parse::<usize>()
                .map_err(|_| fail(format!("--algo {name}:{p}: '{p}' is not a count"))),
            None => args.get_parsed(flag, default),
        }
    };
    let bare = |algo: Algorithm| match inline {
        Some(p) => Err(fail(format!("--algo {name} takes no ':{p}' parameter"))),
        None => Ok(algo),
    };
    match name {
        "naive" => bare(Algorithm::Naive),
        "dh" | "distance-halving" => bare(Algorithm::DistanceHalving),
        "auto" => bare(Algorithm::Auto),
        "bruck" => bare(Algorithm::Bruck),
        "cn" | "common-neighbor" => Ok(Algorithm::CommonNeighbor { k: param("k", 8)? }),
        "pat" => Ok(Algorithm::Pat { radix: param("radix", 4)? }),
        "leader" | "hierarchical-leader" => {
            Ok(Algorithm::HierarchicalLeader { leaders_per_node: param("leaders", 2)? })
        }
        other => Err(fail(format!(
            "unknown --algo '{other}' (naive | dh | cn[:K] | leader[:L] | bruck | pat[:R] | auto)"
        ))),
    }
}

/// Parses the `--load-metric` flag: `neighbors` (default, the paper's
/// stage-1 scoring) or `bytes` (byte-aware agent selection).
pub fn parse_load_metric(args: &Args) -> Result<LoadMetric, ArgError> {
    match args.get("load-metric").unwrap_or("neighbors") {
        "neighbors" => Ok(LoadMetric::Neighbors),
        "bytes" => Ok(LoadMetric::Bytes),
        other => Err(fail(format!("unknown --load-metric '{other}' (neighbors | bytes)"))),
    }
}

/// Parses the `--block-sizes` flag — a comma-separated byte-size list
/// (`1K,64,0,...`) cycled to cover all `n` ranks — into a size table.
/// Absent flag → `None` (the communicator plans uniformly).
pub fn parse_block_sizes(args: &Args, n: usize) -> Result<Option<BlockSizes>, ArgError> {
    let Some(spec) = args.get("block-sizes") else { return Ok(None) };
    let entries: Vec<usize> = spec.split(',').map(parse_bytes).collect::<Result<_, _>>()?;
    if entries.is_empty() {
        return Err(fail("--block-sizes needs at least one size"));
    }
    let table: Vec<usize> = (0..n).map(|r| entries[r % entries.len()]).collect();
    Ok(Some(BlockSizes::per_rank(table)))
}

/// Parses the layout flags `--nodes`, `--sockets`, `--cores` (defaults
/// sized to fit `n` ranks at 2×8 per node).
pub fn parse_layout(args: &Args, n: usize) -> Result<ClusterLayout, ArgError> {
    let sockets = args.get_parsed("sockets", 2usize)?;
    let cores = args.get_parsed("cores", 8usize)?;
    let per_node = sockets * cores;
    let default_nodes = n.div_ceil(per_node).max(1);
    let nodes = args.get_parsed("nodes", default_nodes)?;
    if nodes * per_node < n {
        return Err(fail(format!(
            "layout {nodes}x{sockets}x{cores} holds {} ranks, need {n}",
            nodes * per_node
        )));
    }
    Ok(ClusterLayout::new(nodes, sockets, cores))
}

/// Parses the `--cost` flag shared by `simulate` and `trace`:
/// `niagara` (default, LogGP-flavoured hierarchical costs), `classic`
/// (pure-Hockney occupancy on the Niagara parameter set), or
/// `flat:ALPHA:BETA` (uniform α seconds / β bytes-per-second at every
/// locality level, no NIC serialization — the §V model verbatim).
pub fn parse_cost(args: &Args) -> Result<SimCost, ArgError> {
    let spec = args.get("cost").unwrap_or("niagara");
    match spec {
        "niagara" => Ok(SimCost::niagara()),
        "classic" => Ok(SimCost {
            net: SimConfig::classic(HockneyParams::niagara(), NicMode::default()),
            ..SimCost::niagara()
        }),
        _ => {
            let mut it = spec.split(':');
            if it.next() != Some("flat") {
                return Err(fail(format!(
                    "unknown --cost '{spec}' (niagara | classic | flat:ALPHA:BETA)"
                )));
            }
            let mut num = |name: &str| -> Result<f64, ArgError> {
                it.next()
                    .ok_or_else(|| fail(format!("--cost flat:ALPHA:BETA is missing {name}")))?
                    .parse::<f64>()
                    .map_err(|e| fail(format!("bad {name} in --cost '{spec}': {e}")))
            };
            let alpha = num("ALPHA")?;
            let beta = num("BETA")?;
            if it.next().is_some() {
                return Err(fail(format!("--cost '{spec}' has trailing fields")));
            }
            Ok(SimCost {
                net: SimConfig::classic(HockneyParams::flat(alpha, beta), NicMode::Off),
                memcpy_bytes_per_sec: f64::INFINITY,
            })
        }
    }
}

/// Loads a topology from an edge-list file.
pub fn load_topology(path: &str) -> Result<Topology, ArgError> {
    let f = std::fs::File::open(path).map_err(|e| fail(format!("cannot open {path}: {e}")))?;
    read_edge_list(std::io::BufReader::new(f)).map_err(|e| fail(format!("{path}: {e}")))
}

/// Parses a `--topology` spec: `torus:D:K` generates the D-dimensional
/// torus of side K (`n = K^D` ranks, degree `2D`) without an edge-list
/// file — the fixed-degree workload the scale benchmarks use.
pub fn parse_topology_spec(spec: &str) -> Result<Topology, ArgError> {
    let mut it = spec.split(':');
    if it.next() != Some("torus") {
        return Err(fail(format!("unknown --topology '{spec}' (torus:D:K)")));
    }
    let mut num = |name: &str| -> Result<usize, ArgError> {
        it.next()
            .ok_or_else(|| fail(format!("--topology torus:D:K is missing {name}")))?
            .parse::<usize>()
            .map_err(|e| fail(format!("bad {name} in --topology '{spec}': {e}")))
    };
    let d = num("D")?;
    let k = num("K")?;
    if it.next().is_some() {
        return Err(fail(format!("--topology '{spec}' has trailing fields")));
    }
    nhood_topology::torus::try_torus(nhood_topology::TorusSpec { d, k })
        .map_err(|e| fail(e.to_string()))
}

/// Resolves the topology for commands that take `--topology` alongside
/// the shared `--cost` model flag (`simulate`, `trace`): the flag
/// generates the graph inline and makes the edge-list positional
/// redundant; without it the edge-list file is read as usual.
pub fn topology_arg(args: &Args, cmd: &str) -> Result<Topology, ArgError> {
    match args.get("topology") {
        Some(spec) => {
            if args.pos(1).is_some() {
                return Err(fail(format!("{cmd}: pass an edge-list file or --topology, not both")));
            }
            parse_topology_spec(spec)
        }
        None => {
            let path = args.pos(1).ok_or_else(|| {
                fail(format!("{cmd}: missing edge-list file (or --topology torus:D:K)"))
            })?;
            load_topology(path)
        }
    }
}

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
    let path = args.pos(1).ok_or_else(|| fail("plan: missing edge-list file"))?;
    let graph = load_topology(path)?;
    let layout = parse_layout(args, graph.n())?;
    let algo = parse_algo(args)?;
    let metric = parse_load_metric(args)?;
    let sizes = parse_block_sizes(args, graph.n())?;
    let mut comm = DistGraphComm::create_adjacent(graph, layout)
        .map_err(|e| fail(e.to_string()))?
        .with_load_metric(metric);
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
        let plan = comm.plan_shared(algo).map_err(|e| fail(e.to_string()))?;
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
        std::sync::Arc::new(comm.plan(algo).map_err(|e| fail(e.to_string()))?)
    };
    if let Some(save) = args.get("save") {
        nhood_core::plan_io::save_plan(&plan, std::path::Path::new(save))?;
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

/// `nhood simulate <edge-list> [--algo ..] [--sizes 64,4K,1M] [layout flags]`
pub fn cmd_simulate(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    let graph = topology_arg(args, "simulate")?;
    let layout = parse_layout(args, graph.n())?;
    let algo = parse_algo(args)?;
    let sizes: Vec<usize> = args
        .get("sizes")
        .unwrap_or("64,4K,256K")
        .split(',')
        .map(parse_bytes)
        .collect::<Result<_, _>>()?;
    let plan = if let Some(loaded) = args.get("load") {
        let p = nhood_core::plan_io::load_plan(std::path::Path::new(loaded))
            .map_err(|e| fail(e.to_string()))?;
        p.validate(&graph)
            .map_err(|e| fail(format!("loaded plan invalid for this topology: {e}")))?;
        p
    } else {
        let comm = DistGraphComm::create_adjacent(graph, layout.clone())
            .map_err(|e| fail(e.to_string()))?;
        comm.plan(algo).map_err(|e| fail(e.to_string()))?
    };
    let cost = parse_cost(args)?;
    writeln!(w, "{:>12} {:>14} {:>12} {:>12}", "msg size", "latency", "internode", "intrasocket")?;
    for m in sizes {
        let rep = simulate(&plan, &layout, m, &cost).map_err(|e| fail(e.to_string()))?;
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

/// `nhood compare <edge-list> [--sizes ..] [layout flags]` — all three
/// algorithms side by side.
pub fn cmd_compare(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    let path = args.pos(1).ok_or_else(|| fail("compare: missing edge-list file"))?;
    let graph = load_topology(path)?;
    let layout = parse_layout(args, graph.n())?;
    let sizes: Vec<usize> = args
        .get("sizes")
        .unwrap_or("64,4K,256K")
        .split(',')
        .map(parse_bytes)
        .collect::<Result<_, _>>()?;
    let k = args.get_parsed("k", 8usize)?;
    let comm =
        DistGraphComm::create_adjacent(graph, layout.clone()).map_err(|e| fail(e.to_string()))?;
    let cost = SimCost::niagara();
    let plans = [
        ("naive", comm.plan(Algorithm::Naive).map_err(|e| fail(e.to_string()))?),
        ("cn", comm.plan(Algorithm::CommonNeighbor { k }).map_err(|e| fail(e.to_string()))?),
        ("dh", comm.plan(Algorithm::DistanceHalving).map_err(|e| fail(e.to_string()))?),
    ];
    writeln!(w, "{:>12} {:>14} {:>14} {:>14} {:>10}", "msg size", "naive", "cn", "dh", "dh gain")?;
    for m in sizes {
        let mut t = [0.0f64; 3];
        for (i, (_, plan)) in plans.iter().enumerate() {
            t[i] = simulate(plan, &layout, m, &cost).map_err(|e| fail(e.to_string()))?.makespan;
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
    let path = args.pos(1).ok_or_else(|| fail("validate: missing edge-list file"))?;
    let graph = load_topology(path)?;
    let layout = parse_layout(args, graph.n())?;
    let algo = parse_algo(args)?;
    let metric = parse_load_metric(args)?;
    let comm = DistGraphComm::create_adjacent(graph.clone(), layout)
        .map_err(|e| fail(e.to_string()))?
        .with_load_metric(metric);
    let plan = comm.plan(algo).map_err(|e| fail(e.to_string()))?;
    plan.validate(&graph).map_err(|e| fail(format!("plan validation failed: {e}")))?;
    writeln!(w, "plan validation: ok (exactly-once delivery holds)")?;
    let payloads = test_payloads(graph.n(), 32, 0xC0FFEE);
    let got = Virtual.run_simple(&plan, &graph, &payloads).map_err(|e| fail(e.to_string()))?;
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
        let got = comm.collective(&req).map_err(|e| fail(e.to_string()))?.rbufs;
        if got != reference_allgather(&graph, &payloads) {
            return Err(fail("ragged execution mismatch against the MPI-semantics reference"));
        }
        writeln!(w, "ragged check:    ok (allgatherv, per-rank sizes 0..=64)")?;
    }
    Ok(())
}

/// Parses `--reduce sum|max|bitor` and `--dtype u8|u32|f32` into a
/// [`Reduction`] (defaults: Sum over u8 lanes).
pub fn parse_reduction(args: &Args) -> Result<Reduction, ArgError> {
    let op = match args.get("reduce").unwrap_or("sum") {
        "sum" => ReduceOp::Sum,
        "max" => ReduceOp::Max,
        "bitor" => ReduceOp::BitOr,
        other => return Err(fail(format!("unknown --reduce '{other}' (sum | max | bitor)"))),
    };
    let dtype = match args.get("dtype").unwrap_or("u8") {
        "u8" => DType::U8,
        "u32" => DType::U32,
        "f32" => DType::F32,
        other => return Err(fail(format!("unknown --dtype '{other}' (u8 | u32 | f32)"))),
    };
    Ok(Reduction::new(op, dtype))
}

/// Parses `--op` (plus `--reduce`/`--dtype` for the reducing ops).
/// The reduction flags are validated even for non-reducing ops so a
/// typo never passes silently.
pub fn parse_op(args: &Args) -> Result<CollectiveOp, ArgError> {
    let red = parse_reduction(args)?;
    match args.get("op").unwrap_or("allgather") {
        "allgather" => Ok(CollectiveOp::Allgather),
        "allgatherv" => Ok(CollectiveOp::Allgatherv),
        "alltoallv" => Ok(CollectiveOp::Alltoallv),
        "reduce_scatter" => Ok(CollectiveOp::ReduceScatter(red)),
        "allreduce" => Ok(CollectiveOp::Allreduce(red)),
        other => Err(fail(format!(
            "unknown --op '{other}' (allgather | allgatherv | alltoallv | reduce_scatter | allreduce)"
        ))),
    }
}

/// Deterministic send buffers shaped for `op`: flat `m`-byte blocks for
/// allgather/allreduce, ragged per-rank lengths (zeros included) for
/// allgatherv, out-degree-scaled concatenations for alltoallv and
/// reduce_scatter.
fn shaped_payloads(graph: &Topology, op: CollectiveOp, m: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = nhood_topology::rng::DetRng::seed_from_u64(seed);
    let mut block = |len: usize| -> Vec<u8> {
        let fill = rng.next_u64().to_le_bytes();
        (0..len).map(|i| fill[i % 8] ^ (i as u8)).collect()
    };
    match op {
        CollectiveOp::Allgather | CollectiveOp::Allreduce(_) => {
            (0..graph.n()).map(|_| block(m)).collect()
        }
        CollectiveOp::Allgatherv => (0..graph.n())
            .map(|r| {
                let len = if r % 5 == 0 { 0 } else { 1 + (r * 13) % m.max(1) };
                block(len)
            })
            .collect(),
        CollectiveOp::Alltoallv | CollectiveOp::ReduceScatter(_) => {
            (0..graph.n()).map(|p| block(graph.out_neighbors(p).len() * m)).collect()
        }
    }
}

/// `nhood run <edge-list> [--op allgather|allgatherv|alltoallv|reduce_scatter|allreduce]
/// [--reduce sum|max|bitor] [--dtype u8|u32|f32] [--algo ..] [--size B]
/// [--backend virtual|threaded|sim] [--cost ..] [layout flags]` — run
/// one collective end-to-end through the op-agnostic request API
/// ([`DistGraphComm::collective`]), byte-check it against the op's
/// naive reference, and report message/byte counters (or the simulated
/// makespan under `--backend sim`). f32 reductions skip the byte check
/// — fold order differs between engine and reference — and report
/// completion only.
pub fn cmd_run(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    use nhood_core::collective::{
        derive_sizes, reference_allreduce, reference_alltoallv, reference_reduce_scatter,
    };

    let path = args.pos(1).ok_or_else(|| fail("run: missing edge-list file"))?;
    let graph = load_topology(path)?;
    let layout = parse_layout(args, graph.n())?;
    let algo = parse_algo(args)?;
    let op = parse_op(args)?;
    let m = {
        let raw = parse_bytes(args.get("size").unwrap_or("1K"))?;
        // Reductions over u32/f32 need whole lanes.
        let lane = op.reduction().map_or(1, |red| red.dtype.lane_bytes());
        raw.next_multiple_of(lane.max(1))
    };
    let backend = match args.get("backend").unwrap_or("virtual") {
        "virtual" => ExecBackend::Virtual,
        "threaded" => ExecBackend::Threaded,
        "sim" => ExecBackend::Sim,
        other => return Err(fail(format!("unknown --backend '{other}' (virtual|threaded|sim)"))),
    };
    let seed = args.get_parsed("seed", 42u64)?;
    let payloads = shaped_payloads(&graph, op, m, seed);
    let comm =
        DistGraphComm::create_adjacent(graph.clone(), layout).map_err(|e| fail(e.to_string()))?;
    let rec = CountingRecorder::new(graph.n());
    let req = CollectiveRequest::new(op, &payloads).algorithm(algo).backend(backend).recorder(&rec);
    let out = comm.collective(&req).map_err(|e| fail(e.to_string()))?;
    writeln!(w, "run: {op} via {algo}, {} ranks, {m}-byte blocks", graph.n())?;
    if let Some(sim) = &out.sim {
        writeln!(w, "simulated makespan: {:.2} us", sim.makespan * 1e6)?;
    }
    let skip_f32 = op.reduction().is_some_and(|red| red.dtype == DType::F32);
    if backend != ExecBackend::Sim || !out.rbufs.is_empty() {
        if skip_f32 {
            writeln!(w, "verify: skipped (f32 fold order differs from the reference)")?;
        } else {
            let want = match op {
                CollectiveOp::Allgather | CollectiveOp::Allgatherv => {
                    reference_allgather(&graph, &payloads)
                }
                CollectiveOp::Alltoallv => {
                    let sizes = derive_sizes(&graph, op, &payloads, None)
                        .map_err(|e| fail(e.to_string()))?;
                    reference_alltoallv(&graph, &payloads, &sizes)
                }
                CollectiveOp::ReduceScatter(red) => {
                    let sizes = derive_sizes(&graph, op, &payloads, None)
                        .map_err(|e| fail(e.to_string()))?;
                    reference_reduce_scatter(&graph, &payloads, &sizes, red)
                }
                CollectiveOp::Allreduce(red) => reference_allreduce(&graph, &payloads, red),
            };
            if out.rbufs != want {
                return Err(fail("output mismatch against the op's naive reference"));
            }
            writeln!(w, "verify: ok (matches the naive reference)")?;
        }
    }
    let counts = rec.counts().unwrap_or_default();
    writeln!(w, "messages sent: {}, bytes sent: {}", counts.msgs_sent, counts.bytes_sent)?;
    Ok(())
}

/// `nhood recommend <edge-list> [--size 4K] [layout flags]` — suggest an
/// algorithm for this topology/size and show the candidates' simulated
/// latencies.
pub fn cmd_recommend(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    let path = args.pos(1).ok_or_else(|| fail("recommend: missing edge-list file"))?;
    let graph = load_topology(path)?;
    let layout = parse_layout(args, graph.n())?;
    let m = parse_bytes(args.get("size").unwrap_or("4K"))?;
    // The tuner's own portfolio and sweep, so the listing shows exactly
    // what the recommendation scored (placement-gated candidates
    // included; candidates that cannot build on this layout are skipped).
    let cands = nhood_core::autotune::candidates(graph.n(), &layout, 8);
    let comm = DistGraphComm::create_adjacent(graph, layout).map_err(|e| fail(e.to_string()))?;
    let tuned = comm
        .tune_candidates(&cands, &BlockSizes::uniform(m), &nhood_telemetry::NULL)
        .map_err(|e| fail(e.to_string()))?;
    writeln!(w, "recommended: {} (for {m}-byte payloads)", tuned.winner)?;
    for (algo, t) in &tuned.scores {
        let marker = if *algo == tuned.winner { "  <-- recommended" } else { "" };
        writeln!(w, "{:>28}: {:>10.2} us{}", algo.to_string(), t * 1e6, marker)?;
    }
    Ok(())
}

/// `nhood trace <edge-list> [--algo ..] [--size 4K]
/// [--backend virtual|threaded|sim] [--format csv|chrome|summary|model-check]
/// [--out FILE] [--cost ..] [layout flags]` — run one collective under a
/// telemetry recorder and export what it saw:
///
/// * `csv` (default; sim backend only): the per-message simulated
///   timeline, unchanged from earlier releases;
/// * `chrome`: a Chrome-tracing / Perfetto JSON timeline, one track per
///   rank — simulated time under `--backend sim`, wall-clock under
///   `threaded`;
/// * `summary`: the per-rank counter table;
/// * `model-check`: measured per-rank means against the paper's §V
///   predictions (E\[n_off\], E\[n_in\], E\[m_in\]) with relative errors.
pub fn cmd_trace(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    let graph = topology_arg(args, "trace")?;
    let layout = parse_layout(args, graph.n())?;
    let algo = parse_algo(args)?;
    let m = parse_bytes(args.get("size").unwrap_or("4K"))?;
    let cost = parse_cost(args)?;
    let backend = args.get("backend").unwrap_or("sim");
    if !matches!(backend, "virtual" | "threaded" | "sim") {
        return Err(fail(format!("unknown --backend '{backend}' (virtual | threaded | sim)")));
    }
    let format = args.get("format").unwrap_or("csv");
    let comm = DistGraphComm::create_adjacent(graph.clone(), layout.clone())
        .map_err(|e| fail(e.to_string()))?;
    let plan = comm.plan(algo).map_err(|e| fail(e.to_string()))?;

    // Runs the chosen backend once with `rec` observing it.
    let run_backend = |rec: &dyn Recorder| -> Result<(), ArgError> {
        match backend {
            "sim" => {
                let sim = Sim { layout: layout.clone(), cost, m: Some(m), threads: 1 };
                sim.run(
                    &plan,
                    &graph,
                    &[],
                    &mut BlockArena::new(),
                    &ExecOptions::new().recorder(rec),
                )
                .map_err(|e| fail(e.to_string()))?;
            }
            "threaded" => {
                let payloads = test_payloads(graph.n(), m, 0xC0FFEE);
                let opts = ExecOptions::new().recorder(rec);
                Threaded
                    .run(&plan, &graph, &payloads, &mut BlockArena::new(), &opts)
                    .map_err(|e| fail(e.to_string()))?;
            }
            _ => {
                let payloads = test_payloads(graph.n(), m, 0xC0FFEE);
                let opts = ExecOptions::new().recorder(rec);
                Virtual
                    .run(&plan, &graph, &payloads, &mut BlockArena::new(), &opts)
                    .map_err(|e| fail(e.to_string()))?;
            }
        }
        Ok(())
    };
    let counting = || {
        let socket_of = (0..graph.n())
            .map(|r| {
                let loc = layout.location(r);
                loc.node * layout.sockets_per_node() + loc.socket
            })
            .collect();
        CountingRecorder::with_sockets(socket_of)
    };

    match format {
        "csv" => {
            if backend != "sim" {
                return Err(fail("--format csv needs --backend sim (simulated timestamps)"));
            }
            let schedule = nhood_core::exec::sim_exec::to_schedule(&plan, m, &cost);
            let (report, traces) = nhood_simnet::Engine::new(&layout, cost.net)
                .run_traced(&schedule)
                .map_err(|e| fail(e.to_string()))?;
            let out_path = args.get("out").unwrap_or("trace.csv");
            let f = std::fs::File::create(out_path)?;
            nhood_simnet::write_trace_csv(&traces, std::io::BufWriter::new(f))?;
            writeln!(
                w,
                "{} messages traced over {:.2} us; timeline written to {out_path}",
                traces.len(),
                report.makespan * 1e6
            )?;
        }
        "chrome" => {
            if backend == "virtual" {
                return Err(fail(
                    "--backend virtual has no clock; use sim or threaded for --format chrome",
                ));
            }
            let spans = SpanRecorder::new();
            run_backend(&spans)?;
            let out_path = args.get("out").unwrap_or("trace.json");
            std::fs::write(out_path, nhood_telemetry::chrome_trace_json(&spans.events()))?;
            writeln!(
                w,
                "{} span events written to {out_path} (open in chrome://tracing or Perfetto)",
                spans.len()
            )?;
        }
        "summary" => {
            let rec = counting();
            run_backend(&rec)?;
            write!(w, "{}", nhood_telemetry::summary_table(&rec))?;
        }
        "model-check" => {
            let rec = counting();
            run_backend(&rec)?;
            let params = nhood_core::model::ModelParams {
                n: graph.n(),
                s: layout.sockets_per_node(),
                l: layout.ranks_per_socket(),
                delta: graph.density(),
                alpha: 1.3e-6,
                beta: 10.5e9,
            };
            let pred = ModelPrediction {
                off_socket_msgs: params.expected_off_socket_msgs(),
                intra_socket_msgs: params.expected_intra_socket_msgs(),
                intra_socket_bytes: params.expected_intra_socket_bytes(m),
            };
            writeln!(w, "backend {backend}, {algo}, {} ranks, {m}-byte payloads", graph.n())?;
            write!(w, "{}", nhood_telemetry::model_check_report(&rec, &pred))?;
        }
        other => {
            return Err(fail(format!(
                "unknown --format '{other}' (csv | chrome | summary | model-check)"
            )));
        }
    }
    Ok(())
}

/// `nhood chaos <edge-list> [--algo ..] [--drops 0.01,0.05,0.1]
/// [--runs R] [--seed S] [--size BYTES] [--timeout MS] [layout flags]`
/// — sweep message-drop rates over seeded fault schedules on the
/// threaded executor and report, per rate, how many runs completed
/// cleanly, degraded to the naive fallback, or returned a typed error.
/// Any run returning buffers that differ from the MPI-semantics
/// reference is **corruption** and fails the command (nonzero exit).
pub fn cmd_chaos(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    use nhood_core::fault::FaultPlan;
    use nhood_core::RobustPolicy;
    use std::time::Duration;

    let path = args.pos(1).ok_or_else(|| fail("chaos: missing edge-list file"))?;
    let graph = load_topology(path)?;
    let layout = parse_layout(args, graph.n())?;
    let algo = parse_algo(args)?;
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

    let comm = DistGraphComm::create_adjacent(graph.clone(), layout)
        .map_err(|e| fail(e.to_string()))?
        .with_policy(RobustPolicy {
            recv_timeout: timeout,
            negotiation_timeout: timeout,
            ..RobustPolicy::default()
        });
    let shape = comm.plan(algo).map_err(|e| fail(e.to_string()))?;
    let payloads = test_payloads(graph.n(), m, seed);
    let want = reference_allgather(&graph, &payloads);
    writeln!(
        w,
        "chaos: {algo}, {} ranks, {} phases, peak fan-out {}/phase, {runs} runs per rate",
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
            let c = comm.clone().with_fault_plan(fp);
            let req = CollectiveRequest::allgather(&payloads)
                .algorithm(algo)
                .robust(true)
                .backend(ExecBackend::Threaded);
            match c.collective(&req) {
                Ok(out) => {
                    let report = out.report.expect("robust runs carry an execution report");
                    injected += report.faults.total_injected();
                    retries += report.faults.retries;
                    if out.rbufs != want {
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

    let path = args.pos(1).ok_or_else(|| fail("churn: missing edge-list file"))?;
    let graph = load_topology(path)?;
    let layout = parse_layout(args, graph.n())?;
    let events = args.get_parsed("events", 5usize)?;
    let seed = args.get_parsed("seed", 42u64)?;
    let m = parse_bytes(args.get("size").unwrap_or("32"))?;
    let timeout = Duration::from_millis(args.get_parsed("timeout", 5000u64)?);

    let mut comm = DistGraphComm::create_adjacent(graph.clone(), layout)
        .map_err(|e| fail(e.to_string()))?
        .with_policy(RobustPolicy {
            recv_timeout: timeout,
            negotiation_timeout: timeout,
            ..RobustPolicy::default()
        });

    // Warm-up: the cold build every later mutation is measured against.
    let t0 = Instant::now();
    comm.mutate(&[], &[]).map_err(|e| fail(e.to_string()))?;
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
        let rep = comm.mutate(&added, &removed).map_err(|e| fail(e.to_string()))?;
        let dt = t0.elapsed();
        let payloads = test_payloads(comm.n(), m, seed ^ e as u64);
        let want = reference_allgather(comm.graph(), &payloads);
        let live = comm.churn_plan().expect("mutate leaves a live plan");
        let got =
            Virtual.run_simple(live, comm.graph(), &payloads).map_err(|e| fail(e.to_string()))?;
        if got != want {
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
    let plan = comm.churn_plan().expect("warm-up built the live plan").clone();
    let link = plan.per_rank.iter().enumerate().find_map(|(r, prog)| {
        prog.iter().enumerate().find_map(|(k, ph)| {
            ph.sends
                .iter()
                .find(|msg| {
                    !comm.graph().has_edge(r, msg.peer) && !comm.graph().has_edge(msg.peer, r)
                })
                .map(|msg| (r, msg.peer, k))
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
                .algorithm(Algorithm::DistanceHalving)
                .robust(true)
                .backend(ExecBackend::Threaded);
            let out = drilled.collective(&req).map_err(|e| fail(e.to_string()))?;
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
    use nhood_service::{AdmissionConfig, Backend, Service, ServiceConfig, Verify};
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
    let backend = match args.get("backend").unwrap_or("virtual") {
        "virtual" => Backend::Virtual,
        "threaded" => Backend::Threaded,
        "sim" => Backend::Sim,
        other => return Err(fail(format!("unknown --backend '{other}' (virtual|threaded|sim)"))),
    };

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
        let comm =
            DistGraphComm::create_adjacent(graph, layout).map_err(|e| fail(e.to_string()))?;
        let comm = if t >= tenants - faulty {
            comm.with_fault_plan(
                FaultPlan::seeded(hash_mix(&[seed, 0xfa, t as u64]))
                    .with_message_drop(fault_drop.clamp(0.0, 1.0)),
            )
        } else {
            comm
        };
        svc.add_tenant_comm(comm, algo).map_err(|e| fail(e.to_string()))?;
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
        "serve: {tenants} tenant(s) ({faulty} fault-armed), {algo}, backend {}, \
         horizon {duration_ms} ms @ ~{inter_us} µs interarrival, batching {}",
        match backend {
            Backend::Virtual => "virtual",
            Backend::Threaded => "threaded",
            Backend::Sim => "sim",
        },
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Spec;

    const SPEC: Spec = Spec {
        valued: &[
            "n",
            "delta",
            "seed",
            "r",
            "d",
            "algo",
            "k",
            "leaders",
            "radix",
            "nodes",
            "sockets",
            "cores",
            "sizes",
            "size",
            "out",
            "save",
            "load",
            "drops",
            "runs",
            "events",
            "timeout",
            "backend",
            "format",
            "cost",
            "topology",
            "build-threads",
            "cache-dir",
            "load-metric",
            "block-sizes",
            "min-complete",
            "tenants",
            "duration-ms",
            "interarrival-us",
            "zipf",
            "faulty",
            "fault-drop",
            "churn-ms",
            "queue",
            "quota",
            "batch",
            "size-min",
            "size-max",
            "op",
            "reduce",
            "dtype",
        ],
        switches: &["ragged", "no-batch", "drill", "mixed"],
    };

    fn args(toks: &[&str]) -> Args {
        Args::parse(toks.iter().map(|s| s.to_string()), &SPEC).unwrap()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir().join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn algo_flag_accepts_portfolio_spellings() {
        let cases = [
            ("naive", Algorithm::Naive),
            ("dh", Algorithm::DistanceHalving),
            ("auto", Algorithm::Auto),
            ("bruck", Algorithm::Bruck),
            ("pat", Algorithm::Pat { radix: 4 }),
            ("pat:8", Algorithm::Pat { radix: 8 }),
            ("cn:3", Algorithm::CommonNeighbor { k: 3 }),
            ("leader:4", Algorithm::HierarchicalLeader { leaders_per_node: 4 }),
        ];
        for (spec, want) in cases {
            let got = parse_algo(&args(&["plan", "x.el", "--algo", spec])).unwrap();
            assert_eq!(got, want, "--algo {spec}");
        }
        // the flag forms still feed the parameterized algorithms
        let got = parse_algo(&args(&["plan", "x.el", "--algo", "pat", "--radix", "2"])).unwrap();
        assert_eq!(got, Algorithm::Pat { radix: 2 });
        // the inline form wins over the flag
        let got = parse_algo(&args(&["plan", "x.el", "--algo", "cn:5", "--k", "9"])).unwrap();
        assert_eq!(got, Algorithm::CommonNeighbor { k: 5 });
        for bad in ["dh:2", "auto:1", "pat:x", "frobnicate"] {
            assert!(parse_algo(&args(&["plan", "x.el", "--algo", bad])).is_err(), "{bad}");
        }
    }

    #[test]
    fn plan_and_run_accept_the_new_algorithms() {
        let path = tmp("nhood_cli_pr10.el");
        let mut out = Vec::new();
        cmd_gen(&args(&["gen", "er", &path, "--n", "32", "--delta", "0.3"]), &mut out).unwrap();
        for algo in ["bruck", "pat:2", "auto"] {
            let mut out = Vec::new();
            cmd_plan(&args(&["plan", &path, "--algo", algo]), &mut out).unwrap();
            let text = String::from_utf8_lossy(&out).to_string();
            assert!(text.contains("phases"), "--algo {algo}: {text}");
            let mut out = Vec::new();
            cmd_validate(&args(&["validate", &path, "--algo", algo]), &mut out).unwrap();
            let text = String::from_utf8_lossy(&out).to_string();
            assert!(text.contains("execution check: ok"), "--algo {algo}: {text}");
        }
        let mut out = Vec::new();
        cmd_recommend(&args(&["recommend", &path, "--size", "4K"]), &mut out).unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("recommended:"), "{text}");
        assert!(text.contains("bruck"), "portfolio listing must include bruck: {text}");
        assert!(text.contains("pat(r=4)"), "portfolio listing must include pat: {text}");
        assert!(text.contains("<-- recommended"), "{text}");
    }

    #[test]
    fn gen_plan_simulate_validate_pipeline() {
        let path = tmp("nhood_cli_test.el");
        let mut out = Vec::new();
        cmd_gen(&args(&["gen", "er", &path, "--n", "48", "--delta", "0.3"]), &mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).contains("48 ranks"));

        let mut out = Vec::new();
        cmd_plan(&args(&["plan", &path, "--algo", "dh"]), &mut out).unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("distance-halving"), "{text}");
        assert!(text.contains("selection:"), "{text}");

        let mut out = Vec::new();
        cmd_simulate(&args(&["simulate", &path, "--algo", "naive", "--sizes", "64,4K"]), &mut out)
            .unwrap();
        assert_eq!(String::from_utf8_lossy(&out).lines().count(), 3);

        let mut out = Vec::new();
        cmd_compare(&args(&["compare", &path, "--sizes", "64"]), &mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).contains("dh gain"));

        let mut out = Vec::new();
        cmd_validate(&args(&["validate", &path, "--algo", "cn", "--k", "4"]), &mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).contains("execution check: ok"));

        // cached planning: first call misses and stores, second hits disk
        let cache_dir = tmp("nhood_cli_cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        let mut out = Vec::new();
        cmd_plan(
            &args(&[
                "plan",
                &path,
                "--algo",
                "dh",
                "--build-threads",
                "2",
                "--cache-dir",
                &cache_dir,
            ]),
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&out).contains("miss (built and stored)"));
        let mut out = Vec::new();
        cmd_plan(&args(&["plan", &path, "--algo", "dh", "--cache-dir", &cache_dir]), &mut out)
            .unwrap();
        assert!(
            String::from_utf8_lossy(&out).contains("disk hit"),
            "{:?}",
            String::from_utf8_lossy(&out)
        );
        let _ = std::fs::remove_dir_all(&cache_dir);

        // plan persistence round trip
        let plan_path = tmp("nhood_cli_plan.bin");
        let mut out = Vec::new();
        cmd_plan(&args(&["plan", &path, "--algo", "dh", "--save", &plan_path]), &mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).contains("plan saved"));
        let mut out = Vec::new();
        cmd_simulate(&args(&["simulate", &path, "--load", &plan_path, "--sizes", "64"]), &mut out)
            .unwrap();
        assert_eq!(String::from_utf8_lossy(&out).lines().count(), 2);

        let mut out = Vec::new();
        cmd_recommend(&args(&["recommend", &path, "--size", "64"]), &mut out).unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("recommended:"), "{text}");
        assert!(text.contains("<-- recommended"), "{text}");

        let trace_path = tmp("nhood_cli_trace.csv");
        let mut out = Vec::new();
        cmd_trace(
            &args(&["trace", &path, "--algo", "dh", "--size", "1K", "--out", &trace_path]),
            &mut out,
        )
        .unwrap();
        let csv = std::fs::read_to_string(&trace_path).unwrap();
        assert!(csv.starts_with("src,dst,tag,bytes,level,posted,arrival"));
        assert!(csv.lines().count() > 10);
    }

    #[test]
    fn trace_formats_and_backends() {
        let path = tmp("nhood_cli_trace_fmt.el");
        let mut out = Vec::new();
        cmd_gen(&args(&["gen", "er", &path, "--n", "32", "--delta", "0.4"]), &mut out).unwrap();

        // chrome format, sim backend: valid JSON-looking timeline file
        let json_path = tmp("nhood_cli_trace.json");
        let mut out = Vec::new();
        cmd_trace(&args(&["trace", &path, "--format", "chrome", "--out", &json_path]), &mut out)
            .unwrap();
        assert!(String::from_utf8_lossy(&out).contains("span events"));
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'), "{json}");
        assert!(json.contains("thread_name"), "{json}");

        // summary and model-check on every backend
        for backend in ["virtual", "threaded", "sim"] {
            let mut out = Vec::new();
            cmd_trace(
                &args(&["trace", &path, "--backend", backend, "--format", "summary"]),
                &mut out,
            )
            .unwrap();
            let text = String::from_utf8_lossy(&out).to_string();
            assert!(text.contains("total"), "{backend}: {text}");

            let mut out = Vec::new();
            cmd_trace(
                &args(&["trace", &path, "--backend", backend, "--format", "model-check"]),
                &mut out,
            )
            .unwrap();
            let text = String::from_utf8_lossy(&out).to_string();
            assert!(text.contains("E[n_off]"), "{backend}: {text}");
            assert!(text.contains("predicted") && text.contains("measured"), "{backend}: {text}");
        }

        // invalid combinations fail typed
        let mut out = Vec::new();
        assert!(cmd_trace(
            &args(&["trace", &path, "--backend", "virtual", "--format", "csv"]),
            &mut out
        )
        .is_err());
        assert!(cmd_trace(
            &args(&["trace", &path, "--backend", "virtual", "--format", "chrome"]),
            &mut out
        )
        .is_err());
        assert!(cmd_trace(&args(&["trace", &path, "--format", "bogus"]), &mut out).is_err());
        assert!(cmd_trace(&args(&["trace", &path, "--backend", "bogus"]), &mut out).is_err());
    }

    #[test]
    fn cost_flag_is_shared_and_validated() {
        assert!(parse_cost(&args(&["x", "--cost", "niagara"])).is_ok());
        assert!(parse_cost(&args(&["x", "--cost", "classic"])).is_ok());
        let flat = parse_cost(&args(&["x", "--cost", "flat:1e-6:1e9"])).unwrap();
        assert_eq!(flat.net.cpu_overhead, None);
        assert!(parse_cost(&args(&["x", "--cost", "flat:1e-6"])).is_err());
        assert!(parse_cost(&args(&["x", "--cost", "flat:a:b"])).is_err());
        assert!(parse_cost(&args(&["x", "--cost", "flat:1:2:3"])).is_err());
        assert!(parse_cost(&args(&["x", "--cost", "hockney"])).is_err());

        // trace and simulate both honour it
        let path = tmp("nhood_cli_cost.el");
        let mut out = Vec::new();
        cmd_gen(&args(&["gen", "er", &path, "--n", "24", "--delta", "0.3"]), &mut out).unwrap();
        let mut fast = Vec::new();
        cmd_simulate(
            &args(&["simulate", &path, "--sizes", "4K", "--cost", "flat:1e-6:1e9"]),
            &mut fast,
        )
        .unwrap();
        let mut slow = Vec::new();
        cmd_simulate(
            &args(&["simulate", &path, "--sizes", "4K", "--cost", "flat:1e-3:1e6"]),
            &mut slow,
        )
        .unwrap();
        assert_ne!(fast, slow, "cost flag must change simulated latencies");
        let csv_path = tmp("nhood_cli_cost_trace.csv");
        let mut out = Vec::new();
        cmd_trace(&args(&["trace", &path, "--cost", "classic", "--out", &csv_path]), &mut out)
            .unwrap();
        assert!(std::fs::read_to_string(&csv_path).unwrap().starts_with("src,dst,tag"));
    }

    #[test]
    fn topology_flag_generates_torus_inline() {
        // simulate: --topology torus:2:4 = 16 ranks, no edge-list file
        let mut out = Vec::new();
        cmd_simulate(
            &args(&["simulate", "--topology", "torus:2:4", "--algo", "naive", "--sizes", "64"]),
            &mut out,
        )
        .unwrap();
        assert_eq!(String::from_utf8_lossy(&out).lines().count(), 2);

        // trace honours it through the same shared parsing as --cost
        let mut out = Vec::new();
        cmd_trace(
            &args(&[
                "trace",
                "--topology",
                "torus:2:4",
                "--format",
                "summary",
                "--cost",
                "classic",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("rank"), "{text}");

        // bad specs fail typed, not by panic
        for bad in ["ring:4", "torus:2", "torus:a:4", "torus:2:4:9", "torus:0:5", "torus:2:2"] {
            assert!(
                cmd_simulate(&args(&["simulate", "--topology", bad]), &mut Vec::new()).is_err(),
                "--topology {bad} must be rejected"
            );
        }
        // both an edge-list and the flag: ambiguous, rejected
        let path = tmp("nhood_cli_topo.el");
        cmd_gen(&args(&["gen", "er", &path, "--n", "16", "--delta", "0.3"]), &mut Vec::new())
            .unwrap();
        assert!(cmd_simulate(
            &args(&["simulate", &path, "--topology", "torus:2:4"]),
            &mut Vec::new()
        )
        .is_err());
        // neither: still the missing-file error
        assert!(cmd_simulate(&args(&["simulate"]), &mut Vec::new()).is_err());
    }

    #[test]
    fn chaos_reports_per_rate_outcomes() {
        let path = tmp("nhood_cli_chaos.el");
        let mut out = Vec::new();
        cmd_gen(&args(&["gen", "er", &path, "--n", "24", "--delta", "0.4"]), &mut out).unwrap();
        let mut out = Vec::new();
        cmd_chaos(
            &args(&[
                "chaos",
                &path,
                "--algo",
                "dh",
                "--drops",
                "0.0,0.05",
                "--runs",
                "2",
                "--seed",
                "7",
                "--timeout",
                "5000",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("no silent corruption"), "{text}");
        // one header + one banner + two rates + one verdict
        assert_eq!(text.lines().count(), 5, "{text}");
        // the zero-rate row must be all-ok
        let zero_row = text.lines().nth(2).unwrap();
        assert!(zero_row.trim_start().starts_with("0.000"), "{zero_row}");
        assert!(zero_row.contains(" 2 "), "{zero_row}");
    }

    #[test]
    fn churn_repairs_and_survives_link_down() {
        let path = tmp("nhood_cli_churn.el");
        let mut out = Vec::new();
        cmd_gen(&args(&["gen", "er", &path, "--n", "32", "--delta", "0.3"]), &mut out).unwrap();
        let mut out = Vec::new();
        cmd_churn(
            &args(&["churn", &path, "--events", "3", "--seed", "7", "--timeout", "5000"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("cold build"), "{text}");
        // banner + header + 3 events + drill lines
        assert!(text.lines().count() >= 6, "{text}");
        assert!(text.contains("surgical") || text.contains("rebuild"), "{text}");
        assert!(text.contains("recovered by repair") || text.contains("nothing to kill"), "{text}");
    }

    #[test]
    fn chaos_min_complete_gate_trips_on_impossible_bar() {
        let path = tmp("nhood_cli_chaos_gate.el");
        let mut out = Vec::new();
        cmd_gen(&args(&["gen", "er", &path, "--n", "16", "--delta", "0.4"]), &mut out).unwrap();
        // A full-drop schedule cannot complete; gating at 1.0 must fail
        // (typed error → nonzero exit from main).
        let mut out = Vec::new();
        let err = cmd_chaos(
            &args(&[
                "chaos",
                &path,
                "--drops",
                "1.0",
                "--runs",
                "1",
                "--timeout",
                "200",
                "--min-complete",
                "1.0",
            ]),
            &mut out,
        )
        .unwrap_err();
        assert!(err.0.contains("below --min-complete"), "{}", err.0);
        // The same sweep passes with the gate disabled (default 0.0).
        let mut out = Vec::new();
        cmd_chaos(
            &args(&["chaos", &path, "--drops", "1.0", "--runs", "1", "--timeout", "200"]),
            &mut out,
        )
        .unwrap();
    }

    #[test]
    fn run_covers_every_op_and_backend() {
        let path = tmp("nhood_cli_run.el");
        let mut out = Vec::new();
        cmd_gen(&args(&["gen", "er", &path, "--n", "24", "--delta", "0.3"]), &mut out).unwrap();
        for op in ["allgather", "allgatherv", "alltoallv", "reduce_scatter", "allreduce"] {
            for backend in ["virtual", "threaded", "sim"] {
                let mut out = Vec::new();
                cmd_run(
                    &args(&["run", &path, "--op", op, "--backend", backend, "--size", "64"]),
                    &mut out,
                )
                .unwrap();
                let text = String::from_utf8_lossy(&out).to_string();
                assert!(text.contains("run:"), "{op}/{backend}: {text}");
                if backend == "sim" {
                    assert!(text.contains("simulated makespan"), "{op}/{backend}: {text}");
                } else {
                    assert!(text.contains("verify: ok"), "{op}/{backend}: {text}");
                }
            }
        }
    }

    #[test]
    fn run_reduction_flags_and_typed_errors() {
        let path = tmp("nhood_cli_run_red.el");
        let mut out = Vec::new();
        cmd_gen(&args(&["gen", "er", &path, "--n", "16", "--delta", "0.4"]), &mut out).unwrap();
        // max/u32 verifies byte-exactly; sum/f32 skips the byte check.
        let mut out = Vec::new();
        cmd_run(
            &args(&[
                "run",
                &path,
                "--op",
                "allreduce",
                "--reduce",
                "max",
                "--dtype",
                "u32",
                "--size",
                "64",
            ]),
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&out).contains("verify: ok"));
        let mut out = Vec::new();
        cmd_run(
            &args(&["run", &path, "--op", "allreduce", "--dtype", "f32", "--size", "64"]),
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&out).contains("verify: skipped"));
        // bitor over f32 lanes is a typed rejection, as are bad flags.
        let mut out = Vec::new();
        let err = cmd_run(
            &args(&["run", &path, "--op", "allreduce", "--reduce", "bitor", "--dtype", "f32"]),
            &mut out,
        )
        .unwrap_err();
        assert!(err.0.contains("invalid reduction"), "{}", err.0);
        assert!(cmd_run(&args(&["run", &path, "--op", "bogus"]), &mut out).is_err());
        assert!(cmd_run(&args(&["run", &path, "--reduce", "bogus"]), &mut out).is_err());
        assert!(cmd_run(&args(&["run", &path, "--dtype", "bogus"]), &mut out).is_err());
        // combining ops reject non-combining planners typed
        let err = cmd_run(&args(&["run", &path, "--op", "alltoallv", "--algo", "cn"]), &mut out)
            .unwrap_err();
        assert!(err.0.contains("unsupported"), "{}", err.0);
    }

    #[test]
    fn serve_hosts_tenants_and_reports() {
        let mut out = Vec::new();
        cmd_serve(
            &args(&[
                "serve",
                "--tenants",
                "2",
                "--n",
                "12",
                "--duration-ms",
                "20",
                "--interarrival-us",
                "1000",
                "--seed",
                "5",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("serve: 2 tenant(s)"), "{text}");
        assert!(text.contains("submitted"), "{text}");
        assert!(text.contains("throughput"), "{text}");
        assert!(text.contains("corrupt 0"), "{text}");
    }

    #[test]
    fn serve_drill_enforces_the_acceptance_bar() {
        let mut out = Vec::new();
        cmd_serve(&args(&["serve", "--drill", "--seed", "11"]), &mut out).unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("fault-armed"), "{text}");
        assert!(text.contains("drill: completion"), "{text}");
        assert!(text.contains("ok"), "{text}");
    }

    #[test]
    fn load_metric_and_ragged_flags() {
        let path = tmp("nhood_cli_ragged.el");
        let mut out = Vec::new();
        cmd_gen(&args(&["gen", "er", &path, "--n", "32", "--delta", "0.3"]), &mut out).unwrap();

        // byte-weighted planning with an explicit ragged size table
        let mut out = Vec::new();
        cmd_plan(
            &args(&[
                "plan",
                &path,
                "--algo",
                "dh",
                "--load-metric",
                "bytes",
                "--block-sizes",
                "1K,64,0",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("load metric:      bytes"), "{text}");

        // the metric line stays silent under the default
        let mut out = Vec::new();
        cmd_plan(&args(&["plan", &path, "--algo", "dh"]), &mut out).unwrap();
        assert!(!String::from_utf8_lossy(&out).contains("load metric"));

        // ragged validation runs allgatherv against the reference
        for metric in ["neighbors", "bytes"] {
            let mut out = Vec::new();
            cmd_validate(
                &args(&["validate", &path, "--algo", "dh", "--load-metric", metric, "--ragged"]),
                &mut out,
            )
            .unwrap();
            let text = String::from_utf8_lossy(&out).to_string();
            assert!(text.contains("ragged check:    ok"), "{metric}: {text}");
        }

        // bad flag values fail typed
        let mut out = Vec::new();
        assert!(cmd_plan(&args(&["plan", &path, "--load-metric", "bogus"]), &mut out).is_err());
        assert!(cmd_plan(&args(&["plan", &path, "--block-sizes", ""]), &mut out).is_err());
    }

    #[test]
    fn gen_moore_and_vonneumann() {
        for kind in ["moore", "vonneumann"] {
            let path = tmp(&format!("nhood_cli_{kind}.el"));
            let mut out = Vec::new();
            cmd_gen(&args(&["gen", kind, &path, "--n", "64", "--r", "1", "--d", "2"]), &mut out)
                .unwrap();
            let g = load_topology(&path).unwrap();
            assert_eq!(g.n(), 64);
            assert!(g.is_symmetric());
        }
    }

    #[test]
    fn errors_are_reported() {
        let mut out = Vec::new();
        assert!(cmd_gen(&args(&["gen", "er", "/tmp/x.el", "--n", "8"]), &mut out).is_err()); // no delta
        assert!(cmd_gen(&args(&["gen", "bogus", "/tmp/x.el"]), &mut out).is_err());
        // an impossible Moore grid reports typed instead of panicking
        let bad = cmd_gen(
            &args(&["gen", "moore", "/tmp/x.el", "--n", "2048", "--r", "22", "--d", "2"]),
            &mut out,
        );
        assert!(bad.unwrap_err().0.contains("no 2-D grid"));
        assert!(cmd_plan(&args(&["plan", "/nonexistent.el"]), &mut out).is_err());
        // delta range check
        assert!(cmd_gen(
            &args(&["gen", "er", "/tmp/x.el", "--n", "8", "--delta", "1.5"]),
            &mut out
        )
        .is_err());
        // layout too small
        let path = tmp("nhood_cli_small.el");
        cmd_gen(&args(&["gen", "er", &path, "--n", "48", "--delta", "0.2"]), &mut out).unwrap();
        assert!(
            cmd_plan(&args(&["plan", &path, "--nodes", "1", "--cores", "2"]), &mut out).is_err()
        );
    }
}
