//! One collective end to end: `run` executes any op through the
//! request API and checks it against the op's naive reference; `trace`
//! runs an allgather under a telemetry recorder and exports what it saw.

use super::arm_spelling;
use super::{fail, parse_algo, parse_backend, parse_cost, parse_load_metric, topology_and_layout};
use crate::args::{parse_bytes, ArgError, Args};
use nhood_core::collective::matches_reference;
use nhood_core::exec::sim_exec::to_schedule_v;
use nhood_core::exec::virtual_exec::test_payloads;
use nhood_core::exec::{ExecOptions, Executor, Threaded, Virtual};
use nhood_core::{
    BlockArena, CollectiveOp, CollectiveRequest, DType, DistGraphComm, ExecBackend, ReduceOp,
    Reduction,
};
use nhood_simnet::{Engine, PriceColumns};
use nhood_telemetry::{CountingRecorder, ModelPrediction, Recorder, SpanRecorder};
use nhood_topology::Topology;
use std::io::Write;

/// Parses `--op` (plus `--reduce sum|max|bitor` and `--dtype
/// u8|u32|f32` for the reducing ops; defaults: Sum over u8 lanes). The
/// reduction flags are validated even for non-reducing ops so a typo
/// never passes silently.
pub fn parse_op(args: &Args) -> Result<CollectiveOp, ArgError> {
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
    let red = Reduction::new(op, dtype);
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

/// `bytes` rounded up to whole lanes of `op`'s reduction (u32 / f32
/// blocks cannot split one).
pub fn whole_lanes(op: CollectiveOp, bytes: usize) -> usize {
    bytes.next_multiple_of(op.reduction().map_or(1, |red| red.dtype.lane_bytes()))
}

/// Deterministic send buffers shaped for `op`: flat `m`-byte blocks for
/// allgather/allreduce, ragged per-rank lengths (zeros included) for
/// allgatherv, out-degree-scaled concatenations for alltoallv and
/// reduce_scatter.
pub fn shaped_payloads(graph: &Topology, op: CollectiveOp, m: usize, seed: u64) -> Vec<Vec<u8>> {
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
/// [--backend virtual|threaded|sim] [--load-metric neighbors|bytes]
/// [layout flags]` — run one collective end-to-end through the
/// op-agnostic request API ([`DistGraphComm::collective`]; a plan that
/// fails its check is a typed `InvalidPlan`), byte-check it against the
/// op's naive reference (allgatherv's blocks are ragged, empty ones
/// included) and report message/byte counters (or the simulated
/// makespan under `--backend sim`). f32 reductions skip the byte check:
/// fold order differs between engine and reference.
pub fn cmd_run(args: &Args, w: &mut impl Write) -> Result<(), ArgError> {
    let (graph, layout) = topology_and_layout(args, "run")?;
    let algo = parse_algo(args)?;
    let op = parse_op(args)?;
    let m = whole_lanes(op, parse_bytes(args.get("size").unwrap_or("1K"))?);
    let backend = parse_backend(args, ExecBackend::Virtual)?;
    let seed = args.get_parsed("seed", 42u64)?;
    let metric = parse_load_metric(args)?;
    let payloads = shaped_payloads(&graph, op, m, seed);
    let comm = DistGraphComm::create_adjacent(graph.clone(), layout)?.with_load_metric(metric);
    let rec = CountingRecorder::new(graph.n());
    let req = CollectiveRequest::new(op, &payloads).algorithm(algo).backend(backend).recorder(&rec);
    let out = comm.collective(&req)?;
    writeln!(w, "run: {op} via {}, {} ranks, {m}-byte blocks", arm_spelling(algo), graph.n())?;
    if let Some(sim) = &out.sim {
        writeln!(w, "simulated makespan: {:.2} us", sim.makespan * 1e6)?;
    }
    let skip_f32 = op.reduction().is_some_and(|red| red.dtype == DType::F32);
    if backend != ExecBackend::Sim || !out.rbufs.is_empty() {
        if skip_f32 {
            writeln!(w, "verify: skipped (f32 fold order differs from the reference)")?;
        } else {
            if !matches_reference(&graph, op, &payloads, None, &out.rbufs)? {
                return Err(fail("output mismatch against the op's naive reference"));
            }
            writeln!(w, "verify: ok (matches the naive reference)")?;
        }
    }
    let counts = rec.counts().unwrap_or_default();
    writeln!(w, "messages sent: {}, bytes sent: {}", counts.msgs_sent, counts.bytes_sent)?;
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
    let (graph, layout) = topology_and_layout(args, "trace")?;
    let algo = parse_algo(args)?;
    let m = parse_bytes(args.get("size").unwrap_or("4K"))?;
    let cost = parse_cost(args)?;
    let backend = parse_backend(args, ExecBackend::Sim)?;
    let format = args.get("format").unwrap_or("csv");
    let comm = DistGraphComm::create_adjacent(graph.clone(), layout.clone())?;
    let plan = comm.plan_shared(algo)?;

    let engine = Engine::new(&layout, cost.net);
    let schedule = || to_schedule_v(&plan, &vec![m; plan.n()], &cost);
    // Runs the chosen backend once with `rec` observing it.
    let run_backend = |rec: &dyn Recorder| -> Result<(), ArgError> {
        let exec: &dyn Executor = match backend {
            // the simulator replays the schedule at `m`, moving no bytes
            ExecBackend::Sim => {
                let s = schedule();
                let prices = PriceColumns::from(&s);
                engine.run_prepared(&engine.prepare(&s)?, &prices, None, Some(rec))?;
                return Ok(());
            }
            ExecBackend::Threaded => &Threaded,
            ExecBackend::Virtual => &Virtual,
        };
        let payloads = test_payloads(graph.n(), m, 0xC0FFEE);
        let opts = ExecOptions::new().recorder(rec);
        exec.run(&plan, &graph, &payloads, &mut BlockArena::new(), &opts)?;
        Ok(())
    };
    let counting = || {
        let socket_of = (0..graph.n()).map(|r| layout.socket_index(r)).collect();
        CountingRecorder::with_sockets(socket_of)
    };

    match format {
        "csv" => {
            if backend != ExecBackend::Sim {
                return Err(fail("--format csv needs --backend sim (simulated timestamps)"));
            }
            let (report, traces) = engine.run_traced(&schedule())?;
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
            if backend == ExecBackend::Virtual {
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
                intra_socket_bytes: params.expected_intra_socket_bytes(m as f64),
            };
            let arm = arm_spelling(algo);
            writeln!(w, "backend {backend}, {arm}, {} ranks, {m}-byte payloads", graph.n())?;
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
