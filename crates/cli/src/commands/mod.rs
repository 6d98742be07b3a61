//! The `nhood` subcommands, written against `impl Write` so tests can
//! capture their output. This module holds the flag parsers every
//! command shares; the commands live in one file per family — `plan`
//! (generate, plan, simulate: the priced listing), `run` (one checked
//! collective end to end: run, trace) and `drill` (the robustness
//! drills and the service: chaos, churn, serve).

mod drill;
mod plan;
mod run;

pub use drill::{cmd_chaos, cmd_churn, cmd_serve};
pub use plan::{cmd_gen, cmd_plan, cmd_simulate};
pub use run::{cmd_run, cmd_trace};

use crate::args::{parse_bytes, ArgError, Args};
use nhood_cluster::{ClusterLayout, HockneyParams};
use nhood_core::{Algorithm, BlockSizes, ExecBackend, LoadMetric, SimCost};
use nhood_simnet::{NicMode, SimConfig};
use nhood_topology::io::read_edge_list;
use nhood_topology::Topology;

/// Subcommand failure: message plus a suggestion to run `--help`.
pub fn fail(msg: impl Into<String>) -> ArgError {
    ArgError(msg.into())
}

impl From<std::io::Error> for ArgError {
    fn from(e: std::io::Error) -> Self {
        ArgError(format!("I/O error: {e}"))
    }
}

/// Library errors surface as their one-line rendering, so commands
/// propagate them with `?`.
macro_rules! render_as_arg_error {
    ($($err:ty),*) => {$(
        impl From<$err> for ArgError {
            fn from(e: $err) -> Self {
                ArgError(e.to_string())
            }
        }
    )*};
}
render_as_arg_error!(nhood_core::CommError, nhood_core::ExecError, nhood_simnet::SimError);

/// Parses one arm: `naive`, `dh`, `cn[:K]`, `leader[:L]`, `bruck`,
/// `pat[:R]` or `auto`. A parameterized arm's knob is inline; bare `cn`,
/// `leader` and `pat` take K = 8, L = 2 and R = 4.
pub fn parse_arm(spec: &str) -> Result<Algorithm, ArgError> {
    let (name, param) = match spec.split_once(':') {
        Some((name, p)) => (name, Some(p)),
        None => (spec, None),
    };
    let knob = |default: usize| -> Result<usize, ArgError> {
        param.map_or(Ok(default), |p| {
            p.parse().map_err(|_| fail(format!("--algo {name}:{p}: '{p}' is not a count")))
        })
    };
    let bare = |algo: Algorithm| match param {
        Some(p) => Err(fail(format!("--algo {name} takes no ':{p}' parameter"))),
        None => Ok(algo),
    };
    match name {
        "naive" => bare(Algorithm::Naive),
        "dh" => bare(Algorithm::DistanceHalving),
        "auto" => bare(Algorithm::Auto),
        "bruck" => bare(Algorithm::Bruck),
        "cn" => Ok(Algorithm::CommonNeighbor { k: knob(8)? }),
        "pat" => Ok(Algorithm::Pat { radix: knob(4)? }),
        "leader" => Ok(Algorithm::HierarchicalLeader { leaders_per_node: knob(2)? }),
        other => Err(fail(format!(
            "unknown --algo '{other}' (naive | dh | cn[:K] | leader[:L] | bruck | pat[:R] | auto)"
        ))),
    }
}

/// The `--algo` spelling of an arm, the inverse of [`parse_arm`] (the
/// library's `Display` names are keys of checked-in files and stay).
pub fn arm_spelling(algo: Algorithm) -> String {
    match algo {
        Algorithm::Naive => "naive".into(),
        Algorithm::DistanceHalving => "dh".into(),
        Algorithm::Auto => "auto".into(),
        Algorithm::Bruck => "bruck".into(),
        Algorithm::CommonNeighbor { k } => format!("cn:{k}"),
        Algorithm::Pat { radix } => format!("pat:{radix}"),
        Algorithm::HierarchicalLeader { leaders_per_node } => format!("leader:{leaders_per_node}"),
    }
}

/// Parses the `--algo` flag of a command that runs one arm (default `dh`).
pub fn parse_algo(args: &Args) -> Result<Algorithm, ArgError> {
    parse_arm(args.get("algo").unwrap_or("dh"))
}

/// Parses `simulate`'s `--algo`, a comma-separated list of arms.
pub fn parse_arms(args: &Args) -> Result<Vec<Algorithm>, ArgError> {
    args.get("algo").unwrap_or("dh").split(',').map(parse_arm).collect()
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
/// sized to fit `n` ranks at 2×8 per node); a zero count, or a rank count
/// that overflows, is refused.
pub fn parse_layout(args: &Args, n: usize) -> Result<ClusterLayout, ArgError> {
    let sockets = args.get_parsed("sockets", 2usize)?;
    let cores = args.get_parsed("cores", 8usize)?;
    let per_node = sockets.checked_mul(cores).filter(|&p| p > 0);
    let nodes = args.get_parsed("nodes", per_node.map_or(1, |p| n.div_ceil(p).max(1)))?;
    let shape = format!("layout {nodes}x{sockets}x{cores}");
    match per_node.and_then(|p| p.checked_mul(nodes)) {
        _ if nodes == 0 || sockets == 0 || cores == 0 => {
            Err(fail(format!("{shape}: --nodes, --sockets and --cores must be at least 1")))
        }
        None => Err(fail(format!("{shape}: the rank count overflows"))),
        Some(ranks) if ranks < n => Err(fail(format!("{shape} holds {ranks} ranks, need {n}"))),
        Some(_) => Ok(ClusterLayout::new(nodes, sockets, cores)),
    }
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
            let choices = "niagara | classic | flat:ALPHA:BETA";
            let (alpha, beta) = two_numbers("cost", spec, "flat:ALPHA:BETA", choices)?;
            Ok(SimCost {
                net: SimConfig::classic(HockneyParams::flat(alpha, beta), NicMode::Off),
                memcpy_bytes_per_sec: f64::INFINITY,
            })
        }
    }
}

/// The two numbers of a `--FLAG KIND:A:B` value, `form` naming its kind
/// and fields (`flat:ALPHA:BETA`); a value of another kind is refused
/// with the flag's `choices`, a missing, bad or extra field by name.
fn two_numbers<T>(flag: &str, spec: &str, form: &str, choices: &str) -> Result<(T, T), ArgError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let mut names = form.split(':');
    let mut it = spec.split(':');
    if it.next() != names.next() {
        return Err(fail(format!("unknown --{flag} '{spec}' ({choices})")));
    }
    let mut num = |name: &str| -> Result<T, ArgError> {
        it.next()
            .ok_or_else(|| fail(format!("--{flag} {form} is missing {name}")))?
            .parse::<T>()
            .map_err(|e| fail(format!("bad {name} in --{flag} '{spec}': {e}")))
    };
    let (a, b) = (num(names.next().expect("A"))?, num(names.next().expect("B"))?);
    if it.next().is_some() {
        return Err(fail(format!("--{flag} '{spec}' has trailing fields")));
    }
    Ok((a, b))
}

/// Parses the `--backend` flag (`virtual | threaded | sim`) shared by
/// `run`, `trace` and `serve`, each with its own default.
pub fn parse_backend(args: &Args, default: ExecBackend) -> Result<ExecBackend, ArgError> {
    match args.get("backend") {
        Some(spec) => spec.parse().map_err(|e| fail(format!("--backend: {e}"))),
        None => Ok(default),
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
    let (d, k) = two_numbers("topology", spec, "torus:D:K", "torus:D:K")?;
    nhood_topology::torus::try_torus(nhood_topology::TorusSpec { d, k })
        .map_err(|e| fail(e.to_string()))
}

/// The topology `cmd` runs on — the edge-list positional, or a graph
/// generated inline by `--topology torus:D:K` — and the layout its rank
/// count implies under the layout flags.
pub fn topology_and_layout(args: &Args, cmd: &str) -> Result<(Topology, ClusterLayout), ArgError> {
    let graph = match (args.get("topology"), args.pos(1)) {
        (Some(_), Some(_)) => {
            return Err(fail(format!("{cmd}: pass an edge-list file or --topology, not both")))
        }
        (Some(spec), None) => parse_topology_spec(spec)?,
        (None, Some(path)) => load_topology(path)?,
        (None, None) => {
            return Err(fail(format!("{cmd}: missing edge-list file (or --topology torus:D:K)")))
        }
    };
    let layout = parse_layout(args, graph.n())?;
    Ok((graph, layout))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SPEC;

    fn args(toks: &[&str]) -> Args {
        Args::parse(toks.iter().map(|s| s.to_string()), &SPEC).unwrap()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir().join(name).to_string_lossy().into_owned()
    }

    /// The output of `cmd` on `argv`.
    fn output(
        cmd: fn(&Args, &mut Vec<u8>) -> Result<(), ArgError>,
        argv: &[&str],
    ) -> Result<String, ArgError> {
        let mut out = Vec::new();
        cmd(&args(argv), &mut out).map(|()| String::from_utf8(out).unwrap())
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
            ("cn", Algorithm::CommonNeighbor { k: 8 }),
            ("cn:3", Algorithm::CommonNeighbor { k: 3 }),
            ("leader", Algorithm::HierarchicalLeader { leaders_per_node: 2 }),
            ("leader:4", Algorithm::HierarchicalLeader { leaders_per_node: 4 }),
        ];
        for (spec, want) in cases {
            let got = parse_algo(&args(&["plan", "x.el", "--algo", spec])).unwrap();
            assert_eq!(got, want, "--algo {spec}");
        }
        // each arm has one spelling: the knob is inline, never a flag,
        // and the long names are Display's, not the parser's
        for flag in ["--k", "--leaders", "--radix", "--ragged"] {
            let argv = ["plan", "x.el", "--algo", "cn", flag, "4"];
            let e = Args::parse(argv.map(String::from), &SPEC).unwrap_err();
            assert_eq!(e.0, format!("unknown flag {flag}"));
        }
        for bad in [
            "dh:2",
            "auto:1",
            "pat:x",
            "frobnicate",
            "distance-halving",
            "common-neighbor",
            "hierarchical-leader",
            "",
        ] {
            assert!(parse_algo(&args(&["plan", "x.el", "--algo", bad])).is_err(), "{bad}");
        }
        // simulate's list of arms, in the order given
        let arms = parse_arms(&args(&["simulate", "x.el", "--algo", "naive,cn:8,dh"])).unwrap();
        let want =
            [Algorithm::Naive, Algorithm::CommonNeighbor { k: 8 }, Algorithm::DistanceHalving];
        assert_eq!(arms, want);
        assert!(parse_arms(&args(&["simulate", "x.el", "--algo", "naive,,dh"])).is_err());
    }

    /// Every arm the tuner can list, and `auto`, prints as `--algo`
    /// spells it: its spelling parses back to the arm.
    #[test]
    fn every_listed_arm_is_spelled_as_algo_parses_it() {
        // dense, multi-node, 1-byte blocks: PAT's regime and the node arms
        let graph = nhood_topology::random::erdos_renyi(32, 0.9, 7);
        let layout = ClusterLayout::new(4, 2, 4);
        let portfolio = nhood_core::autotune::candidates(&graph, &layout, &BlockSizes::uniform(1));
        assert!(portfolio.contains(&Algorithm::Pat { radix: 2 }), "{portfolio:?}");
        assert!(portfolio.contains(&Algorithm::Bruck), "{portfolio:?}");
        for arm in portfolio.into_iter().chain([Algorithm::Auto]) {
            let spelled = arm_spelling(arm);
            assert_eq!(parse_arm(&spelled).unwrap(), arm, "{spelled}");
        }
    }

    #[test]
    fn plan_and_run_accept_the_new_algorithms() {
        let path = tmp("nhood_cli_pr10.el");
        output(cmd_gen, &["gen", "er", &path, "--n", "32", "--delta", "0.3"]).unwrap();
        // PAT left the tuner's portfolio but stays callable by name
        for algo in ["bruck", "pat", "pat:2", "auto"] {
            let text = output(cmd_plan, &["plan", &path, "--algo", algo]).unwrap();
            assert!(text.contains("phases"), "--algo {algo}: {text}");
            for op in ["allgather", "allgatherv"] {
                let argv = ["run", &path, "--op", op, "--algo", algo, "--size", "64"];
                let text = output(cmd_run, &argv).unwrap();
                assert!(text.contains("verify: ok"), "--op {op} --algo {algo}: {text}");
            }
        }
    }

    /// `simulate --algo auto` is the tuner's pass at each size: the listed
    /// arms are [`nhood_core::autotune::candidates`] in order, each latency
    /// is `tune()`'s score to the bit, and the marked arm is its winner —
    /// on a sparse multi-node graph, in PAT's dense regime and on one node.
    #[test]
    fn the_auto_listing_is_the_tuners_pass() {
        let graphs: [(&str, &str, &[&str]); 3] = [
            ("nhood_cli_auto_sparse.el", "0.3", &[]),
            ("nhood_cli_auto_dense.el", "0.9", &[]),
            ("nhood_cli_auto_node.el", "0.3", &["--nodes", "1", "--sockets", "2", "--cores", "16"]),
        ];
        let mut pat_listed = false;
        for (name, delta, layout_flags) in graphs {
            let path = tmp(name);
            let gen = ["gen", "er", &path, "--n", "32", "--delta", delta, "--seed", "7"];
            output(cmd_gen, &gen).unwrap();
            let argv =
                [&["simulate", &path, "--algo", "auto", "--sizes", "1,8,32,4K"], layout_flags]
                    .concat();
            let rows = plan::listing(&args(&argv)).unwrap();
            let text = output(cmd_simulate, &argv).unwrap();
            assert_eq!(text.matches("<-- best").count(), 4, "{text}");
            let (graph, layout) = topology_and_layout(&args(&argv), "simulate").unwrap();
            for m in [1, 8, 32, 4 << 10] {
                let sizes = BlockSizes::uniform(m);
                let portfolio = nhood_core::autotune::candidates(&graph, &layout, &sizes);
                let comm =
                    nhood_core::DistGraphComm::create_adjacent(graph.clone(), layout.clone())
                        .unwrap()
                        .with_block_sizes(sizes);
                let tuned = comm.tune().unwrap();
                let at: Vec<_> = rows.iter().filter(|row| row.m == m).collect();
                let listed: Vec<Algorithm> = at.iter().map(|row| row.arm).collect();
                assert_eq!(listed, portfolio, "{name} m={m}");
                let scores: Vec<(Algorithm, u64)> =
                    at.iter().map(|row| (row.arm, row.report.makespan.to_bits())).collect();
                let tuner: Vec<(Algorithm, u64)> =
                    tuned.scores.iter().map(|&(arm, t)| (arm, t.to_bits())).collect();
                assert_eq!(scores, tuner, "{name} m={m}");
                let marked: Vec<Algorithm> =
                    at.iter().filter(|row| row.best).map(|row| row.arm).collect();
                assert_eq!(marked, [tuned.winner], "{name} m={m}");
                pat_listed |= listed.iter().any(|arm| matches!(arm, Algorithm::Pat { .. }));
            }
            if !layout_flags.is_empty() {
                assert_eq!(layout.nodes(), 1);
                assert!(!rows.iter().any(|row| row.arm == Algorithm::Bruck), "one node: {text}");
            }
        }
        assert!(pat_listed, "the dense graph at m <= 8 lists PAT");
    }

    #[test]
    fn gen_plan_simulate_run_pipeline() {
        let path = tmp("nhood_cli_test.el");
        let mut out = Vec::new();
        cmd_gen(&args(&["gen", "er", &path, "--n", "48", "--delta", "0.3"]), &mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).contains("48 ranks"));

        let mut out = Vec::new();
        cmd_plan(&args(&["plan", &path, "--algo", "dh"]), &mut out).unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("distance-halving"), "{text}");
        assert!(text.contains("selection:"), "{text}");

        // one arm at two sizes: a header and a marked row per size
        let text =
            output(cmd_simulate, &["simulate", &path, "--algo", "naive", "--sizes", "64,4K"])
                .unwrap();
        assert_eq!(text.lines().count(), 3, "{text}");
        assert_eq!(text.matches("<-- best").count(), 2, "{text}");

        // three arms at one size: a row each, in the order given, one marked
        let argv = ["simulate", &path, "--algo", "naive,cn:8,dh", "--sizes", "64"];
        let text = output(cmd_simulate, &argv).unwrap();
        let arms: Vec<&str> =
            text.lines().skip(1).map(|l| l.split_whitespace().nth(1).unwrap()).collect();
        assert_eq!(arms, ["naive", "cn:8", "dh"], "{text}");
        assert_eq!(text.matches("<-- best").count(), 1, "{text}");

        let text = output(cmd_run, &["run", &path, "--algo", "cn:4"]).unwrap();
        assert!(text.contains("verify: ok"), "{text}");

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
        // a loaded plan is priced alone, whatever --algo says
        let loaded =
            ["simulate", &path, "--load", &plan_path, "--algo", "naive,cn", "--sizes", "64"];
        let text = output(cmd_simulate, &loaded).unwrap();
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.contains(" dh ") && text.contains("<-- best"), "{text}");
        // a file of an older format generation is a typed error, not a plan
        std::fs::write(&plan_path, [&b"NHPLAN1\0"[..], &[0; 32]].concat()).unwrap();
        let loaded = ["simulate", &path, "--load", &plan_path, "--sizes", "64"];
        let err = cmd_simulate(&args(&loaded), &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");

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
        let mut summaries = Vec::new();
        for backend in ["virtual", "threaded", "sim"] {
            let mut out = Vec::new();
            cmd_trace(
                &args(&["trace", &path, "--backend", backend, "--format", "summary"]),
                &mut out,
            )
            .unwrap();
            let text = String::from_utf8_lossy(&out).to_string();
            assert!(text.contains("total") && text.contains("locality:"), "{backend}: {text}");
            summaries.push(text);

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
        // the simulator replays the plan's messages: its per-rank
        // msgs / bytes out and in and its locality split are the virtual run's
        let traffic = |text: &str| -> Vec<String> {
            let columns = |l: &str| l.split_whitespace().take(5).collect::<Vec<_>>().join(" ");
            let line = |l: &str| if l.starts_with("locality:") { l.into() } else { columns(l) };
            text.lines().map(line).collect()
        };
        assert_eq!(traffic(&summaries[2]), traffic(&summaries[0]));

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
    fn a_bad_cost_model_is_a_typed_error() {
        let path = tmp("nhood_cli_bad_cost.el");
        let mut out = Vec::new();
        cmd_gen(&args(&["gen", "er", &path, "--n", "32", "--delta", "0.3"]), &mut out).unwrap();
        for (cost, field) in [
            ("flat:NaN:1e9", "alpha = NaN"),
            ("flat:1e-6:0", "bytes_per_sec = 0"),
            ("flat:-1:1e9", "alpha = -1"),
        ] {
            let argv = ["simulate", &path, "--algo", "dh", "--nodes", "2", "--sockets", "2"];
            let argv = [&argv[..], &["--cores", "8", "--sizes", "64,0", "--cost", cost]].concat();
            let e = cmd_simulate(&args(&argv), &mut Vec::new()).unwrap_err().to_string();
            assert!(e.contains("invalid cost model") && e.contains(field), "{cost}: {e}");
        }
    }

    #[test]
    fn the_listing_honours_the_cost_flag() {
        let path = tmp("nhood_cli_listing_cost.el");
        output(cmd_gen, &["gen", "er", &path, "--n", "32", "--delta", "0.3"]).unwrap();
        let listing = |algo: &str, cost: Option<&str>| {
            let argv = ["simulate", &path, "--algo", algo, "--sizes", "64"];
            let argv = [&argv[..], &cost.map_or(vec![], |c| vec!["--cost", c])].concat();
            output(cmd_simulate, &argv)
        };
        // the default is Niagara's numbers; another model prints its own
        let niagara = listing("naive,cn,dh", None).unwrap();
        assert_eq!(listing("naive,cn,dh", Some("niagara")).unwrap(), niagara);
        let flat = listing("naive,cn,dh", Some("flat:1e-6:1e9")).unwrap();
        assert_ne!(flat, niagara);
        // a flat model at α = 1 µs costs every message at least that
        let latency = |row: &str| -> f64 {
            row.split_whitespace().nth(2).unwrap().trim_end_matches("us").parse().unwrap()
        };
        assert!(flat.lines().skip(1).all(|row| latency(row) >= 1.0), "{flat}");
        // the tuner's portfolio prices under any model, one arm marked
        for cost in ["classic", "flat:1e-6:1e9"] {
            let text = listing("auto", Some(cost)).unwrap();
            assert_eq!(text.matches("<-- best").count(), 1, "{cost}: {text}");
        }
        // ... and a bad model is a typed error
        let e = listing("auto", Some("flat:1e-6:0")).unwrap_err().to_string();
        assert!(e.contains("invalid cost model") && e.contains("bytes_per_sec = 0"), "{e}");
        let _ = std::fs::remove_file(&path);
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
        // every planner routes items; PAT's reduce ops are the typed refusal
        let mut out = Vec::new();
        cmd_run(&args(&["run", &path, "--op", "alltoallv", "--algo", "cn"]), &mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).contains("verify: ok"));
        let err = cmd_run(&args(&["run", &path, "--op", "allreduce", "--algo", "pat"]), &mut out)
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

        // a ragged allgatherv (zero-length blocks included) and a uniform
        // allgather run against the reference under either metric
        for metric in ["neighbors", "bytes"] {
            for op in ["allgather", "allgatherv"] {
                let argv = ["run", &path, "--op", op, "--algo", "dh", "--load-metric", metric];
                let text = output(cmd_run, &argv).unwrap();
                assert!(text.contains("verify: ok"), "{metric} {op}: {text}");
            }
        }
        assert!(output(cmd_run, &["run", &path, "--load-metric", "bogus"]).is_err());

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

    #[test]
    fn a_zero_or_overflowing_layout_is_a_typed_error() {
        let path = tmp("nhood_cli_layout.el");
        output(cmd_gen, &["gen", "er", &path, "--n", "16", "--delta", "0.3"]).unwrap();
        let huge = "4294967296";
        for (flags, why) in [
            (&["--sockets", "0"][..], "must be at least 1"),
            (&["--cores", "0"], "must be at least 1"),
            (&["--nodes", "0"], "must be at least 1"),
            (&["--sockets", huge, "--cores", huge], "overflows"),
            (&["--nodes", huge, "--sockets", huge, "--cores", "2"], "overflows"),
        ] {
            let argv = [&["plan", &path][..], flags].concat();
            let e = output(cmd_plan, &argv).unwrap_err().0;
            assert!(e.starts_with("layout ") && e.contains(why), "{flags:?}: {e}");
            let argv = [&["simulate", &path, "--sizes", "64"][..], flags].concat();
            assert!(output(cmd_simulate, &argv).is_err(), "{flags:?}");
        }
        // the smallest layout that holds every rank still plans
        let one = ["plan", &path, "--nodes", "16", "--sockets", "1", "--cores", "1"];
        assert!(output(cmd_plan, &one).unwrap().contains("ranks:            16"));
    }
}
