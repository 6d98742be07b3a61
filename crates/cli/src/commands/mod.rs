//! The `nhood` subcommands, written against `impl Write` so tests can
//! capture their output. This module holds the flag parsers every
//! command shares; the commands live in one file per family — `plan`
//! (generate, plan, simulate, compare, validate, recommend), `run`
//! (one collective end to end: run, trace) and `drill` (the robustness
//! drills and the service: chaos, churn, serve).

mod drill;
mod plan;
mod run;

pub use drill::{cmd_chaos, cmd_churn, cmd_serve};
pub use plan::{cmd_compare, cmd_gen, cmd_plan, cmd_recommend, cmd_simulate, cmd_validate};
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

/// Parses the `--cost` flag shared by `simulate`, `compare` and `trace`:
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

/// The edge-list positional of `cmd` and the layout its rank count
/// implies under the layout flags.
pub fn edge_list_and_layout(args: &Args, cmd: &str) -> Result<(Topology, ClusterLayout), ArgError> {
    let path = args.pos(1).ok_or_else(|| fail(format!("{cmd}: missing edge-list file")))?;
    let graph = load_topology(path)?;
    let layout = parse_layout(args, graph.n())?;
    Ok((graph, layout))
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
        // PAT left the tuner's portfolio but stays callable by name
        for algo in ["bruck", "pat", "pat:2", "auto"] {
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
        cmd_run(&args(&["run", &path, "--algo", "pat", "--size", "64"]), &mut out).unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("verify: ok"), "--algo pat: {text}");

        // the listing is the tuner's portfolio, in its order
        let recommend = args(&["recommend", &path, "--size", "4K"]);
        let mut out = Vec::new();
        cmd_recommend(&recommend, &mut out).unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("recommended:"), "{text}");
        assert_eq!(text.matches("<-- recommended").count(), 1, "{text}");
        let (graph, layout) = edge_list_and_layout(&recommend, "recommend").unwrap();
        let sizes = BlockSizes::uniform(4 << 10);
        let portfolio: Vec<String> = nhood_core::autotune::candidates(&graph, &layout, &sizes)
            .iter()
            .map(ToString::to_string)
            .collect();
        let listed: Vec<&str> = text.lines().skip(1).filter_map(|l| l.split(':').next()).collect();
        assert_eq!(listed.iter().map(|l| l.trim()).collect::<Vec<_>>(), portfolio, "{text}");
        assert!(portfolio.iter().any(|a| a == "bruck"), "a multi-node layout offers bruck");
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
        // a file of an older format generation is a typed error, not a plan
        std::fs::write(&plan_path, [&b"NHPLAN1\0"[..], &[0; 32]].concat()).unwrap();
        let loaded = ["simulate", &path, "--load", &plan_path, "--sizes", "64"];
        let err = cmd_simulate(&args(&loaded), &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");

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
    fn compare_honours_the_cost_flag_and_recommend_refuses_it() {
        let path = tmp("nhood_cli_compare_cost.el");
        cmd_gen(&args(&["gen", "er", &path, "--n", "32", "--delta", "0.3"]), &mut Vec::new())
            .unwrap();
        let compare = |cost: Option<&str>| {
            let argv = ["compare", &path, "--sizes", "64"];
            let argv = [&argv[..], &cost.map_or(vec![], |c| vec!["--cost", c])].concat();
            let mut out = Vec::new();
            cmd_compare(&args(&argv), &mut out).map(|()| String::from_utf8(out).unwrap())
        };
        // the default is Niagara's numbers; a flat model prints its own
        let niagara = compare(None).unwrap();
        assert_eq!(compare(Some("niagara")).unwrap(), niagara);
        let flat = compare(Some("flat:1e-6:1e9")).unwrap();
        assert_ne!(flat, niagara);
        // a flat model at α = 1 µs costs every message at least that
        let row = flat.lines().nth(1).unwrap().to_string();
        let latency = |col: usize| row.split_whitespace().nth(col).unwrap().trim_end_matches("us");
        assert!((1..4).all(|c| latency(c).parse::<f64>().unwrap() >= 1.0), "{flat}");
        // ... and a bad model is the typed error `simulate` gives
        let e = compare(Some("flat:1e-6:0")).unwrap_err().to_string();
        assert!(e.contains("invalid cost model") && e.contains("bytes_per_sec = 0"), "{e}");
        // the tuner prices under Niagara only: recommend refuses, saying why
        let argv = ["recommend", &path, "--size", "64", "--cost", "flat:1e-6:1e9"];
        let e = cmd_recommend(&args(&argv), &mut Vec::new()).unwrap_err().to_string();
        assert!(e.contains("--cost") && e.contains("Niagara cost model only"), "{e}");
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
