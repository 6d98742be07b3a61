//! Per-rank traffic goldens: every field of every rank's
//! [`Counts`](nhood_telemetry::Counts) — messages and bytes both ways,
//! copies, the off-socket / intra-socket split — for every op ×
//! {Distance Halving, Common Neighbor, naive, PAT where it serves the op}
//! × {uniform, ragged with zero-length blocks}, on the Virtual, Threaded
//! and Sim request paths and a gather's replay on the simulator, under a plain and a
//! socket-classifying `CountingRecorder`. The digests were captured
//! while the executors reported every message through its own hook; a
//! mismatch prints the full actual table. They fold the plan-cache hit
//! and miss counters too, so they also pin which of the communicator's
//! requests find their plan in its epoch memo (all but each algorithm's
//! first).
//!
//! The same cells check what the counters must equal without any golden:
//! sends and receives balance, the socket split adds up, the totals and
//! the same-socket share are the simulated schedule's, and a gather
//! sends exactly its plan's messages and blocks.

use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::to_schedule_v;
use nhood_core::{
    Algorithm, BlockSizes, CollectiveOp, CollectiveRequest, DType, DistGraphComm, ExecBackend,
    ReduceOp, Reduction, SimCost,
};
use nhood_simnet::{Engine, PriceColumns};
use nhood_telemetry::{CountingRecorder, Counts};
use nhood_topology::random::erdos_renyi;
use nhood_topology::{Rank, Topology};

const ALGOS: [Algorithm; 4] = [
    Algorithm::DistanceHalving,
    Algorithm::CommonNeighbor { k: 4 },
    Algorithm::Naive,
    Algorithm::Pat { radix: 2 },
];

/// `(op, table, algorithm, messages sent, bytes sent, digest)`: the
/// totals are the Virtual request's; the digest folds every field of
/// every rank over every backend and both recorders.
const GOLDENS: [(&str, &str, &str, u64, u64, u64); 32] = [
    ("allgather", "uniform", "distance-halving", 98, 1504, 0xd2b71ec0dcf1da03),
    ("allgather", "uniform", "common-neighbor(k=4)", 116, 1312, 0x71edf25845f93c93),
    ("allgather", "uniform", "naive", 144, 1152, 0xeaacf11403a65427),
    ("allgather", "uniform", "pat(r=2)", 125, 2000, 0x746eda6acd63752f),
    ("allgatherv", "uniform", "distance-halving", 98, 1504, 0xa26f787e32ed017d),
    ("allgatherv", "uniform", "common-neighbor(k=4)", 116, 1312, 0x701917358b0f22d9),
    ("allgatherv", "uniform", "naive", 144, 1152, 0xa17c5a55fb2cbd99),
    ("allgatherv", "uniform", "pat(r=2)", 125, 2000, 0xd7e2226e18ac75c9),
    ("allgatherv", "ragged", "distance-halving", 98, 860, 0x3be5466e539d061d),
    ("allgatherv", "ragged", "common-neighbor(k=4)", 116, 736, 0x85f9ba12696d53b1),
    ("allgatherv", "ragged", "naive", 144, 656, 0xe856c4e9550ed9a9),
    ("allgatherv", "ragged", "pat(r=2)", 125, 1080, 0xbce2951580ab7729),
    ("alltoallv", "uniform", "distance-halving", 98, 2256, 0x412738bfd2ecd66f),
    ("alltoallv", "uniform", "common-neighbor(k=4)", 116, 1536, 0x956c78a9cff70b29),
    ("alltoallv", "uniform", "naive", 144, 1152, 0x8bf467e49cf3d21b),
    ("alltoallv", "uniform", "pat(r=2)", 112, 2352, 0x249c47353fd315bb),
    ("alltoallv", "ragged", "distance-halving", 98, 1288, 0xf76ee5af05ca91f7),
    ("alltoallv", "ragged", "common-neighbor(k=4)", 116, 824, 0x4252e261f8fb16e9),
    ("alltoallv", "ragged", "naive", 144, 656, 0x271d886013afba0b),
    ("alltoallv", "ragged", "pat(r=2)", 112, 1332, 0xf6300afe10722837),
    ("reduce_scatter(sum-u8)", "uniform", "distance-halving", 98, 1472, 0xed1aee2a943acdef),
    ("reduce_scatter(sum-u8)", "uniform", "common-neighbor(k=4)", 116, 1152, 0x6275161ec739a279),
    ("reduce_scatter(sum-u8)", "uniform", "naive", 144, 1152, 0x8bf467e49cf3d21b),
    ("reduce_scatter(sum-u8)", "ragged", "distance-halving", 98, 836, 0xa26c52fd61778673),
    ("reduce_scatter(sum-u8)", "ragged", "common-neighbor(k=4)", 116, 676, 0xdb5e01496f4128fd),
    ("reduce_scatter(sum-u8)", "ragged", "naive", 144, 676, 0x8d42ad169148cdc7),
    ("allreduce(max-u32)", "uniform", "distance-halving", 98, 952, 0x21d5799896bfb347),
    ("allreduce(max-u32)", "uniform", "common-neighbor(k=4)", 116, 928, 0x34533518f71397c9),
    ("allreduce(max-u32)", "uniform", "naive", 144, 1152, 0x8bf467e49cf3d21b),
    ("allreduce(sum-f32)", "uniform", "distance-halving", 98, 952, 0x21d5799896bfb347),
    ("allreduce(sum-f32)", "uniform", "common-neighbor(k=4)", 116, 928, 0x34533518f71397c9),
    ("allreduce(sum-f32)", "uniform", "naive", 144, 1152, 0x8bf467e49cf3d21b),
];

/// Every field, in declaration order.
fn fields(c: &Counts) -> [u64; 15] {
    [
        c.msgs_sent,
        c.bytes_sent,
        c.msgs_recvd,
        c.bytes_recvd,
        c.copies,
        c.retries,
        c.fallbacks,
        c.negotiation_rounds,
        c.msgs_off_socket,
        c.bytes_off_socket,
        c.msgs_intra_socket,
        c.bytes_intra_socket,
        c.plan_cache_hits,
        c.plan_cache_misses,
        c.repairs,
    ]
}

/// The fields an executor's traffic sets: both directions, copies and
/// the socket split.
fn traffic(c: &Counts) -> [u64; 9] {
    let f = fields(c);
    [f[0], f[1], f[2], f[3], f[4], f[8], f[9], f[10], f[11]]
}

/// FNV-1a over `rec`'s per-rank fields, continuing from `h`.
fn fold(h: u64, rec: &CountingRecorder) -> u64 {
    let per_rank = (0..rec.n()).flat_map(|r| fields(&rec.per_rank(r)));
    per_rank.fold(h, |h, x| (h ^ x).wrapping_mul(0x0100_0000_01b3))
}

/// The n = 24 communicator: ranks 5 and 17 isolated, two sockets of four
/// on each of three nodes; and the socket of every rank.
fn communicator() -> (DistGraphComm, Vec<usize>) {
    let (n, layout) = (24, ClusterLayout::new(3, 2, 4));
    let keep = |&(s, d): &(Rank, Rank)| ![5, 17].contains(&s) && ![5, 17].contains(&d);
    let g = Topology::from_edges(n, erdos_renyi(n, 0.3, 0x7A11).edges().filter(keep));
    let socket_of = (0..n).map(|r| layout.socket_index(r)).collect();
    (DistGraphComm::create_adjacent(g, layout).unwrap(), socket_of)
}

/// Send buffers and size table of `op` at block sizes `lens`.
fn request_of(
    g: &Topology,
    op: CollectiveOp,
    lens: &[usize],
) -> (Vec<Vec<u8>>, Option<BlockSizes>) {
    let fill =
        |p: Rank, len: usize| -> Vec<u8> { (0..len).map(|i| (p * 31 + i * 7) as u8).collect() };
    let table = BlockSizes::per_rank(lens.to_vec());
    let sbufs: Vec<Vec<u8>> = (0..g.n())
        .map(|p| match op {
            CollectiveOp::Allgather | CollectiveOp::Allgatherv | CollectiveOp::Allreduce(_) => {
                fill(p, lens[p])
            }
            CollectiveOp::Alltoallv => fill(p, g.outdegree(p) * lens[p]),
            CollectiveOp::ReduceScatter(_) => {
                fill(p, g.out_neighbors(p).iter().map(|&d| lens[d]).sum())
            }
        })
        .collect();
    let sizes = matches!(op, CollectiveOp::Alltoallv | CollectiveOp::ReduceScatter(_));
    (sbufs, sizes.then_some(table))
}

/// Checks the counters of a Virtual request against what they must be,
/// golden or not.
fn check_identities(
    comm: &DistGraphComm,
    algo: Algorithm,
    op: CollectiveOp,
    (sbufs, sizes): &(Vec<Vec<u8>>, Option<BlockSizes>),
    t: Counts,
    what: &str,
) {
    assert_eq!((t.msgs_sent, t.bytes_sent), (t.msgs_recvd, t.bytes_recvd), "{what}");
    assert_eq!(t.msgs_off_socket + t.msgs_intra_socket, t.msgs_sent, "{what}");
    assert_eq!(t.bytes_off_socket + t.bytes_intra_socket, t.bytes_sent, "{what}");
    // the simulated schedule of the same request: its same-socket level
    // is the layout's, as the recorder's socket map is
    let mut req = CollectiveRequest::new(op, sbufs).algorithm(algo).backend(ExecBackend::Sim);
    req.sizes = sizes.clone();
    let stats = comm.collective(&req).unwrap().sim.expect("a simulated report").stats;
    assert_eq!(t.msgs_sent as usize, stats.total_msgs(), "{what}: schedule messages");
    assert_eq!(t.bytes_sent as usize, stats.bytes.iter().sum::<usize>(), "{what}: schedule bytes");
    assert_eq!(
        (t.msgs_intra_socket as usize, t.bytes_intra_socket as usize),
        (stats.msgs[0], stats.bytes[0]),
        "{what}: same-socket share"
    );
    if op.is_gather() {
        let plan = comm.plan_shared(algo).unwrap();
        let blocks = (0..plan.n()).flat_map(|r| plan.phases(r)).flat_map(|ph| ph.sends());
        let bytes: usize = blocks.flat_map(|m| m.blocks().to_vec()).map(|b| sbufs[b].len()).sum();
        assert_eq!(t.msgs_sent as usize, plan.message_count(), "{what}: plan messages");
        assert_eq!(t.bytes_sent as usize, bytes, "{what}: plan blocks");
    }
}

#[test]
fn every_ranks_counters_are_the_goldens_on_every_backend() {
    let (comm, socket_of) = communicator();
    let g = comm.graph().clone();
    let n = g.n();
    let ragged: Vec<usize> = (0..n).map(|r| [0, 4, 8, 0, 12][r % 5]).collect();
    let ops = [
        (CollectiveOp::Allgather, "uniform", vec![8; n]),
        (CollectiveOp::Allgatherv, "uniform", vec![8; n]),
        (CollectiveOp::Allgatherv, "ragged", ragged.clone()),
        (CollectiveOp::Alltoallv, "uniform", vec![8; n]),
        (CollectiveOp::Alltoallv, "ragged", ragged.clone()),
        (CollectiveOp::ReduceScatter(Reduction::SUM_U8), "uniform", vec![8; n]),
        (CollectiveOp::ReduceScatter(Reduction::SUM_U8), "ragged", ragged),
        (CollectiveOp::Allreduce(Reduction::new(ReduceOp::Max, DType::U32)), "uniform", vec![8; n]),
        (CollectiveOp::Allreduce(Reduction::new(ReduceOp::Sum, DType::F32)), "uniform", vec![8; n]),
    ];
    let mut actual = Vec::new();
    for (op, table, lens) in &ops {
        let (op, request) = (*op, request_of(&g, *op, lens));
        for algo in ALGOS {
            if op.reduction().is_some() && matches!(algo, Algorithm::Pat { .. }) {
                continue; // the one refusal of the support matrix
            }
            let what = format!("{op} {table} {algo}");
            let mut digest = 0xcbf2_9ce4_8422_2325;
            let (mut virtual_counts, mut v) = (Vec::new(), Counts::default());
            for sockets in [false, true] {
                let fresh = || {
                    if sockets {
                        CountingRecorder::with_sockets(socket_of.clone())
                    } else {
                        CountingRecorder::new(n)
                    }
                };
                for backend in [ExecBackend::Virtual, ExecBackend::Threaded, ExecBackend::Sim] {
                    let rec = fresh();
                    let mut req =
                        CollectiveRequest::new(op, &request.0).algorithm(algo).backend(backend);
                    req.sizes = request.1.clone();
                    comm.collective(&req.recorder(&rec)).unwrap_or_else(|e| panic!("{what}: {e}"));
                    digest = fold(digest, &rec);
                    let per_rank: Vec<[u64; 9]> =
                        (0..n).map(|r| traffic(&rec.per_rank(r))).collect();
                    if backend == ExecBackend::Virtual {
                        (virtual_counts, v) = (per_rank, rec.totals());
                        if sockets {
                            check_identities(&comm, algo, op, &request, rec.totals(), &what);
                        }
                    } else {
                        assert_eq!(per_rank, virtual_counts, "{what}: {backend} vs virtual");
                    }
                }
                if op.is_gather() {
                    let rec = fresh();
                    let plan = comm.plan_shared(algo).unwrap();
                    let (cost, sizes) = (SimCost::niagara(), request.0.iter().map(Vec::len));
                    let schedule = to_schedule_v(&plan, &sizes.collect::<Vec<_>>(), &cost);
                    let engine = Engine::new(comm.layout(), cost.net);
                    let prepared = engine.prepare(&schedule).unwrap();
                    let prices = PriceColumns::from(&schedule);
                    engine.run_prepared(&prepared, &prices, None, Some(&rec)).unwrap();
                    digest = fold(digest, &rec);
                    let t = rec.totals();
                    assert_eq!(
                        (t.msgs_sent, t.bytes_sent, t.msgs_intra_socket, t.bytes_intra_socket),
                        (v.msgs_sent, v.bytes_sent, v.msgs_intra_socket, v.bytes_intra_socket),
                        "{what}: the simulated messages are the program's"
                    );
                }
            }
            actual.push((
                op.to_string(),
                *table,
                algo.to_string(),
                v.msgs_sent,
                v.bytes_sent,
                digest,
            ));
        }
    }
    let matches = actual.len() == GOLDENS.len()
        && actual
            .iter()
            .zip(GOLDENS)
            .all(|(a, g)| (a.0.as_str(), a.1, a.2.as_str(), a.3, a.4, a.5) == g);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(o, t, a, m, b, d)| format!("    ({o:?}, {t:?}, {a:?}, {m}, {b}, {d:#018x}),\n"))
            .collect();
        panic!("traffic goldens moved; actual table:\n{table}");
    }
}
