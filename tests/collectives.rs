//! Cross-backend property suite for the collective-agnostic request
//! API: every op in [`CollectiveOp`]'s family — the gather pair plus
//! the message-combining trio — must agree byte-for-byte with its
//! naive MPI-semantics reference on **all three backends**, ragged
//! shapes (zero-length blocks included) and every algorithm of the
//! portfolio — cold, warm and after churn: one generator, one oracle,
//! one sweep for the one engine. Unsupported (op, algorithm,
//! robustness, backend) combinations must fail *typed*, before any work
//! happens, and f32 folds must be bit-deterministic across backends and
//! repeat runs.

use nhood_cluster::{ClusterLayout, Placement};
use nhood_core::collective::{
    derive_sizes, reference, reference_allreduce, reference_alltoallv, reference_reduce_scatter,
};
use nhood_core::{
    Algorithm, BlockSizes, CollectiveOp, CollectiveRequest, CommError, DType, DistGraphComm,
    ExecBackend, ReduceOp, Reduction,
};
use nhood_topology::rng::DetRng;
use nhood_topology::Topology;

const BACKENDS: [ExecBackend; 3] = [ExecBackend::Virtual, ExecBackend::Threaded, ExecBackend::Sim];
const ALGOS: [Algorithm; 2] = [Algorithm::Naive, Algorithm::DistanceHalving];

fn layout_for(n: usize) -> ClusterLayout {
    ClusterLayout::new(n.div_ceil(8), 2, 4)
}

/// Uniform per-rank payloads, `m` bytes each, seeded.
fn uniform_payloads(n: usize, m: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n).map(|_| (0..m).map(|_| rng.next_u64() as u8).collect()).collect()
}

/// Per-source alltoallv send buffers: rank `p` holds `outdeg(p)` blocks
/// of `sizes[p]` bytes; ragged across sources, zeros included.
fn alltoallv_payloads(g: &Topology, seed: u64) -> (Vec<Vec<u8>>, BlockSizes) {
    let mut rng = DetRng::seed_from_u64(seed);
    let per_source: Vec<usize> =
        (0..g.n()).map(|r| if r % 7 == 0 { 0 } else { 1 + rng.gen_below(16) }).collect();
    let sbufs = (0..g.n())
        .map(|p| {
            let len = g.outdegree(p) * per_source[p];
            (0..len).map(|_| rng.next_u64() as u8).collect()
        })
        .collect();
    (sbufs, BlockSizes::per_rank(per_source))
}

/// Reduce-scatter send buffers at a uniform per-destination block size:
/// rank `p` contributes one `m`-byte block per out-neighbor.
fn reduce_scatter_payloads(g: &Topology, m: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..g.n()).map(|p| (0..g.outdegree(p) * m).map(|_| rng.next_u64() as u8).collect()).collect()
}

/// Lane-typed reductions (Max/U32) agree with the reference too — the
/// lane decode/encode path, not just byte-wise wrapping sums.
#[test]
fn typed_lanes_match_the_reference() {
    let n = 32;
    let g = nhood_topology::random::erdos_renyi(n, 0.3, 99);
    let comm = DistGraphComm::create_adjacent(g.clone(), layout_for(n)).unwrap();
    let red = Reduction::new(ReduceOp::Max, DType::U32);
    let payloads = uniform_payloads(n, 16, 0xAB); // 16 % 4 == 0: whole u32 lanes
    let want = reference_allreduce(&g, &payloads, red);
    for algo in ALGOS {
        for backend in BACKENDS {
            let req = CollectiveRequest::allreduce(&payloads, red).algorithm(algo).backend(backend);
            let got = comm.collective(&req).unwrap().rbufs;
            assert_eq!(got, want, "max/u32 allreduce {algo} {backend:?}");
        }
    }
}

/// F32 summation is not associative, so the contract is *bit
/// determinism*, not reference equality: the engine's fixed combine
/// order must deliver bit-identical buffers on every backend and on
/// repeat runs.
#[test]
fn f32_allreduce_is_bit_deterministic_across_backends() {
    let n = 32;
    let g = nhood_topology::random::erdos_renyi(n, 0.3, 7);
    let comm = DistGraphComm::create_adjacent(g.clone(), layout_for(n)).unwrap();
    let red = Reduction::new(ReduceOp::Sum, DType::F32);
    let mut rng = DetRng::seed_from_u64(0xF32F32);
    let payloads: Vec<Vec<u8>> = (0..n)
        .map(|_| {
            (0..4).flat_map(|_| ((rng.gen_f64() as f32) * 1e3).to_le_bytes()).collect::<Vec<u8>>()
        })
        .collect();
    let mut golden: Option<Vec<Vec<u8>>> = None;
    for backend in BACKENDS {
        for repeat in 0..2 {
            let req = CollectiveRequest::allreduce(&payloads, red)
                .algorithm(Algorithm::DistanceHalving)
                .backend(backend);
            let got = comm.collective(&req).unwrap().rbufs;
            match &golden {
                None => golden = Some(got),
                Some(want) => {
                    assert_eq!(&got, want, "f32 fold diverged: {backend:?} repeat {repeat}");
                }
            }
        }
    }
}

/// The support matrix rejects out-of-matrix combinations *typed* and
/// before any execution: robust off-threaded, PAT's reduce ops and
/// undefined operator/lane pairs. Robust combining ops — reductions
/// included: a retry restarts from the send buffers — are IN the matrix
/// and must run, and so is every combining op under Common Neighbor and
/// the leader design.
#[test]
fn unsupported_combinations_fail_typed() {
    let n = 16;
    let g = nhood_topology::random::erdos_renyi(n, 0.4, 3);
    let comm = DistGraphComm::create_adjacent(g.clone(), layout_for(n)).unwrap();
    let (a2a, sizes) = alltoallv_payloads(&g, 5);
    let uniform = uniform_payloads(n, 8, 5);

    // robust reductions run and report clean
    let rs = reduce_scatter_payloads(&g, 8, 5);
    let red = Reduction::SUM_U8;
    let req = CollectiveRequest::reduce_scatter(&rs, red).robust(true);
    let out = comm.collective(&req.backend(ExecBackend::Threaded)).expect("robust reduce_scatter");
    assert_eq!(out.rbufs, reference_reduce_scatter(&g, &rs, &BlockSizes::uniform(8), red));
    assert!(out.report.expect("robust run carries a report").clean());

    // robust alltoallv runs and reports clean
    let req = CollectiveRequest::alltoallv(&a2a)
        .sizes(sizes.clone())
        .robust(true)
        .backend(ExecBackend::Threaded);
    let out = comm.collective(&req).expect("robust alltoallv is supported");
    assert_eq!(out.rbufs, reference_alltoallv(&g, &a2a, &sizes));
    assert!(out.report.expect("robust run carries a report").clean());

    // robust runs on the threaded transport only
    let req = CollectiveRequest::allgather(&uniform).robust(true).backend(ExecBackend::Virtual);
    assert!(matches!(comm.collective(&req), Err(CommError::UnsupportedCollective { .. })));

    // every gather algorithm routes items: the refusals PR 20 removed
    for algo in
        [Algorithm::CommonNeighbor { k: 4 }, Algorithm::HierarchicalLeader { leaders_per_node: 1 }]
    {
        let req = CollectiveRequest::alltoallv(&a2a).sizes(sizes.clone()).algorithm(algo);
        let got = comm.collective(&req).unwrap_or_else(|e| panic!("{algo} alltoallv: {e}"));
        assert_eq!(got.rbufs, reference_alltoallv(&g, &a2a, &sizes), "{algo}");
    }

    // bitor has no defined semantics on f32 lanes
    let bad = Reduction::new(ReduceOp::BitOr, DType::F32);
    let req = CollectiveRequest::allreduce(&uniform, bad);
    assert!(matches!(comm.collective(&req), Err(CommError::InvalidReduction { .. })));
}

/// Every algorithm of the portfolio (`Auto` routes as Distance Halving),
/// the leader hierarchy at one, two and eight leaders per node.
const PORTFOLIO: [Algorithm; 9] = [
    Algorithm::Naive,
    Algorithm::DistanceHalving,
    Algorithm::Auto,
    Algorithm::CommonNeighbor { k: 4 },
    Algorithm::HierarchicalLeader { leaders_per_node: 1 },
    Algorithm::HierarchicalLeader { leaders_per_node: 2 },
    Algorithm::HierarchicalLeader { leaders_per_node: 8 },
    Algorithm::Bruck,
    Algorithm::Pat { radix: 2 },
];

/// Whether `algo` refuses the reduce ops on `layout_for(n)`'s shape, on
/// any placement: PAT always; the leader hierarchy when a node of the
/// block shape (the one it plans on, in locality order off block
/// placement) hosts at least two but fewer than `leaders_per_node` ranks,
/// so that two leader slots share a rank.
fn refuses_reductions(algo: Algorithm, n: usize) -> bool {
    let per_node = layout_for(n).ranks_per_node();
    match algo {
        Algorithm::Pat { .. } => true,
        Algorithm::HierarchicalLeader { leaders_per_node: l } => {
            (0..n).step_by(per_node).any(|lo| (2..l).contains(&(n - lo).min(per_node)))
        }
        _ => false,
    }
}

/// One request of the sweep: its send buffers and explicit size table.
struct Case {
    op: CollectiveOp,
    sbufs: Vec<Vec<u8>>,
    sizes: BlockSizes,
}

/// Every op on `g`, uniform and — where the op allows — ragged with zero
/// sizes: allgather / allgatherv, alltoallv, then reduce_scatter and
/// allreduce under an exact lane and both f32 operators.
fn cases(g: &Topology, rng: &mut DetRng) -> Vec<Case> {
    let n = g.n();
    let uniform = BlockSizes::uniform(8);
    let ragged =
        BlockSizes::per_rank((0..n).map(|r| 4 * ((r * 5 + rng.gen_below(3)) % 4)).collect());
    let reds = [
        Reduction::SUM_U8,
        Reduction::new(ReduceOp::Sum, DType::F32),
        Reduction::new(ReduceOp::Max, DType::F32),
    ];
    // f32 lanes get small finite values, the rest random bytes
    let mut fill = |op: CollectiveOp, len: usize| -> Vec<u8> {
        if op.reduction().is_some_and(|r| r.dtype == DType::F32) {
            let lane = |_| ((rng.gen_below(4001) as f32 - 2000.0) * 0.173).to_le_bytes();
            (0..len / 4).flat_map(lane).collect()
        } else {
            (0..len).map(|_| rng.next_u64() as u8).collect()
        }
    };
    let mut cases = Vec::new();
    for sizes in [&uniform, &ragged] {
        let mut case = |op: CollectiveOp, len: &dyn Fn(usize) -> usize| {
            let sbufs = (0..n).map(|p| fill(op, len(p))).collect();
            cases.push(Case { op, sbufs, sizes: sizes.clone() });
        };
        let gather =
            if sizes.is_uniform() { CollectiveOp::Allgather } else { CollectiveOp::Allgatherv };
        case(gather, &|p| sizes.size(p));
        case(CollectiveOp::Alltoallv, &|p| g.outdegree(p) * sizes.size(p));
        for red in reds {
            let to_dsts = |p: usize| g.out_neighbors(p).iter().map(|&d| sizes.size(d)).sum();
            case(CollectiveOp::ReduceScatter(red), &to_dsts);
            if sizes.is_uniform() {
                case(CollectiveOp::Allreduce(red), &|p| sizes.size(p));
            }
        }
    }
    cases
}

/// The support matrix as one sweep: every op × every algorithm of the
/// portfolio × every backend × uniform and ragged sizes × block and
/// round-robin placement, on a fresh communicator and again after each
/// single-edge mutation (on block placement Distance Halving then runs
/// the surgically repaired live plan; off it every mutation rebuilds),
/// against [`reference`]. Exact lanes and f32 `Max` are byte-equal to it; f32
/// `Sum` is bit-equal across backends and repeats. PAT's reduce ops, and
/// the leader hierarchy's on a node hosting fewer ranks than leaders, are
/// the typed refusals.
#[test]
fn the_support_matrix_holds_on_every_backend_before_and_after_churn() {
    let rng = &mut DetRng::seed_from_u64(0x5EED_2020);
    // n = 61 leaves a node of five ranks: eight leaders refuse there
    let leaders = Algorithm::HierarchicalLeader { leaders_per_node: 8 };
    assert!(refuses_reductions(leaders, 61) && !refuses_reductions(leaders, 17));
    // a prime n, two non-powers of two, and a graph with isolated ranks,
    // block-placed; then the three odd shapes round-robin, where the
    // planners that read locality off ranks plan in locality order (and
    // the leader hierarchy on the block shape `refuses_reductions` reads)
    let (block, rr) = (Placement::Block, Placement::RoundRobinNodes);
    let shapes = [(17, 0, block), (61, 0, block), (96, 0, block), (40, 3, block)];
    for (n, lonely, placement) in shapes.into_iter().chain([(17, 0, rr), (61, 0, rr), (40, 3, rr)])
    {
        let g = nhood_topology::random::erdos_renyi(n, 0.1 + 0.3 * rng.gen_f64(), rng.next_u64());
        let lonely: Vec<usize> = (0..lonely).map(|_| rng.gen_below(n)).collect();
        let keep = |&(u, v): &(usize, usize)| !lonely.contains(&u) && !lonely.contains(&v);
        let g = Topology::from_edges(n, g.edges().filter(keep));
        let layout = layout_for(n).with_placement(placement);
        let mut comm = DistGraphComm::create_adjacent(g, layout).unwrap();
        // a fresh communicator, then after an added and after a removed
        // edge (an empty mutation arms the churn slot the two repair)
        for round in 0..3 {
            let g = comm.graph();
            let (added, removed) = match round {
                0 => (None, None),
                1 => {
                    let mut pairs = (0..).map(|_| (rng.gen_below(n), rng.gen_below(n)));
                    (pairs.find(|&(u, v)| u != v && !g.has_edge(u, v)), None)
                }
                _ => (None, g.edges().nth(rng.gen_below(g.edge_count()))),
            };
            if round == 1 {
                comm.mutate(&[], &[]).unwrap();
            }
            if round > 0 {
                let rep = comm.mutate(added.as_slice(), removed.as_slice()).unwrap();
                // off block placement no pattern is kept to repair
                let rebuilt = placement != block;
                assert_eq!(rep.full_rebuild, rebuilt, "n={n} {placement:?}: one edge");
            }
            let g = comm.graph().clone();
            for case in cases(&g, rng) {
                let Case { op, sbufs, sizes } = &case;
                let want = reference(&g, *op, sbufs, Some(sizes)).unwrap();
                let f32_sum = op.reduction() == Some(Reduction::new(ReduceOp::Sum, DType::F32));
                for algo in PORTFOLIO {
                    let mut first: Option<Vec<Vec<u8>>> = None;
                    for backend in BACKENDS {
                        let ctx = format!(
                            "n={n} {placement:?} round {round} {op} {sizes:?} {algo} {backend}"
                        );
                        let req = || {
                            let req = CollectiveRequest::new(*op, sbufs).sizes(sizes.clone());
                            comm.collective(&req.algorithm(algo).backend(backend))
                        };
                        if op.reduction().is_some() && refuses_reductions(algo, n) {
                            match req() {
                                Err(CommError::UnsupportedCollective { reason, .. }) => {
                                    assert!(reason.contains("co-routing"), "{ctx}: {reason}")
                                }
                                other => panic!("{ctx}: expected a typed refusal, got {other:?}"),
                            }
                            continue;
                        }
                        let got = req().unwrap_or_else(|e| panic!("{ctx}: {e}")).rbufs;
                        if !f32_sum {
                            assert_eq!(got, want, "{ctx}");
                            continue;
                        }
                        // f32 sums reassociate: bit-equal across backends
                        // and repeats, close to the reference
                        assert_eq!(req().unwrap().rbufs, got, "{ctx}: repeat");
                        assert_eq!(first.get_or_insert_with(|| got.clone()), &got, "{ctx}");
                        let lanes = |bufs: &[Vec<u8>]| -> Vec<f32> {
                            let bytes = bufs.iter().flat_map(|b| b.chunks_exact(4));
                            bytes.map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect()
                        };
                        for (x, y) in lanes(&got).into_iter().zip(lanes(&want)) {
                            assert!((x - y).abs() <= 1e-2 * y.abs().max(1.0), "{ctx}: {x} vs {y}");
                        }
                    }
                }
            }
        }
    }
}

/// `derive_sizes` is the single shape oracle: inferred tables match
/// what explicit tables validate, and shape violations are typed.
#[test]
fn derive_sizes_infers_and_validates_shapes() {
    let n = 20;
    let g = nhood_topology::random::erdos_renyi(n, 0.4, 13);
    let (a2a, sizes) = alltoallv_payloads(&g, 21);

    let inferred = derive_sizes(&g, CollectiveOp::Alltoallv, &a2a, None).unwrap();
    for p in 0..n {
        assert_eq!(inferred.size(p), sizes.size(p), "rank {p}: inferred per-source size");
    }
    derive_sizes(&g, CollectiveOp::Alltoallv, &a2a, Some(&sizes)).unwrap();

    // a wrong explicit table is a typed shape error
    let wrong = BlockSizes::uniform(1 << 20);
    assert!(derive_sizes(&g, CollectiveOp::Alltoallv, &a2a, Some(&wrong)).is_err());

    // allreduce payloads must be uniform
    let mut ragged = uniform_payloads(n, 8, 1);
    ragged[3].push(0);
    assert!(derive_sizes(&g, CollectiveOp::Allreduce(Reduction::SUM_U8), &ragged, None).is_err());
}
