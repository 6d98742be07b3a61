#![cfg(test)]
//! Goldens of the retired interpreting combining engine (deleted in
//! PR 14): the compiled combine program must reproduce its receive
//! buffers, its wire messages and its simulated makespan bit for bit.
//! A second table pins the f32 allreduce of the relay planners as it was
//! while partials coalesced by fold tree (see `program`'s module docs).

use super::program::{compile, Shape};
use super::*;
use crate::comm::DistGraphComm;
use nhood_cluster::ClusterLayout;
use nhood_simnet::Msg;
use nhood_telemetry::CountingRecorder;
use nhood_topology::random::erdos_renyi;
use nhood_topology::rng::DetRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0100_0000_01b3)
}

/// FNV fold of per-rank buffers, lengths included.
fn fold_bufs(bufs: &[Vec<u8>]) -> u64 {
    bufs.iter().fold(FNV_OFFSET, |h, b| {
        b.iter().fold(fnv(h, b.len() as u64), |h, &x| fnv(h, u64::from(x)))
    })
}

/// FNV fold of a message list, count included: `(src, dst, tag, bytes)`
/// per message when `tagged`, `(src, dst, bytes)` otherwise.
fn fold_msgs(msgs: &[Msg], tagged: bool) -> u64 {
    let (h, count) = msgs.iter().fold((FNV_OFFSET, 0u64), |(h, c), m| {
        let tag = tagged.then_some(m.tag);
        let words = [m.src as u64, m.dst as u64].into_iter().chain(tag).chain([m.bytes as u64]);
        (words.fold(h, fnv), c + 1)
    });
    fnv(h, count)
}

/// `(n, δ, seed)`: a power-of-two graph, a dense non-power-of-two
/// one, and one sparse enough to leave ranks with no edge at all.
const GRAPHS: [(usize, f64, u64); 3] = [(32, 0.3, 11), (27, 0.5, 5), (40, 0.04, 3)];

#[derive(Clone, Copy, Debug, PartialEq)]
enum SizeClass {
    Uniform(usize),
    /// Per-source (alltoallv) / explicit per-destination
    /// (reduce_scatter) table of whole lanes, zeros included.
    Ragged,
}

const SIZE_CLASSES: [SizeClass; 3] =
    [SizeClass::Uniform(64), SizeClass::Uniform(4 << 10), SizeClass::Ragged];

fn reductions() -> [Reduction; 4] {
    [
        Reduction::SUM_U8,
        Reduction::new(ReduceOp::Max, DType::U32),
        Reduction::new(ReduceOp::Sum, DType::F32),
        Reduction::new(ReduceOp::Max, DType::F32),
    ]
}

fn ops() -> Vec<CollectiveOp> {
    let mut ops = vec![CollectiveOp::Alltoallv];
    ops.extend(reductions().map(CollectiveOp::ReduceScatter));
    ops.extend(reductions().map(CollectiveOp::Allreduce));
    ops
}

fn size_table(class: SizeClass, n: usize, seed: u64) -> BlockSizes {
    match class {
        SizeClass::Uniform(m) => BlockSizes::uniform(m),
        SizeClass::Ragged => BlockSizes::per_rank(
            (0..n).map(|r| [0, 4, 12, 40, 0, 8, 100][(r * 5 + seed as usize) % 7]).collect(),
        ),
    }
}

/// `len` payload bytes: random for the integer lanes; for f32, small
/// finite values with a `-0.0` in every seventh lane (a first arrival
/// folded into the `+0.0` identity instead of copied would flip its
/// sign bit).
fn fill(rng: &mut DetRng, op: CollectiveOp, len: usize) -> Vec<u8> {
    if op.reduction().is_some_and(|r| r.dtype == DType::F32) {
        (0..len / 4)
            .flat_map(|lane| {
                let v = (rng.next_u64() % 4001) as f32 - 2000.0;
                (if lane % 7 == 0 { -0.0 } else { v * 0.173 }).to_le_bytes()
            })
            .collect()
    } else {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }
}

fn payloads(g: &Topology, op: CollectiveOp, sizes: &BlockSizes, seed: u64) -> Vec<Vec<u8>> {
    let rng = &mut DetRng::seed_from_u64(seed);
    (0..g.n())
        .map(|p| {
            let len = match op {
                CollectiveOp::Alltoallv => g.outdegree(p) * sizes.size(p),
                CollectiveOp::ReduceScatter(_) => {
                    g.out_neighbors(p).iter().map(|&d| sizes.size(d)).sum()
                }
                _ => sizes.size(p),
            };
            fill(rng, op, len)
        })
        .collect()
}

/// Every cell of `algos` × `ops`, in row order: graph × algorithm ×
/// size class × op (allreduce is uniform-only, so it sits out the
/// ragged class).
fn for_each_cell(
    algos: &[Algorithm],
    ops: &[CollectiveOp],
    mut cell: impl FnMut(&str, &DistGraphComm, Algorithm, CollectiveOp, &BlockSizes, &[Vec<u8>]),
) {
    for (gi, &(n, delta, seed)) in GRAPHS.iter().enumerate() {
        let g = erdos_renyi(n, delta, seed);
        let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
        let comm = DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
        for &algo in algos {
            for class in SIZE_CLASSES {
                for &op in ops {
                    if class == SizeClass::Ragged && matches!(op, CollectiveOp::Allreduce(_)) {
                        continue;
                    }
                    let sizes = size_table(class, n, seed);
                    let sbufs = payloads(&g, op, &sizes, seed ^ 0x9e37);
                    let label = format!("graph {gi} {algo:?} {class:?} {op}");
                    cell(&label, &comm, algo, op, &sizes, &sbufs);
                }
            }
        }
    }
}

/// One cell's `[fold_bufs(rbufs), fold_msgs(wire, true), makespan bits]`
/// and its untagged wire fold, after checking that the threaded and
/// simulated runs return the virtual run's buffers and that the counters
/// saw the program's wire messages.
fn cell_row(
    label: &str,
    comm: &DistGraphComm,
    algo: Algorithm,
    op: CollectiveOp,
    sizes: &BlockSizes,
    sbufs: &[Vec<u8>],
) -> ([u64; 3], u64) {
    let g = comm.graph();
    let req = || CollectiveRequest::new(op, sbufs).algorithm(algo).sizes(sizes.clone());

    let rec = CountingRecorder::new(g.n());
    let virt = comm.collective(&req().recorder(&rec)).unwrap().rbufs;

    let shape = Shape::of(op);
    let sched = compile(&comm.alltoall_plan(algo).unwrap(), g, shape).unwrap().schedule(sizes);
    let sent = (rec.totals().msgs_sent as usize, rec.totals().bytes_sent as usize);
    assert_eq!(sent, (sched.message_count(), sched.total_bytes()), "{label}: counters");

    let sim = comm.collective(&req().backend(ExecBackend::Sim)).unwrap();
    assert_eq!(sim.rbufs, virt, "{label}: sim buffers");
    let makespan = sim.sim.expect("sim backend reports").makespan;

    let threaded = comm.collective(&req().backend(ExecBackend::Threaded)).unwrap().rbufs;
    assert_eq!(threaded, virt, "{label}: threaded buffers");
    let row = [fold_bufs(&virt), fold_msgs(sched.all_sends(), true), makespan.to_bits()];
    (row, fold_msgs(sched.all_sends(), false))
}

// `[fold_bufs(rbufs), fold_msgs(schedule.all_sends(), true), makespan.to_bits()]`
// per cell, captured at 35fa375 — the last commit that shipped the
// interpreting engine — from its virtual run (buffers, and the
// per-message `(src, dst, tag, bytes)` list of the `Schedule` it
// assembled) and `DistGraphComm::collective` on `ExecBackend::Sim`.
// Column 1 of the Distance Halving rows was re-captured in PR 20, when
// messages took the gather plan's tags (see `UNTAGGED`).
const GOLDEN: [[u64; 3]; 138] = [
    [0xa5a8247f05f72f3f, 0x393d5b6faa43faec, 0x3edc5271e7dc4894], // graph 0 DistanceHalving Uniform(64) alltoallv
    [0xa91898979d680cdb, 0xaeacbe48e184786c, 0x3edbad3ba07e1b4b], // graph 0 DistanceHalving Uniform(64) reduce_scatter(sum-u8)
    [0x69e0946ca83eee5f, 0xaeacbe48e184786c, 0x3edbad3ba07e1b4b], // graph 0 DistanceHalving Uniform(64) reduce_scatter(max-u32)
    [0x0d88371107fc3f97, 0xaeacbe48e184786c, 0x3edbad3ba07e1b4b], // graph 0 DistanceHalving Uniform(64) reduce_scatter(sum-f32)
    [0x689b1e07ab047e68, 0xaeacbe48e184786c, 0x3edbad3ba07e1b4b], // graph 0 DistanceHalving Uniform(64) reduce_scatter(max-f32)
    [0xbd0fdfc8be371ba2, 0xd930c8cc3ad9486c, 0x3edb693ab15c8190], // graph 0 DistanceHalving Uniform(64) allreduce(sum-u8)
    [0x6414a7fb58a2d082, 0xd930c8cc3ad9486c, 0x3edb693ab15c8190], // graph 0 DistanceHalving Uniform(64) allreduce(max-u32)
    [0xf974c7dee4cce0cc, 0xd930c8cc3ad9486c, 0x3edb693ab15c8190], // graph 0 DistanceHalving Uniform(64) allreduce(sum-f32)
    [0xbea8dd9290dedea6, 0xd930c8cc3ad9486c, 0x3edb693ab15c8190], // graph 0 DistanceHalving Uniform(64) allreduce(max-f32)
    [0x72b746876a91ce75, 0x744e764daee9ccec, 0x3f0fd6dba136979c], // graph 0 DistanceHalving Uniform(4096) alltoallv
    [0x5397c5e6ae97f5cd, 0x90548df6ed82ecec, 0x3f097303fa426724], // graph 0 DistanceHalving Uniform(4096) reduce_scatter(sum-u8)
    [0x77cb0953855f91e2, 0x90548df6ed82ecec, 0x3f097303fa426724], // graph 0 DistanceHalving Uniform(4096) reduce_scatter(max-u32)
    [0x10d6c95fe76754bf, 0x90548df6ed82ecec, 0x3f097303fa426724], // graph 0 DistanceHalving Uniform(4096) reduce_scatter(sum-f32)
    [0xbe86cf5eeab86278, 0x90548df6ed82ecec, 0x3f097303fa426724], // graph 0 DistanceHalving Uniform(4096) reduce_scatter(max-f32)
    [0xa8e16a0f84e8ace3, 0xc944e4c408078cec, 0x3efb9d3ae38e2ace], // graph 0 DistanceHalving Uniform(4096) allreduce(sum-u8)
    [0xa2e384052553129e, 0xc944e4c408078cec, 0x3efb9d3ae38e2ace], // graph 0 DistanceHalving Uniform(4096) allreduce(max-u32)
    [0x599dfbbb52b44bd2, 0xc944e4c408078cec, 0x3efb9d3ae38e2ace], // graph 0 DistanceHalving Uniform(4096) allreduce(sum-f32)
    [0xed5342333b57417a, 0xc944e4c408078cec, 0x3efb9d3ae38e2ace], // graph 0 DistanceHalving Uniform(4096) allreduce(max-f32)
    [0x929f28a75cbe54a4, 0x8f70d3203f06dbac, 0x3ed92c0de99ed78b], // graph 0 DistanceHalving Ragged alltoallv
    [0x94f298e38b7a4b0d, 0xb1c814ce3cdc1094, 0x3ed95d8e7d28e4fe], // graph 0 DistanceHalving Ragged reduce_scatter(sum-u8)
    [0x1a5af4d4ec36f4dd, 0xb1c814ce3cdc1094, 0x3ed95d8e7d28e4fe], // graph 0 DistanceHalving Ragged reduce_scatter(max-u32)
    [0xe4a0cfac1f974b7a, 0xb1c814ce3cdc1094, 0x3ed95d8e7d28e4fe], // graph 0 DistanceHalving Ragged reduce_scatter(sum-f32)
    [0x2f133d1d6b0a59e4, 0xb1c814ce3cdc1094, 0x3ed95d8e7d28e4fe], // graph 0 DistanceHalving Ragged reduce_scatter(max-f32)
    [0xa5a8247f05f72f3f, 0x6e1969cdf5582620, 0x3edb759247472754], // graph 0 Naive Uniform(64) alltoallv
    [0xa91898979d680cdb, 0x6e1969cdf5582620, 0x3edb759247472754], // graph 0 Naive Uniform(64) reduce_scatter(sum-u8)
    [0x69e0946ca83eee5f, 0x6e1969cdf5582620, 0x3edb759247472754], // graph 0 Naive Uniform(64) reduce_scatter(max-u32)
    [0x299a92c0d0ac8a4e, 0x6e1969cdf5582620, 0x3edb759247472754], // graph 0 Naive Uniform(64) reduce_scatter(sum-f32)
    [0x689b1e07ab047e68, 0x6e1969cdf5582620, 0x3edb759247472754], // graph 0 Naive Uniform(64) reduce_scatter(max-f32)
    [0xbd0fdfc8be371ba2, 0x6e1969cdf5582620, 0x3edb759247472754], // graph 0 Naive Uniform(64) allreduce(sum-u8)
    [0x6414a7fb58a2d082, 0x6e1969cdf5582620, 0x3edb759247472754], // graph 0 Naive Uniform(64) allreduce(max-u32)
    [0xb0561acc0f40cbbb, 0x6e1969cdf5582620, 0x3edb759247472754], // graph 0 Naive Uniform(64) allreduce(sum-f32)
    [0xbea8dd9290dedea6, 0x6e1969cdf5582620, 0x3edb759247472754], // graph 0 Naive Uniform(64) allreduce(max-f32)
    [0x72b746876a91ce75, 0x2c2fda777d6b2ba0, 0x3f09f890ec93d3ca], // graph 0 Naive Uniform(4096) alltoallv
    [0x5397c5e6ae97f5cd, 0x2c2fda777d6b2ba0, 0x3f09f890ec93d3ca], // graph 0 Naive Uniform(4096) reduce_scatter(sum-u8)
    [0x77cb0953855f91e2, 0x2c2fda777d6b2ba0, 0x3f09f890ec93d3ca], // graph 0 Naive Uniform(4096) reduce_scatter(max-u32)
    [0x14a00a7052063d58, 0x2c2fda777d6b2ba0, 0x3f09f890ec93d3ca], // graph 0 Naive Uniform(4096) reduce_scatter(sum-f32)
    [0xbe86cf5eeab86278, 0x2c2fda777d6b2ba0, 0x3f09f890ec93d3ca], // graph 0 Naive Uniform(4096) reduce_scatter(max-f32)
    [0xa8e16a0f84e8ace3, 0x2c2fda777d6b2ba0, 0x3f09f890ec93d3ca], // graph 0 Naive Uniform(4096) allreduce(sum-u8)
    [0xa2e384052553129e, 0x2c2fda777d6b2ba0, 0x3f09f890ec93d3ca], // graph 0 Naive Uniform(4096) allreduce(max-u32)
    [0x8ea02bd91ab009c4, 0x2c2fda777d6b2ba0, 0x3f09f890ec93d3ca], // graph 0 Naive Uniform(4096) allreduce(sum-f32)
    [0xed5342333b57417a, 0x2c2fda777d6b2ba0, 0x3f09f890ec93d3ca], // graph 0 Naive Uniform(4096) allreduce(max-f32)
    [0x929f28a75cbe54a4, 0xeb97ef8fc517d788, 0x3ed9a975923c0375], // graph 0 Naive Ragged alltoallv
    [0x94f298e38b7a4b0d, 0xfc5137f1333f4c14, 0x3ed994c812e8309a], // graph 0 Naive Ragged reduce_scatter(sum-u8)
    [0x1a5af4d4ec36f4dd, 0xfc5137f1333f4c14, 0x3ed994c812e8309a], // graph 0 Naive Ragged reduce_scatter(max-u32)
    [0xfa285a8792f8404f, 0xfc5137f1333f4c14, 0x3ed994c812e8309a], // graph 0 Naive Ragged reduce_scatter(sum-f32)
    [0x2f133d1d6b0a59e4, 0xfc5137f1333f4c14, 0x3ed994c812e8309a], // graph 0 Naive Ragged reduce_scatter(max-f32)
    [0x48e6d7dee8d8f072, 0xa197999f3bd53e60, 0x3ee1f64c220f73e6], // graph 1 DistanceHalving Uniform(64) alltoallv
    [0x8274233fea166394, 0xe3f6b983adcfbc20, 0x3ee11f1cc9c1e60d], // graph 1 DistanceHalving Uniform(64) reduce_scatter(sum-u8)
    [0xaceee5894bf3bcb2, 0xe3f6b983adcfbc20, 0x3ee11f1cc9c1e60d], // graph 1 DistanceHalving Uniform(64) reduce_scatter(max-u32)
    [0x5088d66223847326, 0xe3f6b983adcfbc20, 0x3ee11f1cc9c1e60d], // graph 1 DistanceHalving Uniform(64) reduce_scatter(sum-f32)
    [0x0f6e3dd1ec59f4be, 0xe3f6b983adcfbc20, 0x3ee11f1cc9c1e60d], // graph 1 DistanceHalving Uniform(64) reduce_scatter(max-f32)
    [0xc23e557df8f71d2e, 0xe44b7f31cbd56ea0, 0x3ede1539f5f7e47c], // graph 1 DistanceHalving Uniform(64) allreduce(sum-u8)
    [0x3ed5fd86e86ec7bc, 0xe44b7f31cbd56ea0, 0x3ede1539f5f7e47c], // graph 1 DistanceHalving Uniform(64) allreduce(max-u32)
    [0x421accf6b9c44b51, 0xe44b7f31cbd56ea0, 0x3ede1539f5f7e47c], // graph 1 DistanceHalving Uniform(64) allreduce(sum-f32)
    [0xa47db37aa52db150, 0xe44b7f31cbd56ea0, 0x3ede1539f5f7e47c], // graph 1 DistanceHalving Uniform(64) allreduce(max-f32)
    [0xdd87aa40f505636a, 0x202b8aebaa285b20, 0x3f1b09d6f2179a56], // graph 1 DistanceHalving Uniform(4096) alltoallv
    [0x4cd981274e774e8e, 0xeb8d6c7051a92b20, 0x3f11a3c41fd5b60f], // graph 1 DistanceHalving Uniform(4096) reduce_scatter(sum-u8)
    [0x0c3c49f490724e9b, 0xeb8d6c7051a92b20, 0x3f11a3c41fd5b60f], // graph 1 DistanceHalving Uniform(4096) reduce_scatter(max-u32)
    [0x428b0dd201bc6e5d, 0xeb8d6c7051a92b20, 0x3f11a3c41fd5b60f], // graph 1 DistanceHalving Uniform(4096) reduce_scatter(sum-f32)
    [0x24bf5117843339fd, 0xeb8d6c7051a92b20, 0x3f11a3c41fd5b60f], // graph 1 DistanceHalving Uniform(4096) reduce_scatter(max-f32)
    [0x5c442eb2cdb666da, 0x2d6417dd51d9ab20, 0x3eff72ac5f1ab7fc], // graph 1 DistanceHalving Uniform(4096) allreduce(sum-u8)
    [0xd5a8e1b5520c6dee, 0x2d6417dd51d9ab20, 0x3eff72ac5f1ab7fc], // graph 1 DistanceHalving Uniform(4096) allreduce(max-u32)
    [0x76980766b799abad, 0x2d6417dd51d9ab20, 0x3eff72ac5f1ab7fc], // graph 1 DistanceHalving Uniform(4096) allreduce(sum-f32)
    [0x6d02584185794fa6, 0x2d6417dd51d9ab20, 0x3eff72ac5f1ab7fc], // graph 1 DistanceHalving Uniform(4096) allreduce(max-f32)
    [0xd0e94dacfcac9302, 0xa3f7778206a7a51c, 0x3edfb080eceab0e8], // graph 1 DistanceHalving Ragged alltoallv
    [0x4bfebb20138bb314, 0x3244d4c3946e7104, 0x3ee002002535c3f5], // graph 1 DistanceHalving Ragged reduce_scatter(sum-u8)
    [0x2f74e79809514d0d, 0x3244d4c3946e7104, 0x3ee002002535c3f5], // graph 1 DistanceHalving Ragged reduce_scatter(max-u32)
    [0x1127d0f0a6cc0326, 0x3244d4c3946e7104, 0x3ee002002535c3f5], // graph 1 DistanceHalving Ragged reduce_scatter(sum-f32)
    [0x5a4ede8a89bb3b6d, 0x3244d4c3946e7104, 0x3ee002002535c3f5], // graph 1 DistanceHalving Ragged reduce_scatter(max-f32)
    [0x48e6d7dee8d8f072, 0x2ab0659aabcd5ea5, 0x3eddf726b1c4ce75], // graph 1 Naive Uniform(64) alltoallv
    [0x8274233fea166394, 0x2ab0659aabcd5ea5, 0x3eddf726b1c4ce75], // graph 1 Naive Uniform(64) reduce_scatter(sum-u8)
    [0xaceee5894bf3bcb2, 0x2ab0659aabcd5ea5, 0x3eddf726b1c4ce75], // graph 1 Naive Uniform(64) reduce_scatter(max-u32)
    [0x5730965119d6020c, 0x2ab0659aabcd5ea5, 0x3eddf726b1c4ce75], // graph 1 Naive Uniform(64) reduce_scatter(sum-f32)
    [0x0f6e3dd1ec59f4be, 0x2ab0659aabcd5ea5, 0x3eddf726b1c4ce75], // graph 1 Naive Uniform(64) reduce_scatter(max-f32)
    [0xc23e557df8f71d2e, 0x2ab0659aabcd5ea5, 0x3eddf726b1c4ce75], // graph 1 Naive Uniform(64) allreduce(sum-u8)
    [0x3ed5fd86e86ec7bc, 0x2ab0659aabcd5ea5, 0x3eddf726b1c4ce75], // graph 1 Naive Uniform(64) allreduce(max-u32)
    [0x45ac1a8bc391a151, 0x2ab0659aabcd5ea5, 0x3eddf726b1c4ce75], // graph 1 Naive Uniform(64) allreduce(sum-f32)
    [0xa47db37aa52db150, 0x2ab0659aabcd5ea5, 0x3eddf726b1c4ce75], // graph 1 Naive Uniform(64) allreduce(max-f32)
    [0xdd87aa40f505636a, 0x8b74bb60142e8d65, 0x3f0f0ac5922417bc], // graph 1 Naive Uniform(4096) alltoallv
    [0x4cd981274e774e8e, 0x8b74bb60142e8d65, 0x3f0f0ac5922417bc], // graph 1 Naive Uniform(4096) reduce_scatter(sum-u8)
    [0x0c3c49f490724e9b, 0x8b74bb60142e8d65, 0x3f0f0ac5922417bc], // graph 1 Naive Uniform(4096) reduce_scatter(max-u32)
    [0x7ffebc81c81dfa18, 0x8b74bb60142e8d65, 0x3f0f0ac5922417bc], // graph 1 Naive Uniform(4096) reduce_scatter(sum-f32)
    [0x24bf5117843339fd, 0x8b74bb60142e8d65, 0x3f0f0ac5922417bc], // graph 1 Naive Uniform(4096) reduce_scatter(max-f32)
    [0x5c442eb2cdb666da, 0x8b74bb60142e8d65, 0x3f0f0ac5922417bc], // graph 1 Naive Uniform(4096) allreduce(sum-u8)
    [0xd5a8e1b5520c6dee, 0x8b74bb60142e8d65, 0x3f0f0ac5922417bc], // graph 1 Naive Uniform(4096) allreduce(max-u32)
    [0xafb0e71abc6408bf, 0x8b74bb60142e8d65, 0x3f0f0ac5922417bc], // graph 1 Naive Uniform(4096) allreduce(sum-f32)
    [0x6d02584185794fa6, 0x8b74bb60142e8d65, 0x3f0f0ac5922417bc], // graph 1 Naive Uniform(4096) allreduce(max-f32)
    [0xd0e94dacfcac9302, 0x5daf618facb15555, 0x3edc371d1ae56367], // graph 1 Naive Ragged alltoallv
    [0x4bfebb20138bb314, 0x1066e291818cba51, 0x3edc0fe52e5df079], // graph 1 Naive Ragged reduce_scatter(sum-u8)
    [0x2f74e79809514d0d, 0x1066e291818cba51, 0x3edc0fe52e5df079], // graph 1 Naive Ragged reduce_scatter(max-u32)
    [0xdb468c0583fff41d, 0x1066e291818cba51, 0x3edc0fe52e5df079], // graph 1 Naive Ragged reduce_scatter(sum-f32)
    [0x5a4ede8a89bb3b6d, 0x1066e291818cba51, 0x3edc0fe52e5df079], // graph 1 Naive Ragged reduce_scatter(max-f32)
    [0x8afe50b1d56788d0, 0xc8f54b17fa9c6887, 0x3ed0f41d96dbd39e], // graph 2 DistanceHalving Uniform(64) alltoallv
    [0x1c640b3ae6741c2c, 0xa2d59d9c5cce84c7, 0x3ed0ed92249bc4d2], // graph 2 DistanceHalving Uniform(64) reduce_scatter(sum-u8)
    [0xf2adfc2d644f1992, 0xa2d59d9c5cce84c7, 0x3ed0ed92249bc4d2], // graph 2 DistanceHalving Uniform(64) reduce_scatter(max-u32)
    [0x77198bf4e7233ade, 0xa2d59d9c5cce84c7, 0x3ed0ed92249bc4d2], // graph 2 DistanceHalving Uniform(64) reduce_scatter(sum-f32)
    [0xda578dc28e0003e2, 0xa2d59d9c5cce84c7, 0x3ed0ed92249bc4d2], // graph 2 DistanceHalving Uniform(64) reduce_scatter(max-f32)
    [0x1b6104fa7b0a707c, 0x6d17ad8ad29ba5c7, 0x3ed0d9efcddb9870], // graph 2 DistanceHalving Uniform(64) allreduce(sum-u8)
    [0x1eaa53860afac0d9, 0x6d17ad8ad29ba5c7, 0x3ed0d9efcddb9870], // graph 2 DistanceHalving Uniform(64) allreduce(max-u32)
    [0x8c09442de81e2034, 0x6d17ad8ad29ba5c7, 0x3ed0d9efcddb9870], // graph 2 DistanceHalving Uniform(64) allreduce(sum-f32)
    [0xa31f2255f651576f, 0x6d17ad8ad29ba5c7, 0x3ed0d9efcddb9870], // graph 2 DistanceHalving Uniform(64) allreduce(max-f32)
    [0xccd683d2096f18c6, 0xd28d0ed6ecf2de47, 0x3ee933a9b83663d3], // graph 2 DistanceHalving Uniform(4096) alltoallv
    [0xb162e71354d92840, 0xd37bb584f8570e47, 0x3ee656a7bc2feaba], // graph 2 DistanceHalving Uniform(4096) reduce_scatter(sum-u8)
    [0x02c61f835bb7803c, 0xd37bb584f8570e47, 0x3ee656a7bc2feaba], // graph 2 DistanceHalving Uniform(4096) reduce_scatter(max-u32)
    [0x28d9d589a5719737, 0xd37bb584f8570e47, 0x3ee656a7bc2feaba], // graph 2 DistanceHalving Uniform(4096) reduce_scatter(sum-f32)
    [0x9ddf3711c39289ee, 0xd37bb584f8570e47, 0x3ee656a7bc2feaba], // graph 2 DistanceHalving Uniform(4096) reduce_scatter(max-f32)
    [0xb78608462ad33618, 0xf97f867ffae96e47, 0x3ee310ee9c2884e6], // graph 2 DistanceHalving Uniform(4096) allreduce(sum-u8)
    [0xdd8b88a0a1ca1858, 0xf97f867ffae96e47, 0x3ee310ee9c2884e6], // graph 2 DistanceHalving Uniform(4096) allreduce(max-u32)
    [0xa643fd150adde1ac, 0xf97f867ffae96e47, 0x3ee310ee9c2884e6], // graph 2 DistanceHalving Uniform(4096) allreduce(sum-f32)
    [0xc00f4dafd5a8a380, 0xf97f867ffae96e47, 0x3ee310ee9c2884e6], // graph 2 DistanceHalving Uniform(4096) allreduce(max-f32)
    [0x0c69896f30f5b9be, 0xd00eb30094739c23, 0x3ed0ccd8e95b7ad8], // graph 2 DistanceHalving Ragged alltoallv
    [0xd564584d560262c2, 0x6e78c9b76b648043, 0x3ed0d435c9e38b7e], // graph 2 DistanceHalving Ragged reduce_scatter(sum-u8)
    [0xecf597f799d5f176, 0x6e78c9b76b648043, 0x3ed0d435c9e38b7e], // graph 2 DistanceHalving Ragged reduce_scatter(max-u32)
    [0x7acdf0227be4946f, 0x6e78c9b76b648043, 0x3ed0d435c9e38b7e], // graph 2 DistanceHalving Ragged reduce_scatter(sum-f32)
    [0xec4f3699dd76870f, 0x6e78c9b76b648043, 0x3ed0d435c9e38b7e], // graph 2 DistanceHalving Ragged reduce_scatter(max-f32)
    [0x8afe50b1d56788d0, 0x473ed660c5ad75d7, 0x3ec24935234256b8], // graph 2 Naive Uniform(64) alltoallv
    [0x1c640b3ae6741c2c, 0x473ed660c5ad75d7, 0x3ec24935234256b8], // graph 2 Naive Uniform(64) reduce_scatter(sum-u8)
    [0xf2adfc2d644f1992, 0x473ed660c5ad75d7, 0x3ec24935234256b8], // graph 2 Naive Uniform(64) reduce_scatter(max-u32)
    [0x1b2f0aaba2a0818b, 0x473ed660c5ad75d7, 0x3ec24935234256b8], // graph 2 Naive Uniform(64) reduce_scatter(sum-f32)
    [0xda578dc28e0003e2, 0x473ed660c5ad75d7, 0x3ec24935234256b8], // graph 2 Naive Uniform(64) reduce_scatter(max-f32)
    [0x1b6104fa7b0a707c, 0x473ed660c5ad75d7, 0x3ec24935234256b8], // graph 2 Naive Uniform(64) allreduce(sum-u8)
    [0x1eaa53860afac0d9, 0x473ed660c5ad75d7, 0x3ec24935234256b8], // graph 2 Naive Uniform(64) allreduce(max-u32)
    [0xb708aa4ae4405040, 0x473ed660c5ad75d7, 0x3ec24935234256b8], // graph 2 Naive Uniform(64) allreduce(sum-f32)
    [0xa31f2255f651576f, 0x473ed660c5ad75d7, 0x3ec24935234256b8], // graph 2 Naive Uniform(64) allreduce(max-f32)
    [0xccd683d2096f18c6, 0xf2ad1d879b326057, 0x3ee6166025bb6ebd], // graph 2 Naive Uniform(4096) alltoallv
    [0xb162e71354d92840, 0xf2ad1d879b326057, 0x3ee6166025bb6ebd], // graph 2 Naive Uniform(4096) reduce_scatter(sum-u8)
    [0x02c61f835bb7803c, 0xf2ad1d879b326057, 0x3ee6166025bb6ebd], // graph 2 Naive Uniform(4096) reduce_scatter(max-u32)
    [0xb63113429aff718e, 0xf2ad1d879b326057, 0x3ee6166025bb6ebd], // graph 2 Naive Uniform(4096) reduce_scatter(sum-f32)
    [0x030c48bbe07b316e, 0xf2ad1d879b326057, 0x3ee6166025bb6ebd], // graph 2 Naive Uniform(4096) reduce_scatter(max-f32)
    [0xb78608462ad33618, 0xf2ad1d879b326057, 0x3ee6166025bb6ebd], // graph 2 Naive Uniform(4096) allreduce(sum-u8)
    [0xdd8b88a0a1ca1858, 0xf2ad1d879b326057, 0x3ee6166025bb6ebd], // graph 2 Naive Uniform(4096) allreduce(max-u32)
    [0x1e0521ec52d1ac5f, 0xf2ad1d879b326057, 0x3ee6166025bb6ebd], // graph 2 Naive Uniform(4096) allreduce(sum-f32)
    [0xc00f4dafd5a8a380, 0xf2ad1d879b326057, 0x3ee6166025bb6ebd], // graph 2 Naive Uniform(4096) allreduce(max-f32)
    [0x0c69896f30f5b9be, 0xa1ffbed30fa6e913, 0x3ec1d9f28d015b32], // graph 2 Naive Ragged alltoallv
    [0xd564584d560262c2, 0xc6a76050021e77cf, 0x3ec2294d564a0e97], // graph 2 Naive Ragged reduce_scatter(sum-u8)
    [0xecf597f799d5f176, 0xc6a76050021e77cf, 0x3ec2294d564a0e97], // graph 2 Naive Ragged reduce_scatter(max-u32)
    [0xc59780360f03a137, 0xc6a76050021e77cf, 0x3ec2294d564a0e97], // graph 2 Naive Ragged reduce_scatter(sum-f32)
    [0xec4f3699dd76870f, 0xc6a76050021e77cf, 0x3ec2294d564a0e97], // graph 2 Naive Ragged reduce_scatter(max-f32)
];

// FNV fold, over all 138 cells in row order, of `fold_msgs(schedule
// .all_sends(), false)`: every wire message without its tag. Captured in
// PR 20 from the run that still mapped the gather plan's final-phase tag
// (`lower::FINAL_TAG`, 1 << 32) to the retired alltoall IR's (1 << 33) and
// reproduced all 138 rows of `GOLDEN` as PR 14 pinned them; column 1 of
// the 69 Distance Halving rows was then re-captured with the map dropped.
// This fold did not move, so that re-pin changed tags and nothing else.
const UNTAGGED: u64 = 0xf42cdad95f808ca4;

#[test]
fn goldens_of_the_retired_interpreter_hold_on_every_backend() {
    let (mut rows, mut untagged) = (GOLDEN.iter(), FNV_OFFSET);
    let mut isolated = false;
    let algos = [Algorithm::DistanceHalving, Algorithm::Naive];
    for_each_cell(&algos, &ops(), |label, comm, algo, op, sizes, sbufs| {
        let g = comm.graph();
        isolated |= (0..g.n()).any(|r| g.outdegree(r) + g.indegree(r) == 0);
        let want = rows.next().expect("one golden row per cell");
        let (got, wire) = cell_row(label, comm, algo, op, sizes, sbufs);
        assert_eq!(got[0], want[0], "{label}: virtual buffers");
        assert_eq!(got[1], want[1], "{label}: wire messages");
        assert_eq!(got[2], want[2], "{label}: makespan");
        untagged = fnv(untagged, wire);
    });
    assert!(rows.next().is_none(), "every golden row is consumed");
    assert_eq!(untagged, UNTAGGED, "a wire message moved or changed size, not just its tag");
    assert!(isolated, "one graph must leave ranks without an edge");
}

/// The relay planners whose f32 allreduce partials the goldens below
/// pin: every node of `for_each_cell`'s layouts hosts at least two ranks,
/// so the leader hierarchy runs with two distinct leaders per node.
const RELAYS: [Algorithm; 3] = [
    Algorithm::CommonNeighbor { k: 4 },
    Algorithm::HierarchicalLeader { leaders_per_node: 2 },
    Algorithm::Bruck,
];

fn f32_allreduces() -> [CollectiveOp; 2] {
    [Reduction::new(ReduceOp::Sum, DType::F32), Reduction::new(ReduceOp::Max, DType::F32)]
        .map(CollectiveOp::Allreduce)
}

// `cell_row` of every `RELAYS` × `f32_allreduces()` cell, captured while
// f32 partials still coalesced by interned fold tree: coalescing by
// source set must leave every buffer bit, wire message and makespan.
const RELAY_F32_ALLREDUCE: [[u64; 3]; 36] = [
    [0x279023a7b05b3a8c, 0xf66e7e4d4f3f4e44, 0x3ed296b15229c441], // graph 0 CommonNeighbor { k: 4 } Uniform(64) allreduce(sum-f32)
    [0xbea8dd9290dedea6, 0xf66e7e4d4f3f4e44, 0x3ed296b15229c441], // graph 0 CommonNeighbor { k: 4 } Uniform(64) allreduce(max-f32)
    [0x69dbe4282614cd24, 0x5314319746a05e04, 0x3efc0cccef720f35], // graph 0 CommonNeighbor { k: 4 } Uniform(4096) allreduce(sum-f32)
    [0xed5342333b57417a, 0x5314319746a05e04, 0x3efc0cccef720f35], // graph 0 CommonNeighbor { k: 4 } Uniform(4096) allreduce(max-f32)
    [0x06f4b4a64c5dde3d, 0x97f1421434942b25, 0x3ed1eae42f410b58], // graph 0 HierarchicalLeader { leaders_per_node: 2 } Uniform(64) allreduce(sum-f32)
    [0xbea8dd9290dedea6, 0x97f1421434942b25, 0x3ed1eae42f410b58], // graph 0 HierarchicalLeader { leaders_per_node: 2 } Uniform(64) allreduce(max-f32)
    [0xc73443e4d301b278, 0xc5b377e112025165, 0x3efe171016dc334d], // graph 0 HierarchicalLeader { leaders_per_node: 2 } Uniform(4096) allreduce(sum-f32)
    [0xed5342333b57417a, 0xc5b377e112025165, 0x3efe171016dc334d], // graph 0 HierarchicalLeader { leaders_per_node: 2 } Uniform(4096) allreduce(max-f32)
    [0xa6b3052fac4e51c8, 0x6654300f71eca12e, 0x3ed8b0ceb1db828f], // graph 0 Bruck Uniform(64) allreduce(sum-f32)
    [0xbea8dd9290dedea6, 0x6654300f71eca12e, 0x3ed8b0ceb1db828f], // graph 0 Bruck Uniform(64) allreduce(max-f32)
    [0xd40c7ae66ae5a772, 0x340f474f67c8666e, 0x3f0001e0ee9eb9d8], // graph 0 Bruck Uniform(4096) allreduce(sum-f32)
    [0xed5342333b57417a, 0x340f474f67c8666e, 0x3f0001e0ee9eb9d8], // graph 0 Bruck Uniform(4096) allreduce(max-f32)
    [0x13387e4c352d1bd9, 0x3579b2ff990fe9f7, 0x3ed46c8c670b3fc9], // graph 1 CommonNeighbor { k: 4 } Uniform(64) allreduce(sum-f32)
    [0xa47db37aa52db150, 0x3579b2ff990fe9f7, 0x3ed46c8c670b3fc9], // graph 1 CommonNeighbor { k: 4 } Uniform(64) allreduce(max-f32)
    [0xf91a3c61bcbf7b06, 0xb3ae4336537db937, 0x3efd8352c91c7337], // graph 1 CommonNeighbor { k: 4 } Uniform(4096) allreduce(sum-f32)
    [0x6d02584185794fa6, 0xb3ae4336537db937, 0x3efd8352c91c7337], // graph 1 CommonNeighbor { k: 4 } Uniform(4096) allreduce(max-f32)
    [0xc7052b3cb70dcf3a, 0x2a310cd9462a62d2, 0x3ed1bc69e5e62246], // graph 1 HierarchicalLeader { leaders_per_node: 2 } Uniform(64) allreduce(sum-f32)
    [0xa47db37aa52db150, 0x2a310cd9462a62d2, 0x3ed1bc69e5e62246], // graph 1 HierarchicalLeader { leaders_per_node: 2 } Uniform(64) allreduce(max-f32)
    [0x380ccd4709f04325, 0xc631b5624c1b1a92, 0x3efadab889b3086e], // graph 1 HierarchicalLeader { leaders_per_node: 2 } Uniform(4096) allreduce(sum-f32)
    [0x6d02584185794fa6, 0xc631b5624c1b1a92, 0x3efadab889b3086e], // graph 1 HierarchicalLeader { leaders_per_node: 2 } Uniform(4096) allreduce(max-f32)
    [0x371b33906108521e, 0x33be988cd8e85a40, 0x3ed8b6ae4ce70c8e], // graph 1 Bruck Uniform(64) allreduce(sum-f32)
    [0xa47db37aa52db150, 0x33be988cd8e85a40, 0x3ed8b6ae4ce70c8e], // graph 1 Bruck Uniform(64) allreduce(max-f32)
    [0x140691e353c3ce6d, 0x7d138688006003c0, 0x3efe272d85fc28f5], // graph 1 Bruck Uniform(4096) allreduce(sum-f32)
    [0x6d02584185794fa6, 0x7d138688006003c0, 0x3efe272d85fc28f5], // graph 1 Bruck Uniform(4096) allreduce(max-f32)
    [0x8c91629f7e6bdc3c, 0xf01af34bc4554d99, 0x3ec322fd5bb89863], // graph 2 CommonNeighbor { k: 4 } Uniform(64) allreduce(sum-f32)
    [0xa31f2255f651576f, 0xf01af34bc4554d99, 0x3ec322fd5bb89863], // graph 2 CommonNeighbor { k: 4 } Uniform(64) allreduce(max-f32)
    [0xf542f17680ba77d9, 0x6189cce7cf775e99, 0x3ee53785e46c36f1], // graph 2 CommonNeighbor { k: 4 } Uniform(4096) allreduce(sum-f32)
    [0xc00f4dafd5a8a380, 0x6189cce7cf775e99, 0x3ee53785e46c36f1], // graph 2 CommonNeighbor { k: 4 } Uniform(4096) allreduce(max-f32)
    [0x78b88c3757946327, 0x729637f4bead9965, 0x3ed0b207ad28cb59], // graph 2 HierarchicalLeader { leaders_per_node: 2 } Uniform(64) allreduce(sum-f32)
    [0xa31f2255f651576f, 0x729637f4bead9965, 0x3ed0b207ad28cb59], // graph 2 HierarchicalLeader { leaders_per_node: 2 } Uniform(64) allreduce(max-f32)
    [0x9eb56b44ef14d184, 0x1310c8a842ec9265, 0x3ef0606d4a85ad1f], // graph 2 HierarchicalLeader { leaders_per_node: 2 } Uniform(4096) allreduce(sum-f32)
    [0xc00f4dafd5a8a380, 0x1310c8a842ec9265, 0x3ef0606d4a85ad1f], // graph 2 HierarchicalLeader { leaders_per_node: 2 } Uniform(4096) allreduce(max-f32)
    [0xe37ca9b096c5bfa9, 0xdd6e69aad4db3240, 0x3edaec8b4b01260c], // graph 2 Bruck Uniform(64) allreduce(sum-f32)
    [0xa31f2255f651576f, 0xdd6e69aad4db3240, 0x3edaec8b4b01260c], // graph 2 Bruck Uniform(64) allreduce(max-f32)
    [0xe29c073876e6726c, 0x580bffac8b891c40, 0x3ef4204178ac5d26], // graph 2 Bruck Uniform(4096) allreduce(sum-f32)
    [0xc00f4dafd5a8a380, 0x580bffac8b891c40, 0x3ef4204178ac5d26], // graph 2 Bruck Uniform(4096) allreduce(max-f32)
];

#[test]
fn f32_allreduce_goldens_hold_under_the_relay_planners() {
    for &(n, _, _) in &GRAPHS {
        // the layouts' nodes host 8 ranks each but the last
        assert!(n % 8 == 0 || n % 8 >= 2, "a node hosts fewer ranks than leaders");
    }
    let mut rows = RELAY_F32_ALLREDUCE.iter();
    for_each_cell(&RELAYS, &f32_allreduces(), |label, comm, algo, op, sizes, sbufs| {
        let want = rows.next().expect("one golden row per cell");
        assert_eq!(cell_row(label, comm, algo, op, sizes, sbufs).0, *want, "{label}");
    });
    assert!(rows.next().is_none(), "every golden row is consumed");
}
