//! Generated differential suite for `CollectivePlan::validate`.
//!
//! Every case is one seeded mutation of one generated plan — taken out
//! in the owned row form (`to_rows`), mutated there, and put back
//! (`from_rows`), so the plan the validator reads is a flat one: all six
//! algorithms × n ∈ {17, 32, 61, 96} × `DetRng`-drawn δ × the eight
//! mutations below. The dense validator must return **the same error**
//! — not merely the same verdict — as a brute-force oracle written here
//! straight from the five numbered rules and the documented defect
//! order: linear scans over the programs and two n × n tables, no index,
//! no map, nothing shared with the implementation. A failing case is
//! printed as `(algorithm, n, δ-seed, mutation-seed)`.
//!
//! Every op's compile must admit exactly the mutated plans the validator
//! admits, and refuse the others with `ExecError::InvalidPlan` of the
//! validator's error: the executors run what `validate` defines and
//! nothing else. The gather compile is read directly
//! (`ArenaLayout::for_plan`); the combining ops run their request over
//! the mutated plan (`DistGraphComm::collective_on`) — alltoallv under
//! every algorithm, reduce_scatter and allreduce wherever the support
//! matrix admits the algorithm — and an admitted plan must return the
//! naive reference's bytes.
//!
//! The lowered schedule of every mutated plan then goes through
//! `Schedule::validate` and `Engine::run`: the engine must answer
//! `InvalidSchedule` with the validator's exact text iff the validator
//! rejects.

use nhood_cluster::ClusterLayout;
use nhood_core::collective::reference;
use nhood_core::exec::sim_exec::to_schedule_v;
use nhood_core::plan::{PlanPhase, PlannedMsg};
use nhood_core::{
    Algorithm, ArenaLayout, BlockArena, CollectiveOp, CollectivePlan, CollectiveRequest, CommError,
    DistGraphComm, ExecError, PlanValidationError as E, Reduction, SimCost,
};
use nhood_simnet::{Engine, SimError, SimReport};
use nhood_topology::random::erdos_renyi;
use nhood_topology::rng::{hash_mix, DetRng};
use nhood_topology::{Rank, Topology};
use std::sync::Arc;

const ALGORITHMS: [Algorithm; 6] = [
    Algorithm::Naive,
    Algorithm::DistanceHalving,
    Algorithm::CommonNeighbor { k: 4 },
    Algorithm::HierarchicalLeader { leaders_per_node: 2 },
    Algorithm::Bruck,
    Algorithm::Pat { radix: 2 },
];
const SIZES: [usize; 4] = [17, 32, 61, 96];
/// δ draws per (algorithm, n); × 8 mutations × 24 pairs = 2,112 cases.
const DELTAS: u64 = 11;
const MUTATIONS: u64 = 8;

/// A plan in the owned row form: `rows[r]` is rank `r`'s program.
type Rows = Vec<Vec<PlanPhase>>;

/// Every send, in program order: `(rank, phase, msg)`.
fn all_sends(plan: &Rows) -> Vec<(Rank, usize, &PlannedMsg)> {
    let mut out = Vec::new();
    for (r, prog) in plan.iter().enumerate() {
        for (k, ph) in prog.iter().enumerate() {
            out.extend(ph.sends.iter().map(|m| (r, k, m)));
        }
    }
    out
}

/// The five rules, by brute force, in the documented defect order. A
/// message is its send: its destination receives it in the send's phase.
fn oracle(plan: &Rows, graph: &Topology) -> Result<(), E> {
    let n = plan.len();
    if graph.n() != n {
        return Err(E::RankCountMismatch { plan: n, topology: graph.n() });
    }
    // 1: lock-step, lowest rank
    let want = plan.first().map_or(0, Vec::len);
    for (rank, prog) in plan.iter().enumerate() {
        if prog.len() != want {
            return Err(E::NotLockStep { rank, got: prog.len(), want });
        }
    }
    // 2: per-send sanity in program order
    let sends = all_sends(plan);
    for &(rank, phase, m) in &sends {
        if m.peer >= n || m.peer == rank {
            return Err(E::BadPeer { rank, phase, peer: m.peer });
        }
        if m.blocks.is_empty() {
            return Err(E::EmptySend { rank, phase, peer: m.peer });
        }
    }
    // a key two sends share, lowest (dst, src, tag)
    let mut repeated: Option<(Rank, Rank, u64)> = None;
    for (i, &(src, _, a)) in sends.iter().enumerate() {
        for &(other, _, b) in &sends[i + 1..] {
            let key = (a.peer, src, a.tag);
            if other == src
                && (b.peer, b.tag) == (a.peer, a.tag)
                && repeated.is_none_or(|r| key < r)
            {
                repeated = Some(key);
            }
        }
    }
    if let Some((dst, src, tag)) = repeated {
        return Err(E::DuplicateKey { src, dst, tag });
    }
    // 3 + 4: the lock-step possession sweep, phase by phase
    let mut holds = vec![vec![false; n]; n];
    let mut delivered = vec![vec![0usize; n]; n];
    for (r, own) in holds.iter_mut().enumerate() {
        own[r] = true;
    }
    for phase in 0..want {
        for (rank, prog) in plan.iter().enumerate() {
            for &block in prog[phase].sends.iter().flat_map(|m| &m.blocks) {
                if block >= n || !holds[rank][block] {
                    return Err(E::UnheldBlock { rank, phase, block });
                }
            }
        }
        for prog in plan {
            for m in &prog[phase].sends {
                for &block in &m.blocks {
                    holds[m.peer][block] = true;
                    delivered[block][m.peer] += 1;
                }
            }
        }
    }
    for (src, dst) in graph.edges() {
        match delivered[src][dst] {
            0 => return Err(E::NeverDelivered { src, dst }),
            1 => {}
            count => return Err(E::DuplicateDelivery { src, dst, count }),
        }
    }
    Ok(())
}

/// `(rank, phase, index)` of a random send, if any.
fn pick(plan: &Rows, rng: &mut DetRng) -> Option<(Rank, usize, usize)> {
    let all = all_sends(plan);
    if all.is_empty() {
        return None;
    }
    let (r, k, m) = all[rng.gen_below(all.len())];
    let at = plan[r][k].sends.iter().position(|x| std::ptr::eq(x, m));
    Some((r, k, at.expect("picked from this phase")))
}

/// Appends `block` to a random send.
fn append(plan: &mut Rows, block: impl Fn(Rank, Rank) -> Rank, rng: &mut DetRng) {
    let Some((src, k, i)) = pick(plan, rng) else { return };
    let send = &mut plan[src][k].sends[i];
    send.blocks.push(block(src, send.peer));
}

/// One seeded mutation; a mutation with nothing to bite on leaves the
/// plan valid, which exercises the accept path.
fn mutate(plan: &mut Rows, graph: &Topology, kind: u64, rng: &mut DetRng) {
    let n = plan.len();
    match kind {
        // drop a send
        0 => {
            if let Some((r, k, i)) = pick(plan, rng) {
                plan[r][k].sends.remove(i);
            }
        }
        // duplicate a tag: a send takes the tag of a send of the same rank
        1 => {
            let Some((r, k, i)) = pick(plan, rng) else { return };
            let tags: Vec<u64> = plan[r].iter().flat_map(|ph| &ph.sends).map(|m| m.tag).collect();
            plan[r][k].sends[i].tag = tags[rng.gen_below(tags.len())];
        }
        // move one block between two sends of the same rank and phase
        2 => {
            let mut buckets: Vec<(Rank, usize)> = Vec::new();
            for (r, prog) in plan.iter().enumerate() {
                let shared = prog.iter().enumerate().filter(|(_, ph)| ph.sends.len() > 1);
                buckets.extend(shared.map(|(k, _)| (r, k)));
            }
            if buckets.is_empty() {
                return;
            }
            let (r, k) = buckets[rng.gen_below(buckets.len())];
            let sends = &mut plan[r][k].sends;
            let from = rng.gen_below(sends.len());
            let to = (from + 1 + rng.gen_below(sends.len() - 1)) % sends.len();
            if !sends[from].blocks.is_empty() {
                let at = rng.gen_below(sends[from].blocks.len());
                let block = sends[from].blocks.remove(at);
                sends[to].blocks.push(block);
            }
        }
        // move a send to another phase
        3 => {
            let Some((r, k, i)) = pick(plan, rng) else { return };
            let m = plan[r][k].sends.remove(i);
            let to = rng.gen_below(plan[r].len());
            plan[r][to].sends.push(m);
        }
        // retarget a send (possibly onto the rank itself)
        4 => {
            let Some((r, k, i)) = pick(plan, rng) else { return };
            plan[r][k].sends[i].peer = rng.gen_below(n);
        }
        // append an already-delivered block: one the receiver is owed
        5 => {
            let draw = rng.next_u64() as usize;
            let owed = |_, dst: Rank| {
                let ins = graph.in_neighbors(dst);
                if ins.is_empty() {
                    dst
                } else {
                    ins[draw % ins.len()]
                }
            };
            append(plan, owed, rng);
        }
        // send a (most likely) never-held block
        6 => {
            let b = rng.gen_below(n);
            append(plan, |_, _| b, rng);
        }
        // drop a whole rank's last phase
        _ => {
            plan[rng.gen_below(n)].pop();
        }
    }
}

/// The combining ops and their payloads on `graph`: 4-byte items for
/// alltoallv and reduce_scatter, a 4-byte vector per rank for allreduce.
fn combining_requests(graph: &Topology) -> [(CollectiveOp, Vec<Vec<u8>>); 3] {
    let items: Vec<Vec<u8>> = (0..graph.n())
        .map(|p| {
            let out = graph.out_neighbors(p).iter();
            out.flat_map(|&d| (0..4).map(move |i| (p * 31 + d * 7 + i) as u8)).collect()
        })
        .collect();
    let own = (0..graph.n()).map(|p| vec![(p * 29 + 3) as u8; 4]).collect();
    [
        (CollectiveOp::Alltoallv, items.clone()),
        (CollectiveOp::ReduceScatter(Reduction::SUM_U8), items),
        (CollectiveOp::Allreduce(Reduction::SUM_U8), own),
    ]
}

#[test]
fn dense_validator_agrees_with_the_brute_force_oracle() {
    let cost = SimCost::niagara();
    let (mut cases, mut rejected) = (0usize, 0usize);
    let mut seen = std::collections::BTreeSet::new();
    for (a, &algorithm) in ALGORITHMS.iter().enumerate() {
        for &n in &SIZES {
            let layout = ClusterLayout::new(n.div_ceil(16), 2, 8);
            for delta_seed in 0..DELTAS {
                let mut shape =
                    DetRng::seed_from_u64(hash_mix(&[0xD1FF, a as u64, n as u64, delta_seed]));
                let delta = 0.04 + 0.3 * shape.gen_f64();
                let graph = erdos_renyi(n, delta, shape.next_u64());
                let comm = DistGraphComm::create_adjacent(graph.clone(), layout.clone()).unwrap();
                let pristine = comm.plan(algorithm).unwrap();
                assert_eq!(
                    oracle(&pristine.to_rows(), &graph),
                    Ok(()),
                    "{algorithm} n={n} δ-seed {delta_seed}"
                );
                // the combining ops the support matrix admits under
                // `algorithm` here, each returning the reference's bytes
                let mut combining = combining_requests(&graph).to_vec();
                combining.retain(|(op, payloads)| {
                    let req = CollectiveRequest::new(*op, payloads).algorithm(algorithm);
                    match comm.collective(&req) {
                        Ok(out) => {
                            let want = reference(&graph, *op, payloads, None).unwrap();
                            assert!(out.rbufs == want, "{op} {algorithm} n={n}: not the reference");
                            true
                        }
                        Err(CommError::UnsupportedCollective { .. })
                            if op.reduction().is_some() =>
                        {
                            false
                        }
                        Err(e) => panic!("{op} {algorithm} n={n}: {e}"),
                    }
                });
                let arena = &mut BlockArena::new();
                for kind in 0..MUTATIONS {
                    let mutation_seed = hash_mix(&[delta_seed, kind, n as u64, a as u64]);
                    let case = format!("({algorithm}, {n}, {delta_seed}, {mutation_seed:#x})");
                    let mut rows = pristine.to_rows();
                    mutate(&mut rows, &graph, kind, &mut DetRng::seed_from_u64(mutation_seed));
                    let plan = CollectivePlan::from_rows(algorithm, pristine.selection, &rows);
                    assert_eq!(plan.to_rows(), rows, "case {case}: the row form round-trips");

                    let (got, want) = (plan.validate(&graph), oracle(&rows, &graph));
                    assert_eq!(got, want, "validator and oracle disagree on case {case}");
                    let compiled = ArenaLayout::for_plan(&plan, &graph).map(drop);
                    let refused = got.clone().map_err(ExecError::InvalidPlan);
                    assert_eq!(compiled, refused, "compile and validator disagree on case {case}");
                    let plan = Arc::new(plan);
                    for (op, payloads) in &combining {
                        let req = CollectiveRequest::new(*op, payloads).algorithm(algorithm);
                        let ran = comm.collective_on(&req, Some(&plan), arena).map(|o| o.rbufs);
                        match (&got, ran) {
                            (Err(e), Err(CommError::Exec(ExecError::InvalidPlan(ran)))) => {
                                assert_eq!(&ran, e, "{op} on case {case}")
                            }
                            (Ok(()), Ok(rbufs)) => {
                                let want = reference(&graph, *op, payloads, None).unwrap();
                                assert!(rbufs == want, "{op} on case {case}: not the reference")
                            }
                            (want, ran) => {
                                panic!(
                                    "{op} on case {case}: {:?}, validator {want:?}",
                                    ran.map(drop)
                                )
                            }
                        }
                    }
                    cases += 1;
                    if let Err(e) = &got {
                        rejected += 1;
                        let name = format!("{e:?}");
                        seen.insert(name.split(' ').next().expect("a variant name").to_string());
                    }

                    // The lowered schedule: rejected by the engine iff
                    // its validator rejects it, in the same words.
                    let schedule = to_schedule_v(&plan, &vec![64; n], &cost);
                    let engine = Engine::new(&layout, cost.net);
                    let bits = |r: Result<SimReport, SimError>| r.map(|rep| rep.makespan.to_bits());
                    let ran = bits(engine.run(&schedule));
                    match schedule.validate() {
                        Err(text) => {
                            assert_eq!(ran, Err(SimError::InvalidSchedule(text)), "case {case}")
                        }
                        Ok(()) => assert!(
                            !matches!(ran, Err(SimError::InvalidSchedule(_))),
                            "case {case}: {ran:?}"
                        ),
                    }
                }
            }
        }
    }
    assert!(cases >= 2000, "only {cases} cases");
    assert!(rejected * 10 >= cases * 7, "only {rejected} of {cases} mutations were rejected");
    // every variant a single mutation can reach was reached
    for v in &[
        "NotLockStep",
        "BadPeer",
        "EmptySend",
        "DuplicateKey",
        "UnheldBlock",
        "NeverDelivered",
        "DuplicateDelivery",
    ] {
        assert!(seen.contains(*v), "no case was rejected as {v}: {seen:?}");
    }
}
