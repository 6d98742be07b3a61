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
//! The gather compile (`ArenaLayout::for_plan`) must admit exactly the
//! mutated plans the validator admits, and refuse the others with
//! `ExecError::InvalidPlan` of the validator's error: the executors run
//! what `validate` defines and nothing else.
//!
//! The lowered schedule of every mutated plan then goes through
//! `Schedule::validate` and `Engine::run`: the engine must answer
//! `InvalidSchedule` with the validator's exact text iff the validator
//! rejects.

use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::to_schedule_v;
use nhood_core::plan::{MsgDir, PlanPhase, PlannedMsg};
use nhood_core::{
    Algorithm, ArenaLayout, CollectivePlan, DistGraphComm, ExecError, PlanValidationError as E,
    SimCost,
};
use nhood_simnet::{Engine, SimError, SimReport};
use nhood_topology::random::erdos_renyi;
use nhood_topology::rng::{hash_mix, DetRng};
use nhood_topology::{Rank, Topology};

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

/// Every message of one side, in program order: `(rank, phase, msg)`.
fn side(plan: &Rows, dir: MsgDir) -> Vec<(Rank, usize, &PlannedMsg)> {
    let mut out = Vec::new();
    for (r, prog) in plan.iter().enumerate() {
        for (k, ph) in prog.iter().enumerate() {
            let msgs = if dir == MsgDir::Send { &ph.sends } else { &ph.recvs };
            out.extend(msgs.iter().map(|m| (r, k, m)));
        }
    }
    out
}

/// The five rules, by brute force, in the documented defect order.
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
    // 2: per-message sanity in program order, sends before recvs
    for (rank, prog) in plan.iter().enumerate() {
        for (phase, ph) in prog.iter().enumerate() {
            for (dir, msgs) in [(MsgDir::Send, &ph.sends), (MsgDir::Recv, &ph.recvs)] {
                for m in msgs {
                    if m.peer >= n || m.peer == rank {
                        return Err(E::BadPeer { rank, phase, peer: m.peer, dir });
                    }
                    if dir == MsgDir::Send && m.blocks.is_empty() {
                        return Err(E::EmptySend { rank, phase, peer: m.peer });
                    }
                }
            }
        }
    }
    let (sends, recvs) = (side(plan, MsgDir::Send), side(plan, MsgDir::Recv));
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
        return Err(E::DuplicateKey { src, dst, tag, dir: MsgDir::Send });
    }
    // every recv claims the send with its key; the first to claim a
    // claimed one is the recv-side duplicate
    let mut claimed = vec![false; sends.len()];
    let mut send_of: Vec<Option<usize>> = vec![None; recvs.len()];
    for (at, &(dst, _, m)) in recvs.iter().enumerate() {
        let found =
            sends.iter().position(|&(src, _, s)| (src, s.peer, s.tag) == (m.peer, dst, m.tag));
        if let Some(id) = found {
            if std::mem::replace(&mut claimed[id], true) {
                return Err(E::DuplicateKey { src: m.peer, dst, tag: m.tag, dir: MsgDir::Recv });
            }
            send_of[at] = Some(id);
        }
    }
    if sends.len() != recvs.len() {
        return Err(E::SendRecvCountMismatch { sends: sends.len(), recvs: recvs.len() });
    }
    let unclaimed = sends.iter().zip(&claimed).filter(|(_, &c)| !c);
    if let Some((dst, src, tag)) = unclaimed.map(|(&(src, _, s), _)| (s.peer, src, s.tag)).min() {
        return Err(E::UnmatchedSend { src, dst, tag });
    }
    // the first recv in program order that disagrees with its send
    for (at, &(dst, recv_phase, m)) in recvs.iter().enumerate() {
        let (src, send_phase, s) = sends[send_of[at].expect("every send is claimed")];
        if send_phase != recv_phase {
            return Err(E::PhaseSkew { src, dst, tag: m.tag, send_phase, recv_phase });
        } else if s.blocks != m.blocks {
            return Err(E::BlockListMismatch { src, dst, tag: m.tag });
        }
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
        for (rank, prog) in plan.iter().enumerate() {
            for &block in prog[phase].recvs.iter().flat_map(|m| &m.blocks) {
                holds[rank][block] = true;
                delivered[block][rank] += 1;
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

/// `(rank, phase, index)` of a random message of one side, if any.
fn pick(plan: &Rows, dir: MsgDir, rng: &mut DetRng) -> Option<(Rank, usize, usize)> {
    let all = side(plan, dir);
    if all.is_empty() {
        return None;
    }
    let (r, k, m) = all[rng.gen_below(all.len())];
    let msgs = if dir == MsgDir::Send { &plan[r][k].sends } else { &plan[r][k].recvs };
    Some((r, k, msgs.iter().position(|x| std::ptr::eq(x, m)).expect("picked from this phase")))
}

fn msg_mut(plan: &mut Rows, dir: MsgDir, (r, k, i): (Rank, usize, usize)) -> &mut PlannedMsg {
    let ph = &mut plan[r][k];
    if dir == MsgDir::Send {
        &mut ph.sends[i]
    } else {
        &mut ph.recvs[i]
    }
}

/// Appends `block` to a random send and to the recv that mirrors it.
fn append_both_sides(plan: &mut Rows, block: impl Fn(Rank, Rank) -> Rank, rng: &mut DetRng) {
    let Some((src, k, i)) = pick(plan, MsgDir::Send, rng) else { return };
    let (dst, tag) = (plan[src][k].sends[i].peer, plan[src][k].sends[i].tag);
    let b = block(src, dst);
    plan[src][k].sends[i].blocks.push(b);
    if let Some(m) = plan[dst][k].recvs.iter_mut().find(|m| (m.peer, m.tag) == (src, tag)) {
        m.blocks.push(b);
    }
}

/// One seeded mutation; a mutation with nothing to bite on leaves the
/// plan valid, which exercises the accept path.
fn mutate(plan: &mut Rows, graph: &Topology, kind: u64, rng: &mut DetRng) {
    let n = plan.len();
    match kind {
        // drop a recv
        0 => {
            if let Some((r, k, i)) = pick(plan, MsgDir::Recv, rng) {
                plan[r][k].recvs.remove(i);
            }
        }
        // duplicate a tag: a message takes the tag of a message of the
        // same rank and side
        1 => {
            let dir = if rng.gen_bool(0.5) { MsgDir::Send } else { MsgDir::Recv };
            let Some((r, k, i)) = pick(plan, dir, rng) else { return };
            let tags: Vec<u64> =
                side(plan, dir).iter().filter(|m| m.0 == r).map(|m| m.2.tag).collect();
            msg_mut(plan, dir, (r, k, i)).tag = tags[rng.gen_below(tags.len())];
        }
        // permute a block list on one side (or, one time in four, both)
        2 => {
            let Some((src, k, i)) = pick(plan, MsgDir::Send, rng) else { return };
            let both = rng.gen_below(4) == 0;
            let (dst, tag) = (plan[src][k].sends[i].peer, plan[src][k].sends[i].tag);
            plan[src][k].sends[i].blocks.rotate_left(1);
            let mirror = plan[dst][k].recvs.iter_mut().find(|m| (m.peer, m.tag) == (src, tag));
            if let (true, Some(m)) = (both, mirror) {
                m.blocks.rotate_left(1);
            }
        }
        // move a recv to another phase
        3 => {
            let Some((r, k, i)) = pick(plan, MsgDir::Recv, rng) else { return };
            let m = plan[r][k].recvs.remove(i);
            let to = rng.gen_below(plan[r].len());
            plan[r][to].recvs.push(m);
        }
        // retarget a peer (possibly onto the rank itself)
        4 => {
            let dir = if rng.gen_bool(0.5) { MsgDir::Send } else { MsgDir::Recv };
            let Some(at) = pick(plan, dir, rng) else { return };
            msg_mut(plan, dir, at).peer = rng.gen_below(n);
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
            append_both_sides(plan, owed, rng);
        }
        // send a (most likely) never-held block
        6 => {
            let b = rng.gen_below(n);
            append_both_sides(plan, |_, _| b, rng);
        }
        // drop a whole rank's last phase
        _ => {
            plan[rng.gen_below(n)].pop();
        }
    }
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
        "DuplicateKey",
        "SendRecvCountMismatch",
        "UnmatchedSend",
        "PhaseSkew",
        "BlockListMismatch",
        "UnheldBlock",
        "DuplicateDelivery",
    ] {
        assert!(seen.contains(*v), "no case was rejected as {v}: {seen:?}");
    }
}
