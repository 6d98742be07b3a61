//! The flat plan representation is invisible: every builder's plan for
//! seven shapes × two seeds writes the plan file the nested
//! representation wrote (FNV-1a of `write_plan`'s bytes, captured at the
//! commit before the tables went flat), survives the row form both ways,
//! and a `PlanWriter` finishes to the same tables however its rows were
//! interleaved across buckets — in emission order within one.

use nhood_cluster::{ClusterLayout, Placement};
use nhood_core::plan::{MsgDir, PlanPhase, PlanWriter, PlannedMsg};
use nhood_core::plan_io::{decode_plan, write_plan};
use nhood_core::{Algorithm, CollectivePlan, DistGraphComm};
use nhood_topology::random::erdos_renyi;
use nhood_topology::Topology;

const SHAPES: [(&str, usize); 7] =
    [("n0", 0), ("n1", 1), ("n2", 2), ("n17", 17), ("n61", 61), ("n96", 96), ("n40-isolated", 40)];
const BUILDERS: [(&str, Algorithm, bool); 7] = [
    ("naive", Algorithm::Naive, false),
    ("cn4", Algorithm::CommonNeighbor { k: 4 }, false),
    ("dh", Algorithm::DistanceHalving, false),
    ("pat2", Algorithm::Pat { radix: 2 }, false),
    ("bruck", Algorithm::Bruck, false),
    ("hl2", Algorithm::HierarchicalLeader { leaders_per_node: 2 }, false),
    ("dh-remap", Algorithm::DistanceHalving, true),
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Every (shape, seed, builder) plan, in a fixed order, with its name.
fn cases() -> Vec<(String, Topology, CollectivePlan)> {
    let mut out = Vec::new();
    for (shape, n) in SHAPES {
        for seed in [1u64, 2] {
            let mut graph = erdos_renyi(n, if seed == 1 { 0.15 } else { 0.4 }, seed);
            if shape == "n40-isolated" {
                let alone = |r: usize| [0, 7, 39].contains(&r);
                let kept: Vec<_> = graph.edges().filter(|&(s, d)| !alone(s) && !alone(d)).collect();
                graph = Topology::from_edges(n, kept);
            }
            for (name, algo, remap) in BUILDERS {
                let mut layout = ClusterLayout::new(n.div_ceil(8).max(1), 2, 4);
                if remap {
                    layout = layout.with_placement(Placement::RoundRobinNodes);
                }
                let comm = DistGraphComm::create_adjacent(graph.clone(), layout).unwrap();
                let plan = comm.plan(algo).unwrap_or_else(|e| panic!("{shape} {seed} {name}: {e}"));
                out.push((format!("{shape}/s{seed}/{name}"), graph.clone(), plan));
            }
        }
    }
    out
}

fn file_fnv(plan: &CollectivePlan) -> u64 {
    let mut bytes = Vec::new();
    write_plan(plan, &mut bytes).unwrap();
    fnv(&bytes)
}

/// `(shape/seed/builder, FNV-1a of the plan file)` at the parent commit.
const GOLDENS: [(&str, u64); 98] = [
    ("n0/s1/naive", 0x63a11fe420da040d),
    ("n0/s1/cn4", 0xc3a9c80e883c1a08),
    ("n0/s1/dh", 0xe32ed65ff220bace),
    ("n0/s1/pat2", 0x9634f3da6cde964a),
    ("n0/s1/bruck", 0x4e3e544995010209),
    ("n0/s1/hl2", 0x1baa805348fc6fcc),
    ("n0/s1/dh-remap", 0xe32ed65ff220bace),
    ("n0/s2/naive", 0x63a11fe420da040d),
    ("n0/s2/cn4", 0xc3a9c80e883c1a08),
    ("n0/s2/dh", 0xe32ed65ff220bace),
    ("n0/s2/pat2", 0x9634f3da6cde964a),
    ("n0/s2/bruck", 0x4e3e544995010209),
    ("n0/s2/hl2", 0x1baa805348fc6fcc),
    ("n0/s2/dh-remap", 0xe32ed65ff220bace),
    ("n1/s1/naive", 0xa510fa055d80f06d),
    ("n1/s1/cn4", 0xbbe95968ac4c8e8f),
    ("n1/s1/dh", 0xed3e9363d278a64d),
    ("n1/s1/pat2", 0xc39cc5a790b4956a),
    ("n1/s1/bruck", 0xcb0fc889a923a5ab),
    ("n1/s1/hl2", 0x342a4de080005e89),
    ("n1/s1/dh-remap", 0xed3e9363d278a64d),
    ("n1/s2/naive", 0xa510fa055d80f06d),
    ("n1/s2/cn4", 0xbbe95968ac4c8e8f),
    ("n1/s2/dh", 0xed3e9363d278a64d),
    ("n1/s2/pat2", 0xc39cc5a790b4956a),
    ("n1/s2/bruck", 0xcb0fc889a923a5ab),
    ("n1/s2/hl2", 0x342a4de080005e89),
    ("n1/s2/dh-remap", 0xed3e9363d278a64d),
    ("n2/s1/naive", 0x934c112159e9a6cf),
    ("n2/s1/cn4", 0x8ffed7dcfe4f1dcc),
    ("n2/s1/dh", 0x486719f79a0c794c),
    ("n2/s1/pat2", 0xab2543dabb1e8a88),
    ("n2/s1/bruck", 0x447f3a5b6df3960b),
    ("n2/s1/hl2", 0x661e7862be77030e),
    ("n2/s1/dh-remap", 0x486719f79a0c794c),
    ("n2/s2/naive", 0xc5f151fc3e20ff2e),
    ("n2/s2/cn4", 0x6b03445b73dc71ed),
    ("n2/s2/dh", 0x1a1beb8c7d93be2d),
    ("n2/s2/pat2", 0xbda25f668d82b2a9),
    ("n2/s2/bruck", 0xf6c6f6f853166546),
    ("n2/s2/hl2", 0x679879f8298abeef),
    ("n2/s2/dh-remap", 0x1a1beb8c7d93be2d),
    ("n17/s1/naive", 0x44442445f12229e7),
    ("n17/s1/cn4", 0x4847bb302b1c0bc9),
    ("n17/s1/dh", 0xc1fbeb2aa7de0cf5),
    ("n17/s1/pat2", 0x08c0f4da0b9ebf63),
    ("n17/s1/bruck", 0x6bbcbce82e99383d),
    ("n17/s1/hl2", 0x4fa26ee86bac5bf3),
    ("n17/s1/dh-remap", 0x329d9bcee89ff863),
    ("n17/s2/naive", 0xc42db508a75b59f5),
    ("n17/s2/cn4", 0xe74cbd06dd1a1104),
    ("n17/s2/dh", 0xc3164a6e889bb05d),
    ("n17/s2/pat2", 0xf67787b4cc3e21fa),
    ("n17/s2/bruck", 0xfd99d2e8a866a7cc),
    ("n17/s2/hl2", 0x9fc213b05c9fe13f),
    ("n17/s2/dh-remap", 0x2d7bdd1b3857e265),
    ("n61/s1/naive", 0xf2f3cabeecbe02a1),
    ("n61/s1/cn4", 0x4e08decf66851c53),
    ("n61/s1/dh", 0x7ad92b53b5f169e7),
    ("n61/s1/pat2", 0xfd8436f802ea1cb0),
    ("n61/s1/bruck", 0x4afad39f0ae346a5),
    ("n61/s1/hl2", 0x6021a7fef9a6f2de),
    ("n61/s1/dh-remap", 0xc32c562f74cc2dfa),
    ("n61/s2/naive", 0xa3605aff187f0150),
    ("n61/s2/cn4", 0x0809afe520f12374),
    ("n61/s2/dh", 0xf7dcf0f6037392dc),
    ("n61/s2/pat2", 0x35d85c0fb12aa519),
    ("n61/s2/bruck", 0x6171d3fdba5ed037),
    ("n61/s2/hl2", 0x0a00b33bfec3efe4),
    ("n61/s2/dh-remap", 0x7404ca93b85d3032),
    ("n96/s1/naive", 0xc56fc1f799418d73),
    ("n96/s1/cn4", 0x85485145f82f195f),
    ("n96/s1/dh", 0xcff40728bf9cd1ec),
    ("n96/s1/pat2", 0x2a00c7bf38394923),
    ("n96/s1/bruck", 0x199c3fad4f24df60),
    ("n96/s1/hl2", 0x0136aee9017fc978),
    ("n96/s1/dh-remap", 0x996b2708f637639b),
    ("n96/s2/naive", 0xb659b95fcc93ce03),
    ("n96/s2/cn4", 0x7c62ee3495bef517),
    ("n96/s2/dh", 0x40845724d8aaab95),
    ("n96/s2/pat2", 0xc961e190eab80116),
    ("n96/s2/bruck", 0x3cbfcb891333b329),
    ("n96/s2/hl2", 0x17e3fba4efdf6bb9),
    ("n96/s2/dh-remap", 0xb1ba5bc9f5ee0ba2),
    ("n40-isolated/s1/naive", 0xaa3c0315a7f518ed),
    ("n40-isolated/s1/cn4", 0x1d572c9f93d73f0f),
    ("n40-isolated/s1/dh", 0xf09cc5ced25b19c1),
    ("n40-isolated/s1/pat2", 0x6e1dfe9a51549930),
    ("n40-isolated/s1/bruck", 0xc953d1ebc5b23b18),
    ("n40-isolated/s1/hl2", 0x58a17f3295f52e1e),
    ("n40-isolated/s1/dh-remap", 0x561ace1cdeb26b78),
    ("n40-isolated/s2/naive", 0x4e2ed939ccc89bec),
    ("n40-isolated/s2/cn4", 0x4db5b894cc5203bf),
    ("n40-isolated/s2/dh", 0x8f215801f33c31ac),
    ("n40-isolated/s2/pat2", 0xae67bcebc169245a),
    ("n40-isolated/s2/bruck", 0xd15ef239ab8ab618),
    ("n40-isolated/s2/hl2", 0xab317ed1514c3756),
    ("n40-isolated/s2/dh-remap", 0x4af1247e4160762c),
];

#[test]
fn every_builder_writes_the_plan_file_it_always_wrote() {
    let cases = cases();
    assert_eq!(cases.len(), GOLDENS.len());
    for ((name, graph, plan), (golden_name, golden)) in cases.iter().zip(GOLDENS) {
        assert_eq!(name, golden_name);
        assert_eq!(file_fnv(plan), golden, "{name}: plan file bytes moved");
        plan.validate(graph).unwrap_or_else(|e| panic!("{name}: {e}"));
        // the row form, both ways, and the decoder
        let rows = plan.to_rows();
        let back = CollectivePlan::from_rows(plan.algorithm, plan.selection, &rows);
        assert!(back == *plan, "{name}: from_rows(to_rows(p)) != p");
        assert_eq!(back.to_rows(), rows, "{name}");
        assert_eq!(file_fnv(&back), golden, "{name}");
        let mut bytes = Vec::new();
        write_plan(plan, &mut bytes).unwrap();
        assert!(decode_plan(&bytes).unwrap() == *plan, "{name}: decode(write(p)) != p");
    }
}

#[test]
fn empty_phases_zero_block_receives_and_ragged_programs_survive_the_row_form() {
    let msg = |peer, blocks: &[usize], tag| PlannedMsg { peer, blocks: blocks.to_vec(), tag };
    let rows = vec![
        vec![
            PlanPhase::default(),
            PlanPhase { copy_blocks: 3, sends: vec![msg(1, &[0], 4)], recvs: vec![msg(2, &[], 9)] },
            PlanPhase {
                copy_blocks: 0,
                sends: vec![],
                recvs: vec![msg(1, &[], 0), msg(1, &[1, 0], 1)],
            },
        ],
        vec![PlanPhase { copy_blocks: 1, sends: vec![msg(0, &[1, 0], 1)], recvs: vec![] }],
        vec![],
    ];
    let plan = CollectivePlan::from_rows(Algorithm::Naive, None, &rows);
    assert_eq!(plan.to_rows(), rows);
    assert_eq!(
        (plan.n(), plan.phase_count(), plan.phases(1).len(), plan.phases(2).len()),
        (3, 3, 1, 0)
    );
    let past = plan.phase(1, 2); // a phase past a ragged program's end is empty
    assert_eq!((past.copy_blocks(), past.sends().len(), past.recvs().len()), (0, 0, 0));
    assert_eq!((plan.message_count(), plan.total_blocks_sent()), (2, 3));
    assert_eq!((plan.max_sends_in_phase(), plan.sends_per_rank()), (1, vec![1, 1, 0]));
    let mut bytes = Vec::new();
    write_plan(&plan, &mut bytes).unwrap();
    assert_eq!(decode_plan(&bytes).unwrap().to_rows(), rows);
}

/// One emission: `(rank, phase, dir, message)`.
type Emission = (usize, usize, MsgDir, PlannedMsg);

fn emissions(plan: &CollectivePlan) -> Vec<Emission> {
    let mut out = Vec::new();
    for (r, prog) in plan.to_rows().into_iter().enumerate() {
        for (p, phase) in prog.into_iter().enumerate() {
            out.extend(phase.sends.into_iter().map(|m| (r, p, MsgDir::Send, m)));
            out.extend(phase.recvs.into_iter().map(|m| (r, p, MsgDir::Recv, m)));
        }
    }
    out
}

fn written(plan: &CollectivePlan, emissions: &[Emission]) -> CollectivePlan {
    let mut w = PlanWriter::new(plan.algorithm, plan.n(), plan.phase_count());
    w.selection = plan.selection;
    for r in 0..plan.n() {
        (0..plan.phase_count()).for_each(|p| w.copy(r, p, plan.phase(r, p).copy_blocks()));
    }
    for (r, p, dir, m) in emissions {
        match dir {
            MsgDir::Send => w.send(*r, *p, m.peer, m.tag, &m.blocks),
            MsgDir::Recv => w.recv(*r, *p, m.peer, m.tag, &m.blocks),
        }
    }
    w.finish()
}

#[test]
fn the_writer_sorts_across_buckets_and_keeps_emission_order_within_one() {
    for (name, _, plan) in cases().iter().filter(|c| c.0.starts_with("n61")) {
        let rank_major = emissions(plan);
        assert!(written(plan, &rank_major) == *plan, "{name}: rank-major");
        // stable re-orderings move rows across buckets, never within one
        let mut phase_major = rank_major.clone();
        phase_major.sort_by_key(|e| e.1);
        let mut recvs_first = rank_major.clone();
        recvs_first.sort_by_key(|e| (e.2 == MsgDir::Send, std::cmp::Reverse(e.0)));
        let mut ranks_reversed = rank_major.clone();
        ranks_reversed.sort_by_key(|e| std::cmp::Reverse(e.0));
        for (order, emitted) in [
            ("phase-major", phase_major),
            ("recvs first", recvs_first),
            ("reversed", ranks_reversed),
        ] {
            assert!(written(plan, &emitted) == *plan, "{name}: {order}");
        }
        // ... and within a bucket the order is the emission order
        let mut swapped = rank_major.clone();
        let same_bucket = |w: &[Emission]| (w[0].0, w[0].1, w[0].2) == (w[1].0, w[1].1, w[1].2);
        if let Some(at) = swapped.windows(2).position(same_bucket) {
            swapped.swap(at, at + 1);
            let (r, p, dir, _) = swapped[at].clone();
            let got = written(plan, &swapped);
            assert!(got != *plan, "{name}: a swap inside a bucket must show");
            let bucket = |plan: &CollectivePlan| -> Vec<PlannedMsg> {
                plan.phase(r, p).msgs(dir).map(|m| m.to_row()).collect()
            };
            let key = |e: &Emission| (e.0, e.1, e.2);
            let k = rank_major[..at].iter().filter(|e| key(e) == (r, p, dir)).count();
            let (mut want, got) = (bucket(plan), bucket(&got));
            want.swap(k, k + 1);
            assert_eq!(got, want, "{name}: the swapped pair, in emission order");
        }
    }
}
