//! The flat plan representation is invisible: every builder's plan for
//! seven shapes × two seeds writes the plan file it is pinned to (FNV-1a
//! of `write_plan`'s bytes), survives the row form both ways, and a
//! `PlanWriter` finishes to the same tables however its rows were
//! interleaved across buckets — in emission order within one.
//!
//! The pins were taken once, when the file became the flat tables
//! (`NHPLAN2`), by proof: with both codecs in one tree, each of these 98
//! plans still wrote the bytes the nested representation had written
//! (the previous pins), and `new_decode(new_write(p)) == p ==
//! old_decode(old_write(p))` held for every one and for the hand plan
//! below (CHANGES.md, PR 23).
//!
//! The 15 Distance Halving pins that move with the negotiation's DROP
//! tally (its acknowledgements are counted since PR 25, and the header
//! carries the tallies) were re-pinned once, by proof: a cross-tree dump
//! of all 98 plans showed every column, every `PlanFingerprint` and the
//! footer digest identical and `drop` the only header word that differs
//! (CHANGES.md, PR 25).
//!
//! The 28 `hl-remap` and `bruck-remap` pins were taken when the
//! communicator began re-ranking the leader hierarchy and Bruck off block
//! placement, as Distance Halving already was; the 98 pins before them
//! held unedited through that change, the 14 `dh-remap` ones included.

use nhood_cluster::{ClusterLayout, Placement};
use nhood_core::plan::{MsgDir, PlanPhase, PlanWriter, PlannedMsg};
use nhood_core::plan_io::{decode_plan, write_plan};
use nhood_core::{Algorithm, CollectivePlan, DistGraphComm};
use nhood_topology::random::erdos_renyi;
use nhood_topology::Topology;

const SHAPES: [(&str, usize); 7] =
    [("n0", 0), ("n1", 1), ("n2", 2), ("n17", 17), ("n61", 61), ("n96", 96), ("n40-isolated", 40)];
const BUILDERS: [(&str, Algorithm, bool); 9] = [
    ("naive", Algorithm::Naive, false),
    ("cn4", Algorithm::CommonNeighbor { k: 4 }, false),
    ("dh", Algorithm::DistanceHalving, false),
    ("pat2", Algorithm::Pat { radix: 2 }, false),
    ("bruck", Algorithm::Bruck, false),
    ("hl2", Algorithm::HierarchicalLeader { leaders_per_node: 2 }, false),
    ("dh-remap", Algorithm::DistanceHalving, true),
    ("hl-remap", Algorithm::HierarchicalLeader { leaders_per_node: 2 }, true),
    ("bruck-remap", Algorithm::Bruck, true),
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

/// `(shape/seed/builder, FNV-1a of the plan file)`.
const GOLDENS: [(&str, u64); 126] = [
    ("n0/s1/naive", 0xe0f9bc063caa9e29),
    ("n0/s1/cn4", 0xdd4376dd10ad2f74),
    ("n0/s1/dh", 0xddf9df03f5f8a83f),
    ("n0/s1/pat2", 0x5263f531dd469125),
    ("n0/s1/bruck", 0xebf225ebb61c3aaf),
    ("n0/s1/hl2", 0x4246ba847f13cdfd),
    ("n0/s1/dh-remap", 0xddf9df03f5f8a83f),
    ("n0/s1/hl-remap", 0x4246ba847f13cdfd),
    ("n0/s1/bruck-remap", 0xebf225ebb61c3aaf),
    ("n0/s2/naive", 0xe0f9bc063caa9e29),
    ("n0/s2/cn4", 0xdd4376dd10ad2f74),
    ("n0/s2/dh", 0xddf9df03f5f8a83f),
    ("n0/s2/pat2", 0x5263f531dd469125),
    ("n0/s2/bruck", 0xebf225ebb61c3aaf),
    ("n0/s2/hl2", 0x4246ba847f13cdfd),
    ("n0/s2/dh-remap", 0xddf9df03f5f8a83f),
    ("n0/s2/hl-remap", 0x4246ba847f13cdfd),
    ("n0/s2/bruck-remap", 0xebf225ebb61c3aaf),
    ("n1/s1/naive", 0xf22af5c458bb3eb5),
    ("n1/s1/cn4", 0x4971194a15a116b0),
    ("n1/s1/dh", 0xd1f809cdaef6894a),
    ("n1/s1/pat2", 0x83daea98aa12e7a9),
    ("n1/s1/bruck", 0x73abd12888b0288c),
    ("n1/s1/hl2", 0x1df9f5fd8d9eef55),
    ("n1/s1/dh-remap", 0xd1f809cdaef6894a),
    ("n1/s1/hl-remap", 0x1df9f5fd8d9eef55),
    ("n1/s1/bruck-remap", 0x73abd12888b0288c),
    ("n1/s2/naive", 0xf22af5c458bb3eb5),
    ("n1/s2/cn4", 0x4971194a15a116b0),
    ("n1/s2/dh", 0xd1f809cdaef6894a),
    ("n1/s2/pat2", 0x83daea98aa12e7a9),
    ("n1/s2/bruck", 0x73abd12888b0288c),
    ("n1/s2/hl2", 0x1df9f5fd8d9eef55),
    ("n1/s2/dh-remap", 0xd1f809cdaef6894a),
    ("n1/s2/hl-remap", 0x1df9f5fd8d9eef55),
    ("n1/s2/bruck-remap", 0x73abd12888b0288c),
    ("n2/s1/naive", 0xd77b55aa36549045),
    ("n2/s1/cn4", 0x7a87ce47fe34875c),
    ("n2/s1/dh", 0x13e47b166fa1d8eb),
    ("n2/s1/pat2", 0xc8cd6bde60c83ff0),
    ("n2/s1/bruck", 0x9853d0fdca4a8335),
    ("n2/s1/hl2", 0x6eaf9bb2596c9d05),
    ("n2/s1/dh-remap", 0x13e47b166fa1d8eb),
    ("n2/s1/hl-remap", 0x6eaf9bb2596c9d05),
    ("n2/s1/bruck-remap", 0x9853d0fdca4a8335),
    ("n2/s2/naive", 0xc8cac856f247b518),
    ("n2/s2/cn4", 0xffec6cf8dfad8512),
    ("n2/s2/dh", 0xc61305c3a37b9b0e),
    ("n2/s2/pat2", 0x7283be1b4179eff5),
    ("n2/s2/bruck", 0x5ec7998d077038c3),
    ("n2/s2/hl2", 0x1b62608025271376),
    ("n2/s2/dh-remap", 0xc61305c3a37b9b0e),
    ("n2/s2/hl-remap", 0x1b62608025271376),
    ("n2/s2/bruck-remap", 0x5ec7998d077038c3),
    ("n17/s1/naive", 0xaa15621c27356fb8),
    ("n17/s1/cn4", 0x9f144ea46b85f020),
    ("n17/s1/dh", 0x9ad59dc19c1e8eb2),
    ("n17/s1/pat2", 0x36dd21135d73cbfb),
    ("n17/s1/bruck", 0xdd1b44265c40653b),
    ("n17/s1/hl2", 0x44b3f51ecb1c3d67),
    ("n17/s1/dh-remap", 0x9ab832c5318c37d2),
    ("n17/s1/hl-remap", 0x15996faef86e9be0),
    ("n17/s1/bruck-remap", 0xa7f05eb2f2881fd6),
    ("n17/s2/naive", 0x41e6678a98fa920c),
    ("n17/s2/cn4", 0xe4a7c3fcd9a04a9e),
    ("n17/s2/dh", 0xed5eec4745abbecd),
    ("n17/s2/pat2", 0x70b846e577dfe906),
    ("n17/s2/bruck", 0x7069eddf00471f37),
    ("n17/s2/hl2", 0x7a2301d5d7acc134),
    ("n17/s2/dh-remap", 0xad9929e954763abc),
    ("n17/s2/hl-remap", 0xf3816861a4cd4f3c),
    ("n17/s2/bruck-remap", 0x9522c4020810a376),
    ("n61/s1/naive", 0xb94c3cf94974750b),
    ("n61/s1/cn4", 0xb05dedecaa045519),
    ("n61/s1/dh", 0xb85d63c82987665c),
    ("n61/s1/pat2", 0x9c5030d799697cb7),
    ("n61/s1/bruck", 0x9b4f26860b325932),
    ("n61/s1/hl2", 0xb59c19f74884be21),
    ("n61/s1/dh-remap", 0x9bee25c225f08c0b),
    ("n61/s1/hl-remap", 0x69b634a6c5ba25db),
    ("n61/s1/bruck-remap", 0xf82f28efb0983fb0),
    ("n61/s2/naive", 0xf1d17e0ddc9946fb),
    ("n61/s2/cn4", 0x3bea2032b654297a),
    ("n61/s2/dh", 0x8cb804c5f10f7c64),
    ("n61/s2/pat2", 0x5d287cfebd01336e),
    ("n61/s2/bruck", 0xf50c3f236b441f5a),
    ("n61/s2/hl2", 0x6138b854e4ffbca6),
    ("n61/s2/dh-remap", 0xf0a288f316a8fd03),
    ("n61/s2/hl-remap", 0x4e39340446b18f03),
    ("n61/s2/bruck-remap", 0xf1c497cf7de51145),
    ("n96/s1/naive", 0xcb15803c185ad85d),
    ("n96/s1/cn4", 0xa78ac6af031e1794),
    ("n96/s1/dh", 0x1ea38b82dbc4c63d),
    ("n96/s1/pat2", 0x3632ce0b810550cb),
    ("n96/s1/bruck", 0x038b451f229e8fb5),
    ("n96/s1/hl2", 0x872042b929d69801),
    ("n96/s1/dh-remap", 0x42d2a2d13bec0ae7),
    ("n96/s1/hl-remap", 0x7a91b318dbcaeb19),
    ("n96/s1/bruck-remap", 0xbd0c29bba249b223),
    ("n96/s2/naive", 0x334cb1713440baed),
    ("n96/s2/cn4", 0x7c4c601f91a06034),
    ("n96/s2/dh", 0x6bb132e876697d65),
    ("n96/s2/pat2", 0xc9df3fe9831233f9),
    ("n96/s2/bruck", 0xc403d593634f499c),
    ("n96/s2/hl2", 0x9e45553b25dd3b87),
    ("n96/s2/dh-remap", 0x690fc9ae64dbc6ed),
    ("n96/s2/hl-remap", 0x3efeac082aebe14d),
    ("n96/s2/bruck-remap", 0x55f81839b387f87a),
    ("n40-isolated/s1/naive", 0x2a0870f3f3460499),
    ("n40-isolated/s1/cn4", 0xfac983d475fe46b5),
    ("n40-isolated/s1/dh", 0x736626a468dfc4ae),
    ("n40-isolated/s1/pat2", 0x138c67e9a92d4bcb),
    ("n40-isolated/s1/bruck", 0x1a791dda07aaa31a),
    ("n40-isolated/s1/hl2", 0x07434970a92a240b),
    ("n40-isolated/s1/dh-remap", 0xe6abf3bea0bdcfe8),
    ("n40-isolated/s1/hl-remap", 0x2cc3f01bbda3aa1f),
    ("n40-isolated/s1/bruck-remap", 0x0f86dee8e8435baf),
    ("n40-isolated/s2/naive", 0x085fd318595fb945),
    ("n40-isolated/s2/cn4", 0xb639a3622f4ac464),
    ("n40-isolated/s2/dh", 0x33126ac8ce0caab9),
    ("n40-isolated/s2/pat2", 0x44c3b0b26db52a4b),
    ("n40-isolated/s2/bruck", 0xfa0ffc20c879ea42),
    ("n40-isolated/s2/hl2", 0x38ebf53c67e34d2f),
    ("n40-isolated/s2/dh-remap", 0xc706ee0c77ea15e1),
    ("n40-isolated/s2/hl-remap", 0x59634510b9bcc085),
    ("n40-isolated/s2/bruck-remap", 0x29c1b6170e47bd90),
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
