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
//!
//! All 126 pins moved once more when the header began carrying only
//! order-free statistics (`NHPLAN3`: the candidate-pair count where four
//! per-signal tallies were), and were re-pinned once, by proof: a
//! cross-tree dump of all 126 plans showed every column, every
//! `PlanFingerprint`, the footer's topology digest and the statistics
//! (total signals, ACCEPT and DROP counts, notifications, descriptors,
//! searches, agents found) identical; only the magic, the header's
//! statistics words and the checksum differ (CHANGES.md).

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
    ("n0/s1/naive", 0xd6e83fc46d121269),
    ("n0/s1/cn4", 0x1c54e52186859b3a),
    ("n0/s1/dh", 0x23bd408f2eb62fa9),
    ("n0/s1/pat2", 0x52db6ba04ad0dff4),
    ("n0/s1/bruck", 0x6b6fce34063beaf4),
    ("n0/s1/hl2", 0xc38bbf6a48d50889),
    ("n0/s1/dh-remap", 0x23bd408f2eb62fa9),
    ("n0/s1/hl-remap", 0xc38bbf6a48d50889),
    ("n0/s1/bruck-remap", 0x6b6fce34063beaf4),
    ("n0/s2/naive", 0xd6e83fc46d121269),
    ("n0/s2/cn4", 0x1c54e52186859b3a),
    ("n0/s2/dh", 0x23bd408f2eb62fa9),
    ("n0/s2/pat2", 0x52db6ba04ad0dff4),
    ("n0/s2/bruck", 0x6b6fce34063beaf4),
    ("n0/s2/hl2", 0xc38bbf6a48d50889),
    ("n0/s2/dh-remap", 0x23bd408f2eb62fa9),
    ("n0/s2/hl-remap", 0xc38bbf6a48d50889),
    ("n0/s2/bruck-remap", 0x6b6fce34063beaf4),
    ("n1/s1/naive", 0x38c7c83250cd300c),
    ("n1/s1/cn4", 0xc9b30cae15b36174),
    ("n1/s1/dh", 0xcab44f3dcfb1779b),
    ("n1/s1/pat2", 0xf0838998d010f7df),
    ("n1/s1/bruck", 0x25018e650968fa5d),
    ("n1/s1/hl2", 0x357936fec09a8304),
    ("n1/s1/dh-remap", 0xcab44f3dcfb1779b),
    ("n1/s1/hl-remap", 0x357936fec09a8304),
    ("n1/s1/bruck-remap", 0x25018e650968fa5d),
    ("n1/s2/naive", 0x38c7c83250cd300c),
    ("n1/s2/cn4", 0xc9b30cae15b36174),
    ("n1/s2/dh", 0xcab44f3dcfb1779b),
    ("n1/s2/pat2", 0xf0838998d010f7df),
    ("n1/s2/bruck", 0x25018e650968fa5d),
    ("n1/s2/hl2", 0x357936fec09a8304),
    ("n1/s2/dh-remap", 0xcab44f3dcfb1779b),
    ("n1/s2/hl-remap", 0x357936fec09a8304),
    ("n1/s2/bruck-remap", 0x25018e650968fa5d),
    ("n2/s1/naive", 0x04b7596c7e725cb0),
    ("n2/s1/cn4", 0x407ed7a76cb4a0e3),
    ("n2/s1/dh", 0x368260889cd4ebd7),
    ("n2/s1/pat2", 0xa0b100b728e74e81),
    ("n2/s1/bruck", 0x996f4f92f576fa4e),
    ("n2/s1/hl2", 0x882ee688c1d70fde),
    ("n2/s1/dh-remap", 0x368260889cd4ebd7),
    ("n2/s1/hl-remap", 0x882ee688c1d70fde),
    ("n2/s1/bruck-remap", 0x996f4f92f576fa4e),
    ("n2/s2/naive", 0x5c84f076e51bf7ba),
    ("n2/s2/cn4", 0xd0ba0645140ebbd4),
    ("n2/s2/dh", 0x19a088d8c7abd89a),
    ("n2/s2/pat2", 0xbb1f23a7717a9e0d),
    ("n2/s2/bruck", 0x113ae7ef37447cf5),
    ("n2/s2/hl2", 0xfc9da867053da1b3),
    ("n2/s2/dh-remap", 0x19a088d8c7abd89a),
    ("n2/s2/hl-remap", 0xfc9da867053da1b3),
    ("n2/s2/bruck-remap", 0x113ae7ef37447cf5),
    ("n17/s1/naive", 0x36f46bd0e0e525c2),
    ("n17/s1/cn4", 0xc8d369805306903c),
    ("n17/s1/dh", 0xd59d6e2820d2d2c7),
    ("n17/s1/pat2", 0x5c32afaed9e5e3cf),
    ("n17/s1/bruck", 0x866d1b2595393fa0),
    ("n17/s1/hl2", 0xedc8dca22f10988d),
    ("n17/s1/dh-remap", 0xc4e05a51eb29df7d),
    ("n17/s1/hl-remap", 0xfea466dc322aa68b),
    ("n17/s1/bruck-remap", 0xabe4bdc7ce628512),
    ("n17/s2/naive", 0x8b59da2b4b3625a2),
    ("n17/s2/cn4", 0x2f6fea42ed76fa76),
    ("n17/s2/dh", 0xe490ac239f3c7725),
    ("n17/s2/pat2", 0x4870fbd1efe9a337),
    ("n17/s2/bruck", 0xd8ee85184bf93865),
    ("n17/s2/hl2", 0xe6fb44f2bf2a78c8),
    ("n17/s2/dh-remap", 0xcb0fbdb36336444a),
    ("n17/s2/hl-remap", 0x8e4b18234de229e6),
    ("n17/s2/bruck-remap", 0x6c57ed8c1fe03b83),
    ("n61/s1/naive", 0x97a2e26cd7e6b9b8),
    ("n61/s1/cn4", 0xaec6f57b900e84da),
    ("n61/s1/dh", 0xf538dc4239c965cd),
    ("n61/s1/pat2", 0x7d64515271ad78ca),
    ("n61/s1/bruck", 0x078a213357b26f98),
    ("n61/s1/hl2", 0xded3ea5549cd357c),
    ("n61/s1/dh-remap", 0x3f079d0775f9e717),
    ("n61/s1/hl-remap", 0x6d975e9613eec4ed),
    ("n61/s1/bruck-remap", 0x0dfcef797af82fd8),
    ("n61/s2/naive", 0xb557db03f14aeb04),
    ("n61/s2/cn4", 0x89b8c44d8591f7b6),
    ("n61/s2/dh", 0xdd7ee89104e5103a),
    ("n61/s2/pat2", 0x09379aefcd90ba46),
    ("n61/s2/bruck", 0xc88c48746c54a25d),
    ("n61/s2/hl2", 0x1bdf668a37214cc4),
    ("n61/s2/dh-remap", 0xa0f8c39a158e3d75),
    ("n61/s2/hl-remap", 0x658ef7ad2ca66c89),
    ("n61/s2/bruck-remap", 0x4d41d8467a167f82),
    ("n96/s1/naive", 0xfc1b3a9fc8523fbb),
    ("n96/s1/cn4", 0xe950fa5133627a25),
    ("n96/s1/dh", 0x706c7ae692b5563b),
    ("n96/s1/pat2", 0x5569076a9943bad6),
    ("n96/s1/bruck", 0x19f944adc19867fb),
    ("n96/s1/hl2", 0xa19bd0995f78c555),
    ("n96/s1/dh-remap", 0xd3f30aaa7c008aa9),
    ("n96/s1/hl-remap", 0x18b21c47560e3b8f),
    ("n96/s1/bruck-remap", 0x5ec61bc7ffd60a70),
    ("n96/s2/naive", 0x199370b1e0ecfb95),
    ("n96/s2/cn4", 0xf4c4050530f911d0),
    ("n96/s2/dh", 0xf2aef9efb9b7ef6e),
    ("n96/s2/pat2", 0xb04b4b5f6e16d069),
    ("n96/s2/bruck", 0x3f3a1d9fb63b82b7),
    ("n96/s2/hl2", 0xb10cd39b18ce5068),
    ("n96/s2/dh-remap", 0x02c7f07a0e84ab73),
    ("n96/s2/hl-remap", 0x03541706bffbfb4e),
    ("n96/s2/bruck-remap", 0x568e8c49b3515c26),
    ("n40-isolated/s1/naive", 0xfd8d4253fd9a2d7f),
    ("n40-isolated/s1/cn4", 0x5eddcd7234c1e9ff),
    ("n40-isolated/s1/dh", 0xb569b168ea292e4a),
    ("n40-isolated/s1/pat2", 0x14619df076c8c337),
    ("n40-isolated/s1/bruck", 0xc64c890cd7bf64d1),
    ("n40-isolated/s1/hl2", 0x4112b264322825ec),
    ("n40-isolated/s1/dh-remap", 0xe7f6972e7778aad4),
    ("n40-isolated/s1/hl-remap", 0x940ef16b50c5fd8f),
    ("n40-isolated/s1/bruck-remap", 0x9d181c2b6cfbea69),
    ("n40-isolated/s2/naive", 0x6170a9bbf9b9333c),
    ("n40-isolated/s2/cn4", 0xe4dbbe97d8cd9cda),
    ("n40-isolated/s2/dh", 0x3380ef1d1e6e13aa),
    ("n40-isolated/s2/pat2", 0x62c7cff517acacad),
    ("n40-isolated/s2/bruck", 0x20f8c83a7f0ba890),
    ("n40-isolated/s2/hl2", 0x5694b2557657e74b),
    ("n40-isolated/s2/dh-remap", 0x4294c0dd5f4e4fd4),
    ("n40-isolated/s2/hl-remap", 0x3fdba2b61cba3362),
    ("n40-isolated/s2/bruck-remap", 0x4333c521b59c9f7b),
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
