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
//!
//! All 126 pins moved once more when a plan began stating each message
//! once (`NHPLAN4`: the send rows alone, a rank's receives derived), and
//! were re-pinned once, by proof: a cross-tree dump of all 126 plans
//! showed every send (id, peer, tag, blocks), copy count, program length
//! and the selection statistics identical, and every (rank, phase)'s
//! derived receives equal, as a multiset, to the recv rows they replace
//! (CHANGES.md).

use nhood_cluster::{ClusterLayout, Placement};
use nhood_core::plan::{PlanPhase, PlanWriter, PlannedMsg};
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
    ("n0/s1/naive", 0xb898fd07899ceb64),
    ("n0/s1/cn4", 0xa19a4ab8eeaf7590),
    ("n0/s1/dh", 0xd79d77cbc2f1074b),
    ("n0/s1/pat2", 0x49909739d128bbca),
    ("n0/s1/bruck", 0x689f82111e1a00b3),
    ("n0/s1/hl2", 0xeadbfb97e4af1136),
    ("n0/s1/dh-remap", 0xd79d77cbc2f1074b),
    ("n0/s1/hl-remap", 0xeadbfb97e4af1136),
    ("n0/s1/bruck-remap", 0x689f82111e1a00b3),
    ("n0/s2/naive", 0xb898fd07899ceb64),
    ("n0/s2/cn4", 0xa19a4ab8eeaf7590),
    ("n0/s2/dh", 0xd79d77cbc2f1074b),
    ("n0/s2/pat2", 0x49909739d128bbca),
    ("n0/s2/bruck", 0x689f82111e1a00b3),
    ("n0/s2/hl2", 0xeadbfb97e4af1136),
    ("n0/s2/dh-remap", 0xd79d77cbc2f1074b),
    ("n0/s2/hl-remap", 0xeadbfb97e4af1136),
    ("n0/s2/bruck-remap", 0x689f82111e1a00b3),
    ("n1/s1/naive", 0x5cfbc2338a33f99b),
    ("n1/s1/cn4", 0xf2b9c0bf3b4a0238),
    ("n1/s1/dh", 0x2735cc6119b32644),
    ("n1/s1/pat2", 0xe289a9cf0986e67d),
    ("n1/s1/bruck", 0x203c41c174e25d56),
    ("n1/s1/hl2", 0xac4e12375f40f9e6),
    ("n1/s1/dh-remap", 0x2735cc6119b32644),
    ("n1/s1/hl-remap", 0xac4e12375f40f9e6),
    ("n1/s1/bruck-remap", 0x203c41c174e25d56),
    ("n1/s2/naive", 0x5cfbc2338a33f99b),
    ("n1/s2/cn4", 0xf2b9c0bf3b4a0238),
    ("n1/s2/dh", 0x2735cc6119b32644),
    ("n1/s2/pat2", 0xe289a9cf0986e67d),
    ("n1/s2/bruck", 0x203c41c174e25d56),
    ("n1/s2/hl2", 0xac4e12375f40f9e6),
    ("n1/s2/dh-remap", 0x2735cc6119b32644),
    ("n1/s2/hl-remap", 0xac4e12375f40f9e6),
    ("n1/s2/bruck-remap", 0x203c41c174e25d56),
    ("n2/s1/naive", 0x60eda5584e72d92d),
    ("n2/s1/cn4", 0x324a289c41eaa7e3),
    ("n2/s1/dh", 0x001845f95dd7fe4f),
    ("n2/s1/pat2", 0xe242374395c58439),
    ("n2/s1/bruck", 0x9720b06bbd1925b4),
    ("n2/s1/hl2", 0xdc04d492195f68d3),
    ("n2/s1/dh-remap", 0x001845f95dd7fe4f),
    ("n2/s1/hl-remap", 0xdc04d492195f68d3),
    ("n2/s1/bruck-remap", 0x9720b06bbd1925b4),
    ("n2/s2/naive", 0x9ec46413bf7bda85),
    ("n2/s2/cn4", 0xd5882df3e30efe56),
    ("n2/s2/dh", 0x8a069867759cdd31),
    ("n2/s2/pat2", 0xeb0dc35ba38b623d),
    ("n2/s2/bruck", 0xa11ea06a97bb6dfc),
    ("n2/s2/hl2", 0xa392abc76c3a8d16),
    ("n2/s2/dh-remap", 0x8a069867759cdd31),
    ("n2/s2/hl-remap", 0xa392abc76c3a8d16),
    ("n2/s2/bruck-remap", 0xa11ea06a97bb6dfc),
    ("n17/s1/naive", 0x6037ae239ffae4bd),
    ("n17/s1/cn4", 0xe62b294ddff0791f),
    ("n17/s1/dh", 0xe5aa973207b6cf74),
    ("n17/s1/pat2", 0xa9e4ceaaeecb59c4),
    ("n17/s1/bruck", 0x94b2d67c1134213b),
    ("n17/s1/hl2", 0x7a59737e5146afac),
    ("n17/s1/dh-remap", 0x5dcdd9ddaaeef9a1),
    ("n17/s1/hl-remap", 0x1baef1b4df953deb),
    ("n17/s1/bruck-remap", 0xd21486234ecbd53f),
    ("n17/s2/naive", 0xac18ccbb2e97077b),
    ("n17/s2/cn4", 0x8f315d1d41a42918),
    ("n17/s2/dh", 0xc5b3c8f99cc6a3be),
    ("n17/s2/pat2", 0x1889d8361f385e4c),
    ("n17/s2/bruck", 0x0bc7efa2bde988b2),
    ("n17/s2/hl2", 0xf395125d58d23823),
    ("n17/s2/dh-remap", 0x9dbb72129b9646ed),
    ("n17/s2/hl-remap", 0xee178686b6e49173),
    ("n17/s2/bruck-remap", 0x8f24cd197e8d78d2),
    ("n61/s1/naive", 0xf1e79c1ab87c4840),
    ("n61/s1/cn4", 0x9a936f711038667d),
    ("n61/s1/dh", 0xdf96ce2eef7dc89b),
    ("n61/s1/pat2", 0xcfa726ea4a8c3adb),
    ("n61/s1/bruck", 0x278f1dcf10836ad0),
    ("n61/s1/hl2", 0x7d705d60783a7a4c),
    ("n61/s1/dh-remap", 0x1e3faedaba771a5a),
    ("n61/s1/hl-remap", 0x5779319f608f94b7),
    ("n61/s1/bruck-remap", 0x696b5a1358abcd68),
    ("n61/s2/naive", 0x31aa64e97c089baa),
    ("n61/s2/cn4", 0x22092d20b6251f62),
    ("n61/s2/dh", 0x1d666466293622cb),
    ("n61/s2/pat2", 0xa6e5f2a56342d56f),
    ("n61/s2/bruck", 0xe0ea67c788f20054),
    ("n61/s2/hl2", 0x9526f503fd109a40),
    ("n61/s2/dh-remap", 0xef9f2e9fc497647c),
    ("n61/s2/hl-remap", 0xa9c9296314fa56e2),
    ("n61/s2/bruck-remap", 0x9c66d9e2d9ad131b),
    ("n96/s1/naive", 0x9b199595a6710f38),
    ("n96/s1/cn4", 0x4ff20a225eb76cea),
    ("n96/s1/dh", 0x1d115dcb984d046b),
    ("n96/s1/pat2", 0x0094fa666fb10bcd),
    ("n96/s1/bruck", 0x71c3395a002f6464),
    ("n96/s1/hl2", 0x98bd4b81e3d1298d),
    ("n96/s1/dh-remap", 0xb9ed3bbbc2ef7947),
    ("n96/s1/hl-remap", 0xdef0de1f3b39a418),
    ("n96/s1/bruck-remap", 0x655d060080ca6fe3),
    ("n96/s2/naive", 0x06499eca61d94fd7),
    ("n96/s2/cn4", 0x49bcda4f28d1daa2),
    ("n96/s2/dh", 0x6480a2bb7dfc166d),
    ("n96/s2/pat2", 0x45c175665991dc84),
    ("n96/s2/bruck", 0x4b8aed4caa49d89e),
    ("n96/s2/hl2", 0x1b4764bc2ae75622),
    ("n96/s2/dh-remap", 0xf7cdba824b8ad9de),
    ("n96/s2/hl-remap", 0x89c1ca87dc9dd36b),
    ("n96/s2/bruck-remap", 0xefab7f60f843424d),
    ("n40-isolated/s1/naive", 0x7ada398dd3c5cc33),
    ("n40-isolated/s1/cn4", 0x8ea67229bee4268d),
    ("n40-isolated/s1/dh", 0x5fea4faa7b18da01),
    ("n40-isolated/s1/pat2", 0x5f0a0eeab55fd146),
    ("n40-isolated/s1/bruck", 0xc9834025efe48ef7),
    ("n40-isolated/s1/hl2", 0x43c13a401b1a77e4),
    ("n40-isolated/s1/dh-remap", 0x4d12d5fad922537c),
    ("n40-isolated/s1/hl-remap", 0x6147eb72a4fd6559),
    ("n40-isolated/s1/bruck-remap", 0xeab568978a6c8281),
    ("n40-isolated/s2/naive", 0x420e59d284038ef3),
    ("n40-isolated/s2/cn4", 0x8d5af438d9b6614a),
    ("n40-isolated/s2/dh", 0x39d3516ae40a39f7),
    ("n40-isolated/s2/pat2", 0xc1439160d3f74856),
    ("n40-isolated/s2/bruck", 0xdf6c939bf6804561),
    ("n40-isolated/s2/hl2", 0x5fa2896ac5d88414),
    ("n40-isolated/s2/dh-remap", 0x7fbd48b58891b51b),
    ("n40-isolated/s2/hl-remap", 0x184fc4e326a68319),
    ("n40-isolated/s2/bruck-remap", 0x176c2647867839ac),
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
            PlanPhase { copy_blocks: 3, sends: vec![msg(1, &[0], 4)] },
            PlanPhase { copy_blocks: 0, sends: vec![msg(2, &[], 9)] },
        ],
        vec![PlanPhase { copy_blocks: 1, sends: vec![msg(0, &[1, 0], 1), msg(0, &[], 0)] }],
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
    assert_eq!((plan.message_count(), plan.total_blocks_sent()), (4, 3));
    assert_eq!((plan.max_sends_in_phase(), plan.sends_per_rank()), (2, vec![2, 2, 0]));
    // rank 1's sends arrive in rank 0's phase 0, the zero-block one too,
    // by send id; a send into a phase its destination lacks (rank 0's to
    // ranks 1 and 2) arrives nowhere
    let arrived = |r, p| plan.phase(r, p).recvs().map(|m| (m.id(), m.to_row())).collect::<Vec<_>>();
    assert_eq!(arrived(0, 0), [(2, msg(1, &[1, 0], 1)), (3, msg(1, &[], 0))]);
    assert!((1..3).all(|p| arrived(0, p).is_empty()) && arrived(1, 0).is_empty());
    let mut bytes = Vec::new();
    write_plan(&plan, &mut bytes).unwrap();
    let back = decode_plan(&bytes).unwrap();
    assert_eq!(back.to_rows(), rows);
    assert!(back == plan);
}

/// One emission: `(rank, phase, message)`.
type Emission = (usize, usize, PlannedMsg);

fn emissions(plan: &CollectivePlan) -> Vec<Emission> {
    let mut out = Vec::new();
    for (r, prog) in plan.to_rows().into_iter().enumerate() {
        for (p, phase) in prog.into_iter().enumerate() {
            out.extend(phase.sends.into_iter().map(|m| (r, p, m)));
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
    for (r, p, m) in emissions {
        w.message(*p, *r, m.peer, m.tag, &m.blocks);
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
        let mut phases_reversed = rank_major.clone();
        phases_reversed.sort_by_key(|e| std::cmp::Reverse(e.1));
        let mut ranks_reversed = rank_major.clone();
        ranks_reversed.sort_by_key(|e| std::cmp::Reverse(e.0));
        for (order, emitted) in [
            ("phase-major", phase_major),
            ("phases reversed", phases_reversed),
            ("reversed", ranks_reversed),
        ] {
            let got = written(plan, &emitted);
            assert!(got == *plan, "{name}: {order}");
            // ... and the receives derived from the sends with them
            for r in 0..plan.n() {
                for (want, got) in plan.phases(r).zip(got.phases(r)) {
                    let recvs = |ph: nhood_core::plan::PhaseView| {
                        ph.recvs().map(|m| (m.id(), m.to_row())).collect::<Vec<_>>()
                    };
                    assert_eq!(recvs(got), recvs(want), "{name}: {order}, rank {r}");
                }
            }
        }
        // ... and within a bucket the order is the emission order
        let mut swapped = rank_major.clone();
        let same_bucket = |w: &[Emission]| (w[0].0, w[0].1) == (w[1].0, w[1].1);
        if let Some(at) = swapped.windows(2).position(same_bucket) {
            swapped.swap(at, at + 1);
            let (r, p, _) = swapped[at].clone();
            let got = written(plan, &swapped);
            assert!(got != *plan, "{name}: a swap inside a bucket must show");
            let bucket = |plan: &CollectivePlan| -> Vec<PlannedMsg> {
                plan.phase(r, p).sends().map(|m| m.to_row()).collect()
            };
            let k = rank_major[..at].iter().filter(|e| (e.0, e.1) == (r, p)).count();
            let (mut want, got) = (bucket(plan), bucket(&got));
            want.swap(k, k + 1);
            assert_eq!(got, want, "{name}: the swapped pair, in emission order");
        }
    }
}
