//! A Distance Halving pattern keeps every column it was built with: the
//! step offsets and table, the held-block offsets and pool, the
//! responsibility offsets and `(block, target)` table — and the
//! selection statistics — for fifteen cells that cover prime n, isolated
//! ranks, n ≤ L, Mirror pairing, `LoadMetric::Bytes` over a ragged size
//! table, the robust path's negotiation on the logical clock under
//! faults, and patterns after a churn repair and after link-down repairs.
//!
//! Each pin is an FNV-1a digest of one column, written as little-endian
//! `u64` words rank by rank (a step as `h1`, `h2`, agent, origin — `u64::MAX`
//! for none — `held_len`, `arr_len`). The pins were recorded when the
//! pattern became columns, by reading the same relations out of the
//! representation before it — a step list, a held list and a
//! responsibility map per rank — so they are the patterns the vector per
//! rank form built (CHANGES.md).

use nhood_cluster::{ClusterLayout, WorkerPool};
use nhood_core::builder::{build_pattern, build_pattern_recorded_v, PairingStrategy};
use nhood_core::lower::lower;
use nhood_core::negotiate::build_pattern_distributed_pooled_v;
use nhood_core::repair::{repair_dead_links, repair_for_churn};
use nhood_core::{BlockSizes, DhPattern, ExecOptions, FaultPlan, LoadMetric};
use nhood_telemetry::NULL;
use nhood_topology::random::erdos_renyi;
use nhood_topology::{Rank, Topology};
use std::collections::HashSet;
use std::time::Duration;

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The six columns' digests, then the statistics' (with `L`).
fn digests(p: &DhPattern) -> [u64; 7] {
    let ranks = 0..p.n();
    let offsets = |len: &dyn Fn(Rank) -> usize| {
        let ends = ranks.clone().scan(0, |end, r| {
            *end += len(r) as u64;
            Some(*end)
        });
        fnv(std::iter::once(0).chain(ends))
    };
    let step = |s: &nhood_core::pattern::DhStep| {
        let rank = |r: Option<Rank>| r.map_or(u64::MAX, |r| r as u64);
        let [a, b, c, d, e, f] =
            [s.h1().0, s.h1().1, s.h2().0, s.h2().1, s.held_len(), s.arr_len()];
        [a, b, c, d]
            .map(|x| x as u64)
            .into_iter()
            .chain([rank(s.agent()), rank(s.origin())])
            .chain([e, f].map(|x| x as u64))
    };
    let s = p.stats;
    let stats = [
        s.req,
        s.accept,
        s.drop,
        s.exit,
        s.notifications,
        s.descriptors,
        s.agent_searches,
        s.agents_found,
        p.ranks_per_socket,
    ];
    [
        offsets(&|r| p.steps(r).len()),
        fnv(ranks.clone().flat_map(|r| p.steps(r).iter().flat_map(step))),
        offsets(&|r| p.held(r).len()),
        fnv(ranks.clone().flat_map(|r| p.held(r).iter().map(|&b| b as u64))),
        offsets(&|r| p.resp(r).len()),
        fnv(ranks.flat_map(|r| p.resp(r).iter().flat_map(|&(b, t)| [b as u64, t as u64]))),
        fnv(stats.map(|x| x as u64)),
    ]
}

fn without(g: Topology, alone: &[Rank]) -> Topology {
    let kept = g.edges().filter(|&(s, d)| !alone.contains(&s) && !alone.contains(&d));
    Topology::from_edges(g.n(), kept)
}

fn full(n: usize) -> Topology {
    Topology::from_edges(
        n,
        (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j))),
    )
}

fn built(g: &Topology, layout: ClusterLayout) -> DhPattern {
    build_pattern(g, &layout).expect("builds")
}

fn variant(g: &Topology, s: PairingStrategy, sizes: &BlockSizes, m: LoadMetric) -> DhPattern {
    let layout = ClusterLayout::new(g.n().div_ceil(8), 2, 4);
    build_pattern_recorded_v(g, &layout, s, sizes, m, &WorkerPool::serial(), &NULL).expect("builds")
}

/// The robust path's negotiation: rank machines on the logical clock,
/// 5 % of signals dropped (retried) and 10 % delayed.
fn robust(g: &Topology) -> DhPattern {
    let fp = FaultPlan::seeded(31)
        .with_message_drop(0.05)
        .with_message_delay(0.1, Duration::from_micros(300));
    let opts = ExecOptions::new().recv_timeout(Duration::from_secs(10)).fault(&fp);
    let (layout, pool) = (ClusterLayout::new(3, 2, 4), WorkerPool::serial());
    let sizes = BlockSizes::default();
    build_pattern_distributed_pooled_v(g, &layout, &sizes, LoadMetric::Neighbors, &pool, &opts)
        .expect("a survivable schedule negotiates")
}

/// Three removals and three additions, repaired surgically.
fn churned(g: &Topology) -> DhPattern {
    let pat = built(g, ClusterLayout::new(6, 2, 4));
    let edges: Vec<_> = g.edges().collect();
    let removed: Vec<_> = (0..3).map(|i| edges[(12 + i * 37) % edges.len()]).collect();
    let absent = (0..48).flat_map(|u| (0..48).map(move |v| (u, v)));
    let absent = absent.filter(|&(u, v)| u != v && !g.has_edge(u, v));
    let added: Vec<_> = absent.step_by(97).take(3).collect();
    let g2 = g.churned(&added, &removed);
    repair_for_churn(&pat, &lower(&pat, g), &g2, &added, &removed).expect("repairs").pattern
}

/// A link-down repair of the built pattern: the cable of its first
/// halving transfer dies, or — `degraded` — every link of rank 1 does,
/// and the repair must drop deliveries.
fn link_down(g: &Topology, layout: ClusterLayout, degraded: bool) -> DhPattern {
    let pat = built(g, layout);
    let plan = lower(&pat, g);
    let dead: HashSet<(Rank, Rank)> = if degraded {
        // every link into and out of rank 1
        (0..g.n()).filter(|&z| z != 1).flat_map(|z| [(z, 1), (1, z)]).collect()
    } else {
        // the first halving transfer's cable
        let first = (0..g.n()).find_map(|p| plan.phase(p, 0).sends().next().map(|m| (p, m.peer())));
        let (p, a) = first.expect("a rank matched in step 0");
        [(p, a), (a, p)].into_iter().collect()
    };
    let rep = repair_dead_links(&pat, &plan, g, &dead).expect("repairs");
    assert_eq!(rep.completeness.is_full(), !degraded);
    rep.pattern
}

fn cells() -> Vec<(&'static str, DhPattern)> {
    let uniform = BlockSizes::default();
    let ragged = BlockSizes::per_rank((0..48).map(|r| (r * 37) % 11 * 64).collect());
    let (aware, mirror) = (PairingStrategy::LoadAware, PairingStrategy::Mirror);
    let small = Topology::from_edges(8, [(0, 1), (1, 0), (2, 3), (3, 2), (4, 1), (6, 2)]);
    vec![
        ("prime-37", built(&erdos_renyi(37, 0.3, 3), ClusterLayout::new(5, 2, 4))),
        ("prime-53-sparse", built(&erdos_renyi(53, 0.1, 5), ClusterLayout::new(7, 2, 4))),
        ("n96-churn-shape", built(&erdos_renyi(96, 0.15, 7), ClusterLayout::new(6, 2, 8))),
        (
            "isolated-40",
            built(&without(erdos_renyi(40, 0.4, 2), &[0, 7, 39]), ClusterLayout::new(5, 2, 4)),
        ),
        ("n8-le-L", built(&erdos_renyi(8, 0.5, 2), ClusterLayout::new(1, 1, 8))),
        ("n1", built(&erdos_renyi(1, 0.5, 2), ClusterLayout::new(1, 2, 4))),
        ("empty-8", built(&Topology::from_edges(8, []), ClusterLayout::new(2, 2, 2))),
        ("full-16", built(&full(16), ClusterLayout::new(2, 2, 4))),
        ("mirror-24", variant(&erdos_renyi(24, 0.5, 42), mirror, &uniform, LoadMetric::Neighbors)),
        ("mirror-17", variant(&erdos_renyi(17, 0.4, 42), mirror, &uniform, LoadMetric::Neighbors)),
        ("bytes-ragged-48", variant(&erdos_renyi(48, 0.3, 9), aware, &ragged, LoadMetric::Bytes)),
        ("robust-logical-24", robust(&erdos_renyi(24, 0.4, 6))),
        ("after-churn-48", churned(&erdos_renyi(48, 0.3, 12))),
        (
            "after-link-down-48",
            link_down(&erdos_renyi(48, 0.4, 21), ClusterLayout::new(6, 2, 4), false),
        ),
        ("degraded-link-down-8", link_down(&small, ClusterLayout::new(1, 2, 4), true)),
    ]
}

/// `(cell, [step_off, steps, held_off, held, resp_off, resp, stats])`.
const GOLDENS: [(&str, [u64; 7]); 15] = [
    (
        "prime-37",
        [
            0x7d26ee57809994b5,
            0x284540ef123d2fa1,
            0x78d409cab2d92e66,
            0xa08d64185a0eec73,
            0xe59dfebf41276a7a,
            0xa49adeae5b2f9bd7,
            0xea692123ad52f99e,
        ],
    ),
    (
        "prime-53-sparse",
        [
            0x161b3faeabf62de1,
            0x953f5d62677cdfda,
            0x4eb22612bd2a6ef4,
            0x8a3ad4395833440b,
            0x01b97eb9b5ec1bf9,
            0xe91b1af5ea61f80a,
            0xd4c106505c49aba8,
        ],
    ),
    (
        "n96-churn-shape",
        [
            0x1d9d7b8eab5bcd6a,
            0x81664a12640f3b21,
            0x88dfb8d71773a1dc,
            0xfed512a8b8fe98a2,
            0xbabc455643237ce3,
            0x4e53563e37a81b2c,
            0x894d03c6030dca24,
        ],
    ),
    (
        "isolated-40",
        [
            0x2febc2509db7d125,
            0x0e1339ecc34d0088,
            0x6ae03511517707d3,
            0x356ceaddb48a41cc,
            0xfb5231d3c860d586,
            0x1f1a10de3d391fb9,
            0x36af43cf4e1e79ed,
        ],
    ),
    (
        "n8-le-L",
        [
            0x3ecb33e15783bec5,
            0xcbf29ce484222325,
            0x49614f10fb0856cd,
            0xb0099f969b546f25,
            0x232491925e1ec7c4,
            0x7c5d02c673cd5a85,
            0x36a16c29aefe0fcd,
        ],
    ),
    (
        "n1",
        [
            0x88201fb960ff6465,
            0xcbf29ce484222325,
            0x692558b056101a44,
            0xa8c7f832281a39c5,
            0x88201fb960ff6465,
            0xcbf29ce484222325,
            0xc2e017bd2bc69641,
        ],
    ),
    (
        "empty-8",
        [
            0x08f7dea36e63d2d5,
            0xc246f1494aae6225,
            0x49614f10fb0856cd,
            0xb0099f969b546f25,
            0x3ecb33e15783bec5,
            0xcbf29ce484222325,
            0xe73b55af4400f917,
        ],
    ),
    (
        "full-16",
        [
            0x67b4456d53996ba5,
            0x3adb3067d3bd1f25,
            0x0298082dc9526305,
            0x633381ae68e40525,
            0xa62d0b9aa873bac5,
            0xb0473b615011d325,
            0x546cd82705e68741,
        ],
    ),
    (
        "mirror-24",
        [
            0xf52007df53af5df5,
            0xd6f6fd7bcefc45a5,
            0x3bc33d2034045e05,
            0xa0f7c9fc21097125,
            0xa8804202b645e144,
            0x8b97a0f8279062fa,
            0x46f173791ea64a7f,
        ],
    ),
    (
        "mirror-17",
        [
            0xa5b91dbfde1eb74a,
            0xd26397bf947a4c4f,
            0xe00a99d5ba3ac3db,
            0x7074f0c686a28082,
            0x2121d1175f70fa34,
            0xf213ad5de84e5340,
            0x0b32bb057fa1497d,
        ],
    ),
    (
        "bytes-ragged-48",
        [
            0xb5bb7886becc9785,
            0x40e40234e5fdae40,
            0x0c3c7b7e8448cb4c,
            0x5e3c0d109d668216,
            0xc7e5451891173f48,
            0xa7c9769317a2c545,
            0xb7c75cc45d2ced72,
        ],
    ),
    (
        "robust-logical-24",
        [
            0xf52007df53af5df5,
            0x8e7845c64aa48f24,
            0x12a9ae92a92fca64,
            0xc7e1054525d6a1f6,
            0x17197cb3cc8f50d7,
            0x23f82220712482cc,
            0x8e7b7ad05dbdf5a7,
        ],
    ),
    (
        "after-churn-48",
        [
            0xb5bb7886becc9785,
            0x52f6808d13bd9f79,
            0xb085ebf91b5dab6d,
            0xcc161a6a71d4f491,
            0x90d7058b73b14ec6,
            0x1c0515435e018000,
            0x3e40dead484144a5,
        ],
    ),
    (
        "after-link-down-48",
        [
            0xb5bb7886becc9785,
            0xd216cd0d9cc5e809,
            0xb37627b99fbc1b2a,
            0xd3fb4c938343e29a,
            0xb83bfd694671ca91,
            0x4bb4c29ce25e5cd1,
            0x2998b1be64332bf8,
        ],
    ),
    (
        "degraded-link-down-8",
        [
            0x49614f10fb0856cd,
            0x496caef253ae7ac4,
            0x298a7f6535c2086a,
            0x5783c036e27a2b27,
            0xa5889a6792bda927,
            0x3d85dbcb9eb62081,
            0x719b7f863b9ba24b,
        ],
    ),
];

#[test]
fn every_pattern_keeps_the_columns_it_was_pinned_with() {
    const COLUMNS: [&str; 7] =
        ["step_off", "steps", "held_off", "held", "resp_off", "resp", "stats"];
    let cells = cells();
    assert_eq!(cells.len(), GOLDENS.len());
    let mut moved = Vec::new();
    for ((name, pattern), (pinned, want)) in cells.iter().zip(GOLDENS) {
        assert_eq!(*name, pinned);
        let got = digests(pattern);
        for (column, (g, w)) in COLUMNS.iter().zip(got.iter().zip(want)) {
            if *g != w {
                moved.push(format!("{name}.{column}: 0x{g:016x}, pinned 0x{w:016x}"));
            }
        }
    }
    assert!(moved.is_empty(), "columns moved:\n{}", moved.join("\n"));
}
