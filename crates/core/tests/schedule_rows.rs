//! The flat schedule is invisible: for six builders × three seeded graphs
//! × a uniform and a ragged size table, what `to_schedule_v` wrote reads
//! back through `phases(r)` as the sends this test lowers itself from
//! `plan.phase(r, p)`, each received in the phase it is sent in (a plan
//! is lock-step) — and the send table is those rows in program order, so
//! the plan's dense send id is the schedule's row index.

use nhood_cluster::ClusterLayout;
use nhood_core::arena::BlockArena;
use nhood_core::exec::sim_exec::{simulate_v, to_schedule_v, SimCost};
use nhood_core::{Algorithm, CollectiveRequest, CommError, DistGraphComm};
use nhood_simnet::{Msg, SimError};
use nhood_topology::random::erdos_renyi;

/// `(n, δ, seed)`: a power-of-two graph, a dense non-power-of-two one,
/// and one sparse enough to leave ranks with no edge at all.
const GRAPHS: [(usize, f64, u64); 3] = [(32, 0.3, 11), (27, 0.5, 5), (40, 0.04, 3)];
const BUILDERS: [Algorithm; 6] = [
    Algorithm::Naive,
    Algorithm::CommonNeighbor { k: 4 },
    Algorithm::DistanceHalving,
    Algorithm::Pat { radix: 2 },
    Algorithm::Bruck,
    Algorithm::HierarchicalLeader { leaders_per_node: 2 },
];

#[test]
fn the_flat_schedule_reads_back_the_rows_of_the_plan() {
    let cost = SimCost::niagara();
    for (n, delta, seed) in GRAPHS {
        let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
        let comm = DistGraphComm::create_adjacent(erdos_renyi(n, delta, seed), layout).unwrap();
        let ragged = (0..n).map(|r| [0, 4, 12, 40, 0, 8, 100][(r * 5 + seed as usize) % 7]);
        for sizes in [vec![256; n], ragged.collect()] {
            let mean = sizes.iter().sum::<usize>() as f64 / n as f64;
            let bytes = |blocks: &[usize]| blocks.iter().map(|&b| sizes[b]).sum::<usize>();
            for algo in BUILDERS {
                let plan = comm.plan(algo).unwrap();
                let s = to_schedule_v(&plan, &sizes, &cost);
                let what = format!("n = {n}, {algo}, sizes[1] = {}", sizes[1]);
                assert_eq!(s.n(), n, "{what}");
                assert_eq!(s.message_count(), plan.message_count(), "{what}");
                for r in 0..n {
                    assert_eq!(s.phases(r).len(), plan.phases(r).len(), "{what}: rank {r}");
                    for (p, got) in s.phases(r).enumerate() {
                        let want = plan.phase(r, p);
                        let sends: Vec<Msg> = (want.sends())
                            .map(|m| Msg {
                                src: r,
                                dst: m.peer(),
                                bytes: bytes(m.blocks()),
                                tag: m.tag(),
                                recv_phase: p,
                            })
                            .collect();
                        assert_eq!(got.sends, sends, "{what}: rank {r} phase {p} sends");
                        let local = want.copy_blocks() as f64 * mean / cost.memcpy_bytes_per_sec;
                        assert_eq!(got.local_seconds.to_bits(), local.to_bits(), "{what}");
                        // the plan's dense send id is the send table's row
                        for (m, sent) in want.sends().zip(&sends) {
                            assert_eq!(&s.all_sends()[m.id()], sent, "{what}: send {}", m.id());
                        }
                    }
                }
                s.validate().unwrap_or_else(|e| panic!("{what}: {e}"));
            }
        }
    }
}

#[test]
fn a_short_size_table_is_a_typed_error_not_a_panic() {
    let layout = ClusterLayout::new(3, 2, 4);
    let g = erdos_renyi(24, 0.3, 9);
    let comm = DistGraphComm::create_adjacent(g.clone(), layout.clone()).unwrap();
    let plan = comm.plan_shared(Algorithm::DistanceHalving).unwrap();
    for sizes in [vec![64; 23], vec![64; 25], vec![]] {
        let want = format!("need one payload size per rank: got {}, want 24", sizes.len());
        let got = simulate_v(&plan, &layout, &sizes, &SimCost::niagara()).unwrap_err();
        assert_eq!(got, SimError::InvalidSchedule(want));
    }
    // a simulated request counts its payloads before it sizes anything
    // by them
    let short: Vec<Vec<u8>> = vec![vec![0; 64]; 23];
    let want = SimError::InvalidSchedule("need one payload size per rank: got 23, want 24".into());
    for req in [CollectiveRequest::allgatherv(&short), CollectiveRequest::allgather(&short)] {
        let (arena, cost) = (&mut BlockArena::new(), &SimCost::niagara());
        let got = comm.simulate_on(&req, Some(&plan), arena, cost, None).unwrap_err();
        assert!(matches!(&got, CommError::Sim(e) if *e == want), "{got}");
    }
}
