//! Simulated time: prices a plan on `nhood-simnet`.
//!
//! Turns every planned message into a simulator message of
//! `blocks.len() × m` bytes and every `copy_blocks` tally into local
//! pack/copy time at a configurable memcpy bandwidth, then runs the
//! discrete-event engine to obtain the collective's latency on a modelled
//! cluster — the stand-in for the paper's wall-clock measurements
//! (Figs. 4–7). A simulation moves no bytes: it takes a plan (or a
//! request, through [`crate::DistGraphComm::simulate_on`]) and returns a
//! [`SimReport`]. On a [`BlockArena`], only a plan's first request lowers
//! a whole schedule: the arena keeps its prepared structure, and later
//! requests lower only their [`PriceColumns`] and replay.

use crate::arena::BlockArena;
use crate::collective::program::{Checked, Program, Shape};
use crate::plan::CollectivePlan;
use crate::sizes::BlockSizes;
use nhood_cluster::ClusterLayout;
use nhood_simnet::{Engine, Msg, Perturbation, PhaseWriter, PriceColumns, Schedule};
use nhood_simnet::{SimConfig, SimError, SimReport};
use nhood_topology::{Rank, Topology};
use std::sync::Arc;

/// Cost knobs of the simulated execution.
#[derive(Clone, Copy, Debug)]
pub struct SimCost {
    /// Network configuration (Hockney levels + NIC mode).
    pub net: SimConfig,
    /// Local memcpy bandwidth (bytes/s) charged for `copy_blocks`.
    pub memcpy_bytes_per_sec: f64,
}

impl SimCost {
    /// Niagara-like defaults: the paper's testbed network plus a
    /// single-core ~5 GB/s packing bandwidth.
    pub fn niagara() -> Self {
        Self { net: SimConfig::niagara(), memcpy_bytes_per_sec: 5.0e9 }
    }
}

/// Simulates `plan` at uniform message size `m` on `layout` and returns
/// the engine's report (latency = `report.makespan`): [`simulate_v`] at
/// `sizes = [m; n]`.
pub fn simulate(
    plan: &CollectivePlan,
    layout: &ClusterLayout,
    m: usize,
    cost: &SimCost,
) -> Result<SimReport, SimError> {
    simulate_v(plan, layout, &vec![m; plan.n()], cost)
}

/// Lowers `plan` to a simulator [`Schedule`] with *per-rank* payload
/// sizes — the one lowering behind every simulated gather (uniform
/// `allgather` is `sizes = [m; n]`). A message's bytes are the sum of
/// its blocks' sizes; copy charges use the mean block size (the plan
/// records copy *counts*, not which blocks — exact on uniform tables, an
/// approximation that matters only for highly skewed payloads).
///
/// # Panics
/// If `sizes` does not hold one payload size per rank of `plan`;
/// [`simulate_v`] returns that as a typed [`SimError::InvalidSchedule`].
pub fn to_schedule_v(plan: &CollectivePlan, sizes: &[usize], cost: &SimCost) -> Schedule {
    let n = plan.n();
    // one allocation per table
    let (phases, msgs) = ((0..n).map(|r| plan.phases(r).len()).sum(), plan.message_count());
    let mut s = Schedule::with_rows(n, phases, msgs);
    lower_v(plan, sizes, cost, &mut s);
    s
}

/// [`to_schedule_v`]'s lowering into any [`PhaseWriter`]: a whole
/// schedule, or the price columns of one already prepared.
fn lower_v(plan: &CollectivePlan, sizes: &[usize], cost: &SimCost, out: &mut impl PhaseWriter) {
    let n = plan.n();
    // INVARIANT: `check_sizes` guards the crate's callers (`simulate_v`,
    // `simulate_kept`); `to_schedule_v`'s callers get its `# Panics`.
    assert_eq!(sizes.len(), n, "need one payload size per rank");
    let mean = if n == 0 { 0.0 } else { sizes.iter().sum::<usize>() as f64 / n as f64 };
    // a uniform table prices a message by its block count alone
    let uniform = sizes.first().copied().filter(|m| sizes.iter().all(|s| s == m));
    let bytes_of = |blocks: &[Rank]| -> usize {
        match uniform {
            Some(m) => blocks.len() * m,
            None => blocks.iter().map(|&b| sizes[b]).sum(),
        }
    };
    for r in 0..n {
        // lock-step: a message is received in the phase it is sent in
        for (k, phase) in plan.phases(r).enumerate() {
            let local_seconds = phase.copy_blocks() as f64 * mean / cost.memcpy_bytes_per_sec;
            let msg = |dst, bytes, tag| Msg { src: r, dst, bytes, tag, recv_phase: k };
            let sends = phase.sends().map(|m| msg(m.peer(), bytes_of(m.blocks()), m.tag()));
            out.push_phase(r, local_seconds, sends);
        }
    }
}

/// Simulates `plan` with per-rank payload sizes (`neighbor_allgatherv`).
pub fn simulate_v(
    plan: &CollectivePlan,
    layout: &ClusterLayout,
    sizes: &[usize],
    cost: &SimCost,
) -> Result<SimReport, SimError> {
    check_sizes(plan, sizes)?;
    Engine::new(layout, cost.net).run(&to_schedule_v(plan, sizes, cost))
}

fn check_sizes(plan: &CollectivePlan, sizes: &[usize]) -> Result<(), SimError> {
    let (got, want) = (sizes.len(), plan.n());
    let why = || format!("need one payload size per rank: got {got}, want {want}");
    (got == want).then_some(()).ok_or_else(|| SimError::InvalidSchedule(why()))
}

/// What a simulated request lowers: a gather plan at per-rank payload
/// sizes ([`to_schedule_v`]), or a compiled program at its size table
/// ([`Program::schedule`]: combined wire sizes).
#[derive(Clone, Copy)]
pub(crate) enum Priced<'a> {
    Gather(&'a [usize]),
    Program(&'a Program, &'a BlockSizes),
}

/// One simulated request on `arena`: the first for this plan (or one of
/// equal messages), shape, topology and layout lowers a whole schedule
/// and keeps its prepared structure; later ones lower only their price
/// columns. Reports and errors are `Engine::run*`'s on the lowered
/// schedule.
pub(crate) fn simulate_kept(
    arena: &mut BlockArena,
    plan: &Arc<Checked>,
    graph: &Topology,
    layout: &ClusterLayout,
    cost: &SimCost,
    priced: Priced<'_>,
    perturbation: Option<&Perturbation>,
) -> Result<SimReport, SimError> {
    let shape = match priced {
        Priced::Gather(sizes) => check_sizes(plan, sizes).map(|()| Shape::Gather)?,
        Priced::Program(prog, _) => prog.shape,
    };
    perturbation.map_or(Ok(()), Perturbation::check)?;
    let engine = Engine::new(layout, cost.net);
    let kept = arena.simulation(plan, graph, shape, layout);
    let (prepared, prices) = match kept {
        Some(kept) => {
            let mut prices = kept.1.price_columns();
            match priced {
                Priced::Gather(sizes) => lower_v(plan, sizes, cost, &mut prices),
                Priced::Program(prog, sizes) => prog.lower(sizes, &mut prices),
            }
            (&kept.1, prices)
        }
        None => {
            let schedule = match priced {
                Priced::Gather(sizes) => to_schedule_v(plan, sizes, cost),
                Priced::Program(prog, sizes) => prog.schedule(sizes),
            };
            let prepared = engine.prepare(&schedule)?;
            (&kept.insert(Box::new((layout.clone(), prepared))).1, PriceColumns::from(&schedule))
        }
    };
    engine.run_prepared(prepared, &prices, perturbation, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::collective::program::tests::checked;
    use crate::common_neighbor::plan_common_neighbor;
    use crate::lower::lower;
    use crate::naive::plan_naive;
    use nhood_cluster::HockneyParams;
    use nhood_simnet::NicMode;
    use nhood_topology::random::erdos_renyi;

    fn flat_cost(alpha: f64, bw: f64) -> SimCost {
        SimCost {
            net: SimConfig::classic(HockneyParams::flat(alpha, bw), NicMode::Off),
            memcpy_bytes_per_sec: f64::INFINITY,
        }
    }

    #[test]
    fn a_bad_cost_model_fails_typed_on_every_entry() {
        use crate::collective::{CollectiveRequest, Reduction};
        use crate::comm::{CommError, DistGraphComm};
        use crate::plan::Algorithm;
        let g = erdos_renyi(32, 0.3, 1);
        let layout = ClusterLayout::new(2, 2, 8);
        let comm = DistGraphComm::create_adjacent(g.clone(), layout.clone()).unwrap();
        let plan = comm.plan_shared(Algorithm::DistanceHalving).unwrap();
        let payloads: Vec<Vec<u8>> = (0..32).map(|_| vec![1; 8]).collect();
        let req = CollectiveRequest::allreduce(&payloads, Reduction::SUM_U8);
        let mut arena = crate::arena::BlockArena::new();
        // a NaN α, a zero bandwidth at size 0 (0 / 0), a negative α
        for (cost, m) in
            [(flat_cost(f64::NAN, 1e9), 64), (flat_cost(1e-6, 0.0), 0), (flat_cost(-1.0, 1e9), 64)]
        {
            let typed = |e: SimError| matches!(e, SimError::InvalidConfig(_));
            let via_comm = |e: CommError| matches!(e, CommError::Sim(SimError::InvalidConfig(_)));
            assert!(typed(simulate(&plan, &layout, m, &cost).unwrap_err()));
            assert!(typed(simulate_v(&plan, &layout, &vec![m; 32], &cost).unwrap_err()));
            let on = comm.simulate_on(&req, Some(&plan), &mut arena, &cost, None);
            assert!(via_comm(on.unwrap_err()));
        }
    }

    #[test]
    fn schedule_mirrors_plan() {
        let g = erdos_renyi(16, 0.4, 3);
        let layout = ClusterLayout::new(2, 2, 4);
        let plan = lower(&build_pattern(&g, &layout).unwrap(), &g);
        let s = to_schedule_v(&plan, &vec![64; plan.n()], &SimCost::niagara());
        s.validate().unwrap();
        assert_eq!(s.message_count(), plan.message_count());
        assert_eq!(s.total_bytes(), plan.total_blocks_sent() * 64);
    }

    #[test]
    fn all_three_algorithms_simulate() {
        let g = erdos_renyi(36, 0.3, 5);
        let layout = ClusterLayout::new(3, 2, 6);
        let cost = SimCost::niagara();
        for plan in [
            plan_naive(&g),
            plan_common_neighbor(&g, 4),
            lower(&build_pattern(&g, &layout).unwrap(), &g),
        ] {
            let rep = simulate(&plan, &layout, 1024, &cost).unwrap();
            assert!(rep.makespan > 0.0);
            assert_eq!(rep.per_rank_finish.len(), 36);
        }
    }

    #[test]
    fn naive_latency_tracks_closed_form_on_flat_network() {
        // On a flat no-NIC network, naive latency for the busiest rank is
        // ≈ (outdeg + indeg) (α + m/β); the makespan is the max over
        // ranks up to scheduling interleave.
        let g = erdos_renyi(24, 0.5, 7);
        let layout = ClusterLayout::new(1, 1, 24);
        let cost = flat_cost(1e-6, 1e9);
        let m = 4096;
        let rep = simulate(&plan_naive(&g), &layout, m, &cost).unwrap();
        let t = 1e-6 + m as f64 / 1e9;
        let busiest = (0..24).map(|r| g.outdegree(r) + g.indegree(r)).max().unwrap() as f64;
        assert!(rep.makespan >= busiest * t * 0.9, "{} vs {}", rep.makespan, busiest * t);
        // all traffic is serialized somewhere, so it cannot beat the
        // total-edge bound either
        let total = 2.0 * g.edge_count() as f64 * t;
        assert!(rep.makespan <= total, "{} vs bound {total}", rep.makespan);
    }

    #[test]
    fn dh_beats_naive_on_dense_small_messages() {
        // The paper's headline regime: dense graph, small messages,
        // multi-node cluster → DH wins by cutting message count.
        let g = erdos_renyi(64, 0.5, 11);
        let layout = ClusterLayout::new(4, 2, 8); // L=8
        let cost = SimCost::niagara();
        let m = 64;
        let naive = simulate(&plan_naive(&g), &layout, m, &cost).unwrap();
        let dh_plan = lower(&build_pattern(&g, &layout).unwrap(), &g);
        let dh = simulate(&dh_plan, &layout, m, &cost).unwrap();
        assert!(
            dh.makespan < naive.makespan,
            "DH {} should beat naive {}",
            dh.makespan,
            naive.makespan
        );
        // and it does so with far fewer inter-node messages
        assert!(dh.stats.internode_msgs() < naive.stats.internode_msgs() / 2);
    }

    #[test]
    #[should_panic(expected = "need one payload size per rank")]
    fn to_schedule_v_panics_on_a_short_size_table() {
        let g = erdos_renyi(12, 0.5, 4);
        let plan = plan_naive(&g);
        to_schedule_v(&plan, &vec![64; plan.n() - 1], &SimCost::niagara());
    }

    #[test]
    fn memcpy_cost_is_charged() {
        let g = erdos_renyi(16, 0.5, 2);
        let layout = ClusterLayout::new(2, 2, 4);
        let plan = lower(&build_pattern(&g, &layout).unwrap(), &g);
        let fast = SimCost { memcpy_bytes_per_sec: f64::INFINITY, ..SimCost::niagara() };
        let slow = SimCost { memcpy_bytes_per_sec: 1e8, ..SimCost::niagara() };
        let m = 1 << 20;
        let t_fast = simulate(&plan, &layout, m, &fast).unwrap().makespan;
        let t_slow = simulate(&plan, &layout, m, &slow).unwrap().makespan;
        assert!(t_slow > t_fast, "copies must cost time: {t_slow} vs {t_fast}");
    }

    #[test]
    fn zero_size_messages_cost_only_latency() {
        let g = erdos_renyi(8, 0.5, 1);
        let layout = ClusterLayout::new(1, 1, 8);
        let cost = flat_cost(1e-6, 1e9);
        let rep = simulate(&plan_naive(&g), &layout, 0, &cost).unwrap();
        assert!(rep.makespan > 0.0);
        assert!(rep.makespan < 2.0 * g.edge_count() as f64 * 1.1e-6);
    }

    fn fold_bits(v: &[f64]) -> u64 {
        v.iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, x| (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3))
    }

    // `[makespan, fold(per_rank_finish), fold(port_busy)]` as `to_bits`
    // for a lowered Distance Halving plan, captured at the last commit
    // that shipped simnet's hash-map serial engine (a91473c) from
    // `Engine::run` / `Engine::run_perturbed`: `NicMode::{Off, TxOnly,
    // TxRx}` × global links off/on × LogGP off/on, plain then perturbed.
    // (simnet's own golden test covers synthetic schedules under
    // perturbation too; it cannot build a plan.)
    const DH: [[u64; 3]; 24] = [
        [0x3f205e663626bb94, 0xc76e4d42a23c8021, 0xa8fdd2ed1501eba7],
        [0x3f2271178b30b1a7, 0xf84445c2849e11bf, 0x113874a406835e1c],
        [0x3f1c5b0d2eda9f41, 0x4e2b0deab57f3031, 0xc46dfc6d7ce3e4f5],
        [0x3f1d8691cdaf6bad, 0xf05934ebac99288b, 0x664b6709fb8f6630],
        [0x3f205e663626bb94, 0xc76e4d42a23c8021, 0xa8fdd2ed1501eba7],
        [0x3f2271178b30b1a7, 0xf84445c2849e11bf, 0x113874a406835e1c],
        [0x3f1c5b0d2eda9f41, 0x4e2b0deab57f3031, 0xc46dfc6d7ce3e4f5],
        [0x3f1d8691cdaf6bad, 0xf05934ebac99288b, 0x664b6709fb8f6630],
        [0x3f25635167515ac6, 0x4c88758453084693, 0xdb9736d4e5eb2484],
        [0x3f28e18305132cc2, 0x6e0872b04dbcf118, 0xbe47d39e66c0729a],
        [0x3f1ee642ecc736e5, 0xc9f69c3974ca7d0b, 0x36a1fdf1910e8ade],
        [0x3f1f1be8c3272ea3, 0xd65e157c6371a798, 0xfd74ef4aebbfd97a],
        [0x3f25635167515ac6, 0x4c88758453084693, 0xdb9736d4e5eb2484],
        [0x3f28e18305132cc2, 0x6e0872b04dbcf118, 0xbe47d39e66c0729a],
        [0x3f1ee642ecc736e5, 0xc9f69c3974ca7d0b, 0x36a1fdf1910e8ade],
        [0x3f1f1be8c3272ea3, 0xd65e157c6371a798, 0xfd74ef4aebbfd97a],
        [0x3f285802ae98a9f0, 0x41133ecc227e46a2, 0x2a98db00a6f4ccb7],
        [0x3f2dab4e2af68ae9, 0xaa74420028b028b2, 0x73ed7a55157c23f0],
        [0x3f2076e80de86d62, 0xb4264a5112330d6b, 0xfe5fcd34ebd455af],
        [0x3f20f4468c2dd9f6, 0x95a62f88fd0cdd09, 0xfd74ef4aebbfd97a],
        [0x3f291b2449a53867, 0x9eb7919016d9ba73, 0x03fcb6df9a9ac2c5],
        [0x3f2de1065ef8ba0f, 0xc4148de60fc15bcf, 0x73ed7a55157c23f0],
        [0x3f20ba9dff3793ca, 0x00fdad5a21fc9e18, 0xfe5fcd34ebd455af],
        [0x3f20fbd38e38cc5d, 0x63ab70721673793c, 0xfd74ef4aebbfd97a],
    ];

    #[test]
    fn distance_halving_goldens_of_the_retired_serial_engine_hold() {
        use nhood_simnet::{GlobalLinkConfig, Perturbation};
        let g = erdos_renyi(64, 0.3, 17);
        let layout = ClusterLayout::with_groups(8, 2, 4, 2);
        let plan = lower(&build_pattern(&g, &layout).unwrap(), &g);
        let s = to_schedule_v(&plan, &vec![4096; plan.n()], &SimCost::niagara());
        let p = Perturbation {
            seed: 0x5EED,
            rank_stall: (0..64).map(|r| if r % 5 == 0 { 2e-6 } else { 0.0 }).collect(),
            jitter_p: 0.5,
            max_jitter: 3e-6,
            dead_links: Vec::new(),
        };
        let row = |rep: SimReport| {
            [rep.makespan.to_bits(), fold_bits(&rep.per_rank_finish), fold_bits(&rep.port_busy)]
        };
        let mut rows = DH.iter();
        for nic_mode in [NicMode::Off, NicMode::TxOnly, NicMode::TxRx] {
            for gl in [false, true] {
                for loggp in [false, true] {
                    let cfg = SimConfig {
                        hockney: HockneyParams::niagara(),
                        nic_mode,
                        cpu_overhead: loggp.then_some(0.15e-6),
                        nic_gap: loggp.then_some(0.025e-6),
                        global_links: gl.then(GlobalLinkConfig::niagara),
                    };
                    let e = Engine::new(&layout, cfg);
                    let what = format!("{nic_mode:?}, global links {gl}, LogGP {loggp}");
                    let plain = rows.next().expect("two golden rows per config");
                    assert_eq!(row(e.run(&s).unwrap()), *plain, "{what}");
                    let perturbed = rows.next().expect("two golden rows per config");
                    assert_eq!(row(e.run_perturbed(&s, &p).unwrap()), *perturbed, "{what}");
                }
            }
        }
    }

    /// `NicMode::{Off, TxOnly, TxRx}` × global links off/on × LogGP
    /// off/on.
    fn every_net() -> Vec<SimConfig> {
        use nhood_simnet::GlobalLinkConfig;
        let mut nets = Vec::new();
        for nic_mode in [NicMode::Off, NicMode::TxOnly, NicMode::TxRx] {
            for gl in [false, true] {
                for loggp in [false, true] {
                    nets.push(SimConfig {
                        hockney: HockneyParams::niagara(),
                        nic_mode,
                        cpu_overhead: loggp.then_some(0.15e-6),
                        nic_gap: loggp.then_some(0.025e-6),
                        global_links: gl.then(GlobalLinkConfig::niagara),
                    });
                }
            }
        }
        nets
    }

    fn same_report(want: &SimReport, got: &SimReport, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(want.makespan.to_bits(), got.makespan.to_bits(), "makespan: {what}");
        assert_eq!(bits(&want.per_rank_finish), bits(&got.per_rank_finish), "finish: {what}");
        assert_eq!(bits(&want.port_busy), bits(&got.port_busy), "busy: {what}");
        assert_eq!(want.stats, got.stats, "stats: {what}");
    }

    #[test]
    fn a_warm_arena_replays_every_request_as_a_cold_run_would() {
        use nhood_simnet::Perturbation;
        // three groups of two nodes: every locality level and both
        // global-link queues carry traffic
        let (n, layout) = (48, ClusterLayout::with_groups(6, 2, 4, 2));
        let g = erdos_renyi(n, 0.3, 21);
        let plans = [
            checked(lower(&build_pattern(&g, &layout).unwrap(), &g)),
            checked(plan_common_neighbor(&g, 4)),
            checked(plan_naive(&g)),
            checked(crate::pat::plan_pat(&g, 2)),
        ];
        // uniform, ragged with zero-length blocks, and the same ragged
        // multiset permuted
        let ragged: Vec<usize> = (0..n).map(|r| (r * 37 % 11) * 96).collect();
        assert!(ragged.contains(&0));
        let mut permuted = ragged.clone();
        permuted.rotate_left(17);
        let tables = [vec![512; n], ragged, permuted];
        let pert = Perturbation {
            seed: 0xA11CE,
            rank_stall: (0..n).map(|r| if r % 7 == 0 { 1.5e-6 } else { 0.0 }).collect(),
            jitter_p: 0.4,
            max_jitter: 2e-6,
            dead_links: Vec::new(),
        };
        for net in every_net() {
            let cost = SimCost { net, memcpy_bytes_per_sec: 5.0e9 };
            let engine = Engine::new(&layout, net);
            // one arena: each plan for three requests in a row, then the
            // next, twice round — a cold request, then warm ones
            let mut arena = BlockArena::new();
            for i in 0..24 {
                let plan = &plans[(i / 3) % plans.len()];
                let sizes = &tables[i % tables.len()];
                let perturbation = (i % 2 == 1).then_some(&pert);
                let warm = arena.simulation(plan, &g, Shape::Gather, &layout).is_some();
                assert_eq!(warm, i % 3 != 0, "request {i}: the structure is kept per plan");
                let what = format!("{net:?}, request {i}");
                let priced = Priced::Gather(sizes);
                let got = simulate_kept(&mut arena, plan, &g, &layout, &cost, priced, perturbation);
                let schedule = to_schedule_v(plan, sizes, &cost);
                let want = match perturbation {
                    Some(p) => engine.run_perturbed(&schedule, p),
                    None => engine.run(&schedule),
                };
                same_report(&want.unwrap(), &got.unwrap(), &what);
            }
        }
    }

    #[test]
    fn a_warm_request_fails_as_a_cold_one_and_leaves_the_arena_usable() {
        use nhood_simnet::Perturbation;
        let (n, layout) = (24, ClusterLayout::new(3, 2, 4));
        let g = erdos_renyi(n, 0.4, 8);
        let dh = checked(lower(&build_pattern(&g, &layout).unwrap(), &g));
        let niagara = SimCost::niagara();
        let request = |arena: &mut BlockArena,
                       plan: &Arc<Checked>,
                       g: &Topology,
                       sizes: &[usize],
                       cost,
                       perturbation: Option<&Perturbation>| {
            simulate_kept(arena, plan, g, &layout, &cost, Priced::Gather(sizes), perturbation)
        };
        let good = |arena: &mut BlockArena, plan: &Arc<Checked>, g: &Topology| {
            let sizes = vec![256; plan.n()];
            let got = request(arena, plan, g, &sizes, niagara, None);
            let want = simulate_v(plan, &layout, &sizes, &niagara).unwrap();
            same_report(&want, &got.unwrap(), "the good request");
        };
        let mut arena = BlockArena::new();
        good(&mut arena, &dh, &g);

        // a non-finite copy charge: Distance Halving copies, at 0 B/s
        let stalled = SimCost { memcpy_bytes_per_sec: 0.0, ..niagara };
        let sizes = vec![64; n];
        let warm = request(&mut arena, &dh, &g, &sizes, stalled, None);
        let cold = simulate_v(&dh, &layout, &sizes, &stalled).unwrap_err();
        assert!(
            matches!(&cold, SimError::InvalidSchedule(why) if why.contains("bad local_seconds"))
        );
        assert_eq!(warm.unwrap_err(), cold);
        good(&mut arena, &dh, &g);

        // a dead link the plan sends over
        let (src, m) =
            (0..n).find_map(|r| Some((r, dh.phases(r).find_map(|p| p.sends().next())?))).unwrap();
        let dead = Perturbation { dead_links: vec![(src, m.peer())], ..Perturbation::none() };
        let warm = request(&mut arena, &dh, &g, &sizes, niagara, Some(&dead));
        let schedule = to_schedule_v(&dh, &sizes, &niagara);
        let cold = Engine::new(&layout, niagara.net).run_perturbed(&schedule, &dead).unwrap_err();
        assert_eq!(cold, SimError::LinkDown { src, dst: m.peer() });
        assert_eq!(warm.unwrap_err(), cold);
        good(&mut arena, &dh, &g);

        // a size table of the wrong length
        let short = vec![64; n - 1];
        let warm = request(&mut arena, &dh, &g, &short, niagara, None);
        assert_eq!(warm.unwrap_err(), simulate_v(&dh, &layout, &short, &niagara).unwrap_err());
        good(&mut arena, &dh, &g);
    }
}
