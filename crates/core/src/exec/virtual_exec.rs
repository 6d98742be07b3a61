//! The virtual executor: deterministic, sequential, real bytes.
//!
//! Runs all ranks in lock-step, one plan phase at a time. It is the
//! correctness oracle for every algorithm and topology in the test suite
//! and scales to thousands of ranks.
//!
//! Each rank holds one table of block descriptors laid out by a
//! precomputed [`crate::arena::ArenaLayout`] (see the arena module docs
//! for what a descriptor is). A planned message moves the descriptors
//! the sender's source runs hold *now* into the receiver's destination
//! runs — one slice copy of 4 B per block for a Distance Halving halving
//! step — and each receive buffer is then appended straight from the
//! origin payloads its slots name: every delivered byte is copied once.
//! Uniform and ragged (`allgatherv`) payloads take the same path; a
//! block's length is its payload's.

use crate::arena::{two_bufs, ArenaLayout, BlockArena, SlotRun, EMPTY};
use crate::exec::{check_count, check_payloads, ExecError, ExecOptions, ExecOutcome, Executor};
use crate::plan::CollectivePlan;
use nhood_telemetry::Recorder;
use nhood_topology::{Rank, Topology};
use std::collections::HashSet;
use std::sync::Arc;

/// The sequential real-bytes backend (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Virtual;

impl Executor for Virtual {
    fn name(&self) -> &'static str {
        "virtual"
    }

    fn run(
        &self,
        plan: &Arc<CollectivePlan>,
        graph: &Topology,
        payloads: &[Vec<u8>],
        arena: &mut BlockArena,
        opts: &ExecOptions<'_>,
    ) -> Result<ExecOutcome, ExecError> {
        if opts.ragged {
            check_count(payloads, plan.n())?;
        } else {
            check_payloads(payloads, plan.n())?;
        }
        let layout = arena.prepare(plan, graph)?;
        let mut held = arena.take_tables(&layout);
        let rbufs = forward(plan, &layout, payloads, &mut held, opts.recorder)
            .and_then(|()| assemble(&layout, payloads, &held, arena));
        arena.put_tables(held);
        Ok(ExecOutcome { rbufs: rbufs?, ..ExecOutcome::default() })
    }
}

/// Runs the plan's phases over the slot tables: every send forwards the
/// descriptors its source runs hold to the slots its receiver posted.
fn forward(
    plan: &CollectivePlan,
    layout: &ArenaLayout,
    payloads: &[Vec<u8>],
    held: &mut [Vec<u32>],
    rec: &dyn Recorder,
) -> Result<(), ExecError> {
    // A layout row sees only its own rank's program, so a posted recv
    // whose send is missing from the peer's program would leave its
    // slots empty; counting matched deliveries against posted recvs
    // names the recv rather than whichever slot is read first.
    let (mut posted, mut delivered) = (0usize, 0usize);
    for k in 0..layout.phase_count {
        for (r, prog) in plan.per_rank.iter().enumerate() {
            if prog[k].copy_blocks > 0 {
                rec.copies(r, prog[k].copy_blocks);
            }
        }
        for (r, rl) in layout.ranks.iter().enumerate() {
            posted += rl.phases[k].recvs.len();
            for op in &rl.phases[k].sends {
                let bytes = held_bytes(&held[r], &op.runs, payloads).map_err(|slot| {
                    ExecError::MissingBlock { rank: r, block: rl.slots[slot], phase: k }
                })?;
                rec.msg_sent(r, op.peer, bytes);
                // no receive posted at the peer: the message goes nowhere
                let Some((ph, i)) = op.dst else { continue };
                rec.msg_recvd(op.peer, r, bytes);
                let dst_runs = &layout.ranks[op.peer].phases[ph as usize].recvs[i as usize].runs;
                let (src, dst) = two_bufs(held, r, op.peer);
                forward_runs(src, &op.runs, dst, dst_runs);
                delivered += 1;
            }
        }
    }
    if delivered < posted {
        if let Some(unsent) = first_unsent_recv(layout) {
            return Err(unsent);
        }
    }
    Ok(())
}

/// Builds every rank's receive buffer from the origin payloads its
/// `out_runs` slots name — the one copy of each delivered byte.
fn assemble(
    layout: &ArenaLayout,
    payloads: &[Vec<u8>],
    held: &[Vec<u32>],
    arena: &mut BlockArena,
) -> Result<Vec<Vec<u8>>, ExecError> {
    let mut rbufs = arena.take_rbufs(layout.n());
    for (r, (rb, rl)) in rbufs.iter_mut().zip(&layout.ranks).enumerate() {
        let want = held_bytes(&held[r], &rl.out_runs, payloads)
            .map_err(|slot| ExecError::Undelivered { rank: r, block: rl.slots[slot] })?;
        let cap = rb.capacity();
        rb.clear();
        rb.reserve(want);
        for &(s, l) in &rl.out_runs {
            for &id in &held[r][s as usize..(s + l) as usize] {
                rb.extend_from_slice(&payloads[id as usize]);
            }
        }
        arena.note_realloc(rb.capacity() != cap);
    }
    Ok(rbufs)
}

/// Payload bytes behind the descriptors `runs` covers in one rank's
/// table, or the first covered slot that holds nothing.
fn held_bytes(held: &[u32], runs: &[SlotRun], payloads: &[Vec<u8>]) -> Result<usize, usize> {
    let mut bytes = 0usize;
    for &(s, l) in runs {
        for (i, &id) in held[s as usize..(s + l) as usize].iter().enumerate() {
            if id == EMPTY {
                return Err(s as usize + i);
            }
            bytes += payloads[id as usize].len();
        }
    }
    Ok(bytes)
}

/// Moves descriptors from `src` slots to `dst` slots, walking the two
/// run lists in lock-step. Plan mirror-validation makes them carry the
/// same blocks in the same order; when they disagree the descriptors
/// still land in message order — whatever was sent, where it was posted —
/// and a longer receive list keeps its tail slots as they were.
fn forward_runs(src: &[u32], src_runs: &[SlotRun], dst: &mut [u32], dst_runs: &[SlotRun]) {
    let mut src_runs = src_runs.iter();
    let (mut s, mut left) = (0usize, 0usize);
    for &(d, need) in dst_runs {
        let (mut d, mut need) = (d as usize, need as usize);
        while need > 0 {
            if left == 0 {
                let Some(&(start, len)) = src_runs.next() else { return };
                (s, left) = (start as usize, len as usize);
            }
            let take = left.min(need);
            dst[d..d + take].copy_from_slice(&src[s..s + take]);
            (s, left, d, need) = (s + take, left - take, d + take, need - take);
        }
    }
}

/// Names the first posted recv (rank, then phase order) that no rank's
/// program sends — the slow path behind the delivery count above.
fn first_unsent_recv(layout: &ArenaLayout) -> Option<ExecError> {
    let mut sent: HashSet<(Rank, Rank, u64)> = HashSet::new();
    for (r, rl) in layout.ranks.iter().enumerate() {
        sent.extend(rl.phases.iter().flat_map(|ph| &ph.sends).map(|s| (r, s.peer, s.tag)));
    }
    for (r, rl) in layout.ranks.iter().enumerate() {
        for op in rl.phases.iter().flat_map(|ph| &ph.recvs) {
            if !sent.contains(&(op.peer, r, op.tag)) {
                let block = op.runs.first().map_or(op.peer, |&(slot, _)| rl.slots[slot as usize]);
                return Some(ExecError::Undelivered { rank: r, block });
            }
        }
    }
    None
}

/// Reference receive buffers straight from the definition — what any
/// correct neighborhood allgather must produce.
pub fn reference_allgather(graph: &Topology, payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
    (0..graph.n())
        .map(|r| {
            let ins = graph.in_neighbors(r);
            let mut rbuf = Vec::with_capacity(ins.iter().map(|&b| payloads[b].len()).sum());
            for &b in ins {
                rbuf.extend_from_slice(&payloads[b]);
            }
            rbuf
        })
        .collect()
}

/// Convenience payload generator for tests: rank `r`'s block is `m` bytes
/// derived from `r` and a seed, so misplaced blocks are detected.
pub fn test_payloads(n: usize, m: usize, seed: u64) -> Vec<Vec<u8>> {
    (0..n)
        .map(|r| {
            (0..m)
                .map(|i| {
                    let x = (r as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(seed)
                        .wrapping_add(i as u64);
                    (x ^ (x >> 32)) as u8
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::common_neighbor::plan_common_neighbor;
    use crate::lower::lower;
    use crate::naive::plan_naive;
    use nhood_cluster::ClusterLayout;
    use nhood_topology::random::erdos_renyi;

    /// Runs the plan and checks the buffers against the definition.
    fn run_checked(
        plan: &Arc<CollectivePlan>,
        g: &Topology,
        payloads: &[Vec<u8>],
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        let out = Virtual.run_simple(plan, g, payloads)?;
        assert_eq!(out, reference_allgather(g, payloads), "diverged from the reference");
        Ok(out)
    }

    #[test]
    fn naive_matches_reference() {
        let g = erdos_renyi(24, 0.3, 1);
        let plan = Arc::new(plan_naive(&g));
        let payloads = test_payloads(24, 16, 7);
        let got = run_checked(&plan, &g, &payloads).unwrap();
        assert_eq!(got, reference_allgather(&g, &payloads));
    }

    #[test]
    fn distance_halving_matches_reference() {
        for (n, delta, nodes, cores) in
            [(16, 0.3, 2, 4), (24, 0.5, 3, 4), (36, 0.1, 3, 6), (30, 0.7, 5, 3)]
        {
            let g = erdos_renyi(n, delta, 42);
            let layout = ClusterLayout::new(nodes, 2, cores);
            let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
            let payloads = test_payloads(n, 8, 3);
            let got = run_checked(&plan, &g, &payloads)
                .unwrap_or_else(|e| panic!("n={n} delta={delta}: {e}"));
            assert_eq!(got, reference_allgather(&g, &payloads), "n={n} delta={delta}");
        }
    }

    #[test]
    fn common_neighbor_matches_reference() {
        for k in [2usize, 4, 8] {
            let g = erdos_renyi(32, 0.4, 9);
            let plan = Arc::new(plan_common_neighbor(&g, k));
            let payloads = test_payloads(32, 12, 1);
            let got = run_checked(&plan, &g, &payloads).unwrap();
            assert_eq!(got, reference_allgather(&g, &payloads), "k={k}");
        }
    }

    #[test]
    fn zero_byte_payloads_work() {
        let g = erdos_renyi(12, 0.5, 2);
        let plan = Arc::new(plan_naive(&g));
        let payloads = vec![vec![]; 12];
        let got = run_checked(&plan, &g, &payloads).unwrap();
        for (r, rbuf) in got.iter().enumerate() {
            assert!(rbuf.is_empty(), "rank {r}");
        }
    }

    #[test]
    fn payload_shape_errors() {
        let g = erdos_renyi(4, 0.5, 2);
        let plan = Arc::new(plan_naive(&g));
        assert_eq!(
            Virtual.run_simple(&plan, &g, &[vec![0u8; 4]]).unwrap_err(),
            ExecError::PayloadCountMismatch { got: 1, want: 4 }
        );
        let bad = vec![vec![0u8; 4], vec![0u8; 4], vec![0u8; 5], vec![0u8; 4]];
        assert_eq!(
            Virtual.run_simple(&plan, &g, &bad).unwrap_err(),
            ExecError::PayloadSizeMismatch { rank: 2, got: 5, want: 4 }
        );
    }

    #[test]
    fn corrupt_plan_caught_as_missing_block() {
        let g = Topology::from_edges(3, [(0, 2)]);
        let mut plan = plan_naive(&g);
        // rank 1 claims to send block 0 which it never received
        plan.per_rank[1][0].sends.push(crate::plan::PlannedMsg {
            peer: 2,
            blocks: vec![0],
            tag: 5,
        });
        let payloads = test_payloads(3, 4, 0);
        assert_eq!(
            run_checked(&Arc::new(plan), &g, &payloads).unwrap_err(),
            ExecError::MissingBlock { rank: 1, block: 0, phase: 0 }
        );
    }

    #[test]
    fn dropped_message_caught_as_undelivered() {
        let g = Topology::from_edges(2, [(0, 1)]);
        let mut plan = plan_naive(&g);
        plan.per_rank[0][0].sends.clear();
        let payloads = test_payloads(2, 4, 0);
        assert_eq!(
            run_checked(&Arc::new(plan), &g, &payloads).unwrap_err(),
            ExecError::Undelivered { rank: 1, block: 0 }
        );
    }

    #[test]
    fn payload_bytes_land_in_correct_slots() {
        // directed asymmetric graph: rbuf layout must follow in-neighbor
        // order, not arrival order
        let g = Topology::from_edges(4, [(2, 0), (1, 0), (3, 0)]);
        let plan = Arc::new(plan_naive(&g));
        let payloads = test_payloads(4, 4, 11);
        let got = run_checked(&plan, &g, &payloads).unwrap();
        // in_neighbors(0) = [1, 2, 3]
        assert_eq!(&got[0][0..4], &payloads[1][..]);
        assert_eq!(&got[0][4..8], &payloads[2][..]);
        assert_eq!(&got[0][8..12], &payloads[3][..]);
    }

    #[test]
    fn allgatherv_ragged_payloads() {
        let g = erdos_renyi(20, 0.4, 6);
        let layout = ClusterLayout::new(3, 2, 4);
        let payloads: Vec<Vec<u8>> = (0..20).map(|r| vec![r as u8; r % 5]).collect(); // lengths 0..=4
        let want = reference_allgather(&g, &payloads);
        for plan in [
            plan_naive(&g),
            plan_common_neighbor(&g, 4),
            lower(&build_pattern(&g, &layout).unwrap(), &g),
        ]
        .map(Arc::new)
        {
            let opts = ExecOptions::new().ragged(true);
            let got =
                Virtual.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap().rbufs;
            assert_eq!(got, want);
        }
        // the strict (uniform) call rejects ragged payloads
        assert!(matches!(
            Virtual.run_simple(&Arc::new(plan_naive(&g)), &g, &payloads),
            Err(ExecError::PayloadSizeMismatch { .. })
        ));
    }

    #[test]
    fn recorder_counts_match_plan_statics_on_both_engines() {
        let g = erdos_renyi(24, 0.3, 5);
        let layout = ClusterLayout::new(3, 2, 4);
        let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        let payloads = test_payloads(24, 8, 1);
        let rec = nhood_telemetry::CountingRecorder::new(24);
        let opts = ExecOptions::new().recorder(&rec);
        let got = Virtual.run(&plan, &g, &payloads, &mut BlockArena::new(), &opts).unwrap().rbufs;
        assert_eq!(got, reference_allgather(&g, &payloads));
        let t = rec.totals();
        assert_eq!(t.msgs_sent as usize, plan.message_count());
        assert_eq!(t.msgs_sent, t.msgs_recvd);
        assert_eq!(t.bytes_sent, t.bytes_recvd);
        assert_eq!(t.bytes_sent as usize, plan.total_blocks_sent() * 8);
    }

    #[test]
    fn arena_is_reused_across_runs() {
        let g = erdos_renyi(24, 0.4, 8);
        let layout = ClusterLayout::new(3, 2, 4);
        let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        let mut arena = BlockArena::new();
        let opts = ExecOptions::default();
        let mut prev = None;
        for round in 0..10u64 {
            let payloads = test_payloads(24, 32, round);
            let out = Virtual.run(&plan, &g, &payloads, &mut arena, &opts).unwrap();
            assert_eq!(out.rbufs, reference_allgather(&g, &payloads), "round {round}");
            // give the output buffers back so the next run reuses them
            arena.adopt_rbufs(out.rbufs);
            if let Some(p) = prev {
                assert_eq!(arena.reallocations(), p, "round {round} reallocated");
            }
            prev = Some(arena.reallocations());
        }
        // the same arena serves any block size, ragged rounds included,
        // and a rejected call leaves it usable
        for m in [4usize, 64, 8, 0] {
            let uniform = test_payloads(24, m, 9);
            let out = Virtual.run(&plan, &g, &uniform, &mut arena, &opts).unwrap();
            assert_eq!(out.rbufs, reference_allgather(&g, &uniform), "m={m}");
            arena.adopt_rbufs(out.rbufs);
            let ragged: Vec<Vec<u8>> = (0..24).map(|r| vec![r as u8; (r + m) % 5]).collect();
            let vopts = ExecOptions::new().ragged(true);
            let out = Virtual.run(&plan, &g, &ragged, &mut arena, &vopts).unwrap();
            assert_eq!(out.rbufs, reference_allgather(&g, &ragged), "ragged after m={m}");
            arena.adopt_rbufs(out.rbufs);
        }
        assert!(Virtual.run(&plan, &g, &[vec![0u8; 4]], &mut arena, &opts).is_err());
        let payloads = test_payloads(24, 4, 1);
        let out = Virtual.run(&plan, &g, &payloads, &mut arena, &opts).unwrap();
        assert_eq!(out.rbufs, reference_allgather(&g, &payloads));
    }

    #[test]
    fn warm_arena_follows_the_plan_not_the_allocation() {
        // One arena across: the same `Arc` twice (warm), equal content
        // in another `Arc` (content path, same layout), another plan on
        // the same graph (rebuild), and back.
        let g = erdos_renyi(24, 0.4, 8);
        let layout = ClusterLayout::new(3, 2, 4);
        let dh = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        let twin = Arc::new(CollectivePlan::clone(&dh));
        let naive = Arc::new(plan_naive(&g));
        let mut arena = BlockArena::new();
        for (i, plan) in [&dh, &dh, &twin, &naive, &dh, &twin, &twin].into_iter().enumerate() {
            let payloads = test_payloads(24, 16, i as u64);
            let out = Virtual.run(plan, &g, &payloads, &mut arena, &ExecOptions::new()).unwrap();
            assert_eq!(out.rbufs, reference_allgather(&g, &payloads), "run {i}");
            arena.adopt_rbufs(out.rbufs);
        }
    }

    #[test]
    fn a_send_nobody_receives_goes_nowhere() {
        // regression: indexed a hash map with the missing (src, tag) key
        // and panicked; the threaded backend parks such a message forever
        let g = Topology::from_edges(3, [(0, 2)]);
        let mut plan = plan_naive(&g);
        plan.per_rank[0][0].sends.push(crate::plan::PlannedMsg {
            peer: 1,
            blocks: vec![0],
            tag: 9,
        });
        let payloads = test_payloads(3, 4, 0);
        run_checked(&Arc::new(plan), &g, &payloads).unwrap();
    }

    #[test]
    fn forward_runs_walks_differently_fragmented_lists_in_lock_step() {
        let src = [10, 11, 12, 13, 14, 15, 16];
        let mut dst = [EMPTY; 8];
        // 5 blocks: source slots 0-2 and 5-6, landing in slots 1 and 3-6
        forward_runs(&src, &[(0, 3), (5, 2)], &mut dst, &[(1, 1), (3, 4)]);
        assert_eq!(dst, [EMPTY, 10, EMPTY, 11, 12, 15, 16, EMPTY]);
        // a sender that lists fewer blocks than were posted fills a
        // prefix and leaves the tail as it was; surplus blocks go nowhere
        let mut dst = [EMPTY, 7, EMPTY];
        forward_runs(&src, &[(2, 1)], &mut dst, &[(0, 3)]);
        assert_eq!(dst, [12, 7, EMPTY]);
        forward_runs(&src, &[(0, 7)], &mut dst, &[(2, 1)]);
        assert_eq!(dst, [12, 7, 10]);
    }

    #[test]
    fn held_bytes_sums_payload_lengths_and_names_the_first_empty_slot() {
        let payloads = vec![vec![0u8; 3], vec![], vec![0u8; 5]];
        let held = [2, 1, EMPTY, 0];
        assert_eq!(held_bytes(&held, &[(0, 2), (3, 1)], &payloads), Ok(8));
        assert_eq!(held_bytes(&held, &[(3, 1), (1, 2)], &payloads), Err(2));
        assert_eq!(held_bytes(&held, &[], &payloads), Ok(0));
    }

    #[test]
    fn large_scale_smoke() {
        // 540 ranks like the paper's smallest run, tiny payloads
        let g = erdos_renyi(540, 0.05, 4);
        let layout = ClusterLayout::niagara(15, 36);
        let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        plan.validate(&g).unwrap();
        let payloads = test_payloads(540, 8, 5);
        let got = Virtual.run_simple(&plan, &g, &payloads).unwrap();
        assert_eq!(got, reference_allgather(&g, &payloads));
    }
}
