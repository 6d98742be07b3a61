#[cfg(test)]
mod tests {
    //! The robust path's negotiation: every rank a machine on the rank
    //! runtime's logical clock, fault-free and under a `FaultPlan`.

    use crate::builder::{build_pattern, BuildError};
    use crate::exec::virtual_exec::{reference_allgather, test_payloads};
    use crate::exec::{ExecOptions, Executor, Virtual};
    use crate::fault::FaultPlan;
    use crate::lower::lower;
    use crate::negotiate::{
        build_pattern_distributed, build_pattern_distributed_pooled_v, RECV_TIMEOUT,
    };
    use crate::pattern::DhPattern;
    use crate::sizes::{BlockSizes, LoadMetric};
    use nhood_cluster::{ClusterLayout, WorkerPool};
    use nhood_topology::random::erdos_renyi;
    use nhood_topology::Topology;
    use std::sync::Arc;
    use std::time::Duration;

    /// The full form under a fault plan, defaults elsewhere.
    fn build_faulty(
        g: &Topology,
        layout: &ClusterLayout,
        fp: &FaultPlan,
        timeout: Duration,
    ) -> Result<DhPattern, BuildError> {
        let (sizes, pool) = (BlockSizes::default(), WorkerPool::serial());
        let opts = ExecOptions::new().recv_timeout(timeout).fault(fp);
        build_pattern_distributed_pooled_v(g, layout, &sizes, LoadMetric::Neighbors, &pool, &opts)
    }

    fn check(graph: &Topology, layout: &ClusterLayout) -> DhPattern {
        let pat = build_pattern_distributed(graph, layout).expect("builds");
        let plan = Arc::new(lower(&pat, graph));
        plan.validate(graph).expect("exactly-once delivery");
        let payloads = test_payloads(graph.n(), 8, 3);
        let got = Virtual.run_simple(&plan, graph, &payloads).expect("executes");
        assert_eq!(got, reference_allgather(graph, &payloads));
        pat
    }

    #[test]
    fn distributed_negotiation_yields_valid_patterns() {
        for (n, delta) in [(16usize, 0.3), (24, 0.5), (32, 0.1), (17, 0.6)] {
            let g = erdos_renyi(n, delta, 42);
            let layout = ClusterLayout::new(n.div_ceil(8), 2, 4);
            // the matching does not depend on the order signals cross in
            // (the tallies do): the FIFO builder's, rank for rank
            let seq = build_pattern(&g, &layout).expect("builds");
            assert!(check(&g, &layout).same_rows(&seq), "n = {n}");
        }
    }

    #[test]
    fn repeated_runs_always_valid_under_scheduling_noise() {
        // the logical clock replays a run exactly: ten runs, one pattern
        let g = erdos_renyi(24, 0.4, 9);
        let layout = ClusterLayout::new(3, 2, 4);
        let first = check(&g, &layout);
        for _ in 0..10 {
            let again = check(&g, &layout);
            assert_eq!(again, first);
        }
    }

    #[test]
    fn empty_and_single_socket() {
        let g = Topology::from_edges(8, []);
        let layout = ClusterLayout::new(2, 2, 2);
        let pat = check(&g, &layout);
        assert_eq!(pat.stats.total_signals(), 0);
        let g = erdos_renyi(8, 0.5, 2);
        let one_socket = ClusterLayout::new(1, 1, 8);
        let pat = check(&g, &one_socket);
        assert_eq!(pat.max_steps(), 0);
    }

    #[test]
    fn matches_sequential_structure_on_full_graph() {
        // on the complete graph every search succeeds under both drivers,
        // so the aggregate structure must agree even if pairings differ
        let n = 16;
        let g = Topology::from_edges(
            n,
            (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j))),
        );
        let layout = ClusterLayout::new(2, 2, 4);
        let dist = check(&g, &layout);
        let seq = build_pattern(&g, &layout).expect("builds");
        assert_eq!(dist.max_steps(), seq.max_steps());
        assert_eq!(dist.stats.agents_found, seq.stats.agents_found);
        for r in 0..n {
            assert_eq!(dist.held(r).len(), seq.held(r).len());
        }
    }

    #[test]
    fn signal_counts_respect_two_message_invariant() {
        let g = erdos_renyi(24, 0.5, 4);
        let layout = ClusterLayout::new(3, 2, 4);
        let pat = build_pattern_distributed(&g, &layout).expect("builds");
        let s = &pat.stats;
        // every pairwise exchange is exactly two messages, so the total
        // signal count is even and splits evenly between directions
        assert_eq!(s.total_signals() % 2, 0);
        assert_eq!(s.accept, s.agents_found);
        // proposer-side sends (REQ + EXIT) equal acceptor-side sends
        // (ACCEPT + DROP): one message each way per pair
        assert_eq!(s.req + s.exit, s.accept + s.drop);
    }

    #[test]
    fn survivable_drop_rate_still_builds_valid_patterns() {
        let g = erdos_renyi(24, 0.4, 6);
        let layout = ClusterLayout::new(3, 2, 4);
        // 5% drop with a 5-retry budget: loss odds per signal ≈ 1.6e-8
        let fp = FaultPlan::seeded(31)
            .with_message_drop(0.05)
            .with_message_delay(0.1, Duration::from_micros(300));
        let pat = build_faulty(&g, &layout, &fp, Duration::from_secs(10))
            .expect("survivable schedule must build");
        let plan = Arc::new(lower(&pat, &g));
        plan.validate(&g).expect("exactly-once delivery");
        let payloads = test_payloads(24, 8, 3);
        let got = Virtual.run_simple(&plan, &g, &payloads).expect("executes");
        assert_eq!(got, reference_allgather(&g, &payloads));
    }

    #[test]
    fn a_straggler_stalls_every_step_and_the_negotiation_still_completes() {
        let g = erdos_renyi(24, 0.4, 12);
        let layout = ClusterLayout::new(3, 2, 4);
        let fp = FaultPlan::seeded(5).with_slow_rank(7, Duration::from_millis(20));
        let pat =
            build_faulty(&g, &layout, &fp, Duration::from_secs(10)).expect("a stall is survivable");
        let s = pat.stats;
        assert_eq!(s.req + s.exit, s.accept + s.drop);
        lower(&pat, &g).validate(&g).expect("exactly-once delivery");
    }

    #[test]
    fn unsurvivable_drops_time_out_typed_not_hang() {
        let g = erdos_renyi(16, 0.5, 8);
        let layout = ClusterLayout::new(2, 2, 4);
        // every signal is dropped every time: negotiation cannot proceed.
        // The default 20 s timeout passes on the logical clock, at once.
        let fp = FaultPlan::seeded(1).with_message_drop(1.0);
        let t0 = std::time::Instant::now();
        let err = build_faulty(&g, &layout, &fp, RECV_TIMEOUT).expect_err("nothing negotiates");
        // rank 0 proposes in the first round and hears nothing back
        assert_eq!(err, BuildError::NegotiationTimeout { rank: 0, step: 0, round: 0 });
        assert!(t0.elapsed() < Duration::from_secs(1), "the timeout cost wall time");
    }
}
