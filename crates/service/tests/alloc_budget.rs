//! The warm gather path's, the cold plan path's and the combining
//! family's first-request allocation budgets, as counts.
//!
//! A timing regression needs ten benchmark pairs to see; an allocation
//! that creeps back into the per-request path or into build / validate /
//! simulate / lay out — or payload-sized memory the service keeps
//! between ticks — shows here as a number. The binary
//! has its own counting `#[global_allocator]` (calls and live bytes, per
//! thread, so the test harness's other threads are not counted).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nhood_cluster::ClusterLayout;
use nhood_core::{Algorithm, Reduction};
use nhood_service::{Service, ServiceConfig, SubmitRequest};
use nhood_topology::random::erdos_renyi;

thread_local! {
    // Const-initialized and without a destructor, so the allocator can
    // touch it at any point of a thread's life.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread allocated and has not freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    // Bytes this thread asked for: every allocation's size, and a
    // reallocation's new size (the benchmark's `alloc_kb_per_op` rule).
    static ASKED: Cell<u64> = const { Cell::new(0) };
}

fn asked(bytes: usize) {
    ASKED.with(|a| a.set(a.get() + bytes as u64));
}

fn track(calls: u64, bytes: i64) {
    CALLS.with(|c| c.set(c.get() + calls));
    LIVE.with(|l| l.set(l.get() + bytes));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(1, layout.size() as i64);
        asked(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(1, layout.size() as i64);
        asked(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(1, new_size as i64 - layout.size() as i64);
        asked(new_size);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, -(layout.size() as i64));
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const N: usize = 64;
const TENANTS: usize = 8;
const REQUESTS: usize = 16;

/// One tick's worth of inputs: 16 requests round-robin over the tenants.
fn inputs(round: u8) -> Vec<(usize, Vec<Vec<u8>>)> {
    (0..REQUESTS)
        .map(|i| (i % TENANTS, (0..N).map(|r| vec![r as u8 ^ round ^ i as u8; 64]).collect()))
        .collect()
}

/// Allocator calls of submit × 16 → one `tick` → `take_completions`,
/// with the inputs built (and the completions dropped) outside the count.
fn counted_tick(svc: &mut Service, reqs: Vec<(usize, Vec<Vec<u8>>)>) -> u64 {
    // the latency log grows for the life of a service; start each tick
    // from the same (emptied, capacity kept) log
    svc.reset_metrics();
    let before = CALLS.with(Cell::get);
    for (tenant, payloads) in reqs {
        svc.submit(tenant, payloads).expect("admitted");
    }
    assert_eq!(svc.tick(), REQUESTS, "one tick drains the block");
    let done = svc.take_completions();
    let calls = CALLS.with(Cell::get) - before;
    assert!(done.iter().all(|c| c.outcome.is_completed()));
    calls
}

#[test]
fn a_warm_gather_tick_stays_inside_its_allocation_budget() {
    // the shipped default config: Virtual, batching on, Verify::Sample(16)
    let mut svc = Service::new(ServiceConfig::default());
    for t in 0..TENANTS {
        // distinct graphs: every tenant is its own batch with its own arena
        let g = erdos_renyi(N, 0.15, 100 + t as u64);
        svc.add_tenant(g, ClusterLayout::new(8, 2, 4), Algorithm::DistanceHalving).unwrap();
    }
    // two warm-up ticks: arenas laid out and grown, queue and completion
    // vectors at their steady capacity
    counted_tick(&mut svc, inputs(0));
    counted_tick(&mut svc, inputs(1));

    let first = counted_tick(&mut svc, inputs(2));
    let second = counted_tick(&mut svc, inputs(3));
    println!("warm tick: {first} allocator calls for {REQUESTS} requests");
    assert!(
        first <= WARM_GATHER_TICK_CALLS,
        "{first} allocator calls for {REQUESTS} warm requests (budget {WARM_GATHER_TICK_CALLS})"
    );
    assert_eq!(second, first, "an identical warm tick must allocate exactly as often");
    assert_eq!(svc.report().stats.corrupt, 0);
}

/// `gather-large`'s shape at `unit` bytes: 16 requests alternating over
/// two tenants, tenant 0 uniform `8 * unit`, tenant 1 a ragged ladder of
/// 0–16 `unit`s (zero-length blocks included) permuted per request.
fn two_tenant_inputs(unit: usize, round: u8) -> Vec<(usize, Vec<Vec<u8>>)> {
    const LADDER: [usize; 8] = [0, 2, 4, 6, 8, 8, 12, 16];
    (0..REQUESTS)
        .map(|i| {
            let units = |r: usize| if i % 2 == 0 { 8 } else { LADDER[(r * 3 + i) % 8] };
            (i % 2, (0..N).map(|r| vec![r as u8 ^ round ^ i as u8; units(r) * unit]).collect())
        })
        .collect()
}

#[test]
fn large_blocks_cost_the_allocator_calls_and_live_heap_of_small_ones() {
    let mut svc = Service::new(ServiceConfig::default());
    for t in 0..2 {
        let g = erdos_renyi(N, 0.3, 200 + t);
        svc.add_tenant(g, ClusterLayout::new(4, 2, 8), Algorithm::DistanceHalving).unwrap();
    }
    // Warm ticks of `unit`-sized blocks, then the last one's allocator
    // calls and the heap the thread still holds once its completions
    // are dropped: the service's own.
    let mut warm_tick = |unit: usize| {
        counted_tick(&mut svc, two_tenant_inputs(unit, 0));
        counted_tick(&mut svc, two_tenant_inputs(unit, 1));
        let first = counted_tick(&mut svc, two_tenant_inputs(unit, 2));
        let second = counted_tick(&mut svc, two_tenant_inputs(unit, 3));
        assert_eq!(second, first, "an identical warm tick must allocate exactly as often");
        (first, LIVE.with(Cell::get))
    };
    let (_, small_live) = warm_tick(8); // 64 B uniform, 0-128 B ragged
    let (calls, large_live) = warm_tick(1 << 10); // 8 KiB uniform, 0-16 KiB ragged
    println!(
        "warm large-block tick: {calls} allocator calls for {REQUESTS} requests, \
         live heap {large_live} B (after 64 B blocks: {small_live} B)"
    );
    assert!(
        calls <= 16 * REQUESTS as u64,
        "{calls} allocator calls for {REQUESTS} warm large-block requests (budget 16 each)"
    );
    // the arena keeps 4 B per slot, not the blocks: what the service
    // holds between ticks does not depend on how large the blocks were
    assert!(
        (large_live - small_live).abs() <= 64 << 10,
        "live heap {large_live} B after 8 KiB blocks, {small_live} B after 64 B blocks"
    );
    assert_eq!(svc.report().stats.corrupt, 0);
}

/// `combine-mixed`'s shape: 16 requests alternating over a Distance
/// Halving and a Naive tenant — alltoallv, reduce_scatter, allreduce in
/// turn, 256 B and 4 KiB blocks, two reductions.
#[test]
fn a_warm_combining_tick_draws_its_receive_buffers_from_the_spare_set() {
    use nhood_core::{DType, ReduceOp};
    let graphs = [erdos_renyi(N, 0.2, 300), erdos_renyi(N, 0.2, 301)];
    let mut svc = Service::new(ServiceConfig::default());
    for (g, algo) in graphs.iter().zip([Algorithm::DistanceHalving, Algorithm::Naive]) {
        svc.add_tenant(g.clone(), ClusterLayout::new(4, 2, 8), algo).unwrap();
    }
    let reds = [Reduction::SUM_U8, Reduction::new(ReduceOp::Max, DType::U32)];
    let tick = |svc: &mut Service, round: u8| {
        let reqs: Vec<(usize, SubmitRequest)> = (0..REQUESTS)
            .map(|i| {
                let (g, m) = (&graphs[i % 2], if (i / 2) % 2 == 0 { 256 } else { 4 << 10 });
                let per_edge = (0..N).map(|p| vec![p as u8 ^ round; g.outdegree(p) * m]).collect();
                let req = match i % 3 {
                    0 => SubmitRequest::alltoallv(per_edge),
                    1 => SubmitRequest::reduce_scatter(per_edge, reds[(i / 3) % 2]),
                    _ => SubmitRequest::allreduce(vec![vec![round; m]; N], reds[(i / 3) % 2]),
                };
                (i % 2, req)
            })
            .collect();
        svc.reset_metrics();
        let (calls, done) = calls_of(|| {
            for (tenant, req) in reqs {
                svc.submit_request(tenant, req).expect("admitted");
            }
            assert_eq!(svc.tick(), REQUESTS, "one tick drains the block");
            svc.take_completions()
        });
        assert!(done.iter().all(|c| c.outcome.is_completed()));
        calls
    };
    tick(&mut svc, 0);
    tick(&mut svc, 1);
    let (first, second) = (tick(&mut svc, 2), tick(&mut svc, 3));
    println!("warm combining tick: {first} allocator calls for {REQUESTS} requests");
    assert_eq!(second, first, "an identical warm tick must allocate exactly as often");
    assert!(
        first <= WARM_COMBINING_TICK_CALLS,
        "{first} allocator calls for {REQUESTS} warm combining requests \
         (budget {WARM_COMBINING_TICK_CALLS})"
    );
    assert_eq!(svc.report().stats.corrupt, 0);
}

/// The bytes one warm reduce_scatter and one warm allreduce of
/// `combine-mixed`'s Distance Halving tenant allocate at 4 KiB blocks.
/// Most of them are the request-scoped staging arena, and a slot is a
/// partial that folded at a forwarding agent: a lone contribution is read
/// at its origin's send cell and staged nowhere.
#[test]
fn a_warm_reduce_request_stages_only_the_partials_that_fold() {
    let g = erdos_renyi(N, 0.2, 300);
    let config = ServiceConfig { verify: nhood_service::Verify::None, ..Default::default() };
    let mut svc = Service::new(config);
    svc.add_tenant(g.clone(), ClusterLayout::new(4, 2, 8), Algorithm::DistanceHalving).unwrap();
    let m = 4 << 10;
    let request = |allreduce: bool, round: u8| {
        if allreduce {
            return SubmitRequest::allreduce(vec![vec![round; m]; N], Reduction::SUM_U8);
        }
        let per_edge = (0..N).map(|p| vec![p as u8 ^ round; g.outdegree(p) * m]).collect();
        SubmitRequest::reduce_scatter(per_edge, Reduction::SUM_U8)
    };
    let budgets = [
        ("reduce_scatter", false, WARM_REDUCE_SCATTER_BYTES),
        ("allreduce", true, WARM_ALLREDUCE_BYTES),
    ];
    for (name, allreduce, budget) in budgets {
        let mut one = |round: u8| {
            let req = request(allreduce, round);
            let before = ASKED.with(Cell::get);
            svc.submit_request(0, req).expect("admitted");
            assert_eq!(svc.tick(), 1, "one tick drains the request");
            let done = svc.take_completions();
            let bytes = ASKED.with(Cell::get) - before;
            assert!(done.iter().all(|c| c.outcome.is_completed()));
            bytes
        };
        one(0);
        one(1);
        let (first, second) = (one(2), one(3));
        println!("warm {name} at 4 KiB blocks: {first} B allocated");
        assert_eq!(second, first, "an identical warm request must allocate exactly as much");
        assert!(first <= budget, "{first} B for one warm {name} (budget {budget} B)");
    }
    assert_eq!(svc.report().stats.corrupt, 0);
}

/// A warm `Auto` tenant costs what a tenant registered under the tuner's
/// winner costs: the request finds its memo under a key the communicator
/// keeps, so it neither re-hashes its topology nor formats the cost model
/// (the `String` that made every warm `Auto` batch one call dearer).
#[test]
fn a_warm_auto_request_computes_no_fingerprint() {
    let layout = ClusterLayout::new(8, 2, 4);
    let graphs: Vec<_> = (0..TENANTS).map(|t| erdos_renyi(N, 0.15, 100 + t as u64)).collect();
    let warm_tick = |algo_of: &dyn Fn(&nhood_topology::Topology) -> Algorithm| {
        let mut svc = Service::new(ServiceConfig::default());
        for g in &graphs {
            svc.add_tenant(g.clone(), layout.clone(), algo_of(g)).unwrap();
        }
        counted_tick(&mut svc, inputs(0));
        counted_tick(&mut svc, inputs(1));
        counted_tick(&mut svc, inputs(2))
    };
    let winner = |g: &nhood_topology::Topology| {
        let comm = nhood_core::DistGraphComm::create_adjacent(g.clone(), layout.clone()).unwrap();
        comm.resolve_algorithm(Algorithm::Auto).unwrap()
    };
    let (auto, explicit) = (warm_tick(&|_| Algorithm::Auto), warm_tick(&winner));
    println!("warm tick: {auto} allocator calls under Auto, {explicit} under its winners");
    assert_eq!(auto, explicit, "a warm Auto request pays for finding its own memo");
}

/// Allocator calls `f` makes on this thread.
fn calls_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

#[test]
fn the_cold_plan_path_allocates_by_the_count() {
    use nhood_core::exec::sim_exec::to_schedule_v;
    use nhood_core::SimCost;
    use nhood_simnet::Engine;

    // `plan-churn`'s shape: n = 96 on 6 x 2 x 8.
    let layout = ClusterLayout::new(6, 2, 8);
    let cost = SimCost::niagara();
    let pat = |delta: f64| {
        let g = erdos_renyi(96, delta, 7);
        let plan = nhood_core::pat::plan_pat(&g, 2);
        (g, plan)
    };

    // (a) validating costs a fixed handful of allocations — the index's
    // two vectors, the flags, two stamp arrays — however many messages
    // the plan holds. (A hash table per rule
    // made this hundreds, growing with the message count.)
    let (sparse_graph, sparse) = pat(0.15);
    let (dense_graph, dense) = pat(0.5);
    assert!(dense.message_count() > sparse.message_count());
    let (sparse_calls, ok) = calls_of(|| sparse.validate(&sparse_graph));
    ok.expect("a built plan validates");
    let (dense_calls, ok) = calls_of(|| dense.validate(&dense_graph));
    ok.expect("a built plan validates");
    println!("validate: {sparse_calls} allocator calls at δ = 0.15, {dense_calls} at δ = 0.5");
    assert!(sparse_calls <= 8, "{sparse_calls} allocator calls to validate (budget 8)");
    assert_eq!(dense_calls, sparse_calls, "validation allocates per plan, not per message");

    // (b) simulating the lowered plan cold — prepare, then run: the
    // prepare's send-key check and receive index replace the hash tables,
    // and the replay prices messages in place.
    let schedule = to_schedule_v(&sparse, &[64; 96], &cost);
    let (run_calls, report) = calls_of(|| Engine::new(&layout, cost.net).run(&schedule));
    report.expect("a valid schedule simulates");
    println!("Engine::run: {run_calls} allocator calls");
    assert!(run_calls <= ENGINE_RUN_CALLS, "{run_calls} allocator calls (was {ENGINE_RUN_CALLS})");

    // (c) a builder allocates per plan, not per message: the writer's
    // staging list and pool are sized from the edge count, `finish` is
    // two vectors, and what is left is the builder's own scratch, whose
    // growth is logarithmic. (One `Vec` per phase, per message and per
    // block list made these 3,031 / 3,308 / 3,642 at δ = 0.15; the relay
    // builders' `BTreeMap<_, BTreeSet<Rank>>` grouping, a node per group
    // and per block, is what their row table replaced.)
    for (graph, delta) in [(&sparse_graph, 0.15), (&dense_graph, 0.5)] {
        let (naive, _) = calls_of(|| nhood_core::naive::plan_naive(graph));
        let (cn, _) = calls_of(|| nhood_core::common_neighbor::plan_common_neighbor(graph, 4));
        let (pat, _) = calls_of(|| nhood_core::pat::plan_pat(graph, 2));
        let (hl, _) = calls_of(|| nhood_core::leader::plan_hierarchical_leader(graph, &layout, 8));
        let (bruck, _) = calls_of(|| nhood_core::bruck::plan_bruck(graph, &layout));
        println!(
            "build at δ = {delta}: naive {naive}, cn:4 {cn}, pat:2 {pat}, leader:8 {hl}, \
             bruck {bruck} allocator calls"
        );
        let builds = [("naive", naive), ("cn:4", cn), ("pat:2", pat), ("leader:8", hl)];
        for (name, calls) in builds.into_iter().chain([("bruck", bruck)]) {
            assert!(calls <= 64, "{name} at δ = {delta}: {calls} allocator calls (budget 64)");
        }
    }
    // ... the Distance Halving build: the negotiation keeps one flat table
    // per round and the pattern is columns written in place, not a
    // vector per rank
    let (build_calls, pattern) =
        calls_of(|| nhood_core::builder::build_pattern(&sparse_graph, &layout));
    let pattern = pattern.expect("builds");
    println!("build_pattern: {build_calls} allocator calls");
    assert!(build_calls <= DH_BUILD_CALLS, "{build_calls} calls (budget {DH_BUILD_CALLS})");
    // ... a clone is one copy per column
    let (clone_calls, copy) = calls_of(|| pattern.clone());
    println!("DhPattern::clone: {clone_calls} allocator calls");
    assert!(
        clone_calls <= PATTERN_COLUMNS,
        "{clone_calls} calls (one per column: {PATTERN_COLUMNS})"
    );
    assert_eq!(copy, pattern);
    // ... and lowering a Distance Halving pattern reads its rows through
    // one scratch table, not a vector per rank or per message
    let (lower_calls, _) = calls_of(|| nhood_core::lower::lower(&pattern, &sparse_graph));
    println!("lower: {lower_calls} allocator calls");
    assert!(lower_calls <= LOWER_CALLS, "{lower_calls} allocator calls (budget {LOWER_CALLS})");

    // (d) a topology is one staged edge list and two CSRs, written by
    // counting sort
    let (topology_calls, rebuilt) =
        calls_of(|| nhood_topology::Topology::from_edges(96, sparse_graph.edges()));
    println!("Topology::from_edges: {topology_calls} allocator calls");
    assert!(
        topology_calls <= FROM_EDGES_CALLS,
        "{topology_calls} calls (budget {FROM_EDGES_CALLS})"
    );
    assert_eq!(rebuilt, sparse_graph);

    // (e) registering the Auto tenant — eight arms built, lowered,
    // simulated and seven dropped, the winner alone checked.
    let mut svc = Service::new(ServiceConfig::default());
    let (register_calls, tenant) =
        calls_of(|| svc.add_tenant(sparse_graph.clone(), layout.clone(), Algorithm::Auto));
    tenant.expect("registers");
    println!("add_tenant(Auto): {register_calls} allocator calls");
    assert!(
        register_calls <= AUTO_REGISTER_CALLS,
        "{register_calls} allocator calls to register an Auto tenant (budget {AUTO_REGISTER_CALLS})"
    );
}

/// `sim-sweep`'s shape: a warm simulated gather writes only its prices —
/// two columns, the structure is the tenant arena's — and replays; the
/// cold lowering writes one flat schedule, a table per column, not a
/// vector per (rank, phase).
#[test]
fn a_sim_gather_request_allocates_by_the_column() {
    use nhood_core::exec::sim_exec::to_schedule_v;
    use nhood_core::SimCost;
    use nhood_service::Backend;

    let layout = ClusterLayout::new(8, 2, 8);
    let algos = [
        Algorithm::DistanceHalving,
        Algorithm::CommonNeighbor { k: 8 },
        Algorithm::Naive,
        Algorithm::Pat { radix: 2 },
    ];
    // (a) one warm request per algorithm, admission to completion
    let mut svc = Service::new(ServiceConfig { backend: Backend::Sim, ..Default::default() });
    let graph = erdos_renyi(128, 0.2, 400);
    for algo in algos {
        svc.add_tenant(graph.clone(), layout.clone(), algo).expect("registers");
    }
    let mut request = |tenant: usize| {
        let payloads: Vec<Vec<u8>> = vec![vec![tenant as u8; 1 << 10]; 128];
        svc.reset_metrics();
        let (calls, done) = calls_of(|| {
            svc.submit(tenant, payloads).expect("admitted");
            assert_eq!(svc.tick(), 1);
            svc.take_completions()
        });
        assert!(done[0].outcome.is_completed() && done[0].sim_makespan.is_some());
        calls
    };
    for (tenant, algo) in algos.iter().enumerate() {
        request(tenant);
        let (first, second) = (request(tenant), request(tenant));
        println!("warm Sim gather under {algo}: {first} allocator calls");
        assert_eq!(second, first, "an identical warm request must allocate exactly as often");
        assert!(first <= SIM_GATHER_CALLS, "{algo}: {first} calls (budget {SIM_GATHER_CALLS})");
    }

    // (b) the lowering alone: per schedule, whatever the phase and
    // message counts
    let lowering = |delta: f64| {
        let g = erdos_renyi(128, delta, 400);
        let plan = nhood_core::pat::plan_pat(&g, 2);
        let (calls, schedule) =
            calls_of(|| to_schedule_v(&plan, &[1 << 10; 128], &SimCost::niagara()));
        (calls, schedule.message_count())
    };
    let ((sparse, few), (dense, many)) = (lowering(0.15), lowering(0.5));
    println!("to_schedule_v: {sparse} allocator calls at δ = 0.15, {dense} at δ = 0.5");
    assert!(many > few);
    assert!(sparse <= 3, "{sparse} allocator calls to lower a plan (budget 3)");
    assert_eq!(dense, sparse, "lowering allocates per schedule, not per phase");
}

#[test]
fn a_combining_request_negotiates_nothing_the_tenant_already_holds() {
    // `combine-mixed`'s Distance Halving tenant at n = 96: registration
    // armed the churn slot, and `churn` repairs it in place.
    let g = erdos_renyi(96, 0.15, 7);
    let mut svc = Service::new(ServiceConfig::default());
    let t = svc.add_tenant(g.clone(), ClusterLayout::new(6, 2, 8), Algorithm::DistanceHalving);
    let t = t.expect("registers");
    let first_request = |svc: &mut Service, request: SubmitRequest| {
        let (calls, done) = calls_of(|| {
            svc.submit_request(t, request).expect("admitted");
            assert_eq!(svc.tick(), 1);
            svc.take_completions()
        });
        assert!(done[0].outcome.is_completed());
        calls
    };

    // (a) the first alltoallv compiles the live plan's item routing: it
    // neither negotiates a pattern of its own nor lowers or validates one
    // (registration's cache insert asked the plan's cell)
    let a2a = (0..96).map(|p| vec![p as u8; g.outdegree(p) * 64]).collect();
    let cold = first_request(&mut svc, SubmitRequest::alltoallv(a2a));
    println!("first alltoallv on a registered DH tenant: {cold} allocator calls");
    assert!(cold <= FIRST_ALLTOALLV_CALLS, "{cold} calls (budget {FIRST_ALLTOALLV_CALLS})");

    // (a') the first reduce_scatter after it compiles its program off the
    // plan registration checked and the alltoallv routed: it neither
    // validates nor routes the plan again
    let rs = (0..96).map(|p| vec![p as u8; g.outdegree(p) * 64]).collect();
    let second = first_request(&mut svc, SubmitRequest::reduce_scatter(rs, Reduction::SUM_U8));
    println!("first reduce_scatter after an alltoallv: {second} allocator calls");
    assert!(second <= SECOND_SHAPE_CALLS, "{second} calls (budget {SECOND_SHAPE_CALLS})");

    // (b) after a single-edge churn the first allreduce compiles the
    // *repaired* plan's routing — what gathers are served — instead of
    // renegotiating from scratch
    let absent = (0..96).flat_map(|u| (0..96).map(move |v| (u, v)));
    let new = absent.filter(|&(u, v)| u != v && !g.has_edge(u, v)).nth(40).expect("not complete");
    let (churn_calls, repaired) = calls_of(|| svc.churn(t, &[new], &[]));
    assert!(!repaired.expect("repairs").full_rebuild);
    println!("one single-edge churn: {churn_calls} allocator calls");
    assert!(
        churn_calls <= SINGLE_EDGE_CHURN_CALLS,
        "{churn_calls} calls (budget {SINGLE_EDGE_CHURN_CALLS})"
    );
    let own = (0..96).map(|r| vec![r as u8; 64]).collect();
    let churned = first_request(&mut svc, SubmitRequest::allreduce(own, Reduction::SUM_U8));
    println!("first allreduce after a single-edge churn: {churned} allocator calls");
    assert!(
        churned <= CHURNED_ALLREDUCE_CALLS,
        "{churned} calls (budget {CHURNED_ALLREDUCE_CALLS})"
    );
    assert_eq!(svc.report().stats.corrupt, 0);
}

/// What a warm 16-request gather tick costs today: 152 (as at the parent
/// of the one-engine merge) while every tick grouped its requests through
/// a fresh hash map and a vector per batch and handed its completion
/// vector away, so the next tick's regrew from empty. The tick now sorts
/// a buffer the service keeps.
const WARM_GATHER_TICK_CALLS: u64 = 128;
/// What a warm 16-request combining tick costs today — 1,715 at the
/// parent of the one-engine merge, when every request allocated its
/// receive buffers afresh instead of drawing the tick's spare set; 877
/// before the tick grouped in place. What is left is mostly the reduce
/// shapes' request-scoped staging arena.
const WARM_COMBINING_TICK_CALLS: u64 = 866;
/// Bytes one warm Distance Halving reduce_scatter allocates at n = 64 and
/// 4 KiB blocks (`a_warm_reduce_request_stages_only_the_partials_that_fold`):
/// its 361 slots of 4 KiB are 1,478,656 of them. 3,009,632 when every
/// partial reaching a forwarding agent took a slot (670 of them) — a jump
/// back there means lone contributions are staged again.
const WARM_REDUCE_SCATTER_BYTES: u64 = 1_743_968;
/// The same for one warm allreduce, which stages the same partials.
const WARM_ALLREDUCE_BYTES: u64 = 1_743_968;

/// 5 % above the 1,032 calls the first alltoallv of a registered n = 96
/// Distance Halving tenant costs today: the plan routed once and compiled,
/// not checked — registration's cache insert asked its cell (1,036 while
/// the first compile validated it again, 4 calls; 12,316 while the
/// combining family negotiated a second pattern of its own; 1,144 before
/// the plan went flat).
const FIRST_ALLTOALLV_CALLS: u64 = 1_084;
/// 5 % above the 593 calls of the first reduce_scatter on that tenant
/// after its alltoallv today: the compile of the reduce program alone, off
/// the plan registration checked and the alltoallv routed (992 while every shape's
/// compile validated the plan and derived its item routing again).
const SECOND_SHAPE_CALLS: u64 = 623;
/// 5 % above the 995 calls of the first allreduce after one single-edge
/// `churn` today: the repaired plan checked, routed and compiled once
/// (12,192 while every churn made the combining memo renegotiate from
/// scratch; 1,061 before the plan went flat).
const CHURNED_ALLREDUCE_CALLS: u64 = 1_045;

/// One single-edge `churn` of the registered n = 96 Distance Halving
/// tenant: 27 calls counted today, the repaired plan's cell one of them
/// (the budget is 5 % above the 26 before plans had cells): 3,754 while
/// `repair_for_churn` deep-cloned the plan, 1,142 while the new topology
/// was rebuilt through a vector per rank both ways (624) and the pattern
/// clone copied five vectors per rank (479). The topology is now `Topology::churned` (the
/// touched rows merged, the rest copied whole) and the clone one copy per
/// column.
const SINGLE_EDGE_CHURN_CALLS: u64 = 27;

/// `Engine::run` on the lowered n = 96, δ = 0.15 PAT plan — the cold
/// path: prepare, then run on the schedule's own price columns — as
/// counted today: 33 while the replay built its own send / recv prefix
/// tables and kept three cursors per rank. 28 since it reads the
/// schedule's offsets; the split kept it there (the structure's columns
/// and the three price columns replace the per-send and per-recv cost
/// tables, the per-send flags and the heap's growth). 26 while the
/// prepare matched a recv table to the sends in one serial pass; 24 since
/// a schedule is sends only: two price columns, and one receive index in
/// place of the matched ids and the claimed flags.
const ENGINE_RUN_CALLS: u64 = 24;
/// 5 % above the 743 calls registering the Auto tenant costs today
/// (770 while the tuner validated all eight arms, not its winner alone;
/// 67,985 before the cold path ran on dense ids, 44,191 while a plan was
/// a vector of vectors of messages of block vectors, 14,007 while a
/// `Schedule` was one — two vectors per (rank, phase), ≈ 5.8 k over the
/// tuner's ten lowerings — 8,167 while the negotiation kept a vector per
/// rank, 6,625 while the Distance Halving pattern did, and 2,978 while
/// the tuner built PAT at radix 2 and 4 and the leader hierarchy and
/// Bruck grouped through B-trees: 1,304 and 565 calls a build, 21 and 25
/// now, most of them their row table's growth; 1,027 while the prepare
/// was sharded; 1,011 while the Distance Halving build froze every round
/// into a two-sided table and replayed its signals through a queue; 794
/// while a schedule held a recv table, matched at every prepare).
/// What is left: the Distance Halving build (≈ 390, scoring and deferred
/// acceptance) and the eight replays (24 each).
const AUTO_REGISTER_CALLS: u64 = 780;
/// 5 % above one warm simulated gather at n = 128, submit to
/// completion: the size table, the 2 price columns, the replay's vectors
/// (its sort scratch grows with the widest phase: 19 calls counted under
/// Distance Halving, CN and PAT, 21 under naive), the queue and the
/// completion. 20–22 while a request wrote a third column, bytes per
/// recv; 24–26 while every tick grouped through a hash map and a
/// vector per batch; 38–39 while every request lowered a whole schedule
/// and re-validated and re-matched it; ≈ 400–1,600 while every phase
/// owned two vectors.
const SIM_GATHER_CALLS: u64 = 22;
/// 5 % above the 390 calls of one Distance Halving `build_pattern` at
/// `plan-churn`'s shape (n = 96, δ = 0.15, 6 × 2 × 8) today: 5,599 while
/// every proposer's score row, every acceptor's candidate list and a hash
/// table per round were vectors of their own, 4,057 while the pattern
/// assembly staged a step list, a buffer and a responsibility map per
/// rank (≈ 3,460 of them), 600 while every round was frozen into a
/// two-sided table (offsets, peers, mirrors, a sort scratch) and its
/// signals replayed through a queue with a flag per pair. The assembly
/// writes the pattern's columns in place (a handful of calls); what is
/// left is the scoring's rows and deferred acceptance's three tables (a
/// row per proposer, a held suitor per acceptor, the selections), per
/// round.
const DH_BUILD_CALLS: u64 = 410;
/// The columns of a `DhPattern` — step offsets and table, held offsets
/// and pool, responsibility offsets and table: its clone's budget.
const PATTERN_COLUMNS: u64 = 6;
/// 5 % above the 11 calls of lowering that pattern today (201 while
/// every rank staged its arrival copies and its final deliveries in
/// vectors of their own, 3,964 before the plan went flat).
const LOWER_CALLS: u64 = 12;
/// `Topology::from_edges` of the n = 96, δ = 0.15 graph's own edges: the
/// staged list and the two CSRs' offsets and entries, 5 counted (622
/// while both directions went through a vector per rank).
const FROM_EDGES_CALLS: u64 = 8;
