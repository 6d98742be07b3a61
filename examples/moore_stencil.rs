//! A Moore-neighborhood stencil computation — the structured workload of
//! the paper's Fig. 6, run as an actual iterative halo exchange.
//!
//! Each rank owns one cell of a 2-D periodic grid holding a vector of
//! values; every iteration it averages its own state with all
//! `(2r+1)² − 1` Moore neighbors' states, exchanged with a neighborhood
//! allgather. The example verifies Distance Halving against the naïve
//! exchange every iteration, then reports simulated cluster latencies.
//!
//! ```text
//! cargo run --release -p nhood-integration --example moore_stencil
//! ```

use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::simulate;
use nhood_core::{Algorithm, CollectiveRequest, DistGraphComm, SimCost};
use nhood_topology::moore::{moore_on_grid, MooreSpec};

const GRID: [usize; 2] = [16, 16];
const RADIUS: usize = 2;
const VALUES_PER_RANK: usize = 32;
const ITERATIONS: usize = 5;

fn pack(state: &[f64]) -> Vec<u8> {
    state.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn unpack(bytes: &[u8]) -> Vec<f64> {
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes"))).collect()
}

fn main() {
    let n: usize = GRID.iter().product();
    let spec = MooreSpec { r: RADIUS, d: GRID.len() };
    let graph = moore_on_grid(&GRID, RADIUS);
    println!(
        "{}x{} periodic grid, Moore r={RADIUS}: {} neighbors per rank",
        GRID[0],
        GRID[1],
        spec.neighbor_count()
    );
    let layout = ClusterLayout::new(8, 2, 16);
    let comm = DistGraphComm::create_adjacent(graph.clone(), layout).expect("fits");

    // Initial state: rank r's vector is seeded from its rank id.
    let mut state: Vec<Vec<f64>> =
        (0..n).map(|r| (0..VALUES_PER_RANK).map(|i| (r * 31 + i) as f64).collect()).collect();

    for it in 0..ITERATIONS {
        let payloads: Vec<Vec<u8>> = state.iter().map(|s| pack(s)).collect();
        let dh = comm
            .collective(
                &CollectiveRequest::allgather(&payloads).algorithm(Algorithm::DistanceHalving),
            )
            .expect("allgather")
            .rbufs;
        let naive = comm
            .collective(&CollectiveRequest::allgather(&payloads).algorithm(Algorithm::Naive))
            .expect("allgather")
            .rbufs;
        assert_eq!(dh, naive, "iteration {it}: algorithms disagree");

        // Relaxation: new state = mean of self + neighbors.
        let deg = spec.neighbor_count() as f64;
        for (r, rbuf) in dh.iter().enumerate() {
            let mut acc = state[r].clone();
            for chunk in rbuf.chunks_exact(VALUES_PER_RANK * 8) {
                for (a, v) in acc.iter_mut().zip(unpack(chunk)) {
                    *a += v;
                }
            }
            for a in &mut acc {
                *a /= deg + 1.0;
            }
            state[r] = acc;
        }
        let mean: f64 =
            state.iter().flat_map(|s| s.iter()).sum::<f64>() / (n * VALUES_PER_RANK) as f64;
        println!("iteration {it}: grid mean {mean:.3}");
    }

    // Periodic averaging conserves the mean; spread shrinks every step.
    let cost = SimCost::niagara();
    let m = VALUES_PER_RANK * 8;
    let latency = |algo| {
        let plan = comm.plan_shared(algo).expect("plan");
        simulate(&plan, comm.layout(), m, &cost).expect("sim").makespan
    };
    let (tn, td) = (latency(Algorithm::Naive), latency(Algorithm::DistanceHalving));
    println!(
        "\nper-exchange latency at {m} B payloads: naive {:.1} us, distance-halving {:.1} us ({:.2}x)",
        tn * 1e6,
        td * 1e6,
        tn / td
    );
}
