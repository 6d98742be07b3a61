//! A distributed Jacobi iteration for the 2-D Laplace equation, with the
//! halo exchange done by neighborhood allgather over a von Neumann
//! stencil — the archetypal "fixed neighborhood" HPC application the
//! paper's introduction motivates (46 % of ECP applications).
//!
//! Each rank owns a `TILE × TILE` block of a periodic grid and needs the
//! boundary rows/columns of its four neighbors every iteration. The
//! example runs the solve twice — once exchanging halos with the naïve
//! algorithm, once with Distance Halving — and asserts bit-identical
//! fields, then reports the per-iteration exchange latency on a modelled
//! cluster.
//!
//! ```text
//! cargo run --release -p nhood-integration --example jacobi_solver
//! ```

use nhood_cluster::ClusterLayout;
use nhood_core::exec::sim_exec::simulate;
use nhood_core::{Algorithm, CollectiveRequest, DistGraphComm, SimCost};
use nhood_topology::stencil::von_neumann_on_grid;

const GRID: usize = 12; // 12x12 ranks
const TILE: usize = 8; // each owns an 8x8 block
const ITERS: usize = 20;

/// Pack the four boundary strips (N, S, W, E) of a tile.
fn pack_halo(tile: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 * TILE * 8);
    let row = |r: usize| (0..TILE).map(move |c| tile[r * TILE + c]);
    let col = |c: usize| (0..TILE).map(move |r| tile[r * TILE + c]);
    for v in row(0).chain(row(TILE - 1)).chain(col(0)).chain(col(TILE - 1)) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn unpack(bytes: &[u8]) -> Vec<f64> {
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8B"))).collect()
}

/// One Jacobi sweep given the four neighbor halos (keyed by neighbor
/// rank, in `in_neighbors` order — the allgather receive-buffer layout).
fn sweep(tile: &[f64], halos: &[(usize, Vec<f64>)], me: usize) -> Vec<f64> {
    // halo layout per neighbor: [north row][south row][west col][east col]
    let (gy, gx) = (me / GRID, me % GRID);
    let north = (gy + GRID - 1) % GRID * GRID + gx;
    let south = (gy + 1) % GRID * GRID + gx;
    let west = gy * GRID + (gx + GRID - 1) % GRID;
    let east = gy * GRID + (gx + 1) % GRID;
    let strip = |owner: usize, idx: usize| -> &[f64] {
        let h = &halos.iter().find(|(r, _)| *r == owner).expect("neighbor halo").1;
        &h[idx * TILE..(idx + 1) * TILE]
    };
    // the row my north neighbor shares with me is *its south* row, etc.
    let up = strip(north, 1);
    let down = strip(south, 0);
    let left = strip(west, 3);
    let right = strip(east, 2);

    let at = |r: isize, c: isize| -> f64 {
        if r < 0 {
            up[c as usize]
        } else if r >= TILE as isize {
            down[c as usize]
        } else if c < 0 {
            left[r as usize]
        } else if c >= TILE as isize {
            right[r as usize]
        } else {
            tile[r as usize * TILE + c as usize]
        }
    };
    let mut next = vec![0.0; TILE * TILE];
    for r in 0..TILE as isize {
        for c in 0..TILE as isize {
            next[(r * TILE as isize + c) as usize] =
                0.25 * (at(r - 1, c) + at(r + 1, c) + at(r, c - 1) + at(r, c + 1));
        }
    }
    next
}

fn solve(comm: &DistGraphComm, algo: Algorithm) -> Vec<Vec<f64>> {
    let n = GRID * GRID;
    let mut tiles: Vec<Vec<f64>> = (0..n)
        .map(|r| (0..TILE * TILE).map(|i| ((r * 7919 + i * 104729) % 1000) as f64).collect())
        .collect();
    for _ in 0..ITERS {
        let payloads: Vec<Vec<u8>> = tiles.iter().map(|t| pack_halo(t)).collect();
        let req = CollectiveRequest::allgather(&payloads).algorithm(algo);
        let rbufs = comm.collective(&req).expect("halo exchange").rbufs;
        let halo_len = 4 * TILE * 8;
        tiles = (0..n)
            .map(|me| {
                let ins = comm.graph().in_neighbors(me);
                let halos: Vec<(usize, Vec<f64>)> = ins
                    .iter()
                    .enumerate()
                    .map(|(i, &src)| (src, unpack(&rbufs[me][i * halo_len..(i + 1) * halo_len])))
                    .collect();
                sweep(&tiles[me], &halos, me)
            })
            .collect();
    }
    tiles
}

fn main() {
    let n = GRID * GRID;
    let graph = von_neumann_on_grid(&[GRID, GRID], 1);
    let layout = ClusterLayout::new(6, 2, 12);
    let comm = DistGraphComm::create_adjacent(graph, layout).expect("fits");
    println!("Jacobi on a {GRID}x{GRID} rank grid, {TILE}x{TILE} tile each, {ITERS} iterations");

    let a = solve(&comm, Algorithm::Naive);
    let b = solve(&comm, Algorithm::DistanceHalving);
    assert_eq!(a, b, "halo exchange algorithm must not change the physics");
    let mean: f64 = a.iter().flat_map(|t| t.iter()).sum::<f64>() / (n * TILE * TILE) as f64;
    println!("fields identical under both algorithms; final mean = {mean:.3}");

    let cost = SimCost::niagara();
    let m = 4 * TILE * 8;
    let latency = |algo| {
        let plan = comm.plan_shared(algo).expect("plan");
        simulate(&plan, comm.layout(), m, &cost).expect("sim").makespan
    };
    let (tn, td) = (latency(Algorithm::Naive), latency(Algorithm::DistanceHalving));
    println!(
        "per-iteration halo exchange ({m} B/rank): naive {:.1} us, distance-halving {:.1} us ({:.2}x)",
        tn * 1e6,
        td * 1e6,
        tn / td
    );
}
