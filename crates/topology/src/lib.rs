//! # nhood-topology
//!
//! Virtual-topology graphs, sparse matrices and workload generators for
//! MPI-style neighborhood collectives.
//!
//! This crate provides the inputs of the Distance Halving neighborhood
//! allgather study (Sharifian, Sojoodi & Afsahi, *A Topology- and
//! Load-Aware Design for Neighborhood Allgather*, IEEE CLUSTER 2024):
//!
//! * [`Topology`] — a directed communication graph in the shape of
//!   `MPI_Dist_graph_create_adjacent` (ordered in/out neighbor lists);
//! * [`random::erdos_renyi`] — the Random Sparse Graph micro-benchmark
//!   workload (Figs. 4, 5, 8 of the paper);
//! * [`moore::moore`] — Moore neighborhoods on d-dimensional periodic
//!   grids (Fig. 6);
//! * [`torus::torus`] — fixed-degree (`2d`) d-dimensional tori, the
//!   100k-rank scale stress workload;
//! * [`matrix`] — CSR sparse matrices and seeded synthetic replicas of
//!   the SuiteSparse matrices in Table II;
//! * [`spmm_graph`] — derivation of the SpMM kernel's neighborhood
//!   topology from a matrix's block sparsity (Fig. 7).
//!
//! ## Example
//!
//! ```
//! use nhood_topology::{random, Topology};
//!
//! let g: Topology = random::erdos_renyi(64, 0.1, 42);
//! assert_eq!(g.n(), 64);
//! // Every edge appears in both directions' indices:
//! for (s, d) in g.edges() {
//!     assert!(g.in_neighbors(d).contains(&s));
//! }
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod io;
pub mod matrix;
pub mod moore;
pub mod random;
pub mod rng;
pub mod spmm_graph;
pub mod stencil;
pub mod torus;

pub use graph::{DegreeStats, Rank, Topology};
pub use matrix::CsrMatrix;
pub use moore::MooreSpec;
pub use spmm_graph::BlockPartition;
pub use torus::TorusSpec;
