//! # nhood-simnet
//!
//! A discrete-event network simulator for collective-communication
//! schedules, standing in for the paper's Niagara testbed (see
//! `DESIGN.md` §2).
//!
//! A collective algorithm is lowered to a [`Schedule`] — per rank, an
//! ordered list of *phases*, each a post-sends/post-recvs/wait-all block
//! exactly like the paper's Algorithm 4. A message is written once, as
//! its send, naming the receiver's phase that waits for it. The [`Engine`] then charges the
//! schedule against a [`nhood_cluster::ClusterLayout`] and hierarchical
//! Hockney parameters under the paper's §V single-port assumption, plus
//! optional per-node NIC serialization (eq. (5)'s `S·L` factor).
//!
//! ```
//! use nhood_cluster::{ClusterLayout, HockneyParams};
//! use nhood_simnet::{Engine, Msg, Schedule, SimConfig};
//!
//! let layout = ClusterLayout::new(2, 1, 1);
//! let mut s = Schedule::new(2);
//! s.push(0, vec![Msg { src: 0, dst: 1, bytes: 1024, tag: 0, recv_phase: 0 }]);
//! s.push(1, vec![]); // rank 1's phase 0: it waits for that message
//! let report = Engine::new(&layout, SimConfig::niagara()).run(&s).unwrap();
//! assert!(report.makespan > 0.0);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod perturb;
pub mod schedule;
pub mod sharded;

pub use engine::{
    write_trace_csv, Engine, GlobalLinkConfig, LevelStats, MsgTrace, NicMode, SimConfig, SimError,
    SimReport,
};
pub use perturb::Perturbation;
pub use schedule::{Msg, Phase, PhaseWriter, PriceColumns, Schedule, SendIndex};
pub use sharded::Prepared;
