//! Hierarchical Hockney (α–β) communication cost parameters.
//!
//! The paper's performance model (§V) charges `α + m/β` per message. Real
//! clusters have different α/β at each locality level; the simulator uses
//! one [`Hockney`] pair per [`Locality`] level. The
//! [`HockneyParams::niagara`]
//! preset approximates the paper's testbed (EDR InfiniBand, Dragonfly+,
//! dual-socket Skylake/Cascade Lake) from published ping-pong figures —
//! absolute values are not the point, the level *ordering* and rough
//! magnitudes are (see `DESIGN.md` §2).

use crate::layout::Locality;

/// Seconds; all simulator times are `f64` seconds.
pub type Seconds = f64;

/// One α–β pair: `time(m) = alpha + m / bytes_per_sec`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hockney {
    /// Per-message latency, seconds.
    pub alpha: Seconds,
    /// Sustained bandwidth, bytes per second.
    pub bytes_per_sec: f64,
}

impl Hockney {
    /// Transfer time of an `m`-byte message.
    #[inline]
    pub fn time(&self, m: usize) -> Seconds {
        self.alpha + m as f64 / self.bytes_per_sec
    }
}

/// A full parameter set: one [`Hockney`] per locality level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HockneyParams {
    /// Intra-socket (shared memory, same L3).
    pub same_socket: Hockney,
    /// Intra-node, across the NUMA interconnect.
    pub same_node: Hockney,
    /// Inter-node within a Dragonfly+ group.
    pub same_group: Hockney,
    /// Inter-node across groups (global links).
    pub remote_group: Hockney,
}

impl HockneyParams {
    /// Parameters for a given locality level.
    #[inline]
    pub fn level(&self, l: Locality) -> Hockney {
        match l {
            Locality::SameSocket => self.same_socket,
            Locality::SameNode => self.same_node,
            Locality::SameGroup => self.same_group,
            Locality::RemoteGroup => self.remote_group,
        }
    }

    /// Transfer time of an `m`-byte message at locality `l`.
    #[inline]
    pub fn time(&self, l: Locality, m: usize) -> Seconds {
        self.level(l).time(m)
    }

    /// Niagara-like preset (see module docs). Values are derived from
    /// typical EDR InfiniBand and shared-memory ping-pong measurements:
    ///
    /// | level | α | bandwidth |
    /// |---|---|---|
    /// | same socket | 0.25 µs | 9 GB/s |
    /// | same node | 0.45 µs | 6.5 GB/s |
    /// | same group | 1.3 µs | 10.5 GB/s |
    /// | remote group | 2.1 µs | 9 GB/s |
    pub fn niagara() -> Self {
        Self {
            same_socket: Hockney { alpha: 0.25e-6, bytes_per_sec: 9.0e9 },
            same_node: Hockney { alpha: 0.45e-6, bytes_per_sec: 6.5e9 },
            same_group: Hockney { alpha: 1.3e-6, bytes_per_sec: 10.5e9 },
            remote_group: Hockney { alpha: 2.1e-6, bytes_per_sec: 9.0e9 },
        }
    }

    /// A flat (level-independent) parameter set — the §V model's
    /// simplification ("we do not distinguish the inter-node, intra-node,
    /// and intra-socket bandwidth"). Used for model-vs-simulation checks
    /// and the network-hierarchy ablation.
    pub fn flat(alpha: Seconds, bytes_per_sec: f64) -> Self {
        let h = Hockney { alpha, bytes_per_sec };
        Self { same_socket: h, same_node: h, same_group: h, remote_group: h }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_formula() {
        let h = Hockney { alpha: 1e-6, bytes_per_sec: 1e9 };
        assert!((h.time(0) - 1e-6).abs() < 1e-18);
        assert!((h.time(1000) - 2e-6).abs() < 1e-18);
        // doubling the message adds exactly m/β
        assert!((h.time(2000) - h.time(1000) - 1e-6).abs() < 1e-18);
    }

    /// α of the four levels, nearest first.
    fn alphas(p: &HockneyParams) -> [Seconds; 4] {
        [p.same_socket, p.same_node, p.same_group, p.remote_group].map(|h| h.alpha)
    }

    #[test]
    fn niagara_is_monotone_in_alpha() {
        let p = HockneyParams::niagara();
        assert!(alphas(&p).windows(2).all(|w| w[0] <= w[1]));
        assert!(p.same_socket.alpha < p.remote_group.alpha);
    }

    #[test]
    fn level_dispatch() {
        let p = HockneyParams::niagara();
        assert_eq!(p.level(Locality::SameSocket), p.same_socket);
        assert_eq!(p.level(Locality::RemoteGroup), p.remote_group);
        assert!(p.time(Locality::SameSocket, 4096) < p.time(Locality::RemoteGroup, 4096));
    }

    #[test]
    fn flat_preset_is_level_independent() {
        let p = HockneyParams::flat(2e-6, 5e9);
        for l in
            [Locality::SameSocket, Locality::SameNode, Locality::SameGroup, Locality::RemoteGroup]
        {
            assert!((p.time(l, 1 << 20) - (2e-6 + (1 << 20) as f64 / 5e9)).abs() < 1e-15);
        }
        assert!(alphas(&p).windows(2).all(|w| w[0] <= w[1]));
    }
}
