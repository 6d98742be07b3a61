//! Latency perturbations: deterministic straggler and jitter modeling.
//!
//! A [`Perturbation`] is the simulator-side lowering of a fault plan
//! (see `nhood_core::fault::FaultPlan::to_perturbation`): per-rank
//! stalls paid at every phase entry (stragglers) and seeded per-message
//! jitter (the timing shadow of delayed messages). Decisions use the
//! same stateless hash as the fault layer, so the simulated straggler
//! pattern matches what the threaded executor injects for the same
//! seed.

use crate::engine::SimError;
use nhood_cluster::{Rank, Seconds};
use nhood_topology::rng::{hash_mix, unit_f64};

/// Deterministic latency noise applied by
/// [`Engine::run_perturbed`](crate::Engine::run_perturbed).
#[derive(Clone, Debug, PartialEq)]
pub struct Perturbation {
    /// Seed for the per-message jitter stream.
    pub seed: u64,
    /// Extra seconds of local work rank `r` pays at every phase entry
    /// (empty or short vectors treat missing ranks as healthy).
    pub rank_stall: Vec<Seconds>,
    /// Probability a message suffers jitter.
    pub jitter_p: f64,
    /// Upper bound of the per-message jitter, seconds.
    pub max_jitter: Seconds,
    /// Directed edges whose link is dead: any scheduled message on one
    /// of them fails the simulated run with a typed
    /// [`SimError::LinkDown`](crate::SimError) (a lossless event model
    /// cannot deliver over a severed link, so this is an error, not a
    /// latency).
    pub dead_links: Vec<(Rank, Rank)>,
}

/// Matches `nhood_core::fault::domain::DELAY` / `JITTER` so the two
/// layers draw from the same decision stream.
const DOMAIN_DELAY: u64 = 0x02;
const DOMAIN_JITTER: u64 = 0x05;

impl Perturbation {
    /// A no-op perturbation.
    pub fn none() -> Self {
        Self {
            seed: 0,
            rank_stall: Vec::new(),
            jitter_p: 0.0,
            max_jitter: 0.0,
            dead_links: Vec::new(),
        }
    }

    /// Rejects values that would put a NaN or a negative duration into
    /// the engine's event times (the fields are public, so any caller
    /// can construct them) with [`SimError::InvalidPerturbation`] —
    /// the first check of every perturbed run.
    pub fn check(&self) -> Result<(), SimError> {
        let duration = |s: Seconds| s.is_finite() && s >= 0.0;
        let bad = if let Some(r) = self.rank_stall.iter().position(|&s| !duration(s)) {
            format!("rank_stall[{r}] = {}", self.rank_stall[r])
        } else if !(0.0..=1.0).contains(&self.jitter_p) {
            format!("jitter_p = {}", self.jitter_p)
        } else if !duration(self.max_jitter) {
            format!("max_jitter = {}", self.max_jitter)
        } else {
            return Ok(());
        };
        Err(SimError::InvalidPerturbation(bad))
    }

    /// True if the directed edge `src -> dst` is severed.
    #[inline]
    pub fn link_is_down(&self, src: Rank, dst: Rank) -> bool {
        self.dead_links.contains(&(src, dst))
    }

    /// Straggler stall of `rank` per phase, seconds.
    #[inline]
    pub fn stall(&self, rank: Rank) -> Seconds {
        self.rank_stall.get(rank).copied().unwrap_or(0.0)
    }

    /// Deterministic extra wire latency for message `(src, dst, tag)`.
    #[inline]
    pub fn jitter(&self, src: Rank, dst: Rank, tag: u64) -> Seconds {
        if self.jitter_p == 0.0 {
            return 0.0;
        }
        let roll = unit_f64(hash_mix(&[self.seed, DOMAIN_DELAY, src as u64, dst as u64, tag, 0]));
        if roll < self.jitter_p {
            let f = unit_f64(hash_mix(&[self.seed, DOMAIN_JITTER, src as u64, dst as u64, tag, 0]));
            self.max_jitter * f
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        let p = Perturbation::none();
        assert_eq!(p.stall(0), 0.0);
        assert_eq!(p.stall(100), 0.0);
        assert_eq!(p.jitter(0, 1, 7), 0.0);
    }

    #[test]
    fn dead_link_lookup_is_directed() {
        let p = Perturbation { dead_links: vec![(1, 2), (2, 1), (4, 7)], ..Perturbation::none() };
        assert!(p.link_is_down(1, 2));
        assert!(p.link_is_down(2, 1));
        assert!(p.link_is_down(4, 7));
        assert!(!p.link_is_down(7, 4), "only the listed direction is dead");
        assert!(!Perturbation::none().link_is_down(1, 2));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = Perturbation {
            seed: 42,
            rank_stall: vec![0.0, 1e-3],
            jitter_p: 0.5,
            max_jitter: 2e-6,
            dead_links: Vec::new(),
        };
        let mut hit = 0;
        for tag in 0..1000u64 {
            let j = p.jitter(0, 1, tag);
            assert_eq!(j, p.jitter(0, 1, tag));
            assert!((0.0..2e-6).contains(&j));
            if j > 0.0 {
                hit += 1;
            }
        }
        assert!((300..700).contains(&hit), "{hit}");
        assert_eq!(p.stall(1), 1e-3);
        assert_eq!(p.stall(9), 0.0, "missing ranks are healthy");
    }
}
