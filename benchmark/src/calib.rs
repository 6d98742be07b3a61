//! Host calibration: two reference kernels timed around every measured
//! unit, and the conversion of a measured time to the time the same
//! work takes when the host runs the kernels at their nominal speed.
//!
//! Why: the host this runs on is a shared 2-vCPU VM whose speed moves
//! by 10-40 % for seconds to minutes at a time (a busy neighbour on the
//! physical core slows high-IPC code, contention for the shared cache
//! slows memory traffic). Identical code then reads 10-30 % apart from
//! run to run whatever percentile is taken. The kernels below are part
//! of the benchmark, not of the program under test, so they cost the
//! same on every commit; what the host does to them it also does to
//! the block timed between two samples of them.
//!
//! * **compute**: eight independent multiply-add chains fed from a
//!   16 KiB table — high-IPC, cache-resident code, slowed by whatever
//!   shares the core.
//! * **stream**: a 1 MiB `memcpy` between regions of a 32 MiB arena,
//!   rotating so that no line is still in the private cache when its
//!   turn comes again — slowed by whatever shares the cache and the
//!   memory bus.
//!
//! A block that took `t` and has `B` bytes to move is split into a
//! memory part — the time the stream kernel needs, right now, to move
//! `B` bytes, at most `t` — and a compute part, the rest. Each part is
//! scaled by its own kernel's slow-down against the nominal constants,
//! and the sum is the block's time on the nominal host. `B` is a
//! constant of the workload (payload bytes in plus receive-buffer bytes
//! out), not a number the program under test produces.
//!
//! The correction is applied per block and its errors go both ways, so
//! a low percentile of corrected times sits below the fastest block
//! of its run (by 13-28 % here). The metrics compare commits on one
//! scale; they are not what a quiet host would show. `host.raw_*` are.

use std::hint::black_box;
use std::time::Instant;

/// Nominal time of one compute sample, ns (this host, undisturbed).
pub const COMPUTE_NOMINAL_NS: f64 = 52_000.0;
/// Nominal stream cost, ns per byte copied (this host, undisturbed).
pub const STREAM_NOMINAL_NS_PER_BYTE: f64 = 0.165;

const CHAINS: usize = 8;
const COMPUTE_ITERS: usize = 15_000;
const TABLE_WORDS: usize = 2048;
const CHUNK: usize = 1 << 20;
const CHUNKS: usize = 16;

/// Bytes of the stream arena; `peak_rss_mb` is reported without them.
pub const ARENA_BYTES: usize = 2 * CHUNKS * CHUNK;

/// One timing of both kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RefSample {
    pub compute_ns: f64,
    pub stream_ns_per_byte: f64,
}

impl RefSample {
    /// The mean of the samples taken before and after a timed unit.
    pub fn around(before: RefSample, after: RefSample) -> RefSample {
        RefSample {
            compute_ns: (before.compute_ns + after.compute_ns) / 2.0,
            stream_ns_per_byte: (before.stream_ns_per_byte + after.stream_ns_per_byte) / 2.0,
        }
    }
}

/// The kernels' state.
pub struct Refs {
    table: Vec<u64>,
    chains: [u64; CHAINS],
    arena: Vec<u8>,
    turn: usize,
}

impl Refs {
    /// Allocates and touches the arena (so no sample takes a page fault).
    pub fn new() -> Self {
        let arena = (0..ARENA_BYTES).map(|i| i as u8).collect();
        Self { table: vec![7; TABLE_WORDS], chains: [1, 2, 3, 4, 5, 6, 7, 8], arena, turn: 0 }
    }

    fn compute(&mut self, iters: usize) {
        let table = black_box(&self.table[..]);
        for i in 0..iters {
            for (k, c) in self.chains.iter_mut().enumerate() {
                *c = c.wrapping_mul(6364136223846793005).wrapping_add(table[(i + k) % TABLE_WORDS]);
            }
        }
        black_box(&mut self.chains);
    }

    /// Times both kernels once (about 0.25 ms).
    pub fn sample(&mut self) -> RefSample {
        // One untimed pass over the table: the unit timed before this
        // sample left the cache in a state that is the unit's, not the host's.
        self.compute(TABLE_WORDS);
        let t = Instant::now();
        self.compute(COMPUTE_ITERS);
        let compute_ns = t.elapsed().as_nanos() as f64;

        let (src, dst) = self.arena.split_at_mut(CHUNKS * CHUNK);
        let at = (self.turn % CHUNKS) * CHUNK;
        self.turn += 1;
        let t = Instant::now();
        dst[at..at + CHUNK].copy_from_slice(black_box(&src[at..at + CHUNK]));
        black_box(&mut dst[at..at + CHUNK]);
        let stream_ns_per_byte = t.elapsed().as_nanos() as f64 / CHUNK as f64;
        RefSample { compute_ns, stream_ns_per_byte }
    }
}

/// The time, ns, a unit of work that took `ns` and has `moved_bytes` to
/// move would take on the nominal host, given what the kernels read
/// around it.
pub fn nominal_ns(ns: u64, moved_bytes: u64, host: RefSample) -> f64 {
    let ns = ns as f64;
    let memory = (moved_bytes as f64 * host.stream_ns_per_byte).min(ns);
    let compute = ns - memory;
    compute * (COMPUTE_NOMINAL_NS / host.compute_ns)
        + memory * (STREAM_NOMINAL_NS_PER_BYTE / host.stream_ns_per_byte)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOMINAL: RefSample = RefSample {
        compute_ns: COMPUTE_NOMINAL_NS,
        stream_ns_per_byte: STREAM_NOMINAL_NS_PER_BYTE,
    };

    #[test]
    fn a_nominal_host_leaves_times_alone() {
        for (ns, bytes) in [(1_000_000, 0), (1_000_000, 1 << 20), (1_000, 1 << 30)] {
            assert!((nominal_ns(ns, bytes, NOMINAL) - ns as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn each_part_is_scaled_by_its_own_kernel() {
        // 1 ms, of which moving 1 MiB takes 1 MiB * 0.165 ns = 0.173 ms nominally.
        let (ns, bytes) = (1_000_000u64, 1u64 << 20);
        let memory = bytes as f64 * STREAM_NOMINAL_NS_PER_BYTE;
        // Compute twice as slow, stream as nominal: only the compute part doubles.
        let slow_core = RefSample { compute_ns: 2.0 * COMPUTE_NOMINAL_NS, ..NOMINAL };
        let measured = (2.0 * (ns as f64 - memory) + memory) as u64;
        assert!((nominal_ns(measured, bytes, slow_core) / ns as f64 - 1.0).abs() < 1e-6);
        // Stream 1.5x slower, compute as nominal: only the memory part grows.
        let slow_bus =
            RefSample { stream_ns_per_byte: 1.5 * STREAM_NOMINAL_NS_PER_BYTE, ..NOMINAL };
        let measured = ((ns as f64 - memory) + 1.5 * memory) as u64;
        assert!((nominal_ns(measured, bytes, slow_bus) / ns as f64 - 1.0).abs() < 1e-6);
        // More bytes than the time can hold: all of it is memory.
        let all_memory = nominal_ns(1_000, 1 << 30, slow_bus);
        assert!((all_memory - 1_000.0 / 1.5).abs() < 1e-6);
    }

    #[test]
    fn samples_are_positive_and_rotate_through_the_arena() {
        let mut refs = Refs::new();
        for turn in 1..=2 * CHUNKS {
            let s = refs.sample();
            assert!(s.compute_ns > 0.0 && s.stream_ns_per_byte > 0.0);
            assert_eq!(refs.turn, turn);
        }
        let mean = RefSample::around(
            RefSample { compute_ns: 1.0, stream_ns_per_byte: 2.0 },
            RefSample { compute_ns: 3.0, stream_ns_per_byte: 4.0 },
        );
        assert_eq!(mean, RefSample { compute_ns: 2.0, stream_ns_per_byte: 3.0 });
    }
}
