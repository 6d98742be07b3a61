//! Fingerprint-keyed plan cache: repeated communicator setups on the
//! same (topology, layout, algorithm) triple reuse the built
//! [`CollectivePlan`] instead of re-running pattern construction.
//!
//! Two tiers:
//!
//! * an in-memory LRU of plans in their cells (always on), and
//! * an optional disk tier ([`PlanCache::with_disk_dir`]) that persists
//!   every inserted plan via [`crate::plan_io`] and reloads it in a
//!   later process — the "persistent collective" workflow of Fig. 8.
//!
//! The key is a [`PlanFingerprint`]: a 128-bit hash of everything the
//! build consumes (adjacency, rank placement, algorithm parameters), so
//! two setups share a cache slot only when the builder would provably
//! emit the same plan. Disk loads are checksummed and digest-matched or
//! re-validated before use; a stale or corrupt file is a miss and removed.
//! A key names one topology, so a topology change never evicts or
//! re-keys an entry: the changed communicator asks under its new key.
//!
//! Fingerprints are computed with `std`'s `DefaultHasher` (SipHash with
//! fixed keys). That is stable within one build of the library but not
//! guaranteed across Rust releases — a toolchain upgrade may orphan disk
//! entries, which then simply miss and get rebuilt. See
//! `docs/PLAN_CACHE.md`.

use crate::collective::program::Checked;
use crate::plan::{Algorithm, CollectivePlan, PlanValidationError};
use crate::plan_io::{self, PlanFile};
use crate::sizes::{BlockSizes, LoadMetric};
use nhood_cluster::ClusterLayout;
use nhood_topology::Topology;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A 128-bit content fingerprint of the inputs a plan was built from
/// (or of a finished plan itself — see [`PlanFingerprint::of_plan`]).
///
/// Two independently seeded 64-bit SipHash passes; a collision requires
/// both halves to collide at once.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanFingerprint {
    hi: u64,
    lo: u64,
}

impl PlanFingerprint {
    /// The fingerprint as one `u128` (hi half in the top bits).
    pub fn as_u128(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }

    /// Runs `feed` twice into differently seeded hashers and combines
    /// the two 64-bit digests.
    pub(crate) fn digest(feed: impl Fn(&mut DefaultHasher)) -> Self {
        let pass = |seed: u64| {
            let mut h = DefaultHasher::new();
            seed.hash(&mut h);
            feed(&mut h);
            h.finish()
        };
        Self { hi: pass(0x6e68_6f6f_645f_6869), lo: pass(0x6e68_6f6f_645f_6c6f) }
    }

    /// Fingerprint of a *build request*: everything pattern construction
    /// consumes. Covers the adjacency lists, the layout's shape **and**
    /// rank placement (two layouts that map ranks to sockets differently
    /// fingerprint differently, even with equal shape — off block
    /// placement every rank's physical location is hashed), and the
    /// algorithm with its parameters. Rank labels matter: an isomorphic
    /// but relabeled graph is a different build request and gets a
    /// different fingerprint.
    pub fn of_build(graph: &Topology, layout: &ClusterLayout, algo: Algorithm) -> Self {
        Self::of_build_v(graph, layout, algo, &BlockSizes::default(), LoadMetric::default())
    }

    /// [`of_build`](Self::of_build) for size-aware builds — the one build
    /// key, whichever collective executes the plan (gathers run its block
    /// messages, the combining family the item routing it implies).
    /// Additionally covers the [`LoadMetric`] and — under
    /// [`LoadMetric::Bytes`], the one metric whose matching consumes the
    /// size table — the [`BlockSizes`] themselves. Under
    /// [`LoadMetric::Neighbors`] the builder provably ignores sizes, so
    /// uniform and ragged requests deliberately share a slot; under
    /// `Bytes` a uniform and a ragged build can never collide.
    pub fn of_build_v(
        graph: &Topology,
        layout: &ClusterLayout,
        algo: Algorithm,
        sizes: &BlockSizes,
        metric: LoadMetric,
    ) -> Self {
        Self::digest(|h| {
            let n = graph.n();
            n.hash(h);
            for p in 0..n {
                let out = graph.out_neighbors(p);
                out.len().hash(h);
                out.hash(h);
            }
            layout.nodes().hash(h);
            layout.sockets_per_node().hash(h);
            layout.ranks_per_socket().hash(h);
            (layout.placement() == nhood_cluster::Placement::Block).hash(h);
            for r in 0..n {
                if layout.placement() == nhood_cluster::Placement::Block {
                    // socket ranges are only defined (contiguous) under
                    // block placement — all the plain DH builder reads
                    layout.socket_range(r).hash(h);
                } else {
                    // any other placement plans DH, HL and Bruck through
                    // `remap`'s locality re-ranking, which sorts ranks by
                    // exactly this key
                    let loc = layout.location(r);
                    (layout.group_of_node(loc.node), loc.node, loc.socket, loc.core).hash(h);
                }
            }
            let (id, param) = plan_io::algorithm_id(algo);
            id.hash(h);
            param.hash(h);
            metric.id().hash(h);
            if metric == LoadMetric::Bytes {
                sizes.hash_into(h);
            }
        })
    }

    /// Fingerprint of an *auto-tuning request* — the key under which
    /// [`Algorithm::Auto`] caches its winning plan. Built on
    /// [`of_build_v`](Self::of_build_v) with the `Auto` algorithm id,
    /// so the keyspace is disjoint from every concrete algorithm's
    /// build keys; additionally XORs in a digest of the **full size
    /// table** (the tuner scores candidates byte-accurately even under
    /// [`LoadMetric::Neighbors`], where plain build keys skip sizes) and
    /// of `cost_tag`, a stable rendering of the §V cost model — two
    /// tuners with different link speeds must not share winners.
    ///
    /// A churned adjacency hashes to another key, so a winner is only
    /// ever served for the topology it was tuned on; `mutate` leaves the
    /// entry cached for communicators still on that topology.
    pub fn of_tuner(
        graph: &Topology,
        layout: &ClusterLayout,
        sizes: &BlockSizes,
        metric: LoadMetric,
        cost_tag: &str,
    ) -> Self {
        let base = Self::of_build_v(graph, layout, Algorithm::Auto, sizes, metric);
        let extra = Self::digest(|h| {
            sizes.hash_into(h);
            cost_tag.hash(h);
        });
        Self { hi: base.hi ^ extra.hi, lo: base.lo ^ extra.lo }
    }

    /// Fingerprint of a *finished plan* on a topology: every phase's
    /// copy count and sends (a receive is a send), and the in-neighbor
    /// lists delivery depends on. The plan goldens pin builders' output
    /// by it; nothing is cached under it (the arena recognizes a plan by
    /// its `Arc` and `same_rows`).
    pub fn of_plan(plan: &CollectivePlan, graph: &Topology) -> Self {
        Self::digest(|h| {
            plan.n().hash(h);
            for r in 0..plan.n() {
                plan.phases(r).len().hash(h);
                for ph in plan.phases(r) {
                    ph.copy_blocks().hash(h);
                    for m in ph.sends() {
                        (m.peer(), m.tag()).hash(h);
                        m.blocks().hash(h);
                    }
                }
            }
            hash_in_lists(graph, h);
        })
    }
}

/// Feeds `h` what delivery depends on in a topology: the rank count and
/// every in-neighbor list.
fn hash_in_lists(graph: &Topology, h: &mut DefaultHasher) {
    graph.n().hash(h);
    (0..graph.n()).for_each(|r| graph.in_neighbors(r).hash(h));
}

impl std::fmt::Display for PlanFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Counter snapshot of a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache (memory or disk).
    pub hits: u64,
    /// Lookups that found nothing and fell through to a build.
    pub misses: u64,
    /// The subset of `hits` that came off the disk tier.
    pub disk_hits: u64,
    /// The subset of `disk_hits` served on the fast path: integrity
    /// checksum good and topology digest matched, so the full `validate`
    /// pass was skipped.
    pub disk_fast_hits: u64,
    /// Plans inserted.
    pub insertions: u64,
    /// In-memory entries displaced by LRU eviction (disk copies, when a
    /// disk tier is configured, survive eviction).
    pub evictions: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<PlanFingerprint, Arc<Checked>>,
    /// Recency order: front = least recently used.
    order: VecDeque<PlanFingerprint>,
    stats: PlanCacheStats,
}

impl Inner {
    /// Moves `fp` to the most-recently-used position.
    fn touch(&mut self, fp: PlanFingerprint) {
        if let Some(i) = self.order.iter().position(|&k| k == fp) {
            self.order.remove(i);
        }
        self.order.push_back(fp);
    }

    fn count_disk_hit(&mut self, fast: bool) {
        self.stats.hits += 1;
        self.stats.disk_hits += 1;
        self.stats.disk_fast_hits += u64::from(fast);
    }
}

/// A thread-safe, fingerprint-keyed LRU of built plans with an optional
/// disk tier. Shared across communicators as an `Arc<PlanCache>` (see
/// `DistGraphComm::with_plan_cache`).
pub struct PlanCache {
    inner: Mutex<Inner>,
    disk_dir: Option<PathBuf>,
    capacity: usize,
}

// The service layer hands one `Arc<PlanCache>` to every tenant and the
// threaded executor's workers hit it concurrently — losing `Send`
// or `Sync` (e.g. by caching an `Rc` or a raw pointer in `Inner`) must
// be a compile error here, not a runtime surprise at the call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PlanCache>();
    assert_send_sync::<PlanFingerprint>();
};

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("disk_dir", &self.disk_dir)
            .finish()
    }
}

impl PlanCache {
    /// An in-memory cache holding at most `capacity` plans (clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> Self {
        Self { inner: Mutex::default(), disk_dir: None, capacity: capacity.max(1) }
    }

    /// Adds a disk tier under `dir` (created if absent): every insert is
    /// also persisted as `<fingerprint>.nhplan`, and lookups that miss in
    /// memory probe the directory before reporting a miss.
    pub fn with_disk_dir(mut self, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        self.disk_dir = Some(dir);
        Ok(self)
    }

    /// The configured disk tier directory, if any.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    /// Maximum number of in-memory entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of in-memory entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` when no plan is cached in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        self.lock().stats
    }

    fn disk_path(&self, fp: PlanFingerprint) -> Option<PathBuf> {
        self.disk_dir.as_ref().map(|d| d.join(format!("{fp}.nhplan")))
    }

    /// Digest of the topology facts the disk tier's staleness check
    /// cares about ([`hash_in_lists`]). Saved into the plan file's footer
    /// by [`insert_validated`](Self::insert_validated) and compared on
    /// lookup — a match (under a good checksum) proves the file holds
    /// exactly the plan that was validated against this topology at
    /// insert time, so re-validation can be skipped.
    fn graph_digest(graph: &Topology) -> u128 {
        PlanFingerprint::digest(|h| hash_in_lists(graph, h)).as_u128()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("plan cache poisoned")
    }

    /// The one disk probe: the tier's file for `fp`, judged against
    /// `graph` with **no lock held** — file I/O, the checksum pass and an
    /// O(plan) check must not queue every other tenant's memory hit
    /// behind one cold file. A file whose recorded topology digest
    /// matches `graph` is served undecoded (the warm-start fast path);
    /// one with no digest, or another topology's, is decoded once into
    /// the cell beside it, and served only once that cell's verdict is
    /// good. A file that fails to open, parse, checksum or check is
    /// deleted and is a miss (the caller rebuilds and the insert replaces it).
    fn probe(&self, fp: PlanFingerprint, graph: &Topology) -> Option<(PlanFile, Option<Checked>)> {
        let path = self.disk_path(fp)?;
        let judged = PlanFile::open(&path).ok().and_then(|file| {
            let fast = file.graph_digest() == Some(Self::graph_digest(graph));
            let cell = (!fast).then(|| Checked::new(Arc::new(file.to_plan())));
            cell.as_ref().is_none_or(|cell| cell.check(graph).is_ok()).then_some((file, cell))
        });
        if judged.is_none() {
            let _ = std::fs::remove_file(&path);
        }
        judged
    }

    /// Looks `fp` up: memory first, then the disk tier
    /// (`probe`, above), whose plan is promoted to memory. The
    /// lock is held to read the memory tier and again to promote and
    /// count — never across the probe.
    pub fn lookup(&self, fp: PlanFingerprint, graph: &Topology) -> Option<Arc<CollectivePlan>> {
        self.cell(fp, graph).map(|cell| Arc::clone(&cell.plan))
    }

    /// [`lookup`](Self::lookup) of the plan's cell, its verdict included
    /// (a slow-path promotion keeps the probe's cell).
    pub(crate) fn cell(&self, fp: PlanFingerprint, graph: &Topology) -> Option<Arc<Checked>> {
        {
            let mut inner = self.lock();
            if let Some(cell) = inner.map.get(&fp).cloned() {
                inner.touch(fp);
                inner.stats.hits += 1;
                return Some(cell);
            }
        }
        let found = self.probe(fp, graph).map(|(file, judged)| {
            (judged.is_none(), judged.unwrap_or_else(|| Checked::new(Arc::new(file.to_plan()))))
        });
        let mut inner = self.lock();
        let Some((fast, cell)) = found else {
            inner.stats.misses += 1;
            return None;
        };
        let cell = Arc::new(cell);
        Self::insert_locked(&mut inner, self.capacity, fp, Arc::clone(&cell));
        // the disk promotion is a reuse, not a fresh build
        inner.stats.insertions -= 1;
        inner.count_disk_hit(fast);
        Some(cell)
    }

    /// The disk tier's file for `fp`, verified ([`plan_io::PlanFile`]):
    /// its [`rank`](plan_io::PlanFile::rank) reads one rank's program out
    /// of the file's bytes, so "time to first rank ready" on the fast path
    /// is one checksum pass plus the table checks, no owned plan. The same
    /// `probe` as [`lookup`](Self::lookup) decides what is
    /// served; the memory tier is neither consulted nor populated — it
    /// holds owned plans. (The name is older than the one file format:
    /// nothing is memory-mapped.)
    pub fn lookup_mapped(&self, fp: PlanFingerprint, graph: &Topology) -> Option<PlanFile> {
        let found = self.probe(fp, graph);
        let mut inner = self.lock();
        match &found {
            Some((_, judged)) => inner.count_disk_hit(judged.is_none()),
            None => inner.stats.misses += 1,
        }
        found.map(|(file, _)| file)
    }

    fn insert_locked(inner: &mut Inner, capacity: usize, fp: PlanFingerprint, cell: Arc<Checked>) {
        if inner.map.insert(fp, cell).is_none() && inner.map.len() > capacity {
            if let Some(oldest) = inner.order.pop_front() {
                inner.map.remove(&oldest);
                inner.stats.evictions += 1;
            }
        }
        inner.touch(fp);
        inner.stats.insertions += 1;
    }

    /// [`insert_validated`](Self::insert_validated) without a topology:
    /// unchecked, and the disk copy records no digest, so a later disk hit
    /// takes the full re-validation path. The library stores every plan
    /// it builds checked; this stays for callers timing the bare store
    /// (`benchmark/`'s `plan_cache.insert_us`).
    pub fn insert(&self, fp: PlanFingerprint, plan: Arc<CollectivePlan>) {
        let _ = self.insert_cell(fp, &Arc::new(Checked::new(plan)), None);
    }

    /// Inserts (or replaces) the plan for `fp` once it checks on `graph`,
    /// evicting the least recently used entry when the memory tier is
    /// full; a plan the validator rejects is not stored. With a disk tier,
    /// the plan is also written to `<fingerprint>.nhplan` (atomically —
    /// [`plan_io::save_plan`]; best-effort: an I/O failure leaves only the
    /// memory entry) with the topology digest, which enables the
    /// validation-free fast path on later lookups.
    pub fn insert_validated(
        &self,
        fp: PlanFingerprint,
        plan: Arc<CollectivePlan>,
        graph: &Topology,
    ) {
        let _ = self.insert_cell(fp, &Arc::new(Checked::new(plan)), Some(graph));
    }

    /// Stores a plan's cell, once its verdict on `valid_for` — the
    /// topology it was made for — admits it.
    pub(crate) fn insert_cell(
        &self,
        fp: PlanFingerprint,
        cell: &Arc<Checked>,
        valid_for: Option<&Topology>,
    ) -> Result<(), PlanValidationError> {
        valid_for.map_or(Ok(()), |graph| cell.check(graph))?;
        if let Some(path) = self.disk_path(fp) {
            let _ = plan_io::save_plan(&cell.plan, &path, valid_for.map(Self::graph_digest));
        }
        Self::insert_locked(&mut self.lock(), self.capacity, fp, Arc::clone(cell));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::plan_naive;
    use nhood_topology::random::erdos_renyi;
    use nhood_topology::Rank;

    fn layout(n: usize) -> ClusterLayout {
        ClusterLayout::new(n.div_ceil(8), 2, 4)
    }

    /// `g`'s plan under `fp`: looked up, else a naive build stored through
    /// `insert_validated`; `true` beside it on a hit.
    fn naive_through(
        cache: &PlanCache,
        fp: PlanFingerprint,
        g: &Topology,
    ) -> (Arc<CollectivePlan>, bool) {
        if let Some(plan) = cache.lookup(fp, g) {
            return (plan, true);
        }
        let plan = Arc::new(plan_naive(g));
        cache.insert_validated(fp, Arc::clone(&plan), g);
        (plan, false)
    }

    #[test]
    fn build_fingerprint_is_deterministic_and_input_sensitive() {
        let g = erdos_renyi(32, 0.3, 7);
        let l = layout(32);
        let a = PlanFingerprint::of_build(&g, &l, Algorithm::DistanceHalving);
        let b = PlanFingerprint::of_build(&g, &l, Algorithm::DistanceHalving);
        assert_eq!(a, b);
        assert_eq!(format!("{a}").len(), 32);
        // different algorithm, parameter, graph, or layout → different key
        assert_ne!(a, PlanFingerprint::of_build(&g, &l, Algorithm::Naive));
        assert_ne!(
            PlanFingerprint::of_build(&g, &l, Algorithm::CommonNeighbor { k: 2 }),
            PlanFingerprint::of_build(&g, &l, Algorithm::CommonNeighbor { k: 3 })
        );
        let g2 = erdos_renyi(32, 0.3, 8);
        assert_ne!(a, PlanFingerprint::of_build(&g2, &l, Algorithm::DistanceHalving));
        let l2 = ClusterLayout::new(8, 2, 2);
        assert_ne!(a, PlanFingerprint::of_build(&g, &l2, Algorithm::DistanceHalving));
    }

    #[test]
    fn size_table_keys_uniform_and_ragged_builds_distinctly() {
        let g = erdos_renyi(24, 0.4, 13);
        let l = layout(24);
        let algo = Algorithm::DistanceHalving;
        let uniform = BlockSizes::uniform(64);
        let ragged = BlockSizes::per_rank((0..24).map(|r| 8 + 8 * (r % 5)).collect());
        // Bytes-metric builds consume the size table: a uniform and a
        // ragged request must never share a cache slot, and two distinct
        // ragged tables must not collide either.
        let fu = PlanFingerprint::of_build_v(&g, &l, algo, &uniform, LoadMetric::Bytes);
        let fr = PlanFingerprint::of_build_v(&g, &l, algo, &ragged, LoadMetric::Bytes);
        assert_ne!(fu, fr);
        let ragged2 = BlockSizes::per_rank((0..24).map(|r| 8 + 8 * (r % 7)).collect());
        assert_ne!(fr, PlanFingerprint::of_build_v(&g, &l, algo, &ragged2, LoadMetric::Bytes));
        // The two metrics are distinct build requests even at equal sizes.
        assert_ne!(fu, PlanFingerprint::of_build_v(&g, &l, algo, &uniform, LoadMetric::Neighbors));
        // Neighbors-metric builds ignore sizes, so they share a slot —
        // and the legacy entry point is exactly that request.
        assert_eq!(
            PlanFingerprint::of_build_v(&g, &l, algo, &ragged, LoadMetric::Neighbors),
            PlanFingerprint::of_build(&g, &l, algo),
        );
    }

    #[test]
    fn isomorphic_permuted_graphs_fingerprint_differently() {
        // Relabeling ranks by a rotation keeps the graph isomorphic but
        // changes which physical rank holds which adjacency — the builder
        // would emit a different plan, so the fingerprints must differ.
        let n = 24;
        let g = erdos_renyi(n, 0.3, 11);
        let perm = |r: Rank| (r + 1) % n;
        let permuted =
            nhood_topology::Topology::from_edges(n, g.edges().map(|(u, v)| (perm(u), perm(v))));
        let l = layout(n);
        assert_ne!(
            PlanFingerprint::of_build(&g, &l, Algorithm::DistanceHalving),
            PlanFingerprint::of_build(&permuted, &l, Algorithm::DistanceHalving),
        );
        // A node permutation moves nodes between groups but leaves every
        // socket range — all the builder consumes — untouched, so the
        // permuted layout builds the identical plan and SHARES the key.
        let l_perm = layout(n).with_node_permutation(vec![2, 0, 1]);
        assert_eq!(
            PlanFingerprint::of_build(&g, &l, Algorithm::DistanceHalving),
            PlanFingerprint::of_build(&g, &l_perm, Algorithm::DistanceHalving),
        );
        // a different placement policy is a different build request
        let l_rr = layout(n).with_placement(nhood_cluster::Placement::RoundRobinNodes);
        assert_ne!(
            PlanFingerprint::of_build(&g, &l, Algorithm::Naive),
            PlanFingerprint::of_build(&g, &l_rr, Algorithm::Naive),
        );
    }

    #[test]
    fn non_block_layouts_of_equal_shape_fingerprint_by_rank_location() {
        // Off block placement Distance Halving plans through the locality
        // re-ranking, which reads every rank's (group, node, socket,
        // core): two round-robin layouts of one shape whose nodes sit in
        // different groups build different plans and must not share a key.
        use nhood_cluster::Placement;
        let g = erdos_renyi(32, 0.3, 11);
        let rr =
            || ClusterLayout::with_groups(4, 2, 4, 2).with_placement(Placement::RoundRobinNodes);
        let moved = rr().with_node_permutation(vec![2, 0, 1, 3]);
        let algo = Algorithm::DistanceHalving;
        assert_eq!(
            PlanFingerprint::of_build(&g, &rr(), algo),
            PlanFingerprint::of_build(&g, &rr(), algo)
        );
        assert_ne!(
            PlanFingerprint::of_build(&g, &rr(), algo),
            PlanFingerprint::of_build(&g, &moved, algo)
        );
        let plan = |layout: ClusterLayout| {
            let comm = crate::comm::DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
            comm.plan(algo).expect("re-ranked build")
        };
        assert!(plan(rr()) != plan(moved), "the plans these keys name differ");
    }

    #[test]
    fn plan_fingerprint_tracks_plan_content() {
        let g = erdos_renyi(16, 0.4, 3);
        let plan = plan_naive(&g);
        assert_eq!(PlanFingerprint::of_plan(&plan, &g), PlanFingerprint::of_plan(&plan, &g));
        let other = plan.edited(|rows| rows[0][0].copy_blocks += 1);
        assert_ne!(PlanFingerprint::of_plan(&plan, &g), PlanFingerprint::of_plan(&other, &g));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        let g = erdos_renyi(8, 0.5, 1);
        let l = layout(8);
        let plan = Arc::new(plan_naive(&g));
        let fps: Vec<PlanFingerprint> =
            [Algorithm::Naive, Algorithm::CommonNeighbor { k: 2 }, Algorithm::DistanceHalving]
                .into_iter()
                .map(|a| PlanFingerprint::of_build(&g, &l, a))
                .collect();

        cache.insert_validated(fps[0], Arc::clone(&plan), &g);
        cache.insert_validated(fps[1], Arc::clone(&plan), &g);
        // touch fps[0] so fps[1] becomes LRU
        assert!(cache.lookup(fps[0], &g).is_some());
        cache.insert_validated(fps[2], Arc::clone(&plan), &g);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(fps[1], &g).is_none(), "LRU entry should be gone");
        assert!(cache.lookup(fps[0], &g).is_some());
        assert!(cache.lookup(fps[2], &g).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.insertions, 3);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn a_stored_plan_is_served_by_allocation() {
        let cache = PlanCache::new(4);
        let g = erdos_renyi(16, 0.3, 9);
        let l = layout(16);
        let fp = PlanFingerprint::of_build(&g, &l, Algorithm::Naive);
        let (first, hit) = naive_through(&cache, fp, &g);
        assert!(!hit);
        let (second, hit) = naive_through(&cache, fp, &g);
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cache.stats().insertions, cache.stats().hits), (1, 1));
    }

    #[test]
    fn a_plan_that_fails_its_check_is_not_stored() {
        let cache = PlanCache::new(4);
        let g = erdos_renyi(8, 0.5, 2);
        let fp = PlanFingerprint::of_build(&g, &layout(8), Algorithm::Naive);
        let broken = plan_naive(&g).edited(|rows| rows[3][0].sends.clear());
        cache.insert_validated(fp, Arc::new(broken), &g);
        assert!(cache.is_empty());
        assert!(cache.lookup(fp, &g).is_none());
        // the one verdict a communicator's cell gives the cache is the same
        let cell = Arc::new(Checked::new(Arc::new(plan_naive(&erdos_renyi(8, 0.5, 3)))));
        assert!(cache.insert_cell(fp, &cell, Some(&g)).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn mutated_key_never_promotes_a_stale_disk_plan() {
        // The churn-stale hazard: a plan for the PRE-mutation topology
        // sits on disk, with no topology digest, under the mutated
        // graph's build key (e.g. written by a buggy or crashed writer).
        // The disk tier's revalidation must refuse to promote it for the
        // churned topology and clean it up.
        let dir = std::env::temp_dir().join(format!("nhood_churn_stale_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = erdos_renyi(16, 0.5, 31);
        let l = layout(16);
        // churn: add an edge, so the pre-churn plan under-delivers on
        // the churned topology (a removed edge would merely leave the
        // old plan over-delivering, which validation tolerates)
        let grown = (0..16)
            .flat_map(|u| (0..16).map(move |v| (u, v)))
            .find(|&(u, v)| u != v && !g.has_edge(u, v))
            .unwrap();
        let g2 = nhood_topology::Topology::from_edges(16, g.edges().chain(std::iter::once(grown)));
        let mutated = PlanFingerprint::of_build(&g2, &l, Algorithm::Naive);

        let cache = PlanCache::new(4).with_disk_dir(&dir).unwrap();
        // plant the PRE-churn plan on disk under the POST-churn key
        let stale = dir.join(format!("{mutated}.nhplan"));
        crate::plan_io::save_plan(&plan_naive(&g), &stale, None).unwrap();

        assert!(
            cache.lookup(mutated, &g2).is_none(),
            "stale pre-churn plan must not revalidate for the churned topology"
        );
        assert!(!stale.exists(), "stale file must be removed on detection");
        // and a correct post-churn plan inserted under the same key works
        cache.insert_validated(mutated, Arc::new(plan_naive(&g2)), &g2);
        drop(cache);
        let fresh = PlanCache::new(4).with_disk_dir(&dir).unwrap();
        let plan = fresh.lookup(mutated, &g2).expect("valid churned plan promotes");
        plan.validate(&g2).unwrap();
        assert_eq!(fresh.stats().disk_fast_hits, 1, "{:?}", fresh.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_disk_promotion_decodes_and_checks_its_file_once() {
        use crate::collective::program::{compile, tests::checks, Shape};
        let dir = std::env::temp_dir().join(format!("nhood_promote_once_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = erdos_renyi(24, 0.3, 13);
        let fp = PlanFingerprint::of_build(&g, &layout(24), Algorithm::Naive);
        let path = dir.join(format!("{fp}.nhplan"));
        let decodes = || crate::plan_io::tests::DECODES.with(std::cell::Cell::get);
        // (file decodes, plan checks) of a promotion and its first compile
        let promote = |digest: Option<u128>, fast: bool| {
            let cache = PlanCache::new(4).with_disk_dir(&dir).unwrap();
            crate::plan_io::save_plan(&plan_naive(&g), &path, digest).unwrap();
            let (decoded, (checked, _)) = (decodes(), checks());
            let cell = cache.cell(fp, &g).expect("the file promotes");
            compile(&cell, &g, Shape::Gather).unwrap();
            assert_eq!(cache.stats().disk_fast_hits, u64::from(fast));
            (decodes() - decoded, checks().0 - checked)
        };
        // slow path, no digest: the probe's one decode is the promoted
        // cell, and its one check the cell's verdict
        assert_eq!(promote(None, false), (1, 1));
        // another topology's digest takes the same path
        let other = PlanCache::graph_digest(&erdos_renyi(24, 0.3, 14));
        assert_eq!(promote(Some(other), false), (1, 1));
        // fast path: no check on the probe; the first compile checks
        assert_eq!(promote(Some(PlanCache::graph_digest(&g)), true), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contention_smoke_shared_cache_across_threads() {
        // The multi-tenant service shares ONE cache across every tenant
        // and worker thread. Hammer a small cache from several threads —
        // concurrent lookup-or-build / lookup / insert over more keys than
        // the capacity holds — and require: no deadlock, no panic, every
        // served plan validates for its topology, capacity respected,
        // and the counter deltas add up.
        let threads = 8usize;
        let iters = 200usize;
        let cache = PlanCache::new(4);
        let graphs: Vec<Topology> = (0..8).map(|s| erdos_renyi(16, 0.4, s as u64)).collect();
        let l = layout(16);
        let fps: Vec<PlanFingerprint> =
            graphs.iter().map(|g| PlanFingerprint::of_build(g, &l, Algorithm::Naive)).collect();

        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                let graphs = &graphs;
                let fps = &fps;
                scope.spawn(move || {
                    for i in 0..iters {
                        let k = (t * 31 + i * 7) % graphs.len();
                        let (g, fp) = (&graphs[k], fps[k]);
                        let (plan, _hit) = naive_through(cache, fp, g);
                        plan.validate(g).expect("served plan must fit its topology");
                        // interleave reads and occasional re-inserts
                        if let Some(p) = cache.lookup(fp, g) {
                            p.validate(g).unwrap();
                        }
                        if i % 17 == t % 17 {
                            cache.insert_validated(fp, Arc::new(plan_naive(g)), g);
                        }
                    }
                });
            }
        });

        assert!(cache.len() <= cache.capacity(), "LRU bound violated under contention");
        let s = cache.stats();
        let ops = (threads * iters) as u64;
        // every lookup-or-build is a hit or a miss, and every miss inserted
        assert!(s.hits + s.misses >= ops, "{s:?} vs {ops} lookup-or-build calls");
        assert!(s.insertions >= s.misses.min(1), "misses must insert: {s:?}");
        // the cache still works single-threaded afterwards
        let (plan, _) = naive_through(&cache, fps[0], &graphs[0]);
        plan.validate(&graphs[0]).unwrap();

        // ... and a memory hit never queues behind another key's disk
        // probe, which runs with the lock released. The second key's file
        // is a FIFO: opening its write end returns exactly when the prober
        // sits inside its probe with the read end open, and there it stays
        // until the write end closes — memory hits on the first key must
        // complete meanwhile.
        #[cfg(unix)]
        {
            let dir = std::env::temp_dir().join(format!("nhood_probe_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cache = PlanCache::new(4).with_disk_dir(&dir).unwrap();
            cache.insert_validated(fps[0], Arc::new(plan_naive(&graphs[0])), &graphs[0]);
            let fifo = dir.join(format!("{}.nhplan", fps[1]));
            let made = std::process::Command::new("mkfifo").arg(&fifo).status().expect("mkfifo");
            assert!(made.success());
            let (cache, fps, graphs) = (&cache, &fps, &graphs);
            std::thread::scope(|scope| {
                let prober = scope.spawn(move || cache.lookup(fps[1], &graphs[1]));
                let write_end = std::fs::OpenOptions::new().write(true).open(&fifo).unwrap();
                let (done, hits_done) = std::sync::mpsc::channel();
                scope.spawn(move || {
                    for _ in 0..100 {
                        assert!(cache.lookup(fps[0], &graphs[0]).is_some());
                    }
                    done.send(()).unwrap();
                });
                let free = hits_done.recv_timeout(std::time::Duration::from_secs(20));
                drop(write_end); // end of file: the probe has read no plan
                assert!(free.is_ok(), "memory hits queued behind a disk probe");
                assert!(prober.join().unwrap().is_none());
            });
            let s = cache.stats();
            assert_eq!((s.hits, s.misses), (100, 1), "{s:?}");
            assert!(!fifo.exists(), "what held no plan is deleted");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn warm_start_fast_path_skips_validation_and_serves_identical_plans() {
        let dir = std::env::temp_dir().join(format!("nhood_fastpath_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = erdos_renyi(32, 0.3, 19);
        let l = layout(32);
        let fp = PlanFingerprint::of_build(&g, &l, Algorithm::Naive);

        // cold process: build and insert through insert_validated (which
        // records the topology digest in the disk copy)
        let cache = PlanCache::new(4).with_disk_dir(&dir).unwrap();
        let (built, hit) = naive_through(&cache, fp, &g);
        assert!(!hit);
        drop(cache);

        // warm process: the lookup must come off disk via the verified
        // fast path and serve a plan identical to the built one
        let warm = PlanCache::new(4).with_disk_dir(&dir).unwrap();
        let served = warm.lookup(fp, &g).expect("warm disk hit");
        assert!(served == built);
        let s = warm.stats();
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.disk_fast_hits, 1, "verified file + matching digest must fast-path");

        // same file, DIFFERENT topology: digest mismatch forces the slow
        // validated path (which fails here — the plan under-delivers)
        let grown = (0..32)
            .flat_map(|u| (0..32).map(move |v| (u, v)))
            .find(|&(u, v)| u != v && !g.has_edge(u, v))
            .unwrap();
        let g2 = Topology::from_edges(32, g.edges().chain(std::iter::once(grown)));
        let other = PlanCache::new(4).with_disk_dir(&dir).unwrap();
        assert!(other.lookup(fp, &g2).is_none(), "digest mismatch must not fast-path");
        assert_eq!(other.stats().disk_fast_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_mapped_serves_eligible_files_and_only_those() {
        let dir = std::env::temp_dir().join(format!("nhood_mapped_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = erdos_renyi(32, 0.3, 19);
        let l = layout(32);
        let fp = PlanFingerprint::of_build(&g, &l, Algorithm::Naive);
        let plan = Arc::new(plan_naive(&g));
        let path = dir.join(format!("{fp}.nhplan"));
        let fresh = || PlanCache::new(4).with_disk_dir(&dir).unwrap();

        // no disk tier, or no file: a miss
        assert!(PlanCache::new(4).lookup_mapped(fp, &g).is_none());
        let cache = fresh();
        assert!(cache.lookup_mapped(fp, &g).is_none());
        cache.insert_validated(fp, Arc::clone(&plan), &g);

        // a fresh cache (fresh process, conceptually) opens it, counts a
        // fast hit, and serves per-rank programs identical to the plan
        let warm = fresh();
        let mapped = warm.lookup_mapped(fp, &g).expect("warm hit");
        assert_eq!(mapped.n(), plan.n());
        for r in 0..plan.n() {
            assert_eq!(mapped.rank(r), plan.rank_rows(r), "rank {r}");
        }
        assert!(mapped.to_plan() == *plan);
        let s = warm.stats();
        assert_eq!((s.hits, s.disk_hits, s.disk_fast_hits), (1, 1, 1), "{s:?}");
        assert!(warm.is_empty(), "the memory tier holds owned plans only");

        // a digest-less file is served too — by the same probe as
        // `lookup`: validated first, not a fast hit
        crate::plan_io::save_plan(&plan, &path, None).unwrap();
        let slow = fresh();
        assert!(slow.lookup_mapped(fp, &g).expect("validated hit").to_plan() == *plan);
        let s = slow.stats();
        assert_eq!((s.hits, s.disk_hits, s.disk_fast_hits), (1, 1, 0), "{s:?}");

        // DIFFERENT topology: the digest mismatch forces `validate`, the
        // plan under-delivers there, and the stale file is deleted
        cache.insert_validated(fp, Arc::clone(&plan), &g);
        let grown = (0..32)
            .flat_map(|u| (0..32).map(move |v| (u, v)))
            .find(|&(u, v)| u != v && !g.has_edge(u, v))
            .unwrap();
        let g2 = Topology::from_edges(32, g.edges().chain(std::iter::once(grown)));
        assert!(warm.lookup_mapped(fp, &g2).is_none());
        assert!(!path.exists(), "a plan that fails validation is deleted");

        // corrupt file: miss, deleted — the cold build takes over
        cache.insert_validated(fp, Arc::clone(&plan), &g);
        let mut evil = std::fs::read(&path).unwrap();
        let mid = evil.len() / 2;
        evil[mid] ^= 0x10;
        std::fs::write(&path, &evil).unwrap();
        assert!(fresh().lookup_mapped(fp, &g).is_none());
        assert!(!path.exists(), "corrupt file must be deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_smaller_reinsert_replaces_the_file_under_a_reader_without_tearing_it() {
        // The disk write is a rename, never an in-place truncate: a view
        // held over the old (larger) file keeps serving the old bytes —
        // in place, this was a SIGBUS on a mapped reader — and the next
        // lookup sees the new plan, whole.
        let dir = std::env::temp_dir().join(format!("nhood_atomic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (big_g, small_g) = (erdos_renyi(256, 0.5, 3), erdos_renyi(8, 0.3, 3));
        let (big, small) = (Arc::new(plan_naive(&big_g)), Arc::new(plan_naive(&small_g)));
        let fp = PlanFingerprint::of_build(&big_g, &layout(256), Algorithm::Naive);
        let cache = PlanCache::new(4).with_disk_dir(&dir).unwrap();
        cache.insert_validated(fp, Arc::clone(&big), &big_g);
        let held = cache.lookup_mapped(fp, &big_g).expect("the large plan's file");

        cache.insert_validated(fp, Arc::clone(&small), &small_g);
        assert_eq!(held.rank(255), big.rank_rows(255), "the held view still serves its last rank");
        assert!(held.to_plan() == *big);
        let fresh = PlanCache::new(4).with_disk_dir(&dir).unwrap();
        assert!(*fresh.lookup(fp, &small_g).expect("the new file") == *small);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "no temp file is left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_files_are_deleted_and_rebuilt_cold() {
        use nhood_topology::rng::DetRng;
        let dir = std::env::temp_dir().join(format!("nhood_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = erdos_renyi(24, 0.4, 23);
        let l = layout(24);
        let fp = PlanFingerprint::of_build(&g, &l, Algorithm::Naive);
        let cache = PlanCache::new(4).with_disk_dir(&dir).unwrap();
        cache.insert_validated(fp, Arc::new(plan_naive(&g)), &g);
        let path = dir.join(format!("{fp}.nhplan"));
        let pristine = std::fs::read(&path).unwrap();

        let mut rng = DetRng::seed_from_u64(0x6d6d);
        for i in 0..40 {
            // corrupt the file: bit flips and truncations alternating
            let mut evil = pristine.clone();
            if i % 2 == 0 {
                let byte = rng.gen_below(evil.len());
                evil[byte] ^= 1 << rng.gen_below(8);
            } else {
                evil.truncate(rng.gen_below(evil.len()));
            }
            std::fs::write(&path, &evil).unwrap();

            // fresh cache (no memory tier): the lookup must never panic;
            // the checksum covers every byte, so every one of these is a
            // miss that deletes the file
            let fresh = PlanCache::new(4).with_disk_dir(&dir).unwrap();
            assert!(fresh.lookup(fp, &g).is_none(), "iteration {i}: served a corrupt file");
            assert!(!path.exists(), "iteration {i}: corrupt file must be deleted");
            // cold-build fallback repopulates the tier
            let (p, hit) = naive_through(&fresh, fp, &g);
            assert!(!hit);
            p.validate(&g).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), pristine, "iteration {i}: rebuilt whole");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_survives_a_fresh_cache() {
        let dir = std::env::temp_dir().join(format!("nhood_plan_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = erdos_renyi(16, 0.4, 5);
        let l = layout(16);
        let fp = PlanFingerprint::of_build(&g, &l, Algorithm::Naive);

        let cache = PlanCache::new(4).with_disk_dir(&dir).unwrap();
        cache.insert_validated(fp, Arc::new(plan_naive(&g)), &g);
        drop(cache);

        // a brand-new cache (fresh process, conceptually) finds it on disk
        let cache = PlanCache::new(4).with_disk_dir(&dir).unwrap();
        let plan = cache.lookup(fp, &g).expect("disk hit");
        plan.validate(&g).unwrap();
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.misses, 0);
        // promoted: the second lookup is a pure memory hit
        assert!(cache.lookup(fp, &g).is_some());
        assert_eq!(cache.stats().disk_hits, 1);

        // a corrupt file is a miss and gets cleaned up
        let other = PlanFingerprint::of_build(&g, &l, Algorithm::DistanceHalving);
        let bad = dir.join(format!("{other}.nhplan"));
        std::fs::write(&bad, b"garbage").unwrap();
        assert!(cache.lookup(other, &g).is_none());
        assert!(!bad.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
