//! Flat CSR (`offsets`/`targets`) responsibility maps.
//!
//! The responsibility map of a [`crate::pattern::RankPattern`] — block
//! `b` → the targets still owed a delivery of `b` — used to be a
//! `BTreeMap<Rank, Vec<Rank>>`, which puts a pointer chase on every
//! lookup of the lowering hot path. [`RespMap`] stores the same relation
//! as three flat arrays (sorted keys, offsets, concatenated target
//! lists): reads are a binary search plus a slice, iteration is linear
//! over contiguous memory, and equality/hashing see a canonical form.
//!
//! The builder mutates responsibilities incrementally while halving
//! steps execute, so the map has a two-phase life: [`RespBuilder`]
//! (sorted association list, cheap in-place edits) during
//! `assemble_pattern`, frozen into an immutable [`RespMap`] when the
//! pattern is done.

use nhood_topology::Rank;

/// A frozen block → targets map in CSR form. Keys are sorted and unique;
/// each key's target list is a contiguous slice of `targets`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RespMap {
    keys: Vec<Rank>,
    /// `offsets.len() == keys.len() + 1`; entry `i`'s targets are
    /// `targets[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
    targets: Vec<Rank>,
}

impl Default for RespMap {
    fn default() -> Self {
        Self::new()
    }
}

impl RespMap {
    /// The empty map.
    pub fn new() -> Self {
        Self { keys: Vec::new(), offsets: vec![0], targets: Vec::new() }
    }

    /// Builds a map from `(block, targets)` entries. Entries are sorted
    /// by block; empty target lists are dropped; entries sharing a block
    /// are **merged** (their targets unioned, sorted, deduplicated).
    /// Merging must happen in release builds too — a `debug_assert` here
    /// once let duplicate keys through silently, producing a map whose
    /// binary-search lookups and canonical equality were both wrong.
    pub fn from_entries(mut entries: Vec<(Rank, Vec<Rank>)>) -> Self {
        entries.sort_unstable_by_key(|e| e.0);
        entries.retain(|e| !e.1.is_empty());
        let mut map = Self::new();
        map.keys.reserve(entries.len());
        let mut entries = entries.into_iter().peekable();
        while let Some((block, mut targets)) = entries.next() {
            let mut merged = false;
            while entries.peek().is_some_and(|e| e.0 == block) {
                targets.extend(entries.next().expect("peeked").1);
                merged = true;
            }
            if merged {
                targets.sort_unstable();
                targets.dedup();
            }
            map.keys.push(block);
            map.targets.extend_from_slice(&targets);
            map.offsets.push(map.targets.len() as u32);
        }
        map
    }

    /// Inserts (or replaces) one entry in place, keeping the CSR
    /// canonical. An empty `targets` removes the entry. One splice of the
    /// target list and a shift of the later offsets — for fix-ups, not
    /// construction (the builder uses [`RespBuilder`]).
    pub fn insert(&mut self, block: Rank, targets: Vec<Rank>) {
        let i = self.keys.binary_search(&block).unwrap_or_else(|i| {
            self.keys.insert(i, block);
            self.offsets.insert(i, self.offsets[i]);
            i
        });
        let old = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        let (was, now) = (old.len() as u32, targets.len() as u32);
        self.offsets[i + 1..].iter_mut().for_each(|end| *end = *end - was + now);
        self.targets.splice(old, targets);
        if now == 0 {
            self.keys.remove(i);
            self.offsets.remove(i + 1);
        }
    }

    /// The targets owed for `block`, if any.
    pub fn get(&self, block: Rank) -> Option<&[Rank]> {
        let i = self.keys.binary_search(&block).ok()?;
        Some(&self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    /// Iterates `(block, targets)` entries in block order.
    pub fn iter(&self) -> impl Iterator<Item = (Rank, &[Rank])> {
        self.keys.iter().enumerate().map(move |(i, &b)| {
            (b, &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize])
        })
    }

    /// Iterates the target lists in block order.
    pub fn values(&self) -> impl Iterator<Item = &[Rank]> {
        self.iter().map(|(_, t)| t)
    }

    /// The sorted block keys.
    pub fn blocks(&self) -> &[Rank] {
        &self.keys
    }

    /// Number of blocks with at least one owed target.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no deliveries are owed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total owed (block, target) deliveries — the final-phase block
    /// volume of this rank.
    pub fn total_targets(&self) -> usize {
        self.targets.len()
    }
}

/// Mutable companion of [`RespMap`]: a sorted association list
/// supporting the three edits `assemble_pattern` performs per halving
/// step (read for the descriptor `D`, drop offloaded targets, merge a
/// received descriptor batch).
#[derive(Clone, Debug, Default)]
pub struct RespBuilder {
    /// Sorted by block, no empty target lists.
    entries: Vec<(Rank, Vec<Rank>)>,
}

impl RespBuilder {
    /// A builder holding one initial entry (skipped when `targets` is
    /// empty) — each rank starts responsible for its own block's
    /// deliveries.
    pub fn seeded(block: Rank, targets: &[Rank]) -> Self {
        if targets.is_empty() {
            Self::default()
        } else {
            Self { entries: vec![(block, targets.to_vec())] }
        }
    }

    /// Iterates `(block, targets)` in block order.
    pub fn iter(&self) -> impl Iterator<Item = (Rank, &[Rank])> {
        self.entries.iter().map(|(b, t)| (*b, t.as_slice()))
    }

    /// Drops every target for which `keep` is false; entries left with no
    /// targets disappear.
    pub fn retain_targets(&mut self, keep: impl Fn(Rank) -> bool) {
        self.entries.retain_mut(|(_, targets)| {
            targets.retain(|&t| keep(t));
            !targets.is_empty()
        });
    }

    /// Merges `moved` into `block`'s target list (sorted, deduplicated),
    /// creating the entry if needed. `moved` must be non-empty.
    pub fn merge(&mut self, block: Rank, moved: &[Rank]) {
        debug_assert!(!moved.is_empty());
        match self.entries.binary_search_by_key(&block, |e| e.0) {
            Ok(i) => {
                let targets = &mut self.entries[i].1;
                targets.extend_from_slice(moved);
                targets.sort_unstable();
                targets.dedup();
            }
            Err(i) => {
                let mut targets = moved.to_vec();
                targets.sort_unstable();
                targets.dedup();
                self.entries.insert(i, (block, targets));
            }
        }
    }

    /// Freezes into the immutable CSR form.
    pub fn freeze(self) -> RespMap {
        RespMap::from_entries(self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_roundtrip() {
        let m = RespMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.total_targets(), 0);
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.get(0), None);
        assert_eq!(m, RespMap::default());
        assert_eq!(m, RespBuilder::default().freeze());
    }

    #[test]
    fn from_entries_sorts_and_drops_empty() {
        let m = RespMap::from_entries(vec![(5, vec![1, 2]), (0, vec![9]), (3, vec![])]);
        assert_eq!(m.blocks(), &[0, 5]);
        assert_eq!(m.get(0), Some(&[9][..]));
        assert_eq!(m.get(5), Some(&[1, 2][..]));
        assert_eq!(m.get(3), None);
        assert_eq!(m.total_targets(), 3);
        let pairs: Vec<(Rank, Vec<Rank>)> = m.iter().map(|(b, t)| (b, t.to_vec())).collect();
        assert_eq!(pairs, vec![(0, vec![9]), (5, vec![1, 2])]);
    }

    #[test]
    fn duplicate_blocks_merge_in_release_builds_too() {
        // Regression: this used to be a debug_assert only, so release
        // builds silently froze maps with duplicate keys — get() then
        // returned an arbitrary one of the duplicate slices and equality
        // saw non-canonical forms.
        let m = RespMap::from_entries(vec![(2, vec![5, 1]), (0, vec![3]), (2, vec![1, 9])]);
        assert_eq!(m.blocks(), &[0, 2]);
        assert_eq!(m.get(0), Some(&[3][..]));
        assert_eq!(m.get(2), Some(&[1, 5, 9][..]));
        assert_eq!(m.total_targets(), 4);
        assert_eq!(m.len(), 2);
        // canonical equality regardless of how the duplicates were split
        let n = RespMap::from_entries(vec![(0, vec![3]), (2, vec![1, 5, 9])]);
        assert_eq!(m, n);
        // non-duplicate entries keep their given target order
        let o = RespMap::from_entries(vec![(1, vec![9, 4])]);
        assert_eq!(o.get(1), Some(&[9, 4][..]));
    }

    #[test]
    fn insert_replaces_and_removes() {
        let mut m = RespMap::new();
        m.insert(2, vec![4, 5]);
        m.insert(1, vec![7]);
        assert_eq!(m.blocks(), &[1, 2]);
        m.insert(2, vec![8]);
        assert_eq!(m.get(2), Some(&[8][..]));
        m.insert(1, vec![]);
        assert_eq!(m.blocks(), &[2]);
    }

    #[test]
    fn canonical_equality_regardless_of_construction_order() {
        let a = RespMap::from_entries(vec![(1, vec![2]), (3, vec![4, 5])]);
        let mut b = RespMap::new();
        b.insert(3, vec![4, 5]);
        b.insert(1, vec![2]);
        assert_eq!(a, b);
    }

    #[test]
    fn builder_edits_mirror_assembly_steps() {
        let mut rb = RespBuilder::seeded(0, &[1, 2, 5, 6]);
        // offload targets 5 and 6 (the opposite half)
        rb.retain_targets(|t| t < 4);
        assert_eq!(rb.iter().collect::<Vec<_>>(), vec![(0, &[1, 2][..])]);
        // a descriptor arrives: block 3 owes {2, 7}, then more of block 0
        rb.merge(3, &[7, 2]);
        rb.merge(0, &[2, 4]); // 2 already present — dedup
        let m = rb.freeze();
        assert_eq!(m.get(0), Some(&[1, 2, 4][..]));
        assert_eq!(m.get(3), Some(&[2, 7][..]));
        assert_eq!(m.total_targets(), 5);
    }

    #[test]
    fn builder_retain_can_empty_everything() {
        let mut rb = RespBuilder::seeded(1, &[2, 3]);
        rb.retain_targets(|_| false);
        assert!(rb.freeze().is_empty());
        // seeding with no targets is already empty
        assert!(RespBuilder::seeded(0, &[]).freeze().is_empty());
    }
}
