//! Plan persistence: save a built [`CollectivePlan`] to disk and load it
//! back — the "persistent collective" workflow. Pattern creation is the
//! expensive one-time step (Fig. 8); applications that run the same
//! topology repeatedly can pay it once and reload the plan afterwards.
//!
//! # One file format: the flat tables
//!
//! A plan file *is* the plan's tables (`plan.rs`), little-endian, every
//! value read with `from_le_bytes` (no alignment requirement); what each
//! check refuses is tabulated in `docs/PLAN_CACHE.md`:
//!
//! ```text
//! header  104 B  "NHPLAN4\0", then 12 × u64: algorithm id, parameter,
//!                selection flag, 5 statistics, and the counts — n ranks,
//!                B phase buckets, M messages, K pooled blocks
//! columns        phase_off (n + 1) × u32 | copy_blocks B × u64
//!                | msg_off (B + 1) × u32 | tag M × u64 | peer M × u32
//!                | block_off (M + 1) × u32 | pool K × u32
//! footer   40 B  topology digest u128 (0: none recorded) | checksum u128
//!                of every byte before it | "NHEND\0\0\x02"
//! ```
//!
//! Row `i` is send `i` (`peer` its destination) and its blocks are
//! `pool[block_off[i]..block_off[i + 1]]`: the file's pool is dense and
//! in row order, so equal plans write equal bytes wherever their
//! in-memory pools keep a block list. The receives are not written: the
//! owned exit derives them as every plan constructor does.
//! [`encode_plan`] is the one writer and [`PlanFile::parse`] the one
//! reader; what it verified either *borrows* ([`PlanFile::rank`]) or
//! *owns* ([`PlanFile::to_plan`]). A file of an older generation
//! (`NHPLAN1` … `NHPLAN3`) is [`PlanIoError::BadMagic`]: this is a cache
//! format, not an archive.

use crate::pattern::SelectionStats;
use crate::plan::{index_len, Algorithm, CollectivePlan, MsgRow, PlanPhase, PlannedMsg};
use crate::plan_cache::PlanFingerprint;
use nhood_topology::Rank;
use std::hash::Hasher;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"NHPLAN4\0";
const END_MAGIC: &[u8; 8] = b"NHEND\0\0\x02";
/// Magic + 12 `u64` fields: the counts are the last four.
const HEADER_LEN: usize = 104;
/// Topology digest (16) + checksum (16) + end magic (8).
const FOOTER_LEN: usize = 40;

/// The checksum: [`PlanFingerprint`]'s dual-seeded SipHash digest.
fn content_digest(bytes: &[u8]) -> u128 {
    PlanFingerprint::digest(|h| h.write(bytes)).as_u128()
}

/// Load failure.
#[derive(Debug)]
pub enum PlanIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a plan file, or one of another format generation.
    BadMagic,
    /// Structurally invalid: truncated, checksum mismatch, bad counts or offsets.
    Corrupt(String),
}

impl std::fmt::Display for PlanIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanIoError::Io(e) => write!(f, "I/O error: {e}"),
            PlanIoError::BadMagic => write!(f, "not an nhood plan file (bad magic)"),
            PlanIoError::Corrupt(m) => write!(f, "corrupt plan file: {m}"),
        }
    }
}

impl std::error::Error for PlanIoError {}

impl From<io::Error> for PlanIoError {
    fn from(e: io::Error) -> Self {
        PlanIoError::Io(e)
    }
}

/// The stable `(id, parameter)` pair of an algorithm — the on-disk
/// encoding, and what [`crate::plan_cache::PlanFingerprint`] hashes.
pub(crate) fn algorithm_id(a: Algorithm) -> (u64, u64) {
    match a {
        Algorithm::Naive => (0, 0),
        Algorithm::CommonNeighbor { k } => (1, k as u64),
        Algorithm::DistanceHalving => (2, 0),
        Algorithm::HierarchicalLeader { leaders_per_node } => (3, leaders_per_node as u64),
        Algorithm::Bruck => (4, 0),
        Algorithm::Pat { radix } => (5, radix as u64),
        Algorithm::Auto => (6, 0),
    }
}

fn algorithm_from(id: u64, param: u64) -> Result<Algorithm, PlanIoError> {
    Ok(match id {
        0 => Algorithm::Naive,
        1 => Algorithm::CommonNeighbor { k: param as usize },
        2 => Algorithm::DistanceHalving,
        3 => Algorithm::HierarchicalLeader { leaders_per_node: param as usize },
        4 => Algorithm::Bruck,
        5 => Algorithm::Pat { radix: param as usize },
        6 => Algorithm::Auto,
        other => return Err(PlanIoError::Corrupt(format!("unknown algorithm id {other}"))),
    })
}

/// The selection statistics in their file order.
fn stats_fields(s: &mut SelectionStats) -> [&mut usize; 5] {
    [
        &mut s.pairs,
        &mut s.notifications,
        &mut s.descriptors,
        &mut s.agent_searches,
        &mut s.agents_found,
    ]
}

/// Appends a column of little-endian values.
fn put<const N: usize>(w: &mut Vec<u8>, col: impl Iterator<Item = [u8; N]>) {
    col.for_each(|v| w.extend_from_slice(&v));
}

/// The one encoder: `plan` as a plan file (module docs), `graph_digest`
/// — the topology the plan is known valid for, if any — in its footer.
pub fn encode_plan(plan: &CollectivePlan, graph_digest: Option<u128>) -> Vec<u8> {
    let (buckets, rows) = (plan.copy_blocks.len(), plan.msgs.len());
    let blocks = plan.total_blocks_sent();
    // INVARIANT: the file's dense pool is indexed by `u32`, like the tables.
    assert!(u32::try_from(blocks).is_ok(), "{blocks} blocks do not fit the file's u32 offsets");
    let words = plan.n() + buckets + 2 * rows + blocks + 3;
    let len = HEADER_LEN + 4 * words + 8 * (buckets + rows);
    let mut w = Vec::with_capacity(len + FOOTER_LEN);
    w.extend_from_slice(MAGIC);
    let (id, param) = algorithm_id(plan.algorithm);
    let mut stats = plan.selection.unwrap_or_default();
    let head = [id, param, u64::from(plan.selection.is_some())].into_iter();
    let tallies =
        stats_fields(&mut stats).map(|s| *s).into_iter().chain([plan.n(), buckets, rows, blocks]);
    put(&mut w, head.chain(tallies.map(|v| v as u64)).map(u64::to_le_bytes));
    put(&mut w, plan.phase_off.iter().map(|o| o.to_le_bytes()));
    put(&mut w, plan.copy_blocks.iter().map(|&c| (c as u64).to_le_bytes()));
    put(&mut w, plan.send_off().iter().map(|o| o.to_le_bytes()));
    put(&mut w, plan.msgs.iter().map(|m| m.tag.to_le_bytes()));
    put(&mut w, plan.msgs.iter().map(|m| m.peer.to_le_bytes()));
    // the dense pool's offsets: a running sum of the rows' block counts
    let ends = plan.msgs.iter().scan(0u32, |end, m| {
        *end += m.block_len;
        Some(*end)
    });
    put(&mut w, std::iter::once(0).chain(ends).map(u32::to_le_bytes));
    // (a block past `u32` is written truncated: validation refuses a block
    // that is no rank, so the plan that held it was never valid)
    let pool = plan.msgs.iter().flat_map(|m| plan.blocks_of(*m));
    put(&mut w, pool.map(|&b| (b as u32).to_le_bytes()));
    debug_assert_eq!(w.len(), len);
    w.extend_from_slice(&graph_digest.unwrap_or(0).to_le_bytes());
    // the checksum covers the digest too: a flipped digest bit cannot
    // smuggle a plan past the cache's topology check
    let checksum = content_digest(&w);
    w.extend_from_slice(&checksum.to_le_bytes());
    w.extend_from_slice(END_MAGIC);
    w
}

/// Serializes a plan (no topology digest).
pub fn write_plan(plan: &CollectivePlan, mut w: impl Write) -> io::Result<()> {
    w.write_all(&encode_plan(plan, None))
}

/// Writes `plan` to `path` atomically: the bytes go to
/// `<path>.tmp.<pid>.<seq>` and are renamed over the target, so a reader
/// that has the old file open (or mapped) keeps the old bytes and a
/// concurrent one sees the old file or the new, never a torn one. (No
/// `fsync`: after a crash a torn file fails its checksum and is rebuilt.)
pub fn save_plan(plan: &CollectivePlan, path: &Path, graph_digest: Option<u128>) -> io::Result<()> {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{seq}", std::process::id()));
    std::fs::write(&tmp, encode_plan(plan, graph_digest))?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// [`decode_plan`] of a stream, read to its end.
pub fn read_plan(mut r: impl Read) -> Result<CollectivePlan, PlanIoError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    decode_plan(&buf)
}

/// Decodes a plan from the bytes of a plan file.
pub fn decode_plan(buf: &[u8]) -> Result<CollectivePlan, PlanIoError> {
    Ok(PlanFile::parse(buf)?.to_plan())
}

/// The `N` bytes at `at`, for `from_le_bytes`.
fn le<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    buf[at..at + N].try_into().expect("a slice of N bytes")
}

/// `count` little-endian `u32`s at `at`.
fn u32s(buf: &[u8], at: usize, count: usize) -> impl Iterator<Item = u32> + '_ {
    buf[at..at + 4 * count].chunks_exact(4).map(|c| u32::from_le_bytes(le(c, 0)))
}

/// `count` little-endian `u64`s at `at`.
fn u64s(buf: &[u8], at: usize, count: usize) -> impl Iterator<Item = u64> + '_ {
    buf[at..at + 8 * count].chunks_exact(8).map(|c| u64::from_le_bytes(le(c, 0)))
}

/// `true` when `col` is an offset column over `end` items: it starts at
/// 0, never decreases and ends at `end`.
fn spans(mut col: impl Iterator<Item = u32>, end: usize) -> bool {
    let mut at = 0;
    col.next() == Some(0)
        && col.all(|next| std::mem::replace(&mut at, next) <= next)
        && at as usize == end
}

/// A verified plan file over its bytes `B` — a borrowed `&[u8]`, or the
/// `Vec<u8>` of an [opened](PlanFile::open) file: what
/// [`parse`](Self::parse) checked once, every read below relies on.
pub struct PlanFile<B = Vec<u8>> {
    bytes: B,
    algorithm: Algorithm,
    selection: Option<SelectionStats>,
    graph_digest: Option<u128>,
    /// Ranks, phase buckets, message rows and pooled blocks.
    counts: [usize; 4],
    /// Where each column starts, in file order, then the footer.
    cols: [usize; 8],
}

const PHASE_OFF: usize = 0;
const COPY: usize = 1;
const MSG_OFF: usize = 2;
const TAG: usize = 3;
const PEER: usize = 4;
const BLOCK_OFF: usize = 5;
const POOL: usize = 6;
const FOOTER: usize = 7;

impl<B: AsRef<[u8]>> PlanFile<B> {
    /// The one parser (module docs): every check a plan file gets, in
    /// order of cost. Nothing is allocated.
    pub fn parse(bytes: B) -> Result<Self, PlanIoError> {
        let buf = bytes.as_ref();
        let corrupt = |what: String| Err(PlanIoError::Corrupt(what));
        if buf.len() < MAGIC.len() || buf[..MAGIC.len()] != *MAGIC {
            return Err(PlanIoError::BadMagic);
        }
        if buf.len() < HEADER_LEN + FOOTER_LEN || buf[buf.len() - 8..] != *END_MAGIC {
            return corrupt(format!("{} bytes end in no footer (truncated?)", buf.len()));
        }
        // Extents: each count fits the tables' `u32` offsets, and together
        // they describe exactly the bytes present.
        let head = |i: usize| u64::from_le_bytes(le(buf, MAGIC.len() + 8 * i));
        let counts = [8, 9, 10, 11].map(head);
        if let Some(c) = counts.iter().find(|&&c| c > u64::from(u32::MAX)) {
            return corrupt(format!("header count {c} does not fit the tables' u32 offsets"));
        }
        let [n, buckets, rows, blocks] = counts;
        let widths = [4 * (n + 1), 8 * buckets, 4 * (buckets + 1), 8 * rows, 4 * rows];
        let widths = widths.into_iter().chain([4 * (rows + 1), 4 * blocks]);
        let mut cols = [HEADER_LEN; 8];
        let mut end = HEADER_LEN as u64;
        for (col, width) in cols[1..].iter_mut().zip(widths) {
            end += width;
            // (past the file's length the value is never used)
            *col = end as usize;
        }
        if end + FOOTER_LEN as u64 != buf.len() as u64 {
            return corrupt(format!(
                "header counts describe {} bytes, the file holds {}",
                end + FOOTER_LEN as u64,
                buf.len()
            ));
        }
        let ck_at = buf.len() - 24;
        if content_digest(&buf[..ck_at]) != u128::from_le_bytes(le(buf, ck_at)) {
            return corrupt("integrity checksum mismatch".into());
        }
        let algorithm = algorithm_from(head(0), head(1))?;
        // (statistics and copy counts are tallies: nothing indexes by them)
        let mut stats = SelectionStats::default();
        stats_fields(&mut stats).into_iter().zip(3..).for_each(|(s, i)| *s = head(i) as usize);
        let selection = match head(2) {
            0 => None,
            1 => Some(stats),
            flag => return corrupt(format!("bad selection flag {flag}")),
        };
        let counts = counts.map(|c| c as usize);
        let [n, buckets, rows, blocks] = counts;
        // Table invariants — what `CollectivePlan`'s read API indexes by:
        // each offset column spans the table it indexes, and every peer
        // and block is a rank.
        let offsets = [
            ("phase", PHASE_OFF, n + 1, buckets),
            ("message", MSG_OFF, buckets + 1, rows),
            ("block", BLOCK_OFF, rows + 1, blocks),
        ];
        for (what, col, len, end) in offsets {
            if !spans(u32s(buf, cols[col], len), end) {
                return corrupt(format!("{what} offsets do not span their {end} entries"));
            }
        }
        for (what, col, len) in [("peer", PEER, rows), ("block", POOL, blocks)] {
            if let Some(v) = u32s(buf, cols[col], len).find(|&v| v as usize >= n) {
                return corrupt(format!("{what} {v} out of {n} ranks"));
            }
        }
        let graph_digest = Some(u128::from_le_bytes(le(buf, cols[FOOTER]))).filter(|&d| d != 0);
        Ok(Self { bytes, algorithm, selection, graph_digest, counts, cols })
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.counts[0]
    }

    /// The topology digest recorded at save time, when one was — the
    /// cache compares it to skip re-validation (see `plan_cache`).
    pub fn graph_digest(&self) -> Option<u128> {
        self.graph_digest
    }

    /// Rank `r`'s program in the owned row form, read out of the file's
    /// bytes — the only ones touched are `r`'s own sends.
    ///
    /// # Panics
    /// Panics if `r >= n`.
    pub fn rank(&self, r: Rank) -> Vec<PlanPhase> {
        assert!(r < self.n(), "rank {r} out of {}", self.n());
        let buf = self.bytes.as_ref();
        let at =
            |col: usize, i: usize| u32::from_le_bytes(le(buf, self.cols[col] + 4 * i)) as usize;
        let pool_at = |row: usize| self.cols[POOL] + 4 * at(BLOCK_OFF, row);
        let msgs = |b: usize| -> Vec<PlannedMsg> {
            (at(MSG_OFF, b)..at(MSG_OFF, b + 1))
                .map(|i| PlannedMsg {
                    peer: at(PEER, i),
                    tag: u64::from_le_bytes(le(buf, self.cols[TAG] + 8 * i)),
                    blocks: u32s(buf, pool_at(i), at(BLOCK_OFF, i + 1) - at(BLOCK_OFF, i))
                        .map(|b| b as Rank)
                        .collect(),
                })
                .collect()
        };
        (at(PHASE_OFF, r)..at(PHASE_OFF, r + 1))
            .map(|b| PlanPhase {
                copy_blocks: u64::from_le_bytes(le(buf, self.cols[COPY] + 8 * b)) as usize,
                sends: msgs(b),
            })
            .collect()
    }

    /// The whole plan, owned: one bulk copy per column, and the receive
    /// index derived.
    pub fn to_plan(&self) -> CollectivePlan {
        #[cfg(test)]
        tests::DECODES.with(|c| c.set(c.get() + 1));
        let buf = self.bytes.as_ref();
        let [n, buckets, rows, blocks] = self.counts;
        let col = |col: usize, len: usize| u32s(buf, self.cols[col], len);
        let ranges = col(BLOCK_OFF, rows + 1).zip(col(BLOCK_OFF, rows + 1).skip(1));
        let msgs = u64s(buf, self.cols[TAG], rows).zip(col(PEER, rows)).zip(ranges);
        CollectivePlan {
            algorithm: self.algorithm,
            selection: self.selection,
            phase_off: col(PHASE_OFF, n + 1).collect(),
            copy_blocks: u64s(buf, self.cols[COPY], buckets).map(|c| c as usize).collect(),
            index: {
                let mut index = Vec::with_capacity(index_len(buckets, rows));
                index.extend(col(MSG_OFF, buckets + 1));
                index
            },
            msgs: msgs
                .map(|((tag, peer), (lo, hi))| MsgRow {
                    tag,
                    peer,
                    block_off: lo,
                    block_len: hi - lo,
                })
                .collect(),
            pool: col(POOL, blocks).map(|b| b as Rank).collect(),
            blocks_sent: 0,
        }
        .checked()
        // INVARIANT: `parse` bounded every count by `u32::MAX`.
        .expect("a parsed plan file's counts fit the tables")
    }
}

impl PlanFile {
    /// Reads the plan file at `path` into memory and parses it.
    pub fn open(path: &Path) -> Result<Self, PlanIoError> {
        Self::parse(std::fs::read(path)?)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::lower::lower;
    use crate::plan_cache::{PlanCache, PlanFingerprint};
    use nhood_cluster::ClusterLayout;
    use nhood_topology::random::erdos_renyi;
    use nhood_topology::Topology;
    use std::sync::Arc;

    thread_local! {
        /// [`PlanFile::to_plan`] calls made by the current test thread.
        pub(crate) static DECODES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn dh_plan(n: usize) -> (Topology, CollectivePlan) {
        let g = erdos_renyi(n, 0.4, 7);
        let layout = ClusterLayout::new(n / 4, 2, 2);
        let plan = lower(&build_pattern(&g, &layout).unwrap(), &g);
        (g, plan)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nhood_{name}_{}.nhplan", std::process::id()))
    }

    /// Both exits of the one parser: the owned plan, once every rank the
    /// borrowed view serves is seen to be that plan's.
    fn exits(buf: &[u8]) -> Result<CollectivePlan, PlanIoError> {
        let file = PlanFile::parse(buf)?;
        let plan = file.to_plan();
        for r in 0..file.n() {
            assert_eq!(file.rank(r), plan.rank_rows(r), "rank {r}");
        }
        Ok(plan)
    }

    /// `buf` with `edit` applied and the checksum recomputed over it: a
    /// file only the structural checks can refuse.
    fn resealed(buf: &[u8], edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut out = buf.to_vec();
        edit(&mut out);
        let ck_at = out.len() - 24;
        let checksum = content_digest(&out[..ck_at]);
        out[ck_at..ck_at + 16].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    fn corrupt_naming(buf: &[u8], what: &str) {
        match exits(buf) {
            Err(PlanIoError::Corrupt(m)) => {
                assert!(m.contains(what), "{m:?} does not name {what:?}")
            }
            other => panic!("expected a corrupt file naming {what:?}, got {other:?}"),
        }
    }

    #[test]
    fn all_algorithms_round_trip() {
        let g = erdos_renyi(24, 0.4, 5);
        let layout = ClusterLayout::new(3, 2, 4);
        let comm = crate::DistGraphComm::create_adjacent(g.clone(), layout).unwrap();
        for algo in [
            Algorithm::Naive,
            Algorithm::CommonNeighbor { k: 4 },
            Algorithm::DistanceHalving,
            Algorithm::HierarchicalLeader { leaders_per_node: 2 },
        ] {
            let plan = comm.plan(algo).unwrap();
            let back = exits(&encode_plan(&plan, None)).unwrap();
            assert_eq!(back.algorithm, plan.algorithm);
            assert!(back.same_rows(&plan), "{algo}");
            assert_eq!(back.selection, plan.selection);
            back.validate(&g).unwrap();
        }
    }

    #[test]
    fn loaded_plan_executes_identically() {
        use crate::exec::virtual_exec::test_payloads;
        use crate::exec::{Executor, Virtual};
        let (g, plan) = dh_plan(32);
        let plan = Arc::new(plan);
        let back = Arc::new(decode_plan(&encode_plan(&plan, None)).unwrap());
        let payloads = test_payloads(32, 16, 3);
        assert_eq!(
            Virtual.run_simple(&plan, &g, &payloads).unwrap(),
            Virtual.run_simple(&back, &g, &payloads).unwrap()
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(read_plan(&b"not a plan"[..]), Err(PlanIoError::BadMagic)));
        assert!(matches!(read_plan(&b""[..]), Err(PlanIoError::BadMagic)));
        // right magic, nothing like a header and a footer behind it
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&2u64.to_le_bytes());
        corrupt_naming(&buf, "no footer");
        buf.resize(HEADER_LEN + FOOTER_LEN, 0);
        corrupt_naming(&buf, "no footer");
    }

    #[test]
    fn every_truncation_errors_and_bit_flips_never_panic() {
        // The checksum covers every byte before it and the parser wants
        // the end magic at the very end: every strict prefix and every
        // single-bit flip anywhere — header, columns, digest, checksum,
        // magic — is a typed error from both exits, never a panic, a
        // hang or a silently different plan.
        let (_, plan) = dh_plan(12);
        let buf = encode_plan(&plan, Some(12));
        assert!(exits(&buf).unwrap() == plan, "pristine file must load");
        for cut in 0..buf.len() {
            assert!(exits(&buf[..cut]).is_err(), "prefix of {cut} bytes must not parse");
        }
        let mut evil = buf.clone();
        for bit in 0..8 * buf.len() {
            evil[bit / 8] ^= 1 << (bit % 8);
            assert!(exits(&evil).is_err(), "flip of bit {bit} must not parse");
            evil[bit / 8] ^= 1 << (bit % 8);
        }
        // ... and the same through a file on disk
        let path = tmp("fuzz");
        for damaged in [&buf[..buf.len() / 2], &buf[..buf.len() - 1], &[][..]] {
            std::fs::write(&path, damaged).unwrap();
            assert!(PlanFile::open(&path).is_err());
        }
        evil[buf.len() / 3] ^= 4;
        std::fs::write(&path, &evil).unwrap();
        assert!(matches!(PlanFile::open(&path), Err(PlanIoError::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(PlanFile::open(&path), Err(PlanIoError::Io(_))));
    }

    #[test]
    fn length_fields_are_bounded_by_remaining_file_size() {
        // A count the file cannot hold is refused against the file's real
        // size — before the checksum pass, before anything is allocated —
        // and so is one the file has bytes to spare for.
        let buf = encode_plan(&crate::naive::plan_naive(&erdos_renyi(8, 0.5, 3)), None);
        for field in 8..12 {
            let at = MAGIC.len() + 8 * field;
            let honest = u64::from_le_bytes(le(&buf, at));
            for claimed in [1 << 20, 1 << 31, honest + 1, honest.saturating_sub(1)] {
                let mut hacked = buf.clone();
                hacked[at..at + 8].copy_from_slice(&claimed.to_le_bytes());
                if claimed != honest {
                    corrupt_naming(&hacked, "header counts describe");
                }
            }
        }
    }

    #[test]
    fn a_header_claiming_more_rows_than_the_tables_index_is_corrupt() {
        // The tables keep `u32` offsets: a count past them is refused by
        // name, never wrapped (and never multiplied into an extent).
        let buf = encode_plan(&crate::naive::plan_naive(&erdos_renyi(8, 0.5, 3)), None);
        for field in 8..12 {
            for count in [u64::from(u32::MAX) + 1, 1 << 40, u64::MAX] {
                let mut hacked = buf.clone();
                let at = MAGIC.len() + 8 * field;
                hacked[at..at + 8].copy_from_slice(&count.to_le_bytes());
                corrupt_naming(&hacked, "u32 offsets");
            }
        }
    }

    #[test]
    fn out_of_range_peer_rejected() {
        // Table invariants, each refused by name on a file whose checksum
        // holds: a peer or a block that is no rank, an offset column that
        // decreases or starts or ends elsewhere, a block range that leaves
        // the pool.
        let (_, plan) = dh_plan(12);
        let buf = encode_plan(&plan, None);
        let cols = PlanFile::parse(&buf[..]).unwrap().cols;
        let put = |col: usize, i: usize, v: u32| {
            resealed(&buf, |b| b[cols[col] + 4 * i..][..4].copy_from_slice(&v.to_le_bytes()))
        };
        let get = |col: usize, i: usize| u32::from_le_bytes(le(&buf, cols[col] + 4 * i));
        corrupt_naming(&put(PEER, 3, 12), "peer 12 out of 12 ranks");
        corrupt_naming(&put(POOL, 5, u32::MAX), "block 4294967295 out of 12 ranks");
        corrupt_naming(&put(PHASE_OFF, 0, 1), "phase offsets");
        corrupt_naming(&put(PHASE_OFF, 12, get(PHASE_OFF, 12) - 1), "phase offsets");
        corrupt_naming(&put(PHASE_OFF, 4, get(PHASE_OFF, 5) + 1), "phase offsets");
        corrupt_naming(&put(MSG_OFF, 7, get(MSG_OFF, 8) + 1), "message offsets");
        let last = plan.msgs.len();
        corrupt_naming(&put(BLOCK_OFF, last, get(BLOCK_OFF, last) + 1), "block offsets");
        corrupt_naming(&put(BLOCK_OFF, 2, get(BLOCK_OFF, 3) + 1), "block offsets");
        // a selection flag that is neither, an algorithm nobody wrote
        let head = |field: usize, v: u64| {
            resealed(&buf, |b| b[MAGIC.len() + 8 * field..][..8].copy_from_slice(&v.to_le_bytes()))
        };
        corrupt_naming(&head(2, 2), "selection flag");
        corrupt_naming(&head(0, 99), "unknown algorithm id 99");
    }

    #[test]
    fn outside_files_reach_a_typed_refusal() {
        // A plan file is outside input. A destination past the ranks is
        // the parser's to refuse (a disk hit whose topology digest
        // matches is served without `validate`); a send to oneself and a
        // send into a phase its destination's program lacks reach
        // `validate` through the receive index `to_plan` derives, as
        // `BadPeer` and `NotLockStep` — never a panic.
        let (g, plan) = dh_plan(12);
        let buf = encode_plan(&plan, None);
        let cols = PlanFile::parse(&buf[..]).unwrap().cols;
        let path = tmp("outside");
        let through = |bytes: &[u8]| -> Result<(), String> {
            std::fs::write(&path, bytes).unwrap();
            let file = PlanFile::open(&path).map_err(|e| e.to_string())?;
            file.to_plan().validate(&g).map_err(|e| e.to_string())
        };
        let peer = |row: usize, v: u32| {
            resealed(&buf, |b| b[cols[PEER] + 4 * row..][..4].copy_from_slice(&v.to_le_bytes()))
        };
        assert_eq!(through(&buf), Ok(()));
        assert_eq!(through(&peer(3, 12)), Err("corrupt plan file: peer 12 out of 12 ranks".into()));
        let sends = |r: Rank| {
            plan.phases(r)
                .enumerate()
                .flat_map(move |(p, ph)| ph.sends().map(move |m| (r, p, m.id())))
        };
        let (rank, phase, _) = (0..12).flat_map(sends).find(|s| s.2 == 3).unwrap();
        let own = crate::plan::PlanValidationError::BadPeer { rank, phase, peer: rank };
        assert_eq!(through(&peer(3, rank as u32)), Err(own.to_string()));
        let ragged = plan.edited(|rows| {
            let send = PlannedMsg { peer: 1, blocks: vec![0], tag: 99 };
            rows[0].push(PlanPhase { copy_blocks: 0, sends: vec![send] });
        });
        let phases = plan.phase_count();
        let short = crate::plan::PlanValidationError::NotLockStep {
            rank: 1,
            got: phases,
            want: phases + 1,
        };
        assert_eq!(through(&encode_plan(&ragged, None)), Err(short.to_string()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_old_generation_file_is_bad_magic_deleted_by_the_cache_and_rebuilt() {
        // Complete bare files of the three earlier generations (naive,
        // no selection, 0 ranks), as each wrote them: `NHPLAN1`;
        // `NHPLAN2`, whose header held four per-signal tallies where this
        // one holds the pair count; and `NHPLAN3`, which wrote every
        // message twice, a send row and a recv row. None is read: not by
        // the decoder, not from a path, and the cache deletes and
        // rebuilds.
        let old_generations = [
            [&b"NHPLAN1\0"[..], &[0u8; 32]].concat(),
            [&b"NHPLAN2\0"[..], &[0u8; 120 + 12 + 32], END_MAGIC].concat(),
            [&b"NHPLAN3\0"[..], &[0u8; 96 + 12 + 32], END_MAGIC].concat(),
        ];
        for old in old_generations {
            assert!(matches!(decode_plan(&old), Err(PlanIoError::BadMagic)));
            let dir = std::env::temp_dir().join(format!("nhood_oldgen_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cache = PlanCache::new(2).with_disk_dir(&dir).unwrap();
            let g = erdos_renyi(8, 0.5, 3);
            let fp = PlanFingerprint::of_build(&g, &ClusterLayout::new(1, 2, 4), Algorithm::Naive);
            let path = dir.join(format!("{fp}.nhplan"));
            std::fs::write(&path, &old).unwrap();
            assert!(matches!(PlanFile::open(&path), Err(PlanIoError::BadMagic)));
            assert!(cache.lookup(fp, &g).is_none() && !path.exists(), "deleted, a miss");
            let built = crate::naive::plan_naive(&g);
            cache.insert_validated(fp, std::sync::Arc::new(built.clone()), &g);
            let file = PlanFile::open(&path).expect("rebuilt in this generation");
            assert!(file.graph_digest().is_some() && file.to_plan() == built);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn mapped_plan_serves_per_rank_slices() {
        let (g, plan) = dh_plan(24);
        let path = tmp("mapped_rt");
        save_plan(&plan, &path, Some(79)).unwrap();

        let file = PlanFile::open(&path).unwrap();
        assert_eq!(file.n(), plan.n());
        assert_eq!(file.graph_digest(), Some(79));
        // one rank read out of the file's bytes is that rank of the plan
        for r in 0..plan.n() {
            assert_eq!(file.rank(r), plan.rank_rows(r), "rank {r}");
        }
        let full = file.to_plan();
        assert!(full == plan);
        full.validate(&g).unwrap();
        // the file's pool is dense whatever the plan's shares: equal
        // plans are equal bytes, and a loaded plan re-encodes to its file
        assert_eq!(encode_plan(&full, Some(79)), std::fs::read(&path).unwrap());

        // a digest-less save opens too, just without a digest
        save_plan(&plan, &path, None).unwrap();
        assert_eq!(PlanFile::open(&path).unwrap().graph_digest(), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "rank 24 out of 24")]
    fn a_rank_past_the_file_is_a_caller_bug() {
        let (_, plan) = dh_plan(24);
        PlanFile::parse(encode_plan(&plan, None)).unwrap().rank(24);
    }

    #[test]
    fn file_round_trip() {
        let g = erdos_renyi(16, 0.4, 2);
        let plan = crate::naive::plan_naive(&g);
        let path = tmp("round_trip");
        save_plan(&plan, &path, None).unwrap();
        assert!(PlanFile::open(&path).unwrap().to_plan() == plan);
        // the write is a rename: nothing else is left beside the target
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_str().unwrap().to_owned();
        let strays = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_str().is_some_and(|n| n.starts_with(&stem) && n != stem));
        assert_eq!(strays.count(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
