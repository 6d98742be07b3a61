//! Plan persistence: save a built [`CollectivePlan`] to disk and load it
//! back — the "persistent collective" workflow. Pattern creation is the
//! expensive one-time step (Fig. 8); applications that run the same
//! topology repeatedly can pay it once and reload the plan afterwards.
//!
//! The format is a small versioned little-endian binary (no external
//! dependencies): magic `NHPLAN1\0`, algorithm id, rank count, then each
//! rank's phases as length-prefixed send/recv lists.

use crate::pattern::SelectionStats;
use crate::plan::{Algorithm, CollectivePlan, MsgDir, MsgView, PlanPhase, PlanWriter};
use std::hash::Hasher;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"NHPLAN1\0";

/// Trailing marker of the *version-1* integrity footer. The footer sits
/// *after* the plan body — the bounded decoder consumes exactly the
/// encoded bytes and ignores trailers, so checksummed files remain
/// readable by [`read_plan`] and pre-footer files load fine through
/// [`load_plan_checked`] (as unverified). v1 files are still read; new
/// files are written with the v2 footer below.
const FOOTER_MAGIC: &[u8; 8] = b"NHCK\0\0\0\x01";

/// v1 footer layout: graph digest (16) + checksum (16) + magic (8).
const FOOTER_LEN: usize = 40;

/// Trailing marker of the *version-2* footer, which additionally embeds
/// a per-rank offset index so the memory-mapped path can decode any one
/// rank's program without touching the rest of the file:
///
/// ```text
/// body || index: (n+1) × u64 LE absolute offsets || index_count: u64
///      || graph digest (16) || checksum (16) || magic (8)
/// ```
///
/// `index[r]` is the byte offset (into the file) where rank `r`'s
/// program starts; `index[n]` is the end of the body. The checksum
/// covers everything before it — body, index *and* count — so a flipped
/// index bit can never steer [`MappedPlan::rank`] while still
/// verifying. Like v1, the whole footer is a trailer the legacy
/// decoder ignores.
const FOOTER_MAGIC_V2: &[u8; 8] = b"NHCK\0\0\0\x02";

/// Fixed part of the v2 footer, after the variable-length index:
/// index_count (8) + graph digest (16) + checksum (16) + magic (8).
const FOOTER_V2_FIXED: usize = 48;

/// Dual-seeded SipHash digest of a byte slice (same construction as
/// `PlanFingerprint`: a collision needs both independently keyed halves
/// to collide at once).
fn content_digest(bytes: &[u8]) -> (u64, u64) {
    let pass = |seed: u64| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write_u64(seed);
        h.write(bytes);
        h.finish()
    };
    (pass(0x6e68_636b_5f68_6921), pass(0x6e68_636b_5f6c_6f21))
}

/// Load failure.
#[derive(Debug)]
pub enum PlanIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a plan file, or an unsupported version.
    BadMagic,
    /// Structurally invalid content (truncated, absurd counts).
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

fn w64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Guard against absurd scalar values from corrupt files.
fn checked_len(v: u64, what: &str) -> Result<usize, PlanIoError> {
    const LIMIT: u64 = 1 << 32;
    if v > LIMIT {
        return Err(PlanIoError::Corrupt(format!("{what} count {v} exceeds limit")));
    }
    Ok(v as usize)
}

/// Bounded decode cursor over the whole file. Every *count* field is
/// validated against the bytes actually remaining in the input before
/// anything is allocated or looped over — a flipped length bit can
/// therefore neither over-allocate (the old decoder accepted any count
/// up to 2³² after a bare overflow check) nor send the decoder spinning
/// past the end of the file.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u64(&mut self, what: &str) -> Result<u64, PlanIoError> {
        if self.remaining() < 8 {
            return Err(PlanIoError::Corrupt(format!("truncated reading {what}")));
        }
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().expect("8 bytes"));
        self.pos += 8;
        Ok(v)
    }

    /// Reads a count of records that each occupy at least
    /// `min_elem_bytes` of input, and rejects it unless that many
    /// records can still fit in the remaining file.
    fn count(&mut self, min_elem_bytes: u64, what: &str) -> Result<usize, PlanIoError> {
        let v = self.u64(what)?;
        let rem = self.remaining() as u64;
        match v.checked_mul(min_elem_bytes) {
            Some(need) if need <= rem => Ok(v as usize),
            _ => Err(PlanIoError::Corrupt(format!(
                "{what} count {v} cannot fit in {rem} remaining bytes"
            ))),
        }
    }
}

fn write_msg(w: &mut impl Write, m: MsgView<'_>) -> io::Result<()> {
    w64(w, m.peer() as u64)?;
    w64(w, m.tag())?;
    w64(w, m.blocks().len() as u64)?;
    for &b in m.blocks() {
        w64(w, b as u64)?;
    }
    Ok(())
}

/// Decodes one message at the cursor: `(peer, tag)`, its block list left
/// in `blocks`.
fn read_msg(
    c: &mut Cursor<'_>,
    n: usize,
    blocks: &mut Vec<usize>,
) -> Result<(usize, u64), PlanIoError> {
    let peer = checked_len(c.u64("peer")?, "peer")?;
    if peer >= n {
        return Err(PlanIoError::Corrupt(format!("peer {peer} out of {n} ranks")));
    }
    let tag = c.u64("tag")?;
    let len = c.count(8, "blocks")?;
    blocks.clear();
    for _ in 0..len {
        let b = checked_len(c.u64("block")?, "block")?;
        if b >= n {
            return Err(PlanIoError::Corrupt(format!("block {b} out of {n} ranks")));
        }
        blocks.push(b);
    }
    Ok((peer, tag))
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

/// Encodes a plan body and returns it together with the per-rank offset
/// table the v2 footer embeds: `offsets[r]` is the byte offset where
/// rank `r`'s program starts, `offsets[n]` the end of the body.
fn encode_body(plan: &CollectivePlan) -> (Vec<u8>, Vec<u64>) {
    let mut w: Vec<u8> = Vec::new();
    let ok = "Vec<u8> writes are infallible";
    w.extend_from_slice(MAGIC);
    let (id, param) = algorithm_id(plan.algorithm);
    w64(&mut w, id).expect(ok);
    w64(&mut w, param).expect(ok);
    match plan.selection {
        None => w64(&mut w, 0).expect(ok),
        Some(s) => {
            w64(&mut w, 1).expect(ok);
            for v in [
                s.req,
                s.accept,
                s.drop,
                s.exit,
                s.notifications,
                s.descriptors,
                s.agent_searches,
                s.agents_found,
            ] {
                w64(&mut w, v as u64).expect(ok);
            }
        }
    }
    w64(&mut w, plan.n() as u64).expect(ok);
    let mut offsets = Vec::with_capacity(plan.n() + 1);
    for r in 0..plan.n() {
        offsets.push(w.len() as u64);
        w64(&mut w, plan.phases(r).len() as u64).expect(ok);
        for phase in plan.phases(r) {
            w64(&mut w, phase.copy_blocks() as u64).expect(ok);
            for dir in [MsgDir::Send, MsgDir::Recv] {
                w64(&mut w, phase.msgs(dir).len() as u64).expect(ok);
                for m in phase.msgs(dir) {
                    write_msg(&mut w, m).expect(ok);
                }
            }
        }
    }
    offsets.push(w.len() as u64);
    (w, offsets)
}

/// Serializes a plan.
pub fn write_plan(plan: &CollectivePlan, mut w: impl Write) -> io::Result<()> {
    let (buf, _) = encode_body(plan);
    w.write_all(&buf)
}

/// Deserializes a plan. The whole stream is read up front and decoded
/// through a bounded cursor, so corrupt counts are rejected against
/// the real file size instead of being trusted up to 2³² (see
/// `docs/PLAN_CACHE.md`).
pub fn read_plan(mut r: impl Read) -> Result<CollectivePlan, PlanIoError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    decode_plan(&buf)
}

/// Decodes a plan from an in-memory (or memory-mapped) byte slice.
/// Trailing bytes after the encoded plan — such as the integrity footer
/// [`save_plan_checked`] appends — are ignored.
pub fn decode_plan(buf: &[u8]) -> Result<CollectivePlan, PlanIoError> {
    if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
        return Err(PlanIoError::BadMagic);
    }
    let mut c = Cursor { buf, pos: MAGIC.len() };
    let (algorithm, selection) = read_header(&mut c)?;
    // every rank contributes at least a phase count (8 bytes)
    let n = c.count(8, "rank")?;
    let mut w = PlanWriter::new(algorithm, 0, 0);
    w.selection = selection;
    for _ in 0..n {
        read_rank_program(&mut c, n, &mut w)?;
    }
    w.try_finish().map_err(PlanIoError::Corrupt)
}

/// Decodes the fixed header after the magic: algorithm + selection
/// stats. Leaves the cursor at the rank count.
fn read_header(c: &mut Cursor<'_>) -> Result<(Algorithm, Option<SelectionStats>), PlanIoError> {
    let algorithm = algorithm_from(c.u64("algorithm id")?, c.u64("algorithm param")?)?;
    let selection = match c.u64("selection flag")? {
        0 => None,
        1 => {
            let mut v = [0usize; 8];
            for slot in &mut v {
                *slot = checked_len(c.u64("stat")?, "stat")?;
            }
            Some(SelectionStats {
                req: v[0],
                accept: v[1],
                drop: v[2],
                exit: v[3],
                notifications: v[4],
                descriptors: v[5],
                agent_searches: v[6],
                agents_found: v[7],
            })
        }
        other => return Err(PlanIoError::Corrupt(format!("bad selection flag {other}"))),
    };
    Ok((algorithm, selection))
}

/// Decodes one rank's program at the cursor as `w`'s next rank. Bounds
/// discipline matches [`decode_plan`]: every phase occupies at least its
/// copy, send and recv counts (24 bytes); every message at least its
/// peer, tag and block count (24); every block 8. (The table counts
/// those bounds admit are checked against the writer's `u32` offsets
/// when it finishes.)
fn read_rank_program(c: &mut Cursor<'_>, n: usize, w: &mut PlanWriter) -> Result<(), PlanIoError> {
    let phases = c.count(24, "phase")?;
    let r = w.add_rank(phases);
    let mut blocks = Vec::new();
    for p in 0..phases {
        w.copy(r, p, checked_len(c.u64("copy")?, "copy")?);
        for _ in 0..c.count(24, "send")? {
            let (peer, tag) = read_msg(c, n, &mut blocks)?;
            w.send(r, p, peer, tag, &blocks);
        }
        for _ in 0..c.count(24, "recv")? {
            let (peer, tag) = read_msg(c, n, &mut blocks)?;
            w.recv(r, p, peer, tag, &blocks);
        }
    }
    Ok(())
}

/// Convenience: save to a path.
pub fn save_plan(plan: &CollectivePlan, path: &std::path::Path) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_plan(plan, io::BufWriter::new(f))
}

/// Convenience: load from a path.
pub fn load_plan(path: &std::path::Path) -> Result<CollectivePlan, PlanIoError> {
    let f = std::fs::File::open(path)?;
    read_plan(io::BufReader::new(f))
}

/// A plan loaded through [`load_plan_checked`].
#[derive(Debug)]
pub struct CheckedPlan {
    /// The decoded plan.
    pub plan: CollectivePlan,
    /// `true` when an integrity footer was present and its checksum
    /// matched the bytes on disk.
    pub verified: bool,
    /// The topology digest recorded at save time, when one was (the
    /// cache uses it to skip re-validation — see `plan_cache`).
    pub graph_digest: Option<(u64, u64)>,
}

/// [`save_plan`] plus the v2 integrity footer: a per-rank offset index
/// (enabling [`load_plan_mapped`]'s lazy decode), a dual-SipHash
/// checksum of everything before it (and, when given, a digest of the
/// topology the plan was validated against). The footer lets
/// [`load_plan_checked`] detect bit rot without decoding and lets the
/// plan cache skip its expensive re-validation on the warm path.
pub fn save_plan_checked(
    plan: &CollectivePlan,
    path: &std::path::Path,
    graph_digest: Option<(u64, u64)>,
) -> io::Result<()> {
    let (mut buf, offsets) = encode_body(plan);
    for &o in &offsets {
        buf.extend_from_slice(&o.to_le_bytes());
    }
    buf.extend_from_slice(&(offsets.len() as u64).to_le_bytes());
    let (gd_hi, gd_lo) = graph_digest.unwrap_or((0, 0));
    buf.extend_from_slice(&gd_hi.to_le_bytes());
    buf.extend_from_slice(&gd_lo.to_le_bytes());
    // the checksum covers the body, the index AND the graph digest, so
    // a flipped index or digest bit cannot smuggle a plan past the
    // cache's topology check or steer the mapped reader
    let (ck_hi, ck_lo) = content_digest(&buf);
    buf.extend_from_slice(&ck_hi.to_le_bytes());
    buf.extend_from_slice(&ck_lo.to_le_bytes());
    buf.extend_from_slice(FOOTER_MAGIC_V2);
    std::fs::write(path, &buf)
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// Parsed fixed part of a v2 footer.
struct V2Footer {
    /// End of the encoded plan body == start of the offset index.
    body_end: usize,
    /// Number of index entries (must equal `n + 1`; checked by the
    /// mapped reader once `n` is known).
    index_count: usize,
    /// Recorded topology digest, `(0, 0)` when none was saved.
    gd: (u64, u64),
}

/// Probes `buf` for a v2 footer. `None` when the trailing magic is not
/// v2 (legacy v1 or bare files); `Some(Err)` when the magic is present
/// but the checksum fails or the index count cannot fit — the file is
/// corrupt, not merely old.
fn probe_v2_footer(buf: &[u8]) -> Option<Result<V2Footer, PlanIoError>> {
    if buf.len() < MAGIC.len() + FOOTER_V2_FIXED + 8 || &buf[buf.len() - 8..] != FOOTER_MAGIC_V2 {
        return None;
    }
    let ck_at = buf.len() - 24;
    let want = (le64(&buf[ck_at..ck_at + 8]), le64(&buf[ck_at + 8..ck_at + 16]));
    if content_digest(&buf[..ck_at]) != want {
        return Some(Err(PlanIoError::Corrupt("integrity checksum mismatch".into())));
    }
    let gd_at = buf.len() - 40;
    let gd = (le64(&buf[gd_at..gd_at + 8]), le64(&buf[gd_at + 8..gd_at + 16]));
    let count = le64(&buf[buf.len() - 48..buf.len() - 40]);
    let index_end = buf.len() - FOOTER_V2_FIXED;
    let max_bytes = (index_end - MAGIC.len()) as u64;
    let index_bytes = match count.checked_mul(8) {
        Some(b) if (1..=max_bytes).contains(&b) => b as usize,
        _ => {
            return Some(Err(PlanIoError::Corrupt(format!(
                "rank index count {count} cannot fit in the file"
            ))))
        }
    };
    Some(Ok(V2Footer { body_end: index_end - index_bytes, index_count: count as usize, gd }))
}

/// Loads a plan through the memory-mapped read path, verifying the
/// integrity footer when one is present.
///
/// * Footer present, checksum good → `verified: true` (plus the saved
///   graph digest); the plan bytes are decoded straight out of the
///   mapping, no intermediate file copy.
/// * Footer present, checksum bad → [`PlanIoError::Corrupt`] without
///   decoding anything — a flipped bit can't reach the decoder.
/// * No footer (legacy file) → decodes normally with `verified: false`.
///
/// On non-Unix targets (or if `mmap` itself fails) the file is read
/// into memory instead; semantics are identical.
pub fn load_plan_checked(path: &std::path::Path) -> Result<CheckedPlan, PlanIoError> {
    let f = std::fs::File::open(path)?;
    let len = f.metadata()?.len() as usize;
    #[cfg(unix)]
    if let Some(map) = mmap::Mapping::map(&f, len) {
        return decode_checked(map.bytes());
    }
    drop(f);
    decode_checked(&std::fs::read(path)?)
}

/// Shared tail of [`load_plan_checked`]: footer probe (v2, then v1) +
/// checksum + decode over any byte source (mapping or heap buffer).
fn decode_checked(buf: &[u8]) -> Result<CheckedPlan, PlanIoError> {
    if let Some(v2) = probe_v2_footer(buf) {
        let v2 = v2?;
        let plan = decode_plan(&buf[..v2.body_end])?;
        return Ok(CheckedPlan {
            plan,
            verified: true,
            graph_digest: (v2.gd != (0, 0)).then_some(v2.gd),
        });
    }
    if buf.len() >= MAGIC.len() + FOOTER_LEN && &buf[buf.len() - 8..] == FOOTER_MAGIC {
        let body_end = buf.len() - FOOTER_LEN;
        let ck_at = buf.len() - 24;
        let want = (le64(&buf[ck_at..ck_at + 8]), le64(&buf[ck_at + 8..ck_at + 16]));
        if content_digest(&buf[..ck_at]) != want {
            return Err(PlanIoError::Corrupt("integrity checksum mismatch".into()));
        }
        let gd = (le64(&buf[body_end..body_end + 8]), le64(&buf[body_end + 8..body_end + 16]));
        let plan = decode_plan(&buf[..body_end])?;
        return Ok(CheckedPlan {
            plan,
            verified: true,
            graph_digest: (gd != (0, 0)).then_some(gd),
        });
    }
    Ok(CheckedPlan { plan: decode_plan(buf)?, verified: false, graph_digest: None })
}

/// Byte source behind a [`MappedPlan`]: the file mapping when the
/// platform delivers one, a heap buffer otherwise (non-Unix targets, or
/// an `mmap` failure) — semantics are identical either way.
enum PlanBytes {
    #[cfg(unix)]
    Mapped(mmap::Mapping),
    Heap(Vec<u8>),
}

impl PlanBytes {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            PlanBytes::Mapped(m) => m.bytes(),
            PlanBytes::Heap(v) => v,
        }
    }
}

/// A plan served straight out of its (memory-mapped) file: the header
/// and the v2 footer's per-rank offset index are decoded eagerly, the
/// per-rank programs stay as raw mapped bytes until asked for. Warm
/// starts therefore cost one checksum pass over the file plus an O(n)
/// index sanity scan — not the full decode-copy of every phase of every
/// rank — and ranks that are never queried are never even paged in.
///
/// Only v2 files (written by [`save_plan_checked`]) can be mapped; the
/// checksum must verify and must cover the index, so every offset this
/// type dereferences is integrity-protected. [`MappedPlan::rank`]
/// decodes one rank through the same bounded cursor as the full
/// decoder — a corrupt file that somehow passed the checksum still
/// cannot over-allocate or read out of bounds.
pub struct MappedPlan {
    src: PlanBytes,
    algorithm: Algorithm,
    selection: Option<SelectionStats>,
    n: usize,
    /// Byte offset of the rank-offset index within the file.
    index_at: usize,
    graph_digest: Option<(u64, u64)>,
}

impl std::fmt::Debug for MappedPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedPlan")
            .field("algorithm", &self.algorithm)
            .field("n", &self.n)
            .field("bytes", &self.src.bytes().len())
            .field("graph_digest", &self.graph_digest)
            .finish()
    }
}

impl MappedPlan {
    fn from_src(src: PlanBytes) -> Result<Self, PlanIoError> {
        let buf = src.bytes();
        let v2 = match probe_v2_footer(buf) {
            Some(r) => r?,
            // no per-rank index: a legacy (v1 or bare) file — the caller
            // falls back to the decode-copy path
            None => return Err(PlanIoError::BadMagic),
        };
        if &buf[..MAGIC.len()] != MAGIC {
            return Err(PlanIoError::BadMagic);
        }
        let mut c = Cursor { buf: &buf[..v2.body_end], pos: MAGIC.len() };
        let (algorithm, selection) = read_header(&mut c)?;
        let n = c.count(8, "rank")?;
        if v2.index_count != n + 1 {
            return Err(PlanIoError::Corrupt(format!(
                "rank index holds {} entries for {n} ranks",
                v2.index_count
            )));
        }
        // The index is under the checksum, so these can only fail on a
        // checksum collision — but they are cheap, and they are what
        // makes every later `offset()` dereference safe by construction.
        let index_at = v2.body_end;
        let off = |i: usize| le64(&buf[index_at + 8 * i..index_at + 8 * i + 8]) as usize;
        if off(0) != c.pos || off(n) != v2.body_end {
            return Err(PlanIoError::Corrupt("rank index does not span the body".into()));
        }
        if (0..n).any(|i| off(i) > off(i + 1)) {
            return Err(PlanIoError::Corrupt("rank index is not monotone".into()));
        }
        let graph_digest = (v2.gd != (0, 0)).then_some(v2.gd);
        Ok(Self { src, algorithm, selection, n, index_at, graph_digest })
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The plan's algorithm (from the eagerly decoded header).
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Selection statistics recorded at save time, if any.
    pub fn selection(&self) -> Option<SelectionStats> {
        self.selection
    }

    /// The topology digest recorded at save time, when one was — the
    /// cache compares it to skip re-validation (see `plan_cache`).
    pub fn graph_digest(&self) -> Option<(u64, u64)> {
        self.graph_digest
    }

    fn offset(&self, i: usize) -> usize {
        le64(&self.src.bytes()[self.index_at + 8 * i..self.index_at + 8 * i + 8]) as usize
    }

    /// Decodes rank `r`'s program out of the mapping — the only bytes
    /// touched are `r`'s own slice of the file.
    pub fn rank(&self, r: usize) -> Result<Vec<PlanPhase>, PlanIoError> {
        if r >= self.n {
            return Err(PlanIoError::Corrupt(format!("rank {r} out of {}", self.n)));
        }
        let mut w = PlanWriter::new(self.algorithm, 0, 0);
        self.decode_rank(r, &mut w)?;
        Ok(w.try_finish().map_err(PlanIoError::Corrupt)?.rank_rows(0))
    }

    /// Decodes rank `r`'s slice of the file as `w`'s next rank.
    fn decode_rank(&self, r: usize, w: &mut PlanWriter) -> Result<(), PlanIoError> {
        let (start, end) = (self.offset(r), self.offset(r + 1));
        let mut c = Cursor { buf: &self.src.bytes()[..end], pos: start };
        read_rank_program(&mut c, self.n, w)?;
        if c.pos != end {
            return Err(PlanIoError::Corrupt(format!("rank {r} program does not fill its slot")));
        }
        Ok(())
    }

    /// Fully materializes the plan (every rank decoded). Equivalent to
    /// [`decode_plan`] on the body; use it when the whole plan is going
    /// to be executed anyway and an owned [`CollectivePlan`] is needed.
    pub fn to_plan(&self) -> Result<CollectivePlan, PlanIoError> {
        let mut w = PlanWriter::new(self.algorithm, 0, 0);
        w.selection = self.selection;
        for r in 0..self.n {
            self.decode_rank(r, &mut w)?;
        }
        w.try_finish().map_err(PlanIoError::Corrupt)
    }
}

/// Opens `path` as a [`MappedPlan`]: the file is memory-mapped (heap
/// fallback off Unix), its v2 footer checksum verified, and only the
/// header + offset index decoded. Files without a v2 footer fail with
/// [`PlanIoError::BadMagic`] — they are not corrupt, just not mappable;
/// load them through [`load_plan_checked`] instead.
pub fn load_plan_mapped(path: &std::path::Path) -> Result<MappedPlan, PlanIoError> {
    let f = std::fs::File::open(path)?;
    #[cfg(unix)]
    {
        let len = f.metadata()?.len() as usize;
        if let Some(map) = mmap::Mapping::map(&f, len) {
            return MappedPlan::from_src(PlanBytes::Mapped(map));
        }
    }
    drop(f);
    MappedPlan::from_src(PlanBytes::Heap(std::fs::read(path)?))
}

/// Minimal read-only `mmap` wrapper (no external crates: the two libc
/// symbols are declared directly).
#[cfg(unix)]
mod mmap {
    use std::ffi::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A read-only private mapping of a whole file, unmapped on drop.
    pub(super) struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ + MAP_PRIVATE — immutable shared
    // memory with no interior mutability; `munmap` runs exactly once,
    // on drop, wherever the owner ends up.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps `len` bytes of `f`; `None` on failure (empty files can't
        /// be mapped — the caller falls back to a plain read, which then
        /// reports the usual bad-magic error).
        pub(super) fn map(f: &std::fs::File, len: usize) -> Option<Self> {
            if len == 0 {
                return None;
            }
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, f.as_raw_fd(), 0)
            };
            // MAP_FAILED is (void *)-1
            if ptr as isize == -1 {
                None
            } else {
                Some(Self { ptr, len })
            }
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: the mapping is PROT_READ, covers exactly `len`
            // bytes, and lives until `self` is dropped; the borrow is
            // tied to `self`.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` came from a successful mmap call.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_pattern;
    use crate::lower::lower;
    use nhood_cluster::ClusterLayout;
    use nhood_topology::random::erdos_renyi;
    use std::sync::Arc;

    fn round_trip(plan: &CollectivePlan) -> CollectivePlan {
        let mut buf = Vec::new();
        write_plan(plan, &mut buf).unwrap();
        read_plan(&buf[..]).unwrap()
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
            let back = round_trip(&plan);
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
        let g = erdos_renyi(32, 0.3, 9);
        let layout = ClusterLayout::new(4, 2, 4);
        let plan = Arc::new(lower(&build_pattern(&g, &layout).unwrap(), &g));
        let back = Arc::new(round_trip(&plan));
        let payloads = test_payloads(32, 16, 3);
        assert_eq!(
            Virtual.run_simple(&plan, &g, &payloads).unwrap(),
            Virtual.run_simple(&back, &g, &payloads).unwrap()
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            read_plan(&b"not a plan"[..]),
            Err(PlanIoError::BadMagic) | Err(PlanIoError::Io(_))
        ));
        // right magic, truncated body
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&2u64.to_le_bytes());
        assert!(read_plan(&buf[..]).is_err());
        // absurd rank count
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&0u64.to_le_bytes()); // naive
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // no selection
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // ranks
        assert!(matches!(read_plan(&buf[..]), Err(PlanIoError::Corrupt(_))));
    }

    #[test]
    fn every_truncation_errors_and_bit_flips_never_panic() {
        use nhood_topology::rng::DetRng;
        let g = erdos_renyi(24, 0.4, 7);
        let layout = ClusterLayout::new(3, 2, 4);
        let plan = lower(&build_pattern(&g, &layout).unwrap(), &g);
        let mut buf = Vec::new();
        write_plan(&plan, &mut buf).unwrap();
        assert!(read_plan(&buf[..]).is_ok(), "pristine file must load");

        // The decoder consumes exactly the encoded bytes, so every
        // strict prefix must come back as a typed error — never a panic,
        // a hang, or a silently shorter plan.
        let mut rng = DetRng::seed_from_u64(0x71a6);
        let mut cuts: Vec<usize> = (0..64).collect();
        cuts.extend((0..200).map(|_| rng.gen_below(buf.len())));
        cuts.extend(buf.len().saturating_sub(64)..buf.len());
        for k in cuts {
            assert!(read_plan(&buf[..k]).is_err(), "prefix of {k} bytes must not parse");
        }

        // Single-bit flips anywhere in the file must never panic or
        // over-allocate; they either fail typed or still decode (a flip
        // in a payload-irrelevant field like a stat or a tag is legal).
        for _ in 0..500 {
            let byte = rng.gen_below(buf.len());
            let bit = rng.gen_below(8) as u32;
            let mut evil = buf.clone();
            evil[byte] ^= 1 << bit;
            if let Ok(p) = read_plan(&evil[..]) {
                // decoded plans are structurally sane even when wrong
                assert!(p.n() <= evil.len());
            }
        }
    }

    #[test]
    fn length_fields_are_bounded_by_remaining_file_size() {
        let g = erdos_renyi(8, 0.5, 3);
        let plan = crate::naive::plan_naive(&g);
        let mut buf = Vec::new();
        write_plan(&plan, &mut buf).unwrap();
        // Blow up the rank count at offset 32 (magic + algo + selection
        // flag): far below the old 2^32 limit, far above what the file
        // can hold. The bounded cursor must reject it up front.
        for absurd in [1u64 << 20, 1 << 31] {
            let mut hacked = buf.clone();
            hacked[32..40].copy_from_slice(&absurd.to_le_bytes());
            assert!(
                matches!(read_plan(&hacked[..]), Err(PlanIoError::Corrupt(_))),
                "rank count {absurd} must be rejected against the file size"
            );
        }
    }

    #[test]
    fn a_header_claiming_more_rows_than_the_tables_index_is_corrupt() {
        // The tables keep `u32` offsets. A send count past `u32::MAX` in
        // rank 0's first phase (magic + algo + selection flag + ranks +
        // phases + copy = offset 56) is refused against the file size
        // before a row is staged — and a count the file could hold is
        // still refused by the writer itself (`plan.rs`), never wrapped.
        let plan = crate::naive::plan_naive(&erdos_renyi(8, 0.5, 3));
        let mut buf = Vec::new();
        write_plan(&plan, &mut buf).unwrap();
        for rows in [u64::from(u32::MAX) + 1, u64::MAX] {
            let mut hacked = buf.clone();
            hacked[56..64].copy_from_slice(&rows.to_le_bytes());
            match decode_plan(&hacked) {
                Err(PlanIoError::Corrupt(what)) => assert!(what.contains("send count"), "{what}"),
                other => panic!("{rows} rows decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_range_peer_rejected() {
        let g = erdos_renyi(8, 0.5, 1);
        let plan = crate::naive::plan_naive(&g);
        let mut buf = Vec::new();
        write_plan(&plan, &mut buf).unwrap();
        // plan for 8 ranks claims to be for 4: peers out of range
        let mut hacked = buf.clone();
        // ranks field sits after magic(8) + algo(16) + selection flag(8)
        hacked[32..40].copy_from_slice(&4u64.to_le_bytes());
        let err = read_plan(&hacked[..]);
        assert!(err.is_err());
    }

    #[test]
    fn checked_round_trip_and_legacy_interop() {
        let g = erdos_renyi(24, 0.4, 7);
        let layout = ClusterLayout::new(3, 2, 4);
        let plan = lower(&build_pattern(&g, &layout).unwrap(), &g);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("nhood_checked_rt_{}.nhplan", std::process::id()));

        // checked save → checked load: verified, digest preserved
        save_plan_checked(&plan, &path, Some((0xabcd, 0x1234))).unwrap();
        let back = load_plan_checked(&path).unwrap();
        assert!(back.verified);
        assert_eq!(back.graph_digest, Some((0xabcd, 0x1234)));
        assert!(back.plan.same_rows(&plan));
        // the legacy reader ignores the footer
        assert!(load_plan(&path).unwrap().same_rows(&plan));

        // checked save without a digest: verified but digest-less
        save_plan_checked(&plan, &path, None).unwrap();
        let back = load_plan_checked(&path).unwrap();
        assert!(back.verified);
        assert_eq!(back.graph_digest, None);

        // legacy save → checked load: decodes, unverified
        save_plan(&plan, &path).unwrap();
        let back = load_plan_checked(&path).unwrap();
        assert!(!back.verified);
        assert!(back.plan.same_rows(&plan));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mmap_path_survives_truncation_and_bit_flips() {
        use nhood_topology::rng::DetRng;
        let g = erdos_renyi(24, 0.4, 7);
        let layout = ClusterLayout::new(3, 2, 4);
        let plan = lower(&build_pattern(&g, &layout).unwrap(), &g);
        let path =
            std::env::temp_dir().join(format!("nhood_mmap_fuzz_{}.nhplan", std::process::id()));
        save_plan_checked(&plan, &path, Some((1, 2))).unwrap();
        let buf = std::fs::read(&path).unwrap();
        let mut encoded = Vec::new();
        write_plan(&plan, &mut encoded).unwrap();
        let body_len = encoded.len();

        // Every strict prefix: never a panic; never a *verified* load;
        // truncation inside the body never yields a plan at all.
        let mut rng = DetRng::seed_from_u64(0x6b63);
        let mut cuts: Vec<usize> = (0..48).collect();
        cuts.extend((0..200).map(|_| rng.gen_below(buf.len())));
        cuts.extend(buf.len().saturating_sub(48)..buf.len());
        for k in cuts {
            std::fs::write(&path, &buf[..k]).unwrap();
            if let Ok(c) = load_plan_checked(&path) {
                // only possible when the whole body survived and the
                // cut merely amputated (part of) the footer
                assert!(!c.verified, "prefix of {k} bytes must not verify");
                assert!(k >= body_len, "body truncated at {k} must not decode");
            }
            // the mapped reader needs the v2 footer intact at the very
            // end of the file: every strict prefix must refuse to map
            assert!(load_plan_mapped(&path).is_err(), "prefix of {k} bytes must not map");
        }

        // Single-bit flips: never a panic, and a flip anywhere under the
        // checksum (body, digest, checksum itself) must not verify. A
        // flip in the trailing magic demotes the file to legacy, which
        // decodes the pristine body unverified — that's the designed
        // fallback, not a corruption escape (the cache re-validates
        // unverified loads).
        for _ in 0..500 {
            let byte = rng.gen_below(buf.len());
            let bit = rng.gen_below(8) as u32;
            let mut evil = buf.clone();
            evil[byte] ^= 1 << bit;
            std::fs::write(&path, &evil).unwrap();
            if let Ok(c) = load_plan_checked(&path) {
                if byte < buf.len() - 8 {
                    assert!(!c.verified, "flip at byte {byte} bit {bit} must not verify");
                } else {
                    assert!(c.plan.same_rows(&plan), "magic flip serves legacy body");
                }
            }
            // every byte of a v2 file is either under the checksum, the
            // checksum itself, or the trailing magic — so a single flip
            // anywhere must keep the mapped reader from serving at all
            assert!(load_plan_mapped(&path).is_err(), "flip at byte {byte} bit {bit} must not map");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapped_plan_serves_per_rank_slices() {
        let g = erdos_renyi(24, 0.4, 7);
        let layout = ClusterLayout::new(3, 2, 4);
        let plan = lower(&build_pattern(&g, &layout).unwrap(), &g);
        let path =
            std::env::temp_dir().join(format!("nhood_mapped_rt_{}.nhplan", std::process::id()));
        save_plan_checked(&plan, &path, Some((7, 9))).unwrap();

        let mapped = load_plan_mapped(&path).unwrap();
        assert_eq!(mapped.n(), plan.n());
        assert_eq!(mapped.algorithm(), plan.algorithm);
        assert_eq!(mapped.selection(), plan.selection);
        assert_eq!(mapped.graph_digest(), Some((7, 9)));
        // per-rank lazy decode matches the materialized plan exactly
        for r in 0..plan.n() {
            assert_eq!(mapped.rank(r).unwrap(), plan.rank_rows(r), "rank {r}");
        }
        assert!(mapped.rank(plan.n()).is_err(), "out-of-range rank must fail typed");
        let full = mapped.to_plan().unwrap();
        assert!(full.same_rows(&plan));
        assert_eq!(full.algorithm, plan.algorithm);
        assert_eq!(full.selection, plan.selection);
        full.validate(&g).unwrap();

        // a digest-less save maps too, just without a digest
        save_plan_checked(&plan, &path, None).unwrap();
        assert_eq!(load_plan_mapped(&path).unwrap().graph_digest(), None);

        // bare legacy files are not mappable (BadMagic, not Corrupt:
        // the caller falls back to the decode path, nothing is deleted)
        save_plan(&plan, &path).unwrap();
        assert!(matches!(load_plan_mapped(&path), Err(PlanIoError::BadMagic)));

        // v1-footer files (hand-built: body ‖ gd ‖ ck ‖ v1 magic) are
        // likewise unmappable but still load verified via the checked
        // reader — the two footers interoperate
        let mut v1 = Vec::new();
        write_plan(&plan, &mut v1).unwrap();
        v1.extend_from_slice(&7u64.to_le_bytes());
        v1.extend_from_slice(&9u64.to_le_bytes());
        let (hi, lo) = content_digest(&v1);
        v1.extend_from_slice(&hi.to_le_bytes());
        v1.extend_from_slice(&lo.to_le_bytes());
        v1.extend_from_slice(FOOTER_MAGIC);
        std::fs::write(&path, &v1).unwrap();
        assert!(matches!(load_plan_mapped(&path), Err(PlanIoError::BadMagic)));
        let back = load_plan_checked(&path).unwrap();
        assert!(back.verified, "v1 footer must still verify");
        assert_eq!(back.graph_digest, Some((7, 9)));
        assert!(back.plan.same_rows(&plan));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_round_trip() {
        let g = erdos_renyi(16, 0.4, 2);
        let plan = crate::naive::plan_naive(&g);
        let path = std::env::temp_dir().join("nhood_plan_io_test.bin");
        save_plan(&plan, &path).unwrap();
        let back = load_plan(&path).unwrap();
        assert!(back.same_rows(&plan));
    }
}
