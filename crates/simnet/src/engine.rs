//! The discrete-event timing engine.
//!
//! Executes a [`Schedule`] against a cluster
//! layout and a hierarchical Hockney parameter set, and reports when every
//! rank finishes.
//!
//! # Cost model
//!
//! * **Single-port ranks** (the paper's §V assumption): each rank has one
//!   port; its sends and receives serialize on it. Port occupancy per
//!   message is `o + m/β` under a LogGP-style
//!   [`cpu_overhead`](SimConfig::cpu_overhead) `o` (back-to-back small
//!   messages pipeline behind the wire latency), or the classic Hockney
//!   `α + m/β` when `cpu_overhead` is `None`. The full `α + m/β` always
//!   delays *arrival*. A receive completes no earlier than its matching
//!   arrival (cut-through: an idle receiver finishes exactly at arrival —
//!   a relayed hop costs one transfer, not two).
//! * **Node NICs** (the paper's eq. (5): all `S·L` ranks of a node share
//!   the wire): NICs are full-duplex, one transmit and one receive queue
//!   per node. An inter-node message drains through its sender's tx queue
//!   and then (under [`NicMode::TxRx`]) its receiver's rx queue, holding
//!   each for `nic_gap + m/β`; the sending CPU never stalls on the NIC
//!   (store-and-forward queueing). Intra-node messages never touch a NIC.
//! * **Phases**: a rank starts phase `k+1` only when all sends *and*
//!   receives of phase `k` are done (the `wait_all` of Algorithm 4).
//!   `local_seconds` models pack/copy work at phase entry.
//!
//! Sends never block on receivers (eager/buffered semantics), so a
//! schedule deadlocks only if receive dependencies form a cycle; the
//! engine detects that and returns [`SimError::Deadlock`].

use crate::perturb::Perturbation;
use crate::schedule::{PriceColumns, Schedule};
use nhood_cluster::{ClusterLayout, HockneyParams, Locality, Rank, Seconds};

/// Which node NICs an inter-node message holds while on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NicMode {
    /// No NIC modeling: only rank ports serialize (pure-Hockney ablation).
    Off,
    /// Sender-side NIC only.
    TxOnly,
    /// Both sender's and receiver's node NICs (default; models the §V
    /// "node traffic serializes" assumption in both directions).
    #[default]
    TxRx,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Hockney parameters per locality level (end-to-end wire latency and
    /// bandwidth).
    pub hockney: HockneyParams,
    /// NIC serialization mode.
    pub nic_mode: NicMode,
    /// LogGP-style per-message CPU overhead `o`: the time a message
    /// occupies its rank's port. `None` means classic Hockney occupancy
    /// (`α + m/β` — no pipelining of back-to-back messages). `Some(o)`
    /// means the port is busy `o + m/β` per message while the full
    /// `α + m/β` only delays *arrival* — back-to-back small sends
    /// pipeline behind the wire latency, as real MPI does.
    pub cpu_overhead: Option<Seconds>,
    /// Per-message NIC gap `g`: an inter-node message holds its node
    /// NIC(s) for `g + m/β`. `None` reuses the port occupancy (harsh:
    /// the NIC serializes software overheads too). Modern NICs sustain
    /// tens of millions of messages per second, so the default is a
    /// small gap.
    pub nic_gap: Option<Seconds>,
    /// Dragonfly+ global-link modeling: when set, a message between
    /// *groups* additionally drains through its source group's global
    /// egress queue and its destination group's global ingress queue —
    /// the shared inter-cabinet links the paper's §IV names as the
    /// network's bottleneck. `None` (the default) leaves group-level
    /// contention to the per-level Hockney parameters alone.
    pub global_links: Option<GlobalLinkConfig>,
}

/// Capacity of one group's aggregated global (inter-group) links.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GlobalLinkConfig {
    /// Aggregate global-link bandwidth per group, bytes per second.
    pub bytes_per_sec: f64,
    /// Per-message serialization gap on the global link.
    pub gap: Seconds,
}

impl GlobalLinkConfig {
    /// A Niagara-flavoured default: each 16-node group shares global
    /// capacity equal to four node links.
    pub fn niagara() -> Self {
        Self { bytes_per_sec: 4.0 * 10.5e9, gap: 0.02e-6 }
    }
}

impl SimConfig {
    /// Niagara-like defaults: hierarchical Hockney wire costs, 0.15 µs
    /// per-message CPU overhead, 25 ns NIC gap (≈ 40 M msg/s per node),
    /// both-side NIC serialization.
    pub fn niagara() -> Self {
        Self {
            hockney: HockneyParams::niagara(),
            nic_mode: NicMode::default(),
            cpu_overhead: Some(0.15e-6),
            nic_gap: Some(0.025e-6),
            global_links: None,
        }
    }

    /// Classic pure-Hockney configuration: every message occupies its
    /// port and NIC for the full `α + m/β` — the literal §V model.
    pub fn classic(hockney: HockneyParams, nic_mode: NicMode) -> Self {
        Self { hockney, nic_mode, cpu_overhead: None, nic_gap: None, global_links: None }
    }

    /// Rejects values that would put a NaN or a negative duration into
    /// the engine's event times (the fields are public, so any caller
    /// can construct them) with [`SimError::InvalidConfig`], naming the
    /// first offending field: a latency, overhead or gap that is NaN,
    /// negative or infinite, or a bandwidth that is NaN or not positive
    /// (an infinite one makes transfers free, and is legal).
    pub(crate) fn check(&self) -> Result<(), SimError> {
        let (h, links) = (&self.hockney, self.global_links);
        let durations = [
            ("hockney.same_socket.alpha", Some(h.same_socket.alpha)),
            ("hockney.same_node.alpha", Some(h.same_node.alpha)),
            ("hockney.same_group.alpha", Some(h.same_group.alpha)),
            ("hockney.remote_group.alpha", Some(h.remote_group.alpha)),
            ("cpu_overhead", self.cpu_overhead),
            ("nic_gap", self.nic_gap),
            ("global_links.gap", links.map(|g| g.gap)),
        ];
        let bandwidths = [
            ("hockney.same_socket.bytes_per_sec", Some(h.same_socket.bytes_per_sec)),
            ("hockney.same_node.bytes_per_sec", Some(h.same_node.bytes_per_sec)),
            ("hockney.same_group.bytes_per_sec", Some(h.same_group.bytes_per_sec)),
            ("hockney.remote_group.bytes_per_sec", Some(h.remote_group.bytes_per_sec)),
            ("global_links.bytes_per_sec", links.map(|g| g.bytes_per_sec)),
        ];
        let bad = (durations.iter().find(|f| f.1.is_some_and(|s| !(s.is_finite() && s >= 0.0))))
            .or_else(|| bandwidths.iter().find(|f| f.1.is_some_and(|b| b.is_nan() || b <= 0.0)));
        let Some(&(field, Some(value))) = bad else { return Ok(()) };
        Err(SimError::InvalidConfig(format!("{field} = {value}")))
    }
}

/// Simulation failure.
#[derive(Debug, PartialEq)]
pub enum SimError {
    /// The schedule failed [`Schedule::validate`].
    InvalidSchedule(String),
    /// Receive dependencies form a cycle; the payload lists (rank, phase)
    /// pairs that could not proceed.
    Deadlock(Vec<(Rank, usize)>),
    /// The schedule has more ranks than the layout has cores.
    LayoutTooSmall {
        /// Ranks in the schedule.
        ranks: usize,
        /// Cores in the layout.
        capacity: usize,
    },
    /// The schedule holds more messages (or ranks) than the engine's
    /// dense `u32` id space.
    ScheduleTooLarge {
        /// Messages in the schedule.
        messages: usize,
    },
    /// The perturbation carries a negative or non-finite stall or jitter
    /// bound, or a jitter probability outside `[0, 1]`; the payload
    /// names the offending field.
    InvalidPerturbation(String),
    /// The cost model carries a NaN, negative or infinite latency,
    /// overhead or gap, or a NaN or non-positive bandwidth; the payload
    /// names the offending field ([`SimConfig`]'s, dotted).
    InvalidConfig(String),
    /// The schedule sends over a link the perturbation declares dead; a
    /// lossless event model cannot deliver it, so the run fails typed
    /// and the caller must repair the plan around the edge.
    LinkDown {
        /// Sending rank of the doomed message.
        src: Rank,
        /// Receiving rank of the doomed message.
        dst: Rank,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidSchedule(m) => write!(f, "invalid schedule: {m}"),
            SimError::Deadlock(blocked) => {
                write!(f, "deadlock; blocked (rank, phase) pairs: {blocked:?}")
            }
            SimError::LayoutTooSmall { ranks, capacity } => {
                write!(f, "schedule has {ranks} ranks but layout holds {capacity}")
            }
            SimError::ScheduleTooLarge { messages } => {
                write!(f, "schedule has {messages} messages, beyond the engine's id space")
            }
            SimError::InvalidPerturbation(m) => write!(f, "invalid perturbation: {m}"),
            SimError::InvalidConfig(m) => write!(f, "invalid cost model: {m}"),
            SimError::LinkDown { src, dst } => {
                write!(f, "schedule sends over dead link {src} -> {dst}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Per-locality-level traffic tallies, indexed by [`Locality`] order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LevelStats {
    /// Message counts per level: `[same_socket, same_node, same_group, remote_group]`.
    pub msgs: [usize; 4],
    /// Bytes per level, same order.
    pub bytes: [usize; 4],
}

impl LevelStats {
    pub(crate) fn record(&mut self, l: Locality, bytes: usize) {
        let i = l as usize; // declaration order: nearest first
        self.msgs[i] += 1;
        self.bytes[i] += bytes;
    }

    /// Total messages.
    pub fn total_msgs(&self) -> usize {
        self.msgs.iter().sum()
    }

    /// Messages that left their node (same-group + remote-group).
    pub fn internode_msgs(&self) -> usize {
        self.msgs[2] + self.msgs[3]
    }
}

/// Result of a simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Time at which the last rank finished (the collective's latency).
    pub makespan: Seconds,
    /// Finish time of each rank.
    pub per_rank_finish: Vec<Seconds>,
    /// Traffic tallies by locality level.
    pub stats: LevelStats,
    /// Seconds each rank's port spent busy (sending, receiving or
    /// copying) — `busy / makespan` is the port utilization, and the
    /// spread across ranks is the load-balance picture eq. (5) abstracts
    /// away.
    pub port_busy: Vec<Seconds>,
}

/// The timing engine. Cheap to construct; [`run`](Self::run) is pure
/// (no internal state survives a run), and so is
/// [`run_prepared`](Self::run_prepared) on a structure kept between runs.
pub struct Engine<'a> {
    pub(crate) layout: &'a ClusterLayout,
    pub(crate) config: SimConfig,
}

/// One message's simulated timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MsgTrace {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Matching tag.
    pub tag: u64,
    /// Payload bytes.
    pub bytes: usize,
    /// Locality level of the transfer.
    pub level: nhood_cluster::Locality,
    /// When the sending CPU posted the message (seconds).
    pub posted: Seconds,
    /// When the payload fully arrived at the receiver (seconds).
    pub arrival: Seconds,
}

/// Writes traces as CSV (`src,dst,tag,bytes,level,posted,arrival`).
pub fn write_trace_csv(traces: &[MsgTrace], mut w: impl std::io::Write) -> std::io::Result<()> {
    writeln!(w, "src,dst,tag,bytes,level,posted,arrival")?;
    for t in traces {
        writeln!(
            w,
            "{},{},{},{},{:?},{:.9},{:.9}",
            t.src, t.dst, t.tag, t.bytes, t.level, t.posted, t.arrival
        )?;
    }
    Ok(())
}

/// Non-NaN f64 ordering key for the ready heap.
#[derive(PartialEq, PartialOrd)]
pub(crate) struct Key(pub(crate) f64);
impl Eq for Key {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("sim times are never NaN")
    }
}

/// Every entry point below is [`prepare`](Self::prepare) then
/// [`run_prepared`](Self::run_prepared) (in [`crate::sharded`]) on the
/// schedule's own prices.
impl<'a> Engine<'a> {
    /// Creates an engine over `layout` with `config`.
    pub fn new(layout: &'a ClusterLayout, config: SimConfig) -> Self {
        Self { layout, config }
    }

    /// Runs `schedule` and returns the timing report.
    ///
    /// Validates the schedule first; see [`SimError`] for failure modes.
    pub fn run(&self, schedule: &Schedule) -> Result<SimReport, SimError> {
        let prices = PriceColumns::from(schedule);
        self.run_prepared(&self.prepare(schedule)?, &prices, None, None)
    }

    /// Like [`run`](Self::run), but under a latency [`Perturbation`]:
    /// straggler ranks pay their stall at every phase entry and jittered
    /// messages arrive late — the simulator-side view of a
    /// fault-injection plan. A perturbation with a negative or
    /// non-finite stall or jitter bound, or a jitter probability outside
    /// `[0, 1]`, is rejected with [`SimError::InvalidPerturbation`].
    pub fn run_perturbed(
        &self,
        schedule: &Schedule,
        perturbation: &Perturbation,
    ) -> Result<SimReport, SimError> {
        perturbation.check()?;
        let prices = PriceColumns::from(schedule);
        self.run_prepared(&self.prepare(schedule)?, &prices, Some(perturbation), None)
    }

    /// Like [`run`](Self::run), but also returns one [`MsgTrace`] per
    /// message (posting time, arrival time, locality level) for timeline
    /// analysis — the raw material of gantt-style visualizations.
    pub fn run_traced(&self, schedule: &Schedule) -> Result<(SimReport, Vec<MsgTrace>), SimError> {
        let prepared = self.prepare(schedule)?;
        let (report, times) = self.replay(&prepared, &PriceColumns::from(schedule), None)?;
        let mut traces: Vec<MsgTrace> = (schedule.all_sends().iter().zip(times))
            .map(|(m, times)| {
                let (posted, arrival) = times.unwrap_or_default();
                let level = self.layout.locality(m.src, m.dst);
                MsgTrace {
                    src: m.src,
                    dst: m.dst,
                    tag: m.tag,
                    bytes: m.bytes,
                    level,
                    posted,
                    arrival,
                }
            })
            .collect();
        traces.sort_by(|a, b| a.posted.partial_cmp(&b.posted).expect("finite"));
        Ok((report, traces))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Msg, PhaseWriter};

    fn msg(src: Rank, dst: Rank, bytes: usize, tag: u64, recv_phase: usize) -> Msg {
        Msg { src, dst, bytes, tag, recv_phase }
    }

    fn flat_engine_run(
        layout: &ClusterLayout,
        alpha: f64,
        bw: f64,
        nic: NicMode,
        s: &Schedule,
    ) -> SimReport {
        let cfg = SimConfig::classic(HockneyParams::flat(alpha, bw), nic);
        Engine::new(layout, cfg).run(s).unwrap()
    }

    #[test]
    fn single_message_costs_one_hockney_term() {
        let layout = ClusterLayout::new(2, 1, 1);
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 1, 1000, 0, 0)]);
        s.push(1, vec![]);
        let r = flat_engine_run(&layout, 1e-6, 1e9, NicMode::Off, &s);
        // cut-through: receiver finishes when sender's port releases
        assert!((r.makespan - 2e-6).abs() < 1e-12, "{}", r.makespan);
        assert_eq!(r.per_rank_finish[0], 2e-6);
        assert_eq!(r.per_rank_finish[1], 2e-6);
    }

    #[test]
    fn sends_serialize_on_the_port() {
        let layout = ClusterLayout::new(4, 1, 1);
        let mut s = Schedule::new(4);
        s.push(0, vec![msg(0, 1, 0, 0, 0), msg(0, 2, 0, 1, 0), msg(0, 3, 0, 2, 0)]);
        s.push(1, vec![]);
        s.push(2, vec![]);
        s.push(3, vec![]);
        let r = flat_engine_run(&layout, 1e-6, 1e9, NicMode::Off, &s);
        assert!((r.per_rank_finish[0] - 3e-6).abs() < 1e-12);
        // third target waits for the serialized third send
        assert!((r.per_rank_finish[3] - 3e-6).abs() < 1e-12);
        assert!((r.per_rank_finish[1] - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn recvs_serialize_on_the_port_too() {
        let layout = ClusterLayout::new(4, 1, 1);
        let mut s = Schedule::new(4);
        for src in 1..4usize {
            s.push(src, vec![msg(src, 0, 1000, src as u64, 0)]);
        }
        s.push(0, vec![]);
        let r = flat_engine_run(&layout, 0.0, 1e9, NicMode::Off, &s);
        // three concurrent 1µs sends arrive at 1µs, but rank 0's port must
        // drain them one at a time: last finishes at 3µs.
        assert!((r.per_rank_finish[0] - 3e-6).abs() < 1e-12, "{}", r.per_rank_finish[0]);
    }

    #[test]
    fn phases_are_barriers() {
        let layout = ClusterLayout::new(2, 1, 1);
        let mut s = Schedule::new(2);
        // rank 0: phase0 recv, phase1 send; rank1: phase0 send (late), phase1 recv
        s.push(0, vec![]);
        s.push(0, vec![msg(0, 1, 1000, 1, 1)]);
        s.push(1, vec![msg(1, 0, 1000, 0, 0)]);
        s.push(1, vec![]);
        let r = flat_engine_run(&layout, 1e-6, 1e9, NicMode::Off, &s);
        // hop 1 completes at 2µs (recv end), hop 2 adds 2µs
        assert!((r.makespan - 4e-6).abs() < 1e-12, "{}", r.makespan);
    }

    #[test]
    fn local_seconds_delay_the_phase() {
        let layout = ClusterLayout::new(2, 1, 1);
        let mut s = Schedule::new(2);
        s.push_phase(0, 5e-6, vec![msg(0, 1, 0, 0, 0)]);
        s.push(1, vec![]);
        let r = flat_engine_run(&layout, 1e-6, 1e9, NicMode::Off, &s);
        assert!((r.per_rank_finish[1] - 6e-6).abs() < 1e-12);
    }

    #[test]
    fn nic_serializes_internode_traffic_from_one_node() {
        // two ranks on node 0 each send to a rank on another node
        let layout = ClusterLayout::new(3, 1, 2); // 6 ranks, node = r / 2
        let mk = |nic| {
            let mut s = Schedule::new(6);
            s.push(0, vec![msg(0, 2, 1000, 0, 0)]);
            s.push(1, vec![msg(1, 4, 1000, 1, 0)]);
            s.push(2, vec![]);
            s.push(4, vec![]);
            flat_engine_run(&layout, 0.0, 1e9, nic, &s)
        };
        let off = mk(NicMode::Off);
        let tx = mk(NicMode::TxOnly);
        // without NIC both transfers overlap (makespan 1µs + drain 1µs = 2µs);
        // with the shared node-0 NIC they serialize.
        assert!(tx.makespan > off.makespan + 0.5e-6, "off={} tx={}", off.makespan, tx.makespan);
    }

    #[test]
    fn rx_nic_serializes_incast() {
        // two different nodes send to two ranks of node 0: TxRx serializes
        // on the receiving node's NIC, TxOnly does not.
        let layout = ClusterLayout::new(3, 1, 2);
        let mk = |nic| {
            let mut s = Schedule::new(6);
            s.push(2, vec![msg(2, 0, 1000, 0, 0)]);
            s.push(4, vec![msg(4, 1, 1000, 1, 0)]);
            s.push(0, vec![]);
            s.push(1, vec![]);
            flat_engine_run(&layout, 0.0, 1e9, nic, &s)
        };
        let tx = mk(NicMode::TxOnly);
        let txrx = mk(NicMode::TxRx);
        assert!(txrx.makespan > tx.makespan + 0.5e-6, "tx={} txrx={}", tx.makespan, txrx.makespan);
    }

    #[test]
    fn hierarchical_params_prefer_local_messages() {
        // Latency-bound message: α ordering decides. (At multi-MB sizes
        // EDR InfiniBand legitimately beats shared-memory copies in this
        // parameter set, so this property is only claimed for small m.)
        let layout = ClusterLayout::new(2, 2, 2); // 8 ranks
        let cfg = SimConfig::classic(HockneyParams::niagara(), NicMode::Off);
        let engine = Engine::new(&layout, cfg);
        let mut local = Schedule::new(8);
        local.push(0, vec![msg(0, 1, 4096, 0, 0)]);
        local.push(1, vec![]);
        let mut remote = Schedule::new(8);
        remote.push(0, vec![msg(0, 4, 4096, 0, 0)]);
        remote.push(4, vec![]);
        let tl = engine.run(&local).unwrap().makespan;
        let tr = engine.run(&remote).unwrap().makespan;
        assert!(tl < tr, "local {tl} remote {tr}");
    }

    #[test]
    fn stats_tally_by_level() {
        let layout = ClusterLayout::with_groups(4, 2, 2, 2); // 16 ranks, groups of 2 nodes
        let mut s = Schedule::new(16);
        s.push(
            0,
            vec![
                msg(0, 1, 10, 0, 0),
                msg(0, 2, 20, 1, 0),
                msg(0, 4, 30, 2, 0),
                msg(0, 8, 40, 3, 0),
            ],
        );
        for dst in [1, 2, 4, 8] {
            s.push(dst, vec![]);
        }
        let r = flat_engine_run(&layout, 1e-6, 1e9, NicMode::TxRx, &s);
        assert_eq!(r.stats.msgs, [1, 1, 1, 1]);
        assert_eq!(r.stats.bytes, [10, 20, 30, 40]);
        assert_eq!(r.stats.total_msgs(), 4);
        assert_eq!(r.stats.internode_msgs(), 2);
    }

    #[test]
    fn global_links_serialize_intergroup_traffic() {
        // groups of one node; two senders in group 0's two... use
        // 4 nodes, 2 per group: nodes 0,1 = group 0; nodes 2,3 = group 1.
        // Ranks on nodes 0 and 1 both send to group 1: with global links
        // enabled the two transfers share group 0's egress queue.
        let layout = ClusterLayout::with_groups(4, 1, 1, 2);
        let mut s = Schedule::new(4);
        s.push(0, vec![msg(0, 2, 1_000_000, 0, 0)]);
        s.push(1, vec![msg(1, 3, 1_000_000, 1, 0)]);
        s.push(2, vec![]);
        s.push(3, vec![]);
        let mut without = SimConfig::niagara();
        without.global_links = None;
        let mut with = SimConfig::niagara();
        with.global_links = Some(GlobalLinkConfig { bytes_per_sec: 1e9, gap: 0.02e-6 });
        let t0 = Engine::new(&layout, without).run(&s).unwrap().makespan;
        let t1 = Engine::new(&layout, with).run(&s).unwrap().makespan;
        assert!(t1 > t0 * 1.5, "global links must throttle: {t0} vs {t1}");
        // intra-group traffic is unaffected by global links
        let mut intra = Schedule::new(4);
        intra.push(0, vec![msg(0, 1, 1_000_000, 0, 0)]);
        intra.push(1, vec![]);
        let a = Engine::new(&layout, without).run(&intra).unwrap().makespan;
        let b = Engine::new(&layout, with).run(&intra).unwrap().makespan;
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn port_busy_accounts_for_all_occupancy() {
        let layout = ClusterLayout::new(2, 1, 1);
        let mut s = Schedule::new(2);
        s.push_phase(0, 3e-6, vec![msg(0, 1, 1000, 0, 0)]);
        s.push(1, vec![]);
        let cfg = SimConfig {
            hockney: HockneyParams::flat(1e-6, 1e9),
            nic_mode: NicMode::Off,
            cpu_overhead: Some(0.5e-6),
            nic_gap: None,
            global_links: None,
        };
        let rep = Engine::new(&layout, cfg).run(&s).unwrap();
        let occ = 0.5e-6 + 1e-6; // o + m/β
        assert!((rep.port_busy[0] - (3e-6 + occ)).abs() < 1e-15, "{}", rep.port_busy[0]);
        assert!((rep.port_busy[1] - occ).abs() < 1e-15, "{}", rep.port_busy[1]);
    }

    #[test]
    fn loggp_overhead_pipelines_back_to_back_sends() {
        // k small sends cost k·o of port time, not k·(α + m/β): the last
        // arrival is (k-1)·o + α + m/β.
        let layout = ClusterLayout::new(8, 1, 1);
        let k = 5usize;
        let o = 0.2e-6;
        let alpha = 2.0e-6;
        let mut s = Schedule::new(8);
        let sends: Vec<Msg> = (1..=k).map(|d| msg(0, d, 0, d as u64, 0)).collect();
        s.push(0, sends);
        for d in 1..=k {
            s.push(d, vec![]);
        }
        let cfg = SimConfig {
            hockney: HockneyParams::flat(alpha, 1e9),
            nic_mode: NicMode::Off,
            cpu_overhead: Some(o),
            nic_gap: None,
            global_links: None,
        };
        let rep = Engine::new(&layout, cfg).run(&s).unwrap();
        let expect = (k - 1) as f64 * o + alpha;
        assert!(
            (rep.makespan - expect).abs() < 1e-12,
            "makespan {} vs LogGP expectation {}",
            rep.makespan,
            expect
        );
        // classic mode serializes the full α per message instead
        let classic = SimConfig::classic(HockneyParams::flat(alpha, 1e9), NicMode::Off);
        let rep2 = Engine::new(&layout, classic).run(&s).unwrap();
        assert!((rep2.makespan - k as f64 * alpha).abs() < 1e-12, "{}", rep2.makespan);
    }

    #[test]
    fn relay_chain_costs_one_wire_latency_per_hop() {
        // 0 -> 1 -> 2 -> 3 store-and-forward: each hop adds α + m/β to
        // the critical path (plus negligible o).
        let layout = ClusterLayout::new(4, 1, 1);
        let m_bytes = 1000;
        let mut s = Schedule::new(4);
        s.push(0, vec![msg(0, 1, m_bytes, 0, 0)]);
        s.push(1, vec![]);
        s.push(1, vec![msg(1, 2, m_bytes, 1, 0)]);
        s.push(2, vec![]);
        s.push(2, vec![msg(2, 3, m_bytes, 2, 0)]);
        s.push(3, vec![]);
        let alpha = 1e-6;
        let cfg = SimConfig {
            hockney: HockneyParams::flat(alpha, 1e9),
            nic_mode: NicMode::Off,
            cpu_overhead: Some(0.0),
            nic_gap: None,
            global_links: None,
        };
        let rep = Engine::new(&layout, cfg).run(&s).unwrap();
        let hop = alpha + m_bytes as f64 / 1e9;
        assert!(
            (rep.makespan - 3.0 * hop).abs() < 1e-12,
            "makespan {} vs 3 hops {}",
            rep.makespan,
            3.0 * hop
        );
    }

    #[test]
    fn traces_cover_every_message_in_causal_order() {
        let layout = ClusterLayout::new(2, 1, 2);
        let mut s = Schedule::new(4);
        s.push(0, vec![msg(0, 1, 100, 0, 0), msg(0, 2, 100, 1, 0)]);
        s.push(1, vec![]);
        s.push(2, vec![msg(2, 3, 100, 2, 0)]);
        s.push(3, vec![]);
        let engine = Engine::new(&layout, SimConfig::niagara());
        let (report, traces) = engine.run_traced(&s).unwrap();
        assert_eq!(traces.len(), 3);
        for t in &traces {
            assert!(t.arrival >= t.posted);
            assert!(t.arrival <= report.makespan + 1e-15);
        }
        // sorted by posting time
        for w in traces.windows(2) {
            assert!(w[0].posted <= w[1].posted);
        }
        // CSV render
        let mut buf = Vec::new();
        write_trace_csv(&traces, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("src,dst,tag,bytes,level,posted,arrival"));
    }

    #[test]
    fn run_recorded_replays_every_message() {
        let layout = ClusterLayout::new(2, 1, 2); // 4 ranks, sockets of 2
        let mut s = Schedule::new(4);
        s.push(0, vec![msg(0, 1, 100, 0, 0), msg(0, 2, 100, 1, 0)]);
        s.push(1, vec![]);
        s.push(2, vec![msg(2, 3, 100, 2, 0)]);
        s.push(3, vec![]);
        let engine = Engine::new(&layout, SimConfig::niagara());
        let rec = nhood_telemetry::CountingRecorder::new(4);
        let prepared = engine.prepare(&s).unwrap();
        let recorded =
            |rec| engine.run_prepared(&prepared, &PriceColumns::from(&s), None, Some(rec));
        let report = recorded(&rec).unwrap();
        assert_eq!(report.makespan, engine.run(&s).unwrap().makespan);
        let totals = rec.totals();
        assert_eq!(totals.msgs_sent, 3);
        assert_eq!(totals.msgs_recvd, 3);
        assert_eq!(totals.bytes_sent, 300);
        assert_eq!(totals.bytes_recvd, 300);
        assert_eq!(rec.per_rank(0).msgs_sent, 2);
        assert_eq!(rec.per_rank(3).msgs_recvd, 1);
        // span replay: one Complete span per message, labelled by locality
        let spans = nhood_telemetry::SpanRecorder::new();
        recorded(&spans).unwrap();
        let events = spans.events();
        assert_eq!(events.len(), 3);
        let intra =
            events.iter().filter(|e| e.label == nhood_telemetry::labels::INTRA_SOCKET).count();
        assert_eq!(intra, 2); // 0->1 and 2->3 are same-socket
        for e in &events {
            match e.kind {
                nhood_telemetry::EventKind::Complete { dur_us } => assert!(dur_us >= 0.0),
                ref k => panic!("expected Complete, got {k:?}"),
            }
        }
    }

    #[test]
    fn deadlock_detected() {
        let layout = ClusterLayout::new(2, 1, 1);
        let mut s = Schedule::new(2);
        // each waits for the other's phase-1 send in phase 0: cycle
        s.push(0, vec![]);
        s.push(0, vec![msg(0, 1, 8, 1, 0)]);
        s.push(1, vec![]);
        s.push(1, vec![msg(1, 0, 8, 0, 0)]);
        let cfg = SimConfig::classic(HockneyParams::flat(1e-6, 1e9), NicMode::Off);
        match Engine::new(&layout, cfg).run(&s) {
            Err(SimError::Deadlock(blocked)) => {
                assert_eq!(blocked, vec![(0, 0), (1, 0)]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn invalid_schedule_is_rejected() {
        let layout = ClusterLayout::new(2, 1, 1);
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 1, 8, 0, 0)]);
        let cfg = SimConfig::niagara();
        assert!(matches!(Engine::new(&layout, cfg).run(&s), Err(SimError::InvalidSchedule(_))));
    }

    #[test]
    fn layout_capacity_enforced() {
        let layout = ClusterLayout::new(1, 1, 2);
        let s = Schedule::new(5);
        let cfg = SimConfig::niagara();
        assert!(matches!(
            Engine::new(&layout, cfg).run(&s),
            Err(SimError::LayoutTooSmall { ranks: 5, capacity: 2 })
        ));
    }

    #[test]
    fn empty_schedule_finishes_at_zero() {
        let layout = ClusterLayout::new(1, 1, 4);
        let s = Schedule::new(4);
        let r = Engine::new(&layout, SimConfig::niagara()).run(&s).unwrap();
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn perturbation_slows_stragglers_and_jittered_messages() {
        let layout = ClusterLayout::new(2, 1, 1);
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 1, 1000, 0, 0)]);
        s.push(1, vec![]);
        let cfg = SimConfig::classic(HockneyParams::flat(1e-6, 1e9), NicMode::Off);
        let engine = Engine::new(&layout, cfg);
        let base = engine.run(&s).unwrap().makespan;
        // straggler: rank 0 stalls 10µs before sending
        let slow = crate::Perturbation {
            seed: 1,
            rank_stall: vec![10e-6, 0.0],
            ..crate::Perturbation::none()
        };
        let t = engine.run_perturbed(&s, &slow).unwrap().makespan;
        assert!((t - (base + 10e-6)).abs() < 1e-12, "base {base} perturbed {t}");
        // guaranteed jitter delays the arrival by up to max_jitter
        let jittery = crate::Perturbation {
            seed: 1,
            jitter_p: 1.0,
            max_jitter: 5e-6,
            ..crate::Perturbation::none()
        };
        let tj = engine.run_perturbed(&s, &jittery).unwrap().makespan;
        assert!(tj > base && tj < base + 5e-6, "base {base} jittered {tj}");
        // a no-op perturbation changes nothing
        let t0 = engine.run_perturbed(&s, &crate::Perturbation::none()).unwrap().makespan;
        assert_eq!(t0, base);
    }

    #[test]
    fn dead_link_fails_the_run_typed() {
        let layout = ClusterLayout::new(2, 1, 1);
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 1, 1000, 0, 0)]);
        s.push(1, vec![]);
        let cfg = SimConfig::classic(HockneyParams::flat(1e-6, 1e9), NicMode::Off);
        let engine = Engine::new(&layout, cfg);
        let dead =
            crate::Perturbation { dead_links: vec![(0, 1), (1, 0)], ..crate::Perturbation::none() };
        assert_eq!(
            engine.run_perturbed(&s, &dead).unwrap_err(),
            SimError::LinkDown { src: 0, dst: 1 }
        );
        // a dead link the schedule never uses is harmless
        let unused =
            crate::Perturbation { dead_links: vec![(1, 0)], ..crate::Perturbation::none() };
        assert!(engine.run_perturbed(&s, &unused).is_ok());
    }

    /// One valid message plus a way to run it under a perturbation with
    /// one field overridden.
    fn perturbed_err(p: crate::Perturbation) -> SimError {
        let layout = ClusterLayout::new(2, 1, 1);
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 1, 1000, 0, 0)]);
        s.push(1, vec![]);
        Engine::new(&layout, SimConfig::niagara()).run_perturbed(&s, &p).unwrap_err()
    }

    #[test]
    fn bad_rank_stall_is_rejected_typed() {
        for stall in [f64::NAN, f64::INFINITY, -1e-6] {
            let p =
                crate::Perturbation { rank_stall: vec![0.0, stall], ..crate::Perturbation::none() };
            match perturbed_err(p) {
                SimError::InvalidPerturbation(m) => assert!(m.contains("rank_stall[1]"), "{m}"),
                other => panic!("stall {stall}: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_jitter_probability_is_rejected_typed() {
        for jitter_p in [f64::NAN, -0.1, 1.5] {
            let p =
                crate::Perturbation { jitter_p, max_jitter: 1e-6, ..crate::Perturbation::none() };
            match perturbed_err(p) {
                SimError::InvalidPerturbation(m) => assert!(m.contains("jitter_p"), "{m}"),
                other => panic!("jitter_p {jitter_p}: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_max_jitter_is_rejected_typed() {
        for max_jitter in [f64::NAN, f64::INFINITY, -1e-6] {
            let p =
                crate::Perturbation { jitter_p: 1.0, max_jitter, ..crate::Perturbation::none() };
            match perturbed_err(p) {
                SimError::InvalidPerturbation(m) => assert!(m.contains("max_jitter"), "{m}"),
                other => panic!("max_jitter {max_jitter}: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_cost_model_is_rejected_typed_per_field() {
        let layout = ClusterLayout::new(2, 1, 1);
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 1, 1000, 0, 0)]);
        s.push(1, vec![]);
        let run = |cfg| Engine::new(&layout, cfg).run(&s);
        let base =
            SimConfig { global_links: Some(GlobalLinkConfig::niagara()), ..SimConfig::niagara() };
        type Set = fn(&mut SimConfig, f64);
        let durations: [(&str, Set); 7] = [
            ("hockney.same_socket.alpha", |c, v| c.hockney.same_socket.alpha = v),
            ("hockney.same_node.alpha", |c, v| c.hockney.same_node.alpha = v),
            ("hockney.same_group.alpha", |c, v| c.hockney.same_group.alpha = v),
            ("hockney.remote_group.alpha", |c, v| c.hockney.remote_group.alpha = v),
            ("cpu_overhead", |c, v| c.cpu_overhead = Some(v)),
            ("nic_gap", |c, v| c.nic_gap = Some(v)),
            ("global_links.gap", |c, v| c.global_links.as_mut().unwrap().gap = v),
        ];
        let bandwidths: [(&str, Set); 5] = [
            ("hockney.same_socket.bytes_per_sec", |c, v| c.hockney.same_socket.bytes_per_sec = v),
            ("hockney.same_node.bytes_per_sec", |c, v| c.hockney.same_node.bytes_per_sec = v),
            ("hockney.same_group.bytes_per_sec", |c, v| c.hockney.same_group.bytes_per_sec = v),
            ("hockney.remote_group.bytes_per_sec", |c, v| c.hockney.remote_group.bytes_per_sec = v),
            ("global_links.bytes_per_sec", |c, v| {
                c.global_links.as_mut().unwrap().bytes_per_sec = v
            }),
        ];
        let cases = durations.iter().map(|f| (f, [f64::NAN, -1e-6, f64::INFINITY], 0.0));
        let cases =
            cases.chain(bandwidths.iter().map(|f| (f, [f64::NAN, 0.0, -1e9], f64::INFINITY)));
        for (&(field, set), bad, good) in cases {
            for v in bad {
                let mut cfg = base;
                set(&mut cfg, v);
                match run(cfg) {
                    Err(SimError::InvalidConfig(m)) => assert!(m.starts_with(field), "{m}"),
                    other => panic!("{field} = {v}: {other:?}"),
                }
            }
            // a free latency or an infinitely fast link is a legal model
            let mut cfg = base;
            set(&mut cfg, good);
            assert!(run(cfg).is_ok(), "{field} = {good}");
        }
    }

    #[test]
    fn dead_link_is_checked_after_validation_and_capacity() {
        let dead = crate::Perturbation { dead_links: vec![(0, 1)], ..crate::Perturbation::none() };
        let cfg = SimConfig::niagara();
        // invalid schedule over the dead link: validation speaks first
        let layout = ClusterLayout::new(2, 1, 1);
        let mut phaseless = Schedule::new(2);
        phaseless.push(0, vec![msg(0, 1, 8, 0, 0)]);
        assert!(matches!(
            Engine::new(&layout, cfg).run_perturbed(&phaseless, &dead),
            Err(SimError::InvalidSchedule(_))
        ));
        // valid schedule over the dead link on too small a layout: capacity next
        let mut s = Schedule::new(2);
        s.push(0, vec![msg(0, 1, 8, 0, 0)]);
        s.push(1, vec![]);
        let tiny = ClusterLayout::new(1, 1, 1);
        assert!(matches!(
            Engine::new(&tiny, cfg).run_perturbed(&s, &dead),
            Err(SimError::LayoutTooSmall { ranks: 2, capacity: 1 })
        ));
    }

    #[test]
    fn naive_alltoall_matches_closed_form() {
        // k ranks on one node, flat params, all-to-all of m bytes:
        // per rank: (k-1) serialized sends + (k-1) serialized recvs
        // => makespan = 2 (k-1) (α + m/β).
        let k = 5usize;
        let layout = ClusterLayout::new(1, 1, k);
        let mut s = Schedule::new(k);
        for r in 0..k {
            let sends = (0..k).filter(|&d| d != r).map(|d| msg(r, d, 1000, (r * k + d) as u64, 0));
            s.push(r, sends);
        }
        let rep = flat_engine_run(&layout, 1e-6, 1e9, NicMode::Off, &s);
        let t = 1e-6 + 1000.0 / 1e9;
        let expect = 2.0 * (k - 1) as f64 * t;
        assert!(
            (rep.makespan - expect).abs() / expect < 0.05,
            "makespan {} vs closed form {}",
            rep.makespan,
            expect
        );
    }
}
