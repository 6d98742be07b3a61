//! Cluster layout: how ranks map onto nodes, sockets and cores.
//!
//! The Distance Halving algorithm is built around physical locality:
//! halving stops once a half fits on one **socket** (`L` ranks), and the
//! simulator charges different α/β per locality level. This module models
//! the block rank placement used on the paper's Niagara runs (consecutive
//! ranks fill a socket, then the next socket, then the next node) plus a
//! round-robin alternative for placement ablations.

/// A rank identifier, `0..n`.
pub type Rank = usize;

/// Physical position of a rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Location {
    /// Node index.
    pub node: usize,
    /// Socket index within the node.
    pub socket: usize,
    /// Core index within the socket.
    pub core: usize,
}

/// How close two ranks are, from the network's point of view.
///
/// Ordered from cheapest to most expensive; the simulator and the Hockney
/// parameter set key off this.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Locality {
    /// Same node, same socket: shared-memory, shared L3.
    SameSocket,
    /// Same node, different socket: shared-memory across the NUMA link.
    SameNode,
    /// Different nodes within one (Dragonfly+) group: one local hop.
    SameGroup,
    /// Different groups: traverses a global link.
    RemoteGroup,
}

/// Rank-to-core placement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Consecutive ranks fill a socket, then the node, then the next node
    /// (`--map-by core`, the paper's configuration).
    Block,
    /// Rank `r` goes to node `r % nodes` (`--map-by node`); used only for
    /// placement ablations.
    RoundRobinNodes,
}

/// A homogeneous cluster: `nodes × sockets_per_node × cores_per_socket`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterLayout {
    nodes: usize,
    sockets_per_node: usize,
    cores_per_socket: usize,
    nodes_per_group: usize,
    placement: Placement,
    /// Physical slot of each logical node: `node_map[i]` is where logical
    /// node `i` actually sits in the machine (group membership follows
    /// the physical slot). Identity unless a job-placement permutation
    /// was applied — models batch schedulers handing a job different
    /// nodes on every submission, the variance source §VII-B discusses.
    node_map: Option<Vec<usize>>,
}

impl ClusterLayout {
    /// Creates a block-placed layout with every node in one group.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(nodes: usize, sockets_per_node: usize, cores_per_socket: usize) -> Self {
        Self::with_groups(nodes, sockets_per_node, cores_per_socket, nodes.max(1))
    }

    /// Creates a block-placed layout with `nodes_per_group` nodes per
    /// Dragonfly+-style group.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn with_groups(
        nodes: usize,
        sockets_per_node: usize,
        cores_per_socket: usize,
        nodes_per_group: usize,
    ) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(sockets_per_node > 0, "need at least one socket per node");
        assert!(cores_per_socket > 0, "need at least one core per socket");
        assert!(nodes_per_group > 0, "need at least one node per group");
        Self {
            nodes,
            sockets_per_node,
            cores_per_socket,
            nodes_per_group,
            placement: Placement::Block,
            node_map: None,
        }
    }

    /// Niagara-like preset: the paper's testbed has 40-core nodes split
    /// over two sockets; jobs in the paper use 32–36 ranks per node. This
    /// preset takes the number of nodes and the ranks actually used per
    /// node (must be even, split evenly across the two sockets).
    ///
    /// # Panics
    /// Panics if `ranks_per_node` is odd or zero.
    pub fn niagara(nodes: usize, ranks_per_node: usize) -> Self {
        assert!(
            ranks_per_node > 0 && ranks_per_node.is_multiple_of(2),
            "ranks_per_node must be positive and even, got {ranks_per_node}"
        );
        Self::with_groups(nodes, 2, ranks_per_node / 2, 16)
    }

    /// Switches the placement policy (builder style).
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Applies a job-placement permutation: logical node `i` is hosted on
    /// physical slot `perm[i]`. Group membership (and therefore
    /// same-group vs remote-group locality) follows the physical slot —
    /// rerunning an experiment under different permutations reproduces
    /// the run-to-run variance of real batch allocations.
    ///
    /// # Panics
    /// Panics unless `perm` is a permutation of `0..nodes`.
    pub fn with_node_permutation(mut self, perm: Vec<usize>) -> Self {
        assert_eq!(perm.len(), self.nodes, "permutation must cover all nodes");
        let mut seen = vec![false; self.nodes];
        for &slot in &perm {
            assert!(slot < self.nodes, "slot {slot} out of range");
            assert!(!std::mem::replace(&mut seen[slot], true), "slot {slot} repeated");
        }
        self.node_map = Some(perm);
        self
    }

    /// Total rank capacity of the cluster.
    pub fn capacity(&self) -> usize {
        self.nodes * self.sockets_per_node * self.cores_per_socket
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Sockets per node (`S` in the paper).
    pub fn sockets_per_node(&self) -> usize {
        self.sockets_per_node
    }

    /// Cores (ranks) per socket (`L` in the paper).
    pub fn ranks_per_socket(&self) -> usize {
        self.cores_per_socket
    }

    /// Ranks per node (`S·L`).
    pub fn ranks_per_node(&self) -> usize {
        self.sockets_per_node * self.cores_per_socket
    }

    /// Nodes per group.
    pub fn nodes_per_group(&self) -> usize {
        self.nodes_per_group
    }

    /// Current placement policy.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Physical location of `rank`.
    ///
    /// # Panics
    /// Panics if `rank >= capacity()`.
    pub fn location(&self, rank: Rank) -> Location {
        assert!(rank < self.capacity(), "rank {rank} exceeds capacity {}", self.capacity());
        match self.placement {
            Placement::Block => {
                let per_node = self.ranks_per_node();
                let node = rank / per_node;
                let within = rank % per_node;
                Location {
                    node,
                    socket: within / self.cores_per_socket,
                    core: within % self.cores_per_socket,
                }
            }
            Placement::RoundRobinNodes => {
                let node = rank % self.nodes;
                let within = rank / self.nodes;
                Location {
                    node,
                    socket: within / self.cores_per_socket,
                    core: within % self.cores_per_socket,
                }
            }
        }
    }

    /// Group index of a (logical) node, after any placement permutation.
    pub fn group_of_node(&self, node: usize) -> usize {
        let slot = match &self.node_map {
            Some(map) => map[node],
            None => node,
        };
        slot / self.nodes_per_group
    }

    /// Locality relation between two ranks. Two equal ranks are
    /// [`Locality::SameSocket`].
    pub fn locality(&self, a: Rank, b: Rank) -> Locality {
        let la = self.location(a);
        let lb = self.location(b);
        if la.node == lb.node {
            if la.socket == lb.socket {
                Locality::SameSocket
            } else {
                Locality::SameNode
            }
        } else if self.group_of_node(la.node) == self.group_of_node(lb.node) {
            Locality::SameGroup
        } else {
            Locality::RemoteGroup
        }
    }

    /// `true` if the two ranks share a node.
    pub fn same_node(&self, a: Rank, b: Rank) -> bool {
        self.location(a).node == self.location(b).node
    }

    /// The cluster-wide index of `rank`'s socket (`node · S + socket`):
    /// two ranks share a socket exactly when these agree.
    pub fn socket_index(&self, rank: Rank) -> usize {
        let at = self.location(rank);
        at.node * self.sockets_per_node + at.socket
    }

    /// `true` if the two ranks share a socket.
    pub fn same_socket(&self, a: Rank, b: Rank) -> bool {
        let la = self.location(a);
        let lb = self.location(b);
        la.node == lb.node && la.socket == lb.socket
    }

    /// With block placement, ranks on one socket form a contiguous range;
    /// returns that inclusive range for the socket containing `rank`.
    ///
    /// # Panics
    /// Panics under [`Placement::RoundRobinNodes`], where socket mates are
    /// not contiguous.
    pub fn socket_range(&self, rank: Rank) -> (Rank, Rank) {
        assert_eq!(
            self.placement,
            Placement::Block,
            "socket ranges are contiguous only under block placement"
        );
        let l = self.ranks_per_socket();
        let base = (rank / l) * l;
        (base, base + l - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement_fills_sockets_first() {
        let c = ClusterLayout::new(2, 2, 3); // 12 ranks
        assert_eq!(c.capacity(), 12);
        assert_eq!(c.location(0), Location { node: 0, socket: 0, core: 0 });
        assert_eq!(c.location(2), Location { node: 0, socket: 0, core: 2 });
        assert_eq!(c.location(3), Location { node: 0, socket: 1, core: 0 });
        assert_eq!(c.location(6), Location { node: 1, socket: 0, core: 0 });
        assert_eq!(c.location(11), Location { node: 1, socket: 1, core: 2 });
    }

    #[test]
    fn round_robin_placement_spreads_nodes() {
        let c = ClusterLayout::new(3, 1, 4).with_placement(Placement::RoundRobinNodes);
        assert_eq!(c.location(0).node, 0);
        assert_eq!(c.location(1).node, 1);
        assert_eq!(c.location(2).node, 2);
        assert_eq!(c.location(3).node, 0);
        assert_eq!(c.location(3).core, 1);
    }

    #[test]
    fn locality_levels() {
        let c = ClusterLayout::with_groups(4, 2, 2, 2); // groups {0,1}, {2,3}
        assert_eq!(c.locality(0, 1), Locality::SameSocket);
        assert_eq!(c.locality(0, 2), Locality::SameNode);
        assert_eq!(c.locality(0, 4), Locality::SameGroup); // node 1
        assert_eq!(c.locality(0, 8), Locality::RemoteGroup); // node 2
        assert_eq!(c.locality(5, 5), Locality::SameSocket);
        // symmetry
        assert_eq!(c.locality(8, 0), Locality::RemoteGroup);
    }

    #[test]
    fn locality_ordering_is_cost_ordering() {
        assert!(Locality::SameSocket < Locality::SameNode);
        assert!(Locality::SameNode < Locality::SameGroup);
        assert!(Locality::SameGroup < Locality::RemoteGroup);
    }

    #[test]
    fn niagara_preset_shape() {
        let c = ClusterLayout::niagara(60, 36);
        assert_eq!(c.capacity(), 2160);
        assert_eq!(c.sockets_per_node(), 2);
        assert_eq!(c.ranks_per_socket(), 18);
        assert_eq!(c.ranks_per_node(), 36);
        assert_eq!(c.nodes_per_group(), 16);
        // nodes 0..15 in group 0, 16.. in group 1
        assert_eq!(c.group_of_node(15), 0);
        assert_eq!(c.group_of_node(16), 1);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn niagara_rejects_odd_ranks_per_node() {
        ClusterLayout::niagara(4, 35);
    }

    #[test]
    fn socket_ranges_contiguous_under_block() {
        let c = ClusterLayout::new(2, 2, 4);
        assert_eq!(c.socket_range(0), (0, 3));
        assert_eq!(c.socket_range(3), (0, 3));
        assert_eq!(c.socket_range(4), (4, 7));
        assert_eq!(c.socket_range(15), (12, 15));
        // every rank in the range really shares the socket
        for r in 0..16 {
            let (lo, hi) = c.socket_range(r);
            for q in lo..=hi {
                assert!(c.same_socket(r, q));
            }
            if hi + 1 < 16 {
                assert!(!c.same_socket(r, hi + 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "block placement")]
    fn socket_range_requires_block() {
        ClusterLayout::new(2, 1, 2).with_placement(Placement::RoundRobinNodes).socket_range(0);
    }

    #[test]
    fn node_permutation_changes_groups_only() {
        let base = ClusterLayout::with_groups(4, 1, 2, 2); // groups {0,1},{2,3}
                                                           // swap nodes 1 and 2 across the group boundary
        let permuted = base.clone().with_node_permutation(vec![0, 2, 1, 3]);
        // same-node/socket locality is untouched
        assert_eq!(permuted.locality(0, 1), base.locality(0, 1));
        // node 1 now lives in group 1: ranks on nodes 0 and 1 are remote
        assert_eq!(base.locality(0, 2), Locality::SameGroup);
        assert_eq!(permuted.locality(0, 2), Locality::RemoteGroup);
        // and nodes 0, 2 now share a group
        assert_eq!(base.locality(0, 4), Locality::RemoteGroup);
        assert_eq!(permuted.locality(0, 4), Locality::SameGroup);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn bad_permutation_rejected() {
        ClusterLayout::new(3, 1, 1).with_node_permutation(vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn location_out_of_range() {
        ClusterLayout::new(1, 1, 2).location(2);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        ClusterLayout::new(0, 1, 1);
    }
}
