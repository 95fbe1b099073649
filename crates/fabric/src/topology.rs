//! Fabric topologies.
//!
//! The prototype (paper Fig 4) is an 8-node 3D mesh; §4.2.2 additionally
//! studies a one-level external router between two nodes, and §5.1.1 makes
//! "switchless" direct chip-to-chip connection a headline feature. All
//! three appear here: [`Mesh3d`], [`Topology::StarRouter`], and
//! [`Topology::Direct`].

use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Identifier of a node in the cluster.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u16);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// 3D coordinates of a node inside a mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// X position.
    pub x: u16,
    /// Y position.
    pub y: u16,
    /// Z position.
    pub z: u16,
}

/// A 3D mesh of nodes, as in the 8-node (2×2×2) prototype.
///
/// Node ids run x-fastest, then y, then z. The mesh keeps each node's
/// coordinates in a table built once, so coordinate, hop and distance
/// reads are lookups, not divisions; clones share the table.
///
/// # Example
///
/// ```
/// use venice_fabric::topology::{Mesh3d, NodeId};
/// let m = Mesh3d::new(2, 2, 2);
/// assert_eq!(m.hops(NodeId(0), NodeId(7)), 3);
/// assert_eq!(m.neighbors(NodeId(0)).len(), 3);
/// ```
#[derive(Clone)]
pub struct Mesh3d {
    dx: u16,
    dy: u16,
    dz: u16,
    /// Coordinates of every node, indexed by node id.
    coords: Arc<[Coord]>,
}

impl PartialEq for Mesh3d {
    fn eq(&self, other: &Self) -> bool {
        // The coordinate table follows from the dimensions.
        (self.dx, self.dy, self.dz) == (other.dx, other.dy, other.dz)
    }
}

impl Eq for Mesh3d {}

impl std::fmt::Debug for Mesh3d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mesh3d")
            .field("dx", &self.dx)
            .field("dy", &self.dy)
            .field("dz", &self.dz)
            .finish()
    }
}

impl Mesh3d {
    /// Creates a mesh of `dx × dy × dz` nodes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or if the mesh has more nodes
    /// than [`NodeId`] can name.
    pub fn new(dx: u16, dy: u16, dz: u16) -> Self {
        assert!(
            dx > 0 && dy > 0 && dz > 0,
            "mesh dimensions must be positive"
        );
        let len = dx as usize * dy as usize * dz as usize;
        assert!(
            u16::try_from(len).is_ok(),
            "a {dx}x{dy}x{dz} mesh has more nodes than node ids"
        );
        // The only divisions: ids run x-fastest, then y, then z.
        let coords = (0..len as u16)
            .map(|n| Coord {
                x: n % dx,
                y: n / dx % dy,
                z: n / dx / dy,
            })
            .collect();
        Mesh3d { dx, dy, dz, coords }
    }

    /// The paper's 8-node 2×2×2 prototype mesh.
    pub fn prototype() -> Self {
        Mesh3d::new(2, 2, 2)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.dx as usize * self.dy as usize * self.dz as usize
    }

    /// Whether the mesh is empty (never true; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Coordinates of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coord(&self, node: NodeId) -> Coord {
        match self.coords.get(node.0 as usize) {
            Some(&c) => c,
            None => panic!("node {node} out of range"),
        }
    }

    /// Node at coordinates.
    ///
    /// # Panics
    ///
    /// Panics if coordinates are out of range.
    pub fn node_at(&self, c: Coord) -> NodeId {
        assert!(
            c.x < self.dx && c.y < self.dy && c.z < self.dz,
            "coordinate out of range"
        );
        NodeId(c.x + c.y * self.dx + c.z * self.dx * self.dy)
    }

    /// Manhattan hop count between two nodes (minimal-path length).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let ca = self.coord(a);
        let cb = self.coord(b);
        (ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y) + ca.z.abs_diff(cb.z)) as u32
    }

    /// Dimension-ordered (XYZ) minimal path from `a` to `b`, excluding `a`
    /// and including `b`. Empty when `a == b`.
    pub fn route(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let mut cur = self.coord(a);
        let dst = self.coord(b);
        let mut path = Vec::with_capacity(self.hops(a, b) as usize);
        while cur.x != dst.x {
            cur.x = if dst.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            path.push(self.node_at(cur));
        }
        while cur.y != dst.y {
            cur.y = if dst.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            path.push(self.node_at(cur));
        }
        while cur.z != dst.z {
            cur.z = if dst.z > cur.z { cur.z + 1 } else { cur.z - 1 };
            path.push(self.node_at(cur));
        }
        path
    }

    /// Direct mesh neighbors of `node`.
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let c = self.coord(node);
        let mut out = Vec::new();
        if c.x > 0 {
            out.push(self.node_at(Coord { x: c.x - 1, ..c }));
        }
        if c.x + 1 < self.dx {
            out.push(self.node_at(Coord { x: c.x + 1, ..c }));
        }
        if c.y > 0 {
            out.push(self.node_at(Coord { y: c.y - 1, ..c }));
        }
        if c.y + 1 < self.dy {
            out.push(self.node_at(Coord { y: c.y + 1, ..c }));
        }
        if c.z > 0 {
            out.push(self.node_at(Coord { z: c.z - 1, ..c }));
        }
        if c.z + 1 < self.dz {
            out.push(self.node_at(Coord { z: c.z + 1, ..c }));
        }
        out
    }

    /// Hop count from `center` to the farthest node of the mesh.
    pub fn max_hops_from(&self, center: NodeId) -> u32 {
        let c = self.coord(center);
        let reach = |at: u16, dim: u16| u32::from(at.max(dim - 1 - at));
        reach(c.x, self.dx) + reach(c.y, self.dy) + reach(c.z, self.dz)
    }

    /// The lowest-numbered node exactly `hops` hops from `center` that
    /// satisfies `pred`. The shell is visited in ascending id order and
    /// the walk stops at the first match, so `pred` sees only the nodes
    /// up to it.
    pub fn first_in_shell(
        &self,
        center: NodeId,
        hops: u32,
        mut pred: impl FnMut(NodeId) -> bool,
    ) -> Option<NodeId> {
        let c = self.coord(center);
        let d = i32::try_from(hops).ok()?;
        // Coordinates within `r` of `at` along an axis of `dim` nodes.
        let span = |at: u16, r: i32, dim: u16| {
            (i32::from(at) - r).max(0)..=(i32::from(at) + r).min(i32::from(dim) - 1)
        };
        let (dx, dy) = (i32::from(self.dx), i32::from(self.dy));
        // z outermost, then y, then x: ids come out ascending.
        for z in span(c.z, d, self.dz) {
            let ry = d - (z - i32::from(c.z)).abs();
            for y in span(c.y, ry, self.dy) {
                let rx = ry - (y - i32::from(c.y)).abs();
                let row = (z * dy + y) * dx;
                let x0 = i32::from(c.x);
                let xs = [x0 - rx, x0 + rx].into_iter().take(1 + usize::from(rx > 0));
                for x in xs.filter(|x| (0..dx).contains(x)) {
                    let node = NodeId((row + x) as u16);
                    if pred(node) {
                        return Some(node);
                    }
                }
            }
        }
        None
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u16).map(NodeId)
    }
}

/// How nodes are wired together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// Two (or more) nodes pairwise directly connected — the "switchless"
    /// chip-to-chip mode used in §4.2.1's latency study.
    Direct {
        /// Number of nodes, all mutually one hop apart.
        nodes: u16,
    },
    /// All nodes hang off one external router — §4.2.2's "one-level
    /// router" configuration. Every path is two link traversals plus a
    /// router transit.
    StarRouter {
        /// Number of leaf nodes.
        nodes: u16,
    },
    /// 3D mesh with per-hop embedded switches — the 8-node prototype.
    Mesh(Mesh3d),
}

impl Topology {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        match self {
            Topology::Direct { nodes } | Topology::StarRouter { nodes } => *nodes as usize,
            Topology::Mesh(m) => m.len(),
        }
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of node-to-node link traversals between `a` and `b`.
    pub fn link_hops(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return 0;
        }
        match self {
            Topology::Direct { .. } => 1,
            Topology::StarRouter { .. } => 2,
            Topology::Mesh(m) => m.hops(a, b),
        }
    }

    /// Number of intermediate switch/router transits between `a` and `b`
    /// (not counting the embedded switches at the endpoints, whose cost is
    /// part of the channel interface latency).
    pub fn transit_switches(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return 0;
        }
        match self {
            Topology::Direct { .. } => 0,
            Topology::StarRouter { .. } => 1,
            // Each intermediate mesh node's embedded switch forwards.
            Topology::Mesh(m) => m.hops(a, b).saturating_sub(1),
        }
    }

    /// Whether the path between `a` and `b` crosses an *external* router
    /// (vs only embedded on-chip switches).
    pub fn crosses_external_router(&self, a: NodeId, b: NodeId) -> bool {
        matches!(self, Topology::StarRouter { .. }) && a != b
    }

    /// Distance metric used by the runtime's donor-selection policy.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.link_hops(a, b)
    }

    /// [`distance`](Self::distance) from `center` to the farthest node.
    pub fn max_distance(&self, center: NodeId) -> u32 {
        match self {
            Topology::Mesh(m) => m.max_hops_from(center),
            _ if self.len() < 2 => 0,
            _ => self.link_hops(center, NodeId(u16::from(center.0 == 0))),
        }
    }

    /// The lowest-numbered node at [`distance`](Self::distance) exactly
    /// `d` from `center` that satisfies `pred`, visiting that distance
    /// shell in ascending id order and stopping at the first match.
    /// Walking `d` upward from 0 therefore meets nodes in
    /// `(distance, id)` order.
    pub fn first_in_shell(
        &self,
        center: NodeId,
        d: u32,
        mut pred: impl FnMut(NodeId) -> bool,
    ) -> Option<NodeId> {
        match self {
            Topology::Mesh(m) => m.first_in_shell(center, d, pred),
            _ if d == 0 => Some(center).filter(|&n| pred(n)),
            // Every other node sits at the one nonzero distance.
            _ if d == self.max_distance(center) => (0..self.len() as u16)
                .map(NodeId)
                .find(|&n| n != center && pred(n)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let m = Mesh3d::new(3, 4, 5);
        for n in m.nodes() {
            assert_eq!(m.node_at(m.coord(n)), n);
        }
    }

    #[test]
    fn prototype_is_eight_nodes() {
        let m = Mesh3d::prototype();
        assert_eq!(m.len(), 8);
        // Opposite corners of a 2x2x2 cube are 3 hops apart.
        assert_eq!(m.hops(NodeId(0), NodeId(7)), 3);
        assert_eq!(m.hops(NodeId(3), NodeId(3)), 0);
    }

    #[test]
    fn route_length_matches_hops() {
        let m = Mesh3d::new(4, 3, 2);
        for a in m.nodes() {
            for b in m.nodes() {
                let r = m.route(a, b);
                assert_eq!(r.len() as u32, m.hops(a, b));
                if a != b {
                    assert_eq!(*r.last().unwrap(), b);
                }
            }
        }
    }

    #[test]
    fn route_steps_are_adjacent() {
        let m = Mesh3d::new(4, 4, 4);
        let mut prev = NodeId(0);
        for step in m.route(NodeId(0), NodeId(63)) {
            assert_eq!(m.hops(prev, step), 1);
            prev = step;
        }
    }

    #[test]
    fn corner_has_three_neighbors_in_cube() {
        let m = Mesh3d::prototype();
        assert_eq!(m.neighbors(NodeId(0)).len(), 3);
        // Interior node of a 3x3x3 mesh has 6 neighbors.
        let m3 = Mesh3d::new(3, 3, 3);
        let center = m3.node_at(Coord { x: 1, y: 1, z: 1 });
        assert_eq!(m3.neighbors(center).len(), 6);
    }

    #[test]
    fn direct_vs_router_hop_counts() {
        let d = Topology::Direct { nodes: 2 };
        let r = Topology::StarRouter { nodes: 2 };
        assert_eq!(d.link_hops(NodeId(0), NodeId(1)), 1);
        assert_eq!(r.link_hops(NodeId(0), NodeId(1)), 2);
        assert_eq!(d.transit_switches(NodeId(0), NodeId(1)), 0);
        assert_eq!(r.transit_switches(NodeId(0), NodeId(1)), 1);
        assert!(r.crosses_external_router(NodeId(0), NodeId(1)));
        assert!(!d.crosses_external_router(NodeId(0), NodeId(1)));
        assert!(!r.crosses_external_router(NodeId(1), NodeId(1)));
    }

    #[test]
    fn mesh_topology_transits() {
        let t = Topology::Mesh(Mesh3d::prototype());
        assert_eq!(t.link_hops(NodeId(0), NodeId(7)), 3);
        assert_eq!(t.transit_switches(NodeId(0), NodeId(7)), 2);
        assert_eq!(t.transit_switches(NodeId(0), NodeId(1)), 0);
        assert_eq!(t.distance(NodeId(0), NodeId(7)), 3);
    }

    #[test]
    fn coordinate_table_matches_the_id_layout() {
        let m = Mesh3d::new(5, 3, 2);
        for n in m.nodes() {
            let i = n.0;
            let want = Coord {
                x: i % 5,
                y: (i / 5) % 3,
                z: i / 15,
            };
            assert_eq!(m.coord(n), want);
        }
        assert_eq!(m, m.clone());
        assert_ne!(m, Mesh3d::new(5, 3, 1));
        assert_eq!(format!("{m:?}"), "Mesh3d { dx: 5, dy: 3, dz: 2 }");
    }

    /// Every topology's shells, walked outward, meet nodes in the
    /// `(distance, id)` order a full sort gives.
    #[test]
    fn shell_walks_meet_nodes_in_distance_then_id_order() {
        let topologies = [
            Topology::Mesh(Mesh3d::new(4, 3, 2)),
            Topology::Mesh(Mesh3d::new(1, 5, 1)),
            Topology::Mesh(Mesh3d::new(1, 1, 1)),
            Topology::Direct { nodes: 4 },
            Topology::StarRouter { nodes: 3 },
            Topology::Direct { nodes: 1 },
        ];
        for t in &topologies {
            for center in (0..t.len() as u16).map(NodeId) {
                let mut want: Vec<NodeId> = (0..t.len() as u16).map(NodeId).collect();
                want.sort_by_key(|&n| (t.distance(center, n), n));
                let far = t.max_distance(center);
                assert_eq!(Some(far), want.iter().map(|&n| t.distance(center, n)).max());
                let mut got = Vec::new();
                for d in 0..=far + 1 {
                    // A predicate that refuses everything sees the whole
                    // shell; one that takes everything stops at its head.
                    let mut shell = Vec::new();
                    assert_eq!(
                        t.first_in_shell(center, d, |n| {
                            shell.push(n);
                            false
                        }),
                        None
                    );
                    assert_eq!(
                        t.first_in_shell(center, d, |_| true),
                        shell.first().copied()
                    );
                    got.extend(shell);
                }
                assert_eq!(got, want, "{t:?} from {center}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_dimension_rejected() {
        Mesh3d::new(0, 2, 2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_node_rejected() {
        Mesh3d::prototype().coord(NodeId(8));
    }
}
