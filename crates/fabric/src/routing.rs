//! Network-layer routing table (paper Fig 8, right half).
//!
//! Each node's embedded switch forwards by destination node id through a
//! small table of `{valid, node id, out port, link status}` entries. We
//! also provide the generator that fills the tables for dimension-ordered
//! mesh routing, and a port-numbering convention for the radix-7 switch.

use crate::topology::{Mesh3d, NodeId};

/// Output port of the embedded switch.
///
/// Convention for the prototype's radix-7 switch: port 0 is the local
/// ejection port; ports 1–6 are −x, +x, −y, +y, −z, +z.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutPort(pub u8);

/// The local ejection port (deliver to this node's transport layer).
pub const LOCAL_PORT: OutPort = OutPort(0);

/// One routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Entry is populated and usable.
    pub valid: bool,
    /// Output port toward the destination.
    pub out_port: OutPort,
    /// Link health as reported by the runtime's Topology Status Table;
    /// routing through a down link fails the lookup.
    pub link_up: bool,
}

/// Per-node forwarding table indexed by destination node id.
///
/// # Example
///
/// ```
/// use venice_fabric::routing::RoutingTable;
/// use venice_fabric::topology::{Mesh3d, NodeId};
///
/// let mesh = Mesh3d::prototype();
/// let table = RoutingTable::for_mesh(&mesh, NodeId(0));
/// // Node 0 reaches itself on the local port.
/// assert_eq!(table.lookup(NodeId(0)).unwrap().0, 0);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    node: NodeId,
    /// The entry toward each destination id; `None` where no route was
    /// ever installed.
    entries: Vec<Option<RouteEntry>>,
}

impl RoutingTable {
    /// Creates an empty table for `node`.
    pub fn new(node: NodeId) -> Self {
        RoutingTable {
            node,
            entries: Vec::new(),
        }
    }

    /// The owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Installs or replaces the route toward `dst`.
    pub fn install(&mut self, dst: NodeId, out_port: OutPort) {
        let dst = dst.0 as usize;
        if self.entries.len() <= dst {
            self.entries.resize(dst + 1, None);
        }
        self.entries[dst] = Some(RouteEntry {
            valid: true,
            out_port,
            link_up: true,
        });
    }

    /// Marks the link behind `port` up or down (driven by the runtime's
    /// heartbeat link tests).
    pub fn set_link_status(&mut self, port: OutPort, up: bool) {
        for e in self.entries.iter_mut().flatten() {
            if e.out_port == port {
                e.link_up = up;
            }
        }
    }

    /// Invalidates the route toward `dst`.
    pub fn invalidate(&mut self, dst: NodeId) {
        if let Some(Some(e)) = self.entries.get_mut(dst.0 as usize) {
            e.valid = false;
        }
    }

    /// Looks up the output port toward `dst`; `None` when missing,
    /// invalidated, or the link is down.
    pub fn lookup(&self, dst: NodeId) -> Option<OutPort> {
        self.entries
            .get(dst.0 as usize)?
            .filter(|e| e.valid && e.link_up)
            .map(|e| e.out_port)
    }

    /// Whether the link behind `port` is up. A port no entry routes
    /// through reports down: there is no cable there to detour over.
    pub fn port_up(&self, port: OutPort) -> bool {
        self.entries
            .iter()
            .flatten()
            .any(|e| e.out_port == port && e.link_up)
    }

    /// Looks up the port toward `dst`, detouring around down links:
    /// when the primary dimension-ordered port fails, the first *other*
    /// axis (X, then Y, then Z order) whose coordinate still differs
    /// from `dst`'s and whose link is up is taken instead. Every
    /// candidate moves strictly closer to `dst`, so detoured forwarding
    /// is loop-free and preserves the minimal hop count; `None` means
    /// every productive link out of this node is down (partition-grade
    /// failure — callers keep their stale route or give up).
    pub fn lookup_with_fallback(&self, mesh: &Mesh3d, dst: NodeId) -> Option<OutPort> {
        if let Some(port) = self.lookup(dst) {
            return Some(port);
        }
        if dst == self.node {
            return None;
        }
        let here = mesh.coord(self.node);
        let d = mesh.coord(dst);
        let mut candidates = [None; 3];
        if d.x != here.x {
            candidates[0] = Some(if d.x < here.x { OutPort(1) } else { OutPort(2) });
        }
        if d.y != here.y {
            candidates[1] = Some(if d.y < here.y { OutPort(3) } else { OutPort(4) });
        }
        if d.z != here.z {
            candidates[2] = Some(if d.z < here.z { OutPort(5) } else { OutPort(6) });
        }
        candidates
            .into_iter()
            .flatten()
            .find(|&port| self.port_up(port))
    }

    /// Number of installed (valid or not) entries.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(Option::is_none)
    }

    /// Builds the dimension-ordered (XYZ) routing table of `node` for
    /// `mesh`: the out port toward each destination is the first axis on
    /// which the coordinates differ.
    pub fn for_mesh(mesh: &Mesh3d, node: NodeId) -> Self {
        let mut table = RoutingTable::new(node);
        let here = mesh.coord(node);
        for dst in mesh.nodes() {
            let port = if dst == node {
                LOCAL_PORT
            } else {
                let d = mesh.coord(dst);
                if d.x != here.x {
                    if d.x < here.x {
                        OutPort(1)
                    } else {
                        OutPort(2)
                    }
                } else if d.y != here.y {
                    if d.y < here.y {
                        OutPort(3)
                    } else {
                        OutPort(4)
                    }
                } else if d.z < here.z {
                    OutPort(5)
                } else {
                    OutPort(6)
                }
            };
            table.install(dst, port);
        }
        table
    }
}

/// Walks packets across mesh routing tables, returning the nodes visited
/// after `src` (including `dst`). Used by tests to prove table-driven
/// forwarding agrees with [`Mesh3d::route`].
pub fn forward_path(
    mesh: &Mesh3d,
    tables: &[RoutingTable],
    src: NodeId,
    dst: NodeId,
) -> Vec<NodeId> {
    let mut path = Vec::new();
    let mut cur = src;
    while cur != dst {
        let port = tables[cur.0 as usize]
            .lookup(dst)
            .expect("no route installed");
        cur = step(mesh, cur, port);
        path.push(cur);
    }
    path
}

/// As [`forward_path`], but detours around down links via
/// [`RoutingTable::lookup_with_fallback`]. Returns `None` when some hop
/// has no up productive port left (the down set partitions `src` from
/// `dst` along every minimal route) — never panics on a down link, and
/// never visits more hops than the fault-free minimal route.
pub fn forward_path_with_fallback(
    mesh: &Mesh3d,
    tables: &[RoutingTable],
    src: NodeId,
    dst: NodeId,
) -> Option<Vec<NodeId>> {
    let mut path = Vec::new();
    walk_with_fallback(mesh, tables, src, dst, |hop| path.push(hop)).then_some(path)
}

/// The walk of [`forward_path_with_fallback`] without the path: calls
/// `hop` with each node visited after `src`, in order, and returns
/// whether the walk reached `dst`. On `false` the hops already reported
/// lead into the partition.
pub fn walk_with_fallback(
    mesh: &Mesh3d,
    tables: &[RoutingTable],
    src: NodeId,
    dst: NodeId,
    mut hop: impl FnMut(NodeId),
) -> bool {
    let mut cur = src;
    while cur != dst {
        let Some(port) = tables[cur.0 as usize].lookup_with_fallback(mesh, dst) else {
            return false;
        };
        cur = step(mesh, cur, port);
        hop(cur);
    }
    true
}

/// The mesh neighbor of `cur` that output `port` leads to.
fn step(mesh: &Mesh3d, cur: NodeId, port: OutPort) -> NodeId {
    assert_ne!(port, LOCAL_PORT, "premature local delivery");
    let mut next = mesh.coord(cur);
    match port.0 {
        1 => next.x -= 1,
        2 => next.x += 1,
        3 => next.y -= 1,
        4 => next.y += 1,
        5 => next.z -= 1,
        6 => next.z += 1,
        p => panic!("bad port {p}"),
    }
    mesh.node_at(next)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_tables(mesh: &Mesh3d) -> Vec<RoutingTable> {
        mesh.nodes()
            .map(|n| RoutingTable::for_mesh(mesh, n))
            .collect()
    }

    #[test]
    fn table_forwarding_matches_dimension_order_route() {
        let mesh = Mesh3d::prototype();
        let tables = all_tables(&mesh);
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                assert_eq!(forward_path(&mesh, &tables, a, b), mesh.route(a, b));
            }
        }
    }

    #[test]
    fn local_delivery_uses_local_port() {
        let mesh = Mesh3d::prototype();
        let t = RoutingTable::for_mesh(&mesh, NodeId(5));
        assert_eq!(t.lookup(NodeId(5)), Some(LOCAL_PORT));
    }

    #[test]
    fn down_link_fails_lookup() {
        let mesh = Mesh3d::prototype();
        let mut t = RoutingTable::for_mesh(&mesh, NodeId(0));
        let port = t.lookup(NodeId(1)).unwrap();
        t.set_link_status(port, false);
        assert_eq!(t.lookup(NodeId(1)), None);
        t.set_link_status(port, true);
        assert!(t.lookup(NodeId(1)).is_some());
    }

    #[test]
    fn invalidate_removes_route() {
        let mesh = Mesh3d::prototype();
        let mut t = RoutingTable::for_mesh(&mesh, NodeId(0));
        t.invalidate(NodeId(3));
        assert_eq!(t.lookup(NodeId(3)), None);
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn a_reinstalled_route_replaces_the_entry() {
        let mesh = Mesh3d::prototype();
        let mut t = RoutingTable::for_mesh(&mesh, NodeId(0));
        let port = t.lookup(NodeId(1)).unwrap();
        t.set_link_status(port, false);
        t.invalidate(NodeId(3));
        // Re-installing makes the entry valid and its link up again,
        // on the new port, without adding an entry.
        t.install(NodeId(1), OutPort(4));
        t.install(NodeId(3), OutPort(2));
        assert_eq!(t.lookup(NodeId(1)), Some(OutPort(4)));
        assert_eq!(t.lookup(NodeId(3)), Some(OutPort(2)));
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn a_sparse_table_reads_only_its_installed_routes() {
        let mut t = RoutingTable::new(NodeId(2));
        assert!(t.is_empty());
        t.install(NodeId(9), OutPort(3));
        assert_eq!((t.len(), t.is_empty()), (1, false));
        assert_eq!(t.lookup(NodeId(9)), Some(OutPort(3)));
        // Ids below and past the installed one read missing.
        assert_eq!(t.lookup(NodeId(4)), None);
        assert_eq!(t.lookup(NodeId(200)), None);
        t.invalidate(NodeId(200));
        assert!(t.port_up(OutPort(3)));
        assert!(!t.port_up(OutPort(1)), "no entry routes through port 1");
    }

    #[test]
    fn fallback_detours_around_a_down_link() {
        let mesh = Mesh3d::prototype();
        let mut tables = all_tables(&mesh);
        // Node 0 -> node 3 differs in x and y; the primary XYZ route
        // leaves on +x. Kill that link: the fallback leaves on +y
        // instead and the path stays minimal.
        let primary = tables[0].lookup(NodeId(3)).unwrap();
        tables[0].set_link_status(primary, false);
        assert_eq!(tables[0].lookup(NodeId(3)), None);
        let path = forward_path_with_fallback(&mesh, &tables, NodeId(0), NodeId(3))
            .expect("a productive detour exists");
        assert_eq!(path.len() as u32, mesh.hops(NodeId(0), NodeId(3)));
        assert_eq!(*path.last().unwrap(), NodeId(3));
        assert_ne!(path[0], NodeId(1), "detour must avoid the down +x link");
    }

    #[test]
    fn fallback_reports_partition_when_every_productive_port_is_down() {
        let mesh = Mesh3d::prototype();
        let mut tables = all_tables(&mesh);
        // Node 0 -> node 1 differ on x only: downing that one link
        // leaves no productive alternative.
        let port = tables[0].lookup(NodeId(1)).unwrap();
        tables[0].set_link_status(port, false);
        assert_eq!(
            forward_path_with_fallback(&mesh, &tables, NodeId(0), NodeId(1)),
            None
        );
        // Unaffected pairs still route.
        assert!(forward_path_with_fallback(&mesh, &tables, NodeId(2), NodeId(3)).is_some());
    }

    #[test]
    fn larger_mesh_routes_terminate() {
        let mesh = Mesh3d::new(4, 4, 2);
        let tables = all_tables(&mesh);
        let path = forward_path(&mesh, &tables, NodeId(0), NodeId(31));
        assert_eq!(path.len() as u32, mesh.hops(NodeId(0), NodeId(31)));
    }
}
