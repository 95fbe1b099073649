//! Compiled all-pairs path tables over a 3D mesh.
//!
//! The engine-facing query API of the fabric: [`PathTable::compile`]
//! walks every (src, dst) pair through the *table-driven* forwarding
//! path ([`crate::routing::walk_with_fallback`] over per-node
//! [`RoutingTable`]s — the same lookup a real embedded switch performs,
//! not the closed-form [`Mesh3d::route`]) and flattens the results into
//! dense arrays of directed-link indices. After compilation every query
//! is a slice borrow: no hashing, no allocation, no per-request
//! routing-table walk — the shape a discrete-event hot path needs.
//!
//! Links are *directed*: the a→b and b→a sides of one cable get
//! distinct [`LinkId`]s, so per-direction bandwidth accounting (upload
//! vs download congestion) falls out of indexing alone.

use std::collections::VecDeque;

use venice_sim::Time;

use crate::phy::LinkParams;
use crate::routing::{walk_with_fallback, RoutingTable};
use crate::topology::{Mesh3d, NodeId};

/// Index of one directed link in a [`PathTable`]; assigned densely in
/// deterministic (src, dst) scan order at compile time.
pub type LinkId = u32;

/// Flattened all-pairs forwarding paths of one mesh, as directed-link
/// index slices.
///
/// # Example
///
/// ```
/// use venice_fabric::paths::PathTable;
/// use venice_fabric::topology::{Mesh3d, NodeId};
///
/// let mesh = Mesh3d::prototype();
/// let table = PathTable::compile(&mesh);
/// // Opposite corners of the 2x2x2 cube: three directed links.
/// assert_eq!(table.links(NodeId(0), NodeId(7)).len(), 3);
/// assert!(table.links(NodeId(3), NodeId(3)).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct PathTable {
    nodes: u16,
    /// `(from, to)` endpoints of each directed link, indexed by
    /// [`LinkId`].
    link_ends: Vec<(NodeId, NodeId)>,
    /// `(offset, len)` into `links` per (src, dst) pair, src-major.
    ranges: Vec<(u32, u16)>,
    /// Concatenated per-pair link sequences.
    links: Vec<LinkId>,
}

impl PathTable {
    /// Compiles the all-pairs path table of `mesh` by building each
    /// node's dimension-ordered [`RoutingTable`] and walking every
    /// (src, dst) pair through table-driven forwarding.
    ///
    /// # Panics
    ///
    /// Panics if the mesh exceeds the `u16` node space or any pair's
    /// path exceeds `u16::MAX` hops (impossible for a mesh that fits
    /// the node space).
    pub fn compile(mesh: &Mesh3d) -> Self {
        let nodes = u16::try_from(mesh.len()).expect("mesh exceeds the u16 NodeId space");
        // With no link down, every pair's first lookup succeeds: each
        // takes its dimension-ordered route, numbering links as it goes.
        let empty = PathTable {
            nodes,
            link_ends: Vec::new(),
            ranges: Vec::new(),
            links: Vec::new(),
        };
        empty.recompile_with_down(mesh, &[])
    }

    /// Recompiles the per-pair routes with the given *directed* links
    /// marked down, detouring over the routing layer's productive
    /// fallback ([`crate::routing::walk_with_fallback`]). A
    /// pair the down set cuts along every minimal route takes the
    /// shortest path over up links instead, found by breadth-first
    /// search in [`Mesh3d::neighbors`] order, so the detour is
    /// deterministic.
    ///
    /// [`LinkId`] assignments are **stable**: every link keeps the id
    /// the original compile gave it, so per-link congestion windows and
    /// gauges survive the reroute untouched. Only a pair the down set
    /// truly partitions (no path over up links at all) keeps its stale
    /// precompiled path: it has no honest detour, and the caller's loss
    /// model is the one still charging it. An empty `down` set
    /// reproduces the original table exactly.
    ///
    /// # Panics
    ///
    /// Panics if a down endpoint is out of the compiled node range or a
    /// down link's endpoints are not mesh neighbors.
    pub fn recompile_with_down(&self, mesh: &Mesh3d, down: &[(NodeId, NodeId)]) -> PathTable {
        let mut tables: Vec<RoutingTable> = mesh
            .nodes()
            .map(|node| RoutingTable::for_mesh(mesh, node))
            .collect();
        for (i, &(from, to)) in down.iter().enumerate() {
            // A link listed twice is already down.
            if down[..i].contains(&(from, to)) {
                continue;
            }
            let port = tables[from.0 as usize]
                .lookup(to)
                .expect("down link endpoints must be mesh neighbors");
            tables[from.0 as usize].set_link_status(port, false);
        }
        let mut ids = LinkIds::new(mesh.len(), self.link_ends.clone());
        let mut ranges = Vec::with_capacity(mesh.len() * mesh.len());
        let mut links = Vec::new();
        for src in mesh.nodes() {
            for dst in mesh.nodes() {
                let off = u32::try_from(links.len()).expect("path table overflow");
                let mut prev = src;
                let walked = walk_with_fallback(mesh, &tables, src, dst, |hop| {
                    links.push(ids.id(prev, hop));
                    prev = hop;
                });
                if !walked {
                    // The walk's hops lead into the partition; every link
                    // they crossed was numbered by the original compile.
                    links.truncate(off as usize);
                    match shortest_up_path(mesh, down, src, dst) {
                        Some(path) => {
                            let mut prev = src;
                            for hop in path {
                                links.push(ids.id(prev, hop));
                                prev = hop;
                            }
                        }
                        None => links.extend_from_slice(self.links(src, dst)),
                    }
                }
                let len = u16::try_from(links.len() - off as usize).expect("path too long");
                ranges.push((off, len));
            }
        }
        PathTable {
            nodes: self.nodes,
            link_ends: ids.ends,
            ranges,
            links,
        }
    }

    /// Number of nodes the table was compiled for.
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// Number of distinct directed links any compiled path crosses.
    pub fn link_count(&self) -> usize {
        self.link_ends.len()
    }

    /// `(from, to)` endpoints of directed link `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        self.link_ends[link as usize]
    }

    /// The directed links crossed from `src` to `dst`, in traversal
    /// order; empty when `src == dst`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    pub fn links(&self, src: NodeId, dst: NodeId) -> &[LinkId] {
        let (off, len) = self.ranges[src.0 as usize * self.nodes as usize + dst.0 as usize];
        &self.links[off as usize..off as usize + len as usize]
    }

    /// Hop count of the compiled path from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// As [`PathTable::links`].
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        self.links(src, dst).len() as u32
    }

    /// Uncongested one-way latency of a `wire_bytes` transfer from
    /// `src` to `dst` over links described by `params`: the first hop
    /// pays the endpoint cost ([`LinkParams::one_way`]), every further
    /// hop a store-and-forward transit ([`LinkParams::transit`]).
    /// Zero when `src == dst` (a local access never enters the fabric).
    ///
    /// # Panics
    ///
    /// As [`PathTable::links`].
    pub fn one_way(&self, params: &LinkParams, src: NodeId, dst: NodeId, wire_bytes: u64) -> Time {
        let hops = self.hops(src, dst);
        if hops == 0 {
            return Time::ZERO;
        }
        params.one_way(wire_bytes) + params.transit(wire_bytes) * u64::from(hops - 1)
    }
}

/// Directed-link id assignment of a compile: ids index `ends`, and
/// `ids[from * nodes + to]` is the id of `from → to`, or [`NO_LINK`]
/// until a path first crosses it.
struct LinkIds {
    nodes: usize,
    ids: Vec<LinkId>,
    ends: Vec<(NodeId, NodeId)>,
}

/// A directed link no compiled path has crossed yet.
const NO_LINK: LinkId = LinkId::MAX;

impl LinkIds {
    /// The assignment of `nodes` nodes that already numbers `ends`.
    fn new(nodes: usize, ends: Vec<(NodeId, NodeId)>) -> Self {
        let mut ids = vec![NO_LINK; nodes * nodes];
        for (i, &(from, to)) in ends.iter().enumerate() {
            ids[from.0 as usize * nodes + to.0 as usize] = i as LinkId;
        }
        LinkIds { nodes, ids, ends }
    }

    /// The id of `from → to`, numbering it next if it has none.
    fn id(&mut self, from: NodeId, to: NodeId) -> LinkId {
        let id = &mut self.ids[from.0 as usize * self.nodes + to.0 as usize];
        if *id == NO_LINK {
            *id = self.ends.len() as LinkId;
            self.ends.push((from, to));
        }
        *id
    }
}

/// The shortest path from `src` to `dst` over the mesh's up directed
/// links (every link not in `down`), as the hops after `src`; `None`
/// when `down` partitions the pair. Breadth-first in
/// [`Mesh3d::neighbors`] order, so ties break the same way every time.
fn shortest_up_path(
    mesh: &Mesh3d,
    down: &[(NodeId, NodeId)],
    src: NodeId,
    dst: NodeId,
) -> Option<Vec<NodeId>> {
    let mut parent: Vec<Option<NodeId>> = vec![None; mesh.len()];
    parent[src.0 as usize] = Some(src);
    let mut frontier = VecDeque::from([src]);
    while let Some(cur) = frontier.pop_front() {
        if cur == dst {
            let mut path = Vec::new();
            let mut at = dst;
            while at != src {
                path.push(at);
                at = parent[at.0 as usize].expect("visited nodes have a parent");
            }
            path.reverse();
            return Some(path);
        }
        for next in mesh.neighbors(cur) {
            if parent[next.0 as usize].is_none() && !down.contains(&(cur, next)) {
                parent[next.0 as usize] = Some(cur);
                frontier.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_paths_match_dimension_order_routes() {
        let mesh = Mesh3d::new(4, 2, 2);
        let table = PathTable::compile(&mesh);
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                let route = mesh.route(a, b);
                let links = table.links(a, b);
                assert_eq!(links.len(), route.len(), "{a}->{b}");
                let mut prev = a;
                for (&link, &hop) in links.iter().zip(&route) {
                    assert_eq!(table.endpoints(link), (prev, hop));
                    prev = hop;
                }
            }
        }
    }

    #[test]
    fn directed_links_cover_every_cable_twice() {
        // A dx x dy x dz mesh has dx*dy*dz*3 - (dy*dz + dx*dz + dx*dy)
        // cables; dimension-ordered all-pairs routing crosses every one
        // of them in both directions.
        let mesh = Mesh3d::new(2, 2, 2);
        let table = PathTable::compile(&mesh);
        assert_eq!(table.link_count(), 2 * (8 * 3 - (4 + 4 + 4)));
    }

    #[test]
    fn link_ids_are_deterministic() {
        let mesh = Mesh3d::new(3, 3, 1);
        let a = PathTable::compile(&mesh);
        let b = PathTable::compile(&mesh);
        assert_eq!(a.link_ends, b.link_ends);
        assert_eq!(a.links, b.links);
    }

    #[test]
    fn recompile_with_no_down_links_is_identity() {
        let mesh = Mesh3d::new(4, 2, 2);
        let table = PathTable::compile(&mesh);
        let again = table.recompile_with_down(&mesh, &[]);
        assert_eq!(table.link_ends, again.link_ends);
        assert_eq!(table.ranges, again.ranges);
        assert_eq!(table.links, again.links);
    }

    #[test]
    fn recompile_detours_around_a_down_link_with_stable_ids() {
        let mesh = Mesh3d::prototype();
        let table = PathTable::compile(&mesh);
        // Down both directions of the 0<->1 cable (a flapped cable dies
        // whole). 0->1 is cut along its only minimal route and takes the
        // shortest path over up links, 0->2->3->1; 0->3 detours via +y.
        let down = [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))];
        let rerouted = table.recompile_with_down(&mesh, &down);
        let direct: Vec<_> = rerouted
            .links(NodeId(0), NodeId(1))
            .iter()
            .map(|&link| rerouted.endpoints(link))
            .collect();
        assert_eq!(
            direct,
            [
                (NodeId(0), NodeId(2)),
                (NodeId(2), NodeId(3)),
                (NodeId(3), NodeId(1))
            ]
        );
        let detour = rerouted.links(NodeId(0), NodeId(3));
        assert_eq!(detour.len(), 2, "productive detours stay minimal");
        assert_eq!(rerouted.endpoints(detour[0]), (NodeId(0), NodeId(2)));
        assert_eq!(rerouted.endpoints(detour[1]), (NodeId(2), NodeId(3)));
        // Ids survive the reroute: every original link keeps its slot.
        for id in 0..table.link_count() as LinkId {
            assert_eq!(table.endpoints(id), rerouted.endpoints(id));
        }
    }

    #[test]
    fn one_way_latency_telescopes_over_hops() {
        let mesh = Mesh3d::prototype();
        let table = PathTable::compile(&mesh);
        let link = LinkParams::venice_prototype();
        let one = table.one_way(&link, NodeId(0), NodeId(1), 64);
        let three = table.one_way(&link, NodeId(0), NodeId(7), 64);
        assert_eq!(one, link.one_way(64));
        assert_eq!(three, link.one_way(64) + link.transit(64) * 2);
        assert_eq!(
            table.one_way(&link, NodeId(5), NodeId(5), 64),
            Time::ZERO,
            "local access never enters the fabric"
        );
    }
}
