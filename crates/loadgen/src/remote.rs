//! Remote-transfer pricing models: the measured scalar vs the
//! congestion-real fabric.
//!
//! The paper prices every remote access with a per-node measured CRMA
//! scalar. That is the default model — [`ScalarCrma`] keeps it
//! bit-for-bit, as the golden corpus (`BENCH_golden.jsonl`) pins — but
//! it makes CRMA latency a constant, independent of *where* the bytes
//! travel. [`CongestedFabric`] routes
//! each request's remote bytes over the real mesh instead: it compiles
//! the all-pairs path table once ([`venice_fabric::PathTable`], built
//! from `Mesh3d` + per-node `RoutingTable`s through table-driven
//! forwarding), tracks per-directed-link utilization windows with
//! finite per-window capacity and a bounded carry-over buffer, and
//! charges each dispatch the serialization time of whatever backlog is
//! already queued on its node→donor path. Congestion — not a constant —
//! then sets the remote tier's marginal cost, and lease *placement*
//! starts to matter for tail latency.
//!
//! The engine is generic over [`RemoteModel`] exactly like it is over
//! [`venice_telemetry::Probe`]: `ScalarCrma` has `ENABLED = false` and
//! empty hook bodies, so every guard compiles away and the default
//! entry points stay byte-identical to their pre-fabric output. With
//! infinite link capacity the congested model charges zero everywhere,
//! which the `congestion_identity` property test pins down: traces and
//! reports match `ScalarCrma` bit for bit.

use venice_fabric::paths::{LinkId, PathTable};
use venice_fabric::topology::Mesh3d;
use venice_fabric::LinkParams;
use venice_sim::Time;
use venice_telemetry::LinkGauge;

use venice::NodeId;

/// How mid-run lease grows pick their donor relative to fabric load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Today's behavior: the Monitor Node's nearest-capable-donor
    /// policy runs unmodified — placement is priced by the measured
    /// scalar and never looks at the fabric.
    ScalarPriced,
    /// Congestion-aware: a grow vetoes donors whose node↔donor path
    /// crosses a link currently backlogged past its window capacity,
    /// letting the Monitor Node's retry loop fall through to the
    /// nearest donor on a cold path.
    CongestionAware,
}

/// Parameters of the congested-fabric model.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricParams {
    /// Physical link the mesh is built from (bandwidth sets both the
    /// window capacity and the backlog serialization rate).
    pub link: LinkParams,
    /// Utilization window length. Link byte counters roll at window
    /// boundaries; one window of excess (capped at `buffer_bytes`)
    /// carries into the next.
    pub window: Time,
    /// Bytes one link direction moves per window before queueing
    /// starts.
    pub capacity_bytes: u64,
    /// Upper bound on the excess carried across one window boundary
    /// (the link's buffer depth); excess beyond it is dropped from the
    /// accounting, as a real bounded buffer would tail-drop.
    pub buffer_bytes: u64,
    /// Donor-selection policy for mid-run lease grows.
    pub placement: PlacementPolicy,
}

impl FabricParams {
    /// Parameters over `link` with the capacity each direction really
    /// has per `window` (`gbps × window / 8`) and a quarter-window
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn from_link(link: LinkParams, window: Time, placement: PlacementPolicy) -> Self {
        assert!(window > Time::ZERO, "utilization window must be positive");
        let capacity_bytes = (link.gbps * window.as_ps() as f64 / 8_000.0) as u64;
        FabricParams {
            buffer_bytes: capacity_bytes / 4,
            link,
            window,
            capacity_bytes,
            placement,
        }
    }

    /// An unconstrained fabric: infinite per-window capacity, no
    /// buffer. Routes compile and windows roll, but no dispatch is
    /// ever charged — the configuration the identity property test
    /// runs against [`ScalarCrma`].
    pub fn infinite() -> Self {
        FabricParams {
            link: LinkParams::venice_prototype(),
            window: Time::from_ms(1),
            capacity_bytes: u64::MAX,
            buffer_bytes: 0,
            placement: PlacementPolicy::ScalarPriced,
        }
    }
}

/// Which remote-transfer model a [`crate::LoadgenConfig`] arms.
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteModelCfg {
    /// The measured per-node CRMA scalar (the frozen baseline and the
    /// default).
    Scalar,
    /// Remote bytes routed over modeled fabric paths with finite
    /// per-direction bandwidth.
    Congested(FabricParams),
}

/// Engine hook surface for pricing remote transfers, mirroring
/// [`venice_telemetry::Probe`]: the engine is generic over an
/// implementation, `ENABLED = false` compiles every guard away, and
/// hooks observe engine state the run computed anyway.
pub trait RemoteModel {
    /// Whether the model participates at all. `false` removes every
    /// hook site at monomorphization time.
    const ENABLED: bool;

    /// Points `node`'s active remote route at `donor` (`None` clears
    /// it). Called at provisioning and on every lease event that moves
    /// a node's newest visible lease — the compiled-path analog of
    /// `recompile_service`.
    fn set_route(&mut self, node: usize, donor: Option<u16>) {
        let _ = (node, donor);
    }

    /// Prices one dispatch of a `class` request on `node` at `now`,
    /// returning the congestion penalty added to its service
    /// occupancy. Charged exactly once per successful dispatch.
    fn charge(&mut self, now: Time, node: usize, class: usize) -> Time {
        let _ = (now, node, class);
        Time::ZERO
    }

    /// Whether a mid-run grow for `node` may accept `donor` at `now`
    /// under the placement policy.
    fn donor_ok(&self, now: Time, node: u16, donor: u16) -> bool {
        let _ = (now, node, donor);
        true
    }

    /// Appends the per-directed-link utilization gauges of the current
    /// windows (links with zero charged bytes are omitted).
    fn link_gauges(&self, out: &mut Vec<LinkGauge>) {
        let _ = out;
    }

    /// Cuts (`up = false`) or heals the `a`↔`b` cable, both directions.
    /// The congested model recompiles its path table around the outage
    /// ([`PathTable::recompile_with_down`]); the scalar model has no
    /// links to cut. Fired by fault-plan link flaps — rare, so a full
    /// recompile off the hot path is fine.
    fn set_link_state(&mut self, a: u16, b: u16, up: bool) {
        let _ = (a, b, up);
    }

    /// Sets the `a`↔`b` cable's frame-loss rate (per-mille, both
    /// directions). The congested model charges go-back-N retransmit
    /// serialization for every byte crossing a lossy link; rate 0
    /// heals it.
    fn set_link_loss(&mut self, a: u16, b: u16, per_mille: u16) {
        let _ = (a, b, per_mille);
    }
}

/// The measured-scalar model: every hook is a no-op and `ENABLED` is
/// `false`, so the engine monomorphizes to exactly its pre-fabric hot
/// path — the differential baseline stays frozen by construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarCrma;

impl RemoteModel for ScalarCrma {
    const ENABLED: bool = false;
}

/// Per-directed-link utilization window state.
#[derive(Debug, Clone, Copy, Default)]
struct LinkWindow {
    /// Index of the window the byte counter belongs to
    /// (`now / window`).
    window: u64,
    /// Bytes charged to that window (plus any carry-over).
    bytes: u64,
}

/// The congestion-real model: compiled all-pairs paths, live
/// per-directed-link utilization windows, and a per-dispatch charge
/// that is a pure table walk — no RNG, no allocation, no routing-table
/// lookup on the hot path.
#[derive(Debug, Clone)]
pub struct CongestedFabric {
    params: FabricParams,
    paths: PathTable,
    /// The mesh the paths were compiled from, kept so link flaps can
    /// recompile around outages.
    mesh: Mesh3d,
    /// Each node's active remote destination (its newest visible
    /// lease's donor); `None` = the node has no remote tier and pays
    /// no fabric charge.
    routes: Vec<Option<u16>>,
    /// Window state per [`LinkId`].
    windows: Vec<LinkWindow>,
    /// Per-class remote wire bytes
    /// ([`crate::tenants::RequestProfile::remote_wire_bytes`]),
    /// compiled once at setup.
    wire_bytes_by_class: Vec<u64>,
    /// `params.window.as_ps()`, hoisted off the charge path.
    window_ps: u64,
    /// Directed links currently flapped down (both directions of each
    /// cut cable); empty until a fault plan cuts something.
    down: Vec<(NodeId, NodeId)>,
    /// Frame-loss rate in per-mille, per [`LinkId`]; zero everywhere
    /// until a fault plan makes a cable lossy.
    loss_pm: Vec<u16>,
}

/// Control-message bytes charged on the forward (node→donor) direction
/// per dispatch; the data payload flows back donor→node.
const COMMAND_BYTES: u64 = 64;

/// Go-back-N window depth, in frames: one lost frame forces a
/// retransmit of everything in flight behind it, so a link with loss
/// rate `p` carries `1 + p × GO_BACK_N_FRAMES` times its goodput in
/// expectation. The charge is that deterministic expected value — no
/// RNG on the hot path, and replays stay bit-identical.
const GO_BACK_N_FRAMES: u64 = 8;

impl CongestedFabric {
    /// Compiles the model for a `mesh`-shaped cluster serving classes
    /// with the given remote wire footprints.
    ///
    /// # Panics
    ///
    /// Panics if any mesh dimension is zero or `params.window` is.
    pub fn new(params: FabricParams, mesh: (u16, u16, u16), wire_bytes_by_class: Vec<u64>) -> Self {
        assert!(
            params.window > Time::ZERO,
            "utilization window must be positive"
        );
        let mesh = Mesh3d::new(mesh.0, mesh.1, mesh.2);
        let paths = PathTable::compile(&mesh);
        CongestedFabric {
            routes: vec![None; mesh.len()],
            windows: vec![LinkWindow::default(); paths.link_count()],
            loss_pm: vec![0; paths.link_count()],
            window_ps: params.window.as_ps(),
            params,
            paths,
            mesh,
            wire_bytes_by_class,
            down: Vec::new(),
        }
    }

    /// Inflates `bytes` by the go-back-N retransmit overhead of
    /// `link`'s current loss rate (identity at rate zero).
    #[inline]
    fn inflate(loss_pm: &[u16], link: LinkId, bytes: u64) -> u64 {
        let pm = loss_pm[link as usize] as u64;
        if pm == 0 {
            bytes
        } else {
            bytes + bytes * pm * GO_BACK_N_FRAMES / 1000
        }
    }

    /// Recompiles the path table around the current `down` set,
    /// keeping [`LinkId`]s stable so utilization windows and loss
    /// rates survive the reroute; detour links that first appear in
    /// the new table start with a cold window and zero loss.
    fn recompile(&mut self) {
        self.paths = self.paths.recompile_with_down(&self.mesh, &self.down);
        self.windows
            .resize(self.paths.link_count(), LinkWindow::default());
        self.loss_pm.resize(self.paths.link_count(), 0);
    }

    /// Rolls `link`'s window to index `wi`, charges `add` bytes to it,
    /// and returns the backlog (bytes beyond capacity) that was already
    /// queued ahead of this transfer.
    #[inline]
    fn roll_and_charge(
        windows: &mut [LinkWindow],
        link: LinkId,
        wi: u64,
        capacity: u64,
        buffer: u64,
        add: u64,
    ) -> u64 {
        let w = &mut windows[link as usize];
        if w.window != wi {
            // Excess spills into the immediately following window only
            // (bounded by the buffer depth); an idle gap drains the
            // link completely.
            let excess = w.bytes.saturating_sub(capacity);
            w.bytes = if w.window + 1 == wi {
                excess.min(buffer)
            } else {
                0
            };
            w.window = wi;
        }
        let backlog = w.bytes.saturating_sub(capacity);
        w.bytes += add;
        backlog
    }

    /// Whether `link` reads as saturated for placement at window `wi`,
    /// without mutating the roll state. Live *or* one-window-stale
    /// saturation both count: lease ticks land exactly on window
    /// boundaries, so a just-rolled window must still reflect the storm
    /// that filled its predecessor.
    fn link_is_hot(&self, link: LinkId, wi: u64) -> bool {
        let w = &self.windows[link as usize];
        w.window + 1 >= wi && w.bytes > self.params.capacity_bytes
    }
}

impl RemoteModel for CongestedFabric {
    const ENABLED: bool = true;

    fn set_route(&mut self, node: usize, donor: Option<u16>) {
        self.routes[node] = donor;
    }

    fn charge(&mut self, now: Time, node: usize, class: usize) -> Time {
        let data = self.wire_bytes_by_class[class];
        if data == 0 {
            return Time::ZERO;
        }
        let Some(donor) = self.routes[node] else {
            return Time::ZERO;
        };
        let src = NodeId(node as u16);
        let dst = NodeId(donor);
        if src == dst {
            return Time::ZERO;
        }
        let wi = now.as_ps() / self.window_ps;
        let capacity = self.params.capacity_bytes;
        let buffer = self.params.buffer_bytes;
        let CongestedFabric {
            paths,
            windows,
            loss_pm,
            ..
        } = self;
        // Command out, data back: each direction's links carry their
        // own bytes — inflated by go-back-N retransmits where the
        // cable is lossy — and the dispatch pays the serialization
        // time of whatever backlog is already queued ahead of it.
        let mut backlog = 0u64;
        for &link in paths.links(src, dst) {
            let add = Self::inflate(loss_pm, link, COMMAND_BYTES);
            backlog += Self::roll_and_charge(windows, link, wi, capacity, buffer, add);
        }
        for &link in paths.links(dst, src) {
            let add = Self::inflate(loss_pm, link, data);
            backlog += Self::roll_and_charge(windows, link, wi, capacity, buffer, add);
        }
        if backlog == 0 {
            Time::ZERO
        } else {
            self.params.link.serialize(backlog)
        }
    }

    fn donor_ok(&self, now: Time, node: u16, donor: u16) -> bool {
        if self.params.placement != PlacementPolicy::CongestionAware || node == donor {
            return true;
        }
        let wi = now.as_ps() / self.window_ps;
        let src = NodeId(node);
        let dst = NodeId(donor);
        let hot = |links: &[LinkId]| links.iter().any(|&link| self.link_is_hot(link, wi));
        !(hot(self.paths.links(src, dst)) || hot(self.paths.links(dst, src)))
    }

    fn link_gauges(&self, out: &mut Vec<LinkGauge>) {
        for (idx, w) in self.windows.iter().enumerate() {
            if w.bytes == 0 {
                continue;
            }
            let (src, dst) = self.paths.endpoints(idx as LinkId);
            out.push(LinkGauge {
                src: src.0,
                dst: dst.0,
                bytes: w.bytes,
            });
        }
    }

    fn set_link_state(&mut self, a: u16, b: u16, up: bool) {
        let (a, b) = (NodeId(a), NodeId(b));
        if a.0 as usize >= self.mesh.len()
            || b.0 as usize >= self.mesh.len()
            || !self.mesh.neighbors(a).contains(&b)
        {
            // No cable between non-adjacent nodes: a fault plan aimed
            // at a different topology degrades to a no-op rather than
            // a panic.
            return;
        }
        let cut = [(a, b), (b, a)];
        if up {
            self.down.retain(|d| !cut.contains(d));
        } else {
            for d in cut {
                if !self.down.contains(&d) {
                    self.down.push(d);
                }
            }
        }
        self.recompile();
    }

    fn set_link_loss(&mut self, a: u16, b: u16, per_mille: u16) {
        // Every physical directed link owns a LinkId from the base
        // compile (adjacent pairs route over exactly their own cable),
        // so a per-LinkId store covers every cable; non-adjacent pairs
        // match nothing and the call is a no-op.
        for id in 0..self.paths.link_count() {
            let (from, to) = self.paths.endpoints(id as LinkId);
            if (from.0 == a && to.0 == b) || (from.0 == b && to.0 == a) {
                self.loss_pm[id] = per_mille;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_fabric(capacity: u64, buffer: u64) -> CongestedFabric {
        let params = FabricParams {
            capacity_bytes: capacity,
            buffer_bytes: buffer,
            ..FabricParams::from_link(
                LinkParams::venice_prototype(),
                Time::from_ms(1),
                PlacementPolicy::ScalarPriced,
            )
        };
        let mut fab = CongestedFabric::new(params, (2, 2, 2), vec![4096]);
        fab.set_route(0, Some(1));
        fab
    }

    #[test]
    fn infinite_capacity_never_charges() {
        let mut fab = tiny_fabric(u64::MAX, 0);
        for i in 0..100u64 {
            assert_eq!(
                fab.charge(Time::from_us(i), 0, 0),
                Time::ZERO,
                "dispatch {i} was charged on an infinite link"
            );
        }
    }

    #[test]
    fn saturated_window_charges_the_backlog() {
        let mut fab = tiny_fabric(1024, 0);
        let t = Time::from_us(1);
        // First dispatch finds an empty window: free. It leaves
        // 4096 data + 64 command bytes behind a 1024-byte window.
        assert_eq!(fab.charge(t, 0, 0), Time::ZERO);
        // Second dispatch in the same window queues behind the excess.
        let penalty = fab.charge(t, 0, 0);
        assert!(penalty > Time::ZERO, "no queueing behind a full window");
        // A dispatch window-lengths later finds the link drained.
        assert_eq!(fab.charge(Time::from_ms(5), 0, 0), Time::ZERO);
    }

    #[test]
    fn excess_carries_one_window_through_the_buffer() {
        let mut fab = tiny_fabric(1024, 1 << 20);
        let t0 = Time::from_us(1);
        fab.charge(t0, 0, 0); // leaves 4096+64 bytes, 1024 capacity
                              // Next window: ~3 KB carried over, still beyond capacity.
        let p1 = fab.charge(t0 + Time::from_ms(1), 0, 0);
        assert!(p1 > Time::ZERO, "buffered carry-over vanished");
        // Two idle windows later the carry chain has drained.
        let p2 = fab.charge(t0 + Time::from_ms(4), 0, 0);
        assert_eq!(p2, Time::ZERO);
    }

    #[test]
    fn nodes_without_a_route_ride_free() {
        let mut fab = tiny_fabric(1, 0);
        assert_eq!(fab.charge(Time::from_us(1), 3, 0), Time::ZERO);
        // And a self-route (donor == node) never enters the fabric.
        fab.set_route(5, Some(5));
        assert_eq!(fab.charge(Time::from_us(1), 5, 0), Time::ZERO);
    }

    #[test]
    fn congestion_aware_placement_vetoes_hot_paths() {
        let mut fab = tiny_fabric(1024, 0);
        fab.params.placement = PlacementPolicy::CongestionAware;
        let t = Time::from_us(1);
        fab.charge(t, 0, 0); // saturate the 0<->1 links
        assert!(!fab.donor_ok(t, 0, 1), "hot path accepted");
        // Node 0 -> donor 2 shares no link with 0 -> 1 under
        // dimension-ordered routing (x before y).
        assert!(fab.donor_ok(t, 0, 2), "cold path vetoed");
        // ScalarPriced accepts everything.
        fab.params.placement = PlacementPolicy::ScalarPriced;
        assert!(fab.donor_ok(t, 0, 1));
    }

    #[test]
    fn lossy_link_charges_retransmit_inflation() {
        // Capacity exactly one clean dispatch (4096 + 64): lossless
        // traffic never queues, lossy traffic does.
        let mut clean = tiny_fabric(4160, 0);
        let t = Time::from_us(1);
        assert_eq!(clean.charge(t, 0, 0), Time::ZERO);
        assert_eq!(clean.charge(t, 0, 0), Time::ZERO, "clean link queued");

        let mut lossy = tiny_fabric(4160, 0);
        lossy.set_link_loss(0, 1, 100); // 10% frame loss
        assert_eq!(lossy.charge(t, 0, 0), Time::ZERO);
        assert!(
            lossy.charge(t, 0, 0) > Time::ZERO,
            "go-back-N inflation did not push the window past capacity"
        );
        // Healing the cable restores the clean behavior next window.
        lossy.set_link_loss(0, 1, 0);
        let t2 = Time::from_ms(5);
        assert_eq!(lossy.charge(t2, 0, 0), Time::ZERO);
        assert_eq!(lossy.charge(t2, 0, 0), Time::ZERO);
    }

    #[test]
    fn flapped_link_reroutes_and_heals() {
        let mut fab = tiny_fabric(1 << 30, 0);
        let before: Vec<_> = fab.paths.links(NodeId(0), NodeId(3)).to_vec();
        let cut = fab.paths.links(NodeId(0), NodeId(1))[0];
        // Cutting the 0<->1 cable detours the dimension-ordered 0->3
        // route (0->1->3) over +y instead (0->2->3); the adjacent 0->1
        // pair itself is partitioned along its only minimal route and
        // keeps its stale path (the fabric's documented semantics).
        fab.set_link_state(0, 1, false);
        let detour = fab.paths.links(NodeId(0), NodeId(3)).to_vec();
        assert_ne!(detour, before, "0->3 did not reroute around the cut");
        assert!(!detour.contains(&cut), "detour crossed the cut link");
        assert_eq!(fab.paths.endpoints(detour[0]), (NodeId(0), NodeId(2)));
        // Windows cover every post-reroute link and charging works.
        assert_eq!(fab.windows.len(), fab.paths.link_count());
        assert_eq!(fab.charge(Time::from_us(1), 0, 0), Time::ZERO);
        // Healing restores the original route under the same LinkIds.
        fab.set_link_state(0, 1, true);
        assert_eq!(fab.paths.links(NodeId(0), NodeId(3)), &before[..]);
    }

    #[test]
    fn non_adjacent_flap_is_a_no_op() {
        let mut fab = tiny_fabric(1 << 30, 0);
        let before = fab.paths.links(NodeId(0), NodeId(3)).to_vec();
        // 0 and 3 differ in two dimensions of the 2x2x2 mesh: no cable.
        fab.set_link_state(0, 3, false);
        assert_eq!(fab.paths.links(NodeId(0), NodeId(3)), &before[..]);
        fab.set_link_loss(0, 3, 500);
        assert!(fab.loss_pm.iter().all(|&pm| pm == 0));
    }

    #[test]
    fn gauges_report_only_touched_links() {
        let mut fab = tiny_fabric(1 << 30, 0);
        let mut out = Vec::new();
        fab.link_gauges(&mut out);
        assert!(out.is_empty());
        fab.charge(Time::from_us(1), 0, 0);
        fab.link_gauges(&mut out);
        // One hop each way: 0->1 carries the command, 1->0 the data.
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .any(|g| g.src == 0 && g.dst == 1 && g.bytes == 64));
        assert!(out
            .iter()
            .any(|g| g.src == 1 && g.dst == 0 && g.bytes == 4096));
    }
}
