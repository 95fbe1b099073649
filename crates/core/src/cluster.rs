//! End-to-end cluster composition: nodes + fabric + runtime.
//!
//! `Cluster` wires the substrate crates together and executes the paper's
//! Fig 2 memory-sharing flow against *real* state: agents heartbeat into
//! the Monitor Node, a request selects a donor by distance, the donor's
//! address space hot-removes the region, the recipient hot-plugs it and
//! programs a CRMA window, and subsequent reads translate through the
//! RAMT and pay the fabric round trip. The single-subscriber invariant is
//! enforced by construction and checked in tests.

use venice_fabric::topology::Topology;
use venice_fabric::{Mesh3d, NodeId};
use venice_memnode::AddressSpace;
use venice_runtime::flows::FlowTiming;
use venice_runtime::tables::ResourceKind;
use venice_runtime::{AllocError, DistancePolicy, MonitorNode, NodeAgent};
use venice_sim::Time;
use venice_transport::ramt::EntryId;
use venice_transport::{CrmaChannel, CrmaConfig, PathModel};

use crate::config::PlatformConfig;

/// Errors from cluster sharing operations.
#[derive(Debug, PartialEq, Eq)]
pub enum ShareError {
    /// The Monitor Node could not allocate.
    Alloc(
        /// Underlying allocation failure.
        AllocError,
    ),
    /// Address-space manipulation failed (hot-remove/hot-plug).
    Memory(
        /// Underlying memory error.
        venice_memnode::MemError,
    ),
    /// CRMA window programming failed.
    Window(
        /// Underlying RAMT error.
        venice_transport::RamtError,
    ),
    /// Unknown node.
    NoSuchNode,
    /// Address is not remote-mapped.
    NotRemote,
    /// The node holds no active lease to release.
    NoLease,
    /// The grant already carries a sublease annotation.
    AlreadySubleased,
}

impl std::fmt::Display for ShareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShareError::Alloc(e) => write!(f, "allocation failed: {e}"),
            ShareError::Memory(e) => write!(f, "memory operation failed: {e}"),
            ShareError::Window(e) => write!(f, "window programming failed: {e}"),
            ShareError::NoSuchNode => f.write_str("unknown node"),
            ShareError::NotRemote => f.write_str("address is not remote-mapped"),
            ShareError::NoLease => f.write_str("node holds no active lease"),
            ShareError::AlreadySubleased => f.write_str("grant is already subleased"),
        }
    }
}

impl std::error::Error for ShareError {}

/// One node's composed state.
#[derive(Debug)]
pub struct Node {
    /// Physical memory map.
    pub memory: AddressSpace,
    /// Availability-reporting daemon.
    pub agent: NodeAgent,
    /// CRMA channel hardware.
    pub crma: CrmaChannel,
    /// Next free address for hot-plugging borrowed regions (grows above
    /// the 4 GB line as in Fig 10).
    next_plug_base: u64,
    /// Regions this node reclaimed from out-of-order lease releases that
    /// cannot be re-advertised yet: the lendable space is a bump
    /// allocator growing from `agent.lendable_base`, so a reclaimed
    /// region below a still-lent one stays parked here until the stack
    /// above it unwinds (see [`Cluster::release`]).
    reclaim_holes: Vec<(u64, u64)>,
}

/// A sublease annotation on an active grant: the tenant-economy chain
/// behind the node-level loan. The cluster does not interpret tenant
/// ids; it guarantees the chain lives and dies with the grant, so a
/// teardown (voluntary release *or* donor-demanded revoke) can never
/// leave a dangling sublease — and the lease layer's market ledger has
/// an independent source of truth to reconcile against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubleaseChain {
    /// Monitor-Node allocation id of the annotated grant.
    pub grant_id: u64,
    /// Tenant whose quota headroom pays for the grant.
    pub lessor: u32,
    /// Tenant whose backlog the grant serves.
    pub tenant: u32,
}

/// An established memory loan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLease {
    /// Monitor-Node allocation id.
    pub grant_id: u64,
    /// Borrowing node.
    pub recipient: NodeId,
    /// Lending node.
    pub donor: NodeId,
    /// Size in bytes.
    pub bytes: u64,
    /// Recipient-side base address of the hot-plugged window.
    pub local_base: u64,
    /// Donor-side base address of the lent region.
    pub donor_base: u64,
    /// RAMT entry handle on the recipient.
    pub window: EntryId,
    /// Time spent establishing the share (the Fig 2 flow).
    pub setup_time: Time,
}

/// A composed Venice cluster.
pub struct Cluster {
    /// Per-node state, indexed by node id.
    pub nodes: Vec<Node>,
    /// The Monitor Node.
    pub monitor: MonitorNode,
    /// Fabric path model.
    pub path: PathModel,
    /// Fig 2 flow timing.
    pub flow: FlowTiming,
    now: Time,
    /// Ledger of leases established through [`Cluster::borrow_memory`] and
    /// not yet released — the cluster-wide accounting view
    /// ([`Cluster::borrowed_bytes`], [`Cluster::release_newest`]).
    /// Callers holding their own lease handles may release them directly
    /// through [`Cluster::release`]; the ledger tracks both styles.
    active: Vec<MemoryLease>,
    /// Sublease chains annotated onto active grants
    /// ([`Cluster::mark_sublease`]); cleared by the teardown path, so an
    /// annotation can never outlive its grant.
    subleases: Vec<SubleaseChain>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("now", &self.now)
            .finish()
    }
}

impl Cluster {
    /// Builds the paper's 8-node prototype: 1 GB per node, 3D mesh,
    /// distance-based donor policy, and every node lending its top 512 MB
    /// when idle.
    pub fn prototype() -> Self {
        let config = PlatformConfig::venice_prototype();
        Self::with_config(&config, 512 << 20)
    }

    /// Builds a cluster from `config`, with each node willing to lend
    /// `lendable_bytes` of its top memory.
    pub fn with_config(config: &PlatformConfig, lendable_bytes: u64) -> Self {
        Self::from_mesh(config.mesh(), config.memory_bytes, lendable_bytes)
    }

    /// Builds a `dx × dy × dz` mesh cluster with `memory_bytes` per node,
    /// each willing to lend `lendable_bytes`. This is the constructor the
    /// loadgen sweeps use to scale beyond the paper's fixed 8-node
    /// prototype.
    pub fn mesh(dx: u16, dy: u16, dz: u16, memory_bytes: u64, lendable_bytes: u64) -> Self {
        Self::from_mesh(Mesh3d::new(dx, dy, dz), memory_bytes, lendable_bytes)
    }

    fn from_mesh(mesh: Mesh3d, memory_bytes: u64, lendable_bytes: u64) -> Self {
        let topology = Topology::Mesh(mesh.clone());
        let monitor = MonitorNode::new(topology.clone(), Box::new(DistancePolicy));
        let mut nodes = Vec::with_capacity(mesh.len());
        for id in mesh.nodes() {
            let mut agent = NodeAgent::new(id);
            agent.idle_memory = lendable_bytes.min(memory_bytes);
            agent.lendable_base = memory_bytes - agent.idle_memory;
            agent.neighbors = mesh.neighbors(id);
            nodes.push(Node {
                memory: AddressSpace::with_memory(id, memory_bytes),
                agent,
                crma: CrmaChannel::new(id, CrmaConfig::default()),
                // Borrowed windows hot-plug above both the 4 GB line (Fig
                // 10) and the node's own online region — nodes larger than
                // 4 GB would otherwise collide with their own memory.
                next_plug_base: memory_bytes.next_power_of_two().max(1 << 32),
                reclaim_holes: Vec::new(),
            });
        }
        let mut cluster = Cluster {
            nodes,
            monitor,
            path: PathModel {
                topology,
                ..PathModel::prototype_mesh()
            },
            flow: FlowTiming::default(),
            now: Time::ZERO,
            active: Vec::new(),
            subleases: Vec::new(),
        };
        cluster.tick_heartbeats();
        cluster
    }

    /// Number of nodes in the cluster.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current simulated wall-clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Advances time and delivers one heartbeat round from every agent.
    pub fn tick_heartbeats(&mut self) {
        self.now += Time::from_ms(100);
        let now = self.now;
        for node in &mut self.nodes {
            self.monitor
                .on_heartbeat(node.agent.heartbeat(now, |_| true));
        }
    }

    fn node(&self, id: NodeId) -> Result<&Node, ShareError> {
        self.nodes.get(id.0 as usize).ok_or(ShareError::NoSuchNode)
    }

    fn node_mut(&mut self, id: NodeId) -> Result<&mut Node, ShareError> {
        self.nodes
            .get_mut(id.0 as usize)
            .ok_or(ShareError::NoSuchNode)
    }

    /// Executes the full Fig 2 flow: `recipient` borrows `bytes` of
    /// remote memory from the nearest capable donor.
    ///
    /// # Errors
    ///
    /// Propagates Monitor-Node allocation failures, hot-remove/hot-plug
    /// errors, and CRMA window errors (all rolled back on failure).
    pub fn borrow_memory(
        &mut self,
        recipient: NodeId,
        bytes: u64,
    ) -> Result<MemoryLease, ShareError> {
        self.borrow_memory_filtered(recipient, bytes, |_| true)
    }

    /// [`Cluster::borrow_memory`] with a caller-supplied donor veto:
    /// `donor_ok` is ANDed into the Monitor Node's handshake, so a
    /// vetoed donor is consumed from the candidate set and the MN's
    /// retry loop falls through to the next-nearest one. Callers use
    /// this to steer placement by criteria the MN cannot see — e.g.
    /// fabric congestion along the recipient↔donor path.
    ///
    /// # Errors
    ///
    /// Propagates Monitor-Node allocation failures, hot-remove/hot-plug
    /// errors, and CRMA window errors (all rolled back on failure).
    pub fn borrow_memory_filtered(
        &mut self,
        recipient: NodeId,
        bytes: u64,
        donor_ok: impl Fn(NodeId) -> bool,
    ) -> Result<MemoryLease, ShareError> {
        let bytes = bytes.next_power_of_two();
        self.node(recipient)?;
        // A heartbeat round first: donors re-report their current idle
        // amounts and lendable bases, so the MN's view is fresh (its
        // records can otherwise be stale; see §5.3's handshake/retry).
        self.tick_heartbeats();
        let now = self.now;
        // ②③: request + donor selection with handshake (the donor
        // accepts if its address space really has the online region).
        let nodes = &self.nodes;
        let grant = self
            .monitor
            .request(
                recipient,
                ResourceKind::Memory,
                bytes,
                now,
                4,
                |donor, amount| {
                    donor_ok(donor)
                        && nodes
                            .get(donor.0 as usize)
                            .map(|n| n.memory.online_bytes() >= amount)
                            .unwrap_or(false)
                },
            )
            .map_err(ShareError::Alloc)?;
        // ③: donor hot-removes. Align the donated window inside the
        // lendable region.
        let donor_base = grant.addr;
        if let Err(e) = self
            .node_mut(grant.donor)?
            .memory
            .hot_remove(donor_base, bytes, recipient)
        {
            self.monitor.release(grant.id);
            return Err(ShareError::Memory(e));
        }
        // The donor now advertises less idle memory.
        {
            let donor_node = self.node_mut(grant.donor)?;
            donor_node.agent.idle_memory = donor_node.agent.idle_memory.saturating_sub(bytes);
            donor_node.agent.lendable_base += bytes;
        }
        // ④: recipient hot-plugs and programs its CRMA window.
        let local_base = {
            let r = self.node_mut(recipient)?;
            let base = r.next_plug_base.next_multiple_of(bytes);
            r.memory
                .hot_plug(base, bytes, grant.donor)
                .map_err(ShareError::Memory)?;
            r.next_plug_base = base + bytes;
            base
        };
        let window = {
            let r = self.node_mut(recipient)?;
            match r
                .crma
                .map_window(local_base, bytes, grant.donor, donor_base)
            {
                Ok(w) => w,
                Err(e) => {
                    r.memory.unplug(local_base).expect("just plugged");
                    self.monitor.release(grant.id);
                    return Err(ShareError::Window(e));
                }
            }
        };
        let setup_time = self.flow.establish(bytes);
        self.now += setup_time;
        let lease = MemoryLease {
            grant_id: grant.id,
            recipient,
            donor: grant.donor,
            bytes,
            local_base,
            donor_base,
            window,
            setup_time,
        };
        self.active.push(lease);
        Ok(lease)
    }

    /// Stop-sharing: tears down `lease` on both sides.
    ///
    /// # Errors
    ///
    /// Propagates teardown failures (double release, unknown nodes).
    pub fn release(&mut self, lease: MemoryLease) -> Result<(), ShareError> {
        self.teardown(lease, true)
    }

    /// Purges `lease` after its donor died: the full ledger teardown of
    /// [`Cluster::release`] — recipient unmap/unplug, donor-side
    /// reclaim with holes parked exactly as a live release would (the
    /// dead donor's address space must be truthful the instant it
    /// recovers), monitor grant retired, sublease chain dropped —
    /// **without charging the teardown flow's latency**: there is no
    /// live donor to run the Fig. 2 teardown handshake, the Monitor
    /// Node simply declares the grant dead.
    ///
    /// # Errors
    ///
    /// [`ShareError::NoLease`] when no active grant has that id;
    /// otherwise propagates teardown failures.
    pub fn purge(&mut self, grant_id: u64) -> Result<MemoryLease, ShareError> {
        let lease = *self
            .active
            .iter()
            .find(|l| l.grant_id == grant_id)
            .ok_or(ShareError::NoLease)?;
        self.teardown(lease, false)?;
        Ok(lease)
    }

    /// Purges every active grant touching `node` (as donor *or*
    /// recipient) — the cluster-side half of crash failover. Grants are
    /// purged oldest-first; the purged leases come back in that order
    /// so the caller can re-establish or account for each. No teardown
    /// latency is charged ([`Cluster::purge`]).
    ///
    /// # Errors
    ///
    /// Propagates the first teardown failure (the ledger is left with
    /// the grants already purged removed).
    pub fn purge_node(&mut self, node: NodeId) -> Result<Vec<MemoryLease>, ShareError> {
        let doomed: Vec<MemoryLease> = self
            .active
            .iter()
            .filter(|l| l.donor == node || l.recipient == node)
            .copied()
            .collect();
        for lease in &doomed {
            self.teardown(*lease, false)?;
        }
        Ok(doomed)
    }

    /// The shared teardown path behind [`Cluster::release`] (which
    /// charges the teardown flow latency) and [`Cluster::purge`] (which
    /// does not — a dead donor cannot run the handshake).
    fn teardown(&mut self, lease: MemoryLease, charge_latency: bool) -> Result<(), ShareError> {
        {
            let r = self.node_mut(lease.recipient)?;
            r.crma
                .unmap_window(lease.window)
                .map_err(ShareError::Window)?;
            r.memory
                .unplug(lease.local_base)
                .map_err(ShareError::Memory)?;
        }
        {
            let d = self.node_mut(lease.donor)?;
            d.memory
                .reclaim(lease.donor_base)
                .map_err(ShareError::Memory)?;
            if lease.donor_base + lease.bytes == d.agent.lendable_base {
                // Top of the donor's lent stack: re-advertise directly,
                // then unwind any earlier out-of-order reclaims that are
                // now exposed at the top.
                d.agent.lendable_base -= lease.bytes;
                d.agent.idle_memory += lease.bytes;
                loop {
                    let top = d.agent.lendable_base;
                    let Some(pos) = d
                        .reclaim_holes
                        .iter()
                        .position(|&(base, len)| base + len == top)
                    else {
                        break;
                    };
                    let (base, len) = d.reclaim_holes.swap_remove(pos);
                    d.agent.lendable_base = base;
                    d.agent.idle_memory += len;
                }
            } else {
                // Out-of-order release (a region below a still-lent one):
                // reclaimed in the address space, but the bump allocator
                // can only lend from the top, so the region must not be
                // re-advertised yet — doing so would hand the next grant
                // an address inside a still-lent window.
                d.reclaim_holes.push((lease.donor_base, lease.bytes));
            }
        }
        self.monitor.release(lease.grant_id);
        if charge_latency {
            self.now += self.flow.teardown(lease.bytes);
        }
        self.active.retain(|l| l.grant_id != lease.grant_id);
        // The sublease chain dies with its grant — releases and revokes
        // route through here, so no annotation can dangle.
        self.subleases.retain(|s| s.grant_id != lease.grant_id);
        Ok(())
    }

    /// Releases `recipient`'s most recently established lease (LIFO — the
    /// order an elastic tier shrinks in, since the newest window sits
    /// highest in the hot-plug range).
    ///
    /// # Errors
    ///
    /// [`ShareError::NoLease`] when the node holds no active lease;
    /// otherwise propagates teardown failures from [`Cluster::release`].
    pub fn release_newest(&mut self, recipient: NodeId) -> Result<MemoryLease, ShareError> {
        let lease = *self
            .active
            .iter()
            .rev()
            .find(|l| l.recipient == recipient)
            .ok_or(ShareError::NoLease)?;
        self.release(lease)?;
        Ok(lease)
    }

    /// Donor-demanded reclaim of a *specific* grant: `donor` pulls the
    /// lease identified by `grant_id` back from its recipient, through
    /// the same teardown path as a voluntary release (recipient unmaps
    /// its CRMA window and hot-unplugs; the donor reclaims — parking the
    /// region as a hole when it sits below a still-lent one, so the bump
    /// allocator never re-advertises space under a live lease).
    ///
    /// # Errors
    ///
    /// [`ShareError::NoLease`] when `donor` holds no active grant of
    /// that id (already released, or lent by someone else); otherwise
    /// propagates teardown failures from [`Cluster::release`].
    pub fn revoke(&mut self, donor: NodeId, grant_id: u64) -> Result<MemoryLease, ShareError> {
        let lease = *self
            .active
            .iter()
            .find(|l| l.donor == donor && l.grant_id == grant_id)
            .ok_or(ShareError::NoLease)?;
        self.release(lease)?;
        Ok(lease)
    }

    /// Donor-demanded reclaim of `donor`'s most recently established
    /// outgoing lease (LIFO: the newest grant unwinds the donor's bump
    /// allocator directly, so it is the cheapest to take back).
    ///
    /// # Errors
    ///
    /// [`ShareError::NoLease`] when `donor` has nothing lent out;
    /// otherwise propagates teardown failures from [`Cluster::release`].
    pub fn revoke_newest(&mut self, donor: NodeId) -> Result<MemoryLease, ShareError> {
        let grant_id = self
            .active
            .iter()
            .rev()
            .find(|l| l.donor == donor)
            .ok_or(ShareError::NoLease)?
            .grant_id;
        self.revoke(donor, grant_id)
    }

    /// Annotates the active grant `grant_id` with a sublease chain: the
    /// chunk serves `tenant` but `lessor`'s quota pays for it. The
    /// cluster keeps the chain on the active-lease ledger so teardown —
    /// voluntary release or donor revoke, holes parked and all — also
    /// retires the chain, and so the lease layer's market ledger can be
    /// reconciled against an independent accounting view.
    ///
    /// # Errors
    ///
    /// [`ShareError::NoLease`] when no active grant has that id;
    /// [`ShareError::AlreadySubleased`] when the grant already carries a
    /// chain (one chunk, one paying tenant).
    pub fn mark_sublease(
        &mut self,
        grant_id: u64,
        lessor: u32,
        tenant: u32,
    ) -> Result<(), ShareError> {
        if !self.active.iter().any(|l| l.grant_id == grant_id) {
            return Err(ShareError::NoLease);
        }
        if self.subleases.iter().any(|s| s.grant_id == grant_id) {
            return Err(ShareError::AlreadySubleased);
        }
        self.subleases.push(SubleaseChain {
            grant_id,
            lessor,
            tenant,
        });
        Ok(())
    }

    /// The sublease chain annotated on `grant_id`, if any.
    pub fn sublease_of(&self, grant_id: u64) -> Option<SubleaseChain> {
        self.subleases
            .iter()
            .find(|s| s.grant_id == grant_id)
            .copied()
    }

    /// All live sublease chains, in annotation order.
    pub fn active_subleases(&self) -> &[SubleaseChain] {
        &self.subleases
    }

    /// Total bytes currently held under a sublease chain (the market
    /// half of [`Cluster::borrowed_bytes`]).
    pub fn subleased_bytes(&self) -> u64 {
        self.subleases
            .iter()
            .map(|s| {
                self.active
                    .iter()
                    .find(|l| l.grant_id == s.grant_id)
                    .map(|l| l.bytes)
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Bytes of live grants charged against `lessor`'s quota through
    /// sublease chains.
    pub fn subleased_bytes_charged_to(&self, lessor: u32) -> u64 {
        self.subleases
            .iter()
            .filter(|s| s.lessor == lessor)
            .map(|s| {
                self.active
                    .iter()
                    .find(|l| l.grant_id == s.grant_id)
                    .map(|l| l.bytes)
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Bytes `recipient` currently holds under sublease chains (the
    /// market-charged slice of [`Cluster::borrowed_bytes_of`]) — the
    /// per-node gauge the telemetry sampler reads.
    pub fn subleased_bytes_of(&self, recipient: NodeId) -> u64 {
        self.subleases
            .iter()
            .map(|s| {
                self.active
                    .iter()
                    .find(|l| l.grant_id == s.grant_id && l.recipient == recipient)
                    .map(|l| l.bytes)
                    .unwrap_or(0)
            })
            .sum()
    }

    /// All leases established and not yet released, in establishment order.
    pub fn active_leases(&self) -> &[MemoryLease] {
        &self.active
    }

    /// Total bytes currently borrowed across the cluster.
    pub fn borrowed_bytes(&self) -> u64 {
        self.active.iter().map(|l| l.bytes).sum()
    }

    /// Bytes `recipient` currently borrows from the rest of the cluster.
    pub fn borrowed_bytes_of(&self, recipient: NodeId) -> u64 {
        self.active
            .iter()
            .filter(|l| l.recipient == recipient)
            .map(|l| l.bytes)
            .sum()
    }

    /// Bytes `donor` currently has lent out to the rest of the cluster
    /// (the donor-side pressure signal's memory half).
    pub fn lent_bytes_of(&self, donor: NodeId) -> u64 {
        self.active
            .iter()
            .filter(|l| l.donor == donor)
            .map(|l| l.bytes)
            .sum()
    }

    /// A remote cacheline read by `node` at `addr` (must be inside a
    /// borrowed window): returns the end-to-end latency.
    ///
    /// # Errors
    ///
    /// [`ShareError::NotRemote`] when `addr` is not remote-mapped.
    pub fn crma_read(&mut self, node: NodeId, addr: u64) -> Result<Time, ShareError> {
        let path = self.path.clone();
        let n = self.node_mut(node)?;
        n.crma
            .read_latency(&path, addr)
            .ok_or(ShareError::NotRemote)
    }

    /// Checks the single-subscriber invariant across all nodes.
    pub fn memory_consistent(&self) -> bool {
        let spaces: Vec<AddressSpace> = self.nodes.iter().map(|n| n.memory.clone()).collect();
        AddressSpace::pairwise_consistent(&spaces)
    }

    /// Total memory visible to `node`'s OS.
    pub fn visible_memory(&self, node: NodeId) -> u64 {
        self.nodes
            .get(node.0 as usize)
            .map(|n| n.memory.visible_bytes())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn borrow_grows_visible_memory_and_stays_consistent() {
        let mut c = Cluster::prototype();
        let before = c.visible_memory(NodeId(0));
        let lease = c.borrow_memory(NodeId(0), 256 << 20).unwrap();
        assert_eq!(c.visible_memory(NodeId(0)), before + (256 << 20));
        assert!(c.memory_consistent());
        // Donor is a direct mesh neighbor (distance policy).
        assert!(
            [1u16, 2, 4].contains(&lease.donor.0),
            "donor {:?}",
            lease.donor
        );
        c.release(lease).unwrap();
        assert_eq!(c.visible_memory(NodeId(0)), before);
        assert!(c.memory_consistent());
    }

    #[test]
    fn borrowed_window_is_readable_and_torn_down() {
        let mut c = Cluster::prototype();
        let lease = c.borrow_memory(NodeId(0), 128 << 20).unwrap();
        let lat = c.crma_read(NodeId(0), lease.local_base + 4096).unwrap();
        assert!(lat.as_us_f64() > 2.0 && lat.as_us_f64() < 20.0, "lat {lat}");
        c.release(lease).unwrap();
        assert_eq!(
            c.crma_read(NodeId(0), lease.local_base + 4096),
            Err(ShareError::NotRemote)
        );
    }

    #[test]
    fn multiple_borrowers_draw_from_different_donors() {
        let mut c = Cluster::prototype();
        // Each node lends up to 512 MB; ask for 512 MB twice from node 0:
        // two different donors must serve.
        let a = c.borrow_memory(NodeId(0), 512 << 20).unwrap();
        let b = c.borrow_memory(NodeId(0), 512 << 20).unwrap();
        assert_ne!(a.donor, b.donor);
        assert!(c.memory_consistent());
        assert_eq!(c.visible_memory(NodeId(0)), (1 << 30) + (1 << 30));
    }

    #[test]
    fn exhaustion_reports_no_capacity() {
        let config = PlatformConfig::venice_prototype();
        let mut c = Cluster::with_config(&config, 64 << 20);
        // 7 donors x 64 MB each; the 8th request must fail.
        let mut leases = Vec::new();
        for _ in 0..7 {
            leases.push(c.borrow_memory(NodeId(0), 64 << 20).unwrap());
        }
        let err = c.borrow_memory(NodeId(0), 64 << 20).unwrap_err();
        assert!(matches!(err, ShareError::Alloc(_)), "{err:?}");
        for l in leases {
            c.release(l).unwrap();
        }
        assert!(c.memory_consistent());
    }

    #[test]
    fn setup_time_scales_with_size() {
        let mut c = Cluster::prototype();
        let small = c.borrow_memory(NodeId(0), 64 << 20).unwrap();
        let large = c.borrow_memory(NodeId(3), 512 << 20).unwrap();
        assert!(large.setup_time > small.setup_time);
    }

    #[test]
    fn large_memory_nodes_plug_above_their_own_region() {
        // 8 GB nodes: borrowed windows must land above 8 GB, not at the
        // 4 GB line inside the node's own online memory.
        let mut c = Cluster::mesh(2, 2, 1, 8 << 30, 2 << 30);
        let lease = c.borrow_memory(NodeId(0), 1 << 30).unwrap();
        assert!(lease.local_base >= 8 << 30, "base {:#x}", lease.local_base);
        assert!(c.memory_consistent());
        c.release(lease).unwrap();
    }

    #[test]
    fn every_borrow_sends_one_heartbeat_round() {
        // Static provisioning's cadence: one round at construction and one
        // before each borrow, 100 ms apart on the cluster clock.
        let mut c = Cluster::mesh(4, 2, 2, 1 << 30, 512 << 20);
        assert_eq!(c.now(), Time::from_ms(100));
        let mut setup = Time::ZERO;
        for id in 0..16 {
            setup += c.borrow_memory(NodeId(id), 256 << 20).unwrap().setup_time;
        }
        assert_eq!(c.now(), Time::from_ms(1_700) + setup);
        for node in &c.nodes {
            assert_eq!(node.agent.heartbeats_sent(), 17);
            for &to in &node.agent.neighbors {
                assert!(c.monitor.link_up(node.agent.node(), to));
            }
        }
    }

    #[test]
    fn arbitrary_mesh_clusters_share_memory() {
        // A 4x2x2 (16-node) cluster, beyond the paper's 8-node prototype.
        let mut c = Cluster::mesh(4, 2, 2, 1 << 30, 512 << 20);
        assert_eq!(c.len(), 16);
        let lease = c.borrow_memory(NodeId(5), 128 << 20).unwrap();
        assert!(c.memory_consistent());
        let lat = c.crma_read(NodeId(5), lease.local_base).unwrap();
        assert!(lat.as_us_f64() > 1.0, "lat {lat}");
        c.release(lease).unwrap();
    }

    #[test]
    fn ledger_tracks_borrow_and_release() {
        let mut c = Cluster::prototype();
        assert_eq!(c.borrowed_bytes(), 0);
        let a = c.borrow_memory(NodeId(0), 64 << 20).unwrap();
        let b = c.borrow_memory(NodeId(0), 128 << 20).unwrap();
        let other = c.borrow_memory(NodeId(3), 64 << 20).unwrap();
        assert_eq!(c.active_leases().len(), 3);
        assert_eq!(c.borrowed_bytes(), (64 << 20) + (128 << 20) + (64 << 20));
        assert_eq!(c.borrowed_bytes_of(NodeId(0)), (64 << 20) + (128 << 20));
        // LIFO release pops the newest lease for the node.
        let popped = c.release_newest(NodeId(0)).unwrap();
        assert_eq!(popped, b);
        assert_eq!(c.borrowed_bytes_of(NodeId(0)), 64 << 20);
        let popped = c.release_newest(NodeId(0)).unwrap();
        assert_eq!(popped, a);
        assert_eq!(c.release_newest(NodeId(0)), Err(ShareError::NoLease));
        c.release(other).unwrap();
        assert_eq!(c.borrowed_bytes(), 0);
        assert!(c.memory_consistent());
    }

    #[test]
    fn purge_skips_teardown_latency_but_keeps_the_ledger_honest() {
        let mut c = Cluster::prototype();
        let lease = c.borrow_memory(NodeId(0), 128 << 20).unwrap();
        let before = c.now();
        let purged = c.purge(lease.grant_id).unwrap();
        assert_eq!(purged, lease);
        assert_eq!(c.now(), before, "a dead donor cannot run teardown");
        assert_eq!(c.borrowed_bytes(), 0);
        assert!(c.active_leases().is_empty());
        assert!(c.memory_consistent());
        assert_eq!(c.purge(lease.grant_id), Err(ShareError::NoLease));
        // The donor's capacity is whole again: the same borrow succeeds.
        let again = c.borrow_memory(NodeId(0), 128 << 20).unwrap();
        assert_eq!(again.donor, lease.donor);
        c.release(again).unwrap();
    }

    #[test]
    fn purge_parks_out_of_order_holes_like_a_release() {
        // Same shape as the out-of-order release test, through the
        // purge path: the older grant's region must park as a hole, not
        // be re-advertised under the still-lent newer window.
        let mut c = Cluster::mesh(2, 1, 1, 1 << 30, 512 << 20);
        let l1 = c.borrow_memory(NodeId(0), 128 << 20).unwrap();
        let l2 = c.borrow_memory(NodeId(0), 128 << 20).unwrap();
        c.purge(l1.grant_id).unwrap();
        assert!(c.memory_consistent());
        let l3 = c.borrow_memory(NodeId(0), 256 << 20).unwrap();
        assert!(
            l3.donor_base >= l2.donor_base + l2.bytes,
            "purge re-advertised a hole under the live window"
        );
        assert!(c.memory_consistent());
    }

    #[test]
    fn purge_node_retires_every_grant_touching_the_dead_node() {
        let mut c = Cluster::prototype();
        // Node 0 borrows (node 0 as recipient), and some donor lends to
        // node 3 — crash whichever node donated to node 0.
        let a = c.borrow_memory(NodeId(0), 64 << 20).unwrap();
        let b = c.borrow_memory(NodeId(3), 64 << 20).unwrap();
        let dead = a.donor;
        let purged = c.purge_node(dead).unwrap();
        assert!(purged.contains(&a));
        let survivors = c.active_leases().to_vec();
        if b.donor == dead || b.recipient == dead {
            assert!(purged.contains(&b));
            assert!(survivors.is_empty());
        } else {
            assert_eq!(survivors, vec![b]);
        }
        assert!(c.memory_consistent());
        assert!(c.purge_node(dead).unwrap().is_empty());
    }

    #[test]
    fn purge_drops_the_sublease_chain_with_the_grant() {
        let mut c = Cluster::prototype();
        let lease = c.borrow_memory(NodeId(0), 64 << 20).unwrap();
        c.mark_sublease(lease.grant_id, 2, 5).unwrap();
        assert_eq!(c.subleased_bytes(), 64 << 20);
        c.purge(lease.grant_id).unwrap();
        assert_eq!(c.subleased_bytes(), 0);
        assert!(c.active_subleases().is_empty());
    }

    #[test]
    fn out_of_order_release_keeps_donor_lendable_consistent() {
        // Two leases from the same donor (a 2-node mesh has only one
        // donor), released oldest-first — the order a bump allocator
        // cannot unwind directly. The donor's advertised capacity must
        // stay truthful throughout, and fully recover once both are back.
        let mut c = Cluster::mesh(2, 1, 1, 1 << 30, 512 << 20);
        let l1 = c.borrow_memory(NodeId(0), 128 << 20).unwrap();
        let l2 = c.borrow_memory(NodeId(0), 128 << 20).unwrap();
        assert_eq!(l1.donor, l2.donor);
        // Out-of-order: release the older lease first. Its region parks
        // as a hole (l2 still occupies the space above it), but the
        // donor's untouched top space remains grantable — and the next
        // borrow must come from there, never from inside l2's window
        // (the pre-fix bump pointer pointed straight at it).
        c.release(l1).unwrap();
        assert!(c.memory_consistent());
        let l3 = c.borrow_memory(NodeId(0), 256 << 20).unwrap();
        assert!(
            l3.donor_base >= l2.donor_base + l2.bytes,
            "grant {:#x} collides with the still-lent window at {:#x}",
            l3.donor_base,
            l2.donor_base
        );
        assert!(c.memory_consistent());
        // The parked hole is not re-advertised while l2 is live: the
        // donor's remaining capacity is exhausted, so another 128 MB
        // borrow must be refused rather than mis-granted from the hole.
        let err = c.borrow_memory(NodeId(0), 128 << 20).unwrap_err();
        assert!(matches!(err, ShareError::Alloc(_)), "{err:?}");
        // Releasing the newer lease unwinds the stack and re-exposes the
        // hole: after all releases the full lendable capacity returns.
        c.release(l3).unwrap();
        c.release(l2).unwrap();
        assert_eq!(c.borrowed_bytes(), 0);
        let big = c.borrow_memory(NodeId(0), 512 << 20).unwrap();
        assert!(c.memory_consistent());
        c.release(big).unwrap();
    }

    #[test]
    fn donor_revokes_newest_grant_and_capacity_recovers() {
        // A 2-node mesh: node 1 is the only donor for node 0.
        let mut c = Cluster::mesh(2, 1, 1, 1 << 30, 512 << 20);
        let l1 = c.borrow_memory(NodeId(0), 128 << 20).unwrap();
        let l2 = c.borrow_memory(NodeId(0), 128 << 20).unwrap();
        assert_eq!(c.lent_bytes_of(NodeId(1)), 256 << 20);
        assert_eq!(
            c.active_leases()
                .iter()
                .filter(|l| l.donor == NodeId(1))
                .count(),
            2
        );
        // The donor demands its newest grant back: LIFO picks l2.
        let revoked = c.revoke_newest(NodeId(1)).unwrap();
        assert_eq!(revoked, l2);
        assert_eq!(c.lent_bytes_of(NodeId(1)), 128 << 20);
        assert_eq!(c.borrowed_bytes_of(NodeId(0)), 128 << 20);
        assert!(c.memory_consistent());
        // The reclaimed window is no longer readable on the recipient.
        assert_eq!(
            c.crma_read(NodeId(0), revoked.local_base + 64),
            Err(ShareError::NotRemote)
        );
        // Revoking a specific mid-stack grant parks a hole (l1 sits
        // below nothing now, so here it unwinds directly) and the full
        // capacity is grantable again afterwards.
        c.revoke(NodeId(1), l1.grant_id).unwrap();
        assert_eq!(c.borrowed_bytes(), 0);
        let big = c.borrow_memory(NodeId(0), 512 << 20).unwrap();
        assert!(c.memory_consistent());
        c.release(big).unwrap();
        // Nothing lent: a revoke has nothing to take.
        assert_eq!(c.revoke_newest(NodeId(1)), Err(ShareError::NoLease));
        // A donor cannot revoke someone else's grant id.
        let l3 = c.borrow_memory(NodeId(0), 64 << 20).unwrap();
        assert_eq!(
            c.revoke(NodeId(0), l3.grant_id),
            Err(ShareError::NoLease),
            "only the lease's donor may revoke it"
        );
        c.release(l3).unwrap();
    }

    #[test]
    fn sublease_chains_live_and_die_with_their_grants() {
        // A 2-node mesh: node 1 is the only donor for node 0.
        let mut c = Cluster::mesh(2, 1, 1, 1 << 30, 512 << 20);
        let l1 = c.borrow_memory(NodeId(0), 128 << 20).unwrap();
        let l2 = c.borrow_memory(NodeId(0), 128 << 20).unwrap();
        // Annotate the *older* grant: tenant 3 uses it, tenant 7 pays.
        c.mark_sublease(l1.grant_id, 7, 3).unwrap();
        assert_eq!(
            c.sublease_of(l1.grant_id),
            Some(SubleaseChain {
                grant_id: l1.grant_id,
                lessor: 7,
                tenant: 3
            })
        );
        assert_eq!(c.sublease_of(l2.grant_id), None);
        assert_eq!(c.subleased_bytes(), 128 << 20);
        assert_eq!(c.subleased_bytes_charged_to(7), 128 << 20);
        assert_eq!(c.subleased_bytes_charged_to(3), 0);
        // The per-node view attributes the chain to the recipient.
        assert_eq!(c.subleased_bytes_of(NodeId(0)), 128 << 20);
        assert_eq!(c.subleased_bytes_of(NodeId(1)), 0);
        // One chunk, one paying tenant: double-marking is refused, and
        // an unknown grant cannot be marked.
        assert_eq!(
            c.mark_sublease(l1.grant_id, 9, 3),
            Err(ShareError::AlreadySubleased)
        );
        assert_eq!(c.mark_sublease(0xDEAD, 7, 3), Err(ShareError::NoLease));
        // The donor revokes the subleased grant — mid-stack, so the
        // reclaimed region parks as a hole under the still-lent l2. The
        // chain must die with the grant and the hole must stay parked
        // (no mis-grant from inside l2's window).
        let revoked = c.revoke(NodeId(1), l1.grant_id).unwrap();
        assert_eq!(revoked.grant_id, l1.grant_id);
        assert_eq!(c.sublease_of(l1.grant_id), None);
        assert_eq!(c.subleased_bytes(), 0);
        assert!(c.memory_consistent());
        // The donor's remaining capacity excludes the parked hole: a
        // 384 MB grant (the untouched top) fits, the hole does not rejoin
        // until l2 unwinds.
        let l3 = c.borrow_memory(NodeId(0), 256 << 20).unwrap();
        assert!(
            l3.donor_base >= l2.donor_base + l2.bytes,
            "grant {:#x} collides with the still-lent window at {:#x}",
            l3.donor_base,
            l2.donor_base
        );
        // Voluntary release also retires a chain.
        c.mark_sublease(l3.grant_id, 1, 2).unwrap();
        assert_eq!(c.subleased_bytes(), 256 << 20);
        c.release(l3).unwrap();
        assert_eq!(c.sublease_of(l3.grant_id), None);
        assert_eq!(c.subleased_bytes(), 0);
        c.release(l2).unwrap();
        assert_eq!(c.borrowed_bytes(), 0);
        let big = c.borrow_memory(NodeId(0), 512 << 20).unwrap();
        assert!(c.memory_consistent());
        c.release(big).unwrap();
    }

    #[test]
    fn double_release_fails() {
        let mut c = Cluster::prototype();
        let lease = c.borrow_memory(NodeId(0), 64 << 20).unwrap();
        c.release(lease).unwrap();
        assert!(c.release(lease).is_err());
    }
}
