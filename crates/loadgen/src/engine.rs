//! The traffic engine: a discrete-event load generator over the cluster.
//!
//! One [`Run`] builds a real [`Cluster`] (Monitor-Node memory
//! borrowing included), provisions the remote tier — **statically** at
//! setup, or **elastically** through a [`venice_lease::LeaseManager`]
//! that borrows and releases capacity *during* the run as per-node queue
//! depth crosses its watermarks — and then drives the configured
//! [`ArrivalProcess`] through per-node admission (priority-scaled caps),
//! locality-aware routing, a per-node QPair (finite credits — transport
//! backpressure), and per-node service slots. Every stochastic draw comes
//! from one seeded [`SimRng`] consumed in event order, so a seed fully
//! determines the run: identical seeds produce identical [`LoadReport`]s
//! — and identical lease timelines — bit for bit.
//!
//! # The typed, zero-allocation event core
//!
//! The engine runs on `Kernel<World, EngineEvent>`: every scheduled
//! occurrence is a plain `EngineEvent` enum value fired through one
//! `match`, not a heap-allocated `Box<dyn FnOnce>` closure. In-flight
//! request state is pooled in a free-list slab (`RequestSlab` below),
//! so a `Finish` event carries a 4-byte slot index instead of the whole
//! request, steady-state traffic performs **zero allocations per
//! request**, and per-request transport latency is precomputed per
//! (node, tenant class) instead of re-derived on every dispatch. The
//! pre-rewrite closure engine is preserved bit-for-bit compatible in
//! [`crate::legacy`]; `cargo run --release -p venice-bench --bin
//! throughput` times the two side by side into `BENCH_perf.json`.

use std::collections::VecDeque;
use std::ops::Range;

use venice::cluster::Cluster;
use venice::{MemoryLease, NodeId};
use venice_lease::{LeaseAction, LeaseConfig, LeaseManager, NodeSignal, Priority, NO_TENANT};
use venice_sim::{Kernel, LogHistogram, QueueStats, Scheduler, SimEvent, SimRng, Time};
use venice_telemetry::attrib::{
    StageBreakdown, STAGE_DETOUR, STAGE_ESTABLISH_STALL, STAGE_QUEUE_WAIT, STAGE_SERVICE_LOCAL,
    STAGE_SERVICE_REMOTE, STAGE_SLOT_WAIT, STAGE_TRANSPORT,
};
use venice_telemetry::{NodeGauges, NoopProbe, Probe, SampleRow, SpanKind, TenantCounters};
use venice_transport::qpair::QpairError;
use venice_transport::{QpairConfig, QueuePair};
use venice_workloads::ZipfSampler;

use crate::admission::{AdmissionConfig, AdmissionControl, Decision, ShedReason};
use crate::arrival::{exponential, ArrivalProcess};
use crate::faults::{FaultModel, FaultPlan, FaultTransition, NoFaults};
use crate::remote::{CongestedFabric, RemoteModel, RemoteModelCfg, ScalarCrma};
use crate::report::{LeaseSummary, LoadReport, TenantReport};
use crate::stacks::RemoteStack;
use crate::tenants::{CompiledAttrib, CompiledService, NodeModel, TenantClass, TenantMix};
use crate::trace::{RequestOutcome, RequestRecord, Trace};

/// Local DRAM miss latency used for the non-borrowed tier.
const LOCAL_MISS: Time = Time::from_ns(100);

/// Lendable pool per node — what each node offers the cluster (the
/// second argument of the `Cluster::mesh` call below), and therefore the
/// denominator of the donor-pressure fraction.
const LENDABLE_PER_NODE: u64 = 512 << 20;

/// Tag value for "no tenant has driven a lease on this node yet"
/// (doubles as the lease manager's unattributed-tenant sentinel).
const NO_TAG: u32 = NO_TENANT;

/// Full configuration of one loadgen run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Experiment seed; fully determines the run.
    pub seed: u64,
    /// Mesh dimensions (`dx`, `dy`, `dz`); the cluster has `dx*dy*dz`
    /// nodes.
    pub mesh: (u16, u16, u16),
    /// Tenant mix to generate.
    pub mix: TenantMix,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Total requests to generate (issued, whether or not admitted).
    pub requests: u64,
    /// Service slots per node (cores dedicated to request work).
    pub per_node_concurrency: u32,
    /// Front-door admission control (cluster-wide budgets, split across
    /// nodes).
    pub admission: AdmissionConfig,
    /// Remote memory each node provisions at setup under static
    /// provisioning, and the full-tier reference level under elastic
    /// leases (0 disables the remote tier).
    pub remote_memory_per_node: u64,
    /// Remote-memory stack serving the borrowed tier.
    pub stack: RemoteStack,
    /// Elastic lease management. `None` provisions
    /// `remote_memory_per_node` once at setup and holds it (PR 1
    /// behavior); `Some` starts every node at the lease floor and lets
    /// the manager grow/shrink the tier mid-run. Requires a stack with
    /// [`RemoteStack::supports_elastic`].
    pub lease: Option<LeaseConfig>,
    /// How remote transfers are priced: the measured per-node scalar
    /// (the frozen default) or live fabric congestion over modeled
    /// per-link utilization windows ([`crate::remote`]).
    pub remote_model: RemoteModelCfg,
}

impl LoadgenConfig {
    /// A sensible default configuration over `mix`: the paper's 8-node
    /// mesh, 20 krps open-loop Poisson arrivals, 50 k requests, 8 service
    /// slots per node, 256 MB borrowed per node, Venice CRMA stack,
    /// static provisioning.
    pub fn new(seed: u64, mix: TenantMix) -> Self {
        LoadgenConfig {
            seed,
            mesh: (2, 2, 2),
            mix,
            arrival: ArrivalProcess::OpenPoisson { rate_rps: 20_000.0 },
            requests: 50_000,
            per_node_concurrency: 8,
            admission: AdmissionConfig::default(),
            remote_memory_per_node: 256 << 20,
            stack: RemoteStack::VeniceCrma,
            lease: None,
            remote_model: RemoteModelCfg::Scalar,
        }
    }

    /// Number of nodes described by `mesh`.
    ///
    /// # Panics
    ///
    /// Panics if the mesh exceeds the `u16` `NodeId` space.
    pub fn nodes(&self) -> u16 {
        let n = self.mesh.0 as u32 * self.mesh.1 as u32 * self.mesh.2 as u32;
        u16::try_from(n)
            .unwrap_or_else(|_| panic!("mesh {:?} exceeds the u16 NodeId space", self.mesh))
    }
}

/// Side-channel counters from one engine run.
///
/// Kept out of [`LoadReport`] deliberately: the report's JSON shape is
/// frozen by the determinism gate (its serialization is byte-diffed
/// across thread counts and against the legacy engine), while these
/// loop-level counters exist for the `throughput` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Logical events processed over the whole run: kernel-dispatched
    /// events plus arrivals absorbed by lookahead fusion. This equals
    /// the event count the boxed-closure engine executes for the same
    /// configuration, so events/sec is comparable across the two cores.
    pub events: u64,
    /// Arrivals processed in place by lookahead fusion (never enqueued).
    pub fused_arrivals: u64,
    /// Peak number of simultaneously pending events (peak event-queue
    /// depth).
    pub peak_queue_depth: usize,
    /// Cumulative event-queue traffic counters (near-buffer hits vs
    /// heap sifts).
    pub queue: QueueStats,
    /// End-of-run `(live, capacity)` occupancy of the kernel's event
    /// slab.
    pub slab: (usize, usize),
}

/// One in-flight request (plain data; pooled in [`RequestSlab`]).
/// Request/response payload sizes are class constants and live in
/// per-class tables on the world, not here — the slab entry stays at
/// 48 bytes.
#[derive(Debug, Clone, Copy)]
struct Request {
    seq: u64,
    class: u32,
    user: u64,
    node: u16,
    arrival: Time,
    service: Time,
    /// Newest lease generation on the serving node at arrival.
    generation: u64,
}

/// Free-list slab pooling in-flight [`Request`] state.
///
/// A request lives in the slab from admission until it completes (or is
/// dropped at backlog overflow); events and backlogs carry its 4-byte
/// slot index. Freed slots are reused LIFO, so the slab stops growing
/// once it reaches the peak in-flight population and the steady state
/// allocates nothing.
struct RequestSlab {
    entries: Vec<Request>,
    free: Vec<u32>,
}

impl RequestSlab {
    fn new() -> Self {
        RequestSlab {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `req`, returning its slot.
    #[inline]
    fn insert(&mut self, req: Request) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = req;
                slot
            }
            None => {
                let slot = u32::try_from(self.entries.len()).expect("request slab overflow");
                self.entries.push(req);
                slot
            }
        }
    }

    /// Shared access to the request in `slot`.
    #[inline]
    fn get(&self, slot: u32) -> &Request {
        &self.entries[slot as usize]
    }

    /// Removes and returns the request in `slot`, freeing it for reuse.
    #[inline]
    fn take(&mut self, slot: u32) -> Request {
        self.free.push(slot);
        self.entries[slot as usize]
    }

    /// Slots currently live (not on the free list) whose request is
    /// bound to `node`, ascending. Crash path only — O(slab), never on
    /// the per-request path.
    fn live_slots_on(&self, node: u16) -> Vec<u32> {
        let free: std::collections::HashSet<u32> = self.free.iter().copied().collect();
        (0..self.entries.len() as u32)
            .filter(|slot| !free.contains(slot) && self.entries[*slot as usize].node == node)
            .collect()
    }
}

/// Per-slot attribution stamps, paralleling one [`RequestSlab`] slot.
///
/// Kept in a side slab on the world rather than in [`Request`] so the
/// no-op path's 48-byte slab entry is untouched; the vector stays empty
/// (never allocated, never written) unless the probe is enabled.
#[derive(Debug, Clone, Copy, Default)]
struct ReqAttrib {
    /// When the request last cleared the credit gate (`== arrival` when
    /// it never parked in the backlog).
    dispatch_at: Time,
    /// Remote-CRMA picoseconds of the sampled service time
    /// ([`CompiledAttrib::remote_ps`]).
    remote_ps: u64,
    /// Whether it parked while a grow's establish flow was pending on
    /// its node — the queue wait is then a lease-establish stall, not
    /// ordinary contention.
    stalled: bool,
}

/// Per-node server state.
struct Server {
    /// Edge-gateway → node messaging channel (finite credits).
    qp: QueuePair,
    /// Busy-until time of each service slot.
    slots: Vec<Time>,
    /// Slab slots of requests waiting for a QPair credit.
    backlog: VecDeque<u32>,
    /// Measured latency context (mutated mid-run by elastic leases).
    model: NodeModel,
    /// Times a request found no credit and had to wait (or was shed).
    credit_waits: u64,
    /// Dispatched-but-not-finished requests per tenant class; together
    /// with the backlog this is the demand signal lease attribution
    /// reads (the grow trigger counts busy slots, so attribution must
    /// see in-service work too, not just the backlog).
    inflight_by_class: Vec<u32>,
    /// Precomputed gateway→node QPair message latency per tenant class
    /// (request payload sizes are class constants, and the latency model
    /// is state-free — hoisting it off the dispatch path is pure
    /// savings).
    msg_lat_by_class: Vec<Time>,
    /// Each tenant class's service model compiled against this node's
    /// current [`NodeModel`] ([`RequestProfile::compile`]); recompiled
    /// whenever a lease event moves the node's remote tier.
    ///
    /// [`RequestProfile::compile`]: crate::tenants::RequestProfile::compile
    service_by_class: Vec<CompiledService>,
    /// Each class's remote-share model compiled against the same
    /// [`NodeModel`] ([`RequestProfile::compile_attrib`]); empty unless
    /// the probe is enabled, recompiled alongside `service_by_class`.
    ///
    /// [`RequestProfile::compile_attrib`]: crate::tenants::RequestProfile::compile_attrib
    attrib_by_class: Vec<CompiledAttrib>,
    /// Instant of the node's most recent arrival and completion, which
    /// flag a same-node arrival/finish tie in either firing order (see
    /// [`World::independent`]).
    last_arrival: Option<Time>,
    last_finish: Option<Time>,
}

/// Per-tenant accumulators.
struct Stats {
    hist: LogHistogram,
    bytes: u64,
    admitted: u64,
    shed_rate: u64,
    shed_overload: u64,
    shed_backpressure: u64,
    /// Requests lost to an injected node crash (stays 0 unless a fault
    /// plan is armed).
    shed_crash: u64,
}

impl Stats {
    fn new() -> Self {
        Stats {
            hist: LogHistogram::new(),
            bytes: 0,
            admitted: 0,
            shed_rate: 0,
            shed_overload: 0,
            shed_backpressure: 0,
            shed_crash: 0,
        }
    }

    /// Books one completion in a single call: latency into the histogram,
    /// payload bytes into the goodput ledger.
    #[inline]
    fn on_complete(&mut self, latency: Time, bytes: u64) {
        self.hist.record(latency);
        self.bytes += bytes;
    }

    /// Adds another shard's accumulators for the same class (histogram
    /// merges and counter sums are commutative, so shard order is moot).
    fn absorb(&mut self, other: &Stats) {
        self.hist.merge(&other.hist);
        self.bytes += other.bytes;
        self.admitted += other.admitted;
        self.shed_rate += other.shed_rate;
        self.shed_overload += other.shed_overload;
        self.shed_backpressure += other.shed_backpressure;
        self.shed_crash += other.shed_crash;
    }
}

/// Elastic-tier state threaded through lease ticks.
struct ElasticTier {
    manager: LeaseManager,
    /// Tenant class whose backlog drove each node's newest lease.
    tags: Vec<u32>,
    /// Each node's *visible* leases (generation, lease), oldest first.
    /// A mid-run grow joins only after its Fig 2 establish flow
    /// completes; shrinks pop from this stack, so an in-flight grow can
    /// never be released before it lands. Revokes may remove from the
    /// middle (the donor demands *its* newest grant, not the
    /// recipient's newest borrow).
    leases: Vec<Vec<(u64, MemoryLease)>>,
    /// Per-class quota flags refreshed each lease tick: `true` while the
    /// class's ledger sits at its byte quota, which collapses its
    /// admission share (over-quota tenants shed first).
    over_quota: Vec<bool>,
}

impl ElasticTier {
    /// The newest visible lease generation on `node` (0 = none).
    fn newest_generation(&self, node: usize) -> u64 {
        self.leases[node].last().map(|&(g, _)| g).unwrap_or(0)
    }

    /// The newest *visible* lease lent by `donor`, as
    /// `(recipient, stack index, generation)` — the revoke target under
    /// recipient-side LIFO preference. Leases still in their establish
    /// flow are not on any stack yet and cannot be revoked.
    fn newest_visible_from(&self, donor: u16) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for (recipient, stack) in self.leases.iter().enumerate() {
            for (idx, &(generation, lease)) in stack.iter().enumerate() {
                if lease.donor.0 == donor && best.map(|(_, _, g)| generation > g).unwrap_or(true) {
                    best = Some((recipient, idx, generation));
                }
            }
        }
        best
    }
}

/// Warms the TLTLB with a throwaway read, then measures the steady-state
/// CRMA read latency of a freshly mapped window — the cold first access
/// pays a one-time translation-miss penalty that must not be charged to
/// every request. The single measurement protocol for static and elastic
/// provisioning alike.
fn measure_crma(cluster: &mut Cluster, node: NodeId, local_base: u64) -> Time {
    cluster
        .crma_read(node, local_base + 64)
        .expect("freshly mapped window is readable");
    cluster
        .crma_read(node, local_base + 64)
        .expect("freshly mapped window is readable")
}

/// Borrows one chunk for `node` through the Monitor-Node flow and
/// measures its CRMA latency. On success returns the new lease's
/// generation, the lease, and the measured latency; on refusal records
/// the denial and returns `None`. Shared by the setup bootstrap and the
/// mid-run lease tick so the borrow/measure/confirm protocol cannot
/// drift apart — the two callers differ only in *when* the capacity
/// becomes visible (instantly at setup; after the lease's establish
/// flow mid-run).
///
/// With `lessor` set the chunk is a market match: the manager confirms
/// it as a sublease and the cluster annotates the grant with the
/// lessor→tenant chain, so the two ledgers can be reconciled at end of
/// run.
///
/// `donor_ok` is the caller's placement veto, threaded into the Monitor
/// Node's handshake ([`Cluster::borrow_memory_filtered`]): a vetoed
/// donor is consumed from the candidate set and the retry loop falls
/// through to the next-nearest one. Congestion-aware placement passes
/// the fabric model's hot-path test; everyone else passes always-true.
#[allow(clippy::too_many_arguments)]
fn grow_lease(
    cluster: &mut Cluster,
    manager: &mut LeaseManager,
    now: Time,
    node: u16,
    tenant: u32,
    predictive: bool,
    priority: Priority,
    lessor: Option<u32>,
    donor_ok: &dyn Fn(NodeId) -> bool,
) -> Option<(u64, MemoryLease, Time)> {
    let chunk = manager.config().chunk_bytes;
    match cluster.borrow_memory_filtered(NodeId(node), chunk, donor_ok) {
        Ok(lease) => {
            let lat = measure_crma(cluster, NodeId(node), lease.local_base);
            let generation = match lessor {
                Some(lessor) => {
                    let generation = manager.confirm_sublease(now, node, tenant, lessor, priority);
                    cluster
                        .mark_sublease(lease.grant_id, lessor, tenant)
                        .expect("fresh grant accepts its sublease chain");
                    generation
                }
                None => manager.confirm_grow(now, node, tenant, predictive, priority),
            };
            Some((generation, lease, lat))
        }
        Err(_) => {
            manager.deny_grow(now, node, tenant, priority);
            None
        }
    }
}

/// Applies a mid-run `Grow` or `Sublease` decision: borrow through the
/// shared flow, schedule the Fig 2 establish completion — the borrowed
/// capacity must not serve requests before the flow completes, or the
/// elastic-vs-static comparison would credit elastic with instant
/// provisioning — and bump the donor's lent pressure (its memory is
/// committed at borrow time, even though the recipient's visibility
/// waits on the establish flow). `lessor` marks a market match.
fn apply_grow<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
    now: Time,
    signals: &[NodeSignal],
    node: u16,
    predictive: bool,
    lessor: Option<u32>,
) {
    let tenant = signals[node as usize].tenant;
    let priority = signals[node as usize].priority;
    // Under congestion-aware placement the fabric model vetoes donors
    // whose node↔donor path is currently backlogged; with a fault plan
    // armed, dead nodes are vetoed unconditionally — a crashed donor
    // cannot map memory (2021-edition closures capture the `remote` and
    // `faults` fields alone, so these shared borrows coexist with the
    // mutable cluster/manager borrows below).
    let donor_ok =
        |d: NodeId| (!F::ENABLED || w.faults.node_up(d.0)) && w.remote.donor_ok(now, node, d.0);
    let tier = w.elastic.as_mut().expect("elastic run");
    if let Some((generation, lease, lat)) = grow_lease(
        &mut w.cluster,
        &mut tier.manager,
        now,
        node,
        tenant,
        predictive,
        priority,
        lessor,
        &donor_ok,
    ) {
        s.schedule_event_in(
            lease.setup_time,
            EngineEvent::LeaseEstablished(Box::new(LeaseEstablish {
                node,
                generation,
                lease,
                class_tag: tenant,
                lat,
                failover_of: 0,
            })),
        );
        sync_donor_pressure(w, lease.donor.0);
        if P::ENABLED {
            w.probe
                .span_open(SpanKind::Establish, node, generation, now);
        }
        if P::ATTRIB {
            w.pending_grows[node as usize] += 1;
        }
    }
}

/// Refreshes `donor`'s lent-memory pressure from the cluster ledger and
/// recompiles its service models — called wherever a grant involving the
/// donor is established or torn down. A no-op unless the pressure term
/// is armed, so untouched configurations never recompile here.
fn sync_donor_pressure<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    donor: u16,
) {
    if w.servers[donor as usize].model.lent_slowdown > 0.0 {
        let lent = w.cluster.lent_bytes_of(NodeId(donor));
        w.servers[donor as usize].model.lent_bytes = lent;
        recompile_service(w, donor as usize);
    }
}

/// One scheduled occurrence in the typed engine: a plain enum value,
/// scheduled by value and fired through a single `match` — no `Box`, no
/// vtable on the per-request path. The hot variants (arrivals,
/// completions, ticks) carry at most a 4-byte slab slot, keeping the
/// enum at 16 bytes so queue pushes and pops move almost nothing; the
/// rare lease-flow completions (a few hundred per run, vs millions of
/// requests) box their fat payloads rather than inflating every event.
enum EngineEvent {
    /// Open-loop arrival: issue one request, schedule the next at the
    /// process's instantaneous rate.
    Arrival,
    /// Closed-loop session fires its next request.
    SessionNext,
    /// Replay cursor re-drives the next recorded request.
    ReplayNext,
    /// A dispatched request finishes service; payload is its
    /// [`RequestSlab`] slot.
    Finish(u32),
    /// Periodic elastic-lease control tick.
    LeaseTick,
    /// A mid-run grow's Fig 2 establish flow completes: the borrowed
    /// chunk becomes visible to routing and the service model.
    LeaseEstablished(Box<LeaseEstablish>),
    /// A donor-demanded revoke's modeled teardown flow completes: the
    /// grant is pulled back through the Monitor–Node path.
    RevokeTorndown(Box<RevokeTeardown>),
    /// The fault plan's next transition comes due: crash/recover a
    /// node, cut/heal a link, or change a link's loss rate. Scheduled
    /// only when a [`FaultPlan`] is armed.
    FaultTick,
}

impl EngineEvent {
    /// Stable probe slot for this event kind; must stay in step with
    /// [`crate::telemetry::EVENT_KIND_LABELS`].
    fn kind(&self) -> u8 {
        match self {
            EngineEvent::Arrival => 0,
            EngineEvent::SessionNext => 1,
            EngineEvent::ReplayNext => 2,
            EngineEvent::Finish(_) => 3,
            EngineEvent::LeaseTick => 4,
            EngineEvent::LeaseEstablished(_) => 5,
            EngineEvent::RevokeTorndown(_) => 6,
            EngineEvent::FaultTick => 7,
        }
    }
}

/// Payload of [`EngineEvent::LeaseEstablished`].
struct LeaseEstablish {
    /// Recipient node.
    node: u16,
    /// Lease generation assigned by the manager at confirm time.
    generation: u64,
    /// The established lease.
    lease: MemoryLease,
    /// Tenant class that drove the grow (`NO_TAG` = unattributed).
    class_tag: u32,
    /// Measured CRMA latency of the new window.
    lat: Time,
    /// Generation of the lease this grow replaces after its donor died
    /// (0 = an ordinary grow): landing it closes the recipient's
    /// failover span.
    failover_of: u64,
}

/// Payload of [`EngineEvent::RevokeTorndown`].
struct RevokeTeardown {
    /// Pressured donor demanding its memory back.
    donor: u16,
    /// Node the chunk is reclaimed from.
    recipient: u16,
    /// Generation of the revoked lease.
    generation: u64,
    /// The lease being torn down.
    lease: MemoryLease,
    /// Priority carried on the revoke decision.
    priority: Priority,
}

/// The engine's scheduler flavor: typed events over the world.
type Sched<'a, P, M, F> = Scheduler<World<'a, P, M, F>, EngineEvent>;

impl<'a, P: Probe, M: RemoteModel, F: FaultModel> SimEvent<World<'a, P, M, F>> for EngineEvent {
    fn fire(self, w: &mut World<'a, P, M, F>, s: &mut Sched<'a, P, M, F>) {
        if P::ENABLED {
            pulse(w, s, self.kind());
        }
        match self {
            EngineEvent::Arrival => open_arrival(w, s),
            EngineEvent::SessionNext => session_arrival(w, s),
            EngineEvent::ReplayNext => replay_arrival(w, s),
            EngineEvent::Finish(slot) => finish(w, s, slot),
            EngineEvent::LeaseTick => lease_tick(w, s),
            EngineEvent::LeaseEstablished(est) => {
                let LeaseEstablish {
                    node,
                    generation,
                    lease,
                    class_tag,
                    lat,
                    failover_of,
                } = *est;
                if P::ATTRIB {
                    w.pending_grows[node as usize] -= 1;
                }
                let now = s.now();
                // The Fig 2 handshake needs both ends alive when it
                // lands: if either died mid-flow, the grant is lost —
                // ledgers unwind without a teardown (no one is left to
                // run one) and the chunk never becomes visible. A crash
                // window the flow straddled entirely (crash *and*
                // recovery before landing) leaves the grant intact.
                if F::ENABLED && (!w.faults.node_up(lease.donor.0) || !w.faults.node_up(node)) {
                    w.cluster
                        .purge(lease.grant_id)
                        .expect("in-flight grant is still on the cluster ledger");
                    let tier = w.elastic.as_mut().expect("elastic run");
                    tier.manager.confirm_failover(
                        now,
                        lease.donor.0,
                        node,
                        generation,
                        Priority::Normal,
                    );
                    sync_donor_pressure(w, lease.donor.0);
                    if P::ENABLED {
                        w.probe
                            .span_close(SpanKind::Establish, node, generation, now);
                    }
                    return;
                }
                let tier = w.elastic.as_mut().expect("elastic run");
                tier.leases[node as usize].push((generation, lease));
                if class_tag != NO_TAG {
                    tier.tags[node as usize] = class_tag;
                }
                let model = &mut w.servers[node as usize].model;
                model.remote_bytes += lease.bytes;
                model.remote_miss = lat;
                recompile_service(w, node as usize);
                sync_fabric_route(w, node as usize);
                if P::ENABLED {
                    w.probe
                        .span_close(SpanKind::Establish, node, generation, now);
                    w.probe.span_open(SpanKind::Active, node, generation, now);
                    if F::ENABLED && failover_of != 0 {
                        // The replacement chunk is live: the recipient's
                        // degraded window ends here.
                        w.probe
                            .span_close(SpanKind::Failover, node, failover_of, now);
                    }
                }
            }
            EngineEvent::RevokeTorndown(rev) => {
                let RevokeTeardown {
                    donor,
                    recipient,
                    generation,
                    lease,
                    priority,
                } = *rev;
                let now = s.now();
                // A teardown handshake cannot execute against a dead
                // end: the chunk is written off as a failover instead —
                // ledger unwound, no latency charged, no donor repaid
                // by an unmap nobody can run.
                if F::ENABLED && (!w.faults.node_up(donor) || !w.faults.node_up(recipient)) {
                    w.cluster
                        .purge(lease.grant_id)
                        .expect("revoke-pending grant is still on the cluster ledger");
                    let tier = w.elastic.as_mut().expect("elastic run");
                    tier.manager
                        .confirm_failover(now, donor, recipient, generation, priority);
                    let model = &mut w.servers[recipient as usize].model;
                    model.remote_bytes = model.remote_bytes.saturating_sub(lease.bytes);
                    recompile_service(w, recipient as usize);
                    sync_fabric_route(w, recipient as usize);
                    sync_donor_pressure(w, donor);
                    if P::ENABLED {
                        w.probe
                            .span_close(SpanKind::Teardown, recipient, generation, now);
                        w.probe
                            .span_close(SpanKind::Active, recipient, generation, now);
                    }
                    return;
                }
                apply_revoke(
                    w,
                    now,
                    donor,
                    recipient as usize,
                    generation,
                    lease,
                    priority,
                );
            }
            EngineEvent::FaultTick => fault_tick(w, s),
        }
    }
}

/// Replay input: a borrowed record stream plus a cursor — the trace is
/// **not** cloned into the world.
struct ReplayCursor<'a> {
    records: &'a [RequestRecord],
    next: usize,
}

/// The simulated world threaded through every event.
///
/// A world issues the requests routed to the nodes in `owned`: every
/// node for a sequential run, one node group for a shard of a sharded
/// run ([`crate::sharded`]). It still draws the **whole** arrival
/// stream, so every shard sees the sequential run's draws.
pub(crate) struct World<'a, P: Probe, M: RemoteModel, F: FaultModel> {
    /// Nodes whose arrivals this world issues.
    owned: Range<u16>,
    /// Tenant class and user of the next open-loop arrival, drawn ahead
    /// by [`draw_owned_arrival`].
    next_request: (usize, u64),
    /// Set once a same-node arrival and completion share an instant.
    tied: bool,
    /// Setup counters carried to the report: leases borrowed at setup
    /// and refused setup borrows.
    remote_leases: u64,
    borrow_failures: u64,
    /// Observation hooks ([`venice_telemetry::Probe`]); `NoopProbe` in
    /// every default entry point, so the hooks compile away and the
    /// report stays bit-identical to the unprobed engine.
    probe: P,
    /// Arrival-side randomness: interarrival gaps, tenant classes, users.
    /// Kept separate from `service_rng` so two *open-loop* (Poisson or
    /// bursty) runs with the same seed but different stacks/configs see
    /// the identical arrival stream even after their admission decisions
    /// diverge. Closed-loop runs are not insulated: think-time draws
    /// interleave with arrival draws at completion times, which are
    /// stack-dependent.
    rng: SimRng,
    /// Service-side randomness: cache hit/miss draws, service jitter.
    service_rng: SimRng,
    classes: Vec<TenantClass>,
    weights: Vec<f64>,
    /// `weights.iter().sum()`, hoisted for the per-arrival class draw.
    weight_total: f64,
    zipf: ZipfSampler,
    /// One admission controller per node.
    admissions: Vec<AdmissionControl>,
    servers: Vec<Server>,
    /// Pooled in-flight request state; events carry slots into this.
    requests: RequestSlab,
    stats: Vec<Stats>,
    /// Per-class request payload bytes (class constants, hoisted off the
    /// per-request path; the slab [`Request`] carries no byte fields).
    req_bytes_by_class: Vec<u64>,
    /// Per-class response payload bytes.
    resp_bytes_by_class: Vec<u64>,
    issued: u64,
    target: u64,
    completed: u64,
    /// Arrivals processed by lookahead fusion instead of the queue.
    fused: u64,
    end: Time,
    arrival: ArrivalProcess,
    /// Precomputed `(off-burst, in-burst)` exponential gap means of the
    /// open-loop arrival process — the per-arrival division and
    /// float→[`Time`] conversion hoisted to setup (both halves equal for
    /// plain Poisson; `None` for closed-loop/replay runs).
    open_gaps: Option<(Time, Time)>,
    /// Mean think time when the arrival process is closed-loop.
    think: Option<Time>,
    backlog_cap: usize,
    /// The composed cluster, kept live so elastic ticks can borrow and
    /// release against the real Monitor-Node flow mid-run.
    cluster: Cluster,
    /// Mesh adjacency (from the node agents) for locality-aware routing.
    neighbors: Vec<Vec<u16>>,
    elastic: Option<ElasticTier>,
    /// Cursor into the lease timeline for incremental per-tenant denial
    /// accounting at probe samples; never advanced on the no-op path.
    denied_scan: usize,
    /// Per-class denial counts accumulated by that cursor.
    denied_counts: Vec<u64>,
    /// Per-request records when tracing.
    trace: Option<Vec<RequestRecord>>,
    /// Recorded arrivals to re-drive instead of drawing fresh traffic.
    replay: Option<ReplayCursor<'a>>,
    /// Attribution side slab paralleling `requests` by slot; empty (and
    /// never touched) unless the probe is enabled.
    attrib: Vec<ReqAttrib>,
    /// Per-node count of grows whose establish flow is still in flight,
    /// classifying backlog waits as establish stalls; empty unless the
    /// probe is enabled.
    pending_grows: Vec<u32>,
    /// Remote-transfer pricing model ([`crate::remote::RemoteModel`]).
    /// [`ScalarCrma`] on the default path, where every hook site
    /// guarded by `if M::ENABLED` monomorphizes away.
    remote: M,
    /// Fabric congestion penalty (ps) charged at dispatch, paralleling
    /// `requests` by slot — a side slab like `attrib`, so the 48-byte
    /// [`Request`] entry is untouched; empty (never allocated) unless
    /// the congested model is armed.
    fabric_detour: Vec<u64>,
    /// Fault injection ([`crate::faults::FaultModel`]); [`NoFaults`] on
    /// the default path, where every hook site guarded by `if
    /// F::ENABLED` monomorphizes away and the engine is
    /// instruction-for-instruction the pre-chaos one.
    faults: F,
    /// Requests in service on a node at its crash instant, paralleling
    /// `requests` by slot: their `Finish` events fire on schedule but
    /// account as crash sheds. Empty unless a fault plan is armed.
    doomed: Vec<bool>,
    /// Monotonic crash counter: the `generation` key of fault spans
    /// (a node can crash more than once; lease generations and crash
    /// ordinals must not collide on one span key).
    fault_seq: u64,
    /// Each node's current fault span key while down (0 = never
    /// crashed), so recovery closes the span the crash opened.
    node_fault_seq: Vec<u64>,
}

impl<P: Probe, M: RemoteModel, F: FaultModel> World<'_, P, M, F> {
    /// Total admitted-but-not-completed requests across all nodes.
    fn total_inflight(&self) -> u32 {
        self.admissions.iter().map(|a| a.inflight()).sum()
    }

    /// Whether this world's run was a pure function of its owned nodes.
    /// A shard fails this on an admission shed (it drew every foreign
    /// arrival's service time assuming admission, and the sequential
    /// engine skips the draw for a shed request) or on a same-node
    /// arrival/finish tie (the sequential engine orders a tie by global
    /// insertion history, which no shard can reconstruct). Until the
    /// first of either anywhere, every shard is exact, so the shard
    /// holding that first event always reports it.
    pub(crate) fn independent(&self) -> bool {
        !self.tied
            && self
                .stats
                .iter()
                .all(|st| st.shed_rate + st.shed_overload == 0)
    }
}

/// Per-event probe pulse: counts the event and, when a sample tick
/// boundary was crossed, snapshots the world into a [`SampleRow`].
/// Called only under `if P::ENABLED`, and never from the no-op path —
/// sampling piggybacks on events the kernel was executing anyway, so
/// the probed event stream is the unprobed one, exactly.
fn pulse<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
    kind: u8,
) {
    let now = s.now();
    w.probe.on_event(kind, now);
    if let Some(at) = w.probe.sample_due(now) {
        let row = build_sample(w, s.pending(), s.slab_occupancy().0);
        w.probe.on_sample(at, row);
    }
}

/// Snapshots per-node gauges and per-tenant counters for one sample.
/// Reads the same ledgers the report reads (cluster byte positions,
/// admission stats, the lease timeline) — observation only.
fn build_sample<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    pending: usize,
    slab_live: usize,
) -> SampleRow {
    let nodes = w
        .servers
        .iter()
        .enumerate()
        .map(|(i, srv)| NodeGauges {
            depth: srv.backlog.len() as u32,
            inflight: srv.inflight_by_class.iter().sum(),
            borrowed: w.cluster.borrowed_bytes_of(NodeId(i as u16)),
            lent: w.cluster.lent_bytes_of(NodeId(i as u16)),
            subleased: w.cluster.subleased_bytes_of(NodeId(i as u16)),
        })
        .collect();
    // Denials accumulate incrementally: only timeline entries recorded
    // since the previous sample are scanned, keeping a sample O(new
    // events) instead of O(whole run) — the full-scan version showed up
    // in the profile bin's own overhead gate.
    let World {
        elastic,
        denied_scan,
        denied_counts,
        ..
    } = w;
    if let Some(tier) = elastic {
        let events = tier.manager.timeline().events();
        for (_, e) in &events[*denied_scan..] {
            if e.kind.is_denial() {
                if let Some(slot) = denied_counts.get_mut(e.tenant as usize) {
                    *slot += 1;
                }
            }
        }
        *denied_scan = events.len();
    }
    let tenants = w
        .stats
        .iter()
        .enumerate()
        .map(|(class, st)| TenantCounters {
            admitted: st.admitted,
            shed: st.shed_rate + st.shed_overload + st.shed_backpressure + st.shed_crash,
            denied: w.denied_counts[class],
            quota_bytes: w
                .elastic
                .as_ref()
                .and_then(|t| t.manager.tenant_ledger().get(class).copied())
                .unwrap_or(0),
        })
        .collect();
    // Link gauges exist only on congested-fabric runs; the scalar
    // model leaves the vector empty and the exported artifact
    // byte-identical to pre-congestion runs.
    let mut links = Vec::new();
    if M::ENABLED {
        w.remote.link_gauges(&mut links);
    }
    SampleRow {
        nodes,
        tenants,
        links,
        slab_live: slab_live as u32,
        pending_events: pending as u32,
    }
}

/// Open-loop arrival event: issue one request, schedule the next at the
/// process's instantaneous rate (constant for Poisson, phase-dependent
/// for bursty traffic).
fn open_arrival<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
) {
    let mut now = s.now();
    loop {
        let (class, user) = w.next_request;
        issue_with(w, s, now, class, user);
        if w.issued >= w.target {
            return;
        }
        let next = next_open_arrival(w, now);
        let Some(at) = draw_owned_arrival(w, next) else {
            return;
        };
        // Lookahead fusion: when the next arrival lands strictly before
        // every pending event it would be the very next pop anyway —
        // process it in place instead of round-tripping it through the
        // queue. (Strictly: on a timestamp tie the pending event's older
        // sequence number wins, so a tied arrival must be enqueued.)
        // The RNG draw order and all model state transitions are
        // identical either way; only the queue traffic disappears.
        match s.next_event_time() {
            Some(next) if at >= next => {
                s.schedule_event_at(at, EngineEvent::Arrival);
                return;
            }
            _ => {
                s.advance_to(at);
                w.fused += 1;
                if P::ENABLED {
                    w.probe.on_fused_arrival(at);
                }
                now = at;
            }
        }
    }
}

/// The open-loop arrival after the one at `now`, one exponential gap
/// later at the process's instantaneous rate.
fn next_open_arrival<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    now: Time,
) -> Time {
    let (base, burst) = w.open_gaps.expect("open loop has a rate");
    // Phase selection mirrors ArrivalProcess::rate_at exactly; the
    // per-phase mean gaps were precomputed from the same rates.
    let mean = if w.arrival.in_burst(now) { burst } else { base };
    let gap = exponential(&mut w.rng, mean);
    now.checked_add(gap).expect("simulated time overflow")
}

/// Draws the open-loop stream forward from an arrival at `at` until one
/// routes to an owned node, leaves its class and user in
/// `next_request`, and returns its instant — `None` once the stream is
/// exhausted. The engine RNG sees the sequential order (class, user,
/// gap per arrival) whatever the world owns.
///
/// An arrival routed elsewhere belongs to another shard: it only
/// advances `issued` (so `seq` stays global) and draws its service time
/// as if admitted, keeping the insulated service stream aligned with
/// the sequential run's. Static tiers never recompile, so every shard's
/// compiled models agree; a shed anywhere breaks the assumption and
/// fails [`World::independent`].
fn draw_owned_arrival<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    mut at: Time,
) -> Option<Time> {
    loop {
        let (class, user) = draw_request(w, at);
        w.next_request = (class, user);
        if w.owned.len() == w.servers.len() {
            return Some(at);
        }
        let node = route(w, class, user);
        if w.owned.contains(&(node as u16)) {
            return Some(at);
        }
        w.servers[node].service_by_class[class].sample_split(&mut w.service_rng);
        w.issued += 1;
        if w.issued >= w.target {
            return None;
        }
        at = next_open_arrival(w, at);
    }
}

/// Closed-loop session event: issue the session's next request.
fn session_arrival<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
) {
    if w.issued >= w.target {
        return; // session retires
    }
    let now = s.now();
    let (class, user) = draw_request(w, now);
    issue_with(w, s, now, class, user);
}

/// Replay arrival event: re-drive the next recorded request.
fn replay_arrival<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
) {
    let now = s.now();
    let Some(rec) = w.replay.as_mut().and_then(|cur| {
        let rec = cur.records.get(cur.next).copied();
        cur.next += 1;
        rec
    }) else {
        return;
    };
    issue_with(w, s, now, rec.tenant as usize, rec.user);
    let next = w
        .replay
        .as_ref()
        .and_then(|cur| cur.records.get(cur.next))
        .map(|r| Time::from_ns(r.at_ns));
    if let Some(at) = next {
        s.schedule_event_at(at.max(now), EngineEvent::ReplayNext);
    }
}

/// Schedules the closed-loop session's next request, if any remain.
fn schedule_next_session<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
) {
    if let Some(think) = w.think {
        if w.issued < w.target {
            let gap = exponential(&mut w.rng, think);
            s.schedule_event_in(gap, EngineEvent::SessionNext);
        }
    }
}

/// Draws one request's tenant class and user for an arrival at `now`.
/// During a bursty process's burst window, a `crowd_share` fraction of
/// arrivals comes from the flash-crowd population instead of the mix's
/// Zipf tail.
fn draw_request<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    now: Time,
) -> (usize, u64) {
    let class = w.rng.weighted_index_with_total(&w.weights, w.weight_total);
    let user = if let ArrivalProcess::Bursty {
        crowd_users,
        crowd_share,
        ..
    } = w.arrival
    {
        if crowd_users > 0 && w.arrival.in_burst(now) && w.rng.chance(crowd_share) {
            w.rng.gen_range(0..crowd_users)
        } else {
            w.zipf.sample(&mut w.rng)
        }
    } else {
        w.zipf.sample(&mut w.rng)
    };
    (class, user)
}

/// Routes `user`'s request: home node by population hash, except that a
/// home node whose remote tier is empty defers to a mesh neighbor already
/// holding a lease driven by this tenant (locality: follow the memory).
///
/// With a fault plan armed, a *down* home node is skipped entirely: the
/// session re-routes to the first live mesh neighbor (adjacency order),
/// falling back to the lowest-id live node anywhere — admission on the
/// survivor then decides the request's fate. Only when every node is
/// down does the home stand (the caller sheds the request as a crash
/// loss before admission).
fn route<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &World<'_, P, M, F>,
    class: usize,
    user: u64,
) -> usize {
    let n = w.servers.len();
    let home = (user % n as u64) as usize;
    if F::ENABLED && !w.faults.node_up(home as u16) {
        for &nb in &w.neighbors[home] {
            if w.faults.node_up(nb) {
                return nb as usize;
            }
        }
        if let Some(alive) = (0..n).find(|&i| w.faults.node_up(i as u16)) {
            return alive;
        }
        return home;
    }
    let Some(tier) = &w.elastic else {
        return home;
    };
    if w.servers[home].model.has_remote() {
        return home;
    }
    for &nb in &w.neighbors[home] {
        if (!F::ENABLED || w.faults.node_up(nb)) // never defer onto a dead node
            && tier.tags[nb as usize] == class as u32
            && w.servers[nb as usize].model.has_remote()
        {
            return nb as usize;
        }
    }
    home
}

/// Runs one generated request through per-node admission and dispatch.
fn issue_with<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
    now: Time,
    class: usize,
    user: u64,
) {
    let seq = w.issued;
    w.issued += 1;
    let node = route(w, class, user);
    // Total outage: every node is down, so the front door itself is
    // gone — the request is a crash loss, not an admission decision.
    if F::ENABLED && !w.faults.node_up(node as u16) {
        w.stats[class].shed_crash += 1;
        if P::ATTRIB {
            w.probe.on_shed(class as u16, node as u16, 3, now);
        }
        record(
            w,
            seq,
            now,
            class,
            user,
            node,
            RequestOutcome::ShedCrash,
            Time::ZERO,
            0,
        );
        schedule_next_session(w, s);
        return;
    }
    let srv = &mut w.servers[node];
    w.tied |= srv.last_finish == Some(now);
    srv.last_arrival = Some(now);
    let generation = w
        .elastic
        .as_ref()
        .map(|t| t.newest_generation(node))
        .unwrap_or(0);
    let priority = w.classes[class].priority;
    let over_quota = w
        .elastic
        .as_ref()
        .map(|t| t.over_quota[class])
        .unwrap_or(false);
    match w.admissions[node].on_arrival(now, priority, over_quota) {
        Decision::Shed(reason) => {
            let st = &mut w.stats[class];
            let outcome = match reason {
                ShedReason::RateLimit => {
                    st.shed_rate += 1;
                    RequestOutcome::ShedRate
                }
                ShedReason::Overload => {
                    st.shed_overload += 1;
                    RequestOutcome::ShedOverload
                }
            };
            if P::ATTRIB {
                // Slot order mirrors attrib::SHED_LABELS.
                let slot = match reason {
                    ShedReason::RateLimit => 0,
                    ShedReason::Overload => 1,
                };
                w.probe.on_shed(class as u16, node as u16, slot, now);
            }
            record(
                w,
                seq,
                now,
                class,
                user,
                node,
                outcome,
                Time::ZERO,
                generation,
            );
            // A shed closed-loop client backs off one think time and
            // retries with a fresh request.
            schedule_next_session(w, s);
        }
        Decision::Admit => {
            w.stats[class].admitted += 1;
            // The compiled model replays service_time() bit-for-bit
            // (same rng draws) without re-deriving the node-state
            // constants per request; the coin branch feeds attribution
            // and is dead code on the no-op path.
            let (service, is_miss) =
                w.servers[node].service_by_class[class].sample_split(&mut w.service_rng);
            let slot = w.requests.insert(Request {
                seq,
                class: class as u32,
                user,
                node: node as u16,
                arrival: now,
                service,
                generation,
            });
            if P::ATTRIB {
                let remote_ps = w.servers[node].attrib_by_class[class].remote_ps(service, is_miss);
                if w.attrib.len() <= slot as usize {
                    w.attrib.resize(slot as usize + 1, ReqAttrib::default());
                }
                w.attrib[slot as usize] = ReqAttrib {
                    dispatch_at: now,
                    remote_ps,
                    stalled: false,
                };
            }
            dispatch(w, s, slot);
        }
    }
}

/// Appends a trace record if tracing is on.
#[allow(clippy::too_many_arguments)]
fn record<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    seq: u64,
    at: Time,
    class: usize,
    user: u64,
    node: usize,
    outcome: RequestOutcome,
    latency: Time,
    generation: u64,
) {
    if let Some(trace) = &mut w.trace {
        trace.push(RequestRecord {
            seq,
            at_ns: at.as_ns(),
            tenant: class as u32,
            user,
            node: node as u16,
            outcome,
            latency_ns: latency.as_ns(),
            lease_generation: generation,
        });
    }
}

/// Sends an admitted request toward its node, or parks it under
/// backpressure. `slot` indexes the request slab.
fn dispatch<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
    slot: u32,
) {
    let now = s.now();
    let req = *w.requests.get(slot);
    let node = req.node as usize;
    // One bounds-checked server borrow for the whole hot path (the
    // other touched fields are disjoint, so the borrows coexist).
    let srv = &mut w.servers[node];
    match srv.qp.post_send(w.req_bytes_by_class[req.class as usize]) {
        Ok(()) => {
            if P::ATTRIB {
                // The request clears the credit gate now; everything
                // since arrival was queue wait (or establish stall).
                w.attrib[slot as usize].dispatch_at = now;
            }
            let fab = if M::ENABLED {
                // Congestion queueing delay over the node↔donor fabric
                // path, charged exactly once — here, when the request
                // actually dispatches, not when a backlogged one parks.
                let fab = w.remote.charge(now, node, req.class as usize);
                if w.fabric_detour.len() <= slot as usize {
                    w.fabric_detour.resize(slot as usize + 1, 0);
                }
                w.fabric_detour[slot as usize] = fab.as_ps();
                fab
            } else {
                Time::ZERO
            };
            let deliver = now + srv.msg_lat_by_class[req.class as usize];
            let best_slot = {
                let slots = &srv.slots;
                let mut best = 0;
                for (i, &t) in slots.iter().enumerate() {
                    if t < slots[best] {
                        best = i;
                    }
                }
                best
            };
            let start = deliver.max(srv.slots[best_slot]);
            let comp = start + req.service + fab;
            srv.slots[best_slot] = comp;
            srv.inflight_by_class[req.class as usize] += 1;
            s.schedule_event_at(comp, EngineEvent::Finish(slot));
        }
        Err(QpairError::NoCredit) | Err(QpairError::QueueFull) => {
            srv.credit_waits += 1;
            if srv.backlog.len() < w.backlog_cap {
                if P::ATTRIB && w.pending_grows[node] > 0 {
                    // The node is waiting on a grow's establish flow:
                    // classify this park as a lease-establish stall.
                    w.attrib[slot as usize].stalled = true;
                }
                srv.backlog.push_back(slot);
            } else {
                // The node is saturated beyond its backlog: drop the
                // request and free its in-flight slot.
                let req = w.requests.take(slot);
                w.stats[req.class as usize].shed_backpressure += 1;
                w.admissions[node].on_completion();
                if P::ATTRIB {
                    w.probe.on_shed(req.class as u16, node as u16, 2, now);
                }
                record(
                    w,
                    req.seq,
                    req.arrival,
                    req.class as usize,
                    req.user,
                    node,
                    RequestOutcome::ShedBackpressure,
                    Time::ZERO,
                    req.generation,
                );
                schedule_next_session(w, s);
            }
        }
        Err(e) => unreachable!("unexpected qpair error: {e:?}"),
    }
}

/// Completion event: account the request, return the credit, and drain
/// the node's backlog.
fn finish<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
    slot: u32,
) {
    // A request doomed by its node's crash still fires its Finish on
    // schedule (events cannot be unscheduled), but it accounts as a
    // crash shed: transport credits return, admission and in-flight
    // ledgers close, and nothing lands in the latency histogram — the
    // work died with the node.
    if F::ENABLED && w.doomed.get(slot as usize).copied().unwrap_or(false) {
        w.doomed[slot as usize] = false;
        let req = w.requests.take(slot);
        let class = req.class as usize;
        let node = req.node as usize;
        w.stats[class].shed_crash += 1;
        w.admissions[node].on_completion();
        w.servers[node].inflight_by_class[class] -= 1;
        if P::ATTRIB {
            w.probe.on_shed(class as u16, node as u16, 3, s.now());
        }
        record(
            w,
            req.seq,
            req.arrival,
            class,
            req.user,
            node,
            RequestOutcome::ShedCrash,
            Time::ZERO,
            req.generation,
        );
        let srv = &mut w.servers[node];
        srv.qp.drain_one();
        srv.qp.credit_update(1);
        if let Some(next) = srv.backlog.pop_front() {
            dispatch(w, s, next);
        }
        schedule_next_session(w, s);
        return;
    }
    let req = w.requests.take(slot);
    let now = s.now();
    let latency = now - req.arrival;
    let class = req.class as usize;
    w.stats[class].on_complete(
        latency,
        w.req_bytes_by_class[class] + w.resp_bytes_by_class[class],
    );
    w.completed += 1;
    if now > w.end {
        w.end = now;
    }
    let node = req.node as usize;
    w.admissions[node].on_completion();
    let srv = &mut w.servers[node];
    srv.inflight_by_class[class] -= 1;
    w.tied |= srv.last_arrival == Some(now);
    srv.last_finish = Some(now);
    if P::ATTRIB {
        // Telescoping decomposition — every stage is a difference of
        // stamps the engine computed anyway, so the seven stages sum to
        // the end-to-end latency *exactly*, per request, by
        // construction: latency = queue + transport + slot_wait +
        // service, with queue = dispatch_at - arrival, transport the
        // class's fixed QPair latency, service the sampled cost (split
        // local/remote by the compiled per-mille share), and slot_wait
        // the remainder (start - deliver, provably >= 0 because finish
        // fires at start + service and start >= dispatch_at +
        // transport).
        let a = w.attrib[slot as usize];
        let total_ps = latency.as_ps();
        let queue_ps = a.dispatch_at.saturating_sub(req.arrival).as_ps();
        let transport_ps = w.servers[node].msg_lat_by_class[class].as_ps();
        let service_ps = req.service.as_ps();
        // Fabric congestion penalty stamped at dispatch (zero unless
        // the congested model is armed); it extends the completion
        // time, so it must come out of the slot-wait remainder and is
        // booked as detour time — fabric hops beyond the home path.
        let fab_ps = if M::ENABLED {
            w.fabric_detour.get(slot as usize).copied().unwrap_or(0)
        } else {
            0
        };
        let slot_wait_ps = total_ps - queue_ps - transport_ps - service_ps - fab_ps;
        let remote_ps = a.remote_ps.min(service_ps);
        let mut stage_ps = [0u64; venice_telemetry::STAGES];
        stage_ps[if a.stalled {
            STAGE_ESTABLISH_STALL
        } else {
            STAGE_QUEUE_WAIT
        }] = queue_ps;
        let home = (req.user % w.servers.len() as u64) as usize;
        stage_ps[if node == home {
            STAGE_TRANSPORT
        } else {
            STAGE_DETOUR
        }] = transport_ps;
        stage_ps[STAGE_DETOUR] += fab_ps;
        stage_ps[STAGE_SLOT_WAIT] = slot_wait_ps;
        stage_ps[STAGE_SERVICE_LOCAL] = service_ps - remote_ps;
        stage_ps[STAGE_SERVICE_REMOTE] = remote_ps;
        w.probe.on_request(
            class as u16,
            node as u16,
            StageBreakdown { stage_ps, total_ps },
        );
    }
    record(
        w,
        req.seq,
        req.arrival,
        class,
        req.user,
        node,
        RequestOutcome::Completed,
        latency,
        req.generation,
    );
    let srv = &mut w.servers[node];
    srv.qp.drain_one();
    srv.qp.credit_update(1);
    if let Some(next) = srv.backlog.pop_front() {
        dispatch(w, s, next);
    }
    schedule_next_session(w, s);
}

/// The tenant class with the most queued *and in-service* work on
/// `node` (ties to the lowest index), used to attribute a lease to the
/// tenant driving it. Must mirror the grow trigger's demand signal —
/// backlog plus busy slots — or grows fired by pure in-service pressure
/// would have no class to attribute to.
///
/// The argmax is computed in place — per class, in-flight count plus a
/// scan of the (bounded) backlog — instead of cloning
/// `inflight_by_class` into a scratch `Vec` every lease tick.
fn dominant_class<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &World<'_, P, M, F>,
    node: usize,
) -> Option<usize> {
    let srv = &w.servers[node];
    let mut best: Option<(usize, u32)> = None;
    for (class, &inflight) in srv.inflight_by_class.iter().enumerate() {
        let queued = srv
            .backlog
            .iter()
            .filter(|&&slot| w.requests.get(slot).class as usize == class)
            .count() as u32;
        let count = inflight + queued;
        if count > 0 && best.map(|(_, b)| count > b).unwrap_or(true) {
            best = Some((class, count));
        }
    }
    best.map(|(class, _)| class)
}

/// Recompiles every tenant class's service model against `node`'s
/// current [`NodeModel`]. Called from the three places a node's remote
/// tier moves (establish lands, shrink, revoke lands) — rare events, so
/// the per-request path never re-derives model constants.
fn recompile_service<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    node: usize,
) {
    let model = w.servers[node].model;
    for (class, slot) in w
        .classes
        .iter()
        .zip(w.servers[node].service_by_class.iter_mut())
    {
        *slot = class.profile.compile(&model);
    }
    if P::ATTRIB {
        // The remote share moves with the same node state; keep the
        // attribution model in lockstep with the service model.
        let srv = &mut w.servers[node];
        for (class, slot) in w.classes.iter().zip(srv.attrib_by_class.iter_mut()) {
            *slot = class.profile.compile_attrib(&model);
        }
    }
}

/// Re-points `node`'s fabric route at its newest visible lease's donor
/// (`None` when the node holds no remote tier) — the compiled-path
/// analog of [`recompile_service`], called from the same places a
/// node's remote tier moves so the congested model always charges the
/// path the node is actually serving from. A no-op (compiled away)
/// under the scalar model.
fn sync_fabric_route<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    node: usize,
) {
    if !M::ENABLED {
        return;
    }
    let donor = w
        .elastic
        .as_ref()
        .and_then(|t| t.leases[node].last())
        .map(|&(_, lease)| lease.donor.0);
    w.remote.set_route(node, donor);
}

/// Applies a donor-demanded revoke once its modeled teardown flow
/// completes: the grant is pulled back through the real Monitor–Node
/// path ([`Cluster::revoke`]), the manager's ledger is repaid, and the
/// recipient's visible capacity drops. Until this fires the recipient
/// keeps serving from the window — a revoke notice takes effect when the
/// unmap lands, not when the donor asks.
#[allow(clippy::too_many_arguments)]
fn apply_revoke<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    now: Time,
    donor: u16,
    recipient: usize,
    generation: u64,
    lease: MemoryLease,
    priority: Priority,
) {
    w.cluster
        .revoke(NodeId(donor), lease.grant_id)
        .expect("revoked lease releases cleanly");
    let tier = w.elastic.as_mut().expect("elastic run");
    tier.manager
        .confirm_revoke(now, donor, recipient as u16, generation, priority);
    let model = &mut w.servers[recipient].model;
    model.remote_bytes = model.remote_bytes.saturating_sub(lease.bytes);
    recompile_service(w, recipient);
    sync_fabric_route(w, recipient);
    // The reclaimed pool speeds the donor back up — the whole point of
    // a cost-aware revoke.
    sync_donor_pressure(w, donor);
    if P::ENABLED {
        let node = recipient as u16;
        w.probe
            .span_close(SpanKind::Teardown, node, generation, now);
        w.probe.span_close(SpanKind::Active, node, generation, now);
    }
}

/// Drains every fault transition due now and applies it, then schedules
/// the next tick at the plan's next edge. Reached only when a
/// [`FaultPlan`] is armed — `NoFaults` never schedules a `FaultTick`.
fn fault_tick<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
) {
    let now = s.now();
    while let Some(tr) = w.faults.pop_due(now) {
        match tr {
            FaultTransition::NodeDown(n) => crash_node(w, s, n as usize),
            FaultTransition::NodeUp(n) => recover_node(w, n as usize, now),
            FaultTransition::LinkDown(a, b) => w.remote.set_link_state(a, b, false),
            FaultTransition::LinkUp(a, b) => w.remote.set_link_state(a, b, true),
            FaultTransition::Loss(a, b, per_mille) => w.remote.set_link_loss(a, b, per_mille),
        }
    }
    if let Some(at) = w.faults.next_at() {
        s.schedule_event_at(at, EngineEvent::FaultTick);
    }
}

/// Fail-stops `node`: sheds its backlog, dooms its in-service requests
/// (their `Finish` events account as crash sheds when they fire), wipes
/// its service slots, and fails over every lease touching it — the
/// cluster purges the grants without executing a teardown on the dead
/// node, the manager unwinds its ledgers, and surviving recipients
/// immediately re-establish on a live donor, paying the full modeled
/// establish latency.
fn crash_node<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
    node: usize,
) {
    let now = s.now();
    w.fault_seq += 1;
    w.node_fault_seq[node] = w.fault_seq;
    if P::ENABLED {
        w.probe
            .span_open(SpanKind::Fault, node as u16, w.fault_seq, now);
    }
    // Backlogged requests were admitted but never cleared the credit
    // gate: they die with the node, holding no transport credit.
    while let Some(slot) = w.servers[node].backlog.pop_front() {
        let req = w.requests.take(slot);
        let class = req.class as usize;
        w.stats[class].shed_crash += 1;
        w.admissions[node].on_completion();
        if P::ATTRIB {
            w.probe.on_shed(class as u16, node as u16, 3, now);
        }
        record(
            w,
            req.seq,
            req.arrival,
            class,
            req.user,
            node,
            RequestOutcome::ShedCrash,
            Time::ZERO,
            req.generation,
        );
        schedule_next_session(w, s);
    }
    // In-service requests cannot be unscheduled — their Finish events
    // are already in the queue — so they are doomed in place and
    // account as crash sheds when they fire.
    for slot in w.requests.live_slots_on(node as u16) {
        if w.doomed.len() <= slot as usize {
            w.doomed.resize(slot as usize + 1, false);
        }
        w.doomed[slot as usize] = true;
    }
    // The reboot clears the machine: whatever occupancy the slots held
    // died with it.
    for t in w.servers[node].slots.iter_mut() {
        *t = now;
    }
    if w.elastic.is_some() {
        // Every *visible* grant touching the dead node fails over. A
        // grant still mid-establish or mid-teardown is not on any
        // stack; its own completion event settles it against the
        // liveness state at fire time.
        let tier = w.elastic.as_mut().expect("checked above");
        let mut lost: Vec<(usize, u64, MemoryLease)> = Vec::new();
        for recipient in 0..tier.leases.len() {
            let mut idx = 0;
            while idx < tier.leases[recipient].len() {
                let (generation, lease) = tier.leases[recipient][idx];
                if lease.donor.0 as usize == node || recipient == node {
                    tier.leases[recipient].remove(idx);
                    lost.push((recipient, generation, lease));
                } else {
                    idx += 1;
                }
            }
        }
        for (recipient, generation, lease) in lost {
            let donor = lease.donor.0;
            w.cluster
                .purge(lease.grant_id)
                .expect("visible grant is on the cluster ledger");
            let tier = w.elastic.as_mut().expect("checked above");
            let tag = tier.tags[recipient];
            let priority = if tag == NO_TAG {
                Priority::Normal
            } else {
                w.classes[tag as usize].priority
            };
            tier.manager
                .confirm_failover(now, donor, recipient as u16, generation, priority);
            let model = &mut w.servers[recipient].model;
            model.remote_bytes = model.remote_bytes.saturating_sub(lease.bytes);
            recompile_service(w, recipient);
            sync_fabric_route(w, recipient);
            sync_donor_pressure(w, donor);
            if P::ENABLED {
                w.probe
                    .span_close(SpanKind::Active, recipient as u16, generation, now);
            }
            if recipient != node {
                // A surviving recipient lost its donor: open its
                // degraded window and re-establish on a live donor
                // right away (the dead node's own chunks wait for the
                // ordinary lease tick after it reboots).
                if P::ENABLED {
                    w.probe
                        .span_open(SpanKind::Failover, recipient as u16, generation, now);
                }
                regrow_after_failover(w, s, now, recipient as u16, generation);
            }
        }
    } else {
        // Static provisioning has no manager to re-establish through:
        // the Venice-stack grants touching the dead node are purged and
        // the affected tiers stay degraded — the gap the
        // elastic-with-failover comparison measures. Baseline stacks
        // never borrowed through the Monitor-Node flow, so the purge
        // finds nothing and their pre-partitioned tiers ride through.
        let purged = w
            .cluster
            .purge_node(venice::NodeId(node as u16))
            .expect("purging a node's grants cannot fail");
        for lease in purged {
            let recipient = lease.recipient.0 as usize;
            let model = &mut w.servers[recipient].model;
            model.remote_bytes = model.remote_bytes.saturating_sub(lease.bytes);
            recompile_service(w, recipient);
            sync_fabric_route(w, recipient);
        }
    }
}

/// Reboots `node` empty: the fault span closes, and capacity returns
/// through the ordinary paths — routing starts offering it traffic
/// again immediately, and (under elastic leases) the next lease tick
/// re-grows its remote tier from the floor.
fn recover_node<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    node: usize,
    now: Time,
) {
    if P::ENABLED {
        w.probe
            .span_close(SpanKind::Fault, node as u16, w.node_fault_seq[node], now);
    }
}

/// Re-establishes a replacement for a lease lost to its donor's crash:
/// the ordinary borrow/measure/confirm flow against a *live* donor,
/// paying the full modeled establish latency before the replacement
/// becomes visible. On refusal the denial is recorded and the next
/// lease tick retries through the watermark path.
fn regrow_after_failover<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
    now: Time,
    node: u16,
    lost_generation: u64,
) {
    let tenant = w.elastic.as_ref().expect("elastic run").tags[node as usize];
    let priority = if tenant == NO_TAG {
        Priority::Normal
    } else {
        w.classes[tenant as usize].priority
    };
    let donor_ok = |d: venice::NodeId| w.faults.node_up(d.0) && w.remote.donor_ok(now, node, d.0);
    let tier = w.elastic.as_mut().expect("elastic run");
    if let Some((generation, lease, lat)) = grow_lease(
        &mut w.cluster,
        &mut tier.manager,
        now,
        node,
        tenant,
        false,
        priority,
        None,
        &donor_ok,
    ) {
        s.schedule_event_in(
            lease.setup_time,
            EngineEvent::LeaseEstablished(Box::new(LeaseEstablish {
                node,
                generation,
                lease,
                class_tag: tenant,
                lat,
                failover_of: lost_generation,
            })),
        );
        sync_donor_pressure(w, lease.donor.0);
        if P::ENABLED {
            w.probe
                .span_open(SpanKind::Establish, node, generation, now);
        }
        if P::ATTRIB {
            w.pending_grows[node as usize] += 1;
        }
    }
}

/// Periodic elastic-lease control tick: sample per-node queue depth and
/// donor pressure, let the manager decide, and apply
/// grows/shrinks/revokes against the live cluster.
fn lease_tick<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
) {
    // A tick scheduled while the last requests were in flight can fire
    // after the final completion; acting there would put lease events
    // past the report's duration (skewing the time-weighted mean), so a
    // finished run's trailing tick is a no-op.
    if w.issued >= w.target && w.total_inflight() == 0 {
        return;
    }
    let now = s.now();
    // Chunks and bytes each node has lent out, from the cluster's live
    // ledger (includes grants still in their recipient-side establish
    // flow — the donor's memory is committed either way).
    let mut lent = vec![0u32; w.servers.len()];
    let mut lent_bytes = vec![0u64; w.servers.len()];
    for lease in w.cluster.active_leases() {
        lent[lease.donor.0 as usize] += 1;
        lent_bytes[lease.donor.0 as usize] += lease.bytes;
    }
    let signals: Vec<NodeSignal> = w
        .servers
        .iter()
        .enumerate()
        .map(|(i, srv)| {
            let busy = srv.slots.iter().filter(|&&t| t > now).count();
            let tenant = dominant_class(w, i).map(|c| c as u32).unwrap_or(NO_TAG);
            NodeSignal {
                depth: (srv.backlog.len() + busy) as u32,
                lent_chunks: lent[i],
                lent_pressure: (lent_bytes[i] as f64 / LENDABLE_PER_NODE as f64).min(1.0),
                tenant,
                priority: if tenant == NO_TAG {
                    Priority::Normal
                } else {
                    w.classes[tenant as usize].priority
                },
            }
        })
        .collect();
    let tier = w.elastic.as_mut().expect("lease tick without elastic tier");
    let actions = tier.manager.tick(now, &signals);
    for action in actions {
        match action {
            LeaseAction::Grow { node, predictive } => {
                apply_grow(w, s, now, &signals, node, predictive, None);
            }
            // A market match borrows through the identical flow; it
            // differs only in whose quota the confirm charges.
            LeaseAction::Sublease { node, lessor } => {
                apply_grow(w, s, now, &signals, node, false, Some(lessor));
            }
            LeaseAction::Shrink { node } => {
                let tier = w.elastic.as_mut().expect("checked above");
                let tag = tier.tags[node as usize];
                let priority = if tag == NO_TAG {
                    Priority::Normal
                } else {
                    w.classes[tag as usize].priority
                };
                // Only a *visible* lease can be released — a grow still
                // in its establish flow is not on the stack yet, and a
                // revoke-pending chunk is already off this stack. The
                // popped lease's generation names the chunk for the
                // manager: its own newest may be the revoke-pending one.
                if let Some((generation, lease)) = tier.leases[node as usize].pop() {
                    w.cluster
                        .release(lease)
                        .expect("visible lease releases cleanly");
                    tier.manager.confirm_shrink(now, node, generation, priority);
                    let model = &mut w.servers[node as usize].model;
                    model.remote_bytes = model.remote_bytes.saturating_sub(lease.bytes);
                    recompile_service(w, node as usize);
                    sync_fabric_route(w, node as usize);
                    // The release repays the donor's pool immediately.
                    sync_donor_pressure(w, lease.donor.0);
                    if P::ENABLED {
                        w.probe.span_close(SpanKind::Active, node, generation, now);
                    }
                }
                // When nothing is visible (the node's only chunks are
                // still establishing) the decision is surrendered: the
                // manager keeps its chunk count and a later calm spell
                // re-triggers the release.
            }
            LeaseAction::Revoke { donor } => {
                // The pressured donor demands its newest *visible* lent
                // chunk back. A grant still establishing on its
                // recipient cannot be torn down mid-flow: the demand is
                // denied — on the timeline, since the revoke cooldown
                // was already charged — and donor pressure re-triggers
                // it once something lands.
                let tier = w.elastic.as_mut().expect("checked above");
                let Some((recipient, idx, generation)) = tier.newest_visible_from(donor) else {
                    tier.manager
                        .deny_revoke(now, donor, signals[donor as usize].priority);
                    continue;
                };
                // Off the visible stack immediately — the recipient may
                // not release (or double-revoke) a chunk already being
                // reclaimed — but the capacity and the ledger move only
                // when the modeled teardown flow completes.
                let (_, lease) = tier.leases[recipient].remove(idx);
                let teardown = w.cluster.flow.teardown(lease.bytes);
                let priority = signals[donor as usize].priority;
                s.schedule_event_in(
                    teardown,
                    EngineEvent::RevokeTorndown(Box::new(RevokeTeardown {
                        donor,
                        recipient: recipient as u16,
                        generation,
                        lease,
                        priority,
                    })),
                );
                if P::ENABLED {
                    w.probe
                        .span_open(SpanKind::Teardown, recipient as u16, generation, now);
                }
            }
        }
    }
    // Refresh the per-class quota flags the admission layer reads: a
    // class at its byte quota is clamped to the over-quota share until
    // its ledger drains (shrinks/revokes repay it).
    let tier = w.elastic.as_mut().expect("checked above");
    for (class, flag) in tier.over_quota.iter_mut().enumerate() {
        *flag = tier.manager.quota_blocks(class as u32);
    }
    // Keep ticking while the run is alive (arrivals pending or requests
    // in flight); afterwards the queue drains and the kernel stops.
    if w.issued < w.target || w.total_inflight() > 0 {
        let interval = w
            .elastic
            .as_ref()
            .expect("checked above")
            .manager
            .config()
            .tick_interval;
        s.schedule_event_in(interval, EngineEvent::LeaseTick);
    }
}

/// Everything one engine execution produced: the report, plus whatever
/// the [`Run`] builder armed.
#[derive(Debug)]
pub struct RunOutput<P: Probe = NoopProbe> {
    /// The run's summary report — byte-identical for a given config and
    /// seed regardless of which probe or capture options were armed.
    pub report: LoadReport,
    /// Per-request records; `Some` exactly when [`Run::traced`] was
    /// requested.
    pub trace: Option<Trace>,
    /// Kernel loop counters (always collected — they read state the
    /// kernel tracks anyway).
    pub metrics: EngineMetrics,
    /// The probe threaded through the run, carrying whatever it
    /// observed ([`NoopProbe`] unless [`Run::probe`] armed another).
    pub probe: P,
}

/// Builder over the engine's single entry point.
///
/// Every way of running the engine — plain, probed, traced, faulted,
/// sharded, replaying a recorded trace — is one execution with
/// different capture options, so they compose instead of multiplying
/// entry points:
///
/// ```
/// use venice_loadgen::engine::{LoadgenConfig, Run};
/// use venice_loadgen::tenants::TenantMix;
///
/// let config = LoadgenConfig {
///     requests: 2_000,
///     ..LoadgenConfig::new(7, TenantMix::web_frontend())
/// };
/// let out = Run::new(&config).traced().execute();
/// let trace = out.trace.expect("traced run captures a trace");
/// // Re-drive the recorded arrivals through a fresh run.
/// let replayed = Run::new(&config).replay(&trace).execute();
/// assert_eq!(replayed.report.issued, out.report.issued);
/// ```
#[derive(Debug)]
pub struct Run<'c, 't, P: Probe = NoopProbe> {
    config: &'c LoadgenConfig,
    probe: P,
    traced: bool,
    replay: Option<&'t Trace>,
    faults: Option<FaultPlan>,
    shards: usize,
}

impl<'c> Run<'c, 'static, NoopProbe> {
    /// Starts a builder for one execution of `config`.
    pub fn new(config: &'c LoadgenConfig) -> Self {
        Run {
            config,
            probe: NoopProbe,
            traced: false,
            replay: None,
            faults: None,
            shards: 1,
        }
    }
}

impl<'c, 't, P: Probe> Run<'c, 't, P> {
    /// Threads `probe` through the engine's hook sites; the output
    /// returns it carrying whatever it observed. The report stays
    /// byte-identical to an unprobed run — probes observe the event
    /// stream, they never perturb it — which the `profile` bench bin
    /// gates.
    pub fn probe<Q: Probe>(self, probe: Q) -> Run<'c, 't, Q> {
        Run {
            config: self.config,
            probe,
            traced: self.traced,
            replay: self.replay,
            faults: self.faults,
            shards: self.shards,
        }
    }

    /// Arms `plan`'s deterministic fault schedule: node crashes, link
    /// flaps, and packet loss fire at their scheduled instants, leases
    /// on dead donors fail over, and requests on a crashed node shed as
    /// crash losses. Without this arm the engine monomorphizes over
    /// [`NoFaults`] and stays instruction-for-instruction the pre-chaos
    /// engine.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Captures the per-request [`Trace`] into the output.
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Re-drives `trace` instead of drawing fresh traffic: arrival
    /// instants, tenant classes, and users come from the records;
    /// admission, routing, service, and (if configured) elastic leasing
    /// run live under the config. `config.arrival` and
    /// `config.requests` are ignored. The trace is borrowed for the
    /// duration of the run, not cloned.
    pub fn replay<'u>(self, trace: &'u Trace) -> Run<'c, 'u, P> {
        Run {
            config: self.config,
            probe: self.probe,
            traced: self.traced,
            replay: Some(trace),
            faults: self.faults,
            shards: self.shards,
        }
    }

    /// Runs the simulation as `n` per-node-group shards on worker
    /// threads: each shard is the sequential engine over the nodes it
    /// owns, and the shards merge once, at the end.
    /// Output is **byte-identical** to the default single-shard run for
    /// every configuration — the gate the `prop_sharded` suite and the
    /// CI throughput job enforce — so the only observable difference is
    /// wall clock.
    ///
    /// Shard counts are clamped to the node count; `n <= 1` selects the
    /// sequential engine exactly as if this arm were never called.
    /// Configurations whose node groups interact (elastic leases,
    /// modeled fabric paths, fault plans, closed-loop sessions, probes,
    /// replay), and sharded runs that shed at admission or tie an
    /// arrival with a completion on one node, execute sequentially
    /// rather than approximately — byte-identity is never traded for
    /// speed.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Executes the run.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (zero
    /// requests, zero concurrency, an empty mesh, or elastic leases on
    /// a stack without hot-plug support), or if a replay trace is empty
    /// or names a tenant index outside the configured mix.
    pub fn execute(self) -> RunOutput<P> {
        if let Some(trace) = self.replay {
            assert!(!trace.is_empty(), "cannot replay an empty trace");
            let classes = self.config.mix.classes.len() as u32;
            if let Some(bad) = trace.records.iter().find(|r| r.tenant >= classes) {
                panic!(
                    "trace record seq {} names tenant {} but mix `{}` has only {} classes",
                    bad.seq, bad.tenant, self.config.mix.name, classes
                );
            }
        }
        let (report, trace, metrics, probe) = if self.shards > 1 {
            crate::sharded::run_sharded_or_sequential(
                self.config,
                self.replay,
                self.traced,
                self.probe,
                self.faults,
                self.shards,
            )
        } else {
            run_full(
                self.config,
                self.replay,
                self.traced,
                self.probe,
                self.faults,
            )
        };
        RunOutput {
            report,
            trace,
            metrics,
            probe,
        }
    }
}

/// Rejects an internally inconsistent configuration. Every driver calls
/// it before any work starts, so a sharded run fails with the sequential
/// engine's messages.
///
/// # Panics
///
/// Panics on zero requests, zero concurrency, an invalid arrival
/// process, an empty or oversized mesh, or elastic leases on a stack
/// without hot-plug support.
pub(crate) fn validate(config: &LoadgenConfig) {
    assert!(config.requests > 0, "need at least one request");
    assert!(config.per_node_concurrency > 0, "need at least one slot");
    config.arrival.validate();
    // Overflow-checked and bounded to the NodeId space; panics with a
    // clear message on a degenerate or oversized mesh.
    assert!(config.nodes() > 0, "mesh must be non-empty");
    if config.lease.is_some() {
        assert!(
            config.stack.supports_elastic(),
            "elastic leases require a stack with hot-plug support, not {}",
            config.stack.label()
        );
    }
}

/// Provisions the remote tier for a **static** (non-elastic) run: the
/// PR 1 one-shot borrow flow for the Venice stack, or a pre-partitioned
/// tier at the baseline stack's per-miss cost. Returns the per-node
/// models plus the `(remote_leases, borrow_failures)` counters.
fn provision_static<M: RemoteModel>(
    config: &LoadgenConfig,
    cluster: &mut Cluster,
    qpair_lat: &[Time],
    remote: &mut M,
) -> (Vec<NodeModel>, u64, u64) {
    assert!(config.lease.is_none(), "static provisioning only");
    let n = cluster.len();
    let mut remote_leases = 0u64;
    let mut borrow_failures = 0u64;
    let mut models = Vec::with_capacity(n);
    match config.stack {
        RemoteStack::VeniceCrma => {
            // Static: the PR 1 one-shot provisioning path. The donor
            // pressure term is a lease-policy knob, so static tiers
            // model lending as free (as they always have).
            for id in 0..n as u16 {
                let model = if config.remote_memory_per_node > 0 {
                    match cluster.borrow_memory(NodeId(id), config.remote_memory_per_node) {
                        Ok(lease) => {
                            let lat = measure_crma(cluster, NodeId(id), lease.local_base);
                            remote_leases += 1;
                            if M::ENABLED {
                                remote.set_route(id as usize, Some(lease.donor.0));
                            }
                            NodeModel {
                                local_miss: LOCAL_MISS,
                                remote_miss: lat,
                                remote_bytes: lease.bytes,
                                full_bytes: lease.bytes,
                                lent_bytes: 0,
                                lendable_bytes: LENDABLE_PER_NODE,
                                lent_slowdown: 0.0,
                            }
                        }
                        Err(_) => {
                            borrow_failures += 1;
                            NodeModel::local_only(LOCAL_MISS)
                        }
                    }
                } else {
                    NodeModel::local_only(LOCAL_MISS)
                };
                models.push(model);
            }
        }
        stack => {
            // A baseline stack: a static remote partition reached through
            // the commodity path's per-miss cost — no Monitor-Node flow,
            // no hot-plug, identical traffic.
            for &qp_lat in qpair_lat {
                let model = if config.remote_memory_per_node > 0 {
                    NodeModel {
                        local_miss: LOCAL_MISS,
                        remote_miss: stack.remote_miss(Time::ZERO, qp_lat),
                        remote_bytes: config.remote_memory_per_node,
                        full_bytes: config.remote_memory_per_node,
                        lent_bytes: 0,
                        lendable_bytes: 0,
                        lent_slowdown: 0.0,
                    }
                } else {
                    NodeModel::local_only(LOCAL_MISS)
                };
                models.push(model);
            }
        }
    }
    (models, remote_leases, borrow_failures)
}

impl<'a, P: Probe, M: RemoteModel, F: FaultModel> World<'a, P, M, F> {
    /// Builds a run's world issuing the arrivals routed to the nodes in
    /// `owned` (steps 1–4 of a run): the cluster and per-node transport,
    /// the provisioned remote tier, the per-node servers, and the two
    /// insulated RNG streams. A shard builds the whole mesh exactly as
    /// the sequential engine does and differs only in `owned`.
    ///
    /// `zipf` is the mix's [`TenantMix::user_sampler`]. Its setup sums
    /// the Zipf normalizer over up to 10^5 ranks — most of a world's
    /// setup time — so a sharded run builds it once and hands each shard
    /// a copy.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        config: &LoadgenConfig,
        replay_trace: Option<&'a Trace>,
        capture: bool,
        mut probe: P,
        mut remote: M,
        mut faults: F,
        zipf: ZipfSampler,
        owned: Range<u16>,
    ) -> Self {
        validate(config);

        // 1–2. Build the cluster, mesh adjacency, and per-node transport.
        //    The per-class request-message latency is precomputed once —
        //    payload sizes are class constants and the latency model is
        //    state-free, so the dispatch path just indexes it.
        let (dx, dy, dz) = config.mesh;
        let mut cluster = Cluster::mesh(dx, dy, dz, 1 << 30, LENDABLE_PER_NODE);
        let n = cluster.len();
        let neighbors: Vec<Vec<u16>> = cluster
            .nodes
            .iter()
            .map(|node| node.agent.neighbors.iter().map(|id| id.0).collect())
            .collect();
        let gateway = NodeId(0);
        let path = cluster.path.clone();
        let mut qpair_lat = Vec::with_capacity(n);
        let mut qps = Vec::with_capacity(n);
        let mut msg_lat = Vec::with_capacity(n);
        for i in 0..n as u16 {
            let mut qp = QueuePair::new(gateway, NodeId(i), QpairConfig::on_chip());
            qpair_lat.push(
                qp.message_latency(&path, 64)
                    .expect("64 B control message fits any qpair"),
            );
            msg_lat.push(
                config
                    .mix
                    .classes
                    .iter()
                    .map(|class| {
                        qp.message_latency(&path, class.profile.request_bytes())
                            .expect("request payloads are bounded")
                    })
                    .collect::<Vec<Time>>(),
            );
            qps.push(qp);
        }
        if F::ENABLED {
            // Sizes liveness state and rejects plans naming nodes outside
            // the mesh, before any event fires.
            faults.init(n as u16);
        }

        // 3. Provision the remote tier.
        let mut remote_leases = 0u64;
        let mut borrow_failures = 0u64;
        let mut models = Vec::with_capacity(n);
        let mut elastic: Option<ElasticTier> = None;
        match (&config.lease, config.stack) {
            (Some(lease_config), RemoteStack::VeniceCrma) => {
                // Elastic: bootstrap every node to the lease floor through
                // the real borrow flow; the lease_tick event grows/shrinks
                // from there.
                let full = if config.remote_memory_per_node > 0 {
                    config.remote_memory_per_node
                } else {
                    lease_config.chunk_bytes * lease_config.max_chunks as u64
                };
                for _ in 0..n {
                    models.push(NodeModel {
                        local_miss: LOCAL_MISS,
                        remote_miss: Time::ZERO,
                        remote_bytes: 0,
                        full_bytes: full,
                        lent_bytes: 0,
                        lendable_bytes: LENDABLE_PER_NODE,
                        lent_slowdown: lease_config.donor_pressure_slowdown,
                    });
                }
                let mut tier = ElasticTier {
                    tags: vec![NO_TAG; n],
                    leases: vec![Vec::new(); n],
                    manager: LeaseManager::with_quotas(
                        *lease_config,
                        n as u16,
                        config.mix.quotas(),
                    ),
                    over_quota: vec![false; config.mix.classes.len()],
                };
                let boot = tier.manager.bootstrap();
                for action in boot {
                    let LeaseAction::Grow { node, .. } = action else {
                        unreachable!("bootstrap only grows");
                    };
                    // A refused bootstrap grow is already recorded by
                    // grow_lease as a manager denial (lease.denials);
                    // borrow_failures stays a static-provisioning counter
                    // so the two never double-count. Bootstrap capacity is
                    // unattributed: no tenant's backlog asked for it, so no
                    // tenant's quota pays for it.
                    if let Some((generation, lease, lat)) = grow_lease(
                        &mut cluster,
                        &mut tier.manager,
                        Time::ZERO,
                        node,
                        NO_TAG,
                        false,
                        Priority::Normal,
                        None,
                        // Setup happens before any traffic: every fabric
                        // window is empty, so even congestion-aware
                        // placement accepts the nearest donor here.
                        &|d| remote.donor_ok(Time::ZERO, node, d.0),
                    ) {
                        // Setup-time provisioning is visible immediately
                        // (the run starts after setup, like the static
                        // path).
                        tier.leases[node as usize].push((generation, lease));
                        if M::ENABLED {
                            remote.set_route(node as usize, Some(lease.donor.0));
                        }
                        if P::ENABLED {
                            // Bootstrap capacity is usable from t = 0: its
                            // active span starts at the epoch, no establish
                            // phase (setup happens before the clock runs).
                            probe.span_open(SpanKind::Active, node, generation, Time::ZERO);
                        }
                        let model = &mut models[node as usize];
                        model.remote_bytes += lease.bytes;
                        model.remote_miss = lat;
                        remote_leases += 1;
                        // Bootstrap grants pressure their donors from t = 0
                        // when the term is armed.
                        let donor = lease.donor.0 as usize;
                        if models[donor].lent_slowdown > 0.0 {
                            models[donor].lent_bytes = cluster.lent_bytes_of(lease.donor);
                        }
                    }
                }
                elastic = Some(tier);
            }
            (None, _) => {
                // Static provisioning: the one-shot borrow flow for the
                // Venice stack, or a pre-partitioned baseline tier.
                (models, remote_leases, borrow_failures) =
                    provision_static(config, &mut cluster, &qpair_lat, &mut remote);
            }
            (Some(_), _) => unreachable!("validated above"),
        }

        // 4. Assemble the per-node servers: transport pair, service
        //    slots, and each tenant class's service model compiled
        //    against the node's provisioned model.
        let servers: Vec<Server> = qps
            .into_iter()
            .zip(&models)
            .zip(msg_lat)
            .map(|((qp, model), msg_lat_by_class)| Server {
                qp,
                slots: vec![Time::ZERO; config.per_node_concurrency as usize],
                backlog: VecDeque::new(),
                model: *model,
                credit_waits: 0,
                inflight_by_class: vec![0; config.mix.classes.len()],
                msg_lat_by_class,
                service_by_class: config
                    .mix
                    .classes
                    .iter()
                    .map(|class| class.profile.compile(model))
                    .collect(),
                attrib_by_class: if P::ATTRIB {
                    config
                        .mix
                        .classes
                        .iter()
                        .map(|class| class.profile.compile_attrib(model))
                        .collect()
                } else {
                    Vec::new()
                },
                last_arrival: None,
                last_finish: None,
            })
            .collect();
        let mut rng = SimRng::seed(config.seed);
        let engine_rng = rng.fork(0x10AD);
        let service_rng = rng.fork(0x5E41);
        // Replay supplies every arrival from the trace; a closed-loop
        // config.arrival must not additionally spawn synthetic sessions.
        let think = match config.arrival {
            ArrivalProcess::ClosedLoop { think, .. } if replay_trace.is_none() => Some(think),
            _ => None,
        };
        let target = replay_trace
            .map(|t| t.len() as u64)
            .unwrap_or(config.requests);
        // Per-phase mean gaps, computed once with the exact expression the
        // per-arrival path used to evaluate (`1/rate` through
        // `Time::from_secs_f64`), so the hoisted values are bit-identical.
        let open_gaps = match config.arrival {
            ArrivalProcess::OpenPoisson { rate_rps } => {
                let gap = Time::from_secs_f64(1.0 / rate_rps);
                Some((gap, gap))
            }
            ArrivalProcess::Bursty {
                base_rps,
                burst_rps,
                ..
            } => Some((
                Time::from_secs_f64(1.0 / base_rps),
                Time::from_secs_f64(1.0 / burst_rps),
            )),
            ArrivalProcess::ClosedLoop { .. } => None,
        };
        World {
            owned,
            next_request: (0, 0),
            tied: false,
            remote_leases,
            borrow_failures,
            probe,
            rng: engine_rng,
            service_rng,
            classes: config.mix.classes.clone(),
            weight_total: config.mix.weights().iter().sum(),
            weights: config.mix.weights(),
            zipf,
            admissions: (0..n)
                .map(|_| AdmissionControl::per_node(config.admission, n as u32))
                .collect(),
            servers,
            requests: RequestSlab::new(),
            req_bytes_by_class: config
                .mix
                .classes
                .iter()
                .map(|c| c.profile.request_bytes())
                .collect(),
            resp_bytes_by_class: config
                .mix
                .classes
                .iter()
                .map(|c| c.profile.response_bytes())
                .collect(),
            stats: (0..config.mix.classes.len())
                .map(|_| Stats::new())
                .collect(),
            issued: 0,
            target,
            completed: 0,
            fused: 0,
            end: Time::ZERO,
            arrival: config.arrival,
            open_gaps,
            think,
            backlog_cap: config.admission.backlog_per_node,
            cluster,
            neighbors,
            elastic,
            denied_scan: 0,
            denied_counts: vec![0; config.mix.classes.len()],
            trace: capture.then(Vec::new),
            replay: replay_trace.map(|t| ReplayCursor {
                records: &t.records,
                next: 0,
            }),
            attrib: Vec::new(),
            pending_grows: if P::ATTRIB { vec![0; n] } else { Vec::new() },
            remote,
            fabric_detour: Vec::new(),
            faults,
            doomed: Vec::new(),
            fault_seq: 0,
            node_fault_seq: if F::ENABLED { vec![0; n] } else { Vec::new() },
        }
    }
}

/// Arms the configured [`RemoteModel`] and monomorphizes the engine
/// over it — the scalar path instantiates with [`ScalarCrma`]
/// (`ENABLED = false`, every fabric hook compiled away), the congested
/// path compiles the mesh's all-pairs path table and per-class wire
/// footprints once and instantiates with [`CongestedFabric`].
pub(crate) fn run_full<P: Probe>(
    config: &LoadgenConfig,
    replay_trace: Option<&Trace>,
    capture: bool,
    probe: P,
    faults: Option<FaultPlan>,
) -> (LoadReport, Option<Trace>, EngineMetrics, P) {
    match (&config.remote_model, faults) {
        (RemoteModelCfg::Scalar, None) => {
            run_typed(config, replay_trace, capture, probe, ScalarCrma, NoFaults)
        }
        (RemoteModelCfg::Scalar, Some(plan)) => {
            run_typed(config, replay_trace, capture, probe, ScalarCrma, plan)
        }
        (RemoteModelCfg::Congested(params), faults) => {
            let wire = config
                .mix
                .classes
                .iter()
                .map(|c| c.profile.remote_wire_bytes())
                .collect();
            let fabric = CongestedFabric::new(params.clone(), config.mesh, wire);
            match faults {
                None => run_typed(config, replay_trace, capture, probe, fabric, NoFaults),
                Some(plan) => run_typed(config, replay_trace, capture, probe, fabric, plan),
            }
        }
    }
}

/// The sequential engine: one world owning every node.
fn run_typed<P: Probe, M: RemoteModel, F: FaultModel>(
    config: &LoadgenConfig,
    replay_trace: Option<&Trace>,
    capture: bool,
    probe: P,
    remote: M,
    faults: F,
) -> (LoadReport, Option<Trace>, EngineMetrics, P) {
    validate(config);
    let owned = 0..config.nodes();
    let zipf = config.mix.user_sampler();
    let world = World::new(
        config,
        replay_trace,
        capture,
        probe,
        remote,
        faults,
        zipf,
        owned,
    );
    summarize(config, vec![run_world(world)])
}

/// Seeds `w`'s event queue and runs it to completion (step 5 of a run),
/// returning the finished world and its loop counters.
pub(crate) fn run_world<P: Probe, M: RemoteModel, F: FaultModel>(
    w: World<'_, P, M, F>,
) -> (World<'_, P, M, F>, EngineMetrics) {
    let limit = w.target.saturating_mul(8) + 500_000;
    let mut kernel = Kernel::new(w).with_event_limit(limit);
    let replay_start = kernel.state().replay.as_ref().map(|cur| {
        let first = cur.records.first();
        first.map(|r| Time::from_ns(r.at_ns)).unwrap_or(Time::ZERO)
    });
    if let Some(at) = replay_start {
        kernel.schedule_event(at, EngineEvent::ReplayNext);
    } else {
        match kernel.state().arrival {
            ArrivalProcess::OpenPoisson { .. } | ArrivalProcess::Bursty { .. } => {
                if let Some(at) = draw_owned_arrival(kernel.state_mut(), Time::ZERO) {
                    kernel.schedule_event(at, EngineEvent::Arrival);
                }
            }
            ArrivalProcess::ClosedLoop { sessions, think } => {
                assert!(sessions > 0, "closed loop needs at least one session");
                for _ in 0..sessions {
                    let start = exponential(&mut kernel.state_mut().rng, think);
                    kernel.schedule_event(start, EngineEvent::SessionNext);
                }
            }
        }
    }
    if let Some(tier) = &kernel.state().elastic {
        let interval = tier.manager.config().tick_interval;
        kernel.schedule_event(interval, EngineEvent::LeaseTick);
    }
    if F::ENABLED {
        if let Some(at) = kernel.state().faults.next_at() {
            kernel.schedule_event(at, EngineEvent::FaultTick);
        }
    }
    kernel.run();
    let metrics = EngineMetrics {
        events: kernel.executed() + kernel.state().fused,
        fused_arrivals: kernel.state().fused,
        peak_queue_depth: kernel.peak_pending(),
        queue: kernel.queue_stats(),
        slab: kernel.slab_occupancy(),
    };
    if P::ENABLED {
        kernel.state_mut().probe.on_queue_stats(
            metrics.queue,
            metrics.slab,
            metrics.peak_queue_depth,
        );
    }
    (kernel.into_state(), metrics)
}

/// Turns finished worlds into the run's report, trace, and loop
/// counters (step 6 of a run). A sequential run passes its one world; a
/// sharded run passes one per shard, in node order. Shards own disjoint
/// nodes, so their per-class accumulators and counters merge by
/// commutative sums and the report cannot depend on the shard count.
pub(crate) fn summarize<P: Probe, M: RemoteModel, F: FaultModel>(
    config: &LoadgenConfig,
    worlds: Vec<(World<'_, P, M, F>, EngineMetrics)>,
) -> (LoadReport, Option<Trace>, EngineMetrics, P) {
    let mut worlds = worlds.into_iter();
    let (mut w, mut metrics) = worlds.next().expect("a run has at least one world");
    let mut credit_waits: u64 = w.servers.iter().map(|s| s.credit_waits).sum();
    for (shard, m) in worlds {
        metrics.events += m.events;
        metrics.fused_arrivals += m.fused_arrivals;
        metrics.peak_queue_depth = metrics.peak_queue_depth.max(m.peak_queue_depth);
        metrics.queue.absorb(m.queue);
        metrics.slab = (metrics.slab.0 + m.slab.0, metrics.slab.1 + m.slab.1);
        for (acc, st) in w.stats.iter_mut().zip(&shard.stats) {
            acc.absorb(st);
        }
        w.completed += shard.completed;
        w.end = w.end.max(shard.end);
        credit_waits += shard.servers.iter().map(|s| s.credit_waits).sum::<u64>();
        if let (Some(records), Some(more)) = (&mut w.trace, shard.trace) {
            records.extend(more);
        }
    }
    let duration = w.end;
    let lease = match &w.elastic {
        Some(tier) => {
            // Conservation, checked against the *cluster's* ledger: every
            // byte the manager thinks is out really is borrowed through
            // the Monitor-Node flow, and vice versa.
            assert_eq!(
                w.cluster.borrowed_bytes(),
                tier.manager.total_bytes(),
                "lease-manager ledger diverged from the cluster ledger"
            );
            // The market's second conservation law: every byte the
            // manager accounts as subleased is annotated as a chain on
            // the cluster's active-lease ledger, and vice versa.
            assert_eq!(
                w.cluster.subleased_bytes(),
                tier.manager.subleased_bytes(),
                "sublease ledger diverged from the cluster's chains"
            );
            let classes = w.classes.len();
            let mut tenant_bytes: Vec<u64> = tier.manager.tenant_ledger().to_vec();
            tenant_bytes.resize(classes, 0);
            let mut charged_bytes: Vec<u64> = tier.manager.charged_ledger().to_vec();
            charged_bytes.resize(classes, 0);
            LeaseSummary {
                grows: tier.manager.grows(),
                predictive_grows: tier.manager.predictive_grows(),
                shrinks: tier.manager.shrinks(),
                revokes: tier.manager.revokes(),
                failovers: tier.manager.failovers(),
                revoke_denials: tier.manager.revoke_denials(),
                denials: tier.manager.denials(),
                quota_denials: tier.manager.quota_denials(),
                subleases: tier.manager.subleases(),
                sublease_returns: tier.manager.sublease_returns(),
                peak_bytes: tier.manager.peak_bytes(),
                mean_bytes: tier.manager.mean_bytes(duration),
                tenant_bytes,
                charged_bytes,
                donor_nodes: tier.manager.donor_nodes(),
                events: tier.manager.timeline().iter().map(|(_, e)| *e).collect(),
            }
        }
        None => {
            // A static tier never changes after setup, so the models
            // still hold exactly what was provisioned — including the
            // power-of-two rounding the borrow flow applies, which the
            // configured `remote_memory_per_node` would understate.
            let granted: u64 = w.servers.iter().map(|s| s.model.remote_bytes).sum();
            // Only the Venice stack actually borrows: baseline stacks
            // mount a pre-partitioned tier without the Monitor-Node
            // flow, so their summary shows the provisioned footprint
            // (peak/mean) but zero lease activity.
            let grows = if config.stack == RemoteStack::VeniceCrma {
                w.servers.iter().filter(|s| s.model.has_remote()).count() as u64
            } else {
                0
            };
            LeaseSummary {
                denials: w.borrow_failures,
                ..LeaseSummary::static_tier(grows, granted)
            }
        }
    };
    let trace = w.trace.map(|mut records| {
        // Completions land in finish order; re-sort to issue order so the
        // exported trace reads (and replays) as an arrival stream.
        records.sort_by_key(|r| r.seq);
        Trace { records }
    });
    let mut total_hist = LogHistogram::new();
    let mut total_bytes = 0u64;
    let mut admitted = 0u64;
    let (mut shed_rate, mut shed_overload, mut shed_backpressure, mut shed_crash) =
        (0u64, 0u64, 0u64, 0u64);
    let mut tenants = Vec::with_capacity(w.classes.len());
    for (class, st) in w.classes.iter().zip(&w.stats) {
        total_hist.merge(&st.hist);
        total_bytes += st.bytes;
        admitted += st.admitted;
        shed_rate += st.shed_rate;
        shed_overload += st.shed_overload;
        shed_backpressure += st.shed_backpressure;
        shed_crash += st.shed_crash;
        tenants.push(TenantReport::from_stats(
            class.name.clone(),
            &st.hist,
            st.admitted,
            st.shed_rate + st.shed_overload + st.shed_backpressure + st.shed_crash,
            st.bytes,
            duration,
        ));
    }
    let total = TenantReport::from_stats(
        "all",
        &total_hist,
        admitted,
        shed_rate + shed_overload + shed_backpressure + shed_crash,
        total_bytes,
        duration,
    );
    let report = LoadReport {
        mix: config.mix.name.clone(),
        seed: config.seed,
        nodes: w.servers.len() as u16,
        duration,
        issued: w.issued,
        admitted,
        completed: w.completed,
        shed_rate,
        shed_overload,
        shed_backpressure,
        shed_crash,
        credit_waits,
        remote_leases: w.remote_leases,
        borrow_failures: w.borrow_failures,
        lease,
        total,
        tenants,
    };
    (report, trace, metrics, w.probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::{FabricParams, PlacementPolicy};
    use crate::tenants::TenantMix;
    use venice_fabric::LinkParams;

    fn small(seed: u64) -> LoadgenConfig {
        LoadgenConfig {
            requests: 3_000,
            ..LoadgenConfig::new(seed, TenantMix::web_frontend())
        }
    }

    // Local shorthands over the Run builder for the tests below.
    fn run(config: &LoadgenConfig) -> LoadReport {
        Run::new(config).execute().report
    }

    fn run_metered(config: &LoadgenConfig) -> (LoadReport, EngineMetrics) {
        let out = Run::new(config).execute();
        (out.report, out.metrics)
    }

    fn run_traced(config: &LoadgenConfig) -> (LoadReport, Trace) {
        let out = Run::new(config).traced().execute();
        (out.report, out.trace.expect("tracing was requested"))
    }

    fn replay(config: &LoadgenConfig, trace: &Trace) -> LoadReport {
        Run::new(config).replay(trace).execute().report
    }

    /// A congested-fabric variant of [`small`] with a deliberately
    /// tight per-window capacity, so its links saturate under the
    /// default 20 krps load.
    fn congested(seed: u64) -> LoadgenConfig {
        let link = LinkParams::venice_prototype();
        let params = FabricParams {
            capacity_bytes: 8 << 10,
            buffer_bytes: 2 << 10,
            ..FabricParams::from_link(link, Time::from_ms(1), PlacementPolicy::ScalarPriced)
        };
        LoadgenConfig {
            remote_model: RemoteModelCfg::Congested(params),
            ..small(seed)
        }
    }

    #[test]
    fn congested_runs_are_deterministic() {
        let config = congested(23);
        let a = Run::new(&config).traced().execute();
        let b = Run::new(&config).traced().execute();
        assert_eq!(a.report, b.report);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn infinite_fabric_matches_the_scalar_model_bit_for_bit() {
        // With unbounded per-window capacity no dispatch is ever
        // charged, so the congested engine must reproduce the scalar
        // baseline exactly — report and trace (the property test in
        // tests/ sweeps this over arbitrary seeds and mixes).
        let scalar = small(29);
        let infinite = LoadgenConfig {
            remote_model: RemoteModelCfg::Congested(FabricParams::infinite()),
            ..small(29)
        };
        let a = Run::new(&scalar).traced().execute();
        let b = Run::new(&infinite).traced().execute();
        assert_eq!(a.report, b.report);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn saturated_fabric_slows_the_run() {
        let scalar = Run::new(&small(23)).execute().report;
        let congested = Run::new(&congested(23)).execute().report;
        // Same traffic either way (pricing never changes arrivals or
        // admission inputs at these rates)...
        assert_eq!(scalar.issued, congested.issued);
        // ...but saturated links queue remote transfers, so the mean
        // can only degrade.
        assert!(
            congested.total.mean_us > scalar.total.mean_us,
            "congested mean {} not above scalar {}",
            congested.total.mean_us,
            scalar.total.mean_us
        );
    }

    #[test]
    fn runs_complete_and_conserve_requests() {
        let r = run(&small(1));
        assert_eq!(r.issued, 3_000);
        assert_eq!(r.issued, r.admitted + r.shed_rate + r.shed_overload);
        // Every admitted request either completed or was dropped under
        // backpressure.
        assert_eq!(r.admitted, r.completed + r.shed_backpressure);
        assert!(r.completed > 0);
        assert!(r.duration > Time::ZERO);
        assert_eq!(r.nodes, 8);
        assert_eq!(r.remote_leases + r.borrow_failures, 8);
        // Static provisioning: the tier never moves.
        assert_eq!(r.lease.shrinks, 0);
        assert_eq!(r.lease.peak_bytes, r.remote_leases * (256 << 20));
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let a = run(&small(42));
        let b = run(&small(42));
        assert_eq!(a, b);
        let c = run(&small(43));
        assert_ne!(a, c);
    }

    #[test]
    fn per_tenant_rows_cover_all_completions() {
        let r = run(&small(7));
        let sum: u64 = r.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(sum, r.completed);
        for t in &r.tenants {
            if t.completed > 0 {
                assert!(t.p50_us > 0.0);
                assert!(t.p50_us <= t.p99_us + 1e-9);
                assert!(t.p99_us <= t.p999_us + 1e-9);
            }
        }
    }

    #[test]
    fn closed_loop_self_limits() {
        let config = LoadgenConfig {
            arrival: ArrivalProcess::ClosedLoop {
                sessions: 64,
                think: Time::from_ms(1),
            },
            requests: 2_000,
            ..LoadgenConfig::new(5, TenantMix::messaging())
        };
        let r = run(&config);
        assert_eq!(r.issued, 2_000);
        // A 64-session closed loop cannot overload the per-node caps.
        assert_eq!(r.shed_overload, 0);
        assert_eq!(r.completed, r.admitted);
    }

    #[test]
    fn overload_sheds_and_backpressure_engages() {
        let config = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson {
                rate_rps: 2_000_000.0,
            },
            requests: 20_000,
            admission: AdmissionConfig {
                max_inflight: 256,
                backlog_per_node: 16,
                ..AdmissionConfig::default()
            },
            ..LoadgenConfig::new(11, TenantMix::web_frontend())
        };
        let r = run(&config);
        assert!(r.shed_overload > 0, "no overload shedding at 2 Mrps");
        assert!(r.credit_waits > 0, "qpair credits never exhausted");
    }

    #[test]
    fn priority_shedding_spares_high_priority_tenants() {
        // Saturate the cluster: the low-priority telemetry tenant must
        // shed a larger *fraction* than the high-priority kv tenant.
        let config = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson {
                rate_rps: 2_000_000.0,
            },
            requests: 30_000,
            admission: AdmissionConfig {
                max_inflight: 128,
                backlog_per_node: 16,
                ..AdmissionConfig::default()
            },
            ..LoadgenConfig::new(17, TenantMix::web_frontend())
        };
        let r = run(&config);
        let frac = |name: &str| {
            let t = r.tenants.iter().find(|t| t.tenant == name).unwrap();
            t.shed as f64 / (t.completed + t.shed).max(1) as f64
        };
        let low = frac("telemetry"); // Priority::Low
        let high = frac("kv-cache"); // Priority::High
        assert!(
            low > high + 0.05,
            "low-priority shed fraction {low:.3} not above high-priority {high:.3}"
        );
    }

    #[test]
    fn remote_tier_disabled_falls_back_to_local() {
        let config = LoadgenConfig {
            remote_memory_per_node: 0,
            requests: 2_000,
            ..LoadgenConfig::new(3, TenantMix::web_frontend())
        };
        let r = run(&config);
        assert_eq!(r.remote_leases, 0);
        // Cold caches miss to the slow backend: the tail is much worse
        // than with the borrowed tier.
        let with_remote = run(&small(3));
        assert!(r.total.p99_us > with_remote.total.p99_us);
    }

    #[test]
    fn baseline_stacks_run_identical_traffic_slower() {
        let venice = run(&small(21));
        let eth = run(&LoadgenConfig {
            stack: RemoteStack::SwapEthernet,
            ..small(21)
        });
        // Identical traffic: the arrival rng is insulated from admission
        // divergence, so the per-tenant arrival split matches exactly.
        // (completed + shed counts every arrival exactly once; admitted
        // also includes requests later dropped at backlog overflow.)
        assert_eq!(venice.issued, eth.issued);
        for (v, e) in venice.tenants.iter().zip(&eth.tenants) {
            assert_eq!(
                v.completed + v.shed,
                e.completed + e.shed,
                "tenant {}",
                v.tenant
            );
        }
        assert_eq!(eth.remote_leases, 0, "baselines bypass the Monitor Node");
        // The commodity stack pays far more per remote miss; the mean
        // can only degrade.
        assert!(
            eth.total.mean_us > venice.total.mean_us,
            "ethernet swap {} not above venice {}",
            eth.total.mean_us,
            venice.total.mean_us
        );
    }

    #[test]
    fn elastic_lease_grows_under_pressure_and_replays_bit_identically() {
        let config = LoadgenConfig {
            arrival: ArrivalProcess::Bursty {
                base_rps: 4_000.0,
                burst_rps: 120_000.0,
                period: Time::from_ms(400),
                burst_len: Time::from_ms(150),
                crowd_users: 4,
                crowd_share: 0.8,
            },
            requests: 12_000,
            lease: Some(LeaseConfig::default()),
            ..LoadgenConfig::new(9, TenantMix::web_frontend())
        };
        let r = run(&config);
        assert!(
            r.lease.grows > 8,
            "elastic tier never grew past bootstrap: {} grows",
            r.lease.grows
        );
        assert!(!r.lease.events.is_empty());
        assert!(r.lease.peak_bytes > 8 * (64 << 20), "no mid-run growth");
        assert_eq!(r, run(&config), "elastic run not deterministic");
    }

    #[test]
    #[should_panic(expected = "names tenant")]
    fn replay_rejects_traces_from_a_foreign_mix() {
        // web-frontend has 3 classes; a trace naming class 2 cannot be
        // replayed through the 2-class messaging mix.
        let (_, trace) = run_traced(&small(3));
        assert!(trace.records.iter().any(|r| r.tenant == 2));
        let config = LoadgenConfig {
            requests: 3_000,
            ..LoadgenConfig::new(3, TenantMix::messaging())
        };
        replay(&config, &trace);
    }

    #[test]
    fn closed_loop_replay_does_not_spawn_sessions() {
        // config.arrival is documented as ignored during replay: the
        // trace supplies every arrival, so a closed-loop config must not
        // add synthetic session traffic on top.
        let config = LoadgenConfig {
            arrival: ArrivalProcess::ClosedLoop {
                sessions: 16,
                think: Time::from_ms(1),
            },
            requests: 500,
            ..LoadgenConfig::new(5, TenantMix::messaging())
        };
        let (report, trace) = run_traced(&config);
        let replayed = replay(&config, &trace);
        assert_eq!(replayed.issued, report.issued);
        assert_eq!(replayed.issued, trace.len() as u64);
    }

    #[test]
    fn locality_routing_follows_the_tenants_lease() {
        // A zero-floor lease policy leaves cold nodes without any remote
        // tier; their users' requests must defer to a mesh neighbor
        // already holding a lease driven by the same tenant.
        let config = LoadgenConfig {
            arrival: ArrivalProcess::Bursty {
                base_rps: 3_000.0,
                burst_rps: 120_000.0,
                period: Time::from_ms(400),
                burst_len: Time::from_ms(200),
                crowd_users: 4,
                crowd_share: 0.9,
            },
            requests: 10_000,
            lease: Some(LeaseConfig {
                min_chunks: 0,
                max_chunks: 6,
                high_watermark: 4,
                ..LeaseConfig::default()
            }),
            ..LoadgenConfig::new(31, TenantMix::web_frontend())
        };
        let (report, trace) = run_traced(&config);
        assert!(report.lease.grows > 0, "tier never grew");
        let n = report.nodes as u64;
        let rerouted = trace
            .records
            .iter()
            .filter(|r| r.node as u64 != r.user % n)
            .count();
        assert!(rerouted > 0, "locality routing never engaged");
        // Rerouted requests land on nodes that actually hold a lease.
        assert!(
            trace
                .records
                .iter()
                .filter(|r| r.node as u64 != r.user % n)
                .all(|r| r.lease_generation > 0),
            "rerouted request landed on a lease-less node"
        );
    }

    #[test]
    #[should_panic(expected = "hot-plug")]
    fn elastic_on_a_swap_stack_is_rejected() {
        let config = LoadgenConfig {
            stack: RemoteStack::SwapInfiniband,
            lease: Some(LeaseConfig::default()),
            ..small(1)
        };
        run(&config);
    }

    #[test]
    fn traced_runs_capture_every_request_and_replay() {
        let config = small(33);
        let (report, trace) = run_traced(&config);
        assert_eq!(trace.len() as u64, report.issued);
        // Records are in issue order with non-decreasing arrival times.
        assert!(trace
            .records
            .windows(2)
            .all(|w| w[0].seq + 1 == w[1].seq && w[0].at_ns <= w[1].at_ns));
        let completed = trace
            .records
            .iter()
            .filter(|r| r.outcome == RequestOutcome::Completed)
            .count() as u64;
        assert_eq!(completed, report.completed);
        // Replay re-drives the same arrivals: same issue count, same
        // per-tenant arrival split, and bit-identical across replays.
        let a = replay(&config, &trace);
        assert_eq!(a.issued, report.issued);
        let b = replay(&config, &trace);
        assert_eq!(a, b);
        // The replayed per-tenant issue counts match the recorded ones.
        for (i, t) in a.tenants.iter().enumerate() {
            let recorded = trace
                .records
                .iter()
                .filter(|r| r.tenant == i as u32)
                .count() as u64;
            // completed + shed counts every arrival exactly once
            // (admitted also includes backlog-overflow drops).
            assert_eq!(t.completed + t.shed, recorded, "tenant {}", t.tenant);
        }
    }

    #[test]
    fn metered_runs_report_loop_counters_without_changing_the_report() {
        let config = small(13);
        let (report, metrics) = run_metered(&config);
        assert_eq!(report, run(&config), "metering changed the run");
        // At least one event per issued request (arrivals), plus
        // completions.
        assert!(metrics.events > report.issued);
        assert!(metrics.peak_queue_depth > 0);
    }

    #[test]
    fn typed_engine_matches_the_legacy_oracle_bit_for_bit() {
        // The headline differential check at unit-test granularity (the
        // property test sweeps arbitrary configs; CI byte-diffs the
        // bench bin): same seed, same config → identical report AND
        // identical trace through both event cores.
        let config = small(77);
        let (typed_report, typed_trace) = run_traced(&config);
        let (legacy_report, legacy_trace) = crate::legacy::run_traced(&config);
        assert_eq!(typed_report, legacy_report);
        assert_eq!(typed_trace, legacy_trace);
        // And replay agrees on the borrowed-trace path too.
        assert_eq!(
            replay(&config, &typed_trace),
            crate::legacy::replay(&config, &legacy_trace)
        );
    }
}
