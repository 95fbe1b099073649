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
//! (node, tenant class) instead of re-derived on every dispatch.
//! `cargo run --release -p venice-bench --bin throughput` times it
//! into `BENCH_perf.json`, and the golden corpus (`BENCH_golden.jsonl`)
//! pins its bytes.
//!
//! # One arrival loop, one driver
//!
//! Arrivals never enter the event queue. Every world, sequential or a
//! shard of a sharded run, replayed or drawn, runs one loop
//! (`run_arrivals`): take the next owned arrival off the arrival tape
//! (`crate::tape`), run the kernel up to its instant, inclusive, and
//! issue it in place. The caller owns the clock and moves it to each
//! arrival, so at any instant every queued event fires before that
//! instant's arrival, and a shard reads that order off its own nodes.
//! One driver (`crate::sharded`) hands every world its arrivals, one
//! tape epoch at a time: a sequential run is that driver at width 1,
//! one world owning every node.

use std::collections::VecDeque;
use std::hint::select_unpredictable;
use std::ops::Range;
use std::sync::Arc;

use venice::cluster::Cluster;
use venice::NodeId;
use venice_fabric::CreditCounter;
use venice_lease::{LeaseConfig, LeaseManager, NO_TENANT};
use venice_sim::{Kernel, LogHistogram, QueueStats, Scheduler, SimEvent, SimRng, Time};
use venice_telemetry::attrib::{
    StageBreakdown, SHED_REASONS, STAGE_DETOUR, STAGE_ESTABLISH_STALL, STAGE_QUEUE_WAIT,
    STAGE_SERVICE_LOCAL, STAGE_SERVICE_REMOTE, STAGE_SLOT_WAIT, STAGE_TRANSPORT,
};
use venice_telemetry::{NodeGauges, NoopProbe, Probe, SampleRow, TenantCounters};
use venice_transport::{PathModel, QpairConfig, QueuePair};

use crate::admission::{AdmissionConfig, AdmissionControl, Decision, Loss};
use crate::arrival::{ArrivalDraws, ArrivalProcess};
use crate::faults::{FaultModel, FaultPlan, NoFaults};
use crate::remote::{CongestedFabric, RemoteModel, RemoteModelCfg, ScalarCrma};
use crate::report::{LeaseSummary, LoadReport, TenantReport};
use crate::sharded::{self, Lockstep};
use crate::stacks::RemoteStack;
use crate::tape::{Chunk, Stream, TapeEntry};
use crate::tenants::{CompiledAttrib, CompiledService, NodeModel, TenantClass, TenantMix};
use crate::trace::{RequestOutcome, RequestRecord, Trace};

#[cfg(test)]
mod characterization;
mod control;

use control::{
    bootstrap, fault_tick, lease_established, lease_tick, measure_crma, revoke_torndown,
    ElasticTier, LeaseEstablish, RevokeTeardown,
};

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
/// frozen by the golden corpus (its serialization is byte-diffed across
/// thread counts and shard widths), while these loop-level counters
/// exist for the `throughput` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Logical events processed over the whole run: the events the
    /// kernel dispatched plus the arrivals the arrival loop issued in
    /// place. The count does not depend on how the run executed, so it
    /// is the same at every shard width.
    pub events: u64,
    /// Arrivals issued in place by the arrival loop: every arrival,
    /// since none enters the event queue.
    pub fused_arrivals: u64,
    /// Peak number of simultaneously pending events (peak event-queue
    /// depth).
    pub peak_queue_depth: usize,
    /// Cumulative event-queue traffic counters (sorted-run versus ring
    /// pushes and pops); see [`QueueStats`].
    pub queue: QueueStats,
    /// End-of-run `(live, high-water)` occupancy of the kernel queue's
    /// entry slab (entries filed in the ring or its far list).
    pub slab: (usize, usize),
    /// Barrier rounds of the arrival driver that the calling thread
    /// reached first, waiting for another thread to finish its part of
    /// the round (0 when it runs alone).
    pub tape_epoch_waits: u64,
    /// Whether a thread that owns no world, the fill helper of a
    /// sequential run, filled the arrival tape on a spare core, one
    /// epoch ahead of the world.
    pub tape_producer: bool,
    /// Wrapping sum of every completed request's latency in picoseconds.
    /// Reports and traces round latencies to histogram buckets and whole
    /// nanoseconds; this sum sees a one-picosecond change to any of them.
    pub latency_ps: u64,
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
    /// In service on its node at the node's crash: its `Finish` fires
    /// on schedule but books a crash loss. Only a fault plan sets it.
    doomed: bool,
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

    /// Dooms every live request (not on the free list) bound to
    /// `node`. Crash path only — O(slab), never on the per-request path.
    #[cold]
    #[inline(never)]
    fn doom_live_on(&mut self, node: u16) {
        let mut free = vec![false; self.entries.len()];
        for &slot in &self.free {
            free[slot as usize] = true;
        }
        for (req, free) in self.entries.iter_mut().zip(free) {
            if req.node == node && !free {
                req.doomed = true;
            }
        }
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

/// Per-node server state: only the scalars and the backlog. Every
/// per-(node, class) and per-(node, slot) value lives in the world's
/// [`NodeTables`].
struct Server {
    /// Free receiver credits of the edge-gateway → node QPair
    /// ([`QpairConfig::credits`]): a dispatch takes one and its finish
    /// returns it. The pair's send queue is deeper than its credits, so
    /// credits are the only gate.
    credits: CreditCounter,
    /// Slab slots of requests waiting for a QPair credit.
    backlog: VecDeque<u32>,
    /// Measured latency context (mutated mid-run by elastic leases).
    model: NodeModel,
    /// Times a request found no credit and had to wait (or was shed).
    credit_waits: u64,
}

/// The world's per-node tables, each one flat allocation for the whole
/// mesh: the per-class tables hold a row of `classes` entries per node
/// (indexed `node * classes + class`, [`NodeTables::at`]), and
/// `busy_until` a row of `slots` entries per node.
struct NodeTables {
    /// Tenant classes: the row width of the per-class tables.
    classes: usize,
    /// Service slots per node: the row width of `busy_until`.
    slots: usize,
    /// Gateway→node QPair message latency of each class's request
    /// (payload sizes are class constants and the latency model is
    /// state-free, so the dispatch path just indexes it).
    msg_lat: Vec<Time>,
    /// Each class's service model compiled against the node's current
    /// [`NodeModel`] ([`RequestProfile::compile`]); a node's row is
    /// recompiled whenever a lease event moves its remote tier.
    ///
    /// [`RequestProfile::compile`]: crate::tenants::RequestProfile::compile
    service: Vec<CompiledService>,
    /// Each class's remote-share model compiled against the same
    /// [`NodeModel`] ([`RequestProfile::compile_attrib`]); empty unless
    /// the probe is enabled, recompiled alongside `service`.
    ///
    /// [`RequestProfile::compile_attrib`]: crate::tenants::RequestProfile::compile_attrib
    attrib: Vec<CompiledAttrib>,
    /// Dispatched-but-not-finished requests per (node, class); together
    /// with `queued` this is the demand signal lease attribution reads
    /// (the grow trigger counts busy slots, so attribution must see
    /// in-service work too, not just the backlog).
    inflight: Vec<u32>,
    /// Backlogged requests per (node, class): each node's backlog counted
    /// by class, kept in step at every park and pop so a lease tick reads
    /// the node's queued demand without touching the backlog or the slab.
    queued: Vec<u32>,
    /// Busy-until time of each (node, service slot).
    busy_until: Vec<Time>,
}

impl NodeTables {
    /// Index of `(node, class)` in the per-class tables.
    #[inline]
    fn at(&self, node: usize, class: usize) -> usize {
        node * self.classes + class
    }

    /// `node`'s row of the per-class tables.
    fn row(&self, node: usize) -> Range<usize> {
        node * self.classes..(node + 1) * self.classes
    }

    /// `node`'s service slots.
    #[inline]
    fn slots_of(&mut self, node: usize) -> &mut [Time] {
        &mut self.busy_until[node * self.slots..(node + 1) * self.slots]
    }
}

/// Mesh adjacency as one table: node `i`'s neighbors are
/// `nodes[start[i]..start[i + 1]]`, in the order its agent lists them.
struct Adjacency {
    start: Vec<u32>,
    nodes: Vec<u16>,
}

impl Adjacency {
    /// The adjacency the cluster's node agents hold.
    fn of(cluster: &Cluster) -> Self {
        let lists = || cluster.nodes.iter().map(|node| node.agent.neighbors());
        let mut start = Vec::with_capacity(cluster.len() + 1);
        let mut nodes = Vec::with_capacity(lists().map(<[NodeId]>::len).sum());
        start.push(0);
        for list in lists() {
            nodes.extend(list.iter().map(|id| id.0));
            start.push(nodes.len() as u32);
        }
        Adjacency { start, nodes }
    }

    /// `node`'s mesh neighbors.
    #[inline]
    fn of_node(&self, node: usize) -> &[u16] {
        &self.nodes[self.start[node] as usize..self.start[node + 1] as usize]
    }
}

/// Per-tenant accumulators.
struct Stats {
    hist: LogHistogram,
    bytes: u64,
    admitted: u64,
    /// Lost requests per reason, indexed by [`Loss`].
    lost: [u64; SHED_REASONS],
}

impl Stats {
    fn new() -> Self {
        Stats {
            hist: LogHistogram::new(),
            bytes: 0,
            admitted: 0,
            lost: [0; SHED_REASONS],
        }
    }

    /// Requests lost for any reason.
    fn lost_total(&self) -> u64 {
        self.lost.iter().sum()
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
        for (acc, n) in self.lost.iter_mut().zip(other.lost) {
            *acc += n;
        }
    }

    /// The report row named `name` over a run lasting `duration`.
    fn report(&self, name: impl Into<String>, duration: Time) -> TenantReport {
        let lost = self.lost_total();
        TenantReport::from_stats(name, &self.hist, self.admitted, lost, self.bytes, duration)
    }
}

/// One scheduled occurrence in the typed engine: a plain enum value,
/// scheduled by value and fired through a single `match` — no `Box`, no
/// vtable on the per-request path. The hot variants (completions,
/// ticks) carry at most a 4-byte slab slot, keeping the enum at 16
/// bytes so queue pushes and pops move almost nothing; the rare
/// lease-flow completions (a few hundred per run, vs millions of
/// requests) box their fat payloads rather than inflating every event.
/// Arrivals are not events: the arrival loop ([`run_arrivals`]) issues
/// each one off the tape in place.
enum EngineEvent {
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
    /// [`crate::telemetry::EVENT_KIND_LABELS`]. No event fires slots 0
    /// to 2 (arrivals report through [`Probe::on_fused_arrival`]); the
    /// numbering is kept so probe consumers that index the slots
    /// (perfbench reads `finish` as slot 3) stay valid.
    fn kind(&self) -> u8 {
        match self {
            EngineEvent::Finish(_) => 3,
            EngineEvent::LeaseTick => 4,
            EngineEvent::LeaseEstablished(_) => 5,
            EngineEvent::RevokeTorndown(_) => 6,
            EngineEvent::FaultTick => 7,
        }
    }
}

/// The engine's scheduler flavor: typed events over the world.
type Sched<P, M, F> = Scheduler<World<P, M, F>, EngineEvent>;

impl<P: Probe, M: RemoteModel, F: FaultModel> SimEvent<World<P, M, F>> for EngineEvent {
    #[inline]
    fn fire(self, w: &mut World<P, M, F>, s: &mut Sched<P, M, F>) {
        if P::ENABLED {
            pulse(w, s, self.kind());
        }
        match self {
            EngineEvent::Finish(slot) => finish(w, s, slot),
            EngineEvent::LeaseTick => lease_tick(w, s),
            EngineEvent::LeaseEstablished(est) => lease_established(w, s, *est),
            EngineEvent::RevokeTorndown(rev) => revoke_torndown(w, s, *rev),
            EngineEvent::FaultTick => fault_tick(w, s),
        }
    }
}

/// The simulated world threaded through every event.
///
/// A world issues the requests routed to the nodes in `owned`: every
/// node for a sequential run, one node group for a shard of a sharded
/// run. Every arrival, drawn or replayed, comes off an arrival tape
/// ([`crate::tape`]) through the world's `feed`, which the arrival
/// driver ([`crate::sharded`]) hands one epoch at a time, and
/// [`run_arrivals`] issues it.
pub(crate) struct World<P: Probe, M: RemoteModel, F: FaultModel> {
    /// Nodes whose arrivals this world issues.
    owned: Range<u16>,
    /// The world's cursor on the arrival tape.
    feed: TapeFeed,
    /// Setup counters carried to the report: leases borrowed at setup
    /// and refused setup borrows.
    remote_leases: u64,
    borrow_failures: u64,
    /// Observation hooks ([`venice_telemetry::Probe`]); `NoopProbe` in
    /// every default entry point, so the hooks compile away and the
    /// report stays bit-identical to the unprobed engine.
    probe: P,
    /// Service-side randomness: cache hit/miss draws, service jitter.
    /// Arrivals come off the tape, drawn from a separate stream
    /// ([`seed_streams`]), so two runs with the same seed but different
    /// stacks or configs see the identical arrival stream even after
    /// their admission decisions diverge.
    service_rng: SimRng,
    classes: Vec<TenantClass>,
    /// One admission controller per node.
    admissions: Vec<AdmissionControl>,
    servers: Vec<Server>,
    /// Per-(node, class) and per-(node, slot) state of every server.
    tables: NodeTables,
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
    /// Wrapping sum of the completed requests' latencies in picoseconds.
    latency_ps: u64,
    /// Arrivals this world issued.
    arrivals: u64,
    end: Time,
    backlog_cap: usize,
    /// The composed cluster, kept live so elastic ticks can borrow and
    /// release against the real Monitor-Node flow mid-run.
    cluster: Cluster,
    /// Mesh adjacency (from the node agents) for locality-aware routing.
    adjacency: Adjacency,
    elastic: Option<ElasticTier>,
    /// Cursor into the lease timeline for incremental per-tenant denial
    /// accounting at probe samples; never advanced on the no-op path.
    denied_scan: usize,
    /// Per-class denial counts accumulated by that cursor.
    denied_counts: Vec<u64>,
    /// Per-request records when tracing.
    trace: Option<Vec<RequestRecord>>,
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
    /// the congested model is armed and the probe attributes stages.
    fabric_detour: Vec<u64>,
    /// Fault injection ([`crate::faults::FaultModel`]); [`NoFaults`] on
    /// the default path, where every hook site guarded by `if
    /// F::ENABLED` monomorphizes away and the engine is
    /// instruction-for-instruction the pre-chaos one.
    faults: F,
    /// Monotonic crash counter: the `generation` key of fault spans
    /// (a node can crash more than once; lease generations and crash
    /// ordinals must not collide on one span key).
    fault_seq: u64,
    /// Each node's current fault span key while down (0 = never
    /// crashed), so recovery closes the span the crash opened.
    node_fault_seq: Vec<u64>,
}

impl<P: Probe, M: RemoteModel, F: FaultModel> World<P, M, F> {
    /// Total admitted-but-not-completed requests across all nodes.
    fn total_inflight(&self) -> u32 {
        self.admissions.iter().map(|a| a.inflight()).sum()
    }

    /// Pops `node`'s oldest backlogged slot, keeping the node's queued
    /// counts in step.
    #[inline]
    fn pop_backlog(&mut self, node: usize) -> Option<u32> {
        let slot = self.servers[node].backlog.pop_front()?;
        let at = self.tables.at(node, self.requests.get(slot).class as usize);
        self.tables.queued[at] -= 1;
        Some(slot)
    }

    /// Asserts that every node's queued counts equal a recount of its
    /// backlog. Checked at each lease tick and at run end.
    #[cfg(debug_assertions)]
    fn audit_queued(&self) {
        for (node, srv) in self.servers.iter().enumerate() {
            for class in 0..self.tables.classes {
                let recount = srv
                    .backlog
                    .iter()
                    .filter(|&&slot| self.requests.get(slot).class as usize == class)
                    .count();
                assert_eq!(
                    self.tables.queued[self.tables.at(node, class)] as usize,
                    recount,
                    "node {node}: queued counts drifted from its backlog (class {class})"
                );
            }
        }
    }

    /// Why this world's run was not a pure function of its owned nodes,
    /// or `None` if it was. A shard fails this on an admission shed: it
    /// stepped over every foreign arrival's service draws assuming
    /// admission, and the sequential engine skips the draws for a shed
    /// request. Until the first shed anywhere, every shard is exact, so
    /// the shard holding it always reports it. A world owning every node
    /// steps over nothing, so it never fails.
    pub(crate) fn violation(&self) -> Option<FallbackReason> {
        let partial = self.owned.len() < self.servers.len();
        let shed = self
            .stats
            .iter()
            .any(|st| st.lost[Loss::Rate as usize] + st.lost[Loss::Overload as usize] > 0);
        (partial && shed).then_some(FallbackReason::Shed)
    }
}

/// Per-event probe pulse: counts the event and, when a sample tick
/// boundary was crossed, snapshots the world into a [`SampleRow`].
/// Called only under `if P::ENABLED`, and never from the no-op path —
/// sampling piggybacks on events the kernel was executing anyway, so
/// the probed event stream is the unprobed one, exactly.
#[inline]
fn pulse<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<P, M, F>,
    s: &mut Sched<P, M, F>,
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
    w: &mut World<P, M, F>,
    pending: usize,
    slab_live: usize,
) -> SampleRow {
    let nodes = w
        .servers
        .iter()
        .enumerate()
        .map(|(i, srv)| NodeGauges {
            depth: srv.backlog.len() as u32,
            inflight: w.tables.inflight[w.tables.row(i)].iter().sum(),
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
            shed: st.lost_total(),
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

/// The arrival loop every world runs: takes each owned arrival off the
/// tape ([`next_owned_arrival`]), runs the kernel up to its instant,
/// inclusive, and issues it in place. So every event queued for an
/// instant fires before that instant's arrival, an order each shard
/// computes from its own nodes. Returns once the tape runs out: at the
/// end of the run, or at the end of a shard's handed epoch.
#[inline]
fn run_arrivals<P: Probe, M: RemoteModel, F: FaultModel>(kernel: &mut EngineKernel<P, M, F>) {
    while let Some(arrival) = next_owned_arrival(kernel.state_mut()) {
        issue_arrival(kernel, arrival);
    }
}

/// Runs the kernel up to `at`, inclusive, and issues the tape arrival
/// `entry` there.
#[inline]
fn issue_arrival<P: Probe, M: RemoteModel, F: FaultModel>(
    kernel: &mut EngineKernel<P, M, F>,
    (at, entry): (Time, TapeEntry),
) {
    kernel.run_until(at);
    let (w, s) = kernel.parts_mut();
    w.arrivals += 1;
    if P::ENABLED {
        w.probe.on_fused_arrival(at);
    }
    issue_with(w, s, at, entry);
}

/// The next arrival this world issues off the tape it was handed
/// ([`TapeFeed`]), with its instant, or `None` once the handed epoch
/// runs out. The feed walks the tape one entry at a time, stepping the
/// service stream over the arrivals routed to nodes the world does not
/// own, as the sequential engine draws their service times.
#[inline]
fn next_owned_arrival<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<P, M, F>,
) -> Option<(Time, TapeEntry)> {
    let feed = &mut w.feed;
    loop {
        let chunk = feed.chunks.get(feed.chunk)?;
        let Some(&entry) = chunk.entries.get(feed.pos) else {
            feed.chunk += 1;
            feed.pos = 0;
            continue;
        };
        feed.pos += 1;
        feed.clock = feed
            .clock
            .checked_add(entry.gap)
            .expect("simulated time overflow");
        feed.seq += 1;
        let node = entry.node as usize;
        if !w.owned.contains(&entry.node) {
            feed.skip += w.tables.service[w.tables.at(node, entry.class as usize)].draws();
            continue;
        }
        for _ in 0..std::mem::take(&mut feed.skip) {
            w.service_rng.next_u64();
        }
        w.issued = feed.seq - 1;
        return Some((feed.clock, entry));
    }
}

/// The engine's two insulated streams, forked from the run seed in a
/// fixed order: `(arrival, service)`.
pub(crate) fn seed_streams(seed: u64) -> (SimRng, SimRng) {
    let mut root = SimRng::seed(seed);
    let arrival = root.fork(0x10AD);
    (arrival, root.fork(0x5E41))
}

/// A world's cursor on the arrival tape: the chunks handed to it, and
/// where the cursor stands in them and in the global stream.
#[derive(Debug, Default)]
struct TapeFeed {
    /// Chunks handed to this world: the current epoch's.
    chunks: Vec<Arc<Chunk>>,
    /// Index of the chunk the cursor is in, and of its next entry.
    chunk: usize,
    pos: usize,
    /// Instant of the last entry the cursor passed.
    clock: Time,
    /// Global sequence number of the next entry.
    seq: u64,
    /// Service-stream words of the foreign arrivals passed since the
    /// last owned one.
    skip: u64,
}

/// Routes a request of tenant `class` whose user's home node is `home`
/// (the population hash, `user % nodes`, which the tape stores with each
/// arrival), except that a home node whose remote tier is empty defers
/// to a mesh neighbor already holding a lease driven by this tenant
/// (locality: follow the memory).
///
/// With a fault plan armed, a *down* home node is skipped entirely: the
/// session re-routes to the first live mesh neighbor (adjacency order),
/// falling back to the lowest-id live node anywhere — admission on the
/// survivor then decides the request's fate. Only when every node is
/// down does the home stand (the caller sheds the request as a crash
/// loss before admission).
fn route<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &World<P, M, F>,
    class: usize,
    home: usize,
) -> usize {
    let n = w.servers.len();
    if F::ENABLED && !w.faults.node_up(home as u16) {
        for &nb in w.adjacency.of_node(home) {
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
    for &nb in w.adjacency.of_node(home) {
        if (!F::ENABLED || w.faults.node_up(nb)) // never defer onto a dead node
            && tier.tags[nb as usize] == class as u32
            && w.servers[nb as usize].model.has_remote()
        {
            return nb as usize;
        }
    }
    home
}

/// Runs one tape arrival through per-node admission and dispatch.
#[inline]
fn issue_with<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<P, M, F>,
    s: &mut Sched<P, M, F>,
    now: Time,
    entry: TapeEntry,
) {
    let class = entry.class as usize;
    let node = route(w, class, entry.node as usize);
    let mut req = Request {
        seq: w.issued,
        class: entry.class,
        user: entry.user,
        node: node as u16,
        arrival: now,
        service: Time::ZERO,
        generation: 0,
        doomed: false,
    };
    w.issued += 1;
    // Total outage: every node is down, so the front door itself is
    // gone — the request is a crash loss, not an admission decision.
    if F::ENABLED && !w.faults.node_up(req.node) {
        lose(w, &req, Loss::Crash, now);
        return;
    }
    if let Some(tier) = &w.elastic {
        req.generation = tier.newest_generation(node);
    }
    let priority = w.classes[class].priority;
    let over_quota = w
        .elastic
        .as_ref()
        .map(|t| t.over_quota[class])
        .unwrap_or(false);
    match w.admissions[node].on_arrival(now, priority, over_quota) {
        Decision::Shed(loss) => lose(w, &req, loss, now),
        Decision::Admit => {
            w.stats[class].admitted += 1;
            // The compiled model replays service_time() bit-for-bit
            // (same rng draws) without re-deriving the node-state
            // constants per request; the coin branch feeds attribution
            // and is dead code on the no-op path.
            let at = w.tables.at(node, class);
            let (service, is_miss) = w.tables.service[at].sample_split(&mut w.service_rng);
            req.service = service;
            let slot = w.requests.insert(req);
            if P::ATTRIB {
                let remote_ps = w.tables.attrib[at].remote_ps(service, is_miss);
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

/// Books `req` as lost to `loss` at `now`: its tenant's counter for the
/// reason, the probe's shed slot and the trace record. Every lost
/// request goes through here, whether admission turned it away or the
/// engine lost it after admission ([`lose_admitted`]).
///
/// Loss booking is kept out of line and cold, here and in
/// [`lose_admitted`], so the request path it branches off (`issue_with`,
/// `dispatch`, `finish`) stays compact. The benchmark's `flash-crash`
/// workload, which sheds one arrival in eight, ran about 10% faster
/// that way in the default release build on a 2-core host (a tie at one
/// codegen unit); `#[inline(never)]` alone got less.
#[cold]
#[inline(never)]
fn lose<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<P, M, F>,
    req: &Request,
    loss: Loss,
    now: Time,
) {
    w.stats[req.class as usize].lost[loss as usize] += 1;
    if P::ATTRIB {
        w.probe.on_shed(req.class as u16, req.node, loss as u8, now);
    }
    record(w, req, loss.outcome(), Time::ZERO);
}

/// Loses the admitted request in `slot` to `loss` at `now`: frees the
/// slot, closes its admission and books the loss ([`lose`]). Shared by a
/// backlog overflow, a crash's backlog drain and a doomed request's
/// `Finish`; the caller returns whatever transport credit the request
/// held.
#[cold]
#[inline(never)]
fn lose_admitted<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<P, M, F>,
    slot: u32,
    loss: Loss,
    now: Time,
) -> Request {
    let req = w.requests.take(slot);
    w.admissions[req.node as usize].on_completion();
    lose(w, &req, loss, now);
    req
}

/// Appends `req`'s trace record if tracing is on.
fn record<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<P, M, F>,
    req: &Request,
    outcome: RequestOutcome,
    latency: Time,
) {
    if let Some(trace) = &mut w.trace {
        trace.push(RequestRecord {
            seq: req.seq,
            at_ns: req.arrival.as_ns(),
            tenant: req.class,
            user: req.user,
            node: req.node,
            outcome,
            latency_ns: latency.as_ns(),
            lease_generation: req.generation,
        });
    }
}

/// The service slot that frees earliest, as `(index, free time)`; a tie
/// keeps the lowest index. A running minimum held in locals: which slot
/// wins is data-dependent, so the selects are marked unpredictable and
/// compile to conditional moves rather than a branch per slot.
#[inline]
fn earliest_slot(slots: &[Time]) -> (usize, Time) {
    let (mut best, mut best_t) = (0, slots[0]);
    for (i, &t) in slots.iter().enumerate().skip(1) {
        let earlier = t < best_t;
        best = select_unpredictable(earlier, i, best);
        best_t = select_unpredictable(earlier, t, best_t);
    }
    (best, best_t)
}

/// Sends an admitted request toward its node, or parks it under
/// backpressure. `slot` indexes the request slab.
#[inline]
fn dispatch<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<P, M, F>,
    s: &mut Sched<P, M, F>,
    slot: u32,
) {
    let now = s.now();
    let req = *w.requests.get(slot);
    let node = req.node as usize;
    let at = w.tables.at(node, req.class as usize);
    // One bounds-checked server borrow for the whole hot path (the
    // other touched fields are disjoint, so the borrows coexist).
    let srv = &mut w.servers[node];
    if srv.credits.try_consume() {
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
            if P::ATTRIB {
                if w.fabric_detour.len() <= slot as usize {
                    w.fabric_detour.resize(slot as usize + 1, 0);
                }
                w.fabric_detour[slot as usize] = fab.as_ps();
            }
            fab
        } else {
            Time::ZERO
        };
        let deliver = now + w.tables.msg_lat[at];
        let slots = w.tables.slots_of(node);
        let (best_slot, free_at) = earliest_slot(slots);
        let start = deliver.max(free_at);
        let comp = start + req.service + fab;
        slots[best_slot] = comp;
        w.tables.inflight[at] += 1;
        s.schedule_event_at(comp, EngineEvent::Finish(slot));
    } else {
        srv.credit_waits += 1;
        if srv.backlog.len() < w.backlog_cap {
            if P::ATTRIB && w.pending_grows[node] > 0 {
                // The node is waiting on a grow's establish flow:
                // classify this park as a lease-establish stall.
                w.attrib[slot as usize].stalled = true;
            }
            srv.backlog.push_back(slot);
            w.tables.queued[at] += 1;
        } else {
            // The node is saturated beyond its backlog: drop the
            // request and free its in-flight slot.
            lose_admitted(w, slot, Loss::Backpressure, now);
        }
    }
}

/// Completion event: account the request, return the credit, and drain
/// the node's backlog.
#[inline]
fn finish<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<P, M, F>,
    s: &mut Sched<P, M, F>,
    slot: u32,
) {
    // A request doomed by its node's crash still fires its Finish on
    // schedule (events cannot be unscheduled), but it accounts as a
    // crash shed: transport credits return, admission and in-flight
    // ledgers close, and nothing lands in the latency histogram — the
    // work died with the node.
    if F::ENABLED && w.requests.get(slot).doomed {
        let req = lose_admitted(w, slot, Loss::Crash, s.now());
        let node = req.node as usize;
        let at = w.tables.at(node, req.class as usize);
        w.tables.inflight[at] -= 1;
        w.servers[node].credits.grant(1);
        if let Some(next) = w.pop_backlog(node) {
            dispatch(w, s, next);
        }
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
    w.latency_ps = w.latency_ps.wrapping_add(latency.as_ps());
    if now > w.end {
        w.end = now;
    }
    let node = req.node as usize;
    w.admissions[node].on_completion();
    let at = w.tables.at(node, class);
    w.tables.inflight[at] -= 1;
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
        let transport_ps = w.tables.msg_lat[at].as_ps();
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
    record(w, &req, RequestOutcome::Completed, latency);
    w.servers[node].credits.grant(1);
    if let Some(next) = w.pop_backlog(node) {
        dispatch(w, s, next);
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
    /// Which engine path produced the output. Every path yields the
    /// same bytes; this says only how the run spent its wall clock.
    pub exec_path: ExecPath,
}

/// The execution path a [`Run`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// The sequential engine, as asked for ([`Run::shards`] at most 1).
    Sequential,
    /// The sharded kernel, at `width` shards (the requested count
    /// clamped to the node count).
    Sharded {
        /// Shards that ran.
        width: usize,
    },
    /// Shards were asked for, but the sequential engine produced the
    /// output.
    Fallback {
        /// Why the sharded kernel did not.
        reason: FallbackReason,
    },
}

/// Why a run asked to shard fell back to the sequential engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The run cannot split into independent node groups, for the
    /// first reason found in [`IneligibleKind`] order.
    Ineligible(IneligibleKind),
    /// A shard shed a request at admission.
    Shed,
}

/// What kept a run from splitting into independent node groups. The
/// sharded driver checks the kinds in declaration order and reports the
/// first that holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IneligibleKind {
    /// Replayed arrivals: the sharded driver fills its tape only with
    /// freshly drawn arrivals.
    Replay,
    /// A fault plan: crashes re-route sessions across node groups.
    Faults,
    /// An enabled probe: it observes the global event stream.
    Probe,
    /// Elastic leases: a tick moves memory between any two nodes.
    Leases,
    /// The congested fabric: its links are shared by every node group.
    CongestedFabric,
    /// The mesh split into fewer than two node groups.
    SingleGroup,
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
    /// modeled fabric paths, fault plans, probes, replay), and sharded
    /// runs that shed at admission, execute sequentially rather than
    /// approximately — byte-identity is never traded for speed.
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
        validate(self.config);
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
        let ((report, trace, metrics, probe), exec_path) = if self.shards > 1 {
            sharded::run_sharded_or_sequential(
                self.config,
                self.replay,
                self.traced,
                self.probe,
                self.faults,
                self.shards,
            )
        } else {
            let out = run_full(
                self.config,
                self.replay,
                self.traced,
                self.probe,
                self.faults,
                Lockstep::pool(),
            );
            (out, ExecPath::Sequential)
        };
        RunOutput {
            report,
            trace,
            metrics,
            probe,
            exec_path,
        }
    }
}

/// Rejects an internally inconsistent configuration. [`Run::execute`]
/// calls it once, before any work starts and beside its replay-trace
/// checks, so every path of a run, sharded or not, fails with the same
/// messages.
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

/// Values that see a node only through a hop distance, each evaluated
/// once: [`PerHop::get_or`] evaluates at the first distance asked for
/// and reads the stored value back after.
#[derive(Default)]
struct PerHop<T>(Vec<Option<T>>);

impl<T: Copy> PerHop<T> {
    /// A memo with room for distances up to `max_hops`.
    fn up_to(max_hops: u32) -> Self {
        PerHop(Vec::with_capacity(max_hops as usize + 1))
    }

    /// The value stored for `hops`, evaluating `eval` if there is none.
    fn get_or(&mut self, hops: u32, eval: impl FnOnce() -> T) -> T {
        let hops = hops as usize;
        if self.0.len() <= hops {
            self.0.resize(hops + 1, None);
        }
        *self.0[hops].get_or_insert_with(eval)
    }
}

/// The gateway→node QPair latency of a message of each of `bytes`, for
/// each of the `n` nodes, as one table indexed `node * bytes.len() + i`.
/// The latency model sees a node only through its hop distance from the
/// gateway, so each distance is evaluated once, at the first node that
/// lies there, and every later node at that distance copies its row.
fn gateway_latencies(path: &PathModel, qpair: &QpairConfig, n: usize, bytes: &[u64]) -> Vec<Time> {
    let gateway = NodeId(0);
    let width = bytes.len();
    let mut first_at = PerHop::up_to(path.topology.max_distance(gateway));
    let mut lat = Vec::with_capacity(n * width);
    for i in 0..n {
        let node = NodeId(i as u16);
        let first = first_at.get_or(path.topology.link_hops(gateway, node), || i);
        if first == i {
            let mut qp = QueuePair::new(gateway, node, qpair.clone());
            lat.extend(bytes.iter().map(|&b| {
                qp.message_latency(path, b)
                    .expect("payloads fit a QPair message")
            }));
        } else {
            lat.extend_from_within(first * width..(first + 1) * width);
        }
    }
    lat
}

/// Provisions the remote tier for a **static** (non-elastic) run: the
/// PR 1 one-shot borrow flow for the Venice stack, or a pre-partitioned
/// tier at the baseline stack's per-miss cost, into each server's
/// model (local-only on entry). Returns the `(remote_leases,
/// borrow_failures)` counters.
fn provision_static<M: RemoteModel>(
    config: &LoadgenConfig,
    cluster: &mut Cluster,
    qpair: &QpairConfig,
    remote: &mut M,
    servers: &mut [Server],
) -> (u64, u64) {
    assert!(config.lease.is_none(), "static provisioning only");
    if config.remote_memory_per_node == 0 {
        return (0, 0);
    }
    let n = cluster.len();
    let mut remote_leases = 0u64;
    let mut borrow_failures = 0u64;
    match config.stack {
        RemoteStack::VeniceCrma => {
            // Static: the PR 1 one-shot provisioning path. The donor
            // pressure term is a lease-policy knob, so static tiers
            // model lending as free (as they always have).
            //
            // Each node borrows once, so at its measurement its CRMA
            // channel holds just the window it mapped, and the measured
            // (second, translation-warm) read depends on the node only
            // through its hop distance to the donor: each distance is
            // measured once. A skipped measurement leaves that node's
            // TLTLB cold and its read counters at zero; nothing in a
            // static run reads either again.
            let mut crma_lat = PerHop::default();
            for (id, srv) in (0..n as u16).zip(servers) {
                let Ok(lease) = cluster.borrow_memory(NodeId(id), config.remote_memory_per_node)
                else {
                    borrow_failures += 1;
                    continue;
                };
                let hops = cluster.path.topology.link_hops(NodeId(id), lease.donor);
                let lat =
                    crma_lat.get_or(hops, || measure_crma(cluster, NodeId(id), lease.local_base));
                remote_leases += 1;
                if M::ENABLED {
                    remote.set_route(id as usize, Some(lease.donor.0));
                }
                srv.model = NodeModel {
                    local_miss: LOCAL_MISS,
                    remote_miss: lat,
                    remote_bytes: lease.bytes,
                    full_bytes: lease.bytes,
                    lent_bytes: 0,
                    lendable_bytes: LENDABLE_PER_NODE,
                    lent_slowdown: 0.0,
                };
            }
        }
        stack => {
            // A baseline stack: a static remote partition reached through
            // the commodity path's per-miss cost — no Monitor-Node flow,
            // no hot-plug, identical traffic.
            let qp_lat = gateway_latencies(&cluster.path, qpair, n, &[64]);
            for (srv, qp_lat) in servers.iter_mut().zip(qp_lat) {
                srv.model = NodeModel {
                    local_miss: LOCAL_MISS,
                    remote_miss: stack.remote_miss(Time::ZERO, qp_lat),
                    remote_bytes: config.remote_memory_per_node,
                    full_bytes: config.remote_memory_per_node,
                    lent_bytes: 0,
                    lendable_bytes: 0,
                    lent_slowdown: 0.0,
                };
            }
        }
    }
    (remote_leases, borrow_failures)
}

impl<P: Probe, M: RemoteModel, F: FaultModel> World<P, M, F> {
    /// Builds a world of a run of `requests` arrivals issuing those
    /// routed to the nodes in `owned` (steps 1–4 of a run): the cluster
    /// and per-node transport, the provisioned remote tier, the per-node
    /// servers, and the two insulated RNG streams. A shard builds the
    /// whole mesh exactly as the sequential engine does and differs only
    /// in `owned`.
    pub(crate) fn new(
        config: &LoadgenConfig,
        capture: bool,
        probe: P,
        mut remote: M,
        mut faults: F,
        owned: Range<u16>,
        requests: u64,
    ) -> Self {
        // 1–2. Build the cluster, mesh adjacency, and per-node transport.
        //    The per-class request-message latency is precomputed once —
        //    payload sizes are class constants and the latency model is
        //    state-free, so the dispatch path just indexes it.
        let (dx, dy, dz) = config.mesh;
        let mut cluster = Cluster::mesh(dx, dy, dz, 1 << 30, LENDABLE_PER_NODE);
        let n = cluster.len();
        let classes = &config.mix.classes;
        let adjacency = Adjacency::of(&cluster);
        let qpair = QpairConfig::on_chip();
        let req_bytes_by_class: Vec<u64> =
            classes.iter().map(|c| c.profile.request_bytes()).collect();
        let msg_lat = gateway_latencies(&cluster.path, &qpair, n, &req_bytes_by_class);
        if F::ENABLED {
            // Sizes liveness state and rejects plans naming nodes outside
            // the mesh, before any event fires.
            faults.init(n as u16);
        }

        // 3. Provision the remote tier into the per-node servers, which
        //    start local-only with every QPair credit free.
        let mut servers: Vec<Server> = (0..n)
            .map(|_| Server {
                credits: CreditCounter::new(qpair.credits),
                backlog: VecDeque::new(),
                model: NodeModel::local_only(LOCAL_MISS),
                credit_waits: 0,
            })
            .collect();
        let mut remote_leases = 0u64;
        let mut borrow_failures = 0u64;
        let mut elastic: Option<ElasticTier> = None;
        match (&config.lease, config.stack) {
            (Some(lease_config), RemoteStack::VeniceCrma) => {
                // Elastic: every node starts empty, and once the world
                // exists the bootstrap borrows each node's lease floor
                // through the real borrow flow; the lease_tick event
                // grows/shrinks from there.
                let full = if config.remote_memory_per_node > 0 {
                    config.remote_memory_per_node
                } else {
                    lease_config.chunk_bytes * lease_config.max_chunks as u64
                };
                let empty = NodeModel {
                    local_miss: LOCAL_MISS,
                    remote_miss: Time::ZERO,
                    remote_bytes: 0,
                    full_bytes: full,
                    lent_bytes: 0,
                    lendable_bytes: LENDABLE_PER_NODE,
                    lent_slowdown: lease_config.donor_pressure_slowdown,
                };
                for srv in &mut servers {
                    srv.model = empty;
                }
                elastic = Some(ElasticTier {
                    tags: vec![NO_TAG; n],
                    leases: vec![Vec::new(); n],
                    manager: LeaseManager::with_quotas(
                        *lease_config,
                        n as u16,
                        config.mix.quotas(),
                    ),
                    over_quota: vec![false; config.mix.classes.len()],
                    signals: Vec::with_capacity(n),
                    lent_bytes: Vec::with_capacity(n),
                });
            }
            (None, _) => {
                // Static provisioning: the one-shot borrow flow for the
                // Venice stack, or a pre-partitioned baseline tier.
                (remote_leases, borrow_failures) =
                    provision_static(config, &mut cluster, &qpair, &mut remote, &mut servers);
            }
            (Some(_), _) => unreachable!("Run::execute validated the stack"),
        }

        // 4. Assemble the world's tables: service slots, and each tenant
        //    class's service model compiled against the node's
        //    provisioned model.
        let width = classes.len();
        let mut service = Vec::with_capacity(n * width);
        let mut attrib = Vec::with_capacity(if P::ATTRIB { n * width } else { 0 });
        for model in servers.iter().map(|srv| &srv.model) {
            service.extend(classes.iter().map(|class| class.profile.compile(model)));
            if P::ATTRIB {
                attrib.extend(
                    classes
                        .iter()
                        .map(|class| class.profile.compile_attrib(model)),
                );
            }
        }
        let tables = NodeTables {
            classes: width,
            slots: config.per_node_concurrency as usize,
            msg_lat,
            service,
            attrib,
            inflight: vec![0; n * width],
            queued: vec![0; n * width],
            busy_until: vec![Time::ZERO; n * config.per_node_concurrency as usize],
        };
        let (_, service_rng) = seed_streams(config.seed);
        let mut w = World {
            owned,
            feed: TapeFeed::default(),
            remote_leases,
            borrow_failures,
            probe,
            service_rng,
            classes: config.mix.classes.clone(),
            admissions: (0..n)
                .map(|_| AdmissionControl::per_node(config.admission, n as u32))
                .collect(),
            servers,
            tables,
            requests: RequestSlab::new(),
            req_bytes_by_class,
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
            target: requests,
            completed: 0,
            latency_ps: 0,
            arrivals: 0,
            end: Time::ZERO,
            backlog_cap: config.admission.backlog_per_node,
            cluster,
            adjacency,
            elastic,
            denied_scan: 0,
            denied_counts: vec![0; config.mix.classes.len()],
            trace: capture.then(Vec::new),
            attrib: Vec::new(),
            pending_grows: if P::ATTRIB { vec![0; n] } else { Vec::new() },
            remote,
            fabric_detour: Vec::new(),
            faults,
            fault_seq: 0,
            node_fault_seq: if F::ENABLED { vec![0; n] } else { Vec::new() },
        };
        if w.elastic.is_some() {
            bootstrap(&mut w);
        }
        w
    }
}

/// Arms the configured [`RemoteModel`] and monomorphizes the engine
/// over it — the scalar path instantiates with [`ScalarCrma`]
/// (`ENABLED = false`, every fabric hook compiled away), the congested
/// path compiles the mesh's all-pairs path table and per-class wire
/// footprints once and instantiates with [`CongestedFabric`].
/// `pace` sets the arrival driver's epoch and thread count.
pub(crate) fn run_full<P: Probe>(
    config: &LoadgenConfig,
    replay_trace: Option<&Trace>,
    capture: bool,
    probe: P,
    faults: Option<FaultPlan>,
    pace: Lockstep,
) -> (LoadReport, Option<Trace>, EngineMetrics, P) {
    match (&config.remote_model, faults) {
        (RemoteModelCfg::Scalar, None) => run_typed(
            config,
            replay_trace,
            capture,
            probe,
            ScalarCrma,
            NoFaults,
            pace,
        ),
        (RemoteModelCfg::Scalar, Some(plan)) => {
            run_typed(config, replay_trace, capture, probe, ScalarCrma, plan, pace)
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
                None => run_typed(config, replay_trace, capture, probe, fabric, NoFaults, pace),
                Some(plan) => run_typed(config, replay_trace, capture, probe, fabric, plan, pace),
            }
        }
    }
}

/// The sequential engine: the arrival driver at width 1, with one world
/// owning every node, built on the calling thread, its arrivals drawn
/// or replayed.
fn run_typed<P: Probe, M: RemoteModel, F: FaultModel>(
    config: &LoadgenConfig,
    replay_trace: Option<&Trace>,
    capture: bool,
    probe: P,
    remote: M,
    faults: F,
    pace: Lockstep,
) -> (LoadReport, Option<Trace>, EngineMetrics, P) {
    let (stream, requests) = match replay_trace {
        Some(trace) => (Stream::Replayed(&trace.records), trace.len() as u64),
        None => (Stream::Drawn(ArrivalDraws::new(config)), config.requests),
    };
    let owned = 0..config.nodes();
    sharded::run_one(config, stream, requests, pace, || {
        Shard::new(World::new(
            config, capture, probe, remote, faults, owned, requests,
        ))
    })
}

/// The engine's kernel flavor: typed events over the world.
type EngineKernel<P, M, F> = Kernel<World<P, M, F>, EngineEvent>;

/// Seeds `w`'s event queue with its ticks (step 5 of a run) and hands
/// it to a kernel. Arrivals never enter the queue: [`run_arrivals`]
/// issues them.
fn start_world<P: Probe, M: RemoteModel, F: FaultModel>(
    w: World<P, M, F>,
) -> EngineKernel<P, M, F> {
    let limit = w.target.saturating_mul(8) + 500_000;
    let mut kernel = Kernel::new(w).with_event_limit(limit);
    if let Some(tier) = &kernel.state().elastic {
        let interval = tier.manager.config().tick_interval;
        kernel.schedule_event(interval, EngineEvent::LeaseTick);
    }
    if F::ENABLED {
        if let Some(at) = kernel.state().faults.next_at() {
            kernel.schedule_event(at, EngineEvent::FaultTick);
        }
    }
    kernel
}

/// The finished world of a kernel that ran to completion, with its loop
/// counters. The arrival driver fills in the tape counters.
fn finish_world<P: Probe, M: RemoteModel, F: FaultModel>(
    mut kernel: EngineKernel<P, M, F>,
) -> (World<P, M, F>, EngineMetrics) {
    #[cfg(debug_assertions)]
    kernel.state().audit_queued();
    let metrics = EngineMetrics {
        events: kernel.executed() + kernel.state().arrivals,
        fused_arrivals: kernel.state().arrivals,
        peak_queue_depth: kernel.peak_pending(),
        queue: kernel.queue_stats(),
        slab: kernel.slab_occupancy(),
        tape_epoch_waits: 0,
        tape_producer: false,
        latency_ps: kernel.state().latency_ps,
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

/// One world of the arrival driver ([`crate::sharded`]): the engine's
/// kernel over a world owning every node (a sequential run) or one node
/// group (a shard of a sharded run, over the default type parameters),
/// advanced one epoch of the arrival tape at a time.
pub(crate) struct Shard<P: Probe = NoopProbe, M: RemoteModel = ScalarCrma, F: FaultModel = NoFaults>
{
    kernel: EngineKernel<P, M, F>,
}

impl<P: Probe, M: RemoteModel, F: FaultModel> Shard<P, M, F> {
    /// Seeds `world`'s event queue and hands it to a kernel.
    pub(crate) fn new(world: World<P, M, F>) -> Self {
        Shard {
            kernel: start_world(world),
        }
    }

    /// Hands the world one epoch of the tape and runs the arrival loop
    /// over it, then, after the `last` epoch, the kernel to completion.
    /// Between epochs the world simply waits: each arrival runs the
    /// kernel up to its own instant, so no event fires early.
    pub(crate) fn advance(&mut self, epoch: &[Arc<Chunk>], last: bool) {
        let feed = &mut self.kernel.state_mut().feed;
        debug_assert!(feed.chunks.is_empty(), "the previous epoch drained");
        feed.chunks.extend_from_slice(epoch);
        run_arrivals(&mut self.kernel);
        if last {
            self.kernel.run();
        }
        // Every handed entry has been passed, so the epoch's chunks go
        // back to the tape for the filler to reuse.
        let feed = &mut self.kernel.state_mut().feed;
        feed.chunks.clear();
        feed.chunk = 0;
    }

    /// Why this world stopped being the sequential run, if it did
    /// ([`World::violation`]).
    pub(crate) fn violation(&self) -> Option<FallbackReason> {
        self.kernel.state().violation()
    }

    /// The finished world and its loop counters, once every epoch has
    /// been advanced through.
    pub(crate) fn finish(mut self) -> (World<P, M, F>, EngineMetrics) {
        let w = self.kernel.state_mut();
        debug_assert_eq!(w.feed.seq, w.target, "the whole tape was passed");
        // Every arrival of the stream was issued by some world.
        w.issued = w.target;
        finish_world(self.kernel)
    }
}

/// Turns finished worlds into the run's report, trace, and loop
/// counters (step 6 of a run). A sequential run passes its one world; a
/// sharded run passes one per shard, in node order. Shards own disjoint
/// nodes, so their per-class accumulators and counters merge by
/// commutative sums and the report cannot depend on the shard count.
pub(crate) fn summarize<P: Probe, M: RemoteModel, F: FaultModel>(
    config: &LoadgenConfig,
    worlds: Vec<(World<P, M, F>, EngineMetrics)>,
) -> (LoadReport, Option<Trace>, EngineMetrics, P) {
    let mut worlds = worlds.into_iter();
    let (mut w, mut metrics) = worlds.next().expect("a run has at least one world");
    let mut credit_waits: u64 = w.servers.iter().map(|s| s.credit_waits).sum();
    for (shard, m) in worlds {
        metrics.events += m.events;
        metrics.fused_arrivals += m.fused_arrivals;
        metrics.latency_ps = metrics.latency_ps.wrapping_add(m.latency_ps);
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
    let mut all = Stats::new();
    let mut tenants = Vec::with_capacity(w.classes.len());
    for (class, st) in w.classes.iter().zip(&w.stats) {
        all.absorb(st);
        tenants.push(st.report(class.name.clone(), duration));
    }
    let report = LoadReport {
        mix: config.mix.name.clone(),
        seed: config.seed,
        nodes: w.servers.len() as u16,
        duration,
        issued: w.issued,
        admitted: all.admitted,
        completed: w.completed,
        shed_rate: all.lost[Loss::Rate as usize],
        shed_overload: all.lost[Loss::Overload as usize],
        shed_backpressure: all.lost[Loss::Backpressure as usize],
        shed_crash: all.lost[Loss::Crash as usize],
        credit_waits,
        remote_leases: w.remote_leases,
        borrow_failures: w.borrow_failures,
        lease,
        total: all.report("all", duration),
        tenants,
    };
    (report, trace, metrics, w.probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultEvent;
    use crate::remote::{FabricParams, PlacementPolicy};
    use crate::tape::Filler;
    use crate::tenants::TenantMix;
    use venice_fabric::LinkParams;
    use venice_telemetry::AttribProbe;

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

    #[test]
    fn gateway_latencies_match_a_per_node_evaluation() {
        let cluster = Cluster::mesh(4, 4, 4, 1 << 30, LENDABLE_PER_NODE);
        let qpair = QpairConfig::on_chip();
        let bytes = [64, 512, 4_096, 9_000];
        let table = gateway_latencies(&cluster.path, &qpair, cluster.len(), &bytes);
        assert_eq!(table.len(), cluster.len() * bytes.len());
        for node in 0..cluster.len() {
            let mut qp = QueuePair::new(NodeId(0), NodeId(node as u16), qpair.clone());
            for (i, &b) in bytes.iter().enumerate() {
                let lat = qp.message_latency(&cluster.path, b).unwrap();
                assert_eq!(table[node * bytes.len() + i], lat, "node {node}, {b} B");
            }
        }
    }

    #[test]
    fn static_crma_latencies_match_a_per_node_measurement() {
        // Each node borrows a donor's whole lendable pool, so every
        // donor serves one recipient and the last node finds none.
        let config = LoadgenConfig {
            mesh: (3, 3, 1),
            remote_memory_per_node: LENDABLE_PER_NODE,
            ..small(1)
        };
        let mesh = || Cluster::mesh(3, 3, 1, 1 << 30, LENDABLE_PER_NODE);
        let mut cluster = mesh();
        let mut servers: Vec<Server> = (0..cluster.len())
            .map(|_| Server {
                credits: CreditCounter::new(1),
                backlog: VecDeque::new(),
                model: NodeModel::local_only(LOCAL_MISS),
                credit_waits: 0,
            })
            .collect();
        let qpair = QpairConfig::on_chip();
        provision_static(&config, &mut cluster, &qpair, &mut ScalarCrma, &mut servers);
        let mut fresh = mesh();
        let mut refused = 0;
        for (id, srv) in (0..fresh.len() as u16).zip(&servers) {
            match fresh.borrow_memory(NodeId(id), LENDABLE_PER_NODE) {
                Ok(lease) => {
                    let lat = measure_crma(&mut fresh, NodeId(id), lease.local_base);
                    assert_eq!(srv.model.remote_miss, lat, "node {id}");
                }
                Err(_) => {
                    assert!(!srv.model.has_remote(), "node {id}");
                    refused += 1;
                }
            }
        }
        assert_eq!(refused, 1);
    }

    #[test]
    fn earliest_slot_picks_the_minimum_and_the_lowest_index_on_a_tie() {
        let t = Time::from_ns;
        assert_eq!(earliest_slot(&[t(7)]), (0, t(7)));
        assert_eq!(earliest_slot(&[t(9), t(4), t(6), t(4)]), (1, t(4)));
        assert_eq!(earliest_slot(&[t(3), t(5), t(3), t(3)]), (0, t(3)));
        assert_eq!(earliest_slot(&[t(8), t(8), t(2)]), (2, t(2)));
        assert_eq!(earliest_slot(&[Time::ZERO; 8]), (0, Time::ZERO));
    }

    #[test]
    fn a_slab_request_is_48_bytes() {
        // The slab entry size the `Request`, `ReqAttrib` and
        // `fabric_detour` docs state.
        assert_eq!(std::mem::size_of::<Request>(), 48);
    }

    #[test]
    fn a_crash_dooms_only_the_live_requests_on_its_node() {
        let req = |seq: u64, node: u16| Request {
            seq,
            class: 0,
            user: 0,
            node,
            arrival: Time::ZERO,
            service: Time::ZERO,
            generation: 0,
            doomed: false,
        };
        let mut slab = RequestSlab::new();
        for (seq, node) in [(0, 1), (1, 2), (2, 1), (3, 1), (4, 2)] {
            slab.insert(req(seq, node));
        }
        // Slot 2 is freed and stays free; slot 0 is freed and reused by
        // a request on another node.
        slab.take(2);
        slab.take(0);
        assert_eq!(slab.insert(req(5, 2)), 0);
        slab.doom_live_on(1);
        let doomed: Vec<bool> = slab.entries.iter().map(|r| r.doomed).collect();
        assert_eq!(doomed, [false, false, false, true, false]);
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

    /// The kernel of one world owning every node of `config` under
    /// `plan`, handed the whole tape in one chunk and paused just before
    /// `at`: the arrival loop has issued every arrival before it and
    /// fired every event before it. Returns the next arrival with it.
    fn paused_before<P: Probe>(
        config: &LoadgenConfig,
        capture: bool,
        probe: P,
        plan: FaultPlan,
        at: Time,
    ) -> (
        EngineKernel<P, ScalarCrma, FaultPlan>,
        Option<(Time, TapeEntry)>,
    ) {
        let mut tape = Chunk::default();
        let draws = Stream::Drawn(ArrivalDraws::new(config));
        Filler::new(draws, config.nodes()).draw(0..config.requests, &mut tape);
        let (owned, requests) = (0..config.nodes(), config.requests);
        let world = World::new(config, capture, probe, ScalarCrma, plan, owned, requests);
        let mut kernel = start_world(world);
        kernel.state_mut().feed.chunks.push(Arc::new(tape));
        let mut next = next_owned_arrival(kernel.state_mut());
        while let Some(arrival) = next.filter(|&(t, _)| t < at) {
            issue_arrival(&mut kernel, arrival);
            next = next_owned_arrival(kernel.state_mut());
        }
        kernel.run_until(at - Time::from_ps(1));
        (kernel, next)
    }

    /// Runs a kernel paused by [`paused_before`] to the end of its run,
    /// issuing `next` first.
    fn resume<P: Probe>(
        mut kernel: EngineKernel<P, ScalarCrma, FaultPlan>,
        next: Option<(Time, TapeEntry)>,
    ) -> (World<P, ScalarCrma, FaultPlan>, EngineMetrics) {
        if let Some(arrival) = next {
            issue_arrival(&mut kernel, arrival);
        }
        run_arrivals(&mut kernel);
        kernel.run();
        finish_world(kernel)
    }

    #[test]
    fn backlog_counters_survive_sheds_and_crash_drains() {
        // The elastic family's bursty traffic with a 16-slot backlog,
        // node 0 crashing 100 ms into the third burst: bursts overflow
        // backlogs into backpressure sheds, and the crash drains a full
        // one. Debug builds audit `queued_by_class` against a recount at
        // every lease tick and at run end; here every counter must also
        // return to zero once the run drains.
        let crash_at = Time::from_ms(1_100);
        let config = LoadgenConfig {
            requests: 60_000,
            admission: AdmissionConfig {
                backlog_per_node: 16,
                ..AdmissionConfig::default()
            },
            ..crate::elastic::elastic_config(0xB4C)
        };
        let plan = FaultPlan::new(vec![FaultEvent::NodeCrash {
            node: 0,
            at: crash_at,
            recover_at: Time::from_ms(1_300),
        }]);
        let (mut kernel, next) = paused_before(&config, false, NoopProbe, plan, crash_at);
        let parked = kernel.state().servers[0].backlog.len();
        assert!(parked > 0, "node 0's backlog is empty at the crash");
        let shed_crash = |w: &World<NoopProbe, ScalarCrma, FaultPlan>| {
            w.stats
                .iter()
                .map(|st| st.lost[Loss::Crash as usize])
                .sum::<u64>()
        };
        let before = shed_crash(kernel.state());
        kernel.run_until(crash_at);
        assert!(kernel.state().servers[0].backlog.is_empty());
        assert!(shed_crash(kernel.state()) >= before + parked as u64);
        let (w, _) = resume(kernel, next);
        assert!(
            w.stats
                .iter()
                .any(|st| st.lost[Loss::Backpressure as usize] > 0),
            "no backlog overflowed"
        );
        assert!(w.servers.iter().all(|srv| srv.backlog.is_empty()));
        assert!(w.tables.queued.iter().all(|&n| n == 0));
        assert!(w.tables.inflight.iter().all(|&n| n == 0));
    }

    #[test]
    fn report_trace_and_probe_agree_on_every_loss() {
        // A policed, tightly capped mesh loses requests all four ways:
        // the rate policer and the in-flight cap turn arrivals away, a
        // short backlog overflows, and node 0 crashes with requests both
        // in service and backlogged. The report's counters, the trace's
        // outcomes and the attribution probe's shed slots are three
        // ledgers of the same losses; they must agree reason by reason,
        // per tenant and in total.
        let crash_at = Time::from_ms(3);
        let config = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson {
                rate_rps: 1_000_000.0,
            },
            requests: 6_000,
            admission: AdmissionConfig {
                rate_limit_rps: 800_000.0,
                max_inflight: 384,
                backlog_per_node: 8,
                ..AdmissionConfig::default()
            },
            ..LoadgenConfig::new(0x1055, TenantMix::web_frontend())
        };
        let plan = FaultPlan::new(vec![FaultEvent::NodeCrash {
            node: 0,
            at: crash_at,
            recover_at: crash_at + Time::from_ms(2),
        }]);
        let probe = AttribProbe::new(Time::from_ms(1), 64);
        let (kernel, next) = paused_before(&config, true, probe, plan, crash_at);
        let w = kernel.state();
        assert!(
            !w.servers[0].backlog.is_empty(),
            "node 0 has no backlog at the crash"
        );
        assert!(
            w.tables.inflight[w.tables.row(0)].iter().sum::<u32>() > 0,
            "node 0 has nothing in service at the crash"
        );
        let (report, trace, _, probe) = summarize(&config, vec![resume(kernel, next)]);
        let trace = trace.expect("traced");
        let fold = probe.attrib();
        let lost = |tenant: Option<u32>, loss: Loss| {
            let records = trace.records.iter();
            records
                .filter(|r| r.outcome == loss.outcome() && tenant.is_none_or(|t| r.tenant == t))
                .count() as u64
        };
        let losses = [
            (Loss::Rate, report.shed_rate),
            (Loss::Overload, report.shed_overload),
            (Loss::Backpressure, report.shed_backpressure),
            (Loss::Crash, report.shed_crash),
        ];
        let tenants = report.tenants.len() as u16;
        for (loss, reported) in losses {
            assert!(reported > 0, "nothing lost to {loss:?}");
            assert_eq!(lost(None, loss), reported, "{loss:?}: trace vs report");
            let probed: u64 = (0..tenants).map(|t| fold.sheds(t)[loss as usize]).sum();
            assert_eq!(probed, reported, "{loss:?}: probe vs report");
        }
        for (t, row) in report.tenants.iter().enumerate() {
            let sheds = fold.sheds(t as u16);
            for (loss, _) in losses {
                let traced = lost(Some(t as u32), loss);
                assert_eq!(traced, sheds[loss as usize], "{} {loss:?}", row.tenant);
            }
            assert_eq!(sheds.iter().sum::<u64>(), row.shed, "{}", row.tenant);
        }
        assert_eq!(report.issued, report.completed + report.shed_total());
    }

    #[test]
    fn a_finish_fires_before_an_arrival_at_its_instant_at_every_width() {
        // Node 0's first request finishes at the very instant of node 0's
        // next tape arrival. With an in-flight cap of one per node, that
        // arrival is admitted only if the finish fires first. One world
        // owning both nodes (the sequential run) and two shards owning
        // one node each must both fire it first and agree byte for byte,
        // and neither shard may report a violation: that is what makes
        // the sharded driver return `ExecPath::Sharded`.
        let config = LoadgenConfig {
            mesh: (2, 1, 1),
            requests: 3,
            admission: AdmissionConfig {
                max_inflight: 2,
                ..AdmissionConfig::default()
            },
            ..LoadgenConfig::new(0x71E, TenantMix::web_frontend())
        };
        let entry = |gap, user: u64| TapeEntry {
            gap,
            user,
            class: 0,
            node: (user % 2) as u16,
        };
        let shard = |capture, owned| {
            let world = World::new(&config, capture, NoopProbe, ScalarCrma, NoFaults, owned, 3);
            Shard::new(world)
        };
        let finish_at = {
            let mut world = shard(false, 0..2);
            let first = Chunk {
                entries: vec![entry(Time::ZERO, 0)],
            };
            world.advance(&[Arc::new(first)], false);
            let (at, _) = world.kernel.pending_time_span().expect("in service");
            at
        };
        let half = Time::from_ps(finish_at.as_ps() / 2);
        let tape = [Arc::new(Chunk {
            entries: vec![
                entry(Time::ZERO, 0),
                entry(half, 1),
                entry(finish_at - half, 0),
            ],
        })];
        // `width` worlds, splitting the two nodes evenly.
        let run = |width: u16| {
            let worlds = (0..width)
                .map(|i| {
                    let owned = i * 2 / width..(i + 1) * 2 / width;
                    let mut shard = shard(true, owned.clone());
                    shard.advance(&tape, true);
                    assert_eq!(shard.violation(), None, "nodes {owned:?}");
                    shard.finish()
                })
                .collect();
            let (report, trace, metrics, NoopProbe) = summarize(&config, worlds);
            (report, trace.expect("traced"), metrics.events)
        };
        let sequential = run(1);
        let at_finish = &sequential.1.records[2];
        assert_eq!((at_finish.seq, at_finish.node), (2, 0));
        assert_eq!(at_finish.outcome, RequestOutcome::Completed);
        assert_eq!(run(2), sequential);
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
}
