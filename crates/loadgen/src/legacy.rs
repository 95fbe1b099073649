//! The seed (PR 1–3) boxed-closure traffic engine, frozen as the
//! measured performance baseline and differential-testing oracle.
//!
//! This module is the pre-rewrite [`crate::engine`] preserved verbatim
//! on [`venice_sim::boxed`] — every event is a heap-allocated
//! `Box<dyn FnOnce>` closure popped from the original fat-entry
//! `BinaryHeap` queue, the per-tick `Vec` clones are kept, and `replay`
//! still clones its input trace. It exists for exactly two callers:
//!
//! * the `throughput` bench bin, which times [`run`] next to the typed
//!   engine on identical configurations and records both in
//!   `BENCH_perf.json` — the speedup claim is measured against the real
//!   predecessor, not a strawman; and
//! * the differential tests (`tests/prop_typed_vs_legacy.rs` and the
//!   bench bin's own report-equality gate), which pin the typed engine
//!   to **bit-identical** traces and reports against this code.
//!
//! Behavioral changes belong in [`crate::engine`]; if one is intentional
//! this baseline must be updated in lockstep or retired — the
//! differential gate fails loudly either way.

use std::collections::VecDeque;

use venice::cluster::Cluster;
use venice::NodeId;
use venice_lease::{LeaseAction, LeaseManager, NodeSignal, Priority, NO_TENANT};
use venice_sim::boxed::{Kernel, Scheduler};
use venice_sim::{LogHistogram, SimRng, Time};
use venice_transport::qpair::QpairError;
use venice_transport::{PathModel, QpairConfig, QueuePair};

use crate::admission::{AdmissionControl, Decision, ShedReason};
use crate::arrival::ArrivalProcess;
use crate::engine::LoadgenConfig;
use crate::report::{LeaseSummary, LoadReport, TenantReport};
use crate::stacks::RemoteStack;
use crate::tenants::{NodeModel, RequestProfile, TenantClass};
use crate::trace::{RequestOutcome, RequestRecord, Trace};

// # Seed-cost substrate
//
// The baseline's job is to measure the engine this PR replaced, and
// that engine's hot path also included substrate costs that have since
// been optimized *bit-identically* (a `powf` per zipf draw, an `fdiv`
// per uniform draw, a weight sum per class draw, per-request service
// model re-derivation). If the frozen engine silently inherited those
// improvements, the recorded baseline would understate the predecessor
// and the perf trajectory would under-report this PR's speedup. The
// helpers below therefore reproduce the seed's *instruction streams*
// while producing exactly the values the shared substrate produces
// today — an equivalence the typed-vs-legacy differential gates verify
// on every run, since any drift would break bit-identical reports.

/// The seed's uniform draw in `[0, 1)`: division by `2^53` (the shared
/// substrate now multiplies by the exact reciprocal — same bits).
#[inline(never)]
fn unit_seed(rng: &mut SimRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// The seed's Bernoulli draw (`SimRng::chance` before the reciprocal
/// rewrite).
fn chance_seed(rng: &mut SimRng, p: f64) -> bool {
    let p = p.clamp(0.0, 1.0);
    unit_seed(rng) < p
}

/// The seed's weighted class draw: the weight sum recomputed per call.
fn weighted_index_seed(rng: &mut SimRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(
        !weights.is_empty() && total > 0.0,
        "weights must be non-empty with positive sum"
    );
    let mut x = unit_seed(rng) * total;
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// The seed's exponential draw (`arrival::exponential` over the seed's
/// uniform).
fn exponential_seed(rng: &mut SimRng, mean: Time) -> Time {
    let u = unit_seed(rng).min(1.0 - 1e-12);
    mean.scale(-(1.0 - u).ln())
}

/// The seed's zipfian sampler: identical constants to
/// [`venice_workloads::ZipfSampler`], with the rank-1 threshold's `powf`
/// re-evaluated on every draw as the seed did.
struct SeedZipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl SeedZipf {
    fn zeta(n: u64, theta: f64) -> f64 {
        const EXACT: u64 = 100_000;
        if n <= EXACT {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=EXACT).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let a = EXACT as f64;
            let b = n as f64;
            head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
        }
    }

    fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        SeedZipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = unit_seed(rng);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// The seed's service-time evaluation: every node-state constant
/// re-derived per request (the typed engine compiles them per node and
/// invalidates on lease events instead).
fn service_time_seed(profile: &RequestProfile, rng: &mut SimRng, node: &NodeModel) -> Time {
    use venice_workloads::kv::CacheMemory;
    use venice_workloads::OltpWorkload;
    let base = match profile {
        RequestProfile::Kv {
            cache,
            capacity_bytes,
        } => {
            let memory = if node.has_remote() {
                CacheMemory::RemoteCrma(node.remote_miss)
            } else {
                CacheMemory::Local
            };
            let capacity = (cache.local_floor_bytes + node.remote_bytes).min(*capacity_bytes);
            if chance_seed(rng, cache.miss_rate(capacity)) {
                cache.backend_cost
            } else {
                cache.hit_time(capacity, memory)
            }
        }
        RequestProfile::Oltp {
            workload,
            remote_fraction,
        } => {
            let f = *remote_fraction * node.fill();
            workload
                .profile()
                .op_time_split(f, node.remote_miss, node.local_miss)
                * OltpWorkload::QUERIES_PER_TXN
        }
        RequestProfile::PageRank {
            kernel,
            edges_per_request,
            footprint_bytes,
            remote_fraction,
        } => {
            let f = *remote_fraction * node.fill();
            kernel
                .profile(*footprint_bytes)
                .op_time_split(f, node.remote_miss, node.local_miss)
                .scale(*edges_per_request as f64)
        }
        RequestProfile::Iperf { server_cpu, .. } => *server_cpu,
    };
    base.scale(0.9 + 0.2 * unit_seed(rng))
}

/// Local DRAM miss latency used for the non-borrowed tier.
const LOCAL_MISS: Time = Time::from_ns(100);

/// Tag value for "no tenant has driven a lease on this node yet"
/// (doubles as the lease manager's unattributed-tenant sentinel).
const NO_TAG: u32 = NO_TENANT;

/// One in-flight request (plain data so completion closures stay small).
#[derive(Debug, Clone, Copy)]
struct Request {
    seq: u64,
    class: u32,
    user: u64,
    node: u16,
    arrival: Time,
    service: Time,
    req_bytes: u64,
    resp_bytes: u64,
    /// Newest lease generation on the serving node at arrival.
    generation: u64,
}

/// Per-node server state.
struct Server {
    /// Edge-gateway → node messaging channel (finite credits).
    qp: QueuePair,
    /// Busy-until time of each service slot.
    slots: Vec<Time>,
    /// Requests waiting for a QPair credit.
    backlog: VecDeque<Request>,
    /// Measured latency context (mutated mid-run by elastic leases).
    model: NodeModel,
    /// Times a request found no credit and had to wait (or was shed).
    credit_waits: u64,
    /// Dispatched-but-not-finished requests per tenant class; together
    /// with the backlog this is the demand signal lease attribution
    /// reads (the grow trigger counts busy slots, so attribution must
    /// see in-service work too, not just the backlog).
    inflight_by_class: Vec<u32>,
}

/// Per-tenant accumulators.
struct Stats {
    hist: LogHistogram,
    bytes: u64,
    admitted: u64,
    shed_rate: u64,
    shed_overload: u64,
    shed_backpressure: u64,
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
        }
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
    leases: Vec<Vec<(u64, venice::MemoryLease)>>,
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
fn grow_lease(
    cluster: &mut Cluster,
    manager: &mut LeaseManager,
    now: Time,
    node: u16,
    tenant: u32,
    predictive: bool,
    priority: Priority,
) -> Option<(u64, venice::MemoryLease, Time)> {
    let chunk = manager.config().chunk_bytes;
    match cluster.borrow_memory(NodeId(node), chunk) {
        Ok(lease) => {
            let lat = measure_crma(cluster, NodeId(node), lease.local_base);
            let generation = manager.confirm_grow(now, node, tenant, predictive, priority);
            Some((generation, lease, lat))
        }
        Err(_) => {
            manager.deny_grow(now, node, tenant, priority);
            None
        }
    }
}

/// The simulated world threaded through every event.
struct World {
    /// Arrival-side randomness: interarrival gaps, tenant classes, users.
    /// Kept separate from `service_rng` so two runs with the same seed
    /// but different stacks/configs see the identical arrival stream
    /// even after their admission decisions diverge.
    rng: SimRng,
    /// Service-side randomness: cache hit/miss draws, service jitter.
    service_rng: SimRng,
    classes: Vec<TenantClass>,
    weights: Vec<f64>,
    zipf: SeedZipf,
    /// One admission controller per node.
    admissions: Vec<AdmissionControl>,
    servers: Vec<Server>,
    path: PathModel,
    stats: Vec<Stats>,
    issued: u64,
    target: u64,
    completed: u64,
    end: Time,
    arrival: ArrivalProcess,
    backlog_cap: usize,
    /// The composed cluster, kept live so elastic ticks can borrow and
    /// release against the real Monitor-Node flow mid-run.
    cluster: Cluster,
    /// Mesh adjacency (from the node agents) for locality-aware routing.
    neighbors: Vec<Vec<u16>>,
    elastic: Option<ElasticTier>,
    /// Per-request records when tracing.
    trace: Option<Vec<RequestRecord>>,
    /// Recorded arrivals to re-drive instead of drawing fresh traffic.
    replay: Option<VecDeque<RequestRecord>>,
}

impl World {
    /// Total admitted-but-not-completed requests across all nodes.
    fn total_inflight(&self) -> u32 {
        self.admissions.iter().map(|a| a.inflight()).sum()
    }
}

/// Open-loop arrival event: issue one request, schedule the next at the
/// process's instantaneous rate (constant for Poisson, phase-dependent
/// for bursty traffic).
fn open_arrival(w: &mut World, s: &mut Scheduler<World>) {
    let now = s.now();
    issue(w, s, now);
    if w.issued < w.target {
        let rate = w.arrival.rate_at(now).expect("open loop has a rate");
        let gap = exponential_seed(&mut w.rng, Time::from_secs_f64(1.0 / rate));
        s.schedule_in(gap, open_arrival);
    }
}

/// Replay arrival event: re-drive the next recorded request.
fn replay_arrival(w: &mut World, s: &mut Scheduler<World>) {
    let now = s.now();
    let Some(rec) = w.replay.as_mut().and_then(|q| q.pop_front()) else {
        return;
    };
    issue_with(w, s, now, rec.tenant as usize, rec.user);
    let next = w
        .replay
        .as_ref()
        .and_then(|q| q.front())
        .map(|r| Time::from_ns(r.at_ns));
    if let Some(at) = next {
        s.schedule_at(at.max(now), replay_arrival);
    }
}

/// Generates one request (tenant class + user) and runs it through
/// admission. During a bursty process's burst window, a `crowd_share`
/// fraction of arrivals comes from the flash-crowd population instead of
/// the mix's Zipf tail.
fn issue(w: &mut World, s: &mut Scheduler<World>, now: Time) {
    let class = weighted_index_seed(&mut w.rng, &w.weights);
    let user = if let ArrivalProcess::Bursty {
        crowd_users,
        crowd_share,
        ..
    } = w.arrival
    {
        if crowd_users > 0 && w.arrival.in_burst(now) && chance_seed(&mut w.rng, crowd_share) {
            w.rng.gen_range(0..crowd_users)
        } else {
            w.zipf.sample(&mut w.rng)
        }
    } else {
        w.zipf.sample(&mut w.rng)
    };
    issue_with(w, s, now, class, user);
}

/// Routes `user`'s request: home node by population hash, except that a
/// home node whose remote tier is empty defers to a mesh neighbor already
/// holding a lease driven by this tenant (locality: follow the memory).
fn route(w: &World, class: usize, user: u64) -> usize {
    let n = w.servers.len();
    let home = (user % n as u64) as usize;
    let Some(tier) = &w.elastic else {
        return home;
    };
    if w.servers[home].model.has_remote() {
        return home;
    }
    for &nb in &w.neighbors[home] {
        let nb = nb as usize;
        if tier.tags[nb] == class as u32 && w.servers[nb].model.has_remote() {
            return nb;
        }
    }
    home
}

/// Runs one generated request through per-node admission and dispatch.
fn issue_with(w: &mut World, s: &mut Scheduler<World>, now: Time, class: usize, user: u64) {
    let seq = w.issued;
    w.issued += 1;
    let node = route(w, class, user);
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
        }
        Decision::Admit => {
            w.stats[class].admitted += 1;
            let service = service_time_seed(
                &w.classes[class].profile,
                &mut w.service_rng,
                &w.servers[node].model,
            );
            let req = Request {
                seq,
                class: class as u32,
                user,
                node: node as u16,
                arrival: now,
                service,
                req_bytes: w.classes[class].profile.request_bytes(),
                resp_bytes: w.classes[class].profile.response_bytes(),
                generation,
            };
            dispatch(w, s, req);
        }
    }
}

/// Appends a trace record if tracing is on.
#[allow(clippy::too_many_arguments)]
fn record(
    w: &mut World,
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
/// backpressure.
fn dispatch(w: &mut World, s: &mut Scheduler<World>, req: Request) {
    let now = s.now();
    let node = req.node as usize;
    match w.servers[node].qp.post_send(req.req_bytes) {
        Ok(()) => {
            let lat = w.servers[node]
                .qp
                .message_latency(&w.path, req.req_bytes)
                .expect("request payloads are bounded");
            let deliver = now + lat;
            let slot = {
                let slots = &w.servers[node].slots;
                let mut best = 0;
                for (i, &t) in slots.iter().enumerate() {
                    if t < slots[best] {
                        best = i;
                    }
                }
                best
            };
            let start = deliver.max(w.servers[node].slots[slot]);
            let comp = start + req.service;
            w.servers[node].slots[slot] = comp;
            w.servers[node].inflight_by_class[req.class as usize] += 1;
            s.schedule_at(comp, move |w: &mut World, s| finish(w, s, req));
        }
        Err(QpairError::NoCredit) | Err(QpairError::QueueFull) => {
            w.servers[node].credit_waits += 1;
            if w.servers[node].backlog.len() < w.backlog_cap {
                w.servers[node].backlog.push_back(req);
            } else {
                // The node is saturated beyond its backlog: drop the
                // request and free its in-flight slot.
                w.stats[req.class as usize].shed_backpressure += 1;
                w.admissions[node].on_completion();
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
            }
        }
        Err(e) => unreachable!("unexpected qpair error: {e:?}"),
    }
}

/// Completion event: account the request, return the credit, and drain
/// the node's backlog.
fn finish(w: &mut World, s: &mut Scheduler<World>, req: Request) {
    let now = s.now();
    let latency = now - req.arrival;
    let st = &mut w.stats[req.class as usize];
    st.hist.record(latency);
    st.bytes += req.req_bytes + req.resp_bytes;
    w.completed += 1;
    if now > w.end {
        w.end = now;
    }
    let node = req.node as usize;
    w.admissions[node].on_completion();
    w.servers[node].inflight_by_class[req.class as usize] -= 1;
    record(
        w,
        req.seq,
        req.arrival,
        req.class as usize,
        req.user,
        node,
        RequestOutcome::Completed,
        latency,
        req.generation,
    );
    w.servers[node].qp.drain_one();
    w.servers[node].qp.credit_update(1);
    if let Some(next) = w.servers[node].backlog.pop_front() {
        dispatch(w, s, next);
    }
}

/// The tenant class with the most queued *and in-service* work on
/// `node` (ties to the lowest index), used to attribute a lease to the
/// tenant driving it. Must mirror the grow trigger's demand signal —
/// backlog plus busy slots — or grows fired by pure in-service pressure
/// would have no class to attribute to.
fn dominant_class(w: &World, node: usize) -> Option<usize> {
    let mut counts = w.servers[node].inflight_by_class.clone();
    for r in &w.servers[node].backlog {
        counts[r.class as usize] += 1;
    }
    let mut best: Option<usize> = None;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && best.map(|b| c > counts[b]).unwrap_or(true) {
            best = Some(i);
        }
    }
    best
}

/// Applies a donor-demanded revoke once its modeled teardown flow
/// completes: the grant is pulled back through the real Monitor–Node
/// path ([`Cluster::revoke`]), the manager's ledger is repaid, and the
/// recipient's visible capacity drops. Until this fires the recipient
/// keeps serving from the window — a revoke notice takes effect when the
/// unmap lands, not when the donor asks.
#[allow(clippy::too_many_arguments)]
fn apply_revoke(
    w: &mut World,
    now: Time,
    donor: u16,
    recipient: usize,
    generation: u64,
    lease: venice::MemoryLease,
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
}

/// Periodic elastic-lease control tick: sample per-node queue depth and
/// donor pressure, let the manager decide, and apply
/// grows/shrinks/revokes against the live cluster.
fn lease_tick(w: &mut World, s: &mut Scheduler<World>) {
    // A tick scheduled while the last requests were in flight can fire
    // after the final completion; acting there would put lease events
    // past the report's duration (skewing the time-weighted mean), so a
    // finished run's trailing tick is a no-op.
    if w.issued >= w.target && w.total_inflight() == 0 {
        return;
    }
    let now = s.now();
    // Chunks each node has lent out, from the cluster's live ledger
    // (includes grants still in their recipient-side establish flow —
    // the donor's memory is committed either way).
    let mut lent = vec![0u32; w.servers.len()];
    for lease in w.cluster.active_leases() {
        lent[lease.donor.0 as usize] += 1;
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
                // The frozen baseline predates the donor-pressure term;
                // the manager ignores this field at weight 0, the only
                // regime the oracle is ever run in.
                lent_pressure: 0.0,
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
                let tenant = signals[node as usize].tenant;
                let priority = signals[node as usize].priority;
                let tier = w.elastic.as_mut().expect("checked above");
                if let Some((generation, lease, lat)) = grow_lease(
                    &mut w.cluster,
                    &mut tier.manager,
                    now,
                    node,
                    tenant,
                    predictive,
                    priority,
                ) {
                    // The Fig 2 establish flow takes real time (tens of
                    // milliseconds for a 64 MB window): the borrowed
                    // capacity must not serve requests before the flow
                    // completes, or the elastic-vs-static comparison
                    // would credit elastic with instant provisioning.
                    let class_tag = (tenant != NO_TAG).then_some(tenant);
                    s.schedule_in(lease.setup_time, move |w: &mut World, _| {
                        let tier = w.elastic.as_mut().expect("elastic run");
                        tier.leases[node as usize].push((generation, lease));
                        if let Some(c) = class_tag {
                            tier.tags[node as usize] = c;
                        }
                        let model = &mut w.servers[node as usize].model;
                        model.remote_bytes += lease.bytes;
                        model.remote_miss = lat;
                    });
                }
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
                s.schedule_in(teardown, move |w: &mut World, s| {
                    apply_revoke(w, s.now(), donor, recipient, generation, lease, priority);
                });
            }
            LeaseAction::Sublease { .. } => {
                unreachable!(
                    "the frozen baseline predates the sublease market and \
                     is never run with it armed"
                );
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
        s.schedule_in(interval, lease_tick);
    }
}

/// Runs one complete load-generation experiment.
///
/// # Panics
///
/// Panics if the configuration is internally inconsistent (zero requests,
/// zero concurrency, an empty mesh, or elastic leases on a stack without
/// hot-plug support).
pub fn run(config: &LoadgenConfig) -> LoadReport {
    run_core(config, None, false).0
}

/// Runs one experiment and captures the per-request [`Trace`].
///
/// # Panics
///
/// As [`run`].
pub fn run_traced(config: &LoadgenConfig) -> (LoadReport, Trace) {
    let (report, trace) = run_core(config, None, true);
    (report, trace.expect("tracing was requested"))
}

/// Re-drives a recorded trace through the engine: arrival instants,
/// tenant classes, and users come from `trace`; admission, routing,
/// service, and (if configured) elastic leasing run live under `config`.
/// `config.arrival` and `config.requests` are ignored.
///
/// # Panics
///
/// Panics if `trace` is empty or names a tenant index outside the
/// configured mix, or as [`run`].
pub fn replay(config: &LoadgenConfig, trace: &Trace) -> LoadReport {
    assert!(!trace.is_empty(), "cannot replay an empty trace");
    let classes = config.mix.classes.len() as u32;
    if let Some(bad) = trace.records.iter().find(|r| r.tenant >= classes) {
        panic!(
            "trace record seq {} names tenant {} but mix `{}` has only {} classes",
            bad.seq, bad.tenant, config.mix.name, classes
        );
    }
    run_core(config, Some(trace.clone()), false).0
}

fn run_core(
    config: &LoadgenConfig,
    replay_trace: Option<Trace>,
    capture: bool,
) -> (LoadReport, Option<Trace>) {
    assert!(config.requests > 0, "need at least one request");
    assert!(config.per_node_concurrency > 0, "need at least one slot");
    config.arrival.validate();
    let (dx, dy, dz) = config.mesh;
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

    // 1. Build the cluster; record mesh adjacency for locality routing.
    let mut cluster = Cluster::mesh(dx, dy, dz, 1 << 30, 512 << 20);
    let n = cluster.len();
    let neighbors: Vec<Vec<u16>> = cluster
        .nodes
        .iter()
        .map(|node| node.agent.neighbors.iter().map(|id| id.0).collect())
        .collect();

    // 2. Build the per-node transport and measure each stack's per-miss
    //    latency ingredients (a 64 B QPair message for the soNUMA-style
    //    stack; CRMA reads are measured at borrow time).
    let gateway = NodeId(0);
    let path = cluster.path.clone();
    let mut qpair_lat = Vec::with_capacity(n);
    let mut qps = Vec::with_capacity(n);
    for i in 0..n as u16 {
        let mut qp = QueuePair::new(gateway, NodeId(i), QpairConfig::on_chip());
        qpair_lat.push(
            qp.message_latency(&path, 64)
                .expect("64 B control message fits any qpair"),
        );
        qps.push(qp);
    }

    // 3. Provision the remote tier.
    let mut remote_leases = 0u64;
    let mut borrow_failures = 0u64;
    let mut models = Vec::with_capacity(n);
    let mut elastic: Option<ElasticTier> = None;
    match (&config.lease, config.stack) {
        (Some(lease_config), RemoteStack::VeniceCrma) => {
            // Elastic: bootstrap every node to the lease floor through the
            // real borrow flow; the lease_tick event grows/shrinks from
            // there.
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
                    lendable_bytes: 0,
                    lent_slowdown: 0.0,
                });
            }
            let mut tier = ElasticTier {
                tags: vec![NO_TAG; n],
                leases: vec![Vec::new(); n],
                manager: LeaseManager::with_quotas(*lease_config, n as u16, config.mix.quotas()),
                over_quota: vec![false; config.mix.classes.len()],
            };
            let boot = tier.manager.bootstrap();
            for action in boot {
                let LeaseAction::Grow { node, .. } = action else {
                    unreachable!("bootstrap only grows");
                };
                // A refused bootstrap grow is already recorded by
                // grow_lease as a manager denial (lease.denials);
                // borrow_failures stays a static-provisioning counter so
                // the two never double-count. Bootstrap capacity is
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
                ) {
                    // Setup-time provisioning is visible immediately
                    // (the run starts after setup, like the static
                    // path).
                    tier.leases[node as usize].push((generation, lease));
                    let model = &mut models[node as usize];
                    model.remote_bytes += lease.bytes;
                    model.remote_miss = lat;
                    remote_leases += 1;
                }
            }
            elastic = Some(tier);
        }
        (None, RemoteStack::VeniceCrma) => {
            // Static: the PR 1 one-shot provisioning path.
            for id in 0..n as u16 {
                let model = if config.remote_memory_per_node > 0 {
                    match cluster.borrow_memory(NodeId(id), config.remote_memory_per_node) {
                        Ok(lease) => {
                            let lat = measure_crma(&mut cluster, NodeId(id), lease.local_base);
                            remote_leases += 1;
                            NodeModel {
                                local_miss: LOCAL_MISS,
                                remote_miss: lat,
                                remote_bytes: lease.bytes,
                                full_bytes: lease.bytes,
                                lent_bytes: 0,
                                lendable_bytes: 0,
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
        (None, stack) => {
            // A baseline stack: a static remote partition reached through
            // the commodity path's per-miss cost — no Monitor-Node flow,
            // no hot-plug, identical traffic.
            for &qp_lat in &qpair_lat {
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
        (Some(_), _) => unreachable!("asserted above"),
    }

    // 4. Assemble the world.
    let servers: Vec<Server> = qps
        .into_iter()
        .zip(&models)
        .map(|(qp, &model)| Server {
            qp,
            slots: vec![Time::ZERO; config.per_node_concurrency as usize],
            backlog: VecDeque::new(),
            model,
            credit_waits: 0,
            inflight_by_class: vec![0; config.mix.classes.len()],
        })
        .collect();
    let mut rng = SimRng::seed(config.seed);
    let engine_rng = rng.fork(0x10AD);
    let service_rng = rng.fork(0x5E41);
    let target = replay_trace
        .as_ref()
        .map(|t| t.len() as u64)
        .unwrap_or(config.requests);
    let world = World {
        rng: engine_rng,
        service_rng,
        classes: config.mix.classes.clone(),
        weights: config.mix.weights(),
        zipf: SeedZipf::new(config.mix.users, config.mix.skew),
        admissions: (0..n)
            .map(|_| AdmissionControl::per_node(config.admission, n as u32))
            .collect(),
        servers,
        path,
        stats: (0..config.mix.classes.len())
            .map(|_| Stats::new())
            .collect(),
        issued: 0,
        target,
        completed: 0,
        end: Time::ZERO,
        arrival: config.arrival,
        backlog_cap: config.admission.backlog_per_node,
        cluster,
        neighbors,
        elastic,
        trace: capture.then(Vec::new),
        replay: replay_trace.map(|t| t.records.into()),
    };

    // 5. Seed the event queue and run to completion.
    let mut kernel = Kernel::new(world).with_event_limit(target.saturating_mul(8) + 500_000);
    if kernel.state().replay.is_some() {
        let first = kernel.state().replay.as_ref().and_then(|q| q.front());
        let at = first.map(|r| Time::from_ns(r.at_ns)).unwrap_or(Time::ZERO);
        kernel.schedule(at, replay_arrival);
    } else {
        kernel.schedule(Time::ZERO, open_arrival);
    }
    if kernel.state().elastic.is_some() {
        let interval = kernel
            .state()
            .elastic
            .as_ref()
            .expect("checked above")
            .manager
            .config()
            .tick_interval;
        kernel.schedule(interval, lease_tick);
    }
    kernel.run();

    // 6. Summarize.
    let w = kernel.into_state();
    let duration = w.end;
    let mut total_hist = LogHistogram::new();
    let mut total_bytes = 0u64;
    let mut admitted = 0u64;
    let (mut shed_rate, mut shed_overload, mut shed_backpressure) = (0u64, 0u64, 0u64);
    let mut tenants = Vec::with_capacity(w.classes.len());
    for (class, st) in w.classes.iter().zip(&w.stats) {
        total_hist.merge(&st.hist);
        total_bytes += st.bytes;
        admitted += st.admitted;
        shed_rate += st.shed_rate;
        shed_overload += st.shed_overload;
        shed_backpressure += st.shed_backpressure;
        tenants.push(TenantReport::from_stats(
            class.name.clone(),
            &st.hist,
            st.admitted,
            st.shed_rate + st.shed_overload + st.shed_backpressure,
            st.bytes,
            duration,
        ));
    }
    let total = TenantReport::from_stats(
        "all",
        &total_hist,
        admitted,
        shed_rate + shed_overload + shed_backpressure,
        total_bytes,
        duration,
    );
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
                // The frozen oracle predates fault injection and never
                // fails over; the field exists so its report shape
                // mirrors the typed engine's.
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
                denials: borrow_failures,
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
    let report = LoadReport {
        mix: config.mix.name.clone(),
        seed: config.seed,
        nodes: n as u16,
        duration,
        issued: w.issued,
        admitted,
        completed: w.completed,
        shed_rate,
        shed_overload,
        shed_backpressure,
        // The frozen oracle predates fault injection: no plan, no
        // crash losses, ever.
        shed_crash: 0,
        credit_waits: w.servers.iter().map(|s| s.credit_waits).sum(),
        remote_leases,
        borrow_failures,
        lease,
        total,
        tenants,
    };
    (report, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenants::TenantMix;
    use venice_lease::LeaseConfig;

    fn small(seed: u64) -> LoadgenConfig {
        LoadgenConfig {
            requests: 3_000,
            ..LoadgenConfig::new(seed, TenantMix::web_frontend())
        }
    }

    // The full behavioral suite lives on the typed engine in
    // `crate::engine`; these smoke tests only guard the oracle itself —
    // if the frozen baseline stops conserving requests or replaying
    // deterministically, every differential result is meaningless.

    #[test]
    fn legacy_runs_complete_and_conserve_requests() {
        let r = run(&small(1));
        assert_eq!(r.issued, 3_000);
        assert_eq!(r.issued, r.admitted + r.shed_rate + r.shed_overload);
        assert_eq!(r.admitted, r.completed + r.shed_backpressure);
        assert!(r.completed > 0);
    }

    #[test]
    fn legacy_identical_seeds_replay_identically() {
        let a = run(&small(42));
        let b = run(&small(42));
        assert_eq!(a, b);
        let c = run(&small(43));
        assert_ne!(a, c);
    }

    #[test]
    fn legacy_elastic_run_is_deterministic() {
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
        assert!(r.lease.grows > 8, "elastic tier never grew past bootstrap");
        assert_eq!(r, run(&config), "legacy elastic run not deterministic");
    }
}
