//! The lease and fault control plane: the Venice sharing protocol
//! driven through the engine's world.
//!
//! A recipient borrows through the Monitor Node, the establish flow
//! makes the chunk visible, and a shrink, a donor's revoke or a crash
//! returns it (paper Fig 2). The periodic lease tick ([`lease_tick`])
//! and the fault tick ([`fault_tick`]) decide; every decision then runs
//! through exactly one function per tier transition:
//!
//! | transition | function |
//! |---|---|
//! | borrow and confirm a chunk | [`grow_lease`] |
//! | start a mid-run grow (tick grows, subleases, failover re-grows) | [`start_grow`] |
//! | land a chunk (establish completes, or setup) | [`land`] |
//! | lose a visible chunk (shrink, revoke, crash) | [`lose_chunk`] |
//! | write off a grant without a teardown | [`write_off`] |
//! | shed a request to its node's crash | [`crash_shed`] |
//!
//! plus [`World::tag_priority`] for the priority a tenant tag carries.
//! A change to one transition therefore touches one place. As a child
//! of [`crate::engine`] the module reads the world's private fields
//! directly.

use std::mem;

use venice::cluster::Cluster;
use venice::{MemoryLease, NodeId};
use venice_lease::{LeaseAction, LeaseManager, NodeSignal, Priority};
use venice_sim::Time;
use venice_telemetry::{Probe, SpanKind};

use super::{record, EngineEvent, Request, Sched, Server, World, LENDABLE_PER_NODE, NO_TAG};
use crate::faults::{FaultModel, FaultTransition};
use crate::remote::RemoteModel;
use crate::trace::RequestOutcome;

/// Elastic-tier state threaded through lease ticks.
pub(super) struct ElasticTier {
    pub(super) manager: LeaseManager,
    /// Tenant class whose backlog drove each node's newest lease.
    pub(super) tags: Vec<u32>,
    /// Each node's *visible* leases (generation, lease), oldest first.
    /// A mid-run grow joins only after its Fig 2 establish flow
    /// completes; shrinks pop from this stack, so an in-flight grow can
    /// never be released before it lands. Revokes may remove from the
    /// middle (the donor demands *its* newest grant, not the
    /// recipient's newest borrow).
    pub(super) leases: Vec<Vec<(u64, MemoryLease)>>,
    /// Per-class quota flags refreshed each lease tick: `true` while the
    /// class's ledger sits at its byte quota, which collapses its
    /// admission share (over-quota tenants shed first).
    pub(super) over_quota: Vec<bool>,
    /// Each lease tick's per-node signals and lent bytes, kept between
    /// ticks so a tick reuses their capacity instead of allocating.
    pub(super) signals: Vec<NodeSignal>,
    pub(super) lent_bytes: Vec<u64>,
}

impl ElasticTier {
    /// The newest visible lease generation on `node` (0 = none).
    pub(super) fn newest_generation(&self, node: usize) -> u64 {
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

/// Payload of [`EngineEvent::LeaseEstablished`].
pub(super) struct LeaseEstablish {
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
pub(super) struct RevokeTeardown {
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

impl<P: Probe, M: RemoteModel, F: FaultModel> World<'_, P, M, F> {
    /// The priority a lease decision attributed to `tag` carries: the
    /// tenant class's priority, or `Normal` for unattributed capacity
    /// ([`NO_TAG`]).
    fn tag_priority(&self, tag: u32) -> Priority {
        if tag == NO_TAG {
            Priority::Normal
        } else {
            self.classes[tag as usize].priority
        }
    }
}

/// Warms the TLTLB with a throwaway read, then measures the steady-state
/// CRMA read latency of a freshly mapped window — the cold first access
/// pays a one-time translation-miss penalty that must not be charged to
/// every request. The single measurement protocol for static and elastic
/// provisioning alike.
pub(super) fn measure_crma(cluster: &mut Cluster, node: NodeId, local_base: u64) -> Time {
    cluster
        .crma_read(node, local_base + 64)
        .expect("freshly mapped window is readable");
    cluster
        .crma_read(node, local_base + 64)
        .expect("freshly mapped window is readable")
}

/// Provisions every node's lease floor at setup: each chunk borrows
/// through [`grow_lease`] exactly as a mid-run grow does and lands at
/// once — setup happens before the clock runs, so bootstrap capacity
/// serves from t = 0 with no establish phase, like the static path.
///
/// A refused bootstrap grow is already recorded by [`grow_lease`] as a
/// manager denial (`lease.denials`); `borrow_failures` stays a
/// static-provisioning counter so the two never double-count. Bootstrap
/// capacity is unattributed: no tenant's backlog asked for it, so no
/// tenant's quota pays for it. Every fabric window is still empty, so
/// even congestion-aware placement accepts the nearest donor here.
pub(super) fn bootstrap<P: Probe, M: RemoteModel, F: FaultModel>(w: &mut World<'_, P, M, F>) {
    let boot = w.elastic.as_ref().expect("elastic run").manager.bootstrap();
    for action in boot {
        let LeaseAction::Grow { node, .. } = action else {
            unreachable!("bootstrap only grows");
        };
        if let Some(est) = grow_lease(w, Time::ZERO, node, NO_TAG, false, None) {
            land(w, Time::ZERO, &est);
            w.remote_leases += 1;
        }
    }
}

/// Borrows one chunk for `node` through the Monitor-Node flow, measures
/// its CRMA latency, confirms it with the manager, and bumps the donor's
/// lent pressure (its memory is committed at borrow time, even though
/// the recipient's visibility waits on the establish flow). Returns the
/// chunk ready to land, as an ordinary grow; on refusal records the
/// denial and returns `None`. Setup ([`bootstrap`]) and mid-run grows
/// ([`start_grow`]) share it, so the borrow/measure/confirm protocol
/// cannot drift apart — the two callers differ only in *when* the
/// capacity becomes visible.
///
/// With `lessor` set the chunk is a market match: the manager confirms
/// it as a sublease and the cluster annotates the grant with the
/// lessor→tenant chain, so the two ledgers can be reconciled at end of
/// run.
///
/// Placement vetoes are threaded into the Monitor Node's handshake
/// ([`Cluster::borrow_memory_filtered`]): a vetoed donor is consumed
/// from the candidate set and the retry loop falls through to the
/// next-nearest one. Under congestion-aware placement the fabric model
/// vetoes donors whose node↔donor path is currently backlogged; with a
/// fault plan armed, dead nodes are vetoed unconditionally — a crashed
/// donor cannot map memory.
fn grow_lease<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    now: Time,
    node: u16,
    tenant: u32,
    predictive: bool,
    lessor: Option<u32>,
) -> Option<LeaseEstablish> {
    let priority = w.tag_priority(tenant);
    // 2021-edition closures capture the `remote` and `faults` fields
    // alone, so these shared borrows coexist with the mutable
    // cluster/manager borrows below.
    let donor_ok =
        |d: NodeId| (!F::ENABLED || w.faults.node_up(d.0)) && w.remote.donor_ok(now, node, d.0);
    let manager = &mut w.elastic.as_mut().expect("elastic run").manager;
    let chunk = manager.config().chunk_bytes;
    let Ok(lease) = w
        .cluster
        .borrow_memory_filtered(NodeId(node), chunk, donor_ok)
    else {
        manager.deny_grow(now, node, tenant, priority);
        return None;
    };
    let lat = measure_crma(&mut w.cluster, NodeId(node), lease.local_base);
    let generation = match lessor {
        Some(lessor) => {
            let generation = manager.confirm_sublease(now, node, tenant, lessor, priority);
            w.cluster
                .mark_sublease(lease.grant_id, lessor, tenant)
                .expect("fresh grant accepts its sublease chain");
            generation
        }
        None => manager.confirm_grow(now, node, tenant, predictive, priority),
    };
    sync_donor_pressure(w, lease.donor.0);
    Some(LeaseEstablish {
        node,
        generation,
        lease,
        class_tag: tenant,
        lat,
        failover_of: 0,
    })
}

/// Starts a mid-run grow for `node` on behalf of `tenant`: borrow
/// through [`grow_lease`], then schedule the Fig 2 establish completion
/// — the borrowed capacity must not serve requests before the flow
/// completes, or the elastic-vs-static comparison would credit elastic
/// with instant provisioning. The one path for the lease tick's `Grow`
/// and `Sublease` decisions (`lessor` marks a market match) and for a
/// failover's replacement (`failover_of` names the lost generation).
///
/// A crashed recipient borrows nothing while it is down: the decision
/// is dropped, the way a `Shrink` with nothing visible is surrendered,
/// and the first tick after the reboot re-grows its floor. Without this
/// the manager's floor rule would re-grow the dead node every cooldown,
/// holding donor memory for each establish flow only to write it off.
fn start_grow<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
    node: u16,
    tenant: u32,
    predictive: bool,
    lessor: Option<u32>,
    failover_of: u64,
) {
    if F::ENABLED && !w.faults.node_up(node) {
        return;
    }
    let now = s.now();
    let Some(est) = grow_lease(w, now, node, tenant, predictive, lessor) else {
        return;
    };
    let est = LeaseEstablish { failover_of, ..est };
    let generation = est.generation;
    s.schedule_event_in(
        est.lease.setup_time,
        EngineEvent::LeaseEstablished(Box::new(est)),
    );
    if P::ENABLED {
        w.probe
            .span_open(SpanKind::Establish, node, generation, now);
    }
    if P::ATTRIB {
        w.pending_grows[node as usize] += 1;
    }
}

/// A mid-run grow's Fig 2 establish flow completes: the chunk lands —
/// unless an end of the handshake died mid-flow.
pub(super) fn lease_established<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
    est: LeaseEstablish,
) {
    let (node, generation, lease) = (est.node, est.generation, est.lease);
    if P::ATTRIB {
        w.pending_grows[node as usize] -= 1;
    }
    let now = s.now();
    if P::ENABLED {
        w.probe
            .span_close(SpanKind::Establish, node, generation, now);
    }
    // The Fig 2 handshake needs both ends alive when it lands: if
    // either died mid-flow, the grant is lost — ledgers unwind without
    // a teardown (no one is left to run one) and the chunk never
    // becomes visible. A crash window the flow straddled entirely
    // (crash *and* recovery before landing) leaves the grant intact.
    if F::ENABLED && (!w.faults.node_up(lease.donor.0) || !w.faults.node_up(node)) {
        write_off(w, now, node, generation, lease, Priority::Normal);
        sync_donor_pressure(w, lease.donor.0);
        return;
    }
    land(w, now, &est);
    if P::ENABLED && F::ENABLED && est.failover_of != 0 {
        // The replacement chunk is live: the recipient's degraded
        // window ends here.
        w.probe
            .span_close(SpanKind::Failover, node, est.failover_of, now);
    }
}

/// Makes a borrowed chunk visible on its recipient at `now`: onto the
/// recipient's lease stack, into its remote tier and service model, and
/// onto its fabric route.
fn land<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    now: Time,
    est: &LeaseEstablish,
) {
    let node = est.node as usize;
    let tier = w.elastic.as_mut().expect("elastic run");
    tier.leases[node].push((est.generation, est.lease));
    if est.class_tag != NO_TAG {
        tier.tags[node] = est.class_tag;
    }
    let model = &mut w.servers[node].model;
    model.remote_bytes += est.lease.bytes;
    model.remote_miss = est.lat;
    recompile_service(w, node);
    sync_fabric_route(w, node);
    if P::ENABLED {
        w.probe
            .span_open(SpanKind::Active, est.node, est.generation, now);
    }
}

/// Takes a visible chunk's capacity away from `recipient` — its remote
/// tier, service model and fabric route shrink — and repays the donor's
/// pool, which speeds the donor back up when lending pressure is
/// modeled. The caller has already settled the grant's ledgers.
fn lose_chunk<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    recipient: usize,
    lease: MemoryLease,
) {
    let model = &mut w.servers[recipient].model;
    model.remote_bytes = model.remote_bytes.saturating_sub(lease.bytes);
    recompile_service(w, recipient);
    sync_fabric_route(w, recipient);
    sync_donor_pressure(w, lease.donor.0);
}

/// Writes a grant off without a teardown handshake, because an end of it
/// is dead: the cluster purges it and the manager unwinds its ledgers as
/// a failover. No latency is charged and no unmap runs.
fn write_off<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    now: Time,
    recipient: u16,
    generation: u64,
    lease: MemoryLease,
    priority: Priority,
) {
    w.cluster
        .purge(lease.grant_id)
        .expect("a written-off grant is still on the cluster ledger");
    w.elastic
        .as_mut()
        .expect("elastic run")
        .manager
        .confirm_failover(now, lease.donor.0, recipient, generation, priority);
}

/// A donor-demanded revoke's modeled teardown flow completes: the grant
/// is pulled back through the real Monitor–Node path
/// ([`Cluster::revoke`]), the manager's ledger is repaid, and the
/// recipient's visible capacity drops. Until this fires the recipient
/// keeps serving from the window — a revoke notice takes effect when the
/// unmap lands, not when the donor asks.
pub(super) fn revoke_torndown<'a, P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'a, P, M, F>,
    s: &mut Sched<'a, P, M, F>,
    rev: RevokeTeardown,
) {
    let RevokeTeardown {
        donor,
        recipient,
        generation,
        lease,
        priority,
    } = rev;
    let now = s.now();
    if F::ENABLED && (!w.faults.node_up(donor) || !w.faults.node_up(recipient)) {
        // A teardown handshake cannot execute against a dead end: the
        // chunk is written off as a failover instead.
        write_off(w, now, recipient, generation, lease, priority);
    } else {
        w.cluster
            .revoke(NodeId(donor), lease.grant_id)
            .expect("revoked lease releases cleanly");
        w.elastic
            .as_mut()
            .expect("elastic run")
            .manager
            .confirm_revoke(now, donor, recipient, generation, priority);
    }
    lose_chunk(w, recipient as usize, lease);
    if P::ENABLED {
        w.probe
            .span_close(SpanKind::Teardown, recipient, generation, now);
        w.probe
            .span_close(SpanKind::Active, recipient, generation, now);
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

/// Recompiles every tenant class's service model against `node`'s
/// current [`NodeModel`](crate::tenants::NodeModel). Called wherever a
/// node's remote tier or lent pressure moves — rare events, so the
/// per-request path never re-derives model constants.
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

/// The tenant class with the most queued *and in-service* work on
/// `srv` (ties to the lowest index), used to attribute a lease to the
/// tenant driving it. Must mirror the grow trigger's demand signal —
/// backlog plus busy slots — or grows fired by pure in-service pressure
/// would have no class to attribute to.
///
/// Reads only the per-class counters (`inflight_by_class` plus
/// `queued_by_class`), so a tick costs O(classes) per node whatever
/// the backlog depth.
fn dominant_class(srv: &Server) -> Option<usize> {
    let mut best: Option<(usize, u32)> = None;
    let counts = srv.inflight_by_class.iter().zip(&srv.queued_by_class);
    for (class, (&inflight, &queued)) in counts.enumerate() {
        let count = inflight + queued;
        if count > 0 && best.map(|(_, b)| count > b).unwrap_or(true) {
            best = Some((class, count));
        }
    }
    best.map(|(class, _)| class)
}

/// Periodic elastic-lease control tick: sample per-node queue depth and
/// donor pressure, let the manager decide, and apply
/// grows/shrinks/revokes against the live cluster.
pub(super) fn lease_tick<'a, P: Probe, M: RemoteModel, F: FaultModel>(
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
    #[cfg(debug_assertions)]
    w.audit_queued();
    let now = s.now();
    // The signal and lent-bytes buffers live in the tier between ticks;
    // taking them out lets the grow path borrow the world mutably while
    // the signals stay readable, and they go back before returning.
    let tier = w.elastic.as_mut().expect("lease tick without elastic tier");
    let mut signals = mem::take(&mut tier.signals);
    let mut lent_bytes = mem::take(&mut tier.lent_bytes);
    signals.clear();
    signals.extend(w.servers.iter().map(|srv| {
        let busy = srv.slots.iter().filter(|&&t| t > now).count();
        let tenant = dominant_class(srv).map(|c| c as u32).unwrap_or(NO_TAG);
        NodeSignal {
            depth: (srv.backlog.len() + busy) as u32,
            lent_chunks: 0,
            lent_pressure: 0.0,
            tenant,
            priority: w.tag_priority(tenant),
        }
    }));
    // Chunks and bytes each node has lent out, from one pass over the
    // cluster's live ledger (includes grants still in their
    // recipient-side establish flow — the donor's memory is committed
    // either way).
    lent_bytes.clear();
    lent_bytes.resize(w.servers.len(), 0);
    for lease in w.cluster.active_leases() {
        signals[lease.donor.0 as usize].lent_chunks += 1;
        lent_bytes[lease.donor.0 as usize] += lease.bytes;
    }
    for (signal, &bytes) in signals.iter_mut().zip(&lent_bytes) {
        signal.lent_pressure = (bytes as f64 / LENDABLE_PER_NODE as f64).min(1.0);
    }
    let tier = w.elastic.as_mut().expect("checked above");
    let actions = tier.manager.tick(now, &signals);
    for action in actions {
        match action {
            LeaseAction::Grow { node, predictive } => {
                let tenant = signals[node as usize].tenant;
                start_grow(w, s, node, tenant, predictive, None, 0);
            }
            // A market match borrows through the identical flow; it
            // differs only in whose quota the confirm charges.
            LeaseAction::Sublease { node, lessor } => {
                let tenant = signals[node as usize].tenant;
                start_grow(w, s, node, tenant, false, Some(lessor), 0);
            }
            LeaseAction::Shrink { node } => {
                let tier = w.elastic.as_ref().expect("checked above");
                let priority = w.tag_priority(tier.tags[node as usize]);
                // Only a *visible* lease can be released — a grow still
                // in its establish flow is not on the stack yet, and a
                // revoke-pending chunk is already off this stack. The
                // popped lease's generation names the chunk for the
                // manager: its own newest may be the revoke-pending one.
                // When nothing is visible (the node's only chunks are
                // still establishing) the decision is surrendered: the
                // manager keeps its chunk count and a later calm spell
                // re-triggers the release.
                let tier = w.elastic.as_mut().expect("checked above");
                let Some((generation, lease)) = tier.leases[node as usize].pop() else {
                    continue;
                };
                w.cluster
                    .release(lease)
                    .expect("visible lease releases cleanly");
                tier.manager.confirm_shrink(now, node, generation, priority);
                lose_chunk(w, node as usize, lease);
                if P::ENABLED {
                    w.probe.span_close(SpanKind::Active, node, generation, now);
                }
            }
            LeaseAction::Revoke { donor } => {
                // The pressured donor demands its newest *visible* lent
                // chunk back. A grant still establishing on its
                // recipient cannot be torn down mid-flow: the demand is
                // denied — on the timeline, since the revoke cooldown
                // was already charged — and donor pressure re-triggers
                // it once something lands.
                let tier = w.elastic.as_mut().expect("checked above");
                let priority = signals[donor as usize].priority;
                let Some((recipient, idx, generation)) = tier.newest_visible_from(donor) else {
                    tier.manager.deny_revoke(now, donor, priority);
                    continue;
                };
                // Off the visible stack immediately — the recipient may
                // not release (or double-revoke) a chunk already being
                // reclaimed — but the capacity and the ledger move only
                // when the modeled teardown flow completes.
                let (_, lease) = tier.leases[recipient].remove(idx);
                let recipient = recipient as u16;
                s.schedule_event_in(
                    w.cluster.flow.teardown(lease.bytes),
                    EngineEvent::RevokeTorndown(Box::new(RevokeTeardown {
                        donor,
                        recipient,
                        generation,
                        lease,
                        priority,
                    })),
                );
                if P::ENABLED {
                    w.probe
                        .span_open(SpanKind::Teardown, recipient, generation, now);
                }
            }
        }
    }
    // Refresh the per-class quota flags the admission layer reads: a
    // class at its byte quota is clamped to the over-quota share until
    // its ledger drains (shrinks/revokes repay it).
    let tier = w.elastic.as_mut().expect("checked above");
    tier.signals = signals;
    tier.lent_bytes = lent_bytes;
    for (class, flag) in tier.over_quota.iter_mut().enumerate() {
        *flag = tier.manager.quota_blocks(class as u32);
    }
    // Keep ticking while the run is alive (arrivals pending or requests
    // in flight); afterwards the queue drains and the kernel stops.
    let interval = tier.manager.config().tick_interval;
    if w.issued < w.target || w.total_inflight() > 0 {
        s.schedule_event_in(interval, EngineEvent::LeaseTick);
    }
}

/// Drains every fault transition due now and applies it, then schedules
/// the next tick at the plan's next edge. Reached only when a
/// [`FaultPlan`](crate::faults::FaultPlan) is armed — `NoFaults` never
/// schedules a `FaultTick`.
pub(super) fn fault_tick<'a, P: Probe, M: RemoteModel, F: FaultModel>(
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
    while let Some(slot) = w.pop_backlog(node) {
        crash_shed(w, slot, now);
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
    let Some(tier) = &mut w.elastic else {
        // Static provisioning has no manager to re-establish through:
        // the Venice-stack grants touching the dead node are purged and
        // the affected tiers stay degraded — the gap the
        // elastic-with-failover comparison measures. Baseline stacks
        // never borrowed through the Monitor-Node flow, so the purge
        // finds nothing and their pre-partitioned tiers ride through.
        let purged = w
            .cluster
            .purge_node(NodeId(node as u16))
            .expect("purging a node's grants cannot fail");
        for lease in purged {
            lose_chunk(w, lease.recipient.0 as usize, lease);
        }
        return;
    };
    // Every *visible* grant touching the dead node fails over. A grant
    // still mid-establish or mid-teardown is not on any stack; its own
    // completion event settles it against the liveness state at fire
    // time.
    let mut lost: Vec<(usize, u64, MemoryLease)> = Vec::new();
    for (recipient, stack) in tier.leases.iter_mut().enumerate() {
        stack.retain(|&(generation, lease)| {
            let touches = lease.donor.0 as usize == node || recipient == node;
            if touches {
                lost.push((recipient, generation, lease));
            }
            !touches
        });
    }
    for (recipient, generation, lease) in lost {
        let tag = w.elastic.as_ref().expect("checked above").tags[recipient];
        let priority = w.tag_priority(tag);
        write_off(w, now, recipient as u16, generation, lease, priority);
        lose_chunk(w, recipient, lease);
        if P::ENABLED {
            w.probe
                .span_close(SpanKind::Active, recipient as u16, generation, now);
        }
        if recipient != node {
            // A surviving recipient lost its donor: open its degraded
            // window and re-establish on a live donor right away (the
            // dead node's own chunks wait for the ordinary lease tick
            // after it reboots).
            if P::ENABLED {
                w.probe
                    .span_open(SpanKind::Failover, recipient as u16, generation, now);
            }
            start_grow(w, s, recipient as u16, tag, false, None, generation);
        }
    }
}

/// Sheds the admitted request in `slot` to its node's crash: frees the
/// slot, closes its admission, and books and traces it as a crash loss.
/// Shared by the crash's backlog drain and a doomed request's `Finish`;
/// the caller returns whatever transport credit the request held.
pub(super) fn crash_shed<P: Probe, M: RemoteModel, F: FaultModel>(
    w: &mut World<'_, P, M, F>,
    slot: u32,
    now: Time,
) -> Request {
    let req = w.requests.take(slot);
    let class = req.class as usize;
    let node = req.node as usize;
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
    req
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
