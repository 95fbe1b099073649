//! Per-function microbenchmarks: each layer's public entry point called
//! directly, in batches, with the workload's own parameters.
//!
//! Where a workload does not arm a layer (storm has no leases, no
//! congested fabric and no faults), the layer is still timed on the
//! workload's mesh with the layer's default parameters, so every
//! per-function time is measured on every workload; the pass counts show
//! that such a layer does no work there.

use std::hint::black_box;
use std::time::Instant;

use venice::cluster::Cluster;
use venice::NodeId;
use venice_fabric::{LinkParams, Mesh3d, PathTable};
use venice_lease::{LeaseAction, LeaseManager, NodeSignal, Priority};
use venice_loadgen::admission::{AdmissionControl, Decision};
use venice_loadgen::arrival::exponential;
use venice_loadgen::remote::{CongestedFabric, RemoteModel};
use venice_loadgen::tenants::NodeModel;
use venice_loadgen::{FabricParams, LoadgenConfig, PlacementPolicy, RemoteModelCfg};
use venice_sim::{EventQueue, LogHistogram, SimRng, Time};

use crate::workloads::Workload;

/// Local DRAM miss latency the engine charges the non-borrowed tier.
const LOCAL_MISS: Time = Time::from_ns(100);

/// Memory per node and lendable pool per node of the engine's cluster.
const NODE_MEMORY: u64 = 1 << 30;
const LENDABLE_PER_NODE: u64 = 512 << 20;

/// Length of the precomputed input rings (a power of two).
const RING: usize = 4096;

/// A batch shorter than this is too short to time; calibration doubles
/// the batch until it is at least this long.
const MIN_BATCH_NS: u128 = 500_000;

/// What the microbenchmarks need to know about the workload's own run.
#[derive(Debug, Clone, Copy)]
pub struct RunShape {
    /// Peak pending events of any row.
    pub peak_depth: usize,
    /// Mean simulated time between consecutive events.
    pub event_gap: Time,
}

/// One timed function: `op(n)` performs `n` operations and returns a
/// value derived from their results, so the work cannot be elided.
struct Bench {
    name: &'static str,
    /// Operations per timed batch.
    batch: u64,
    op: Box<dyn FnMut(u64) -> u64>,
    /// Nanoseconds per reported unit (1 for `_ns` metrics, 1000 for
    /// `_us`).
    unit_ns: f64,
    per_op: Vec<f64>,
}

impl Bench {
    fn new(name: &'static str, op: impl FnMut(u64) -> u64 + 'static) -> Self {
        Bench {
            name,
            batch: 1,
            op: Box::new(op),
            unit_ns: 1.0,
            per_op: Vec::new(),
        }
    }

    /// Reports this bench in microseconds per operation.
    fn micros(mut self) -> Self {
        self.unit_ns = 1_000.0;
        self
    }

    fn time_batch(&mut self) -> u128 {
        let start = Instant::now();
        black_box((self.op)(self.batch));
        start.elapsed().as_nanos()
    }

    /// Doubles the batch until one batch takes [`MIN_BATCH_NS`]; the
    /// calibration batches double as warm-up.
    fn calibrate(&mut self) {
        while self.time_batch() < MIN_BATCH_NS && self.batch < 1 << 24 {
            self.batch *= 2;
        }
    }

    fn sample(&mut self) {
        let ns = self.time_batch();
        self.per_op
            .push(ns as f64 / self.batch as f64 / self.unit_ns);
    }
}

/// Times every layer function round-robin until `deadline` (at least
/// `min_rounds` rounds) and returns `(metric name, median time per op)`.
pub fn run(
    workload: &Workload,
    shape: RunShape,
    seed: u64,
    deadline: Instant,
    min_rounds: usize,
) -> Vec<(&'static str, f64)> {
    let mut benches = benches(workload, shape, seed);
    for b in &mut benches {
        b.calibrate();
    }
    let mut rounds = 0;
    while rounds < min_rounds || Instant::now() < deadline {
        for b in &mut benches {
            b.sample();
        }
        rounds += 1;
    }
    benches
        .into_iter()
        .map(|b| (b.name, crate::stats::median(&b.per_op)))
        .collect()
}

/// The node model a row's requests see at the start of its run, with the
/// CRMA latency measured through the cluster's own borrow flow.
fn node_model(config: &LoadgenConfig) -> NodeModel {
    let (dx, dy, dz) = config.mesh;
    let mut cluster = Cluster::mesh(dx, dy, dz, NODE_MEMORY, LENDABLE_PER_NODE);
    let (bytes, slowdown) = match &config.lease {
        Some(lease) => (
            lease.chunk_bytes * lease.min_chunks as u64,
            lease.donor_pressure_slowdown,
        ),
        None => (config.remote_memory_per_node, 0.0),
    };
    let lease = cluster
        .borrow_memory(NodeId(0), bytes)
        .expect("an idle cluster lends one node its first chunk");
    // The first read warms the translation cache; the second is the
    // steady-state latency the engine charges.
    let read = |cluster: &mut Cluster| {
        cluster
            .crma_read(NodeId(0), lease.local_base + 64)
            .expect("a freshly mapped window is readable")
    };
    read(&mut cluster);
    NodeModel {
        local_miss: LOCAL_MISS,
        remote_miss: read(&mut cluster),
        remote_bytes: lease.bytes,
        full_bytes: config.remote_memory_per_node,
        lent_bytes: 0,
        lendable_bytes: LENDABLE_PER_NODE,
        lent_slowdown: slowdown,
    }
}

/// Mean open-loop gap between arrivals at the start of `config`'s run.
fn arrival_gap(config: &LoadgenConfig) -> Time {
    let rate = config.arrival.rate_at(Time::ZERO).unwrap_or(1_000.0);
    Time::from_secs_f64(1.0 / rate)
}

fn benches(workload: &Workload, shape: RunShape, seed: u64) -> Vec<Bench> {
    let rows: Vec<&LoadgenConfig> = workload.rows.iter().map(|r| &r.config).collect();
    let first = rows[0];
    let (dx, dy, dz) = workload.mesh();
    let nodes = first.nodes() as usize;
    let mut rng = SimRng::seed(seed ^ 0xBE7C);

    let mut out = Vec::new();

    // sim.queue: a hold model at the workload's peak depth — pop the
    // earliest event, push it back one depth's worth of event gaps later.
    {
        let depth = shape.peak_depth.max(16);
        let hold = Time::from_ps(shape.event_gap.as_ps().max(1) * depth as u64);
        let gaps: Vec<Time> = (0..RING).map(|_| exponential(&mut rng, hold)).collect();
        let mut queue = EventQueue::new();
        for i in 0..depth {
            queue.push(gaps[i % RING], i as u32);
        }
        let mut cursor = 0usize;
        out.push(Bench::new("queue.push_pop_ns", move |n| {
            let mut sum = 0u64;
            for _ in 0..n {
                let (at, e) = queue.pop().expect("the hold queue never drains");
                cursor = (cursor + 1) & (RING - 1);
                queue.push(at + gaps[cursor], e);
                sum = sum.wrapping_add(e as u64);
            }
            sum
        }));
    }

    // workloads.zipf: each row's user sampler, rows interleaved.
    {
        let samplers: Vec<_> = rows.iter().map(|c| c.mix.user_sampler()).collect();
        let mut rng = rng.fork(1);
        out.push(Bench::new("workloads.zipf_sample_ns", move |n| {
            let mut sum = 0u64;
            for i in 0..n as usize {
                sum = sum.wrapping_add(samplers[i % samplers.len()].sample(&mut rng));
            }
            sum
        }));
    }

    // loadgen.arrival: exponential gaps at each row's opening rate.
    {
        let means: Vec<Time> = rows.iter().map(|c| arrival_gap(c)).collect();
        let mut rng = rng.fork(2);
        out.push(Bench::new("arrival.exponential_ns", move |n| {
            let mut sum = 0u64;
            for i in 0..n as usize {
                sum = sum.wrapping_add(exponential(&mut rng, means[i % means.len()]).as_ps());
            }
            sum
        }));
    }

    // loadgen.tenants: every class of every row, compiled against the
    // row's provisioned node model.
    let services: Vec<_> = rows
        .iter()
        .flat_map(|c| {
            let model = node_model(c);
            c.mix
                .classes
                .iter()
                .map(move |class| class.profile.compile(&model))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut latencies = Vec::with_capacity(RING);
    {
        let mut rng = rng.fork(3);
        for i in 0..RING {
            latencies.push(services[i % services.len()].sample_split(&mut rng).0);
        }
    }
    {
        let mut rng = rng.fork(4);
        out.push(Bench::new("tenants.sample_split_ns", move |n| {
            let mut sum = 0u64;
            for i in 0..n as usize {
                let (t, miss) = services[i % services.len()].sample_split(&mut rng);
                sum = sum.wrapping_add(t.as_ps() + miss as u64);
            }
            sum
        }));
    }

    // sim.stats: recording the workload's own service-time samples.
    {
        let mut hist = LogHistogram::new();
        let mut cursor = 0usize;
        out.push(Bench::new("stats.hist_record_ns", move |n| {
            for _ in 0..n {
                cursor = (cursor + 1) & (RING - 1);
                hist.record(latencies[cursor]);
            }
            hist.count()
        }));
    }

    // loadgen.admission: one node's controller held at half its
    // in-flight cap, one arrival and one completion per operation.
    {
        let mut control = AdmissionControl::per_node(first.admission, nodes as u32);
        for _ in 0..control.config().max_inflight / 2 {
            control.on_arrival(Time::ZERO, Priority::High, false);
        }
        let priorities: Vec<Priority> = first.mix.classes.iter().map(|c| c.priority).collect();
        let gap = arrival_gap(first) * nodes as u64;
        let mut now = Time::ZERO;
        out.push(Bench::new("admission.on_arrival_ns", move |n| {
            let mut admitted = 0u64;
            for i in 0..n as usize {
                now += gap;
                let priority = priorities[i % priorities.len()];
                if control.on_arrival(now, priority, false) == Decision::Admit {
                    admitted += 1;
                    control.on_completion();
                }
            }
            admitted
        }));
    }

    // loadgen.remote: the congested fabric's per-dispatch charge, every
    // node routed to the node half the mesh away.
    {
        let params = match &first.remote_model {
            RemoteModelCfg::Congested(params) => params.clone(),
            RemoteModelCfg::Scalar => FabricParams::from_link(
                LinkParams::venice_prototype(),
                Time::from_ms(1),
                PlacementPolicy::ScalarPriced,
            ),
        };
        let wire: Vec<u64> = first
            .mix
            .classes
            .iter()
            .map(|c| c.profile.remote_wire_bytes())
            .collect();
        let classes = wire.len();
        let mut fabric = CongestedFabric::new(params, first.mesh, wire);
        for node in 0..nodes {
            fabric.set_route(node, Some(((node + nodes / 2) % nodes) as u16));
        }
        let gap = arrival_gap(first);
        let mut now = Time::ZERO;
        out.push(Bench::new("remote.charge_ns", move |n| {
            let mut sum = 0u64;
            for i in 0..n as usize {
                now += gap;
                sum = sum.wrapping_add(fabric.charge(now, i % nodes, i % classes).as_ps());
            }
            sum
        }));
    }

    // lease: one control tick over every node, its actions confirmed as
    // the engine would, fed pseudo-random queue depths around the
    // watermarks.
    {
        let config = first.lease.unwrap_or_default();
        let mut manager = LeaseManager::with_quotas(config, nodes as u16, first.mix.quotas());
        let classes = first.mix.classes.len() as u32;
        let mut rng = rng.fork(5);
        let signals: Vec<Vec<NodeSignal>> = (0..64)
            .map(|_| {
                (0..nodes)
                    .map(|node| NodeSignal {
                        tenant: node as u32 % classes,
                        ..NodeSignal::depth(
                            (rng.next_u64() % (2 * config.high_watermark as u64 + 1)) as u32,
                        )
                    })
                    .collect()
            })
            .collect();
        let mut now = Time::ZERO;
        let mut tick = 0usize;
        out.push(Bench::new("lease.tick_ns", move |n| {
            let mut acted = 0u64;
            for _ in 0..n {
                now += config.tick_interval;
                tick = (tick + 1) & 63;
                for action in manager.tick(now, &signals[tick]) {
                    acted += 1;
                    match action {
                        LeaseAction::Grow { node, predictive } => {
                            let tenant = signals[tick][node as usize].tenant;
                            manager.confirm_grow(now, node, tenant, predictive, Priority::Normal);
                        }
                        LeaseAction::Shrink { node } => {
                            if let Some(generation) = manager.newest_generation(node) {
                                manager.confirm_shrink(now, node, generation, Priority::Normal);
                            }
                        }
                        LeaseAction::Revoke { donor } => {
                            manager.deny_revoke(now, donor, Priority::Normal)
                        }
                        LeaseAction::Sublease { node, .. } => {
                            manager.deny_grow(now, node, 0, Priority::Normal)
                        }
                    }
                }
            }
            acted
        }));
    }

    // core.cluster: the Monitor-Node borrow flow and its teardown, one
    // chunk at a time, recipients cycling over the mesh.
    {
        let chunk = first
            .lease
            .map(|l| l.chunk_bytes)
            .unwrap_or(first.remote_memory_per_node);
        let mut cluster = Cluster::mesh(dx, dy, dz, NODE_MEMORY, LENDABLE_PER_NODE);
        let mut next = 0usize;
        out.push(Bench::new("cluster.borrow_release_ns", move |n| {
            let mut sum = 0u64;
            for _ in 0..n {
                next = (next + 1) % nodes;
                let lease = cluster
                    .borrow_memory(NodeId(next as u16), chunk)
                    .expect("an otherwise idle cluster always lends one chunk");
                sum = sum.wrapping_add(lease.donor.0 as u64);
                cluster
                    .release(lease)
                    .expect("a lease just granted can be released");
            }
            sum
        }));
    }

    // fabric.paths: compiling the mesh's all-pairs paths, and recompiling
    // them around one cut cable.
    {
        let mesh = Mesh3d::new(dx, dy, dz);
        out.push(
            Bench::new("fabric.path_compile_us", move |n| {
                let mut sum = 0u64;
                for _ in 0..n {
                    sum = sum.wrapping_add(PathTable::compile(&mesh).link_count() as u64);
                }
                sum
            })
            .micros(),
        );
    }
    {
        let mesh = Mesh3d::new(dx, dy, dz);
        let table = PathTable::compile(&mesh);
        let a = NodeId(0);
        let b = mesh.neighbors(a)[0];
        let down = [(a, b), (b, a)];
        out.push(
            Bench::new("fabric.path_recompile_us", move |n| {
                let mut sum = 0u64;
                for _ in 0..n {
                    let table = table.recompile_with_down(&mesh, &down);
                    sum = sum.wrapping_add(table.link_count() as u64);
                }
                sum
            })
            .micros(),
        );
    }
    out
}
