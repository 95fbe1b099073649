//! Allocation budget of world set-up: a one-request run is almost all
//! set-up (cluster, Monitor Node tables, provisioning, servers, stats and
//! the report), so counting the heap allocations it makes pins how much
//! of that set-up goes through the allocator. A last test holds writing
//! a run's report as JSON to its output buffer alone.
//!
//! The counter is a thread-local tally kept by a wrapping global
//! allocator, so only allocations made on the test's own thread count. A
//! one-request width-1 run starts no fill helper, so the whole run
//! executes on that thread and the count cannot depend on the rayon
//! thread count (CI runs this test at one and at three threads, and with
//! `RAYON_NUM_THREADS` unset).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use venice::cluster::Cluster;
use venice::NodeId;
use venice_fabric::LinkParams;
use venice_loadgen::engine::Run;
use venice_loadgen::{
    AdmissionConfig, ArrivalProcess, FabricParams, FaultEvent, FaultPlan, LeaseConfig,
    LoadgenConfig, PlacementPolicy, RemoteModelCfg, RemoteStack, TenantMix,
};
use venice_sim::Time;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with` tolerates allocations made while the thread's locals
    // are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper
// only bumps a thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) made on this thread by `f`.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations of one execution of `run`, after a first execution has
/// filled every process-wide memo the run reads.
fn counted(run: impl Fn()) -> u64 {
    run();
    allocations_of(run)
}

/// A one-request `storm`-style row: a 16-node mesh, open-loop Poisson
/// arrivals and a static 256 MB remote tier borrowed through the
/// Monitor Node for every node.
fn storm_row(mix: TenantMix) -> LoadgenConfig {
    storm_row_on((4, 2, 2), mix)
}

/// [`storm_row`] on a `mesh` of any size.
fn storm_row_on(mesh: (u16, u16, u16), mix: TenantMix) -> LoadgenConfig {
    LoadgenConfig {
        seed: 1,
        mesh,
        mix,
        arrival: ArrivalProcess::OpenPoisson {
            rate_rps: 120_000.0,
        },
        requests: 1,
        per_node_concurrency: 8,
        admission: AdmissionConfig::default(),
        remote_memory_per_node: 256 << 20,
        stack: RemoteStack::VeniceCrma,
        lease: None,
        remote_model: RemoteModelCfg::Scalar,
    }
}

/// A one-request `flash-crash`-style row: elastic leases bootstrapped
/// through the borrow flow, a congested fabric and an armed fault plan.
fn flash_crash_row() -> (LoadgenConfig, FaultPlan) {
    let config = LoadgenConfig {
        seed: 1,
        mesh: (2, 2, 2),
        mix: TenantMix::web_frontend(),
        arrival: ArrivalProcess::Bursty {
            base_rps: 6_000.0,
            burst_rps: 90_000.0,
            period: Time::from_ms(500),
            burst_len: Time::from_ms(200),
            crowd_users: 4,
            crowd_share: 0.85,
        },
        requests: 1,
        per_node_concurrency: 8,
        admission: AdmissionConfig::default(),
        remote_memory_per_node: 256 << 20,
        stack: RemoteStack::VeniceCrma,
        lease: Some(LeaseConfig {
            chunk_bytes: 64 << 20,
            min_chunks: 1,
            max_chunks: 6,
            high_watermark: 10,
            low_watermark: 3,
            grow_cooldown_ticks: 2,
            release_cooldown_ticks: 250,
            tick_interval: Time::from_ms(1),
            donor_high_watermark: 14,
            revoke_cooldown_ticks: 60,
            ..LeaseConfig::default()
        }),
        remote_model: RemoteModelCfg::Congested(FabricParams::from_link(
            LinkParams::venice_prototype().with_gbps(2.0),
            Time::from_ms(1),
            PlacementPolicy::CongestionAware,
        )),
    };
    let plan = FaultPlan::new(vec![
        FaultEvent::NodeCrash {
            node: 0,
            at: Time::from_ms(3_100),
            recover_at: Time::from_ms(5_500),
        },
        FaultEvent::PacketLoss {
            a: 2,
            b: 3,
            at: Time::from_ms(2_000),
            per_mille: 20,
        },
    ]);
    (config, plan)
}

#[test]
fn a_one_request_storm_row_stays_inside_its_allocation_budget() {
    // Budget: the measured count, 167 with `RAYON_NUM_THREADS` set and
    // 166 without (reading the variable allocates its value). Before
    // heartbeats refilled one buffer per agent, histograms stored only
    // their occupied buckets and donor ranking stopped collecting
    // candidate lists, this row made 876 allocations, 275 before the
    // tape stopped giving every chunk slot an empty placeholder chunk,
    // and 258 before world assembly moved six per-node vectors into
    // per-world tables.
    const BUDGET: u64 = 167;
    let config = storm_row(TenantMix::web_frontend());
    let n = counted(|| {
        let out = Run::new(&config).execute();
        assert_eq!(out.report.issued, 1);
    });
    eprintln!("storm row: {n} allocations");
    assert!(
        n <= BUDGET,
        "storm row made {n} allocations, budget {BUDGET}"
    );
}

#[test]
fn a_one_request_lease_fabric_fault_row_stays_inside_its_allocation_budget() {
    // Budget: the measured count, 193 with `RAYON_NUM_THREADS` set and
    // 192 without (540 before the same change, 309 before the tape
    // placeholders went and the path compiler stopped collecting one
    // path `Vec` per node pair, and 237 before the per-world tables).
    // The fabric model builds a second mesh, so the coordinate tables
    // add two.
    const BUDGET: u64 = 193;
    let (config, plan) = flash_crash_row();
    let n = counted(|| {
        let out = Run::new(&config).faults(plan.clone()).execute();
        assert_eq!(out.report.issued, 1);
    });
    eprintln!("lease/fabric/fault row: {n} allocations");
    assert!(
        n <= BUDGET,
        "lease/fabric/fault row made {n} allocations, budget {BUDGET}"
    );
}

#[test]
fn a_larger_mesh_adds_only_the_clusters_own_per_node_allocations() {
    // Per node, the cluster allocates its address space's region list,
    // its agent's neighbor list and heartbeat report buffers, its CRMA
    // channel's RAMT and TLTLB, and its Monitor Node rows (the TST row
    // among them); the Monitor Node's node-indexed tables grow with the
    // mesh too. A
    // 4×4×4 mesh built and provisioned with one borrow per node makes
    // 404 allocations more than a 4×2×2 mesh (about 8.4 per node), so
    // the budget is 9 per node. World assembly builds per-world tables,
    // so the rest of the run adds none.
    const PER_NODE: u64 = 9;
    let run = |mesh| {
        let config = storm_row_on(mesh, TenantMix::web_frontend());
        counted(move || {
            let out = Run::new(&config).execute();
            assert_eq!(out.report.issued, 1);
        })
    };
    let cluster = |(dx, dy, dz)| {
        counted(move || {
            let mut cluster = Cluster::mesh(dx, dy, dz, 1 << 30, 512 << 20);
            for id in 0..cluster.len() as u16 {
                cluster
                    .borrow_memory(NodeId(id), 256 << 20)
                    .expect("every node finds a donor");
            }
        })
    };
    let (small, large) = ((4, 2, 2), (4, 4, 4));
    let added_nodes = 64 - 16;
    let added = run(large) - run(small);
    let cluster_added = cluster(large) - cluster(small);
    eprintln!("4x4x4 over 4x2x2: run +{added}, cluster alone +{cluster_added}");
    assert!(
        added <= added_nodes * PER_NODE,
        "48 more nodes added {added} allocations, budget {}",
        added_nodes * PER_NODE
    );
    assert_eq!(
        added, cluster_added,
        "the run grows by more than the cluster it builds"
    );
}

/// The [`flash_crash_row`] report after `requests` requests, with its
/// lease event count.
fn flash_crash_report(requests: u64) -> (venice_loadgen::LoadReport, usize) {
    let (mut config, plan) = flash_crash_row();
    config.requests = requests;
    let report = Run::new(&config).faults(plan).execute().report;
    let events = report.lease.events.len();
    (report, events)
}

#[test]
fn serializing_a_report_allocates_only_its_output_buffer() {
    // Writing JSON text goes straight into the output, so a report costs
    // no allocation per lease event (through a `Value` tree it cost about
    // 23). `to_writer` into a buffer with room allocates nothing;
    // `to_string` allocates only its output `String`: 128 bytes, then one
    // doubling at a time.
    let mut events_seen = Vec::new();
    for requests in [40_000, 120_000] {
        let (report, events) = flash_crash_report(requests);
        let len = serde_json::to_string(&report).unwrap().len();
        let mut buf = Vec::with_capacity(len);
        let into_buffer = allocations_of(|| serde_json::to_writer(&mut buf, &report).unwrap());
        assert_eq!(buf.len(), len);
        let doublings = (len.div_ceil(128)).next_power_of_two().trailing_zeros() as u64;
        let to_string = allocations_of(|| {
            serde_json::to_string(&report).unwrap();
        });
        eprintln!(
            "{requests} requests: {events} lease events, {len} bytes, \
             to_writer {into_buffer} and to_string {to_string} allocations"
        );
        assert_eq!(into_buffer, 0, "to_writer into a sized buffer allocated");
        assert!(
            to_string <= 1 + doublings,
            "to_string made {to_string} allocations for {len} bytes, budget {}",
            1 + doublings
        );
        events_seen.push(events);
    }
    assert!(
        events_seen[0] >= 100 && events_seen[1] > 2 * events_seen[0],
        "the rows log too few lease events: {events_seen:?}"
    );
}
