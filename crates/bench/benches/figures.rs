//! Criterion benches: one per reproduced table/figure, plus hot-path
//! microbenchmarks of the substrates the figures exercise.
//!
//! The figure generators are deterministic end-to-end evaluations, so
//! timing them both regenerates the data and tracks the cost of the
//! models themselves.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.bench_function("fig3_commodity", |b| {
        b.iter(|| black_box(venice::scenarios::fig3()))
    });
    g.bench_function("fig5_channels", |b| {
        b.iter(|| black_box(venice::scenarios::fig5()))
    });
    g.bench_function("fig6_router", |b| {
        b.iter(|| black_box(venice::scenarios::fig6()))
    });
    g.bench_function("fig14_redis", |b| {
        b.iter(|| black_box(venice::scenarios::fig14()))
    });
    g.bench_function("fig15_remote_memory", |b| {
        b.iter(|| black_box(venice::scenarios::fig15()))
    });
    g.bench_function("fig16a_accel", |b| {
        b.iter(|| black_box(venice::scenarios::fig16a()))
    });
    g.bench_function("fig16b_vnic", |b| {
        b.iter(|| black_box(venice::scenarios::fig16b()))
    });
    g.bench_function("fig17_multimodality", |b| {
        b.iter(|| black_box(venice::scenarios::fig17()))
    });
    g.bench_function("fig18_collab", |b| {
        b.iter(|| black_box(venice::scenarios::fig18()))
    });
    g.bench_function("table1", |b| {
        b.iter(|| black_box(venice::scenarios::table1()))
    });
    g.bench_function("table_cost", |b| {
        b.iter(|| black_box(venice::scenarios::cost_table()))
    });
    g.bench_function("validation", |b| {
        b.iter(|| black_box(venice::scenarios::validation()))
    });
    g.bench_function("ablations_all", |b| {
        b.iter(|| black_box(venice::scenarios::all_ablations()))
    });
    g.finish();
}

fn bench_substrates(c: &mut Criterion) {
    use venice_sim::{Kernel, Scheduler, SimEvent, SimRng, Time};

    /// Counts to 100,000, one event every 10 ns.
    struct Tick;

    impl SimEvent<u64> for Tick {
        fn fire(self, n: &mut u64, s: &mut Scheduler<u64, Tick>) {
            *n += 1;
            if *n < 100_000 {
                s.schedule_event_in(Time::from_ns(10), Tick);
            }
        }
    }

    let mut g = c.benchmark_group("substrates");
    g.bench_function("des_kernel_100k_events", |b| {
        b.iter(|| {
            let mut k = Kernel::new(0u64);
            k.schedule_event(Time::ZERO, Tick);
            black_box(k.run())
        })
    });
    g.bench_function("crma_read_latency", |b| {
        use venice_fabric::NodeId;
        use venice_transport::{CrmaChannel, CrmaConfig, PathModel};
        let path = PathModel::prototype_mesh();
        let mut ch = CrmaChannel::new(NodeId(0), CrmaConfig::default());
        ch.map_window(1 << 40, 1 << 30, NodeId(1), 0).unwrap();
        b.iter(|| black_box(ch.read_latency(&path, black_box(1 << 40))))
    });
    g.bench_function("rmat_scale14_generation", |b| {
        use venice_workloads::RmatGenerator;
        b.iter(|| {
            let g = RmatGenerator::graph500(14, 14);
            black_box(g.edges(&mut SimRng::seed(1)))
        })
    });
    g.bench_function("pagerank_scale12", |b| {
        use venice_workloads::rmat::{Csr, RmatGenerator};
        use venice_workloads::PageRank;
        let edges = RmatGenerator::graph500(12, 8).edges(&mut SimRng::seed(2));
        let csr = Csr::from_edges(1 << 12, &edges);
        let pr = PageRank::new();
        b.iter(|| black_box(pr.run_kernel(&csr)))
    });
    g.bench_function("bfs_scale14", |b| {
        use venice_workloads::rmat::Csr;
        use venice_workloads::Graph500;
        let g500 = Graph500::scaled(14);
        let edges = g500.generator().edges(&mut SimRng::seed(3));
        let csr = Csr::from_edges(1 << 14, &edges);
        b.iter(|| black_box(g500.bfs(&csr, 0)))
    });
    g.bench_function("loadgen_10k_requests", |b| {
        use venice_loadgen::{engine, LoadgenConfig, TenantMix};
        let config = LoadgenConfig {
            requests: 10_000,
            ..LoadgenConfig::new(1, TenantMix::web_frontend())
        };
        b.iter(|| black_box(engine::Run::new(&config).execute().report))
    });
    g.bench_function("cluster_borrow_release", |b| {
        use venice::cluster::Cluster;
        use venice::NodeId;
        b.iter(|| {
            let mut c = Cluster::prototype();
            let lease = c.borrow_memory(NodeId(0), 64 << 20).unwrap();
            c.release(lease).unwrap();
            black_box(c.now())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_figures, bench_substrates);
criterion_main!(benches);
